// Direct tests of the amplitude-sweep kernels against brute-force dense
// matrix application (built with the cmat machinery).
#include <gtest/gtest.h>

#include "qgear/common/rng.hpp"
#include "qgear/sim/apply.hpp"
#include "qgear/sim/cmat.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/state.hpp"

namespace qgear::sim {
namespace {

// Random normalized state.
StateVector<double> random_state(unsigned n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector<double> s(n);
  double norm2 = 0;
  for (std::uint64_t i = 0; i < s.size(); ++i) {
    s[i] = {rng.normal(), rng.normal()};
    norm2 += std::norm(s[i]);
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (std::uint64_t i = 0; i < s.size(); ++i) s[i] *= inv;
  return s;
}

// Brute-force application of a unitary over an ascending qubit subset via
// full-dimension embedding — the oracle every kernel must match.
StateVector<double> dense_apply(const StateVector<double>& in,
                                const std::vector<unsigned>& qubits,
                                const CMat& u) {
  std::vector<unsigned> all(in.num_qubits());
  for (unsigned q = 0; q < in.num_qubits(); ++q) all[q] = q;
  const CMat full = embed(u, qubits, all);
  StateVector<double> out(in.num_qubits());
  for (std::uint64_t r = 0; r < in.size(); ++r) {
    std::complex<double> acc(0, 0);
    for (std::uint64_t c = 0; c < in.size(); ++c) {
      acc += full.at(r, c) * in[c];
    }
    out[r] = acc;
  }
  return out;
}

double max_diff(const StateVector<double>& a, const StateVector<double>& b) {
  double worst = 0;
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

CMat random_unitary_from_circuit(const std::vector<unsigned>& local_qubits,
                                 std::uint64_t seed) {
  // Build a small random unitary as a fused block over the subset.
  const unsigned m = static_cast<unsigned>(local_qubits.size());
  qiskit::QuantumCircuit qc(m);
  Rng rng(seed);
  for (int g = 0; g < 20; ++g) {
    const int q = static_cast<int>(rng.uniform_u64(m));
    qc.ry(rng.uniform(0, 6.28), q);
    if (m > 1) {
      int t = q;
      while (t == q) t = static_cast<int>(rng.uniform_u64(m));
      qc.cx(q, t);
    }
    qc.rz(rng.uniform(0, 6.28), q);
  }
  const FusionPlan plan = plan_fusion(qc, {.max_width = m});
  // Multiply all blocks into one m-qubit matrix.
  std::vector<unsigned> all(m);
  for (unsigned j = 0; j < m; ++j) all[j] = j;
  CMat u = CMat::identity(pow2(m));
  for (const FusedBlock& b : plan.blocks) {
    CMat bm(pow2(static_cast<unsigned>(b.qubits.size())));
    for (std::uint64_t i = 0; i < b.matrix.size(); ++i) {
      bm.at(i / bm.dim(), i % bm.dim()) = b.matrix[i];
    }
    u = embed(bm, b.qubits, all).mul(u);
  }
  return u;
}

TEST(Kernels, Apply1qMatchesDense) {
  for (unsigned q = 0; q < 5; ++q) {
    auto s = random_state(5, 10 + q);
    const auto expected = dense_apply(
        s, {q}, [] {
          CMat m(2);
          const qiskit::Mat2 h = qiskit::gate_matrix_1q(qiskit::GateKind::h, 0);
          m.at(0, 0) = h[0];
          m.at(0, 1) = h[1];
          m.at(1, 0) = h[2];
          m.at(1, 1) = h[3];
          return m;
        }());
    apply_1q(s.data(), 5, q, qiskit::gate_matrix_1q(qiskit::GateKind::h, 0));
    EXPECT_LT(max_diff(s, expected), 1e-13) << q;
  }
}

TEST(Kernels, Apply2qDenseMatchesGeneric) {
  // The unrolled 4x4 fast path must agree with the generic gather path.
  for (auto [lo, hi] : {std::pair{0u, 1u}, {0u, 4u}, {2u, 3u}, {1u, 5u}}) {
    const CMat u = random_unitary_from_circuit({0u, 1u}, lo * 7 + hi);
    ASSERT_TRUE(u.is_unitary(1e-9));
    auto a = random_state(6, 99);
    auto b = a;
    apply_2q_dense(a.data(), 6, lo, hi, u.data());
    // Generic path (width > 2 dispatch avoided by calling with a dummy
    // third... instead use dense oracle).
    const auto expected = dense_apply(b, {lo, hi}, u);
    EXPECT_LT(max_diff(a, expected), 1e-12) << lo << "," << hi;
  }
}

TEST(Kernels, ApplyMultiMatchesDenseUpToWidth4) {
  const std::vector<std::vector<unsigned>> subsets = {
      {0}, {3}, {0, 2}, {1, 4}, {0, 1, 3}, {2, 3, 4}, {0, 1, 2, 4}};
  for (const auto& qubits : subsets) {
    const CMat u = random_unitary_from_circuit(
        [&] {
          std::vector<unsigned> local(qubits.size());
          for (unsigned j = 0; j < local.size(); ++j) local[j] = j;
          return local;
        }(),
        qubits.size() * 31 + qubits[0]);
    auto s = random_state(5, 7);
    const auto expected = dense_apply(s, qubits, u);
    apply_multi(s.data(), 5, qubits, u.data());
    EXPECT_LT(max_diff(s, expected), 1e-12);
  }
}

TEST(Kernels, DiagonalKernelMatchesGeneral) {
  // Build a diagonal 3-qubit block (phases) and compare both kernels.
  const std::vector<unsigned> qubits = {0, 2, 3};
  CMat diag(8);
  std::vector<std::complex<double>> values(8);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 8; ++i) {
    values[i] = std::polar(1.0, rng.uniform(0, 6.28));
    diag.at(i, i) = values[i];
  }
  auto a = random_state(5, 21);
  auto b = a;
  apply_multi(a.data(), 5, qubits, diag.data());
  apply_multi_diag(b.data(), 5, qubits, values);
  EXPECT_LT(max_diff(a, b), 1e-13);
}

TEST(Kernels, ControlledPhaseMatchesControlled1q) {
  // Oracle: the dense 4x4 CP matrix diag(1, 1, 1, e^{i lambda}) on
  // qubits {1, 3} through the general block kernel.
  auto a = random_state(4, 3);
  auto b = a;
  const double lambda = 0.77;
  apply_controlled_phase(a.data(), 4, 1u, 3u,
                         std::complex<double>(std::polar(1.0, lambda)));
  CMat cp = CMat::identity(4);
  cp.at(3, 3) = std::polar(1.0, lambda);
  apply_multi(b.data(), 4, {1u, 3u}, cp.data());
  EXPECT_LT(max_diff(a, b), 1e-13);
}

TEST(Kernels, SwapMatchesPermutation) {
  auto s = random_state(4, 8);
  auto expected = s;
  for (std::uint64_t i = 0; i < s.size(); ++i) {
    // Swap bits 0 and 3 of the index.
    const std::uint64_t j = (clear_bit(clear_bit(i, 0), 3)) |
                            (test_bit(i, 0) ? pow2(3) : 0) |
                            (test_bit(i, 3) ? pow2(0) : 0);
    expected[j] = s[i];
  }
  apply_swap(s.data(), 4, 0u, 3u);
  EXPECT_LT(max_diff(s, expected), 1e-15);
}

TEST(Kernels, ThreadPoolEquivalenceAllKernels) {
  ThreadPool pool(3);
  const std::vector<unsigned> qubits = {1, 3, 4};
  const CMat u = random_unitary_from_circuit({0u, 1u, 2u}, 17);
  auto serial = random_state(9, 1);
  auto pooled = serial;
  apply_multi(serial.data(), 9, qubits, u.data());
  apply_multi(pooled.data(), 9, qubits, u.data(), &pool);
  EXPECT_LT(max_diff(serial, pooled), 1e-15);

  auto s1 = random_state(9, 2);
  auto s2 = s1;
  apply_1q_diagonal(s1.data(), 9, 5u, std::complex<double>(1, 0),
                    std::complex<double>(0, 1));
  apply_1q_diagonal(s2.data(), 9, 5u, std::complex<double>(1, 0),
                    std::complex<double>(0, 1), &pool);
  EXPECT_LT(max_diff(s1, s2), 1e-15);
}

}  // namespace
}  // namespace qgear::sim
