// Cross-backend equivalence properties: the compact engines (dd, mps)
// must agree with the dense reference on circuit families where each is
// expected to be exact. These are the in-tree counterparts of the CI
// equivalence smoke (`qgear_cli diff-reports`), run at unit-test scale.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/dist/dist_backend.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/dd.hpp"
#include "qgear/sim/mps.hpp"
#include "qgear/sim/reference.hpp"
#include "qgear/sim/state.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::sim {
namespace {

std::vector<std::complex<double>> reference_state(
    const qiskit::QuantumCircuit& qc) {
  StateVector<double> state(qc.num_qubits());
  ReferenceEngine<double> engine;
  engine.apply(qc, state);
  return {state.data(), state.data() + state.size()};
}

/// Random Clifford+T circuit. Decision diagrams stay polynomial on this
/// family far longer than on Haar-random circuits, so 16 qubits is cheap.
qiskit::QuantumCircuit clifford_t_circuit(unsigned n, std::size_t gates,
                                          std::uint64_t seed) {
  using qiskit::GateKind;
  Rng rng(seed);
  qiskit::QuantumCircuit qc(n, "cliffT" + std::to_string(seed));
  const GateKind pool[] = {GateKind::h, GateKind::s,  GateKind::t,
                           GateKind::x, GateKind::z,  GateKind::cx,
                           GateKind::cz};
  for (std::size_t i = 0; i < gates; ++i) {
    const GateKind k = pool[rng.uniform_u64(std::size(pool))];
    const int q0 = static_cast<int>(rng.uniform_u64(n));
    qiskit::Instruction inst{k, q0, -1, 0.0};
    if (qiskit::gate_info(k).num_qubits == 2) {
      int q1 = q0;
      while (q1 == q0) q1 = static_cast<int>(rng.uniform_u64(n));
      inst.q1 = q1;
    }
    qc.append(inst);
  }
  return qc;
}

/// Nearest-neighbour brick pattern with few entangling layers: bond
/// dimension stays at most 2^layers, so MPS is exact and compact.
qiskit::QuantumCircuit low_entanglement_circuit(unsigned n, unsigned layers,
                                                std::uint64_t seed) {
  Rng rng(seed);
  qiskit::QuantumCircuit qc(n, "brick" + std::to_string(seed));
  for (unsigned l = 0; l < layers; ++l) {
    for (unsigned q = 0; q < n; ++q) {
      qc.ry(rng.uniform(0, 2 * M_PI), q);
      qc.rz(rng.uniform(0, 2 * M_PI), q);
    }
    for (unsigned q = l % 2; q + 1 < n; q += 2) qc.cx(q, q + 1);
  }
  return qc;
}

void expect_states_match(const std::vector<std::complex<double>>& got,
                         const std::vector<std::complex<double>>& expected,
                         double tol, const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  double max_err = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - expected[i]));
  }
  EXPECT_LE(max_err, tol) << label;
}

TEST(BackendEquivalence, DdMatchesReferenceOnCliffordT16Q) {
  for (std::uint64_t seed : {201, 202, 203}) {
    const auto qc = clifford_t_circuit(16, 150, seed);
    DdEngine engine;
    engine.init_state(16);
    engine.apply(qc);
    expect_states_match(engine.to_statevector(), reference_state(qc), 1e-9,
                        "seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, MpsMatchesReferenceOnCliffordT12Q) {
  // 12 qubits keeps worst-case bond (2^6) well inside the default cap,
  // so the default cutoff introduces only float-level truncation.
  for (std::uint64_t seed : {301, 302}) {
    const auto qc = clifford_t_circuit(12, 100, seed);
    MpsEngine engine;
    engine.init_state(12);
    engine.apply(qc);
    expect_states_match(engine.to_statevector(), reference_state(qc), 1e-7,
                        "seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, MpsMatchesReferenceOnLowEntanglement16Q) {
  for (std::uint64_t seed : {401, 402, 403}) {
    const auto qc = low_entanglement_circuit(16, 3, seed);
    MpsEngine engine;
    engine.init_state(16);
    engine.apply(qc);
    EXPECT_LE(engine.max_bond_dimension(), 8u) << "seed " << seed;
    expect_states_match(engine.to_statevector(), reference_state(qc), 1e-7,
                        "seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, AllBackendsAgreeOnUniversalRandom12Q) {
  // Universal gate set (rotations + cp + extras) at a size every engine
  // can represent exactly. Compare through the Backend interface, the
  // same way serve and the CLI drive the engines; dist is registered
  // first, as the CLI does.
  const auto qc = sim_test::random_circuit(12, 80, 777);
  const std::vector<std::string> paulis = {"Z", "ZIIIIIZ", "XX",
                                           "ZZZZZZZZZZZZ"};
  std::vector<double> want;
  for (const auto& p : paulis) {
    StateVector<double> state(12);
    ReferenceEngine<double> engine;
    engine.apply(qc, state);
    want.push_back(expectation(state, PauliTerm::parse(p)));
  }
  dist::register_dist_backend();
  obs::Counter& dist_runs = obs::Registry::global().counter("dist.runs");
  for (const char* name : {"fused", "dd", "mps", "dist"}) {
    auto be = Backend::create(name);
    be->init_state(12);
    be->apply_circuit(qc);
    const std::uint64_t runs_before = dist_runs.value();
    for (std::size_t i = 0; i < paulis.size(); ++i) {
      EXPECT_NEAR(be->expectation(PauliTerm::parse(paulis[i])), want[i],
                  1e-6)
          << name << " " << paulis[i];
    }
    // dist runs the circuit once and answers every read from its state.
    EXPECT_EQ(dist_runs.value() - runs_before,
              std::string(name) == "dist" ? 1u : 0u)
        << name;
  }
}

TEST(BackendEquivalence, DdAndMpsAgreeOnGhz40) {
  // 40 qubits is beyond any dense reference; the compact engines check
  // each other (the same pairing the CI ghz40 smoke uses).
  qiskit::QuantumCircuit qc(40);
  qc.h(0);
  for (unsigned q = 0; q + 1 < 40; ++q) qc.cx(q, q + 1);

  DdEngine dd;
  dd.init_state(40);
  dd.apply(qc);
  MpsEngine mps;
  mps.init_state(40);
  mps.apply(qc);

  const std::uint64_t ones = (std::uint64_t{1} << 40) - 1;
  for (const std::uint64_t basis : {std::uint64_t{0}, ones}) {
    EXPECT_NEAR(std::abs(dd.amplitude(basis) - mps.amplitude(basis)), 0.0,
                1e-10);
  }
  for (const char* pauli : {"Z", "ZZ", "ZIZ"}) {
    EXPECT_NEAR(dd.expectation(PauliTerm::parse(pauli)),
                mps.expectation(PauliTerm::parse(pauli)), 1e-10)
        << pauli;
  }
}

}  // namespace
}  // namespace qgear::sim
