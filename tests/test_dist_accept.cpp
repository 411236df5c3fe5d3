// Full-size acceptance checks for the communication-avoiding distributed
// schedule. These allocate real state (16 ranks x 2^20 fp32 amplitudes)
// and are built without sanitizers; Debug builds skip the big case.
#include <gtest/gtest.h>

#include "qgear/circuits/qft.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/dist/runner.hpp"

namespace qgear::dist {
namespace {

bool optimized_build() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

TEST(DistAccept, Qft24At16RanksHalvesExchangeBytesAtEqualState) {
  if (!optimized_build()) {
    GTEST_SKIP() << "24-qubit sweep is too slow without optimization";
  }
  const unsigned n = 24;
  // QFT of a basis state has a closed form, so the full-size run checks
  // against an exact oracle without a 2^24 reference sweep.
  const std::uint64_t x = 0b101100111000101011001101ull;
  qiskit::QuantumCircuit qc(n);
  for (unsigned q = 0; q < n; ++q) {
    if ((x >> q) & 1u) qc.x(static_cast<int>(q));
  }
  qc.compose(circuits::build_qft(n, {.do_swaps = true}));

  const auto per_gate = run_distributed<float>(qc, {.num_ranks = 16});
  const auto remapped = run_distributed<float>(
      qc, {.num_ranks = 16, .gather_state = true, .fusion_width = 5,
           .remap = true, .threads_per_rank = 2,
           .exchange_chunk_bytes = 1 << 18});

  // >= 2x fewer exchange bytes than the per-gate schedule.
  EXPECT_GE(per_gate.circuit_exchange_bytes,
            2 * remapped.circuit_exchange_bytes);
  EXPECT_GT(remapped.remap_slab_swaps, 0u);
  EXPECT_EQ(remapped.remap_elided_swaps, n / 2);
  EXPECT_NEAR(remapped.norm, 1.0, 1e-4);

  // Equal final state, against the analytic oracle.
  const auto oracle = circuits::qft_of_basis_state(n, x);
  ASSERT_EQ(remapped.state.size(), oracle.size());
  double worst = 0;
  for (std::uint64_t i = 0; i < oracle.size(); ++i) {
    worst = std::max(
        worst, std::abs(std::complex<double>(remapped.state[i]) - oracle[i]));
  }
  EXPECT_LT(worst, 2e-5);
}

TEST(DistAccept, RemapMatchesFusedStateAtModerateSize) {
  // Cross-check the two distributed schedules against each other (double
  // precision, exact comparison territory) at a size Debug builds can run.
  const auto qc = circuits::build_qft(12, {.do_swaps = true});
  const auto per_gate = run_distributed<double>(
      qc, {.num_ranks = 16, .gather_state = true});
  const auto remapped = run_distributed<double>(
      qc, {.num_ranks = 16, .gather_state = true, .fusion_width = 5,
           .remap = true, .threads_per_rank = 2});
  ASSERT_EQ(per_gate.state.size(), remapped.state.size());
  double worst = 0;
  for (std::size_t i = 0; i < per_gate.state.size(); ++i) {
    worst = std::max(worst, std::abs(per_gate.state[i] - remapped.state[i]));
  }
  EXPECT_LT(worst, 1e-11);
  EXPECT_GE(per_gate.circuit_exchange_bytes,
            2 * remapped.circuit_exchange_bytes);
}

}  // namespace
}  // namespace qgear::dist
