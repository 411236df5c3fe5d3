// Parameterized property sweeps over the distributed engine: every
// (qubits, ranks, fusion) combination must match the single-device
// reference exactly and preserve the norm. Fusion 0 runs the per-gate
// schedule; fusion > 0 runs the remapped one at that width.
#include <gtest/gtest.h>

#include "qgear/dist/runner.hpp"
#include "qgear/sim/reference.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::dist {
namespace {

struct DistCase {
  unsigned qubits;
  int ranks;
  unsigned fusion;  // 0 = per-gate, else remapped at this width
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<DistCase>& info) {
  return "q" + std::to_string(info.param.qubits) + "_r" +
         std::to_string(info.param.ranks) + "_f" +
         std::to_string(info.param.fusion) + "_s" +
         std::to_string(info.param.seed);
}

class DistProperty : public testing::TestWithParam<DistCase> {};

TEST_P(DistProperty, MatchesReference) {
  const auto& p = GetParam();
  const auto qc = sim_test::random_circuit(p.qubits, 120, p.seed);
  const auto res = run_distributed<double>(
      qc, {.num_ranks = p.ranks, .gather_state = true,
           .fusion_width = p.fusion, .remap = p.fusion > 0});
  sim::ReferenceEngine<double> ref;
  const auto expected = ref.run(qc);
  double worst = 0;
  for (std::uint64_t i = 0; i < expected.size(); ++i) {
    worst = std::max(worst, std::abs(res.state[i] -
                                     std::complex<double>(expected[i])));
  }
  EXPECT_LT(worst, 1e-10);
  EXPECT_NEAR(res.norm, 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistProperty,
    testing::Values(DistCase{4, 2, 0, 201}, DistCase{5, 2, 3, 202},
                    DistCase{5, 4, 0, 203}, DistCase{6, 4, 5, 204},
                    DistCase{6, 8, 0, 205}, DistCase{7, 8, 4, 206},
                    DistCase{6, 1, 5, 207}, DistCase{7, 2, 2, 208}),
    case_name);

}  // namespace
}  // namespace qgear::dist
