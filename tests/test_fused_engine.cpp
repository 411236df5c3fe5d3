#include <gtest/gtest.h>

#include "qgear/circuits/qft.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/reference.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::sim {
namespace {

template <typename T>
double max_amp_diff(const StateVector<T>& a, const StateVector<T>& b) {
  double worst = 0;
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return worst;
}

TEST(FusedEngine, MatchesReferenceOnRandomCircuits) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto qc = sim_test::random_circuit(6, 250, seed);
    ReferenceEngine<double> ref;
    FusedEngine<double> fused;
    EXPECT_LT(max_amp_diff(ref.run(qc), fused.run(qc)), 1e-11) << seed;
  }
}

TEST(FusedEngine, AllFusionWidthsAgree) {
  const auto qc = sim_test::random_circuit(6, 200, 77);
  ReferenceEngine<double> ref;
  const auto expected = ref.run(qc);
  for (unsigned width = 1; width <= 6; ++width) {
    FusedEngine<double> fused({.fusion = {.max_width = width}});
    EXPECT_LT(max_amp_diff(expected, fused.run(qc)), 1e-10)
        << "width=" << width;
  }
}

TEST(FusedEngine, Fp32Agreement) {
  // serve's two circuit shapes: a random 12-qubit circuit and QFT(12),
  // whose wide blocks run the dense kernel over many groups.
  for (const auto& qc : {sim_test::random_circuit(12, 120, 13),
                         circuits::build_qft(12)}) {
    ReferenceEngine<float> ref;
    const auto expected = ref.run(qc);
    for (unsigned width = 3; width <= 5; ++width) {
      FusedEngine<float> fused({.fusion = {.max_width = width}});
      EXPECT_LT(max_amp_diff(expected, fused.run(qc)), 1e-4)
          << qc.name() << " width=" << width;
    }
  }
}

TEST(FusedEngine, ThreadPoolMatchesSerial) {
  const auto qc = sim_test::random_circuit(9, 150, 21);
  FusedEngine<double> serial;
  ThreadPool pool(4);
  FusedEngine<double> parallel({.fusion = {}, .pool = &pool});
  EXPECT_LT(max_amp_diff(serial.run(qc), parallel.run(qc)), 1e-12);
}

TEST(FusedEngine, DiagonalFastPathCorrect) {
  // Pure-diagonal circuit exercises apply_multi_diag.
  qiskit::QuantumCircuit qc(4);
  qc.h(0).h(1).h(2).h(3);
  qc.barrier();  // separate the diagonal block
  qc.rz(0.3, 0).cp(1.1, 0, 2).p(0.9, 3).cz(1, 3).rz(-0.4, 2);
  ReferenceEngine<double> ref;
  FusedEngine<double> fused({.fusion = {.max_width = 5}});
  EXPECT_LT(max_amp_diff(ref.run(qc), fused.run(qc)), 1e-12);
}

TEST(FusedEngine, FusionReducesSweeps) {
  const auto qc = sim_test::random_circuit(6, 400, 5, false);
  FusedEngine<double> narrow({.fusion = {.max_width = 1}});
  FusedEngine<double> wide({.fusion = {.max_width = 5}});
  narrow.run(qc);
  wide.run(qc);
  EXPECT_LT(wide.stats().sweeps, narrow.stats().sweeps / 2);
  EXPECT_EQ(wide.stats().gates, narrow.stats().gates);
}

TEST(FusedEngine, MeasuredQubitsReported) {
  qiskit::QuantumCircuit qc(3);
  qc.h(0).measure(0).measure(2);
  FusedEngine<double> fused;
  std::vector<unsigned> measured;
  fused.run(qc, &measured);
  EXPECT_EQ(measured, (std::vector<unsigned>{0, 2}));
}

TEST(FusedEngine, ApplyPlanReuse) {
  const auto qc = sim_test::random_circuit(5, 80, 99);
  const Program program = compile(qc, 4);
  FusedEngine<double> eng({.fusion = {.max_width = 4}});
  StateVector<double> s1(5), s2(5);
  eng.apply(program, s1);
  eng.apply(program, s2);
  EXPECT_LT(max_amp_diff(s1, s2), 1e-15);
  EXPECT_NEAR(s1.norm(), 1.0, 1e-10);
}

}  // namespace
}  // namespace qgear::sim
