// Engine-agnostic backend conformance suite.
//
// Every test here runs against sim::Backend::default_name(), so CI's
// backend-matrix job re-runs the whole file once per engine by exporting
// QGEAR_BACKEND=reference|fused|dd|mps — one suite, four backends, no
// per-engine test code. Keep circuits <= 16 qubits so every engine
// (including dense statevector) stays cheap.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "qgear/common/rng.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/observable.hpp"
#include "qgear/sim/reference.hpp"
#include "qgear/sim/state.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::sim {
namespace {

std::unique_ptr<Backend> make_backend() {
  return Backend::create(Backend::default_name());
}

double reference_expectation(const qiskit::QuantumCircuit& qc,
                             const PauliTerm& term) {
  StateVector<double> state(qc.num_qubits());
  ReferenceEngine<double> engine;
  engine.apply(qc, state);
  return expectation(state, term);
}

qiskit::QuantumCircuit ghz(unsigned n) {
  qiskit::QuantumCircuit qc(n);
  qc.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return qc;
}

TEST(BackendMatrix, ReportsItsName) {
  auto be = make_backend();
  EXPECT_EQ(be->name(), Backend::default_name());
}

TEST(BackendMatrix, BellStateSamplesOnlyCorrelatedOutcomes) {
  auto be = make_backend();
  be->init_state(2);
  qiskit::QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  be->apply_circuit(qc);
  Rng rng(11);
  const Counts counts = be->sample({}, 2000, rng);
  std::uint64_t zeros = 0, ones = 0;
  for (const auto& [key, count] : counts) {
    ASSERT_TRUE(key == 0 || key == 3) << "impossible outcome " << key;
    (key == 0 ? zeros : ones) += count;
  }
  EXPECT_EQ(zeros + ones, 2000u);
  // Two-sided binomial bound, ~6 sigma.
  EXPECT_NEAR(static_cast<double>(zeros), 1000.0, 6 * std::sqrt(500.0));
}

TEST(BackendMatrix, GhzExpectations) {
  auto be = make_backend();
  be->init_state(12);
  be->apply_circuit(ghz(12));
  EXPECT_NEAR(be->expectation(PauliTerm::parse("Z")), 0.0, 1e-6);
  EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZ")), 1.0, 1e-6);
  EXPECT_NEAR(be->expectation(PauliTerm::parse("XXXXXXXXXXXX")), 1.0, 1e-6);
}

TEST(BackendMatrix, MatchesReferenceExpectationsOnRandomCircuit) {
  const auto qc = sim_test::random_circuit(8, 60, 42);
  auto be = make_backend();
  be->init_state(8);
  be->apply_circuit(qc);
  for (const char* pauli : {"Z", "ZIIZ", "XY", "ZZZZZZZZ"}) {
    const PauliTerm term = PauliTerm::parse(pauli);
    EXPECT_NEAR(be->expectation(term), reference_expectation(qc, term),
                1e-6)
        << pauli;
  }
}

TEST(BackendMatrix, ObservableSumsTerms) {
  const auto qc = sim_test::random_circuit(6, 40, 43);
  auto be = make_backend();
  be->init_state(6);
  be->apply_circuit(qc);
  const Observable ising = Observable::ising_ring(6, 1.0, 0.5);
  double by_terms = 0;
  for (const PauliTerm& term : ising.terms()) {
    by_terms += reference_expectation(qc, term);
  }
  EXPECT_NEAR(be->expectation(ising), by_terms, 1e-6);
}

TEST(BackendMatrix, ApplyCircuitComposes) {
  const auto first = sim_test::random_circuit(6, 25, 44);
  const auto second = sim_test::random_circuit(6, 25, 45);
  qiskit::QuantumCircuit composed(6);
  composed.compose(first);
  composed.compose(second);

  auto be = make_backend();
  be->init_state(6);
  be->apply_circuit(first);
  be->apply_circuit(second);
  const PauliTerm term = PauliTerm::parse("ZZZZZZ");
  EXPECT_NEAR(be->expectation(term), reference_expectation(composed, term),
              1e-6);
}

TEST(BackendMatrix, MeasureOpsReportTargets) {
  qiskit::QuantumCircuit qc(5);
  qc.h(0).cx(0, 3);
  qc.measure(0);
  qc.measure(3);
  auto be = make_backend();
  be->init_state(5);
  std::vector<unsigned> measured;
  be->apply_circuit(qc, &measured);
  ASSERT_EQ(measured.size(), 2u);
  EXPECT_EQ(measured[0], 0u);
  EXPECT_EQ(measured[1], 3u);
  Rng rng(6);
  const Counts counts = be->sample(measured, 300, rng);
  for (const auto& [key, count] : counts) {
    EXPECT_TRUE(key == 0 || key == 3) << "uncorrelated outcome " << key;
  }
}

TEST(BackendMatrix, ReInitDiscardsState) {
  auto be = make_backend();
  be->init_state(3);
  qiskit::QuantumCircuit qc(3);
  qc.x(0).x(1).x(2);
  be->apply_circuit(qc);
  be->init_state(3);  // back to |000>
  EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZZ")), 1.0, 1e-6);

  // A width change starts over at the new width, and changing back
  // starts over again: 3 -> 5 -> 3 qubits, dirtying the state each time.
  be->apply_circuit(qc);
  be->init_state(5);
  EXPECT_EQ(be->num_qubits(), 5u);
  EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZZZZ")), 1.0, 1e-6);
  qiskit::QuantumCircuit wide(5);
  wide.x(0).x(2).x(4);
  be->apply_circuit(wide);
  EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZZZZ")), -1.0, 1e-6);
  be->init_state(3);
  EXPECT_EQ(be->num_qubits(), 3u);
  EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZZ")), 1.0, 1e-6);
  Rng rng(4);
  const Counts counts = be->sample({}, 50, rng);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.begin()->first, 0u);
}

TEST(BackendMatrix, SixteenQubitShallowCircuit) {
  auto be = make_backend();
  be->init_state(16);
  be->apply_circuit(ghz(16));
  EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZ")), 1.0, 1e-6);
  Rng rng(8);
  const Counts counts = be->sample({}, 100, rng);
  const std::uint64_t ones = (std::uint64_t{1} << 16) - 1;
  for (const auto& [key, count] : counts) {
    EXPECT_TRUE(key == 0 || key == ones);
  }
}

TEST(BackendMatrix, StatsAccumulateGates) {
  auto be = make_backend();
  be->init_state(4);
  be->apply_circuit(sim_test::random_circuit(4, 30, 46));
  EXPECT_GT(be->stats().gates, 0u);
  be->reset_stats();
  EXPECT_EQ(be->stats().gates, 0u);
}

}  // namespace
}  // namespace qgear::sim
