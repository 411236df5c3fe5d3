// Serve x router integration: `backend=auto` jobs are placed by
// route::plan at submit and execute on the routed backend/precision end
// to end, with admission priced by the router's time estimate.
#include <gtest/gtest.h>

#include <string>

#include "qgear/circuits/random_blocks.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/route/route.hpp"
#include "qgear/serve/job.hpp"
#include "qgear/serve/service.hpp"

namespace qgear::serve {
namespace {

qiskit::QuantumCircuit ghz(unsigned n) {
  qiskit::QuantumCircuit qc(n);
  qc.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return qc;
}

JobSpec auto_spec(qiskit::QuantumCircuit qc) {
  JobSpec spec;
  spec.circuit = std::move(qc);
  spec.backend = "auto";
  return spec;
}

TEST(ServeRoute, AutoJobRoundTripsWithRoutedBackendAndPrecision) {
  SimService::Options opts;
  opts.workers = 1;
  SimService svc(opts);
  JobTicket ticket = svc.submit(auto_spec(ghz(10)));
  ASSERT_TRUE(ticket.accepted());
  const JobResult result = ticket.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  // The router resolved a concrete placement — "auto" never leaks out.
  EXPECT_NE(result.backend, "auto");
  EXPECT_FALSE(result.backend.empty());
  EXPECT_TRUE(result.precision == "fp32" || result.precision == "fp64")
      << result.precision;
  // Admission priced the job with the router's estimate, not the old
  // gate-count surrogate.
  EXPECT_GT(result.est_execute_s, 0.0);
  EXPECT_GT(result.stats.gates, 0u);
}

TEST(ServeRoute, AutoJobIsPricedAtTheServiceFusionWidth) {
  // The worker compiles at Options::fusion.max_width, so that is the only
  // width admission may price: a width-2 service's auto job reports the
  // estimate route::plan gives over widths {2}.
  SimService::Options opts;
  opts.workers = 1;
  opts.fusion.max_width = 2;
  const qiskit::QuantumCircuit qc = circuits::generate_random_circuit(
      {.num_qubits = 12, .num_blocks = 120, .measure = false, .seed = 7});
  route::Budget budget;
  budget.memory_bytes = opts.memory_budget_bytes;
  budget.max_error = opts.route_max_error;
  route::RouteOptions ro;
  ro.calibration = opts.calibration;
  ro.base.fusion = opts.fusion;
  ro.fusion_widths = {2};
  const route::Placement expect = route::plan(qc, budget, ro);
  ASSERT_TRUE(expect.feasible);

  SimService svc(opts);
  const JobResult result = svc.submit(auto_spec(qc)).result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_EQ(result.backend, expect.choice.config.backend);
  EXPECT_DOUBLE_EQ(result.est_execute_s, expect.choice.seconds);
}

TEST(ServeRoute, AutoServiceDefaultAppliesToUnlabeledJobs) {
  SimService::Options opts;
  opts.workers = 1;
  opts.backend = "auto";
  SimService svc(opts);
  JobTicket ticket = svc.submit([&] {
    JobSpec spec;
    spec.circuit = ghz(8);
    return spec;  // backend left empty -> service default "auto"
  }());
  ASSERT_TRUE(ticket.accepted());
  const JobResult result = ticket.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_NE(result.backend, "auto");
  EXPECT_FALSE(result.backend.empty());
}

TEST(ServeRoute, AutoRoutesBigCircuitsAroundTheMemoryBudget) {
  // 34-qubit GHZ: 256 GiB dense, but a compact engine fits the budget —
  // auto must admit it where a pinned statevector backend is rejected.
  SimService::Options opts;
  opts.workers = 1;
  opts.memory_budget_bytes = std::uint64_t{256} << 20;  // 256 MiB
  SimService svc(opts);

  JobTicket pinned = svc.submit([&] {
    JobSpec spec;
    spec.circuit = ghz(34);
    spec.backend = "fused";
    return spec;
  }());
  EXPECT_FALSE(pinned.accepted());
  EXPECT_EQ(pinned.reject_reason(), RejectReason::memory_budget);

  JobTicket routed = svc.submit(auto_spec(ghz(34)));
  ASSERT_TRUE(routed.accepted());
  const JobResult result = routed.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_TRUE(result.backend == "dd" || result.backend == "mps")
      << result.backend;
}

TEST(ServeRoute, TightAccuracyBudgetForcesFp64Placement) {
  SimService::Options opts;
  opts.workers = 1;
  opts.route_max_error = 1e-9;  // below any fp32 error bound
  SimService svc(opts);
  JobTicket ticket = svc.submit(auto_spec(ghz(10)));
  ASSERT_TRUE(ticket.accepted());
  const JobResult result = ticket.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_EQ(result.precision, "fp64");
}

TEST(ServeRoute, InfeasiblePlacementRejectsAtSubmit) {
  SimService::Options opts;
  opts.workers = 1;
  opts.memory_budget_bytes = 1;  // nothing prices under a byte
  SimService svc(opts);
  JobTicket ticket = svc.submit(auto_spec(ghz(12)));
  EXPECT_FALSE(ticket.accepted());
  EXPECT_EQ(ticket.reject_reason(), RejectReason::memory_budget);
}

}  // namespace
}  // namespace qgear::serve
