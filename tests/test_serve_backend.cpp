// Serve x Backend integration: admission prices jobs with the resolved
// backend's memory_estimate (not a hard-coded 2^n), and non-default
// backends execute through the Backend interface end to end.
#include "qgear/serve/service.hpp"

#include <gtest/gtest.h>

#include <string>

#include "qgear/common/error.hpp"
#include "qgear/dist/dist_backend.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/route/cost.hpp"
#include "qgear/serve/job.hpp"
#include "qgear/sim/program.hpp"

namespace qgear::serve {
namespace {

qiskit::QuantumCircuit ghz(unsigned n) {
  qiskit::QuantumCircuit qc(n);
  qc.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return qc;
}

JobSpec spec_for(qiskit::QuantumCircuit qc, std::string backend = "") {
  JobSpec spec;
  spec.circuit = std::move(qc);
  spec.backend = std::move(backend);
  return spec;
}

SimService::Options budgeted(std::uint64_t budget_bytes,
                             std::string backend = "fused") {
  SimService::Options opts;
  opts.workers = 1;
  opts.backend = std::move(backend);
  opts.memory_budget_bytes = budget_bytes;
  return opts;
}

TEST(ServeBackend, MemoryBudgetRejectsOversizedStatevectorJob) {
  // 20 qubits dense = 16 MiB; a 1 MiB budget must refuse it at submit.
  SimService svc(budgeted(std::uint64_t{1} << 20));
  JobTicket ticket = svc.submit(spec_for(ghz(20)));
  EXPECT_FALSE(ticket.accepted());
  EXPECT_EQ(ticket.reject_reason(), RejectReason::memory_budget);
  // A job that fits the budget still goes through.
  JobTicket small = svc.submit(spec_for(ghz(10)));
  ASSERT_TRUE(small.accepted());
  EXPECT_EQ(small.result().get().status, JobStatus::completed);
}

TEST(ServeBackend, DdAdmitsWhereDenseIsRejected) {
  // 30-qubit GHZ: dense price 16 GiB, dd price is bounded by the node
  // budget (~hundreds of MiB). Same budget, opposite admission outcomes —
  // the whole point of pricing by the resolved backend's estimate.
  const std::uint64_t budget = std::uint64_t{1} << 29;  // 512 MiB
  SimService svc(budgeted(budget));
  JobTicket dense = svc.submit(spec_for(ghz(30)));
  EXPECT_FALSE(dense.accepted());
  EXPECT_EQ(dense.reject_reason(), RejectReason::memory_budget);

  JobTicket compact = svc.submit(spec_for(ghz(30), "dd"));
  ASSERT_TRUE(compact.accepted());
  const JobResult result = compact.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_EQ(result.backend, "dd");
  EXPECT_GT(result.stats.gates, 0u);
}

TEST(ServeBackend, MpsJobCompletesAndReportsBackend) {
  SimService::Options opts;
  opts.workers = 1;
  opts.backend = "mps";
  SimService svc(opts);
  JobTicket ticket = svc.submit(spec_for(ghz(16)));
  ASSERT_TRUE(ticket.accepted());
  const JobResult result = ticket.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_EQ(result.backend, "mps");
  EXPECT_EQ(result.stats.mps_max_bond, 2u);  // GHZ chain is bond-2
}

TEST(ServeBackend, PerJobBackendOverridesServiceDefault) {
  SimService::Options opts;
  opts.workers = 1;  // service default stays "fused"
  SimService svc(opts);
  JobTicket fused = svc.submit(spec_for(ghz(8)));
  JobTicket dd = svc.submit(spec_for(ghz(8), "dd"));
  ASSERT_TRUE(fused.accepted());
  ASSERT_TRUE(dd.accepted());
  EXPECT_EQ(fused.result().get().backend, "fused");
  EXPECT_EQ(dd.result().get().backend, "dd");
}

TEST(ServeBackend, UnknownBackendThrowsAtSubmit) {
  SimService::Options opts;
  opts.workers = 1;
  SimService svc(opts);
  EXPECT_THROW(svc.submit(spec_for(ghz(4), "warp-drive")), InvalidArgument);
}

TEST(ServeBackend, NonFusedJobsArePricedWithoutPlanning) {
  // Only the fused and dist prices read a program's blocks, so admitting
  // a reference, dd or mps job plans nothing, and its price is the one a
  // compiled program gives.
  obs::Counter& plans = obs::Registry::global().counter("sim.fusion_plans");
  SimService::Options opts;
  opts.workers = 1;
  SimService svc(opts);
  qiskit::QuantumCircuit qc = ghz(10);
  for (unsigned q = 0; q < 10; ++q) qc.ry(0.1 * (q + 1), q);
  for (const char* backend : {"reference", "dd", "mps"}) {
    const std::uint64_t before = plans.value();
    JobTicket ticket = svc.submit(spec_for(qc, backend));
    ASSERT_TRUE(ticket.accepted()) << backend;
    const JobResult result = ticket.result().get();
    EXPECT_EQ(result.status, JobStatus::completed) << backend;
    EXPECT_EQ(plans.value(), before) << backend;

    sim::BackendOptions bo;
    bo.fusion = opts.fusion;
    const double planned =
        route::time_estimate_for(backend, "fp64",
                                 sim::compile(qc, opts.fusion.max_width),
                                 svc.options().calibration, bo)
            .seconds;
    EXPECT_EQ(result.est_execute_s, planned) << backend;
  }
}

TEST(ServeBackend, DistJobThrowsAtSubmit) {
  // dist runs its circuit only on sample or expectation, which a job
  // never calls; admitting it would report a job that never ran.
  dist::register_dist_backend();
  SimService::Options opts;
  opts.workers = 1;
  SimService svc(opts);
  EXPECT_THROW(svc.submit(spec_for(ghz(10), "dist")), InvalidArgument);
}

TEST(ServeBackend, RejectCounterNamesMemoryBudget) {
  EXPECT_STREQ(reject_reason_name(RejectReason::memory_budget),
               "memory_budget");
}

}  // namespace
}  // namespace qgear::serve
