#include "qgear/serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "qgear/obs/context.hpp"
#include "qgear/obs/json.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/serve/loadgen.hpp"

namespace qgear::serve {
namespace {

// Small but non-trivial workload: `layers` rounds of mixed one- and
// two-qubit gates so compilation and execution both do real work.
qiskit::QuantumCircuit layered_circuit(unsigned qubits, unsigned layers,
                                       double phase = 0.1) {
  qiskit::QuantumCircuit qc(qubits);
  for (unsigned l = 0; l < layers; ++l) {
    for (unsigned q = 0; q < qubits; ++q) {
      qc.h(q).ry(phase + 0.01 * static_cast<double>(l * qubits + q), q);
    }
    for (unsigned q = 0; q + 1 < qubits; ++q) qc.cx(q, q + 1);
  }
  return qc;
}

JobSpec spec_for(qiskit::QuantumCircuit qc, std::string tenant = "default",
                 Priority priority = Priority::normal) {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.priority = priority;
  spec.circuit = std::move(qc);
  return spec;
}

// A workload big enough to keep a single worker busy for several
// milliseconds — used to pin the worker while the test races it.
JobSpec busy_spec(const std::string& tenant = "default") {
  return spec_for(layered_circuit(14, 60), tenant);
}

SimService::Options small_service(unsigned workers) {
  SimService::Options opts;
  opts.workers = workers;
  return opts;
}

TEST(SimService, CompletesASubmittedJob) {
  SimService svc(small_service(2));
  JobTicket ticket = svc.submit(spec_for(layered_circuit(4, 3)));
  ASSERT_TRUE(ticket.accepted());
  EXPECT_GT(ticket.job_id(), 0u);

  const JobResult result = ticket.result().get();
  EXPECT_EQ(result.status, JobStatus::completed);
  EXPECT_EQ(result.job_id, ticket.job_id());
  EXPECT_EQ(result.tenant, "default");
  EXPECT_GT(result.stats.sweeps, 0u);
  EXPECT_GT(result.stats.amp_ops, 0u);
  EXPECT_GE(result.e2e_s, result.execute_s);
  EXPECT_GE(result.queue_wait_s, 0.0);
}

TEST(SimService, DuplicateCircuitsServeFromCache) {
  SimService svc(small_service(2));
  // Prime the cache, then submit the same circuit repeatedly.
  const qiskit::QuantumCircuit qc = layered_circuit(5, 4);
  ASSERT_EQ(svc.submit(spec_for(qc)).result().get().status,
            JobStatus::completed);

  std::vector<JobTicket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(svc.submit(spec_for(qc)));
  for (auto& t : tickets) {
    const JobResult r = t.result().get();
    EXPECT_EQ(r.status, JobStatus::completed);
    EXPECT_TRUE(r.cache_hit);
  }
  const auto stats = svc.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 5u);
}

TEST(SimService, PlansOncePerDistinctCircuit) {
  // Admission compiles each fused job through the cache and prices it
  // from that program; the worker runs the same program. So 12 jobs over
  // 4 distinct circuits plan fusion 4 times.
  obs::Counter& plans = obs::Registry::global().counter("sim.fusion_plans");
  SimService svc(small_service(2));
  const std::uint64_t before = plans.value();
  std::vector<JobTicket> tickets;
  for (int round = 0; round < 3; ++round) {
    for (int c = 0; c < 4; ++c) {
      tickets.push_back(svc.submit(spec_for(layered_circuit(5, 2, 0.1 * c))));
      ASSERT_TRUE(tickets.back().accepted());
    }
  }
  for (auto& t : tickets) {
    EXPECT_EQ(t.result().get().status, JobStatus::completed);
  }
  EXPECT_EQ(plans.value() - before, 4u);
  const auto stats = svc.cache().stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 8u);
}

TEST(SimService, DrainCompletesEverythingWithoutDrops) {
  SimService svc(small_service(3));
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 30; ++i) {
    tickets.push_back(svc.submit(spec_for(
        layered_circuit(5, 2, 0.1 * (i % 4)), "t" + std::to_string(i % 3))));
    ASSERT_TRUE(tickets.back().accepted());
  }
  svc.drain();
  for (auto& t : tickets) {
    EXPECT_EQ(t.result().get().status, JobStatus::completed);
  }
  EXPECT_EQ(svc.dropped_jobs(), 0u);
  EXPECT_GT(svc.folded_stats().sweeps, 0u);
  // Drain is terminal: further submissions are refused, not queued.
  JobTicket late = svc.submit(spec_for(layered_circuit(3, 1)));
  EXPECT_FALSE(late.accepted());
  EXPECT_EQ(late.reject_reason(), RejectReason::shutting_down);
}

TEST(SimService, ExecutionTimeoutIsHonored) {
  SimService svc(small_service(1));
  JobSpec spec = busy_spec();
  spec.timeout_s = 1e-6;  // expires before a worker picks the job up
  const JobResult result = svc.submit(std::move(spec)).result().get();
  EXPECT_EQ(result.status, JobStatus::timed_out);
  EXPECT_EQ(result.stats.sweeps, 0u);  // no completed-job stats folded
}

TEST(SimService, TimeoutStopsExecutionBetweenBlocks) {
  // A timeout that lands mid-plan stops the job between fused blocks:
  // it times out having run some, not all, of the blocks its program
  // holds. A first job, timed out before execution, compiles the circuit
  // so the second one's timeout spans only queueing and execution.
  SimService svc(small_service(1));
  const qiskit::QuantumCircuit qc = layered_circuit(20, 20);
  JobSpec warm = spec_for(qc);
  warm.timeout_s = 1e-6;
  ASSERT_EQ(svc.submit(std::move(warm)).result().get().status,
            JobStatus::timed_out);

  JobSpec spec = spec_for(qc);
  spec.timeout_s = 0.2;
  const JobResult result = svc.submit(std::move(spec)).result().get();
  EXPECT_EQ(result.status, JobStatus::timed_out);
  EXPECT_TRUE(result.cache_hit);
  const std::size_t planned =
      sim::compile(qiskit::transpile(qc), svc.options().fusion.max_width)
          .blocks()
          .size();
  EXPECT_GT(result.stats.fused_blocks, 0u);
  EXPECT_LT(result.stats.fused_blocks, planned);
}

TEST(SimService, QueueDeadlineExpiresStaleJobs) {
  SimService svc(small_service(1));
  JobSpec spec = spec_for(layered_circuit(4, 2));
  spec.queue_deadline_s = 1e-9;  // already stale when a worker gets to it
  const JobResult result = svc.submit(std::move(spec)).result().get();
  EXPECT_EQ(result.status, JobStatus::deadline_expired);
}

TEST(SimService, CancelledWhileQueuedNeverExecutes) {
  SimService svc(small_service(1));
  // Pin the only worker, then cancel a queued job before it can run.
  JobTicket busy = svc.submit(busy_spec());
  ASSERT_TRUE(busy.accepted());
  JobTicket victim = svc.submit(spec_for(layered_circuit(4, 2)));
  ASSERT_TRUE(victim.accepted());
  victim.cancel();

  EXPECT_EQ(victim.result().get().status, JobStatus::cancelled);
  EXPECT_EQ(busy.result().get().status, JobStatus::completed);
}

TEST(SimService, NonGracefulShutdownDropsQueuedJobs) {
  auto opts = small_service(1);
  auto svc = std::make_unique<SimService>(opts);
  std::vector<JobTicket> tickets;
  tickets.push_back(svc->submit(busy_spec()));  // occupies the worker
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(svc->submit(spec_for(layered_circuit(12, 40))));
    ASSERT_TRUE(tickets.back().accepted());
  }
  svc->shutdown(/*graceful=*/false);

  std::uint64_t dropped = 0;
  for (auto& t : tickets) {
    const JobResult r = t.result().get();  // every future still completes
    EXPECT_TRUE(r.status == JobStatus::completed ||
                r.status == JobStatus::dropped)
        << job_status_name(r.status);
    if (r.status == JobStatus::dropped) ++dropped;
  }
  EXPECT_GE(dropped, 1u);  // the worker cannot have run all 6 yet
  EXPECT_EQ(svc->dropped_jobs(), dropped);
}

TEST(SimService, BackpressureSurfacesRejectReasons) {
  SimService::Options opts;
  opts.workers = 1;
  opts.scheduler.capacity = 1;
  opts.scheduler.per_tenant_inflight = 1;
  SimService svc(opts);

  JobTicket running = svc.submit(busy_spec("a"));
  ASSERT_TRUE(running.accepted());
  // Wait until the worker has dequeued it so the global queue is empty.
  while (svc.scheduler().queued() > 0) std::this_thread::yield();

  // Tenant cap: "a" already has one job in flight.
  JobTicket a2 = svc.submit(spec_for(layered_circuit(4, 2), "a"));
  EXPECT_FALSE(a2.accepted());
  EXPECT_EQ(a2.reject_reason(), RejectReason::tenant_limit);

  // Global capacity: "b" fills the single queue slot, "c" bounces.
  JobTicket b = svc.submit(spec_for(layered_circuit(4, 2), "b"));
  EXPECT_TRUE(b.accepted());
  JobTicket c = svc.submit(spec_for(layered_circuit(4, 2), "c"));
  EXPECT_FALSE(c.accepted());
  EXPECT_EQ(c.reject_reason(), RejectReason::queue_full);

  EXPECT_EQ(running.result().get().status, JobStatus::completed);
  EXPECT_EQ(b.result().get().status, JobStatus::completed);
}

// Run under TSan via the `sanitizer` ctest label.
TEST(SimService, StressConcurrentSubmittersWithCancels) {
  SimService::Options opts;
  opts.workers = 4;
  opts.scheduler.capacity = 128;
  SimService svc(opts);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 40;
  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const std::string tenant = "t" + std::to_string(t);
      for (int i = 0; i < kJobsPerThread; ++i) {
        const auto pri = static_cast<Priority>(i % kNumPriorities);
        JobTicket ticket = svc.submit(
            spec_for(layered_circuit(4 + (i % 3), 2, 0.1 * t), tenant, pri));
        if (!ticket.accepted()) continue;  // backpressure is a valid outcome
        accepted.fetch_add(1);
        if (i % 7 == 0) ticket.cancel();
        const JobResult r = ticket.result().get();
        EXPECT_TRUE(r.status == JobStatus::completed ||
                    r.status == JobStatus::cancelled)
            << job_status_name(r.status);
      }
    });
  }
  for (auto& t : submitters) t.join();
  svc.drain();
  EXPECT_GT(accepted.load(), 0);
  EXPECT_EQ(svc.dropped_jobs(), 0u);
}

TEST(SimService, JobsCarryTraceContext) {
  SimService svc(small_service(2));

  // No ambient context: the service mints a trace id at admission, the
  // ticket exposes it immediately, and the result carries the same id.
  JobTicket ticket = svc.submit(spec_for(layered_circuit(4, 2)));
  ASSERT_TRUE(ticket.accepted());
  EXPECT_NE(ticket.trace_id(), 0u);
  EXPECT_EQ(ticket.result().get().trace_id, ticket.trace_id());

  // An explicit trace id on the spec wins over generation.
  JobSpec spec = spec_for(layered_circuit(4, 2));
  spec.trace_id = 0x1234abcdu;
  JobTicket pinned = svc.submit(std::move(spec));
  ASSERT_TRUE(pinned.accepted());
  EXPECT_EQ(pinned.trace_id(), 0x1234abcdu);
  EXPECT_EQ(pinned.result().get().trace_id, 0x1234abcdu);

  // An ambient caller context is adopted when the spec does not pin one.
  obs::TraceContext ambient;
  ambient.trace_id = 0x55aa55aau;
  obs::ContextScope scope(ambient);
  JobTicket adopted = svc.submit(spec_for(layered_circuit(4, 2)));
  ASSERT_TRUE(adopted.accepted());
  EXPECT_EQ(adopted.trace_id(), 0x55aa55aau);
}

TEST(LoadGen, SmokeRunProducesConsistentReport) {
  SimService::Options sopts;
  sopts.workers = 2;
  SimService svc(sopts);

  LoadGenOptions lopts;
  lopts.total_jobs = 40;
  lopts.arrival_rate_hz = 4000.0;
  lopts.tenants = 2;
  lopts.duplicate_ratio = 0.5;
  lopts.hot_circuits = 4;
  lopts.qubits = 5;
  lopts.blocks = 12;
  lopts.seed = 7;
  const LoadGenReport report = run_load(svc, lopts);

  EXPECT_EQ(report.submitted, 40u);
  EXPECT_EQ(report.submitted, report.accepted + report.rejected_total());
  EXPECT_EQ(report.accepted,
            report.completed + report.failed + report.cancelled +
                report.timed_out + report.deadline_expired +
                report.dropped_on_shutdown);
  EXPECT_EQ(report.dropped_on_shutdown, 0u);  // graceful drain guarantee
  EXPECT_GT(report.throughput_jobs_per_s, 0.0);
  EXPECT_EQ(report.e2e.count, report.accepted);
  EXPECT_GT(report.cache.hits, 0u);  // duplicate traffic must hit

  const obs::JsonValue json = report.to_json();
  EXPECT_EQ(json.at("schema").str(), "qgear.serve.report/v1");
  EXPECT_EQ(json.at("totals").at("submitted").number(), 40.0);
  EXPECT_NE(json.find("latency"), nullptr);
  EXPECT_NE(json.at("latency").find("e2e_cache_hit"), nullptr);
  EXPECT_FALSE(report.summary().empty());
}

}  // namespace
}  // namespace qgear::serve
