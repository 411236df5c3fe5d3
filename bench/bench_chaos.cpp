// Chaos harness: drives the serving plane and the comm exchange under
// injected faults and verifies the resilience machinery holds the SLO.
//
// Phases:
//   serve-baseline  — identical workload, injector disarmed (reference
//                     latency + a hook-overhead probe with an armed but
//                     never-firing plan)
//   serve-chaos     — worker faults + synthetic OOM at the configured
//                     rates; retries, degradation, and checkpoints must
//                     carry completion above the SLO floor
//   comm-chaos      — two-rank resilient BatchExchange under dropped
//                     chunks; every element must land intact
//
// Contract (enforced by the exit code, asserted by CI's chaos-smoke job):
// completion rate >= 99%, zero crashes, comm integrity byte-perfect.
// Report: qgear.chaos.report/v1 (docs/chaos_report.schema.json) written
// to --report <path> or $QGEAR_CHAOS_REPORT.
//
// Fault rates come from --fault-plan <spec> or $QGEAR_FAULT_PLAN (see
// docs/RESILIENCE.md for the spec grammar); the default exercises 5%
// worker faults, 2% OOM, and 5% dropped comm chunks.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "qgear/comm/comm.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/fault/fault.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/serve/service.hpp"

using namespace qgear;

namespace {

constexpr const char* kDefaultPlan =
    "seed=1;serve.worker=0.05;backend.oom=0.02;comm.drop=0.05";

qiskit::QuantumCircuit workload_circuit(unsigned index) {
  // Small but non-trivial, varied so the compilation cache does not
  // collapse the whole run onto one artifact.
  qiskit::QuantumCircuit qc(5 + index % 3);
  const double phase = 0.05 + 0.01 * static_cast<double>(index % 17);
  for (unsigned l = 0; l < 4; ++l) {
    for (unsigned q = 0; q < qc.num_qubits(); ++q) {
      qc.h(q).ry(phase + 0.01 * static_cast<double>(l), q);
    }
    for (unsigned q = 0; q + 1 < qc.num_qubits(); ++q) qc.cx(q, q + 1);
  }
  return qc;
}

double percentile_us(std::vector<double>& seconds, double pct) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const auto idx = static_cast<std::size_t>(
      pct * static_cast<double>(seconds.size() - 1));
  return seconds[idx] * 1e6;
}

struct ServeOutcome {
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retried_jobs = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t degraded_jobs = 0;
  std::uint64_t checkpoint_blocks_restored = 0;
  std::uint64_t crashes = 0;  // futures that threw / unexplained statuses
  double p50_us = 0.0;
  double p95_us = 0.0;
  double wall_s = 0.0;
  double completion_rate() const {
    return jobs == 0 ? 0.0
                     : static_cast<double>(completed) /
                           static_cast<double>(jobs);
  }
  obs::JsonValue to_json() const {
    obs::JsonValue o{obs::JsonValue::Object{}};
    o.set("jobs", jobs);
    o.set("completed", completed);
    o.set("failed", failed);
    o.set("dropped", dropped);
    o.set("retried_jobs", retried_jobs);
    o.set("retries_total", retries_total);
    o.set("degraded_jobs", degraded_jobs);
    o.set("checkpoint_blocks_restored", checkpoint_blocks_restored);
    o.set("crashes", crashes);
    o.set("completion_rate", completion_rate());
    o.set("p50_us", p50_us);
    o.set("p95_us", p95_us);
    o.set("wall_seconds", wall_s);
    return o;
  }
};

ServeOutcome run_serve_workload(unsigned jobs, unsigned workers) {
  serve::SimService::Options opts;
  opts.workers = workers;
  opts.scheduler.capacity = jobs + 16;
  opts.retry.max_attempts = 3;
  opts.retry.backoff_ms = 1.0;
  opts.checkpoint_every = 8;
  ServeOutcome out;
  out.jobs = jobs;
  WallTimer wall;
  serve::SimService svc(opts);
  std::vector<serve::JobTicket> tickets;
  tickets.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i) {
    serve::JobSpec spec;
    spec.tenant = "t" + std::to_string(i % 3);
    spec.circuit = workload_circuit(i);
    tickets.push_back(svc.submit(std::move(spec)));
  }
  svc.drain();
  std::vector<double> latencies;
  latencies.reserve(jobs);
  for (auto& t : tickets) {
    if (!t.accepted()) {
      ++out.crashes;  // capacity is sized to never reject
      continue;
    }
    try {
      const serve::JobResult r = t.result().get();
      switch (r.status) {
        case serve::JobStatus::completed:
          ++out.completed;
          latencies.push_back(r.e2e_s);
          break;
        case serve::JobStatus::failed:
          ++out.failed;
          break;
        case serve::JobStatus::dropped:
          ++out.dropped;
          break;
        case serve::JobStatus::cancelled:
        case serve::JobStatus::timed_out:
        case serve::JobStatus::deadline_expired:
          ++out.crashes;  // nothing here cancels or sets deadlines
          break;
      }
      if (r.attempts > 1) {
        ++out.retried_jobs;
        out.retries_total += r.attempts - 1;
      }
      if (r.degraded) ++out.degraded_jobs;
      out.checkpoint_blocks_restored += r.checkpoint_blocks;
    } catch (const std::exception& e) {
      ++out.crashes;
      std::fprintf(stderr, "job future threw: %s\n", e.what());
    }
  }
  out.wall_s = wall.seconds();
  out.p50_us = percentile_us(latencies, 0.50);
  out.p95_us = percentile_us(latencies, 0.95);
  return out;
}

struct CommOutcome {
  std::uint64_t elements = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t crashes = 0;
  double wall_s = 0.0;
  obs::JsonValue to_json() const {
    obs::JsonValue o{obs::JsonValue::Object{}};
    o.set("elements", elements);
    o.set("mismatches", mismatches);
    o.set("crashes", crashes);
    o.set("integrity_ok", mismatches == 0 && crashes == 0);
    o.set("wall_seconds", wall_s);
    return o;
  }
};

CommOutcome run_comm_chaos(std::uint64_t elements) {
  CommOutcome out;
  out.elements = elements;
  std::atomic<std::uint64_t> mismatches{0};
  WallTimer wall;
  try {
    comm::World w(2);
    w.run([&](comm::Communicator& c) {
      std::vector<double> mine(elements);
      for (std::uint64_t i = 0; i < elements; ++i) {
        mine[i] = static_cast<double>(c.rank() * 1000000 + i) * 0.5;
      }
      comm::ResilienceOptions res;
      res.timeout_s = 0.05;
      res.max_resends = 100;
      const int peer = 1 - c.rank();
      const std::span<const std::uint8_t> bytes(
          reinterpret_cast<const std::uint8_t*>(mine.data()),
          mine.size() * sizeof(double));
      comm::BatchExchange ex(c, 11,
                             {{.peer = peer,
                               .send = bytes,
                               .recv_bytes = bytes.size(),
                               .chunk_bytes = 512 * sizeof(double)}},
                             res);
      ex.post();
      ex.finish([&](std::size_t, std::uint64_t off_bytes,
                    std::span<const std::uint8_t> payload) {
        std::vector<double> chunk(payload.size() / sizeof(double));
        std::memcpy(chunk.data(), payload.data(), payload.size());
        const std::uint64_t off = off_bytes / sizeof(double);
        for (std::uint64_t i = 0; i < chunk.size(); ++i) {
          const double expect =
              static_cast<double>(peer * 1000000 + off + i) * 0.5;
          if (chunk[i] != expect) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    });
  } catch (const std::exception& e) {
    ++out.crashes;
    std::fprintf(stderr, "comm chaos crashed: %s\n", e.what());
  }
  out.wall_s = wall.seconds();
  out.mismatches = mismatches.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_observability();
  unsigned jobs = 200;
  unsigned workers = 4;
  std::string plan_spec;
  std::string report_path;
  if (const char* env = std::getenv("QGEAR_FAULT_PLAN")) plan_spec = env;
  if (const char* env = std::getenv("QGEAR_CHAOS_REPORT")) report_path = env;
  for (int i = 1; i < argc; ++i) {
    const auto has_next = [&] { return i + 1 < argc; };
    if (std::strcmp(argv[i], "--jobs") == 0 && has_next()) {
      jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && has_next()) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && has_next()) {
      plan_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && has_next()) {
      report_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_chaos [--jobs N] [--workers N] "
                   "[--fault-plan SPEC] [--report FILE]\n");
      return 2;
    }
  }
  if (plan_spec.empty()) plan_spec = kDefaultPlan;
  const fault::FaultPlan plan = fault::FaultPlan::parse(plan_spec);

  bench::heading("Chaos: resilience under injected faults");
  std::printf("fault plan: %s\n", plan.to_string().c_str());

  // Reference run, hooks present but disarmed.
  fault::FaultInjector::global().disarm();
  ServeOutcome baseline;
  {
    bench::StageTimer timer("serve_baseline");
    baseline = run_serve_workload(jobs, workers);
  }

  // Hook-overhead probe: armed with a plan that never fires, so every
  // injection site pays the full armed-path check.
  ServeOutcome armed_idle;
  {
    fault::FaultPlan never;
    never.site(fault::Site::serve_worker).probability = 1e-12;
    never.site(fault::Site::backend_oom).probability = 1e-12;
    fault::ArmScope arm(never);
    bench::StageTimer timer("serve_armed_idle");
    armed_idle = run_serve_workload(jobs, workers);
  }

  ServeOutcome chaos;
  {
    fault::ArmScope arm(plan);
    bench::StageTimer timer("serve_chaos");
    chaos = run_serve_workload(jobs, workers);
  }

  CommOutcome comm_chaos;
  {
    fault::ArmScope arm(plan);
    bench::StageTimer timer("comm_chaos");
    comm_chaos = run_comm_chaos(1 << 15);
  }

  const double inflation =
      baseline.p95_us > 0.0 ? chaos.p95_us / baseline.p95_us : 0.0;
  const double hook_overhead =
      baseline.wall_s > 0.0 ? armed_idle.wall_s / baseline.wall_s : 0.0;

  bench::Table table({"phase", "completed", "retries", "degraded", "p95",
                      "crashes"});
  const auto row = [&](const char* name, const ServeOutcome& o) {
    table.row({name,
               strfmt("%llu/%llu",
                      static_cast<unsigned long long>(o.completed),
                      static_cast<unsigned long long>(o.jobs)),
               std::to_string(o.retries_total),
               std::to_string(o.degraded_jobs),
               strfmt("%.0f us", o.p95_us), std::to_string(o.crashes)});
  };
  row("baseline", baseline);
  row("armed-idle", armed_idle);
  row("chaos", chaos);
  table.print();
  std::printf("latency inflation (chaos p95 / baseline p95): %.2fx\n",
              inflation);
  std::printf("armed-idle hook overhead: %.3fx\n", hook_overhead);
  std::printf("comm chaos: %llu elements, %llu mismatches, %llu crashes\n",
              static_cast<unsigned long long>(comm_chaos.elements),
              static_cast<unsigned long long>(comm_chaos.mismatches),
              static_cast<unsigned long long>(comm_chaos.crashes));

  const std::uint64_t crashes =
      baseline.crashes + armed_idle.crashes + chaos.crashes +
      comm_chaos.crashes;
  const bool slo_ok = chaos.completion_rate() >= 0.99 && crashes == 0 &&
                      comm_chaos.mismatches == 0 &&
                      baseline.completion_rate() == 1.0 &&
                      armed_idle.completion_rate() == 1.0;

  obs::JsonValue root{obs::JsonValue::Object{}};
  root.set("schema", "qgear.chaos.report/v1");
  root.set("fault_plan", plan.to_string());
  root.set("serve_baseline", baseline.to_json());
  root.set("serve_armed_idle", armed_idle.to_json());
  root.set("serve_chaos", chaos.to_json());
  root.set("comm_chaos", comm_chaos.to_json());
  root.set("latency_inflation_p95", inflation);
  root.set("hook_overhead_ratio", hook_overhead);
  root.set("crashes_total", crashes);
  root.set("slo_ok", slo_ok);
  if (!report_path.empty()) {
    obs::write_text_file(report_path, root.dump());
    std::printf("wrote report %s\n", report_path.c_str());
  }
  bench::write_report("chaos");

  if (!slo_ok) {
    std::fprintf(stderr,
                 "chaos SLO violated: completion %.4f (floor 0.99), "
                 "crashes %llu, comm mismatches %llu\n",
                 chaos.completion_rate(),
                 static_cast<unsigned long long>(crashes),
                 static_cast<unsigned long long>(comm_chaos.mismatches));
    return 1;
  }
  return 0;
}
