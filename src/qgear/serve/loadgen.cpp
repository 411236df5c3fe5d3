#include "qgear/serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/rng.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"

namespace qgear::serve {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

namespace {

obs::JsonValue latency_json(const LatencySummary& s) {
  obs::JsonValue o{obs::JsonValue::Object{}};
  o.set("count", std::uint64_t{s.count});
  o.set("p50_us", s.p50_us);
  o.set("p95_us", s.p95_us);
  o.set("p99_us", s.p99_us);
  o.set("mean_us", s.mean_us);
  o.set("max_us", s.max_us);
  return o;
}

}  // namespace

LatencySummary summarize_latency(std::vector<double> seconds) {
  LatencySummary s;
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  s.count = seconds.size();
  s.p50_us = percentile(seconds, 0.50) * 1e6;
  s.p95_us = percentile(seconds, 0.95) * 1e6;
  s.p99_us = percentile(seconds, 0.99) * 1e6;
  double sum = 0;
  for (const double v : seconds) sum += v;
  s.mean_us = sum / static_cast<double>(seconds.size()) * 1e6;
  s.max_us = seconds.back() * 1e6;
  return s;
}

LoadGenReport run_load(SimService& svc, const LoadGenOptions& opts) {
  QGEAR_CHECK_ARG(opts.total_jobs > 0, "loadgen: total_jobs must be > 0");
  QGEAR_CHECK_ARG(opts.arrival_rate_hz > 0,
                  "loadgen: arrival_rate_hz must be > 0");
  QGEAR_CHECK_ARG(opts.tenants > 0, "loadgen: tenants must be > 0");
  QGEAR_CHECK_ARG(opts.duplicate_ratio >= 0 && opts.duplicate_ratio <= 1,
                  "loadgen: duplicate_ratio must be in [0, 1]");
  Rng rng(opts.seed);

  // Hot pool: the repeated traffic. A qft_fraction share are QFT kernels
  // (width varied so they are distinct circuits); the rest are random
  // CX-block circuits with per-member seeds.
  std::vector<qiskit::QuantumCircuit> hot;
  const unsigned hot_count = std::max(1u, opts.hot_circuits);
  for (unsigned i = 0; i < hot_count; ++i) {
    if (static_cast<double>(i) <
        opts.qft_fraction * static_cast<double>(hot_count)) {
      const unsigned width =
          std::max(2u, opts.qubits - (i % std::min(3u, opts.qubits - 1)));
      auto qc = circuits::build_qft(width);
      qc.set_name(strfmt("hot_qft_%u", i));
      hot.push_back(std::move(qc));
    } else {
      circuits::RandomBlocksOptions ro;
      ro.num_qubits = opts.qubits;
      ro.num_blocks = opts.blocks;
      ro.seed = opts.seed * 1000003 + i;
      auto qc = circuits::generate_random_circuit(ro);
      qc.set_name(strfmt("hot_random_%u", i));
      hot.push_back(std::move(qc));
    }
  }

  struct PendingJob {
    std::string tenant;
    JobTicket ticket;
  };
  std::vector<PendingJob> jobs;
  jobs.reserve(opts.total_jobs);
  std::map<std::string, TenantReport> tenants;
  for (unsigned t = 0; t < opts.tenants; ++t) {
    tenants[strfmt("t%u", t)].tenant = strfmt("t%u", t);
  }

  LoadGenReport report;
  report.opts = opts;
  report.workers = svc.workers();
  report.queue_capacity = svc.options().scheduler.capacity;
  report.per_tenant_inflight = svc.options().scheduler.per_tenant_inflight;
  report.cache_enabled = svc.cache().enabled();
  report.cache_max_bytes = svc.cache().max_bytes();
  report.fp64 = svc.options().fp64;
  report.backend = svc.options().backend;
  report.memory_budget_bytes = svc.options().memory_budget_bytes;
  report.retry_max_attempts = svc.options().retry.max_attempts;
  report.retry_backoff_ms = svc.options().retry.backoff_ms;
  report.checkpoint_every = svc.options().checkpoint_every;

  WallTimer wall;
  const auto start = std::chrono::steady_clock::now();
  auto next_arrival = start;
  for (std::uint64_t j = 0; j < opts.total_jobs; ++j) {
    // Exponential inter-arrival: open-loop Poisson process.
    const double gap =
        -std::log(1.0 - rng.uniform()) / opts.arrival_rate_hz;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    std::this_thread::sleep_until(next_arrival);

    JobSpec spec;
    spec.tenant = strfmt("t%u", static_cast<unsigned>(
                                    rng.uniform_u64(opts.tenants)));
    // Priority mix: 20% interactive, 20% batch, the rest normal.
    constexpr double kInteractiveShare = 0.2;
    constexpr double kBatchShare = 0.2;
    const double pri_draw = rng.uniform();
    if (pri_draw < kInteractiveShare) {
      spec.priority = Priority::interactive;
    } else if (pri_draw < kInteractiveShare + kBatchShare) {
      spec.priority = Priority::batch;
    } else {
      spec.priority = Priority::normal;
    }
    if (rng.uniform() < opts.duplicate_ratio) {
      spec.circuit = hot[rng.uniform_u64(hot.size())];
    } else {
      circuits::RandomBlocksOptions ro;
      ro.num_qubits = opts.qubits;
      ro.num_blocks = opts.blocks;
      ro.seed = opts.seed * 2000003 + 7919 * (j + 1);  // unique per job
      spec.circuit = circuits::generate_random_circuit(ro);
      spec.circuit.set_name(strfmt("unique_%llu",
                                   static_cast<unsigned long long>(j)));
    }
    spec.queue_deadline_s = opts.queue_deadline_s;
    spec.timeout_s = opts.timeout_s;

    TenantReport& tr = tenants[spec.tenant];
    ++tr.submitted;
    ++report.submitted;
    JobTicket ticket = svc.submit(std::move(spec));
    if (!ticket.accepted()) {
      ++tr.rejected;
      // Exhaustive on purpose (-Wswitch): a new RejectReason must pick a
      // bucket here instead of silently counting as shutting_down.
      switch (ticket.reject_reason()) {
        case RejectReason::none:
          break;  // unreachable: accepted() was false
        case RejectReason::queue_full:
          ++report.rejected_queue_full;
          break;
        case RejectReason::tenant_limit:
          ++report.rejected_tenant_limit;
          break;
        case RejectReason::memory_budget:
          ++report.rejected_memory_budget;
          break;
        case RejectReason::shutting_down:
          ++report.rejected_shutting_down;
          break;
      }
      continue;
    }
    ++tr.accepted;
    ++report.accepted;
    jobs.push_back(PendingJob{tr.tenant, std::move(ticket)});
  }

  svc.drain();  // zero-drop guarantee: every accepted job reaches terminal
  report.wall_seconds = wall.seconds();

  std::vector<double> e2e, queue_wait, compile, execute, e2e_hit, e2e_miss;
  std::vector<double> est_execute;
  std::map<std::pair<std::string, std::string>, std::uint64_t> routed;
  std::map<std::string, std::vector<double>> tenant_e2e;
  for (PendingJob& pj : jobs) {
    const JobResult r = pj.ticket.result().get();
    queue_wait.push_back(r.queue_wait_s);
    e2e.push_back(r.e2e_s);
    est_execute.push_back(r.est_execute_s);
    ++routed[{r.backend, r.precision}];
    if (r.attempts > 1) {
      ++report.retried_jobs;
      report.retries_total += r.attempts - 1;
    }
    report.max_attempts_seen = std::max(report.max_attempts_seen, r.attempts);
    if (r.degraded) ++report.degraded_jobs;
    report.checkpoint_blocks_restored += r.checkpoint_blocks;
    switch (r.status) {
      case JobStatus::completed: {
        ++report.completed;
        ++tenants[pj.tenant].completed;
        tenant_e2e[pj.tenant].push_back(r.e2e_s);
        compile.push_back(r.compile_s);
        execute.push_back(r.execute_s);
        if (r.cache_hit) {
          ++report.cache_hits_among_completed;
          e2e_hit.push_back(r.e2e_s);
        } else {
          e2e_miss.push_back(r.e2e_s);
        }
        break;
      }
      case JobStatus::failed:
        ++report.failed;
        break;
      case JobStatus::cancelled:
        ++report.cancelled;
        break;
      case JobStatus::timed_out:
        ++report.timed_out;
        break;
      case JobStatus::deadline_expired:
        ++report.deadline_expired;
        break;
      case JobStatus::dropped:
        ++report.dropped_on_shutdown;
        break;
    }
  }
  report.dropped_on_shutdown += svc.dropped_jobs();
  report.throughput_jobs_per_s =
      report.wall_seconds > 0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  report.e2e = summarize_latency(std::move(e2e));
  report.queue_wait = summarize_latency(std::move(queue_wait));
  report.compile = summarize_latency(std::move(compile));
  report.execute = summarize_latency(std::move(execute));
  report.e2e_cache_hit = summarize_latency(std::move(e2e_hit));
  report.e2e_cache_miss = summarize_latency(std::move(e2e_miss));
  report.est_execute = summarize_latency(std::move(est_execute));
  for (const auto& [key, count] : routed) {
    report.routed.push_back(
        LoadGenReport::RoutedBucket{key.first, key.second, count});
  }
  report.cache = svc.cache().stats();
  for (auto& [name, tr] : tenants) {
    tr.p95_e2e_us = summarize_latency(std::move(tenant_e2e[name])).p95_us;
    report.tenants.push_back(std::move(tr));
  }
  return report;
}

obs::JsonValue LoadGenReport::to_json() const {
  using obs::JsonValue;
  JsonValue root{JsonValue::Object{}};
  root.set("schema", "qgear.serve.report/v1");

  JsonValue config{JsonValue::Object{}};
  config.set("workers", workers);
  config.set("queue_capacity", std::uint64_t{queue_capacity});
  config.set("per_tenant_inflight", std::uint64_t{per_tenant_inflight});
  config.set("cache_enabled", cache_enabled);
  config.set("cache_max_bytes", std::uint64_t{cache_max_bytes});
  config.set("precision", fp64 ? "fp64" : "fp32");
  config.set("backend", backend);
  config.set("memory_budget_bytes", std::uint64_t{memory_budget_bytes});
  config.set("tenants", opts.tenants);
  config.set("arrival_rate_hz", opts.arrival_rate_hz);
  config.set("duplicate_ratio", opts.duplicate_ratio);
  config.set("jobs", std::uint64_t{opts.total_jobs});
  config.set("qubits", opts.qubits);
  config.set("blocks", std::uint64_t{opts.blocks});
  config.set("hot_circuits", opts.hot_circuits);
  config.set("queue_deadline_s", opts.queue_deadline_s);
  config.set("timeout_s", opts.timeout_s);
  config.set("seed", std::uint64_t{opts.seed});
  config.set("retry_max_attempts", retry_max_attempts);
  config.set("retry_backoff_ms", retry_backoff_ms);
  config.set("checkpoint_every", std::uint64_t{checkpoint_every});
  root.set("config", std::move(config));

  JsonValue totals{JsonValue::Object{}};
  totals.set("submitted", std::uint64_t{submitted});
  totals.set("accepted", std::uint64_t{accepted});
  totals.set("completed", std::uint64_t{completed});
  totals.set("failed", std::uint64_t{failed});
  totals.set("cancelled", std::uint64_t{cancelled});
  totals.set("timed_out", std::uint64_t{timed_out});
  totals.set("deadline_expired", std::uint64_t{deadline_expired});
  totals.set("dropped_on_shutdown", std::uint64_t{dropped_on_shutdown});
  totals.set("rejected", std::uint64_t{rejected_total()});
  totals.set("rejected_queue_full", std::uint64_t{rejected_queue_full});
  totals.set("rejected_tenant_limit", std::uint64_t{rejected_tenant_limit});
  totals.set("rejected_shutting_down",
             std::uint64_t{rejected_shutting_down});
  totals.set("rejected_memory_budget",
             std::uint64_t{rejected_memory_budget});
  root.set("totals", std::move(totals));

  root.set("wall_seconds", wall_seconds);
  root.set("throughput_jobs_per_s", throughput_jobs_per_s);

  JsonValue resilience{JsonValue::Object{}};
  resilience.set("retried_jobs", std::uint64_t{retried_jobs});
  resilience.set("retries_total", std::uint64_t{retries_total});
  resilience.set("degraded_jobs", std::uint64_t{degraded_jobs});
  resilience.set("max_attempts_seen", max_attempts_seen);
  resilience.set("checkpoint_blocks_restored",
                 std::uint64_t{checkpoint_blocks_restored});
  root.set("resilience", std::move(resilience));

  JsonValue latency{JsonValue::Object{}};
  latency.set("e2e", latency_json(e2e));
  latency.set("queue_wait", latency_json(queue_wait));
  latency.set("compile", latency_json(compile));
  latency.set("execute", latency_json(execute));
  latency.set("e2e_cache_hit", latency_json(e2e_cache_hit));
  latency.set("e2e_cache_miss", latency_json(e2e_cache_miss));
  root.set("latency", std::move(latency));

  JsonValue cache_json{JsonValue::Object{}};
  cache_json.set("enabled", cache_enabled);
  cache_json.set("hits", std::uint64_t{cache.hits});
  cache_json.set("misses", std::uint64_t{cache.misses});
  cache_json.set("hit_rate", cache.hit_rate());
  cache_json.set("evictions", std::uint64_t{cache.evictions});
  cache_json.set("singleflight_waits",
                 std::uint64_t{cache.singleflight_waits});
  cache_json.set("bytes", std::uint64_t{cache.bytes});
  cache_json.set("entries", std::uint64_t{cache.entries});
  root.set("cache", std::move(cache_json));

  JsonValue admission{JsonValue::Object{}};
  admission.set("pricing", "time_estimate");
  admission.set("est_execute", latency_json(est_execute));
  JsonValue routed_json{JsonValue::Array{}};
  for (const RoutedBucket& rb : routed) {
    JsonValue b{JsonValue::Object{}};
    b.set("backend", rb.backend);
    b.set("precision", rb.precision);
    b.set("jobs", std::uint64_t{rb.jobs});
    routed_json.push_back(std::move(b));
  }
  admission.set("routed", std::move(routed_json));
  root.set("admission", std::move(admission));

  JsonValue tenants_json{JsonValue::Array{}};
  for (const TenantReport& tr : tenants) {
    JsonValue t{JsonValue::Object{}};
    t.set("tenant", tr.tenant);
    t.set("submitted", std::uint64_t{tr.submitted});
    t.set("accepted", std::uint64_t{tr.accepted});
    t.set("completed", std::uint64_t{tr.completed});
    t.set("rejected", std::uint64_t{tr.rejected});
    t.set("p95_e2e_us", tr.p95_e2e_us);
    tenants_json.push_back(std::move(t));
  }
  root.set("tenants", std::move(tenants_json));
  return root;
}

std::string LoadGenReport::summary() const {
  std::string out;
  out += strfmt(
      "serve load: %llu submitted, %llu accepted, %llu completed, "
      "%llu rejected (%llu queue_full / %llu tenant_limit / %llu "
      "shutting_down / %llu memory_budget), %llu expired, %llu timed out, "
      "%llu cancelled, %llu failed, %llu dropped\n",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected_total()),
      static_cast<unsigned long long>(rejected_queue_full),
      static_cast<unsigned long long>(rejected_tenant_limit),
      static_cast<unsigned long long>(rejected_shutting_down),
      static_cast<unsigned long long>(rejected_memory_budget),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(timed_out),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(dropped_on_shutdown));
  out += strfmt("  wall %s, throughput %.1f jobs/s, workers %u, backend %s\n",
                human_seconds(wall_seconds).c_str(), throughput_jobs_per_s,
                workers, backend.c_str());
  const auto line = [](const char* name, const LatencySummary& s) {
    return strfmt("  %-11s p50 %s  p95 %s  p99 %s  max %s (n=%llu)\n", name,
                  human_seconds(s.p50_us / 1e6).c_str(),
                  human_seconds(s.p95_us / 1e6).c_str(),
                  human_seconds(s.p99_us / 1e6).c_str(),
                  human_seconds(s.max_us / 1e6).c_str(),
                  static_cast<unsigned long long>(s.count));
  };
  out += line("e2e", e2e);
  out += line("queue_wait", queue_wait);
  out += line("compile", compile);
  out += line("execute", execute);
  out += line("est_execute", est_execute);
  if (!routed.empty()) {
    out += "  routed:";
    for (const RoutedBucket& rb : routed) {
      out += strfmt(" %s/%s=%llu", rb.backend.c_str(), rb.precision.c_str(),
                    static_cast<unsigned long long>(rb.jobs));
    }
    out += "\n";
  }
  if (retried_jobs > 0 || degraded_jobs > 0) {
    out += strfmt(
        "  resilience: %llu jobs retried (%llu extra attempts, max %u), "
        "%llu degraded, %llu checkpointed blocks restored\n",
        static_cast<unsigned long long>(retried_jobs),
        static_cast<unsigned long long>(retries_total), max_attempts_seen,
        static_cast<unsigned long long>(degraded_jobs),
        static_cast<unsigned long long>(checkpoint_blocks_restored));
  }
  out += strfmt(
      "  cache %s: %llu hits / %llu misses (%.0f%% hit rate), "
      "%llu evictions, %llu single-flight waits, %s resident\n",
      cache_enabled ? "on" : "off",
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), cache.hit_rate() * 100,
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.singleflight_waits),
      human_bytes(cache.bytes).c_str());
  for (const TenantReport& tr : tenants) {
    out += strfmt("  tenant %-4s %4llu submitted %4llu completed "
                  "%4llu rejected  p95 %s\n",
                  tr.tenant.c_str(),
                  static_cast<unsigned long long>(tr.submitted),
                  static_cast<unsigned long long>(tr.completed),
                  static_cast<unsigned long long>(tr.rejected),
                  human_seconds(tr.p95_e2e_us / 1e6).c_str());
  }
  return out;
}

}  // namespace qgear::serve
