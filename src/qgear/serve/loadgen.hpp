// Synthetic open-loop load generator for SimService, plus the
// qgear.serve.report/v1 aggregation it emits.
//
// Open loop means arrivals follow a Poisson process at a configured rate
// regardless of service backlog — the standard way to expose queueing
// behaviour (closed-loop generators self-throttle and hide it). Each
// arrival draws a tenant, a priority class (20% interactive, 20% batch,
// the rest normal), and a circuit: with
// probability `duplicate_ratio` a member of a small hot pool (repeated
// traffic the compilation cache can win on), otherwise a fresh unique
// circuit. After the last submission the service is drained and every
// ticket's result is folded into the report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qgear/obs/json.hpp"
#include "qgear/serve/service.hpp"

namespace qgear::serve {

struct LoadGenOptions {
  std::uint64_t total_jobs = 400;
  double arrival_rate_hz = 400.0;  ///< open-loop Poisson arrival rate
  unsigned tenants = 4;            ///< tenant names "t0".."t{N-1}"
  double duplicate_ratio = 0.5;    ///< P(job reuses a hot-pool circuit)
  unsigned hot_circuits = 8;       ///< distinct circuits in the hot pool
  unsigned qubits = 10;
  std::uint64_t blocks = 120;      ///< CX blocks per random circuit
  double qft_fraction = 0.25;      ///< hot-pool share built as QFT kernels
  double queue_deadline_s = 0.0;   ///< per-job queue deadline (0 = none)
  double timeout_s = 0.0;          ///< per-job execution budget (0 = none)
  std::uint64_t seed = 1;
};

/// Order statistics of one latency component, in microseconds.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double max_us = 0;
};

/// Linear-interpolated order statistic over an ascending-sorted sample
/// (p in [0,1]). Empty input yields 0; a single sample is every
/// percentile of itself.
double percentile(const std::vector<double>& sorted, double p);

LatencySummary summarize_latency(std::vector<double> seconds);

struct TenantReport {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double p95_e2e_us = 0;
};

struct LoadGenReport {
  LoadGenOptions opts;
  // Service configuration echo (for the report's config block).
  unsigned workers = 0;
  std::size_t queue_capacity = 0;
  std::size_t per_tenant_inflight = 0;
  bool cache_enabled = true;
  std::uint64_t cache_max_bytes = 0;
  bool fp64 = false;
  std::string backend = "fused";
  std::uint64_t memory_budget_bytes = 0;  ///< 0 = unlimited
  // Resilience configuration echo.
  unsigned retry_max_attempts = 1;
  double retry_backoff_ms = 0;
  std::uint64_t checkpoint_every = 0;

  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t dropped_on_shutdown = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant_limit = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t rejected_memory_budget = 0;
  std::uint64_t cache_hits_among_completed = 0;

  double wall_seconds = 0;  ///< first submit -> drain complete
  double throughput_jobs_per_s = 0;

  LatencySummary e2e;
  LatencySummary queue_wait;
  LatencySummary compile;
  LatencySummary execute;
  /// e2e restricted to completed jobs whose compile was a cache hit/miss
  /// (the cache-win comparison the report exists to make).
  LatencySummary e2e_cache_hit;
  LatencySummary e2e_cache_miss;

  CompilationCache::Stats cache;
  std::vector<TenantReport> tenants;

  /// Admission pricing (router time model): distribution of the per-job
  /// execute-time estimates that now drive the fair-share cost, and the
  /// resolved backend × precision mix (one bucket per combination —
  /// non-trivial when the service backend is "auto").
  LatencySummary est_execute;
  struct RoutedBucket {
    std::string backend;
    std::string precision;
    std::uint64_t jobs = 0;
  };
  std::vector<RoutedBucket> routed;

  /// Resilience outcomes across all accepted jobs (docs/RESILIENCE.md):
  /// how many jobs needed more than one attempt, the total extra attempts
  /// spent, jobs downgraded to a fallback backend, and fused blocks the
  /// retries recovered from segment checkpoints instead of recomputing.
  std::uint64_t retried_jobs = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t degraded_jobs = 0;
  unsigned max_attempts_seen = 1;
  std::uint64_t checkpoint_blocks_restored = 0;

  std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_tenant_limit +
           rejected_shutting_down + rejected_memory_budget;
  }

  /// Serializes as qgear.serve.report/v1 (docs/serve_report.schema.json).
  obs::JsonValue to_json() const;
  /// Human-readable multi-line summary for the CLI.
  std::string summary() const;
};

/// Runs the load described by `opts` against `svc` (which must be fresh:
/// accepting jobs, idle). Drains the service before returning, so the
/// service is terminal afterwards.
LoadGenReport run_load(SimService& svc, const LoadGenOptions& opts);

}  // namespace qgear::serve
