// SimService — the in-process multi-tenant online simulation service.
//
// Sits above the existing engines and turns them into a server:
//
//   submit(JobSpec) ── admission control; a fused job compiles here
//     through the CompilationCache (fingerprint-keyed, single-flight)
//     into a sim::Program and is priced from it ──> FairScheduler
//     (bounded, priority + weighted fair share, deadlines) ──> worker
//     pool (ThreadPool jobs) ──> fused-block execution of the job's
//     program, with cooperative cancellation/timeout checks between
//     blocks ──> JobResult promise.
//
// Each distinct circuit is compiled once: admission's compile feeds both
// the price and the worker. Admission compiles run on the submitting
// threads. Jobs on the other backends are priced without compiling; a
// dist job is refused at submit, since dist runs its circuit at the
// first sample or expectation call, which a job never makes.
//
// Execution runs each job single-threaded (inter-job parallelism across
// the worker pool instead of intra-job sweeps), which is the right trade
// for many small concurrent circuits and avoids nesting parallel_for
// inside pool workers.
//
// Lifecycle: a service accepts jobs from construction until drain() /
// shutdown(). drain() stops admission and blocks until every accepted
// job reaches a terminal state — nothing is dropped. shutdown(graceful =
// false) instead completes still-queued jobs as JobStatus::dropped
// (running jobs always finish). Both are terminal: a drained service
// rejects new submissions with shutting_down. The destructor performs a
// graceful shutdown.
//
// Everything is instrumented through qgear::obs: serve.* counters and
// latency histograms (queue wait / compile / execute / e2e), plus
// serve.submit and serve.compile spans at admission, a serve.job span per
// executed job, and a sweep span around its fused_block spans.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qgear/common/thread_pool.hpp"
#include "qgear/route/calibration.hpp"
#include "qgear/route/route.hpp"
#include "qgear/serve/compile_cache.hpp"
#include "qgear/serve/job.hpp"
#include "qgear/serve/scheduler.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/fusion.hpp"

namespace qgear::serve {

/// How the service retries transiently-failed jobs (injected faults,
/// worker aborts, comm errors — anything but an invalid-input class
/// error). Backed-off re-entries go through FairScheduler::push_retry,
/// so a retried job keeps its in-flight slot and fair-share identity.
struct RetryPolicy {
  /// Total attempts per job including the first (1 = never retry).
  unsigned max_attempts = 1;
  /// Base backoff before the second attempt, milliseconds. It doubles
  /// per further attempt, with ±20% deterministic jitter (a hash of the
  /// job id and attempt).
  double backoff_ms = 10.0;
  /// Cap on total retries per tenant (0 = unlimited). Exhausted budget
  /// fails the job instead of retrying (serve.retry_budget_exhausted).
  std::uint64_t tenant_retry_budget = 0;
};

class SimService {
 public:
  struct Options {
    unsigned workers = 0;  ///< 0 = half of hardware_concurrency (min 1)
    FairScheduler::Options scheduler;
    CompilationCache::Options cache;
    sim::FusionOptions fusion;
    bool fp64 = false;  ///< execution precision (default fp32)
    /// Default execution backend for jobs whose JobSpec leaves `backend`
    /// empty. "fused" keeps the cached fused-block fast path; any other
    /// registered name executes through sim::Backend; "auto" routes each
    /// job through route::plan (backend × precision, priced at
    /// `fusion.max_width`, under the memory budget and `route_max_error`).
    std::string backend = "fused";
    /// Admission cap on a single job's backend memory_estimate, in bytes
    /// (0 = unlimited). The estimate is priced per backend — a dd/mps job
    /// is admitted by *its* structure-aware cost, never the 2^n
    /// statevector price.
    std::uint64_t memory_budget_bytes = 0;
    sim::DdEngine::Options dd;    ///< dd backend knobs (node budget)
    sim::MpsEngine::Options mps;  ///< mps backend knobs (cutoff/max bond)
    /// Accuracy budget the router enforces for `backend=auto` jobs: fp32
    /// (and aggressive mps truncation) are forbidden when the propagated
    /// error bound exceeds it.
    double route_max_error = 1e-4;
    /// Calibration for the router's time model. Prices admission (the
    /// fair-share cost is the estimated execute time) and backend=auto
    /// placement. Defaults to Calibration::host_default(), which honors
    /// QGEAR_ROUTE_CALIBRATION.
    route::Calibration calibration = route::Calibration::host_default();
    /// Retry/backoff for transient job failures.
    RetryPolicy retry;
    /// Re-plan a job whose backend threw OutOfMemoryBudget onto the next
    /// feasible backend (route::plan with the failed ones excluded) and
    /// retry it immediately, marked degraded. Bounded: each degradation
    /// excludes one more backend.
    bool degrade_on_oom = true;
    /// Segment checkpointing for fused-path jobs: serialize the state to
    /// qh5 every N fused blocks so a retried attempt resumes instead of
    /// recomputing (0 = off). See docs/RESILIENCE.md for the format.
    std::uint64_t checkpoint_every = 0;
    /// Directory for checkpoint files (empty = the system temp dir).
    std::string checkpoint_dir;
  };

  SimService() : SimService(Options{}) {}
  explicit SimService(Options opts);
  ~SimService();  // graceful shutdown

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Admission-controlled submission; never waits for queue space.
  /// A fused job is compiled in this call, through the cache (a
  /// concurrent submitter of the same circuit waits for that one
  /// compile). Inspect ticket.accepted() / reject_reason(). Throws
  /// InvalidArgument for an unregistered backend name or for "dist".
  JobTicket submit(JobSpec spec);

  /// Stops admission and blocks until every accepted job is terminal.
  /// Terminal for the service: subsequent submits are rejected.
  void drain();

  /// drain() (graceful) or drop still-queued jobs (non-graceful), then
  /// stops the workers. Idempotent.
  void shutdown(bool graceful = true);

  const CompilationCache& cache() const { return cache_; }
  FairScheduler& scheduler() { return scheduler_; }
  unsigned workers() const { return num_workers_; }
  const Options& options() const { return opts_; }

  /// Engine stats accumulated over completed jobs.
  sim::EngineStats folded_stats() const;
  /// Jobs completed as JobStatus::dropped by a non-graceful shutdown.
  std::uint64_t dropped_jobs() const;

 private:
  void worker_loop();
  /// Runs one popped job to a terminal state OR defers it for retry.
  /// Returns true when the job was deferred (the scheduler slot is then
  /// released by push_retry/on_deferred_dropped, not on_finished).
  bool process(FairScheduler::Popped popped);
  template <typename T>
  bool execute_program(JobState& job, const sim::Program& program,
                       JobResult* result);
  bool execute_backend(JobState& job, sim::EngineStats* stats);
  void finish(JobState& job, JobResult&& result);
  /// Fetches a fused job's program through the compilation cache
  /// (compiling on a miss) into job.program, with its cache_hit and
  /// compile_s.
  void compile(JobState& job);
  sim::BackendOptions backend_options() const;

  /// Decides whether the failed attempt retries (with backoff), degrades
  /// to a fallback backend (on OOM), or fails for good. On retry/degrade
  /// the job is handed to the retry nurse and true is returned.
  bool maybe_retry(const std::shared_ptr<JobState>& job,
                   const std::string& error, bool oom);
  /// Re-plans an OOM-failed job with its failed backends excluded.
  bool try_degrade(JobState& job);
  /// Routes `job` under the service budget at the service's fusion width,
  /// excluding the backends that already failed it.
  route::Placement place(const JobState& job) const;
  /// Gives a job on the fused path a checkpoint file and drops the stale
  /// one of a job that left it (no-op with checkpointing off).
  void sync_checkpoint_path(JobState& job);
  void retry_loop();
  void enqueue_retry(std::shared_ptr<JobState> job, Clock::time_point due);
  /// Completes every job still parked in the retry nurse as dropped.
  void drop_deferred();
  /// Completes one deferred job as dropped and releases its slot.
  void complete_dropped(JobState& job);

  template <typename T>
  void save_checkpoint(JobState& job, const sim::StateVector<T>& state,
                       std::uint64_t blocks_done);
  template <typename T>
  std::uint64_t try_restore_checkpoint(JobState& job,
                                       sim::StateVector<T>* state);
  void remove_checkpoint(JobState& job);

  Options opts_;
  unsigned num_workers_ = 1;
  FairScheduler scheduler_;
  CompilationCache cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex stats_mutex_;
  sim::EngineStats folded_stats_;
  bool shut_down_ = false;
  std::mutex lifecycle_mutex_;  // serializes drain/shutdown

  // Retry nurse: a min-heap of deferred jobs ordered by due time,
  // drained by one thread that re-enqueues each job when its backoff
  // expires. Guarded by retry_mutex_.
  struct DeferredJob {
    Clock::time_point due;
    std::shared_ptr<JobState> job;
    bool operator>(const DeferredJob& o) const { return due > o.due; }
  };
  std::mutex retry_mutex_;
  std::condition_variable retry_cv_;
  std::vector<DeferredJob> retry_heap_;
  std::map<std::string, std::uint64_t> tenant_retries_;
  bool retry_stop_ = false;
  std::atomic<bool> dropping_{false};  ///< non-graceful shutdown in progress
  std::thread retry_thread_;
};

}  // namespace qgear::serve
