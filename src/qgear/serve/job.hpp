// Job model for the online simulation service.
//
// A job is one circuit submitted by one tenant with a priority class and
// optional queue deadline / execution timeout. Submission hands back a
// JobTicket (job id + shared future + cancellation hook); the service
// fulfils the future exactly once with a JobResult describing how the job
// ended and where its latency went (queue wait / compile / execute).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qgear/obs/context.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/program.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::serve {

/// Scheduling class. Lower value = more urgent; the scheduler always
/// exhausts a class before looking at the next (fair share applies only
/// between tenants inside one class).
enum class Priority : int {
  interactive = 0,  ///< latency-sensitive foreground traffic
  normal = 1,       ///< default
  batch = 2,        ///< throughput traffic, preempted by everything above
};
inline constexpr int kNumPriorities = 3;

const char* priority_name(Priority p);
/// Inverse of priority_name(); nullopt for unrecognized names.
std::optional<Priority> priority_from_name(const std::string& name);

/// Why admission control refused a submission.
enum class RejectReason : int {
  none = 0,
  queue_full,     ///< global bounded queue at capacity
  tenant_limit,   ///< tenant's in-flight cap (queued + running) reached
  shutting_down,  ///< service is draining or stopped
  memory_budget,  ///< backend memory estimate exceeds the service budget
};
inline constexpr int kNumRejectReasons = 5;

const char* reject_reason_name(RejectReason r);
/// Inverse of reject_reason_name(); nullopt for unrecognized names.
std::optional<RejectReason> reject_reason_from_name(const std::string& name);

/// Terminal state of an accepted job.
enum class JobStatus : int {
  completed = 0,
  deadline_expired,  ///< queue deadline passed before execution started
  timed_out,         ///< execution budget exhausted (cooperative stop)
  cancelled,         ///< caller cancelled before/while running
  dropped,           ///< service shut down non-gracefully with job pending
  failed,            ///< compile/execute threw (see `error`)
};
inline constexpr int kNumJobStatuses = 6;

const char* job_status_name(JobStatus s);
/// Inverse of job_status_name(); nullopt for unrecognized names.
std::optional<JobStatus> job_status_from_name(const std::string& name);

/// What the submitter asks for.
struct JobSpec {
  std::string tenant = "default";
  Priority priority = Priority::normal;
  qiskit::QuantumCircuit circuit{1};
  /// Max time the job may sit in the queue before it is abandoned
  /// (0 = no deadline). Measured from submission.
  double queue_deadline_s = 0.0;
  /// End-to-end budget; execution stops cooperatively (between fused
  /// blocks) once exceeded (0 = no timeout). Measured from submission.
  double timeout_s = 0.0;
  /// Trace correlation id. 0 = adopt the submitter's ambient
  /// obs::TraceContext, or generate a fresh one when there is none; every
  /// span the job produces (admit, compile, execute) carries this id, so
  /// `GET /trace?trace_id=<hex>` returns the request's merged timeline.
  std::uint64_t trace_id = 0;
  /// Simulation backend for this job (empty = the service default).
  /// Admission prices the job with *this* backend's memory_estimate, so a
  /// 50-qubit GHZ job is admissible on "dd"/"mps" even though its dense
  /// statevector price would dwarf any budget. "auto" asks the router
  /// (route::plan) to pick backend × precision × fusion width under the
  /// service's memory budget and accuracy bound.
  std::string backend;
  /// Execution precision: "fp32", "fp64", or "" for the service default
  /// (Options::fp64 on the fused path; engine-native fp64 elsewhere).
  /// Only the statevector backends honor fp32; the router sets this for
  /// backend=auto jobs.
  std::string precision;
};

/// How an accepted job ended, with its latency breakdown.
struct JobResult {
  JobStatus status = JobStatus::completed;
  std::uint64_t job_id = 0;
  std::string tenant;
  std::string error;        ///< non-empty when status == failed
  bool cache_hit = false;   ///< compilation served from cache
  double queue_wait_s = 0;  ///< submit -> dequeued by a worker
  double compile_s = 0;     ///< transpile + sim::compile, in submit
                            ///< (near 0 on a hit)
  double execute_s = 0;     ///< amplitude sweeps
  double e2e_s = 0;         ///< submit -> terminal
  std::uint64_t trace_id = 0;  ///< correlation id of the job's spans
  std::string backend;      ///< backend that executed (or would have)
  std::string precision;    ///< resolved execution precision
  /// Router/cost-model execute-time estimate priced at admission — the
  /// fair-share charge (see qgear.serve.report/v1 "admission").
  double est_execute_s = 0;
  sim::EngineStats stats;   ///< execution counters (completed jobs)
  /// Resilience outcome (see docs/RESILIENCE.md): how many attempts the
  /// job took (1 = first try), whether it was downgraded to a fallback
  /// backend after OutOfMemoryBudget, and the full chain of backends
  /// tried in order (size > 1 only when degraded).
  unsigned attempts = 1;
  bool degraded = false;
  std::vector<std::string> fallback_chain;
  /// Fused blocks restored from a segment checkpoint instead of being
  /// recomputed (nonzero only on retried checkpointed jobs).
  std::uint64_t checkpoint_blocks = 0;
};

using Clock = std::chrono::steady_clock;

/// Internal per-job record shared between submitter, scheduler, and
/// worker. Lives until the last ticket holder releases it.
struct JobState {
  JobSpec spec;
  std::uint64_t id = 0;
  obs::TraceContext ctx;          ///< resolved at submit (see JobSpec)
  std::uint64_t fingerprint = 0;  ///< cache key (computed at submit)
  std::string backend;            ///< resolved backend name
  std::string precision;          ///< resolved "fp32"/"fp64"
  std::uint64_t mem_bytes = 0;    ///< backend memory_estimate at submit
  double est_seconds = 0;         ///< cost-model time estimate at submit
  double cost = 1.0;  ///< fair-share charge (estimated execute seconds)
  /// A fused job's compiled program, fetched through the compilation
  /// cache at admission (or by the worker, for a job degraded onto the
  /// fused path later). The worker runs it; the job drops it when it
  /// reaches a terminal state, because tickets outlive jobs and the
  /// cache's byte bound must keep bounding the programs held in memory.
  std::shared_ptr<const sim::Program> program;
  bool cache_hit = false;  ///< `program` came from the cache
  double compile_s = 0;    ///< time fetching or compiling `program`
  Clock::time_point submit_time{};
  Clock::time_point last_enqueue{};  ///< submit, or the latest retry requeue
  Clock::time_point deadline{};      ///< zero when no queue deadline
  Clock::time_point timeout_at{};    ///< zero when no timeout
  std::atomic<bool> cancel_requested{false};
  std::promise<JobResult> promise;

  // Resilience bookkeeping (touched only by the worker that owns the job
  // and the retry nurse, never concurrently).
  unsigned attempt = 0;  ///< failed attempts so far
  bool degraded = false;
  std::vector<std::string> failed_backends;  ///< excluded on re-plan
  std::string checkpoint_path;  ///< empty = checkpointing off for this job
  std::uint64_t checkpoint_blocks = 0;  ///< blocks in the saved checkpoint

  bool has_deadline() const { return deadline != Clock::time_point{}; }
  bool has_timeout() const { return timeout_at != Clock::time_point{}; }
};

/// Handle returned by SimService::submit. For rejected submissions
/// `accepted` is false and `result` is not valid.
class JobTicket {
 public:
  JobTicket() = default;
  JobTicket(RejectReason reason) : reason_(reason) {}
  JobTicket(std::shared_ptr<JobState> state, std::shared_future<JobResult> f)
      : state_(std::move(state)), result_(std::move(f)) {}

  bool accepted() const { return state_ != nullptr; }
  RejectReason reject_reason() const { return reason_; }
  std::uint64_t job_id() const { return state_ ? state_->id : 0; }
  std::uint64_t trace_id() const { return state_ ? state_->ctx.trace_id : 0; }

  /// Future for the terminal JobResult (valid only when accepted()).
  const std::shared_future<JobResult>& result() const { return result_; }

  /// Requests cooperative cancellation: honored while queued and between
  /// fused blocks while executing. The result future still completes
  /// (status cancelled, or completed if the job won the race).
  void cancel() {
    if (state_) state_->cancel_requested.store(true, std::memory_order_relaxed);
  }

 private:
  RejectReason reason_ = RejectReason::none;
  std::shared_ptr<JobState> state_;
  std::shared_future<JobResult> result_;
};

}  // namespace qgear::serve
