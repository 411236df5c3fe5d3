#include "qgear/serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <functional>
#include <utility>

#include "qgear/common/error.hpp"
#include "qgear/common/log.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/core/state_io.hpp"
#include "qgear/fault/fault.hpp"
#include "qgear/obs/context.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qh5/file.hpp"
#include "qgear/qiskit/fingerprint.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/state.hpp"

namespace qgear::serve {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

obs::Counter& submitted_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.submitted");
  return c;
}
obs::Counter& accepted_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.accepted");
  return c;
}
obs::Counter& rejected_counter(RejectReason r) {
  static obs::Counter& none =
      obs::Registry::global().counter("serve.rejected.none");
  static obs::Counter& full =
      obs::Registry::global().counter("serve.rejected.queue_full");
  static obs::Counter& tenant =
      obs::Registry::global().counter("serve.rejected.tenant_limit");
  static obs::Counter& shutdown =
      obs::Registry::global().counter("serve.rejected.shutting_down");
  static obs::Counter& memory =
      obs::Registry::global().counter("serve.rejected.memory_budget");
  // Exhaustive on purpose: a new RejectReason must name its counter here
  // or fail to compile (-Wswitch), instead of silently riding a default.
  switch (r) {
    case RejectReason::none:
      return none;
    case RejectReason::queue_full:
      return full;
    case RejectReason::tenant_limit:
      return tenant;
    case RejectReason::shutting_down:
      return shutdown;
    case RejectReason::memory_budget:
      return memory;
  }
  return full;
}
obs::Counter& status_counter(JobStatus s) {
  static obs::Counter& completed =
      obs::Registry::global().counter("serve.completed");
  static obs::Counter& expired =
      obs::Registry::global().counter("serve.deadline_expired");
  static obs::Counter& timed_out =
      obs::Registry::global().counter("serve.timed_out");
  static obs::Counter& cancelled =
      obs::Registry::global().counter("serve.cancelled");
  static obs::Counter& dropped =
      obs::Registry::global().counter("serve.dropped");
  static obs::Counter& failed = obs::Registry::global().counter("serve.failed");
  switch (s) {
    case JobStatus::completed:
      return completed;
    case JobStatus::deadline_expired:
      return expired;
    case JobStatus::timed_out:
      return timed_out;
    case JobStatus::cancelled:
      return cancelled;
    case JobStatus::dropped:
      return dropped;
    case JobStatus::failed:
      return failed;
  }
  return failed;
}
obs::Histogram& queue_wait_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.queue_wait_us");
  return h;
}
obs::Histogram& compile_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.compile_us");
  return h;
}
obs::Histogram& execute_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.execute_us");
  return h;
}
obs::Histogram& e2e_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram("serve.e2e_us");
  return h;
}
obs::Counter& retries_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.retries");
  return c;
}
obs::Counter& degraded_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.degraded");
  return c;
}
obs::Counter& retry_budget_exhausted_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.retry_budget_exhausted");
  return c;
}
obs::Counter& checkpoint_saves_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.checkpoint_saves");
  return c;
}
obs::Counter& checkpoint_restores_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.checkpoint_restores");
  return c;
}

// Retry backoff grows by kBackoffGrowth per attempt, scaled by
// 1 ± kBackoffJitter.
constexpr double kBackoffGrowth = 2.0;
constexpr double kBackoffJitter = 0.2;

// Deterministic jitter in [0, 1): hash of (job id, attempt) — the same
// retried job always backs off the same amount, which keeps chaos runs
// reproducible under QGEAR_FAULT_PLAN seeds.
double jitter_unit(std::uint64_t job_id, unsigned attempt) {
  std::uint64_t x = job_id * 0x9e3779b97f4a7c15ULL + attempt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

SimService::SimService(Options opts)
    : opts_(std::move(opts)),
      scheduler_(opts_.scheduler),
      cache_(opts_.cache) {
  num_workers_ = opts_.workers;
  if (num_workers_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_workers_ = hw >= 2 ? hw / 2 : 1;
  }
  pool_ = std::make_unique<ThreadPool>(num_workers_, num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    const bool ok = pool_->try_submit([this] { worker_loop(); });
    QGEAR_ENSURES(ok);  // capacity == num_workers_, queue starts empty
  }
  retry_thread_ = std::thread([this] { retry_loop(); });
}

SimService::~SimService() { shutdown(/*graceful=*/true); }

JobTicket SimService::submit(JobSpec spec) {
  submitted_counter().add();
  auto state = std::make_shared<JobState>();
  state->spec = std::move(spec);
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Trace correlation: an explicit id wins, else the submitter's ambient
  // context is adopted, else a fresh trace begins at admission.
  if (state->spec.trace_id != 0) {
    state->ctx.trace_id = state->spec.trace_id;
  } else if (obs::TraceContext::current().valid()) {
    state->ctx = obs::TraceContext::current();
  } else {
    state->ctx = obs::TraceContext::generate();
  }
  obs::ContextScope admit_scope(state->ctx);
  obs::Span admit_span(obs::Tracer::global(), "serve.submit", "serve");
  if (admit_span.active()) {
    admit_span.arg("tenant", state->spec.tenant);
    admit_span.arg("job_id", std::to_string(state->id));
  }
  state->fingerprint = qiskit::circuit_fingerprint(state->spec.circuit);
  state->backend =
      state->spec.backend.empty() ? opts_.backend : state->spec.backend;
  if (state->backend == "auto") {
    // Placement policy: the router picks backend × precision under the
    // service memory budget and accuracy bound. Runs in the admit trace
    // scope, so the route.plan span (and its route.* counters) nest under
    // this request's trace id.
    const route::Placement placement = place(*state);
    if (!placement.feasible) {
      rejected_counter(RejectReason::memory_budget).add();
      return JobTicket(RejectReason::memory_budget);
    }
    state->backend = placement.choice.config.backend;
    state->precision = placement.choice.config.precision;
    state->mem_bytes = placement.choice.mem_bytes;
    state->est_seconds = placement.choice.seconds;
    if (admit_span.active()) {
      admit_span.arg("routed_backend", state->backend);
      admit_span.arg("routed_precision", state->precision);
    }
    // A routed fused job compiles now too, so the worker only runs it.
    if (state->backend == "fused") compile(*state);
  } else {
    QGEAR_CHECK_ARG(sim::Backend::is_registered(state->backend),
                    "serve: unknown backend '" + state->backend + "'");
    // The dist backend runs its circuit at the first sample or
    // expectation, which a job never calls: its job would complete
    // without running.
    QGEAR_CHECK_ARG(state->backend != "dist",
                    "serve: the dist backend cannot run jobs");
    // Resolve precision: an explicit JobSpec ask wins on the statevector
    // backends; the fused default follows Options::fp64; dd and mps are
    // double-precision engines regardless.
    const bool statevector =
        state->backend == "fused" || state->backend == "reference";
    if (!state->spec.precision.empty() && statevector) {
      QGEAR_CHECK_ARG(state->spec.precision == "fp32" ||
                          state->spec.precision == "fp64",
                      "serve: precision must be fp32 or fp64");
      state->precision = state->spec.precision;
    } else if (state->backend == "fused") {
      state->precision = opts_.fp64 ? "fp64" : "fp32";
    } else {
      state->precision = "fp64";
    }
    // Price the job in the bytes *its* backend would need. This is the
    // admission currency: a dd/mps job is charged its structure-aware
    // estimate, not the 2^n statevector price that would reject every
    // large-but-sparse circuit.
    sim::BackendOptions bo = backend_options();
    bo.fp32 = statevector && state->precision == "fp32";
    state->mem_bytes = sim::Backend::memory_estimate_for(
        state->backend, state->spec.circuit, bo);
    if (opts_.memory_budget_bytes > 0 &&
        state->mem_bytes > opts_.memory_budget_bytes) {
      rejected_counter(RejectReason::memory_budget).add();
      return JobTicket(RejectReason::memory_budget);
    }
    if (state->backend == "fused") {
      // Compiled once here, through the cache: the program the worker
      // will run is also the one the job is priced from.
      compile(*state);
      state->est_seconds =
          route::time_estimate_for(state->backend, state->precision,
                                   *state->program, opts_.calibration, bo)
              .seconds;
    } else {
      // Reference, dd and mps prices read only the circuit, so the job
      // is priced from a program that compiled nothing.
      sim::Program uncompiled;
      uncompiled.circuit = state->spec.circuit;
      state->est_seconds =
          route::time_estimate_for(state->backend, state->precision,
                                   uncompiled, opts_.calibration, bo)
              .seconds;
    }
  }
  // Fair-share charge: the cost model's execute-time estimate. Replaces
  // the old gates×amplitudes proxy — tenants are now charged in the
  // same currency the latency SLO is written in, and a dd/mps job that
  // finishes in milliseconds no longer pays a statevector-sized share.
  state->cost = std::max(state->est_seconds, 1e-9);
  sync_checkpoint_path(*state);
  state->submit_time = Clock::now();
  state->last_enqueue = state->submit_time;
  if (state->spec.queue_deadline_s > 0) {
    state->deadline =
        state->submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(state->spec.queue_deadline_s));
  }
  if (state->spec.timeout_s > 0) {
    state->timeout_at =
        state->submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(state->spec.timeout_s));
  }
  auto future = state->promise.get_future().share();
  const RejectReason reason = scheduler_.push(state);
  if (reason != RejectReason::none) {
    rejected_counter(reason).add();
    return JobTicket(reason);
  }
  accepted_counter().add();
  return JobTicket(std::move(state), std::move(future));
}

void SimService::worker_loop() {
  FairScheduler::Popped popped;
  while (scheduler_.pop(&popped)) {
    const std::string tenant = popped.job->spec.tenant;
    const bool deferred = process(std::move(popped));
    // A deferred job keeps its slot; push_retry / on_deferred_dropped
    // release it instead of on_finished.
    if (!deferred) scheduler_.on_finished(tenant);
  }
}

void SimService::compile(JobState& job) {
  WallTimer timer;
  obs::Span span(obs::Tracer::global(), "serve.compile", "serve");
  job.program = cache_.get_or_compile(
      job.fingerprint,
      [&] {
        return std::make_shared<const sim::Program>(sim::compile(
            qiskit::transpile(job.spec.circuit), opts_.fusion.max_width));
      },
      &job.cache_hit);
  job.compile_s = timer.seconds();
  if (span.active()) span.arg("cache_hit", job.cache_hit ? "true" : "false");
}

void SimService::finish(JobState& job, JobResult&& result) {
  result.job_id = job.id;
  result.tenant = job.spec.tenant;
  result.trace_id = job.ctx.trace_id;
  result.e2e_s = seconds_between(job.submit_time, Clock::now());
  result.attempts = job.attempt + 1;
  result.degraded = job.degraded;
  if (job.degraded) {
    result.fallback_chain = job.failed_backends;
    result.fallback_chain.push_back(job.backend);
  }
  remove_checkpoint(job);
  job.program.reset();
  status_counter(result.status).add();
  queue_wait_hist().observe(result.queue_wait_s * 1e6);
  e2e_hist().observe(result.e2e_s * 1e6);
  if (result.status == JobStatus::completed) {
    compile_hist().observe(result.compile_s * 1e6);
    execute_hist().observe(result.execute_s * 1e6);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    folded_stats_ += result.stats;
  }
  job.promise.set_value(std::move(result));
}

bool SimService::process(FairScheduler::Popped popped) {
  std::shared_ptr<JobState> shared = std::move(popped.job);
  JobState& job = *shared;
  JobResult result;
  result.backend = job.backend;
  result.precision = job.precision;
  result.est_execute_s = job.est_seconds;
  result.queue_wait_s = seconds_between(job.last_enqueue, Clock::now());

  if (popped.expired) {
    result.status = JobStatus::deadline_expired;
    finish(job, std::move(result));
    return false;
  }
  if (job.cancel_requested.load(std::memory_order_relaxed)) {
    result.status = JobStatus::cancelled;
    finish(job, std::move(result));
    return false;
  }

  // The worker thread adopts the job's trace context for the duration of
  // the job: every span below (including engine-level sweep spans) is
  // tagged with the request's trace_id. Retried attempts re-enter here
  // and so share the id — one trace shows the whole retry chain.
  obs::ContextScope trace_scope(job.ctx);
  obs::Span span(obs::Tracer::global(), "serve.job", "serve");
  if (span.active()) {
    span.arg("tenant", job.spec.tenant);
    span.arg("priority", priority_name(job.spec.priority));
    span.arg("backend", job.backend);
    span.arg("fingerprint", qiskit::fingerprint_hex(job.fingerprint));
    span.arg("attempt", std::to_string(job.attempt + 1));
  }

  // Failure policy: invalid-input class errors are permanent (retrying
  // cannot fix the circuit); OutOfMemoryBudget degrades onto a fallback
  // backend; everything else is transient and retries under RetryPolicy.
  auto fail_or_retry = [&](const std::string& what, bool oom,
                           bool permanent) -> bool {
    if (!permanent && maybe_retry(shared, what, oom)) return true;
    result.status = JobStatus::failed;
    result.error = what;
    log::warn(std::string("serve: job failed: ") + what);
    finish(job, std::move(result));
    return false;
  };

  try {
    // Fault site: a serve worker that dies while holding the job.
    fault::maybe_throw(fault::Site::serve_worker, "serve worker");

    // Non-statevector backends bypass the fused-block compile cache
    // (their execution is not program-shaped) and run through sim::Backend
    // with the same cooperative cancellation granularity.
    if (job.backend != "fused") {
      WallTimer exec_timer;
      const bool ran_to_completion = execute_backend(job, &result.stats);
      result.execute_s = exec_timer.seconds();
      if (ran_to_completion) {
        result.status = JobStatus::completed;
      } else if (job.cancel_requested.load(std::memory_order_relaxed)) {
        result.status = JobStatus::cancelled;
      } else {
        result.status = JobStatus::timed_out;
      }
      finish(job, std::move(result));
      return false;
    }

    // Admission compiled the job; only one degraded onto the fused path
    // since then has no program yet.
    if (!job.program) compile(job);
    result.cache_hit = job.cache_hit;
    result.compile_s = job.compile_s;

    if (job.cancel_requested.load(std::memory_order_relaxed)) {
      result.status = JobStatus::cancelled;
      finish(job, std::move(result));
      return false;
    }
    if (job.has_timeout() && Clock::now() > job.timeout_at) {
      result.status = JobStatus::timed_out;
      finish(job, std::move(result));
      return false;
    }

    WallTimer exec_timer;
    const bool ran_to_completion =
        job.precision == "fp64"
            ? execute_program<double>(job, *job.program, &result)
            : execute_program<float>(job, *job.program, &result);
    result.execute_s = exec_timer.seconds();
    if (ran_to_completion) {
      result.status = JobStatus::completed;
    } else if (job.cancel_requested.load(std::memory_order_relaxed)) {
      result.status = JobStatus::cancelled;
    } else {
      result.status = JobStatus::timed_out;
    }
    finish(job, std::move(result));
    return false;
  } catch (const InvalidArgument& e) {
    return fail_or_retry(e.what(), /*oom=*/false, /*permanent=*/true);
  } catch (const FormatError& e) {
    return fail_or_retry(e.what(), /*oom=*/false, /*permanent=*/true);
  } catch (const LogicViolation& e) {
    return fail_or_retry(e.what(), /*oom=*/false, /*permanent=*/true);
  } catch (const OutOfMemoryBudget& e) {
    return fail_or_retry(e.what(), /*oom=*/true, /*permanent=*/false);
  } catch (const std::exception& e) {
    return fail_or_retry(e.what(), /*oom=*/false, /*permanent=*/false);
  }
}

template <typename T>
bool SimService::execute_program(JobState& job, const sim::Program& program,
                                 JobResult* result) {
  sim::StateVector<T> state(program.num_qubits);
  const std::span<const sim::FusedBlock> blocks = program.blocks();
  // A retried attempt resumes from the last segment checkpoint instead of
  // recomputing every block it already swept.
  std::size_t start = 0;
  if (job.attempt > 0 && !job.checkpoint_path.empty()) {
    start = std::min<std::size_t>(try_restore_checkpoint<T>(job, &state),
                                  blocks.size());
    result->checkpoint_blocks = start;
  }
  obs::Span sweep_span(obs::Tracer::global(), "sweep", "sim");
  if (sweep_span.active()) {
    sweep_span.arg("blocks", std::uint64_t{blocks.size() - start});
    sweep_span.arg("qubits", std::uint64_t{state.num_qubits()});
  }
  WallTimer timer;
  const bool finished = sim::run_fused_blocks<T>(
      state.data(), state.num_qubits(), blocks.subspan(start),
      /*pool=*/nullptr, result->stats, [&](std::size_t i) {
        // Segment checkpoint every N blocks done in this attempt. The
        // hook runs before a block, so none follows the last block, whose
        // job is about to finish and delete the file.
        const std::size_t done = start + i;
        if (i > 0 && !job.checkpoint_path.empty() &&
            done % opts_.checkpoint_every == 0) {
          save_checkpoint<T>(job, state, done);
        }
        // Cooperative cancellation/timeout: checked between fused blocks,
        // the natural preemption granularity of an amplitude-sweep engine.
        if (job.cancel_requested.load(std::memory_order_relaxed)) {
          return false;
        }
        if (job.has_timeout() && Clock::now() > job.timeout_at) return false;
        // Fault site: synthetic memory-budget exhaustion mid-execution,
        // the trigger for backend degradation (and checkpoint-resumed
        // retries).
        fault::maybe_throw_oom("serve fused block");
        return true;
      });
  result->stats.seconds += timer.seconds();
  return finished;
}

sim::BackendOptions SimService::backend_options() const {
  sim::BackendOptions bo;
  bo.pool = nullptr;  // inter-job parallelism only, like the fused path
  bo.fusion = opts_.fusion;
  bo.dd = opts_.dd;
  bo.mps = opts_.mps;
  return bo;
}

bool SimService::execute_backend(JobState& job, sim::EngineStats* stats) {
  sim::BackendOptions bo = backend_options();
  bo.fp32 = job.precision == "fp32";
  auto backend = sim::Backend::create(job.backend, bo);
  const qiskit::QuantumCircuit& qc = job.spec.circuit;
  backend->init_state(qc.num_qubits());
  // Cooperative cancellation/timeout between chunks of gates — the
  // backend analogue of the fused path's between-block checks.
  constexpr std::size_t kChunkGates = 32;
  const auto& instructions = qc.instructions();
  for (std::size_t start = 0; start < instructions.size();
       start += kChunkGates) {
    if (job.cancel_requested.load(std::memory_order_relaxed)) return false;
    if (job.has_timeout() && Clock::now() > job.timeout_at) return false;
    // Fault site: synthetic memory-budget exhaustion between gate chunks
    // (e.g. a dd node-budget blowup), the trigger for degradation.
    fault::maybe_throw_oom("serve backend chunk");
    const std::size_t stop =
        std::min(start + kChunkGates, instructions.size());
    qiskit::QuantumCircuit chunk(qc.num_qubits());
    for (std::size_t i = start; i < stop; ++i) {
      chunk.append(instructions[i]);
    }
    backend->apply_circuit(chunk);
  }
  *stats += backend->stats();  // engines track their own seconds
  return true;
}

bool SimService::maybe_retry(const std::shared_ptr<JobState>& job,
                             const std::string& error, bool oom) {
  JobState& j = *job;
  // No retries once a non-graceful shutdown started, for a cancelled job,
  // or past the job's own timeout — fail now instead of parking.
  if (dropping_.load(std::memory_order_relaxed)) return false;
  if (j.cancel_requested.load(std::memory_order_relaxed)) return false;
  if (j.has_timeout() && Clock::now() > j.timeout_at) return false;

  // Graceful degradation: OutOfMemoryBudget means this backend cannot run
  // the job, so backing off and retrying the same plan is pointless.
  // Re-plan with the failed backends excluded and retry immediately.
  // Independent of max_attempts and naturally bounded: each degradation
  // excludes one more backend from a finite candidate space.
  if (oom && opts_.degrade_on_oom && try_degrade(j)) {
    ++j.attempt;
    degraded_counter().add();
    log::warn(strfmt("serve: job %llu degraded to backend '%s' after: %s",
                     static_cast<unsigned long long>(j.id), j.backend.c_str(),
                     error.c_str()));
    scheduler_.defer(j.spec.tenant);
    enqueue_retry(job, Clock::now());
    return true;
  }

  if (j.attempt + 1 >= opts_.retry.max_attempts) return false;
  if (opts_.retry.tenant_retry_budget > 0) {
    std::lock_guard<std::mutex> lock(retry_mutex_);
    std::uint64_t& used = tenant_retries_[j.spec.tenant];
    if (used >= opts_.retry.tenant_retry_budget) {
      retry_budget_exhausted_counter().add();
      return false;
    }
    ++used;
  }
  retries_counter().add();

  // Exponential backoff with deterministic ± jitter.
  double backoff_ms = opts_.retry.backoff_ms *
                      std::pow(kBackoffGrowth, static_cast<double>(j.attempt));
  backoff_ms *= 1.0 + kBackoffJitter *
                          (2.0 * jitter_unit(j.id, j.attempt + 1) - 1.0);
  backoff_ms = std::max(backoff_ms, 0.0);
  ++j.attempt;
  log::warn(strfmt("serve: job %llu attempt %u failed (%s); retrying in "
                   "%.1f ms",
                   static_cast<unsigned long long>(j.id), j.attempt,
                   error.c_str(), backoff_ms));
  scheduler_.defer(j.spec.tenant);
  enqueue_retry(job,
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       backoff_ms)));
  return true;
}

route::Placement SimService::place(const JobState& job) const {
  route::Budget budget;
  budget.memory_bytes = opts_.memory_budget_bytes;
  budget.max_error = opts_.route_max_error;
  route::RouteOptions ro;
  ro.calibration = opts_.calibration;
  ro.base = backend_options();
  // Priced at the one width the worker compiles at.
  ro.fusion_widths = {opts_.fusion.max_width};
  ro.exclude_backends = job.failed_backends;
  return route::plan(job.spec.circuit, budget, ro);
}

void SimService::sync_checkpoint_path(JobState& job) {
  // Segment checkpointing applies to the fused (program-shaped) path only;
  // other engines have no state snapshot at a block boundary.
  const bool wanted = opts_.checkpoint_every > 0 && job.backend == "fused";
  if (wanted == !job.checkpoint_path.empty()) return;
  if (!wanted) {
    remove_checkpoint(job);
    job.checkpoint_path.clear();
    job.checkpoint_blocks = 0;
    return;
  }
  namespace fs = std::filesystem;
  const fs::path dir = opts_.checkpoint_dir.empty()
                           ? fs::temp_directory_path()
                           : fs::path(opts_.checkpoint_dir);
  job.checkpoint_path =
      (dir / strfmt("qgear_ckpt_%p_%llu.qh5", static_cast<const void*>(this),
                    static_cast<unsigned long long>(job.id)))
          .string();
}

bool SimService::try_degrade(JobState& job) {
  job.failed_backends.push_back(job.backend);
  const route::Placement placement = place(job);
  if (!placement.feasible) return false;
  job.degraded = true;
  job.backend = placement.choice.config.backend;
  job.precision = placement.choice.config.precision;
  job.mem_bytes = placement.choice.mem_bytes;
  job.est_seconds = placement.choice.seconds;
  job.cost = std::max(job.est_seconds, 1e-9);
  // Drops a stale checkpoint when degrading off the fused path, starts
  // one when degrading onto it.
  sync_checkpoint_path(job);
  return true;
}

void SimService::enqueue_retry(std::shared_ptr<JobState> job,
                               Clock::time_point due) {
  {
    std::lock_guard<std::mutex> lock(retry_mutex_);
    retry_heap_.push_back(DeferredJob{due, std::move(job)});
    std::push_heap(retry_heap_.begin(), retry_heap_.end(), std::greater<>{});
  }
  retry_cv_.notify_all();
}

void SimService::retry_loop() {
  std::unique_lock<std::mutex> lock(retry_mutex_);
  for (;;) {
    // Non-graceful shutdown: everything parked here completes as dropped,
    // including jobs that slip in after shutdown's own drop_deferred()
    // (a worker may have been mid-maybe_retry when dropping_ flipped).
    if (dropping_.load(std::memory_order_relaxed) && !retry_heap_.empty()) {
      std::vector<DeferredJob> parked;
      parked.swap(retry_heap_);
      lock.unlock();
      for (DeferredJob& d : parked) complete_dropped(*d.job);
      lock.lock();
      continue;
    }
    if (retry_heap_.empty()) {
      if (retry_stop_) return;
      retry_cv_.wait(lock);
      continue;
    }
    const Clock::time_point due = retry_heap_.front().due;
    if (due > Clock::now()) {
      retry_cv_.wait_until(lock, due);
      continue;
    }
    std::pop_heap(retry_heap_.begin(), retry_heap_.end(), std::greater<>{});
    std::shared_ptr<JobState> job = std::move(retry_heap_.back().job);
    retry_heap_.pop_back();
    lock.unlock();
    scheduler_.push_retry(std::move(job));
    lock.lock();
  }
}

void SimService::complete_dropped(JobState& job) {
  JobResult result;
  result.status = JobStatus::dropped;
  result.backend = job.backend;
  result.precision = job.precision;
  result.est_execute_s = job.est_seconds;
  result.queue_wait_s = seconds_between(job.last_enqueue, Clock::now());
  dropped_.fetch_add(1, std::memory_order_relaxed);
  const std::string tenant = job.spec.tenant;
  finish(job, std::move(result));
  scheduler_.on_deferred_dropped(tenant);
}

void SimService::drop_deferred() {
  std::vector<DeferredJob> parked;
  {
    std::lock_guard<std::mutex> lock(retry_mutex_);
    parked.swap(retry_heap_);
  }
  for (DeferredJob& d : parked) complete_dropped(*d.job);
}

template <typename T>
void SimService::save_checkpoint(JobState& job,
                                 const sim::StateVector<T>& state,
                                 std::uint64_t blocks_done) {
  // Best effort: a checkpoint failure must never fail the job. Written
  // tmp-then-rename so a crash mid-write leaves the previous checkpoint.
  try {
    const std::string tmp = job.checkpoint_path + ".tmp";
    qh5::File file = qh5::File::create(tmp);
    qh5::Group& root = file.root();
    root.set_attr("fingerprint", static_cast<std::int64_t>(job.fingerprint));
    root.set_attr("precision", job.precision);
    root.set_attr("blocks_done", static_cast<std::int64_t>(blocks_done));
    core::save_state(state, root.create_group("state"));
    file.flush();
    std::filesystem::rename(tmp, job.checkpoint_path);
    job.checkpoint_blocks = blocks_done;
    checkpoint_saves_counter().add();
  } catch (const std::exception& e) {
    log::warn(std::string("serve: checkpoint save failed: ") + e.what());
  }
}

template <typename T>
std::uint64_t SimService::try_restore_checkpoint(JobState& job,
                                                 sim::StateVector<T>* state) {
  if (job.checkpoint_path.empty() || job.checkpoint_blocks == 0) return 0;
  try {
    if (!std::filesystem::exists(job.checkpoint_path)) return 0;
    qh5::File file = qh5::File::open(job.checkpoint_path);
    const qh5::Group& root = file.root();
    // A degraded job may have changed precision since the save; the
    // fingerprint/precision attrs gate against resuming a stale state.
    if (static_cast<std::uint64_t>(root.attr_i64("fingerprint")) !=
            job.fingerprint ||
        root.attr_str("precision") != job.precision) {
      return 0;
    }
    *state = core::load_state<T>(root.group("state"));
    checkpoint_restores_counter().add();
    return static_cast<std::uint64_t>(root.attr_i64("blocks_done"));
  } catch (const std::exception& e) {
    log::warn(std::string("serve: checkpoint restore failed: ") + e.what());
    return 0;
  }
}

void SimService::remove_checkpoint(JobState& job) {
  if (job.checkpoint_path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(job.checkpoint_path, ec);
  std::filesystem::remove(job.checkpoint_path + ".tmp", ec);
}

void SimService::drain() {
  scheduler_.close_submissions();
  scheduler_.wait_idle();
}

void SimService::shutdown(bool graceful) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (shut_down_) return;
  if (!graceful) {
    // Refuse new retries first: a job failing from here on completes as
    // failed instead of parking in the retry nurse, and the nurse drops
    // (not requeues) anything already parked.
    dropping_.store(true, std::memory_order_relaxed);
    retry_cv_.notify_all();
  }
  scheduler_.close_submissions();
  if (!graceful) {
    for (const std::shared_ptr<JobState>& job : scheduler_.drain_queued()) {
      JobResult result;
      result.status = JobStatus::dropped;
      result.backend = job->backend;
      result.precision = job->precision;
      result.est_execute_s = job->est_seconds;
      result.queue_wait_s = seconds_between(job->last_enqueue, Clock::now());
      dropped_.fetch_add(1, std::memory_order_relaxed);
      finish(*job, std::move(result));
    }
    drop_deferred();
  }
  scheduler_.wait_idle();
  {
    std::lock_guard<std::mutex> lock(retry_mutex_);
    retry_stop_ = true;
  }
  retry_cv_.notify_all();
  if (retry_thread_.joinable()) retry_thread_.join();
  pool_.reset();  // worker loops have exited (pop() returns false)
  shut_down_ = true;
}

sim::EngineStats SimService::folded_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return folded_stats_;
}

std::uint64_t SimService::dropped_jobs() const {
  return dropped_.load(std::memory_order_relaxed);
}

}  // namespace qgear::serve
