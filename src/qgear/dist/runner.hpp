// SPMD driver for the distributed engine: spins up a rank-per-thread
// World, evolves the partitioned state, optionally samples shots with a
// distributed multinomial, and returns the results plus the exact
// communication trace (which perfmodel prices at paper scale).
#pragma once

#include <mutex>
#include <numeric>
#include <optional>

#include "qgear/comm/comm.hpp"
#include "qgear/dist/dist_state.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/obs/context.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/sim/sampler.hpp"

namespace qgear::dist {

struct RunOptions {
  int num_ranks = 4;            ///< must be a power of two
  std::uint64_t shots = 0;      ///< 0 = no sampling
  bool gather_state = false;    ///< collect the full state (small n only)
  std::uint64_t seed = 12345;   ///< sampling seed
  /// Fused-block width of the remapped schedule's local segments (0 runs
  /// width-1 blocks). Needs remap: the per-gate schedule runs unfused,
  /// and a nonzero width without remap is rejected.
  unsigned fusion_width = 0;
  /// Execute the communication-avoiding remapped schedule (dist/remap):
  /// global qubits are swapped into local slots ahead of gate runs and
  /// logical swap gates dissolve into the qubit map. false runs the
  /// per-gate schedule (DistStateVector::apply_circuit), the paper's
  /// nvidia-mgpu baseline and the oracle.
  bool remap = false;
  /// Worker threads per rank for local sweeps and exchange updates
  /// (0 = scalar loops). Total threads = num_ranks * threads_per_rank.
  unsigned threads_per_rank = 0;
  /// Chunk size in bytes for pipelined slab exchanges. 0 = auto: derived
  /// per exchange from the message size and the rank pair's interconnect
  /// tier (small messages go one-shot, inter-node transfers chunk finer).
  std::uint64_t exchange_chunk_bytes = 0;
  /// Trace correlation id for the whole run. 0 = adopt the caller's
  /// ambient obs::TraceContext, or start a fresh trace. Every rank's spans
  /// are tagged with this id plus the rank, so a single request exports as
  /// one merged timeline with one lane per rank.
  std::uint64_t trace_id = 0;
  /// Ranks sharing one NVLink domain (comm::Topology); pairs in different
  /// domains are inter-node. Mirrors perfmodel's gpus_per_node. 0 = one
  /// flat domain.
  unsigned ranks_per_domain = 4;
  /// Resilient slab exchanges (timeout_s > 0): receive timeouts and
  /// bounded re-sends on every exchange of either schedule — the path the
  /// comm fault hooks attach to.
  comm::ResilienceOptions exchange_resilience = {};
};

/// Per-rank observability summary of one distributed run (meaningful when
/// tracing was enabled; zeros otherwise except exchange_bytes, which comes
/// from the exact comm trace and is always populated).
struct RankObsSummary {
  std::uint64_t exchange_bytes = 0;  ///< bytes this rank *sent*
  std::uint64_t spans = 0;           ///< spans recorded under this rank
  double span_seconds = 0.0;         ///< summed span durations (nested incl.)
  /// Slab-exchange payload sent per interconnect tier (excludes
  /// sampling/gather traffic, which is tierless collective plumbing).
  std::uint64_t nvlink_bytes = 0;
  std::uint64_t internode_bytes = 0;
};

template <typename T>
struct RunResult {
  /// Full final state (only when gather_state was set).
  std::vector<std::complex<T>> state;
  /// Aggregated measurement histogram (key = packed measured bits).
  sim::Counts counts;
  /// Measured qubits in program order.
  std::vector<unsigned> measured;
  /// Exact point-to-point transfer log of the run.
  comm::CommTrace trace;
  /// Per-rank engine statistics (index = rank).
  std::vector<sim::EngineStats> rank_stats;
  /// Per-rank exchange bytes and span accounting (index = rank).
  std::vector<RankObsSummary> rank_obs;
  /// Trace id every span of this run carries (export one merged timeline
  /// with Tracer::write_trace_json(path, trace_id)).
  std::uint64_t trace_id = 0;
  double norm = 0.0;
  /// Bytes the circuit itself exchanged (trace snapshot before sampling
  /// and gather traffic).
  std::uint64_t circuit_exchange_bytes = 0;
  /// Slab swaps the remap plan paid / swap gates it absorbed (remap only).
  std::uint64_t remap_slab_swaps = 0;
  std::uint64_t remap_elided_swaps = 0;
};

/// Distributed multinomial sampling: rank weights are the local norm of
/// each slab; the root splits the shot budget across ranks by their
/// weight (sim::split_shots), each rank streams its slab through
/// sim::sample_amplitudes on its own pool, and results merge at the root
/// keyed by the *logical* basis index bits of the measured qubits
/// (resolved through the state's qubit map after remapped runs).
template <typename T>
sim::Counts sample_distributed(DistStateVector<T>& state,
                               comm::Communicator& comm,
                               const std::vector<unsigned>& measured,
                               std::uint64_t shots, std::uint64_t seed);

/// Runs `qc` across opts.num_ranks SPMD ranks and returns the merged
/// result (state/counts live at rank 0's view of the world).
template <typename T>
RunResult<T> run_distributed(const qiskit::QuantumCircuit& qc,
                             const RunOptions& opts);

// ---- implementation ----------------------------------------------------

template <typename T>
sim::Counts sample_distributed(DistStateVector<T>& state,
                               comm::Communicator& comm,
                               const std::vector<unsigned>& measured,
                               std::uint64_t shots, std::uint64_t seed) {
  obs::Span span(obs::Tracer::global(), "dist.sample", "dist");
  if (span.active()) {
    span.arg("rank", std::uint64_t{unsigned(comm.rank())});
    span.arg("shots", shots);
  }
  // Reserved collective tags, disjoint from the op tag space by
  // construction (kSamplerTagBase >= kOpTagLimit).
  constexpr int kWeightTag = kSamplerTagBase;
  constexpr int kBudgetTag = kSamplerTagBase + 1;
  constexpr int kCountsTag = kSamplerTagBase + 2;

  const int rank = comm.rank();
  const int size = comm.size();
  const double local_weight = state.local_norm();

  // Root collects rank weights and draws the per-rank multinomial split.
  std::vector<std::uint64_t> budget(size, 0);
  if (rank == 0) {
    std::vector<double> weights(size);
    weights[0] = local_weight;
    for (int src = 1; src < size; ++src) {
      weights[src] = comm.recv_vec<double>(src, kWeightTag).at(0);
    }
    Rng rng(seed);
    budget = sim::split_shots(weights, shots, rng);
    for (int dst = 1; dst < size; ++dst) {
      const std::vector<std::uint64_t> one = {budget[dst]};
      comm.send_vec<std::uint64_t>(dst, kBudgetTag, one);
    }
  } else {
    const std::vector<double> w = {local_weight};
    comm.send_vec<double>(0, kWeightTag, w);
    budget[rank] = comm.recv_vec<std::uint64_t>(0, kBudgetTag).at(0);
  }

  // Sample locally; keys are packed from the *full* index (local bits plus
  // this rank's global bits), reading each measured logical qubit at its
  // current physical position.
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (rank + 1)));
  const std::vector<sim::IndexCount> runs = sim::sample_amplitudes<T>(
      state.local_amps(), budget[rank], rng, state.pool());
  std::vector<unsigned> positions(measured.size());
  for (std::size_t j = 0; j < measured.size(); ++j) {
    positions[j] = state.physical_qubit(measured[j]);
  }
  sim::Counts local_counts;
  sim::add_counts(local_counts, runs, positions,
                  static_cast<std::uint64_t>(rank) << state.local_qubits());

  // Merge at root as (key, count) pairs.
  if (rank == 0) {
    sim::Counts merged = std::move(local_counts);
    for (int src = 1; src < size; ++src) {
      const auto pairs = comm.recv_vec<std::uint64_t>(src, kCountsTag);
      QGEAR_CHECK_FORMAT(pairs.size() % 2 == 0,
                         "dist: malformed counts payload");
      for (std::size_t i = 0; i < pairs.size(); i += 2) {
        merged[pairs[i]] += pairs[i + 1];
      }
    }
    return merged;
  }
  std::vector<std::uint64_t> pairs;
  pairs.reserve(local_counts.size() * 2);
  for (const auto& [key, count] : local_counts) {
    pairs.push_back(key);
    pairs.push_back(count);
  }
  comm.send_vec<std::uint64_t>(0, kCountsTag, pairs);
  return {};
}

template <typename T>
RunResult<T> run_distributed(const qiskit::QuantumCircuit& qc,
                             const RunOptions& opts) {
  QGEAR_CHECK_ARG(opts.num_ranks >= 1 && is_pow2(opts.num_ranks),
                  "dist: num_ranks must be a power of two");
  QGEAR_CHECK_ARG(opts.remap || opts.fusion_width == 0,
                  "dist: fusion_width > 0 needs remap (the per-gate "
                  "schedule runs unfused)");
  // Resolve the run's trace context: explicit id > ambient > fresh. The
  // driver span stays on the host lane (rank -1); each SPMD thread below
  // re-scopes the same trace_id with its own rank.
  obs::TraceContext run_ctx;
  if (opts.trace_id != 0) {
    run_ctx.trace_id = opts.trace_id;
  } else if (obs::TraceContext::current().valid()) {
    run_ctx = obs::TraceContext::current();
    run_ctx.rank = -1;
  } else {
    run_ctx = obs::TraceContext::generate();
  }
  obs::ContextScope run_scope(run_ctx);
  obs::Span run_span(obs::Tracer::global(), "dist.run", "dist");
  if (run_span.active()) {
    run_span.arg("ranks", std::uint64_t{unsigned(opts.num_ranks)});
    run_span.arg("qubits", std::uint64_t{qc.num_qubits()});
  }
  const unsigned num_local =
      qc.num_qubits() -
      log2_exact(static_cast<std::uint64_t>(opts.num_ranks));

  // Compiled once, outside the SPMD region: every rank walks this one
  // program, so their tag sequences stay identical.
  std::optional<sim::Program> program;
  if (opts.remap) {
    program.emplace(compile(qc, std::max(opts.fusion_width, 1u), num_local));
  }

  comm::World world(opts.num_ranks);
  world.set_topology({.ranks_per_domain = opts.ranks_per_domain});
  RunResult<T> result;
  result.rank_stats.resize(opts.num_ranks);
  result.rank_obs.resize(opts.num_ranks);
  std::mutex result_mutex;
  std::uint64_t circuit_bytes = 0;

  world.run([&](comm::Communicator& c) {
    obs::TraceContext rank_ctx = run_ctx;
    rank_ctx.rank = c.rank();
    obs::ContextScope rank_scope(rank_ctx);
    obs::Span rank_span(obs::Tracer::global(), "dist.rank", "dist");
    if (rank_span.active()) {
      rank_span.arg("rank", std::uint64_t{unsigned(c.rank())});
    }
    std::optional<ThreadPool> pool;
    if (opts.threads_per_rank > 0) pool.emplace(opts.threads_per_rank);
    DistStateVector<T> state(qc.num_qubits(), c);
    state.set_pool(pool ? &*pool : nullptr);
    state.set_exchange_chunk_elems(opts.exchange_chunk_bytes /
                                   sizeof(std::complex<T>));
    state.set_exchange_resilience(opts.exchange_resilience);
    std::vector<unsigned> measured;
    if (program) {
      state.apply_circuit_remapped(*program, &measured);
    } else {
      state.apply_circuit(qc, &measured);
    }
    // Snapshot the circuit's exchange bytes before sampling/gather add
    // their own traffic. Between the two barriers no rank can be sending,
    // so the trace is quiescent while rank 0 reads it.
    c.barrier();
    if (c.rank() == 0) circuit_bytes = world.trace().total_bytes;
    c.barrier();
    if (measured.empty() && opts.shots > 0) {
      // Implicit full measurement, matching the single-device engines.
      measured.resize(qc.num_qubits());
      std::iota(measured.begin(), measured.end(), 0u);
    }
    const double norm = state.norm();

    sim::Counts counts;
    if (opts.shots > 0) {
      counts = sample_distributed(state, c, measured, opts.shots, opts.seed);
    }
    std::vector<std::complex<T>> full;
    if (opts.gather_state) full = state.gather(0);

    std::lock_guard<std::mutex> lock(result_mutex);
    result.rank_stats[c.rank()] = state.stats();
    result.rank_obs[c.rank()].nvlink_bytes =
        state.exchange_tier_bytes(comm::Tier::nvlink);
    result.rank_obs[c.rank()].internode_bytes =
        state.exchange_tier_bytes(comm::Tier::internode);
    if (c.rank() == 0) {
      result.state = std::move(full);
      result.counts = std::move(counts);
      result.measured = std::move(measured);
      result.norm = norm;
    }
  });
  result.trace = world.trace();
  result.circuit_exchange_bytes = circuit_bytes;
  result.trace_id = run_ctx.trace_id;
  if (program) {
    result.remap_slab_swaps = program->slab_swaps;
    result.remap_elided_swaps = program->elided_swap_gates;
  }

  // Per-rank observability rollup: exchange bytes come from the exact comm
  // trace (sender-attributed); span accounting folds the ring buffer's
  // records for this run's trace_id. Sampling/gather traffic is included
  // in exchange_bytes — this summarizes the whole request.
  for (const comm::TraceEntry& e : result.trace.entries) {
    if (e.src >= 0 && e.src < opts.num_ranks) {
      result.rank_obs[e.src].exchange_bytes += e.bytes;
    }
  }
  if (obs::Tracer::global().enabled()) {
    for (const obs::SpanRecord& rec : obs::Tracer::global().snapshot()) {
      if (rec.trace_id != run_ctx.trace_id) continue;
      if (rec.rank < 0 || rec.rank >= opts.num_ranks) continue;
      ++result.rank_obs[rec.rank].spans;
      result.rank_obs[rec.rank].span_seconds += rec.dur_us * 1e-6;
    }
  }

  auto& reg = obs::Registry::global();
  reg.counter("dist.runs").add();
  reg.counter("dist.exchange_bytes").add(result.trace.total_bytes);
  reg.counter("dist.messages").add(result.trace.entries.size());
  if (program) {
    reg.counter("dist.remap_swaps").add(program->slab_swaps);
    const std::uint64_t baseline = schedule_exchange_bytes_total(
        qc, num_local, sizeof(std::complex<T>));
    if (baseline > circuit_bytes) {
      reg.counter("dist.exchange_bytes_saved").add(baseline - circuit_bytes);
    }
  }
  sim::EngineStats merged;
  for (const auto& s : result.rank_stats) merged += s;
  reg.counter("dist.sweeps").add(merged.sweeps);
  reg.counter("dist.amp_ops").add(merged.amp_ops);
  return result;
}

}  // namespace qgear::dist
