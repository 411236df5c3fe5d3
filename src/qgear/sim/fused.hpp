// Fused state-vector engine — the "Cuda-Q on GPU" analogue.
//
// Runs a one-device sim::Program (sim::compile): one blocked amplitude
// sweep per fused unitary, with diagonal blocks taking a multiply-only
// fast path and sweeps parallelized over a thread pool (the SM/warp
// stand-in). Combined with the memory-bandwidth term in perfmodel/,
// this reproduces the mechanism behind the paper's GPU speedups.
#pragma once

#include <functional>
#include <span>

#include "qgear/common/bits.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/fusion.hpp"
#include "qgear/sim/kernels.hpp"
#include "qgear/sim/program.hpp"
#include "qgear/sim/state.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::sim {

/// Applies one fused block via its cheapest kernel: diagonal blocks use
/// the multiply-only sweep, permutation blocks (X/CX/SWAP runs) the
/// O(2^m)-per-group shuffle, everything else the dense matvec.
template <typename T>
void apply_fused_block(std::complex<T>* amps, unsigned num_qubits,
                       const FusedBlock& block, ThreadPool* pool = nullptr) {
  switch (block.kernel_class) {
    case KernelClass::diagonal:
      apply_multi_diag(amps, num_qubits, block.qubits, block.diag, pool);
      return;
    case KernelClass::permutation:
      apply_multi_permutation(amps, num_qubits, block.qubits, block.perm,
                              block.phases, pool);
      return;
    case KernelClass::dense:
      break;
  }
  apply_multi(amps, num_qubits, block.qubits, block.matrix, pool);
}

/// The one loop that runs fused blocks, shared by the fused engine,
/// dist's local runs and serve: applies `blocks` in order to the
/// 2^num_qubits amplitudes at `amps`, books each into `stats` (one
/// sweep, its kernel class, the gates fused into it) and traces it as a
/// `fused_block` span. Before each block, `before(i)` (when set; i
/// indexes `blocks`) may stop the run by returning false: serve hangs its
/// cancel and timeout checks, segment checkpoints and `backend.oom` fault
/// draw there. Returns whether every block ran.
template <typename T>
bool run_fused_blocks(std::complex<T>* amps, unsigned num_qubits,
                      std::span<const FusedBlock> blocks, ThreadPool* pool,
                      EngineStats& stats,
                      const std::function<bool(std::size_t)>& before = {}) {
  obs::Tracer& tracer = obs::Tracer::global();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (before && !before(i)) return false;
    const FusedBlock& block = blocks[i];
    obs::Span block_span(tracer, "fused_block", "sim");
    if (block_span.active()) {
      block_span.arg("width", std::uint64_t{block.qubits.size()});
      block_span.arg("gates", block.source_gates);
      block_span.arg("kernel", kernel_class_name(block.kernel_class));
    }
    apply_fused_block(amps, num_qubits, block, pool);
    switch (block.kernel_class) {
      case KernelClass::diagonal:
        ++stats.diag_blocks;
        break;
      case KernelClass::permutation:
        ++stats.perm_blocks;
        break;
      case KernelClass::dense:
        ++stats.dense_blocks;
        break;
    }
    ++stats.sweeps;
    ++stats.fused_blocks;
    stats.amp_ops += pow2(num_qubits);
    stats.gates += block.source_gates;
  }
  return true;
}

template <typename T>
class FusedEngine {
 public:
  struct Options {
    FusionOptions fusion;       ///< fusion width / thresholds
    ThreadPool* pool = nullptr; ///< sweep parallelism
  };

  explicit FusedEngine(Options opts = {}) : opts_(opts) {}

  /// Compiles `qc` (sim::compile at the engine's fusion width) and runs
  /// it on `state`. Measured qubits are appended to `measured` (if
  /// provided).
  void apply(const qiskit::QuantumCircuit& qc, StateVector<T>& state,
             std::vector<unsigned>* measured = nullptr) {
    apply(compile(qc, opts_.fusion.max_width), state, measured);
  }

  /// Runs a one-device program's blocks on `state` (lets callers compile
  /// once and run many times).
  void apply(const Program& program, StateVector<T>& state,
             std::vector<unsigned>* measured = nullptr) {
    QGEAR_CHECK_ARG(program.num_qubits == state.num_qubits(),
                    "engine: circuit and state qubit counts differ");
    const std::span<const FusedBlock> blocks = program.blocks();
    obs::Span sweep_span(obs::Tracer::global(), "sweep", "sim");
    // Hardware counters (when obs::PerfCounters::set_enabled) cover the
    // whole sweep loop; the sample folds into stats_.perf on scope exit.
    obs::PerfScope perf_scope(&stats_.perf);
    const EngineStats before = stats_;
    WallTimer timer;
    run_fused_blocks<T>(state.data(), state.num_qubits(), blocks, opts_.pool,
                        stats_);
    stats_.seconds += timer.seconds();

    auto& reg = obs::Registry::global();
    reg.counter("sim.gates").add(stats_.gates - before.gates);
    reg.counter("sim.sweeps").add(stats_.sweeps - before.sweeps);
    reg.counter("sim.fused_blocks").add(stats_.fused_blocks -
                                        before.fused_blocks);
    reg.counter("sim.diag_blocks").add(stats_.diag_blocks -
                                       before.diag_blocks);
    reg.counter("sim.perm_blocks").add(stats_.perm_blocks -
                                       before.perm_blocks);
    reg.counter("sim.dense_blocks").add(stats_.dense_blocks -
                                        before.dense_blocks);
    reg.counter("sim.amp_ops").add(stats_.amp_ops - before.amp_ops);
    if (sweep_span.active()) {
      sweep_span.arg("blocks", std::uint64_t{blocks.size()});
      sweep_span.arg("qubits", std::uint64_t{state.num_qubits()});
    }
    if (measured != nullptr) {
      measured->insert(measured->end(), program.measured.begin(),
                       program.measured.end());
    }
  }

  /// Runs `qc` from |0...0> and returns the final state.
  StateVector<T> run(const qiskit::QuantumCircuit& qc,
                     std::vector<unsigned>* measured = nullptr) {
    StateVector<T> state(qc.num_qubits(), opts_.pool);
    apply(qc, state, measured);
    return state;
  }

  const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  ThreadPool* pool() const { return opts_.pool; }

 private:
  Options opts_;
  EngineStats stats_;
};

}  // namespace qgear::sim
