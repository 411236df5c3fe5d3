// Reference state-vector engine — the "Qiskit Aer on CPU" baseline.
//
// Applies one kernel sweep per gate with no fusion, exactly like the
// paper's CPU baseline. It doubles as the correctness oracle for the fused
// and distributed engines: its per-gate updates are direct transcriptions
// of the gate definitions.
#pragma once

#include "qgear/common/timer.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/qiskit/gates.hpp"
#include "qgear/sim/apply.hpp"
#include "qgear/sim/state.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::sim {

template <typename T>
class ReferenceEngine {
 public:
  struct Options {
    ThreadPool* pool = nullptr;  ///< optional shared-memory parallelism
  };

  explicit ReferenceEngine(Options opts = {}) : opts_(opts) {}

  /// Applies all instructions of `qc` to `state` in order. Measured qubit
  /// indices are appended to `measured` (if provided).
  void apply(const qiskit::QuantumCircuit& qc, StateVector<T>& state,
             std::vector<unsigned>* measured = nullptr) {
    QGEAR_CHECK_ARG(qc.num_qubits() == state.num_qubits(),
                    "engine: circuit and state qubit counts differ");
    obs::Tracer& tracer = obs::Tracer::global();
    obs::Span apply_span(tracer, "reference.apply", "sim");
    const EngineStats before = stats_;
    WallTimer timer;
    for (const qiskit::Instruction& inst : qc.instructions()) {
      obs::Span gate_span(tracer, "gate", "sim");
      if (gate_span.active()) {
        gate_span.arg("kind", qiskit::gate_info(inst.kind).name);
      }
      const unsigned sweeps = apply_instruction(
          state.data(), state.num_qubits(), inst, opts_.pool, measured);
      stats_.sweeps += sweeps;
      stats_.amp_ops += sweeps * state.size();
      ++stats_.gates;
    }
    stats_.seconds += timer.seconds();

    auto& reg = obs::Registry::global();
    reg.counter("sim.gates").add(stats_.gates - before.gates);
    reg.counter("sim.sweeps").add(stats_.sweeps - before.sweeps);
    reg.counter("sim.amp_ops").add(stats_.amp_ops - before.amp_ops);
    if (apply_span.active()) {
      apply_span.arg("gates", stats_.gates - before.gates);
      apply_span.arg("qubits", std::uint64_t{qc.num_qubits()});
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
