// Pluggable simulation backend interface.
//
// One API over genuinely different simulation paradigms: dense
// statevector (reference, fused), decision diagram (dd), matrix product
// state (mps), and — when qgear_dist registers it — the distributed
// statevector (dist). dist runs its accumulated circuit once, at the
// first sample or expectation call after the last init_state or
// apply_circuit, and answers both from the state it gathers, so it
// serves them up to 28 qubits; its apply_circuit alone runs nothing.
// Callers pick an engine per workload instead of being welded to the 2^n
// statevector wall:
//
//   auto be = sim::Backend::create("dd");     // or Backend::default_name()
//   be->init_state(50);
//   be->apply_circuit(ghz50);
//   auto counts = be->sample({}, 1000, rng);
//
// The registry maps names to factories; `QGEAR_BACKEND` overrides the
// default name so whole test suites re-run against another engine
// without code changes. `memory_estimate` is the admission currency of
// qgear::serve — each backend prices a circuit in the bytes *it* would
// need, which is what lets a 50-qubit GHZ job through on a laptop when
// the statevector price would be 16 PiB.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/dd.hpp"
#include "qgear/sim/fusion.hpp"
#include "qgear/sim/mps.hpp"
#include "qgear/sim/observable.hpp"
#include "qgear/sim/sampler.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::sim {

/// Union of per-engine knobs; each backend reads only its own fields.
struct BackendOptions {
  ThreadPool* pool = nullptr;  ///< statevector sweep parallelism
  FusionOptions fusion;        ///< fused engine planning knobs
  DdEngine::Options dd;        ///< decision-diagram node budget
  MpsEngine::Options mps;      ///< truncation cutoff / bond cap
  unsigned dist_ranks = 0;     ///< dist backend: SPMD ranks (0 = auto)
  /// Statevector backends (reference, fused) run single precision when
  /// set: half the memory, roughly half the sweep traffic, ~1e-7
  /// per-gate rounding instead of ~1e-16. dd/mps ignore it (their
  /// numerics are double and their error is structural: node budget /
  /// SVD truncation). qgear::route owns the decision of when fp32 is
  /// acceptable (accuracy budget) — see docs/AUTOTUNER.md.
  bool fp32 = false;
};

/// Abstract simulation engine. Lifecycle: init_state -> apply_circuit
/// (repeatable; circuits compose) -> sample / expectation. A second
/// init_state discards the state and starts over. The statevector
/// backends (reference, fused) keep their buffer when n is unchanged and
/// re-zero it on their sweep pool; a new n frees the old buffer before
/// allocating the new one.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  virtual void init_state(unsigned num_qubits) = 0;
  virtual unsigned num_qubits() const = 0;

  /// Applies all instructions in order. Measure targets append to
  /// `measured` (no collapse — identical to the engines' semantics).
  virtual void apply_circuit(const qiskit::QuantumCircuit& qc,
                             std::vector<unsigned>* measured = nullptr) = 0;

  /// Samples `shots` outcomes of `measured_qubits` (strictly ascending;
  /// empty = all qubits). Key convention matches sample_counts: bit j of
  /// the key is the value of measured_qubits[j].
  virtual Counts sample(const std::vector<unsigned>& measured_qubits,
                        std::uint64_t shots, Rng& rng) = 0;

  virtual double expectation(const PauliTerm& term) = 0;
  /// Default: sum of per-term expectations.
  virtual double expectation(const Observable& obs);

  /// Resident bytes this backend would need to run `qc`, under this
  /// instance's options. THE admission-control currency for serve:
  /// statevector backends price 2^n amplitudes, dd prices its node
  /// budget, mps prices structure-bounded bond dimensions.
  virtual std::uint64_t memory_estimate(
      const qiskit::QuantumCircuit& qc) const = 0;

  virtual const EngineStats& stats() const = 0;
  virtual void reset_stats() = 0;

  // ---- registry ------------------------------------------------------

  using Factory =
      std::function<std::unique_ptr<Backend>(const BackendOptions&)>;

  /// Registers (or replaces) a named factory. The four in-process
  /// engines (reference, fused, dd, mps) are pre-registered; libraries
  /// layered above qgear_sim (e.g. qgear_dist) add theirs explicitly.
  static void register_backend(const std::string& name, Factory factory);

  /// Instantiates a registered backend. Throws InvalidArgument for
  /// unknown names (message lists what is available).
  static std::unique_ptr<Backend> create(const std::string& name,
                                         const BackendOptions& opts = {});

  /// Registered names, sorted.
  static std::vector<std::string> available();
  static bool is_registered(const std::string& name);

  /// The `QGEAR_BACKEND` environment override, or "fused" when unset —
  /// how test suites re-run engine-agnostic suites per backend. An
  /// unregistered override warns once and falls back to "fused" so a
  /// typo degrades the run instead of aborting every create() call.
  static std::string default_name();

  /// Convenience: create(name, opts)->memory_estimate(qc).
  static std::uint64_t memory_estimate_for(const std::string& name,
                                           const qiskit::QuantumCircuit& qc,
                                           const BackendOptions& opts = {});
};

}  // namespace qgear::sim
