// The user-facing Q-Gear execution front-end.
//
// Mirrors the paper's CUDA-Q target selection:
//   cpu_aer     — Qiskit-Aer-style CPU baseline (per-gate sweeps, no fusion)
//   nvidia      — single-device fused engine
//   nvidia_mgpu — one circuit distributed across `devices` ranks
//   nvidia_mqpu — circuit-level parallelism: a batch spread across devices
//
// Memory budgeting reproduces the paper's feasibility walls (40 GB A100 →
// 32-qubit fp32 ceiling; 4 GPUs → 34): a run whose state exceeds the
// per-device budget throws OutOfMemoryBudget.
//
// The single-device targets sweep on the calling thread; mgpu runs one
// thread per rank and mqpu one per device.
#pragma once

#include <complex>

#include "qgear/core/kernel.hpp"
#include "qgear/sim/observable.hpp"
#include "qgear/sim/sampler.hpp"
#include "qgear/sim/stats.hpp"

namespace qgear::core {

enum class Target { cpu_aer, nvidia, nvidia_mgpu, nvidia_mqpu };
enum class Precision { fp32, fp64 };

const char* target_name(Target t);
const char* precision_name(Precision p);
std::size_t amp_bytes(Precision p);

struct TransformerOptions {
  Target target = Target::nvidia;
  Precision precision = Precision::fp32;
  /// Device count for the mgpu/mqpu targets (power of two for mgpu).
  int devices = 1;
  /// Fusion width for the GPU-style engines (the paper uses 5).
  unsigned fusion_width = 5;
  /// Per-device amplitude-memory budget; 0 disables the check. The paper's
  /// single A100 exposes 40 GB.
  std::uint64_t device_memory_bytes = 0;
  std::uint64_t seed = 20240915;
};

struct RunOptions {
  std::uint64_t shots = 0;     ///< 0 = no sampling
  bool return_state = false;   ///< collect the full state vector
};

struct Result {
  /// Final state (fp64 view regardless of engine precision); only filled
  /// when RunOptions::return_state was set.
  std::vector<std::complex<double>> state;
  sim::Counts counts;
  std::vector<unsigned> measured;
  sim::EngineStats stats;
  /// Total bytes moved between devices (mgpu target only).
  std::uint64_t comm_bytes = 0;
  double wall_seconds = 0.0;
};

class Transformer {
 public:
  explicit Transformer(TransformerOptions opts = {});
  ~Transformer();

  Transformer(const Transformer&) = delete;
  Transformer& operator=(const Transformer&) = delete;

  const TransformerOptions& options() const { return opts_; }

  /// Executes one kernel on the configured target.
  Result run(const Kernel& kernel, const RunOptions& run_opts = {});

  /// Convenience: transpile + run a high-level circuit.
  Result run(const qiskit::QuantumCircuit& qc,
             const RunOptions& run_opts = {});

  /// Executes a batch. On nvidia_mqpu the kernels are spread across
  /// `devices` concurrent workers (the paper's parallel mode); other
  /// targets run them sequentially.
  std::vector<Result> run_batch(std::span<const Kernel> kernels,
                                const RunOptions& run_opts = {});

  /// Exact expectation <psi|H|psi> of an observable on the kernel's
  /// final state — the variational-workload primitive (Sec. 1). Runs on
  /// the configured target; shots > 0 switches to shot-based estimation
  /// with per-term basis rotations.
  double expectation(const Kernel& kernel, const sim::Observable& obs,
                     std::uint64_t shots = 0);

  /// State bytes one device must hold for an n-qubit run under `opts`
  /// (the mgpu target divides the state across devices).
  static std::uint64_t required_bytes_per_device(
      unsigned num_qubits, const TransformerOptions& opts);

 private:
  void check_memory(unsigned num_qubits) const;

  template <typename T>
  Result run_typed(const Kernel& kernel, const RunOptions& run_opts);

  TransformerOptions opts_;
};

}  // namespace qgear::core
