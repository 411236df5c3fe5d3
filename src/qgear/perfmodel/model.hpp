// Analytic performance model, for paper-scale runs and for this host.
//
// The engines in sim/ and dist/ are exact but bounded by this machine's
// memory; the paper evaluates 28-42 qubits on A100 clusters. This model
// prices the *same* execution schedule the real engines use — fused-sweep
// counts come from the real fusion planner, communication volume from the
// distributed engine's own exchange_bytes_for and swap_batch_bytes — on
// the paper's hardware specs. Benches print measured small-scale times
// next to modeled paper-scale times; EXPERIMENTS.md records both.
//
// price_sweeps is the one statevector roofline: it prices the paper's
// A100 and CPU node here, and this host for the router (route/cost).
#pragma once

#include <cstdint>
#include <string>

#include "qgear/core/transformer.hpp"
#include "qgear/perfmodel/specs.hpp"
#include "qgear/qiskit/circuit.hpp"

namespace qgear::perfmodel {

/// GPU cluster configuration for an estimate.
struct ClusterConfig {
  DeviceSpec gpu = a100_40gb();
  InterconnectSpec net = perlmutter_interconnect();
  ContainerSpec container = podman_hpc();
  int devices = 1;                      ///< power of two
  core::Precision precision = core::Precision::fp32;
  unsigned fusion_width = 5;
  bool include_container_start = true;
  /// Price the communication-avoiding remapped schedule: the program
  /// dist::compile builds and the distributed engine runs.
  bool remap = false;
};

/// CPU-node baseline configuration.
struct CpuBaselineConfig {
  CpuNodeSpec node = perlmutter_cpu_node();
  core::Precision precision = core::Precision::fp32;
  /// node_parallel: Aer sweeps each gate across all cores (Fig. 4a
  /// baseline). per_core_unitary: each core redundantly evolves the state
  /// and only sampling parallelizes (the paper's Fig. 5 CPU mode).
  enum class Mode { node_parallel, per_core_unitary };
  Mode mode = Mode::node_parallel;
};

/// Cost breakdown of one estimated run.
struct Estimate {
  bool feasible = true;
  std::string infeasible_reason;
  double compute_s = 0.0;   ///< amplitude sweeps
  double launch_s = 0.0;    ///< kernel launch / gate dispatch overhead
  double comm_s = 0.0;      ///< inter-device exchanges
  double sample_s = 0.0;    ///< shot sampling
  double startup_s = 0.0;   ///< container start (and cold-node straggler)
  std::uint64_t sweeps = 0;
  std::uint64_t comm_bytes_per_device = 0;
  /// Total electrical energy of the run (all devices/nodes busy for
  /// total_s) — the paper's Fig. 4b "energy trade-off" observation: a
  /// 1024-GPU run that is barely faster than 256 GPUs costs ~4x the
  /// energy.
  double energy_joules = 0.0;

  double total_s() const {
    return compute_s + launch_s + comm_s + sample_s + startup_s;
  }
};

/// Prices `qc` on a GPU cluster. Walks the real instruction list: the
/// sim::compile program for sweep counts, per-gate schedule for
/// communication — or, with `remap`, the dist::compile program for both.
Estimate estimate_gpu(const qiskit::QuantumCircuit& qc,
                      const ClusterConfig& config, std::uint64_t shots = 0);

/// Prices `qc` on the CPU-node baseline.
Estimate estimate_cpu(const qiskit::QuantumCircuit& qc,
                      const CpuBaselineConfig& config,
                      std::uint64_t shots = 0);

/// Link class between exchange partners `gbit` global-qubit levels apart.
enum class LinkClass { nvlink, slingshot, cross_rack };
LinkClass link_class_for(unsigned gbit, const InterconnectSpec& net);

/// Memory traffic of one fused sweep, in units of the local state size:
/// every amplitude is read once and written once. The SIMD kernels change
/// arithmetic throughput, not traffic, so this constant is ISA-independent
/// and the bandwidth-bound model stays calibrated across dispatch targets.
inline constexpr double kSweepBytesPerStateByte = 2.0;

/// Rates a sweep schedule is priced at: the paper's A100 or CPU node
/// (estimate_gpu, estimate_cpu), or this host's route::Calibration layer
/// 1 times the ISA factor (route's statevector candidates).
struct SweepRates {
  double bandwidth_bps = 0.0;   ///< sustained sweep bandwidth
  double launch_s = 0.0;        ///< per-sweep launch / dispatch cost
  double dense_flops_ps = 0.0;  ///< 0: no arithmetic or build term
};

/// A fused-sweep schedule over one (local) state.
struct SweepWork {
  std::uint64_t sweeps = 0;
  unsigned qubits = 0;            ///< qubits of the state each sweep reads
  std::size_t amp_bytes = 0;      ///< sizeof(std::complex<T>)
  unsigned width = 1;             ///< dense block width
  double dense_fraction = 1.0;    ///< share of sweeps that are dense
  std::uint64_t build_gates = 0;  ///< gates composed into fused blocks
};

struct SweepCost {
  double compute_s = 0.0;
  double launch_s = 0.0;
  double build_s = 0.0;
  bool flop_bound = false;  ///< a sweep's arithmetic outlasts its traffic

  double total_s() const { return compute_s + launch_s + build_s; }
};

/// The statevector roofline. Each sweep moves kSweepBytesPerStateByte
/// state bytes, or spends 2^width complex MACs per amplitude on its dense
/// share if that takes longer, and pays one launch. The build term
/// charges 8 * (2^width)^3 flops per merged gate at the dense rate:
/// negligible at width <= 3, dominant for wide blocks on small states. It
/// is a width-scaling charge, not a model of sim::plan_fusion, which
/// composes each gate in place in one sweep of the block's matrix.
SweepCost price_sweeps(const SweepWork& work, const SweepRates& rates);

/// Measures this host's sustained sweep bandwidth (bytes/s) at `precision`
/// by timing the fused engine, at the active ISA, on a `blocks`-block
/// random circuit (seed 99). `qgear_cli calibrate` records it per
/// precision as the router's layer-1 bandwidth.
double measure_local_sweep_bandwidth(
    unsigned num_qubits = 18, unsigned blocks = 40,
    core::Precision precision = core::Precision::fp32);

}  // namespace qgear::perfmodel
