#include "qgear/perfmodel/model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>

#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/dist/dist_state.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/sim/fused.hpp"

namespace qgear::perfmodel {

LinkClass link_class_for(unsigned gbit, const InterconnectSpec& net) {
  const unsigned node_bits = log2_exact(net.gpus_per_node);
  if (gbit < node_bits) return LinkClass::nvlink;
  const unsigned rack_bits = node_bits + log2_exact(net.nodes_per_rack);
  if (gbit < rack_bits) return LinkClass::slingshot;
  return LinkClass::cross_rack;
}

namespace {

// Time for one pairwise exchange of `bytes` at global-qubit level `gbit`,
// with `pairs` rank pairs exchanging concurrently. sendrecv is full
// duplex, so the per-pair wire time is bytes / bandwidth; cross-rack
// exchanges additionally serialize on the shared spine.
double exchange_time(std::uint64_t bytes, unsigned gbit, int pairs,
                     const InterconnectSpec& net) {
  switch (link_class_for(gbit, net)) {
    case LinkClass::nvlink:
      return net.nvlink_latency_s +
             static_cast<double>(bytes) / net.nvlink_bps;
    case LinkClass::slingshot:
      return net.slingshot_latency_s +
             static_cast<double>(bytes) / net.slingshot_bps;
    case LinkClass::cross_rack: {
      const double pair_time =
          static_cast<double>(bytes) /
          (net.slingshot_bps * net.rack_bandwidth_factor);
      // All pairs push through the inter-rack spine simultaneously;
      // sustained saturation beyond the congestion window degrades the
      // effective bandwidth superlinearly (see specs.hpp).
      const double spine_raw =
          static_cast<double>(bytes) * static_cast<double>(pairs) /
          net.spine_bps;
      const double spine_time =
          spine_raw * (1.0 + spine_raw / net.spine_congestion_window_s);
      return net.slingshot_latency_s + net.rack_extra_latency_s +
             std::max(pair_time, spine_time);
    }
  }
  return 0.0;
}

double container_startup(const ClusterConfig& config) {
  if (!config.include_container_start) return 0.0;
  const ContainerSpec& c = config.container;
  const InterconnectSpec& net = config.net;
  const unsigned nodes =
      (static_cast<unsigned>(config.devices) + net.gpus_per_node - 1) /
      net.gpus_per_node;
  // A job blocks on its slowest node; the chance every node is warm decays
  // with the allocation size — the paper's "not warmed up" effect.
  const double all_warm = std::pow(c.warm_node_probability, nodes);
  return all_warm * c.warm_start_s + (1.0 - all_warm) * c.cold_start_s;
}

// Sweep bandwidth (bytes/s) the fused engine sustains running `qc` at T.
template <typename T>
double sweep_bandwidth(const qiskit::QuantumCircuit& qc) {
  sim::FusedEngine<T> engine;
  sim::StateVector<T> state(qc.num_qubits());
  WallTimer timer;
  engine.apply(qc, state);
  const double seconds = std::max(timer.seconds(), 1e-9);
  return static_cast<double>(engine.stats().sweeps) * kSweepBytesPerStateByte *
         std::ldexp(double(sizeof(std::complex<T>)), int(qc.num_qubits())) /
         seconds;
}

}  // namespace

Estimate estimate_gpu(const qiskit::QuantumCircuit& qc,
                      const ClusterConfig& config, std::uint64_t shots) {
  QGEAR_CHECK_ARG(config.devices >= 1 &&
                      is_pow2(static_cast<std::uint64_t>(config.devices)),
                  "perfmodel: device count must be a power of two");
  Estimate e;
  const unsigned n = qc.num_qubits();
  const unsigned r = log2_exact(static_cast<std::uint64_t>(config.devices));
  const std::size_t amp_b = core::amp_bytes(config.precision);

  if (n < r + 1) {
    e.feasible = false;
    e.infeasible_reason = "fewer qubits than log2(devices)+1";
    return e;
  }
  const unsigned num_local = n - r;
  const std::uint64_t local_bytes = pow2(num_local) * amp_b;
  if (local_bytes > config.gpu.memory_bytes) {
    e.feasible = false;
    e.infeasible_reason = strfmt(
        "%u-qubit %s state needs %s per GPU, %s has %s", n,
        core::precision_name(config.precision),
        human_bytes(local_bytes).c_str(), config.gpu.name.c_str(),
        human_bytes(config.gpu.memory_bytes).c_str());
    return e;
  }

  // All pairs exchange concurrently; wall time is one pair's time plus
  // any shared-spine serialization.
  const auto price_exchange = [&](std::uint64_t bytes, unsigned gbit) {
    e.comm_bytes_per_device += bytes;
    e.comm_s += exchange_time(bytes, gbit, config.devices / 2, config.net);
  };
  const auto price_gate = [&](const qiskit::Instruction& inst) {
    const std::uint64_t bytes =
        dist::exchange_bytes_for(inst, n, num_local, amp_b);
    if (bytes == 0) return;
    const unsigned q = dist::exchange_qubit(inst);
    QGEAR_ENSURES(q >= num_local);
    price_exchange(bytes, q - num_local);
  };

  if (config.remap && r > 0) {
    // Price the program the engine runs (dist::compile). The sweeps are
    // the busiest rank's, the one whose global bits are all 1.
    const sim::Program program =
        dist::compile(qc, config.fusion_width, num_local);
    for (const sim::Segment& seg : program.segments) {
      const sim::SwapBatch& batch = seg.batch;
      if (!batch.swaps.empty()) {
        // Gather + scatter touch the traded groups once each: one sweep
        // regardless of batch width. Each round trades one of the 2^k
        // slab groups at the slowest link its peer mask crosses, the
        // highest global bit.
        ++e.sweeps;
        const std::uint64_t round_bytes =
            dist::swap_batch_bytes(num_local, batch.swaps.size(), amp_b) /
            batch.peer_masks.size();
        for (const std::uint64_t mask : batch.peer_masks) {
          price_exchange(round_bytes,
                         static_cast<unsigned>(std::bit_width(mask)) - 1);
        }
      }
      for (const sim::Step& step : seg.steps) {
        if (!step.inst) {
          e.sweeps += step.blocks.size();
        } else if (qiskit::gate_info(step.inst->kind).unitary) {
          ++e.sweeps;  // diagonal factor sweep or exchange update
          price_gate(*step.inst);
        }
      }
    }
  } else {
    // Sweep count from the one-device program (cheap: walks the gate
    // list); communication from the exact per-gate schedule.
    e.sweeps = sim::compile(qc, config.fusion_width).blocks().size();
    if (r > 0) {
      for (const qiskit::Instruction& inst : qc.instructions()) {
        price_gate(inst);
      }
    }
  }

  const SweepCost sweeps = price_sweeps(
      {.sweeps = e.sweeps, .qubits = num_local, .amp_bytes = amp_b},
      {.bandwidth_bps = config.gpu.mem_bandwidth_bps * config.gpu.efficiency,
       .launch_s = config.gpu.kernel_launch_s});
  e.compute_s = sweeps.compute_s;
  e.launch_s = sweeps.launch_s;

  if (shots > 0) {
    // Device-side cumulative-search sampling: per-shot cost scales with
    // state size (see specs.hpp).
    const double per_shot = config.gpu.shot_unit_s *
                            static_cast<double>(pow2(num_local)) / 32768.0;
    e.sample_s = static_cast<double>(shots) * per_shot;
  }

  e.startup_s = container_startup(config);
  e.energy_joules =
      e.total_s() * config.gpu.power_watts * config.devices;
  return e;
}

Estimate estimate_cpu(const qiskit::QuantumCircuit& qc,
                      const CpuBaselineConfig& config, std::uint64_t shots) {
  Estimate e;
  const unsigned n = qc.num_qubits();
  const std::size_t amp_b = core::amp_bytes(config.precision);
  const std::uint64_t state_bytes = pow2(n) * amp_b;
  // Aer needs the state plus working buffers; the paper's 512 GB node dies
  // at 34 qubits.
  if (2 * state_bytes > config.node.memory_bytes) {
    e.feasible = false;
    e.infeasible_reason =
        strfmt("%u-qubit %s state (plus workspace) exceeds %s node RAM", n,
               core::precision_name(config.precision),
               human_bytes(config.node.memory_bytes).c_str());
    return e;
  }

  std::uint64_t gates = 0;
  for (const qiskit::Instruction& inst : qc.instructions()) {
    if (inst.kind != qiskit::GateKind::barrier &&
        inst.kind != qiskit::GateKind::measure) {
      ++gates;
    }
  }
  e.sweeps = gates;  // no fusion in the baseline

  const SweepCost sweeps = price_sweeps(
      {.sweeps = gates, .qubits = n, .amp_bytes = amp_b},
      {.bandwidth_bps =
           config.mode == CpuBaselineConfig::Mode::node_parallel
               ? config.node.node_bandwidth_bps * config.node.node_efficiency
               : config.node.core_bandwidth_bps,
       .launch_s = config.node.gate_dispatch_s});
  e.compute_s = sweeps.compute_s;
  e.launch_s = sweeps.launch_s;

  if (shots > 0) {
    // Sampling parallelizes across all cores in both CPU modes.
    e.sample_s = static_cast<double>(shots) * config.node.shot_s /
                 static_cast<double>(config.node.cores);
  }
  e.energy_joules = e.total_s() * config.node.power_watts;
  return e;
}

SweepCost price_sweeps(const SweepWork& work, const SweepRates& rates) {
  const double sweeps = static_cast<double>(work.sweeps);
  const double sweep_bytes =
      kSweepBytesPerStateByte *
      std::ldexp(static_cast<double>(work.amp_bytes), int(work.qubits));
  SweepCost c;
  c.compute_s = sweeps * sweep_bytes / rates.bandwidth_bps;
  c.launch_s = sweeps * rates.launch_s;
  if (rates.dense_flops_ps > 0.0) {
    // 2^width complex MACs (8 flops each) per amplitude of a dense block.
    const double flop_s =
        work.dense_fraction *
        std::ldexp(8.0, int(work.qubits + work.width)) / rates.dense_flops_ps;
    c.flop_bound = flop_s > sweep_bytes / rates.bandwidth_bps;
    c.compute_s = std::max(c.compute_s, sweeps * flop_s);
    c.build_s = std::ldexp(static_cast<double>(work.build_gates),
                           3 + 3 * int(work.width)) /
                rates.dense_flops_ps;
  }
  return c;
}

double measure_local_sweep_bandwidth(unsigned num_qubits, unsigned blocks,
                                     core::Precision precision) {
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = num_qubits, .num_blocks = blocks, .measure = false,
       .seed = 99});
  return precision == core::Precision::fp32 ? sweep_bandwidth<float>(qc)
                                            : sweep_bandwidth<double>(qc);
}

}  // namespace qgear::perfmodel
