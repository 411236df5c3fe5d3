#include "qgear/perfmodel/model.hpp"

#include <bit>
#include <cmath>

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

// Global-qubit level of the exchange a gate with nonzero exchange bytes
// triggers: the target of a cx, the higher operand of a swap (priced as
// its dominant target-global hop), the operand of anything else.
unsigned exchange_gbit(const qiskit::Instruction& inst, unsigned num_local) {
  int q = inst.q0;
  if (inst.kind == qiskit::GateKind::cx) q = inst.q1;
  if (inst.kind == qiskit::GateKind::swap) q = std::max(inst.q0, inst.q1);
  const int gbit = q - static_cast<int>(num_local);
  QGEAR_ENSURES(gbit >= 0);
  return static_cast<unsigned>(gbit);
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
    if (bytes != 0) price_exchange(bytes, exchange_gbit(inst, num_local));
  };

  if (config.remap && r > 0) {
    // Price the compiled schedule the engine runs (dist/remap). The
    // sweeps are the busiest rank's, the one whose global bits are all 1.
    const dist::RemapSchedule sched = dist::compile_schedule(
        dist::plan_remap(qc, num_local), config.fusion_width);
    for (const dist::ScheduleSegment& seg : sched.segments) {
      const dist::SwapBatch& batch = seg.batch;
      if (!batch.swaps.empty()) {
        // Gather + scatter touch the traded groups once each: one sweep
        // regardless of batch width. Each round trades one of the 2^k
        // slab groups at the slowest link its peer mask crosses, the
        // highest global bit.
        ++e.sweeps;
        for (const std::uint64_t mask : batch.peer_masks) {
          price_exchange(local_bytes >> batch.swaps.size(),
                         static_cast<unsigned>(std::bit_width(mask)) - 1);
        }
      }
      for (const dist::ScheduleStep& step : seg.steps) {
        if (!step.blocks.empty()) {
          e.sweeps += step.blocks.size();
        } else if (qiskit::gate_info(step.inst.kind).unitary) {
          ++e.sweeps;  // diagonal factor sweep or exchange update
          price_gate(step.inst);
        }
      }
    }
  } else {
    // Sweep count from the real fusion planner (cheap: walks the gate
    // list); communication from the exact per-gate schedule.
    e.sweeps =
        sim::plan_fusion(qc, {.max_width = config.fusion_width}).blocks.size();
    if (r > 0) {
      for (const qiskit::Instruction& inst : qc.instructions()) {
        price_gate(inst);
      }
    }
  }

  const double sweep_bytes =
      kSweepBytesPerStateByte * static_cast<double>(local_bytes);
  const double sustained =
      config.gpu.mem_bandwidth_bps * config.gpu.efficiency;
  e.compute_s = static_cast<double>(e.sweeps) * sweep_bytes / sustained;
  e.launch_s = static_cast<double>(e.sweeps) * config.gpu.kernel_launch_s;

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

  const double sweep_bytes =
      kSweepBytesPerStateByte * static_cast<double>(state_bytes);
  const double bandwidth =
      config.mode == CpuBaselineConfig::Mode::node_parallel
          ? config.node.node_bandwidth_bps * config.node.node_efficiency
          : config.node.core_bandwidth_bps;
  e.compute_s = static_cast<double>(gates) * sweep_bytes / bandwidth;
  e.launch_s = static_cast<double>(gates) * config.node.gate_dispatch_s;

  if (shots > 0) {
    // Sampling parallelizes across all cores in both CPU modes.
    e.sample_s = static_cast<double>(shots) * config.node.shot_s /
                 static_cast<double>(config.node.cores);
  }
  e.energy_joules = e.total_s() * config.node.power_watts;
  return e;
}

double measure_local_sweep_bandwidth(unsigned num_qubits, unsigned blocks) {
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = num_qubits, .num_blocks = blocks, .measure = false,
       .seed = 99});
  sim::FusedEngine<float> engine;
  sim::StateVector<float> state(num_qubits);
  WallTimer timer;
  engine.apply(qc, state);
  const double seconds = timer.seconds();
  const double bytes = static_cast<double>(engine.stats().sweeps) *
                       kSweepBytesPerStateByte *
                       static_cast<double>(pow2(num_qubits)) *
                       sizeof(std::complex<float>);
  return bytes / seconds;
}

double measure_local_sweep_bandwidth(unsigned num_qubits, unsigned blocks,
                                     sim::Isa isa) {
  const sim::Isa prev = sim::active_isa();
  sim::set_active_isa(isa);
  const double bandwidth = measure_local_sweep_bandwidth(num_qubits, blocks);
  sim::set_active_isa(prev);
  return bandwidth;
}

BackendMemoryEstimate estimate_backend_memory(
    const qiskit::QuantumCircuit& qc, const std::string& backend,
    std::uint64_t budget_bytes, const sim::BackendOptions& opts) {
  BackendMemoryEstimate e;
  e.backend = backend;
  e.mem_bytes = sim::Backend::memory_estimate_for(backend, qc, opts);
  if (budget_bytes > 0 && e.mem_bytes > budget_bytes) {
    e.feasible = false;
    e.infeasible_reason =
        strfmt("%s needs %s, budget is %s", backend.c_str(),
               human_bytes(e.mem_bytes).c_str(),
               human_bytes(budget_bytes).c_str());
  }
  return e;
}

}  // namespace qgear::perfmodel
