#include "qgear/perfmodel/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/dist/runner.hpp"

namespace qgear::perfmodel {
namespace {

qiskit::QuantumCircuit blocks(unsigned n, std::uint64_t count) {
  return circuits::generate_random_circuit(
      {.num_qubits = n, .num_blocks = count, .measure = false, .seed = 42});
}

TEST(PerfSpecs, PaperHardwareNumbers) {
  const DeviceSpec a100 = a100_40gb();
  EXPECT_DOUBLE_EQ(a100.mem_bandwidth_bps, 2039e9);
  EXPECT_EQ(a100.memory_bytes, 40ull << 30);
  EXPECT_EQ(a100_80gb().memory_bytes, 80ull << 30);
  const CpuNodeSpec cpu = perlmutter_cpu_node();
  EXPECT_EQ(cpu.cores, 128u);
  EXPECT_DOUBLE_EQ(cpu.node_bandwidth_bps, 409.6e9);
  const InterconnectSpec net = perlmutter_interconnect();
  EXPECT_DOUBLE_EQ(net.nvlink_bps, 100e9);  // 4 links x 25 GB/s
  EXPECT_EQ(net.gpus_per_node, 4u);
}

TEST(PerfModel, LinkClassByGlobalBit) {
  const InterconnectSpec net = perlmutter_interconnect();
  // gbits 0-1: within a 4-GPU node; 2-7: within a 64-node rack; 8+: cross.
  EXPECT_EQ(link_class_for(0, net), LinkClass::nvlink);
  EXPECT_EQ(link_class_for(1, net), LinkClass::nvlink);
  EXPECT_EQ(link_class_for(2, net), LinkClass::slingshot);
  EXPECT_EQ(link_class_for(7, net), LinkClass::slingshot);
  EXPECT_EQ(link_class_for(8, net), LinkClass::cross_rack);
  EXPECT_EQ(link_class_for(9, net), LinkClass::cross_rack);
}

TEST(PerfModel, ExponentialInQubits) {
  // Sweep time must roughly double per added qubit (Fig. 4a ~2^n scaling);
  // constant overheads (container, kernel launch) sit outside compute_s.
  ClusterConfig cfg;
  double prev = 0;
  for (unsigned n = 20; n <= 30; n += 2) {
    const double t = estimate_gpu(blocks(n, 100), cfg).compute_s;
    if (prev > 0) {
      EXPECT_GT(t / prev, 2.5);  // ~4x per 2 qubits
      EXPECT_LT(t / prev, 5.5);
    }
    prev = t;
  }
}

TEST(PerfModel, LinearInGateCount) {
  // "Long" (10k blocks) vs "short" (100 blocks): ~100x (Fig. 4a).
  ClusterConfig cfg;
  const double t_short = estimate_gpu(blocks(28, 100), cfg).compute_s;
  const double t_long = estimate_gpu(blocks(28, 10000), cfg).compute_s;
  EXPECT_NEAR(t_long / t_short, 100.0, 25.0);
}

TEST(PerfModel, CpuGpuSpeedupMatchesPaperScale) {
  // Fig. 4a headline: ~400x single-GPU speedup over the 128-core node
  // (Aer baseline runs fp64 by default).
  const auto qc = blocks(30, 1000);
  CpuBaselineConfig aer;
  aer.precision = core::Precision::fp64;
  const double cpu = estimate_cpu(qc, aer).total_s();
  ClusterConfig gpu_cfg;
  gpu_cfg.include_container_start = false;
  const double gpu = estimate_gpu(qc, gpu_cfg).total_s();
  EXPECT_GT(cpu / gpu, 250.0);
  EXPECT_LT(cpu / gpu, 700.0);
}

TEST(PerfModel, MemoryWallsMatchPaper) {
  ClusterConfig one;
  one.include_container_start = false;
  // Single 40 GB A100, fp32: 32 qubits fit, 33 do not.
  EXPECT_TRUE(estimate_gpu(blocks(32, 10), one).feasible);
  EXPECT_FALSE(estimate_gpu(blocks(33, 10), one).feasible);
  // Four GPUs extend to 34.
  ClusterConfig four = one;
  four.devices = 4;
  EXPECT_TRUE(estimate_gpu(blocks(34, 10), four).feasible);
  EXPECT_FALSE(estimate_gpu(blocks(35, 10), four).feasible);
  // CPU node (512 GB) dies at 34 qubits with Aer's fp64 default (state +
  // workspace), matching "all available CPU RAM is exhausted at 34".
  CpuBaselineConfig cpu64;
  cpu64.precision = core::Precision::fp64;
  EXPECT_TRUE(estimate_cpu(blocks(33, 10), cpu64).feasible);
  EXPECT_FALSE(estimate_cpu(blocks(34, 10), cpu64).feasible);
}

TEST(PerfModel, MoreGpusReduceComputeTime) {
  const auto qc = blocks(34, 500);
  double prev = std::numeric_limits<double>::infinity();
  for (int devices : {4, 16, 64}) {
    ClusterConfig cfg;
    cfg.gpu = a100_80gb();
    cfg.devices = devices;
    cfg.include_container_start = false;
    const Estimate e = estimate_gpu(qc, cfg);
    ASSERT_TRUE(e.feasible);
    EXPECT_LT(e.compute_s, prev);
    prev = e.compute_s;
  }
}

TEST(PerfModel, CrossRackExchangesAreSlower) {
  // Same per-device bytes, but a 1024-GPU cluster pays the rack penalty
  // on its top global bits — per-byte comm time must exceed a 16-GPU
  // cluster's.
  const auto qc = blocks(36, 300);
  ClusterConfig small;
  small.gpu = a100_80gb();
  small.devices = 16;
  small.include_container_start = false;
  ClusterConfig huge = small;
  huge.devices = 1024;
  const Estimate es = estimate_gpu(qc, small);
  const Estimate eh = estimate_gpu(qc, huge);
  ASSERT_TRUE(es.feasible);
  ASSERT_TRUE(eh.feasible);
  const double per_byte_small =
      es.comm_s / static_cast<double>(es.comm_bytes_per_device);
  const double per_byte_huge =
      eh.comm_s / static_cast<double>(eh.comm_bytes_per_device);
  EXPECT_GT(per_byte_huge, per_byte_small * 1.5);
}

TEST(PerfModel, Fig4bReversalBetween39And40Qubits) {
  // The paper's highlighted region: 1024 GPUs beat 256 at 39 qubits but
  // lose at 40 (cross-rack spine congestion is superlinear in state
  // size). This is the model's headline qualitative prediction.
  auto total = [](unsigned n, int devices) {
    ClusterConfig cfg;
    cfg.gpu = a100_80gb();
    cfg.devices = devices;
    cfg.precision = core::Precision::fp32;
    const auto qc = circuits::generate_random_circuit(
        {.num_qubits = n, .num_blocks = 3000, .measure = false, .seed = 4});
    const Estimate e = estimate_gpu(qc, cfg);
    EXPECT_TRUE(e.feasible) << n << " qubits on " << devices;
    return e.total_s();
  };
  EXPECT_LT(total(39, 1024), total(39, 256));
  EXPECT_GT(total(40, 1024), total(40, 256));
}

TEST(PerfModel, DiagonalGatesAreCommFree) {
  qiskit::QuantumCircuit qc(30, "diag");
  for (int q = 0; q < 30; ++q) qc.rz(0.1, q);
  for (int q = 0; q < 29; ++q) qc.cp(0.2, q, q + 1);
  ClusterConfig cfg;
  cfg.devices = 8;
  const Estimate e = estimate_gpu(qc, cfg);
  EXPECT_EQ(e.comm_bytes_per_device, 0u);
  EXPECT_EQ(e.comm_s, 0.0);
}

TEST(PerfModel, SamplingCostScalesWithShotsAndState) {
  const auto qft16 = circuits::build_qft(16);
  const auto qft20 = circuits::build_qft(20);
  ClusterConfig cfg;
  cfg.include_container_start = false;
  const double s1 = estimate_gpu(qft16, cfg, 1'000'000).sample_s;
  const double s2 = estimate_gpu(qft16, cfg, 10'000'000).sample_s;
  EXPECT_NEAR(s2 / s1, 10.0, 0.1);
  const double s3 = estimate_gpu(qft20, cfg, 1'000'000).sample_s;
  EXPECT_NEAR(s3 / s1, 16.0, 0.5);  // 2^20 / 2^16
  // CPU sampling parallelizes over 128 cores.
  const double c1 = estimate_cpu(qft16, {}, 1'000'000).sample_s;
  EXPECT_LT(c1, 1'000'000 * perlmutter_cpu_node().shot_s);
}

TEST(PerfModel, ContainerStartupGrowsWithAllocation) {
  const auto qc = blocks(34, 10);
  ClusterConfig small;
  small.gpu = a100_80gb();
  small.devices = 4;
  ClusterConfig huge = small;
  huge.devices = 1024;
  EXPECT_GT(estimate_gpu(qc, huge).startup_s,
            estimate_gpu(qc, small).startup_s);
}

TEST(PerfModel, PerCoreUnitaryModeIsSlower) {
  const auto qc = blocks(18, 1000);
  CpuBaselineConfig node_parallel;
  CpuBaselineConfig per_core;
  per_core.mode = CpuBaselineConfig::Mode::per_core_unitary;
  EXPECT_GT(estimate_cpu(qc, per_core).compute_s,
            estimate_cpu(qc, node_parallel).compute_s);
}

TEST(PerfModel, InvalidDeviceCountRejected) {
  EXPECT_THROW(estimate_gpu(blocks(20, 10), {.devices = 3}),
               InvalidArgument);
}

TEST(PerfModel, TooFewQubitsForClusterInfeasible) {
  ClusterConfig cfg;
  cfg.devices = 1024;
  const Estimate e = estimate_gpu(blocks(8, 10), cfg);
  EXPECT_FALSE(e.feasible);
}

TEST(PerfModel, Eq10MultiNodeComputeScaling) {
  // App. E.2, Eq. (10): t ~ 2^N / (P * R) — compute time divides by the
  // total process count as long as memory allows.
  const auto qc = blocks(34, 200);
  ClusterConfig base;
  base.gpu = a100_80gb();
  base.include_container_start = false;
  base.devices = 4;   // P*R = 4 (one node)
  ClusterConfig quad = base;
  quad.devices = 16;  // P*R = 16 (four nodes)
  const double t4 = estimate_gpu(qc, base).compute_s;
  const double t16 = estimate_gpu(qc, quad).compute_s;
  EXPECT_NEAR(t4 / t16, 4.0, 0.1);
  // And 2^N: one more qubit doubles per-device work at fixed devices.
  const double t4_35 = estimate_gpu(blocks(35, 200), base).compute_s;
  EXPECT_NEAR(t4_35 / t4, 2.0, 0.2);
}

TEST(PerfModel, EnergyTradeoffQuantified) {
  // Fig. 4b discussion: past the crossover, more GPUs cost much more
  // energy for little or negative time gain.
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = 40, .num_blocks = 3000, .measure = false, .seed = 4});
  ClusterConfig c256, c1024;
  c256.gpu = c1024.gpu = a100_80gb();
  c256.devices = 256;
  c1024.devices = 1024;
  const Estimate e256 = estimate_gpu(qc, c256);
  const Estimate e1024 = estimate_gpu(qc, c1024);
  ASSERT_TRUE(e256.feasible && e1024.feasible);
  EXPECT_GT(e1024.energy_joules, 3.0 * e256.energy_joules);
  EXPECT_GT(e256.energy_joules, 0.0);
}

TEST(PerfModel, RemapScheduleCutsCommCost) {
  // The remapped schedule must price at less communication than the
  // per-gate schedule on a comm-heavy circuit, and identically on a
  // single device (no exchanges either way).
  const auto qft = circuits::build_qft(30, {.do_swaps = true});
  ClusterConfig per_gate;
  per_gate.gpu = a100_80gb();
  per_gate.devices = 16;
  per_gate.include_container_start = false;
  ClusterConfig remapped = per_gate;
  remapped.remap = true;
  const Estimate base = estimate_gpu(qft, per_gate);
  const Estimate avoid = estimate_gpu(qft, remapped);
  ASSERT_TRUE(base.feasible);
  ASSERT_TRUE(avoid.feasible);
  EXPECT_GE(base.comm_bytes_per_device, 2 * avoid.comm_bytes_per_device);
  EXPECT_LT(avoid.comm_s, base.comm_s);
  EXPECT_GT(avoid.sweeps, 0u);

  ClusterConfig single;
  single.include_container_start = false;
  ClusterConfig single_remap = single;
  single_remap.remap = true;
  const auto qc = blocks(30, 50);
  EXPECT_DOUBLE_EQ(estimate_gpu(qc, single).comm_s,
                   estimate_gpu(qc, single_remap).comm_s);
}

TEST(PerfModel, RemapPricingMatchesEngine) {
  // estimate_gpu with remap prices the schedule run_distributed executes:
  // the busiest rank's sweeps and the run's exchange bytes per rank, also
  // when barriers and mid-circuit measures cut the local runs.
  struct Case {
    std::string name;
    qiskit::QuantumCircuit qc;
    int ranks;
    unsigned width;
  };
  const qiskit::QuantumCircuit random = blocks(16, 60);
  std::vector<Case> cases;
  for (const int ranks : {4, 8, 16}) {
    cases.push_back({"qft16", circuits::build_qft(16), ranks, 2});
    cases.push_back({"random16", random, ranks, 2});
  }
  qiskit::QuantumCircuit barriers(16);
  qiskit::QuantumCircuit measured(16);
  for (std::size_t i = 0; i < random.size(); ++i) {
    if (i > 0 && i % 8 == 0) barriers.barrier();
    if (i == 100) measured.measure(3);  // lands inside a local run
    barriers.append(random.instructions()[i]);
    measured.append(random.instructions()[i]);
  }
  cases.push_back({"random16+barriers", barriers, 4, 3});
  cases.push_back({"random16+measure", measured, 4, 3});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + " at " + std::to_string(c.ranks) + " ranks");
    ClusterConfig cfg;
    cfg.devices = c.ranks;
    cfg.fusion_width = c.width;
    cfg.remap = true;
    const Estimate e = estimate_gpu(c.qc, cfg);
    ASSERT_TRUE(e.feasible);

    dist::RunOptions opts;
    opts.num_ranks = c.ranks;
    opts.remap = true;
    opts.fusion_width = c.width;
    const dist::RunResult<float> run = dist::run_distributed<float>(c.qc, opts);
    std::uint64_t busiest = 0;
    for (const sim::EngineStats& s : run.rank_stats) {
      busiest = std::max(busiest, s.sweeps);
    }
    EXPECT_EQ(e.sweeps, busiest);
    EXPECT_EQ(e.comm_bytes_per_device,
              run.circuit_exchange_bytes / static_cast<unsigned>(c.ranks));
  }
}

TEST(PerfModel, LocalCalibrationProducesSaneBandwidth) {
  const double bw = measure_local_sweep_bandwidth(14, 20);
  EXPECT_GT(bw, 1e8);    // > 100 MB/s — anything slower means a bug
  EXPECT_LT(bw, 2e12);   // < 2 TB/s — faster than HBM is impossible here
}

}  // namespace
}  // namespace qgear::perfmodel
