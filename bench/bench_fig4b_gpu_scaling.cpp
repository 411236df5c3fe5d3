// Fig. 4b — scaling 3,000-block random circuits of 30-42 qubits over
// A100 clusters of 4-1024 GPUs (modeled; 80 GB parts as in the paper's
// "gpu&hbm80g" runs).
//
// The figure's key features to reproduce:
//   * each curve grows ~2^n with qubit count;
//   * larger clusters unlock larger circuits (memory) and shorten runs;
//   * the highlighted 39->40-qubit region where the 1024-GPU cluster
//     LOSES to 256 GPUs — in our model (as the paper conjectures) the
//     extra global qubits of the 1024-GPU layout cross rack boundaries,
//     paying reduced Slingshot bandwidth, and large allocations are more
//     likely to include cold (unwarmed) nodes.
// A measured local section validates the distributed engine's scaling
// shape on this host at small n.

#include <thread>

#include "bench/bench_util.hpp"
#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/core/transformer.hpp"
#include "qgear/dist/runner.hpp"
#include "qgear/obs/context.hpp"
#include "qgear/perfmodel/model.hpp"

using namespace qgear;

namespace {

qiskit::QuantumCircuit blocks(unsigned n, std::uint64_t count,
                              std::uint64_t seed = 4) {
  return circuits::generate_random_circuit(
      {.num_qubits = n, .num_blocks = count, .measure = false,
       .seed = seed});
}

/// One measured distributed run for the qgear.dist.report/v1 JSON.
struct DistRun {
  std::string circuit;
  int ranks = 0;
  bool remap = false;
  double wall_seconds = 0.0;
  std::uint64_t exchange_bytes = 0;
  std::uint64_t slab_swaps = 0;
  std::uint64_t exchange_bytes_saved = 0;
  std::uint64_t nvlink_bytes = 0;     ///< slab-exchange payload, NVLink tier
  std::uint64_t internode_bytes = 0;  ///< slab-exchange payload, inter-node
  std::uint64_t trace_id = 0;  ///< correlates the run with its trace spans
  std::vector<dist::RankObsSummary> per_rank;
};

std::vector<DistRun>& dist_runs() {
  static std::vector<DistRun> runs;
  return runs;
}

/// Measured ablation of the communication-avoiding schedule: the same
/// circuits under the per-gate baseline (the oracle) vs remap + fused
/// local segments + chunked exchanges + pooled sweeps.
void report_remap_ablation() {
  bench::heading(
      "remap ablation (measured): per-gate baseline vs "
      "remap+fusion+chunk+threads, fp32");
  bench::Table table({"circuit", "ranks", "schedule", "wall",
                      "exchange bytes", "nvlink", "internode", "slab swaps",
                      "bytes saved"});
  // Width 2 keeps the remapped schedule's fused local sweeps
  // bandwidth-bound; at wider fusion its long local runs pack dense
  // width-5 blocks whose extra FLOPs mask the communication win on a CPU
  // host.
  const std::vector<std::pair<std::string, qiskit::QuantumCircuit>> cases = {
      {"qft20", circuits::build_qft(20, {.do_swaps = true})},
      {"random20", blocks(20, 300)},
  };
  for (const auto& [name, qc] : cases) {
    for (int ranks : {4, 8, 16}) {
      const std::uint64_t baseline_total =
          dist::schedule_exchange_bytes_total(
              qc, qc.num_qubits() - log2_exact(std::uint64_t(ranks)),
              sizeof(std::complex<float>));
      for (const bool remap : {false, true}) {
        dist::RunOptions opts{.num_ranks = ranks};
        if (remap) {
          opts.remap = true;
          opts.fusion_width = 2;
          // Pooled sweeps only pay off when the host has spare cores
          // beyond one per rank; on smaller hosts the pool's per-sweep
          // synchronization is pure overhead against in-process ranks.
          const unsigned cores = std::thread::hardware_concurrency();
          opts.threads_per_rank =
              cores >= 2u * static_cast<unsigned>(ranks) ? 2 : 0;
          // exchange_chunk_bytes stays 0: chunk size auto-derives from
          // message size and link tier (comm::auto_chunk_bytes).
        }
        const std::string schedule = remap ? "remap" : "baseline";
        const std::string stage =
            "remap_ablation/" + name + "/r" + std::to_string(ranks) + "/" +
            schedule;
        double wall = 0.0;
        dist::RunResult<float> res;
        {
          bench::StageTimer timer(stage);
          res = dist::run_distributed<float>(qc, opts);
          wall = timer.seconds();
        }
        const std::uint64_t bytes = res.circuit_exchange_bytes;
        const std::uint64_t saved =
            baseline_total > bytes ? baseline_total - bytes : 0;
        std::uint64_t nvlink = 0;
        std::uint64_t internode = 0;
        for (const dist::RankObsSummary& r : res.rank_obs) {
          nvlink += r.nvlink_bytes;
          internode += r.internode_bytes;
        }
        table.row({name, std::to_string(ranks), schedule,
                   human_seconds(wall), human_bytes(bytes),
                   human_bytes(nvlink), human_bytes(internode),
                   std::to_string(res.remap_slab_swaps),
                   human_bytes(saved)});
        dist_runs().push_back({name, ranks, remap, wall, bytes,
                               res.remap_slab_swaps, saved, nvlink,
                               internode, res.trace_id, res.rank_obs});
      }
    }
  }
  table.print();
  std::printf(
      "expected shape: the remapped schedule exchanges >= 2x fewer bytes "
      "on both circuits. In-process exchanges are memcpys, so wall clock "
      "tracks local sweep cost more than bytes: the unfused per-gate "
      "kernels can win on a multi-core host.\n");
}

/// Modeled paper-scale pricing of the remapped schedule.
void report_modeled_remap() {
  bench::subheading("modeled: remapped schedule at paper scale (fp32)");
  bench::Table table({"circuit", "GPUs", "schedule", "total", "comm",
                      "comm bytes/dev"});
  const std::vector<std::pair<std::string, qiskit::QuantumCircuit>> cases = {
      {"qft36", circuits::build_qft(36, {.do_swaps = true})},
      {"random36", blocks(36, 3000)},
  };
  for (const auto& [name, qc] : cases) {
    for (int devices : {64, 256}) {
      for (const bool remap : {false, true}) {
        perfmodel::ClusterConfig cfg;
        cfg.gpu = perfmodel::a100_80gb();
        cfg.devices = devices;
        cfg.precision = core::Precision::fp32;
        cfg.include_container_start = false;
        cfg.remap = remap;
        const auto e = perfmodel::estimate_gpu(qc, cfg);
        table.row({name, std::to_string(devices),
                   remap ? "remap" : "per-gate",
                   bench::time_cell(e.feasible, e.total_s()),
                   bench::time_cell(e.feasible, e.comm_s),
                   human_bytes(e.comm_bytes_per_device)});
      }
    }
  }
  table.print();
}

/// Writes the qgear.dist.report/v1 JSON when QGEAR_DIST_REPORT names a
/// file (validated in CI against docs/dist_report.schema.json).
void write_dist_report() {
  const char* path = std::getenv("QGEAR_DIST_REPORT");
  if (path == nullptr || *path == '\0') return;
  obs::JsonValue root{obs::JsonValue::Object{}};
  root.set("schema", "qgear.dist.report/v1");
  root.set("bench", "bench_fig4b_gpu_scaling");
  obs::JsonValue runs{obs::JsonValue::Array{}};
  for (const DistRun& run : dist_runs()) {
    obs::JsonValue entry{obs::JsonValue::Object{}};
    entry.set("circuit", run.circuit);
    entry.set("ranks", static_cast<double>(run.ranks));
    entry.set("remap", run.remap);
    entry.set("wall_seconds", run.wall_seconds);
    entry.set("exchange_bytes", static_cast<double>(run.exchange_bytes));
    entry.set("slab_swaps", static_cast<double>(run.slab_swaps));
    entry.set("exchange_bytes_saved",
              static_cast<double>(run.exchange_bytes_saved));
    obs::JsonValue tier_bytes{obs::JsonValue::Object{}};
    tier_bytes.set("nvlink", static_cast<double>(run.nvlink_bytes));
    tier_bytes.set("internode", static_cast<double>(run.internode_bytes));
    entry.set("tier_bytes", std::move(tier_bytes));
    entry.set("trace_id", obs::trace_id_hex(run.trace_id));
    obs::JsonValue per_rank{obs::JsonValue::Array{}};
    for (const dist::RankObsSummary& r : run.per_rank) {
      obs::JsonValue rank_entry{obs::JsonValue::Object{}};
      rank_entry.set("exchange_bytes", static_cast<double>(r.exchange_bytes));
      rank_entry.set("nvlink_bytes", static_cast<double>(r.nvlink_bytes));
      rank_entry.set("internode_bytes",
                     static_cast<double>(r.internode_bytes));
      rank_entry.set("spans", static_cast<double>(r.spans));
      rank_entry.set("span_seconds", r.span_seconds);
      per_rank.push_back(std::move(rank_entry));
    }
    entry.set("per_rank", std::move(per_rank));
    runs.push_back(std::move(entry));
  }
  root.set("runs", std::move(runs));
  obs::write_text_file(path, root.dump());
  std::printf("wrote dist report %s\n", path);
}

void report_paper_scale() {
  bench::heading(
      "Fig 4b (modeled): 3000-block random circuits, 30-42 qubits, "
      "4-1024 A100-80GB GPUs");
  const std::vector<int> clusters = {4, 16, 64, 256, 1024};
  std::vector<std::string> cols = {"qubits"};
  for (int c : clusters) cols.push_back(std::to_string(c) + " GPUs");
  bench::Table table(cols);

  for (unsigned n = 30; n <= 42; ++n) {
    std::vector<std::string> row = {std::to_string(n)};
    const auto qc = blocks(n, 3000);
    for (int devices : clusters) {
      perfmodel::ClusterConfig cfg;
      cfg.gpu = perfmodel::a100_80gb();
      cfg.devices = devices;
      cfg.precision = core::Precision::fp32;
      const auto e = perfmodel::estimate_gpu(qc, cfg);
      row.push_back(bench::time_cell(e.feasible, e.total_s()));
    }
    table.row(row);
  }
  table.print();

  // The highlighted region: compare 256 vs 1024 GPUs at 39 and 40 qubits.
  bench::subheading("highlighted region (39 -> 40 qubits)");
  for (unsigned n : {39u, 40u}) {
    const auto qc = blocks(n, 3000);
    for (int devices : {256, 1024}) {
      perfmodel::ClusterConfig cfg;
      cfg.gpu = perfmodel::a100_80gb();
      cfg.devices = devices;
      cfg.precision = core::Precision::fp32;
      const auto e = perfmodel::estimate_gpu(qc, cfg);
      if (!e.feasible) {
        std::printf("  n=%u %4d GPUs: infeasible (%s)\n", n, devices,
                    e.infeasible_reason.c_str());
        continue;
      }
      std::printf(
          "  n=%u %4d GPUs: total %-10s (compute %-9s comm %-9s "
          "startup %-8s)\n",
          n, devices, human_seconds(e.total_s()).c_str(),
          human_seconds(e.compute_s).c_str(),
          human_seconds(e.comm_s).c_str(),
          human_seconds(e.startup_s).c_str());
    }
  }
  std::printf(
      "expected shape: at 40 qubits the 1024-GPU cluster is no faster "
      "(or slower) than 256 GPUs — cross-rack exchange + cold-node "
      "startup eat the added parallelism.\n");
}

void report_measured_local() {
  bench::heading(
      "Fig 4b (measured on this host): distributed engine, rank sweep");
  bench::Table table({"qubits", "ranks", "wall", "comm bytes"});
  for (unsigned n : {12u, 14u}) {
    const auto qc = blocks(n, 200);
    const core::Kernel kernel = core::Kernel::from_circuit(qc);
    for (int ranks : {1, 2, 4, 8}) {
      core::Transformer t({.target = core::Target::nvidia_mgpu,
                           .precision = core::Precision::fp32,
                           .devices = ranks});
      const auto r = t.run(kernel);
      table.row({std::to_string(n), std::to_string(ranks),
                 human_seconds(r.wall_seconds),
                 human_bytes(r.comm_bytes)});
    }
  }
  table.print();
  std::printf(
      "expected shape: comm bytes grow with rank count (more global "
      "qubits); the nvidia-mgpu target runs the remapped schedule.\n");
}

void bm_distributed_ranks(benchmark::State& state) {
  const auto qc = blocks(12, 100);
  const core::Kernel k = core::Kernel::from_circuit(qc);
  core::Transformer t({.target = core::Target::nvidia_mgpu,
                       .precision = core::Precision::fp32,
                       .devices = static_cast<int>(state.range(0))});
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.run(k));
  }
  state.counters["ranks"] = static_cast<double>(state.range(0));
}
BENCHMARK(bm_distributed_ranks)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::init_observability();
  report_paper_scale();
  report_modeled_remap();
  report_measured_local();
  report_remap_ablation();
  write_dist_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  bench::write_report("fig4b_gpu_scaling");
  return 0;
}
