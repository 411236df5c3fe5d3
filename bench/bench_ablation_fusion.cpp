// Ablation — gate-fusion width (the paper fixes `gate fusion = 5`,
// App. D.2). Sweeps the fused engine's width 1..6 on the three workload
// families and reports sweeps, fusion ratio, and measured time; also
// ablates the negligible-angle approximation on the QFT.

#include "bench/bench_util.hpp"
#include "qgear/circuits/qcrank.hpp"
#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/obs/perfcount.hpp"
#include "qgear/perfmodel/model.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/isa.hpp"
#include "qgear/sim/kernel_table.hpp"

using namespace qgear;

namespace {

qiskit::QuantumCircuit workload(const std::string& family) {
  if (family == "random") {
    return circuits::generate_random_circuit(
        {.num_qubits = 16, .num_blocks = 500, .measure = false, .seed = 8});
  }
  if (family == "qft") {
    return qiskit::to_native_basis(circuits::build_qft(16));
  }
  // qcrank
  const circuits::QCrank codec({.address_qubits = 12, .data_qubits = 4});
  std::vector<double> values(codec.capacity());
  Rng rng(5);
  for (double& v : values) v = rng.uniform(0.05, 0.95);
  auto qc = codec.encode(values);
  return qc;
}

void report_fusion_sweep() {
  bench::heading("Ablation: fusion width sweep (paper default w=5)");
  bench::Table table({"workload", "width", "sweeps", "fusion ratio",
                      "measured", "vs w=1"});
  for (const std::string family : {"random", "qft", "qcrank"}) {
    const auto qc = workload(family);
    double base = 0;
    for (unsigned w = 1; w <= 6; ++w) {
      sim::FusedEngine<float> engine({.fusion = {.max_width = w}});
      sim::StateVector<float> state(qc.num_qubits());
      bench::StageTimer timer("fusion_sweep.apply");
      engine.apply(qc, state);
      const double t = timer.seconds();
      if (w == 1) base = t;
      table.row({family, std::to_string(w),
                 std::to_string(engine.stats().sweeps),
                 strfmt("%.2f", static_cast<double>(engine.stats().gates) /
                                    static_cast<double>(
                                        engine.stats().sweeps)),
                 human_seconds(t), strfmt("%.2fx", base / t)});
    }
  }
  table.print();
  std::printf(
      "expected shape: sweeps drop steeply to w~4-5 then flatten (wider "
      "blocks cost 2^w matrix work per amplitude group) — why the paper "
      "picks 5.\n");
}

void report_isa_sweep() {
  bench::subheading("kernel ISA sweep (dense fused blocks, w=5)");
  const auto qc = workload("random");
  const sim::Isa prev = sim::active_isa();
  bench::Table table({"precision", "isa", "dense blocks", "measured",
                      "vs scalar"});
  for (const std::string precision : {"fp32", "fp64"}) {
    double base = 0;
    for (int i = 0; i < sim::kNumIsas; ++i) {
      const sim::Isa isa = static_cast<sim::Isa>(i);
      if (!sim::isa_supported(isa)) continue;
      sim::set_active_isa(isa);
      double t = 0;
      std::uint64_t dense = 0;
      if (precision == "fp32") {
        sim::FusedEngine<float> engine({.fusion = {.max_width = 5}});
        sim::StateVector<float> state(qc.num_qubits());
        bench::StageTimer timer(strfmt("isa_sweep.%s.%s", precision.c_str(),
                                       sim::isa_name(isa)));
        engine.apply(qc, state);
        t = timer.seconds();
        dense = engine.stats().dense_blocks;
      } else {
        sim::FusedEngine<double> engine({.fusion = {.max_width = 5}});
        sim::StateVector<double> state(qc.num_qubits());
        bench::StageTimer timer(strfmt("isa_sweep.%s.%s", precision.c_str(),
                                       sim::isa_name(isa)));
        engine.apply(qc, state);
        t = timer.seconds();
        dense = engine.stats().dense_blocks;
      }
      if (isa == sim::Isa::scalar) base = t;
      table.row({precision, sim::isa_name(isa), std::to_string(dense),
                 human_seconds(t), strfmt("%.2fx", base / t)});
    }
  }
  sim::set_active_isa(prev);
  table.print();
  std::printf(
      "expected shape: avx2 >= 2x scalar on dense sweeps (4 fp32 / 2 fp64 "
      "amplitudes per 256-bit op, complex mul via fmaddsub); sse2 lands "
      "between; avx512 >= 1.3x avx2 in both precisions (8 fp32 / 4 fp64 "
      "amplitudes per 512-bit op).\n");
}

/// The dim-point DFT divided by sqrt(dim): unitary, so repeated sweeps
/// keep the state's norm.
std::vector<std::complex<double>> unitary_dft(std::uint64_t dim) {
  std::vector<std::complex<double>> dft(dim * dim);
  for (std::uint64_t r = 0; r < dim; ++r) {
    for (std::uint64_t c = 0; c < dim; ++c) {
      dft[r * dim + c] =
          std::polar(1 / std::sqrt(double(dim)),
                     2 * M_PI * double(r * c % dim) / double(dim));
    }
  }
  return dft;
}

/// A random n-qubit state of unit expected norm: a uniform state would
/// cancel to exact zeros and then to subnormals, which time the FPU's slow
/// path instead.
template <typename T>
std::vector<std::complex<T>> random_amps(unsigned n) {
  Rng rng(3);
  std::vector<std::complex<T>> amps(pow2(n));
  const double scale = std::sqrt(double(pow2(n + 1)));
  for (auto& a : amps) {
    a = {static_cast<T>(rng.normal() / scale),
         static_cast<T>(rng.normal() / scale)};
  }
  return amps;
}

/// Seconds of the fastest of `reps` timed calls of `run`, after one
/// untimed call that warms the caches.
template <typename F>
double fastest_of(int reps, F&& run) {
  run();
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    run();
    const double t = timer.seconds();
    best = r == 0 ? t : std::min(best, t);
  }
  return best;
}

constexpr int kRateReps = 5;

/// One compiled ISA's apply_2q_dense rows: ns per amplitude for each
/// (q_lo, q_hi) pair, single thread, straight through the ISA's table (no
/// pool, so no sim.* or threadpool.* counter moves). Returns the
/// reference row's ns per complex multiply-add (4 per amplitude).
template <typename T>
double kernel_rate_rows(const char* precision, sim::Isa isa,
                        bench::Table& table) {
  constexpr unsigned kQubits = 20;
  // (0, 1) keeps a whole group in one fp32 AVX2 vector; (10, 11) runs
  // the across-vector branch on every ISA and is the reference row.
  const std::pair<unsigned, unsigned> pairs[] = {
      {0, 1}, {0, 11}, {1, 11}, {2, 11}, {10, 11}};
  const auto dft = unitary_dft(4);
  const auto& kernels = sim::kernel_table_for<T>(isa);
  auto amps = random_amps<T>(kQubits);
  std::vector<double> ns;  // fastest sweep, per amplitude
  for (const auto& [lo, hi] : pairs) {
    bench::StageTimer stage(strfmt("kernel_rate.%s.%s.q%u_%u", precision,
                                   sim::isa_name(isa), lo, hi));
    const double best = fastest_of(kRateReps, [&] {
      kernels.apply_2q_dense(amps.data(), kQubits, lo, hi, dft, nullptr);
    });
    ns.push_back(best * 1e9 / static_cast<double>(amps.size()));
  }
  for (std::size_t i = 0; i < ns.size(); ++i) {
    table.row({precision, sim::isa_name(isa),
               std::to_string(pairs[i].first), std::to_string(pairs[i].second),
               strfmt("%.2f", ns[i]), strfmt("%.2fx", ns[i] / ns.back())});
  }
  return ns.back() / 4;
}

/// One compiled ISA's apply_multi_dense rows for blocks of m = 3, 4 and
/// 5 qubits: ns per amplitude and per complex multiply-add (2^m per
/// amplitude), on 12- and 20-qubit states, with the block's lowest qubit
/// at 0 (lo, inside one vector on every SIMD ISA) or at 2 (hi, above
/// one). Each timing is the fastest batch of sweeps that update 2^20
/// amplitudes, single thread, through the ISA's table. `ref_ns` is the
/// ISA's apply_2q_dense reference row, per multiply-add.
template <typename T>
void dense_rate_rows(const char* precision, sim::Isa isa, double ref_ns,
                     bench::Table& table) {
  const auto& kernels = sim::kernel_table_for<T>(isa);
  for (unsigned m = 3; m <= 5; ++m) {
    const std::uint64_t dim = pow2(m);
    const auto dft = unitary_dft(dim);
    const std::pair<const char*, unsigned> placements[] = {{"lo", 0},
                                                           {"hi", 2}};
    for (const auto& [place, lowest] : placements) {
      std::vector<unsigned> qubits(m);
      for (unsigned j = 0; j < m; ++j) qubits[j] = lowest + j;
      bench::StageTimer stage(strfmt("kernel_rate.%s.%s.m%u_%s", precision,
                                     sim::isa_name(isa), m, place));
      for (unsigned n : {12u, 20u}) {
        auto amps = random_amps<T>(n);
        const std::uint64_t sweeps = pow2(20 - n);
        const double best = fastest_of(kRateReps, [&] {
          for (std::uint64_t i = 0; i < sweeps; ++i) {
            kernels.apply_multi_dense(amps.data(), n, qubits, dft, nullptr);
          }
        });
        const double ns_amp = best * 1e9 / double(sweeps * amps.size());
        const double ns_cmac = ns_amp / double(dim);
        table.row({precision, sim::isa_name(isa), std::to_string(m), place,
                   std::to_string(n), strfmt("%.2f", ns_amp),
                   strfmt("%.3f", ns_cmac),
                   strfmt("%.2fx", ns_cmac / ref_ns)});
      }
    }
  }
}

void report_kernel_rate() {
  bench::subheading("apply_2q_dense rate by qubit position (20 qubits)");
  bench::Table table({"precision", "isa", "q_lo", "q_hi", "ns/amp",
                      "vs q_lo=10"});
  bench::Table dense({"precision", "isa", "m", "qubits", "n", "ns/amp",
                      "ns/cmac", "vs 2q q_lo=10"});
  for (int i = 0; i < sim::kNumIsas; ++i) {
    const sim::Isa isa = static_cast<sim::Isa>(i);
    if (!sim::isa_supported(isa)) continue;
    const double ref = kernel_rate_rows<float>("fp32", isa, table);
    dense_rate_rows<float>("fp32", isa, ref, dense);
  }
  for (int i = 0; i < sim::kNumIsas; ++i) {
    const sim::Isa isa = static_cast<sim::Isa>(i);
    if (!sim::isa_supported(isa)) continue;
    const double ref = kernel_rate_rows<double>("fp64", isa, table);
    dense_rate_rows<double>("fp64", isa, ref, dense);
  }
  table.print();
  std::printf(
      "expected shape: every row within 2x of its ISA's q_lo=10 row; a "
      "lower qubit inside one vector (fp32 q_lo<2 on avx2, q_lo<3 on "
      "avx512; fp64 q_lo=0 on avx2, q_lo<2 on avx512; q_lo=0 on sse2) "
      "runs the in-register lane-flip path, not scalar; each avx512 row "
      "within 5%% of avx2's or faster.\n");
  bench::subheading(
      "apply_multi_dense rate (m-qubit blocks; lo = qubits 0..m-1, "
      "hi = 2..m+1)");
  dense.print();
  std::printf(
      "expected shape: ns/cmac falls with m (more multiply-adds per "
      "amplitude read) and avx2's m=5 rows land within 1.5x of its "
      "apply_2q_dense q_lo=10 row, per multiply-add; lo and hi within "
      "~1.3x of each other; each avx512 row within 5%% of avx2's or "
      "faster.\n");
}

/// The pair kernels' rate by lowest touched qubit: ns per amplitude of a
/// 14-qubit state, single thread, straight through each compiled ISA's
/// table, with the lowest qubit at 0, 1, 2, 3 and 10 (the two-qubit
/// kernels' other qubit is 12). These are the kernels whose runs below
/// one vector are scalar, and the ones the avx512 table hands to avx2
/// where its own body was slower (docs/KERNELS.md). Each cell
/// is the fastest of kRateReps batches of sweeps that touch 2^20
/// amplitudes, taken in rounds that visit every ISA in turn, so that a
/// slow spell of the host falls on all of them alike; its stage records
/// that fastest batch.
template <typename T>
void pair_rate_rows(const char* precision, bench::Table& table) {
  constexpr unsigned kQubits = 14, kOther = 12;
  const unsigned lowest[] = {0, 1, 2, 3, 10};
  std::vector<sim::Isa> isas;
  for (int i = 0; i < sim::kNumIsas; ++i) {
    const sim::Isa isa = static_cast<sim::Isa>(i);
    if (sim::isa_supported(isa)) isas.push_back(isa);
  }
  const qiskit::Mat2 h = qiskit::gate_matrix_1q(qiskit::GateKind::h, 0);
  const std::complex<T> phase(std::polar(1.0, 0.3));
  using Sweep =
      std::function<void(const sim::KernelTable<T>&, std::complex<T>*,
                         unsigned)>;
  const std::pair<const char*, Sweep> kernels[] = {
      {"apply_1q",
       [&](const sim::KernelTable<T>& k, std::complex<T>* a, unsigned q) {
         k.apply_1q(a, kQubits, q, h, nullptr);
       }},
      {"apply_x",
       [&](const sim::KernelTable<T>& k, std::complex<T>* a, unsigned q) {
         k.apply_x(a, kQubits, q, nullptr);
       }},
      {"apply_cx",
       [&](const sim::KernelTable<T>& k, std::complex<T>* a, unsigned q) {
         k.apply_cx(a, kQubits, kOther, q, nullptr);
       }},
      {"apply_swap",
       [&](const sim::KernelTable<T>& k, std::complex<T>* a, unsigned q) {
         k.apply_swap(a, kQubits, q, kOther, nullptr);
       }},
      {"apply_phase_mask",
       [&](const sim::KernelTable<T>& k, std::complex<T>* a, unsigned q) {
         k.apply_phase_mask(a, kQubits, pow2(q) | pow2(kOther), phase,
                            nullptr);
       }}};
  auto amps = random_amps<T>(kQubits);
  const std::uint64_t sweeps = pow2(20 - kQubits);
  for (const auto& [name, sweep] : kernels) {
    std::vector<std::vector<std::string>> rows;
    for (sim::Isa isa : isas) {
      rows.push_back({precision, name, sim::isa_name(isa)});
    }
    for (unsigned q : lowest) {
      std::vector<double> best(isas.size(), 0);
      for (int r = 0; r < kRateReps; ++r) {
        for (std::size_t i = 0; i < isas.size(); ++i) {
          const auto& k = sim::kernel_table_for<T>(isas[i]);
          if (r == 0) sweep(k, amps.data(), q);  // warm-up
          WallTimer timer;
          for (std::uint64_t s = 0; s < sweeps; ++s) {
            sweep(k, amps.data(), q);
          }
          const double t = timer.seconds();
          best[i] = r == 0 ? t : std::min(best[i], t);
        }
      }
      for (std::size_t i = 0; i < isas.size(); ++i) {
        bench::StageLog::global().record(
            strfmt("pair_rate.%s.%s.%s.q%u", precision,
                   sim::isa_name(isas[i]), name, q),
            best[i]);
        rows[i].push_back(
            strfmt("%.3f", best[i] * 1e9 / double(sweeps * amps.size())));
      }
    }
    for (const std::vector<std::string>& row : rows) table.row(row);
  }
}

void report_pair_rate() {
  bench::subheading("pair kernels' rate by lowest qubit (14 qubits, ns/amp)");
  bench::Table table({"precision", "kernel", "isa", "q=0", "q=1", "q=2",
                      "q=3", "q=10"});
  pair_rate_rows<float>("fp32", table);
  pair_rate_rows<double>("fp64", table);
  table.print();
  std::printf(
      "expected shape: a position inside one vector runs scalar (fp32 q<2 "
      "on avx2, fp64 q=0); avx512 runs avx2's code for apply_1q inside its "
      "wider vector and for apply_x, apply_cx, apply_swap and "
      "apply_phase_mask everywhere, so each avx512 row is within 5%% of "
      "avx2's or faster.\n");
}

/// Planner cost on serve12_open-shaped circuits: 40 transpiled random
/// circuits of 12 qubits and 120 blocks, planned at widths 2-5, and what
/// running each width's plans costs. Planning moves no sim.* counter but
/// sim.fusion_plans.
void report_planner() {
  constexpr std::uint64_t kCircuits = 40;
  bench::subheading(
      "fusion planning (40 transpiled 12-qubit, 120-block circuits)");
  std::vector<qiskit::QuantumCircuit> batch;
  for (std::uint64_t i = 0; i < kCircuits; ++i) {
    batch.push_back(qiskit::transpile(circuits::generate_random_circuit(
        {.num_qubits = 12, .num_blocks = 120, .measure = false,
         .seed = 100 + i})));
  }
  bench::Table table({"width", "blocks/circuit", "ms/circuit", "us/gate",
                      "sweep ms/circuit"});
  for (unsigned w = 2; w <= 5; ++w) {
    std::uint64_t blocks = 0, gates = 0;
    std::vector<sim::FusionPlan> plans;
    double t = 0;
    {
      bench::StageTimer stage(strfmt("plan_fusion.w%u", w));
      for (const qiskit::QuantumCircuit& qc : batch) {
        plans.push_back(sim::plan_fusion(qc, {.max_width = w}));
        blocks += plans.back().blocks.size();
        gates += plans.back().input_gates;
      }
      t = stage.seconds();
    }
    // Executing the plans: fp32, no pool, the active ISA, every block
    // straight through its kernel, so no counter moves. Fastest of 3.
    double sweep = 0;
    {
      bench::StageTimer stage(strfmt("plan_sweep.w%u", w));
      sim::StateVector<float> state(12);
      sweep = fastest_of(3, [&] {
        for (const sim::FusionPlan& plan : plans) {
          for (const sim::FusedBlock& block : plan.blocks) {
            sim::apply_fused_block(state.data(), 12, block);
          }
        }
      });
    }
    table.row({std::to_string(w),
               strfmt("%.1f", double(blocks) / double(kCircuits)),
               strfmt("%.3f", t * 1e3 / double(kCircuits)),
               strfmt("%.3f", t * 1e6 / double(gates)),
               strfmt("%.3f", sweep * 1e3 / double(kCircuits))});
  }
  table.print();
  std::printf(
      "expected shape: cost per gate nearly flat up to width 4, where fixed "
      "per-gate costs dominate, then rising with the 2^(2w)-entry sweep "
      "each gate makes of its block's matrix. The sweep column is what "
      "the plan costs to run: fewer, wider blocks against 2^w "
      "multiply-adds per amplitude.\n");
}

/// State set-up alone: a 24-qubit fused backend on a 4-thread pool. The
/// first init_state allocates the buffer and zeroes it on the pool
/// (fresh); a second at the same width re-zeroes the kept buffer. No sim.*
/// counter moves.
void report_state_init() {
  constexpr unsigned kQubits = 24;
  bench::subheading("state set-up (fused backend, 24 qubits, 4-thread pool)");
  ThreadPool pool(4);
  bench::Table table({"precision", "init_state", "measured"});
  for (const bool fp32 : {true, false}) {
    const char* precision = fp32 ? "fp32" : "fp64";
    sim::BackendOptions opts;
    opts.pool = &pool;
    opts.fp32 = fp32;
    auto backend = sim::Backend::create("fused", opts);
    for (const char* init : {"fresh", "kept"}) {
      double t = 0;
      {
        bench::StageTimer stage(strfmt("state_init.%s.%s", precision, init));
        backend->init_state(kQubits);
        t = stage.seconds();
      }
      table.row({precision, init, human_seconds(t)});
    }
  }
  table.print();
  std::printf(
      "expected shape: fp64 kept several times below fresh, which also "
      "takes the first-touch page faults; the two fp32 rows are close and "
      "their order varies from run to run.\n");
}

void report_angle_threshold() {
  bench::subheading("negligible-angle approximation on QFT(20)");
  const auto exact = circuits::build_qft(20);
  bench::Table table({"threshold", "cp gates kept", "measured",
                      "fidelity"});
  sim::FusedEngine<double> ref_engine;
  // Probe state: superposition input so dropped phases matter.
  auto probe = [&](const qiskit::QuantumCircuit& qft) {
    qiskit::QuantumCircuit qc(20);
    for (int q = 0; q < 20; ++q) qc.h(q);
    qc.rz(0.37, 0);
    qc.compose(qft);
    return qc;
  };
  sim::FusedEngine<double> e0;
  const auto s0 = e0.run(probe(exact));
  for (double threshold : {0.0, M_PI / 512, M_PI / 64, M_PI / 8}) {
    const auto qft = circuits::build_qft(20, {.angle_threshold = threshold});
    sim::FusedEngine<double> engine;
    bench::StageTimer timer("angle_threshold.run");
    const auto s = engine.run(probe(qft));
    table.row({strfmt("%.4f", threshold),
               std::to_string(qft.count_ops().at("cp")),
               human_seconds(timer.seconds()),
               strfmt("%.6f", s0.fidelity(s))});
  }
  table.print();
  std::printf(
      "expected shape: aggressive thresholds cut gates O(n^2)->O(n log n) "
      "with fidelity staying near 1 until ~pi/8.\n");
}

/// Hardware-counter cross-check of the bandwidth-bound model: a fused
/// sweep should move ~kSweepBytesPerStateByte bytes per state byte
/// (read + write every amplitude), so the measured last-level traffic
/// (cache misses x 64B lines) per sweep should land near the model's
/// prediction. Wide dense blocks add matrix FLOPs, which shows up as
/// rising IPC, not rising traffic.
void report_perf_counters() {
  bench::subheading("hardware-counter cross-check vs perfmodel (fp32)");
  const bool was_enabled = obs::PerfCounters::enabled();
  obs::PerfCounters::set_enabled(true);
  if (!obs::PerfCounters::supported()) {
    obs::PerfCounters::set_enabled(was_enabled);
    std::printf(
        "hardware counters unavailable (perf_event_open denied or no PMU "
        "in this container) — skipping; run with CAP_PERFMON or "
        "kernel.perf_event_paranoid <= 2 to enable.\n");
    return;
  }
  const auto qc = workload("random");
  bench::Table table({"width", "IPC", "miss rate", "measured traffic",
                      "modeled traffic", "ratio"});
  for (unsigned w : {1u, 5u}) {
    sim::FusedEngine<float> engine({.fusion = {.max_width = w}});
    sim::StateVector<float> state(qc.num_qubits());
    engine.apply(qc, state);
    const sim::EngineStats& stats = engine.stats();
    const double state_bytes =
        static_cast<double>(state.size()) * sizeof(std::complex<float>);
    const double modeled = static_cast<double>(stats.sweeps) * state_bytes *
                           perfmodel::kSweepBytesPerStateByte;
    if (!stats.perf.valid) continue;
    const double measured =
        static_cast<double>(stats.perf.cache_misses) * 64.0;
    table.row({std::to_string(w), strfmt("%.2f", stats.perf.ipc()),
               strfmt("%.1f%%", stats.perf.cache_miss_rate() * 100),
               human_bytes(static_cast<std::uint64_t>(measured)),
               human_bytes(static_cast<std::uint64_t>(modeled)),
               strfmt("%.2f", measured / modeled)});
  }
  table.print();
  std::printf(
      "expected shape: traffic ratio stays O(1) across widths while the "
      "working set exceeds LLC (the sweep is bandwidth-bound, as the model "
      "assumes); well below 1 means the 16-qubit state fits in cache and "
      "the model's DRAM-traffic term is an upper bound here.\n");
  obs::PerfCounters::set_enabled(was_enabled);
}

void bm_fusion_width(benchmark::State& state) {
  const auto qc = workload("random");
  sim::FusedEngine<float> engine(
      {.fusion = {.max_width = static_cast<unsigned>(state.range(0))}});
  for (auto _ : state) {
    sim::StateVector<float> s(qc.num_qubits());
    engine.apply(qc, s);
    benchmark::DoNotOptimize(s.data());
  }
  state.counters["width"] = static_cast<double>(state.range(0));
}
BENCHMARK(bm_fusion_width)->DenseRange(1, 6)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::init_observability();
  report_fusion_sweep();
  report_isa_sweep();
  report_kernel_rate();
  report_pair_rate();
  report_planner();
  report_state_init();
  report_angle_threshold();
  report_perf_counters();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  bench::write_report("ablation_fusion");
  return 0;
}
