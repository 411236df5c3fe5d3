// qgear_cli — command-line driver for the Q-Gear pipeline, mirroring the
// paper's `run.py` entry point (App. E.3): generate workloads, encode
// them into qh5 gate tensors, execute on any target, and estimate
// paper-scale cluster runtimes.
//
// Usage:
//   qgear_cli gen-random  --qubits N --blocks B [--circuits C] [--seed S]
//                         --out circuits.qh5
//   qgear_cli gen-qft     --qubits N [--no-swaps] --out circuits.qh5
//   qgear_cli gen-ghz     --qubits N --out circuits.qh5
//   qgear_cli gen-image   --addr M --data D [--seed S] --out circuits.qh5
//   qgear_cli info        --in circuits.qh5
//   qgear_cli run         --in circuits.qh5 [--target nvidia|cpu-aer|
//                         nvidia-mgpu|nvidia-mqpu] [--devices R]
//                         [--shots S] [--precision fp32|fp64]
//                         [--fusion W] [--trace-out trace.json]
//                         [--metrics-out metrics.json]
//   qgear_cli run         --in circuits.qh5 --backend NAME [--shots S]
//                         [--seed S] [--mps-cutoff C] [--mps-max-bond B]
//                         [--dd-max-nodes N] [--dist-ranks R] [--fusion W]
//                         [--retries N] [--retry-backoff-ms MS]
//                         [--report out.json] [--trace-out trace.json]
//                         [--metrics-out metrics.json]
//   qgear_cli run         --in circuits.qh5 --auto [--budget-mb M]
//                         [--max-error E] [--calibration cal.json]
//                         [--shots S] [--seed S] [--report out.json]
//                         [--trace-out trace.json]
//                         [--metrics-out metrics.json]
//   qgear_cli plan        --in circuits.qh5 [--budget-mb M]
//                         [--max-error E] [--time-budget-s T]
//                         [--calibration cal.json] [--report out.json]
//   qgear_cli calibrate   --out calibration.json [--repeats R]
//                         [--probe-qubits N] [--skip-suite]
//   qgear_cli diff-reports --a a.json --b b.json [--marginal-tol T]
//                         [--exp-tol T]
//   qgear_cli estimate    --in circuits.qh5 [--devices R] [--gpu 40|80]
//                         [--shots S] [--precision fp32|fp64]
//                         [--schedule] [--ranks-per-domain D]
//                         (--schedule prints the planned batched exchange
//                          schedule: per-batch rounds, peers, link tiers,
//                          and bytes per rank)
//   qgear_cli estimate    --in circuits.qh5 --backend NAME|all
//                         [--budget-mb M] [--max-error E]
//                         [--calibration cal.json] [--dd-max-nodes N]
//                         [--mps-cutoff C] [--mps-max-bond B]
//   qgear_cli qasm-export --in circuits.qh5 --index I --out circuit.qasm
//
// `run --backend` executes through the pluggable sim::Backend registry
// (reference | fused | dd | mps | dist; QGEAR_BACKEND sets the default
// when the flag's value is empty) and emits a qgear.backend.report/v1
// JSON with sampled counts and per-qubit Z expectations —
// `diff-reports` compares two such reports within tolerances, which is
// how CI checks cross-backend equivalence. Route-only members a report
// may carry (`precision`, `route`, rationale text) are deliberately
// ignored by the diff, so an autotuned run compares cleanly against a
// pinned-backend run.
//
// `run --auto` routes each circuit through route::plan (backend x
// precision x ISA x fusion width under --budget-mb / --max-error) and
// then executes the chosen placement; `plan` prints/exports the decision
// (qgear.route.report/v1) without executing; `calibrate` refreshes the
// router's time-model constants and measured lookup table.
//
// Flags accept both "--key value" and "--key=value". Observability:
// `--trace-out` records a Chrome Trace Event file (chrome://tracing /
// Perfetto) of the run, `--metrics-out` dumps the metrics registry as
// JSON, and `--log <level>` (or QGEAR_LOG) sets stderr verbosity.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qgear/circuits/qcrank.hpp"
#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/comm/comm.hpp"
#include "qgear/common/log.hpp"
#include "qgear/common/rng.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/core/transformer.hpp"
#include "qgear/dist/dist_backend.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/fault/fault.hpp"
#include "qgear/obs/json.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/shutdown.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/perfmodel/model.hpp"
#include "qgear/qh5/file.hpp"
#include "qgear/qiskit/qasm.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/route/calibration.hpp"
#include "qgear/route/cost.hpp"
#include "qgear/route/route.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/isa.hpp"
#include "qgear/sim/observable.hpp"
#include "qgear/sim/program.hpp"
#include "qgear/sim/stats.hpp"

using namespace qgear;

namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      QGEAR_CHECK_ARG(starts_with(key, "--"), "expected --flag, got " + key);
      key = key.substr(2);
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);  // --key=value
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Optional flag: empty string when absent.
  std::string opt(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? "" : it->second;
  }

  std::string str(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      QGEAR_CHECK_ARG(!fallback.empty() || key == "out" || key == "in",
                      "missing required flag --" + key);
      return fallback;
    }
    return it->second;
  }

  std::string required(const std::string& key) const {
    auto it = values_.find(key);
    QGEAR_CHECK_ARG(it != values_.end() && !it->second.empty(),
                    "missing required flag --" + key);
    return it->second;
  }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return std::stoull(it->second);
  }

  double f64(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

void save_circuits(const std::vector<qiskit::QuantumCircuit>& circs,
                   const std::string& path) {
  const core::GateTensor tensor = core::encode_circuits(circs);
  qh5::File file = qh5::File::create(path);
  core::save_tensor(tensor, file.root().create_group("circuits"));
  file.flush();
  std::printf("wrote %s: %u circuit(s), capacity %u, %s on disk "
              "(%.2fx compression)\n",
              path.c_str(), tensor.num_circuits(), tensor.capacity(),
              human_bytes(file.stats().file_bytes).c_str(),
              file.stats().compression_ratio());
}

core::GateTensor load_circuits(const std::string& path) {
  qh5::File file = qh5::File::open(path);
  return core::load_tensor(file.root().group("circuits"));
}

core::Precision parse_precision(const std::string& s) {
  if (s == "fp32") return core::Precision::fp32;
  if (s == "fp64") return core::Precision::fp64;
  throw InvalidArgument("unknown precision: " + s);
}

core::Target parse_target(const std::string& s) {
  if (s == "cpu-aer") return core::Target::cpu_aer;
  if (s == "nvidia") return core::Target::nvidia;
  if (s == "nvidia-mgpu") return core::Target::nvidia_mgpu;
  if (s == "nvidia-mqpu") return core::Target::nvidia_mqpu;
  throw InvalidArgument("unknown target: " + s);
}

int cmd_gen_random(const Args& args) {
  circuits::RandomBlocksOptions opts;
  opts.num_qubits = static_cast<unsigned>(args.u64("qubits", 10));
  opts.num_blocks = args.u64("blocks", 100);
  opts.seed = args.u64("seed", 1);
  const std::size_t count = args.u64("circuits", 1);
  std::vector<qiskit::QuantumCircuit> circs;
  for (std::size_t i = 0; i < count; ++i) {
    circuits::RandomBlocksOptions per = opts;
    per.seed = opts.seed + i;
    circs.push_back(circuits::generate_random_circuit(per));
  }
  save_circuits(circs, args.required("out"));
  return 0;
}

int cmd_gen_qft(const Args& args) {
  circuits::QftOptions opts;
  opts.do_swaps = !args.has("no-swaps");
  auto qc = circuits::build_qft(
      static_cast<unsigned>(args.u64("qubits", 10)), opts);
  qc.measure_all();
  save_circuits({qc}, args.required("out"));
  return 0;
}

int cmd_gen_ghz(const Args& args) {
  const unsigned n = static_cast<unsigned>(args.u64("qubits", 50));
  QGEAR_CHECK_ARG(n >= 2, "--qubits must be >= 2");
  qiskit::QuantumCircuit qc(n, strfmt("ghz%u", n));
  qc.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  qc.measure_all();
  save_circuits({qc}, args.required("out"));
  return 0;
}

int cmd_gen_image(const Args& args) {
  const unsigned m = static_cast<unsigned>(args.u64("addr", 6));
  const unsigned d = static_cast<unsigned>(args.u64("data", 2));
  const circuits::QCrank codec({.address_qubits = m, .data_qubits = d});
  const image::Image img = image::make_synthetic(
      static_cast<unsigned>(pow2(m)), d, args.u64("seed", 7));
  const auto qc = codec.encode(
      std::vector<double>(img.pixels.begin(), img.pixels.end()));
  save_circuits({qc}, args.required("out"));
  return 0;
}

int cmd_info(const Args& args) {
  const core::GateTensor tensor = load_circuits(args.required("in"));
  std::printf("gate tensor: %u circuit(s), capacity %u, %s\n",
              tensor.num_circuits(), tensor.capacity(),
              human_bytes(tensor.byte_size()).c_str());
  for (std::uint32_t c = 0; c < tensor.num_circuits(); ++c) {
    const auto qc = core::decode_circuit(tensor, c);
    std::printf("  [%u] '%s': %u qubits, %zu gates (%zu entangling), "
                "depth %u\n",
                c, qc.name().c_str(), qc.num_qubits(), qc.size(),
                qc.num_2q_gates(), qc.depth());
    if (args.has("verbose")) {
      std::printf("%s", qc.to_string(24).c_str());
    }
  }
  return 0;
}

sim::BackendOptions backend_options_from_args(const Args& args) {
  sim::BackendOptions bo;
  bo.fusion.max_width = static_cast<unsigned>(args.u64("fusion", 5));
  bo.dd.max_nodes = args.u64("dd-max-nodes", bo.dd.max_nodes);
  bo.mps.cutoff = args.f64("mps-cutoff", bo.mps.cutoff);
  bo.mps.max_bond =
      static_cast<std::size_t>(args.u64("mps-max-bond", bo.mps.max_bond));
  bo.dist_ranks = static_cast<unsigned>(args.u64("dist-ranks", 0));
  return bo;
}

route::Calibration calibration_from_args(const Args& args) {
  const std::string path = args.opt("calibration");
  return path.empty() ? route::Calibration::host_default()
                      : route::Calibration::load(path);
}

/// The --backend execution path: circuits run through the pluggable
/// registry and the results land in a qgear.backend.report/v1 document.
/// With --auto (or --backend auto) each circuit is first routed through
/// route::plan and executed on the chosen backend x precision x ISA x
/// fusion width; the decision is recorded in the per-circuit `route`
/// member. Each executed circuit's backend stats land in `engine_stats`.
int cmd_run_backend(const Args& args,
                    std::vector<sim::EngineStats>& engine_stats) {
  std::string name = args.opt("backend");
  const bool auto_route = args.has("auto") || name == "auto";
  if (name.empty() && !auto_route) name = sim::Backend::default_name();
  const sim::BackendOptions base = backend_options_from_args(args);
  const std::uint64_t shots = args.u64("shots", 0);
  const std::uint64_t seed = args.u64("seed", 12345);
  // Resilience (docs/RESILIENCE.md): transient failures replay the whole
  // circuit up to --retries attempts with exponential backoff; with
  // --auto an OutOfMemoryBudget instead re-plans with the failed backend
  // excluded (degraded fallback). Segment checkpointing is a serve
  // fused-path feature (qgear_serve --checkpoint-every).
  const unsigned max_attempts = static_cast<unsigned>(args.u64("retries", 1));
  QGEAR_CHECK_ARG(max_attempts >= 1,
                  "--retries must be >= 1 (total attempts per circuit)");
  const double retry_backoff_ms = args.f64("retry-backoff-ms", 10.0);
  if (const auto plan = fault::FaultPlan::from_env()) {
    fault::FaultInjector::global().arm(*plan);
    std::printf("fault injector armed: %s\n", plan->to_string().c_str());
  }

  route::Budget budget;
  route::RouteOptions ropts;
  if (auto_route) {
    name = "auto";
    budget.memory_bytes = args.u64("budget-mb", 0) << 20;
    budget.max_error = args.f64("max-error", 1e-4);
    ropts.calibration = calibration_from_args(args);
    ropts.base = base;
  }

  obs::JsonValue report{obs::JsonValue::Object{}};
  report.set("schema", "qgear.backend.report/v1");
  report.set("backend", name);
  report.set("shots", shots);
  report.set("seed", seed);
  report.set("retries", max_attempts);
  obs::JsonValue circuits_json{obs::JsonValue::Array{}};

  obs::Span root(obs::Tracer::global(), "cli.run", "cli");
  const core::GateTensor tensor = load_circuits(args.required("in"));
  if (root.active()) {
    root.arg("circuits", std::uint64_t{tensor.num_circuits()});
    root.arg("backend", name);
  }
  for (std::uint32_t c = 0; c < tensor.num_circuits(); ++c) {
    const auto qc = core::decode_circuit(tensor, c);

    sim::BackendOptions bo = base;
    std::string exec_name = name;
    std::string precision = bo.fp32 ? "fp32" : "fp64";
    route::Placement placement;
    unsigned attempts = 1;
    bool degraded = false;
    std::vector<std::string> fallback_chain;
    std::unique_ptr<sim::Backend> backend;
    std::uint64_t mem_bytes = 0;
    std::vector<unsigned> measured;
    sim::Counts counts;
    std::vector<double> z(qc.num_qubits());
    double wall = 0;
    for (;;) {
      try {
        bo = base;
        exec_name = name;
        precision = bo.fp32 ? "fp32" : "fp64";
        if (auto_route) {
          route::RouteOptions attempt_opts = ropts;
          attempt_opts.exclude_backends = fallback_chain;
          placement = route::plan(qc, budget, attempt_opts);
          if (!placement.feasible) {
            std::fprintf(stderr, "[%u] %s: no feasible placement — %s\n", c,
                         qc.name().c_str(),
                         placement.rationale.empty()
                             ? "(no rationale)"
                             : placement.rationale.back().c_str());
            return 1;
          }
          const route::CandidateConfig& cfg = placement.choice.config;
          exec_name = cfg.backend;
          precision = cfg.precision;
          bo.fp32 = cfg.precision == "fp32";
          if (cfg.fusion_width > 0) bo.fusion.max_width = cfg.fusion_width;
          sim::set_active_isa(cfg.isa);
          for (const std::string& line : placement.rationale) {
            std::printf("[%u] %s: %s\n", c, qc.name().c_str(), line.c_str());
          }
        }
        backend = sim::Backend::create(exec_name, bo);
        mem_bytes = backend->memory_estimate(qc);

        WallTimer timer;
        backend->init_state(qc.num_qubits());
        measured.clear();
        backend->apply_circuit(qc, &measured);
        std::sort(measured.begin(), measured.end());
        measured.erase(std::unique(measured.begin(), measured.end()),
                       measured.end());

        counts.clear();
        if (shots > 0) {
          Rng rng(seed + c);
          counts = backend->sample(measured, shots, rng);
        }
        for (unsigned q = 0; q < qc.num_qubits(); ++q) {
          sim::PauliTerm term;
          term.ops.assign(q + 1, sim::Pauli::I);
          term.ops[q] = sim::Pauli::Z;
          z[q] = backend->expectation(term);
        }
        wall = timer.seconds();
        break;
      } catch (const OutOfMemoryBudget& e) {
        if (!auto_route) {
          std::fprintf(stderr, "[%u] %s: %s\n", c, qc.name().c_str(),
                       e.what());
          return 1;
        }
        std::printf("[%u] %s: backend %s out of memory budget (%s); "
                    "replanning without it\n",
                    c, qc.name().c_str(), exec_name.c_str(), e.what());
        fallback_chain.push_back(exec_name);
        degraded = true;
        // Bounded: each pass excludes one more backend; route::plan goes
        // infeasible (handled above) once the candidate space is empty.
      } catch (const InvalidArgument& e) {
        std::fprintf(stderr, "[%u] %s: %s\n", c, qc.name().c_str(), e.what());
        return 1;
      } catch (const FormatError& e) {
        std::fprintf(stderr, "[%u] %s: %s\n", c, qc.name().c_str(), e.what());
        return 1;
      } catch (const std::exception& e) {
        if (attempts >= max_attempts) {
          std::fprintf(stderr, "[%u] %s: failed after %u attempt(s): %s\n", c,
                       qc.name().c_str(), attempts, e.what());
          return 1;
        }
        const double backoff_ms =
            retry_backoff_ms * std::pow(2.0, static_cast<double>(attempts - 1));
        std::printf("[%u] %s: attempt %u failed (%s); retrying in %.0f ms\n",
                    c, qc.name().c_str(), attempts, e.what(), backoff_ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
        ++attempts;
      }
    }

    std::printf("[%u] %s via %s/%s: %u qubits, %zu gates, %s wall, "
                "mem estimate %s\n",
                c, qc.name().c_str(), exec_name.c_str(), precision.c_str(),
                qc.num_qubits(), qc.size(), human_seconds(wall).c_str(),
                human_bytes(mem_bytes).c_str());

    obs::JsonValue cj{obs::JsonValue::Object{}};
    cj.set("name", qc.name());
    cj.set("qubits", qc.num_qubits());
    cj.set("gates", std::uint64_t{qc.size()});
    cj.set("memory_estimate_bytes", mem_bytes);
    cj.set("wall_seconds", wall);
    cj.set("attempts", attempts);
    if (degraded) {
      cj.set("degraded", true);
      obs::JsonValue fb{obs::JsonValue::Array{}};
      for (const std::string& b : fallback_chain) fb.push_back(b);
      fb.push_back(exec_name);
      cj.set("fallback_chain", std::move(fb));
    }
    if (auto_route) {
      cj.set("precision", precision);
      obs::JsonValue rj{obs::JsonValue::Object{}};
      rj.set("backend", exec_name);
      rj.set("precision", precision);
      rj.set("isa", sim::isa_name(placement.choice.config.isa));
      rj.set("fusion_width", placement.choice.config.fusion_width);
      rj.set("time_est_s", placement.choice.seconds);
      rj.set("memory_est_bytes", placement.choice.mem_bytes);
      obs::JsonValue why{obs::JsonValue::Array{}};
      for (const std::string& line : placement.rationale) why.push_back(line);
      rj.set("rationale", std::move(why));
      cj.set("route", std::move(rj));
    }
    obs::JsonValue mj{obs::JsonValue::Array{}};
    // Key-bit order: bit j of a counts key is the value of measured[j]
    // (all qubits ascending when the circuit has no measure ops).
    if (measured.empty()) {
      for (unsigned q = 0; q < qc.num_qubits(); ++q) mj.push_back(q);
    } else {
      for (unsigned q : measured) mj.push_back(q);
    }
    cj.set("measured", std::move(mj));
    obs::JsonValue counts_json{obs::JsonValue::Object{}};
    for (const auto& [key, count] : counts) {
      counts_json.set(strfmt("%llu", static_cast<unsigned long long>(key)),
                      count);
    }
    cj.set("counts", std::move(counts_json));
    obs::JsonValue zj{obs::JsonValue::Array{}};
    for (double v : z) zj.push_back(v);
    cj.set("z_expectations", std::move(zj));
    const sim::EngineStats& st = backend->stats();
    engine_stats.push_back(st);
    obs::JsonValue sj{obs::JsonValue::Object{}};
    sj.set("gates", st.gates);
    sj.set("sweeps", st.sweeps);
    sj.set("dd_nodes", st.dd_nodes);
    sj.set("mps_max_bond", st.mps_max_bond);
    sj.set("truncation_error", st.truncation_error);
    cj.set("stats", std::move(sj));
    circuits_json.push_back(std::move(cj));
  }
  report.set("circuits", std::move(circuits_json));

  const std::string report_out = args.opt("report");
  if (!report_out.empty()) {
    obs::write_text_file(report_out, report.dump());
    std::printf("wrote %s\n", report_out.c_str());
  }
  return 0;
}

/// The transformer execution path of `run`: the paper's target/device
/// model. Each circuit's engine stats land in `engine_stats`.
int cmd_run_transformer(const Args& args,
                        std::vector<sim::EngineStats>& engine_stats) {
  core::TransformerOptions opts;
  opts.target = parse_target(args.str("target", "nvidia"));
  opts.precision = parse_precision(args.str("precision", "fp32"));
  opts.devices = static_cast<int>(args.u64("devices", 1));
  opts.fusion_width = static_cast<unsigned>(args.u64("fusion", 5));
  const core::RunOptions run{.shots = args.u64("shots", 0)};
  std::printf("kernel isa: %s (best supported: %s; override with "
              "QGEAR_ISA=scalar|sse2|avx2|avx512)\n",
              sim::isa_name(sim::active_isa()),
              sim::isa_name(sim::best_supported_isa()));

  std::vector<core::Kernel> kernels;
  std::vector<core::Result> results;
  {
    // Scoped so every span (including this root) closes before export.
    obs::Span root(obs::Tracer::global(), "cli.run", "cli");
    const core::GateTensor tensor = load_circuits(args.required("in"));
    core::Transformer transformer(opts);
    for (std::uint32_t c = 0; c < tensor.num_circuits(); ++c) {
      kernels.push_back(core::Kernel::from_tensor(tensor, c));
    }
    if (root.active()) {
      root.arg("circuits", std::uint64_t{kernels.size()});
      root.arg("target", args.str("target", "nvidia"));
    }
    results = transformer.run_batch(kernels, run);
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("[%zu] %s: %s wall, %llu sweeps, %s comm\n", i,
                kernels[i].name().c_str(),
                human_seconds(r.wall_seconds).c_str(),
                static_cast<unsigned long long>(r.stats.sweeps),
                human_bytes(r.comm_bytes).c_str());
    if (run.shots > 0) {
      std::size_t shown = 0;
      for (const auto& [key, count] : r.counts) {
        if (shown++ >= 8) {
          std::printf("    ... %zu more outcomes\n",
                      r.counts.size() - 8);
          break;
        }
        std::printf("    %llu: %llu\n",
                    static_cast<unsigned long long>(key),
                    static_cast<unsigned long long>(count));
      }
    }
    engine_stats.push_back(r.stats);
  }
  return 0;
}

/// `qgear_cli run`: the --backend/--auto path or the transformer path,
/// either one recording --trace-out and --metrics-out.
int cmd_run(const Args& args) {
  const std::string trace_out = args.opt("trace-out");
  const std::string metrics_out = args.opt("metrics-out");
  obs::Tracer& tracer = obs::Tracer::global();
  if (!trace_out.empty()) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  // An interrupted run flushes the same files a clean exit writes
  // (engine stats folded so far are missing, spans/metrics are not).
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::install_signal_flush();
    if (!trace_out.empty()) {
      obs::on_shutdown_flush(
          [trace_out, &tracer] { tracer.write_trace_json(trace_out); });
    }
    if (!metrics_out.empty()) {
      obs::on_shutdown_flush([metrics_out] {
        obs::write_text_file(metrics_out,
                             obs::Registry::global().snapshot().to_json());
      });
    }
  }

  std::vector<sim::EngineStats> engine_stats;
  const int rc = args.has("backend") || args.has("auto")
                     ? cmd_run_backend(args, engine_stats)
                     : cmd_run_transformer(args, engine_stats);
  if (!trace_out.empty()) {
    tracer.set_enabled(false);
    tracer.write_trace_json(trace_out);
    std::printf("wrote %s: %llu span(s), %llu dropped\n", trace_out.c_str(),
                static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  if (!metrics_out.empty()) {
    auto& reg = obs::Registry::global();
    for (const sim::EngineStats& st : engine_stats) {
      sim::fold_stats(reg, st, "engine");
    }
    const obs::RegistrySnapshot snap = reg.snapshot();
    obs::write_text_file(metrics_out, snap.to_json());
    std::printf("wrote %s: %zu counter(s), %zu gauge(s), %zu histogram(s)\n",
                metrics_out.c_str(), snap.counters.size(),
                snap.gauges.size(), snap.histograms.size());
  }
  return rc;
}

/// `qgear_cli plan` — routes every circuit in the tensor and prints the
/// decisions without executing anything. --report writes the combined
/// qgear.route.report/v1 document (docs/route_report.schema.json).
int cmd_plan(const Args& args) {
  route::Budget budget;
  budget.memory_bytes = args.u64("budget-mb", 0) << 20;
  budget.max_error = args.f64("max-error", 1e-4);
  budget.time_s = args.f64("time-budget-s", 0.0);
  route::RouteOptions ropts;
  ropts.calibration = calibration_from_args(args);
  ropts.base = backend_options_from_args(args);
  if (args.has("include-dist")) ropts.include_dist = true;

  const core::GateTensor tensor = load_circuits(args.required("in"));
  std::vector<std::string> names;
  std::vector<route::Placement> placements;
  for (std::uint32_t c = 0; c < tensor.num_circuits(); ++c) {
    const auto qc = core::decode_circuit(tensor, c);
    route::Placement p = route::plan(qc, budget, ropts);
    std::printf("[%u] %s:\n", c, qc.name().c_str());
    for (const std::string& line : p.rationale) {
      std::printf("    %s\n", line.c_str());
    }
    if (args.has("verbose")) {
      for (const route::Candidate& alt : p.alternatives) {
        std::printf("    %-10s %s isa=%-6s w=%u  %10s  %10s%s%s\n",
                    alt.config.backend.c_str(), alt.config.precision.c_str(),
                    sim::isa_name(alt.config.isa), alt.config.fusion_width,
                    human_seconds(alt.seconds).c_str(),
                    human_bytes(alt.mem_bytes).c_str(),
                    alt.feasible ? "" : "  REJECTED: ",
                    alt.reject_reason.c_str());
      }
    }
    names.push_back(qc.name());
    placements.push_back(std::move(p));
  }

  const std::string report_out = args.opt("report");
  if (!report_out.empty()) {
    obs::write_text_file(
        report_out, route::make_report(names, placements, budget).dump());
    std::printf("wrote %s\n", report_out.c_str());
  }
  const bool all_feasible =
      std::all_of(placements.begin(), placements.end(),
                  [](const route::Placement& p) { return p.feasible; });
  return all_feasible ? 0 : 1;
}

/// Times one backend run (init + apply) of `qc`, best of `repeats`. Min,
/// not median: scheduler noise only adds time, and bench_route_sweep
/// measures candidates the same way, so the stored ratios stay
/// comparable to what the sweep observes.
double measure_backend_wall(const std::string& backend,
                            const sim::BackendOptions& bo,
                            const qiskit::QuantumCircuit& qc,
                            unsigned repeats) {
  double best = 0.0;
  for (unsigned r = 0; r < std::max(repeats, 1u); ++r) {
    auto b = sim::Backend::create(backend, bo);
    b->init_state(qc.num_qubits());
    WallTimer timer;
    std::vector<unsigned> measured;
    b->apply_circuit(qc, &measured);
    const double wall = timer.seconds();
    if (best == 0.0 || wall < best) best = wall;
    if (wall > 1.0) break;  // slow configs don't need noise suppression
  }
  return best;
}

/// `qgear_cli calibrate` — refreshes the router's time model for this
/// host and writes qgear.route.calibration/v1 JSON. Layer 1: sweep
/// bandwidth per precision from the perfmodel probe. Layer 2: measured
/// wall times for the routing suite (qft12 / random12 / ghz40) on every
/// backend x precision where the pair is tractable, paired with the
/// analytic estimate so the cost model can learn a per-pair scale.
int cmd_calibrate(const Args& args) {
  const unsigned repeats = static_cast<unsigned>(args.u64("repeats", 3));
  const unsigned probe_qubits =
      static_cast<unsigned>(args.u64("probe-qubits", 18));

  route::Calibration calib;
  calib.source = "qgear_cli calibrate";
  calib.sweep_bw_fp32_bps = perfmodel::measure_local_sweep_bandwidth(
      probe_qubits, 40, core::Precision::fp32);
  calib.sweep_bw_fp64_bps = perfmodel::measure_local_sweep_bandwidth(
      probe_qubits, 40, core::Precision::fp64);
  std::printf("sweep bandwidth: fp32 %s/s, fp64 %s/s (%u-qubit probe)\n",
              human_bytes(std::uint64_t(calib.sweep_bw_fp32_bps)).c_str(),
              human_bytes(std::uint64_t(calib.sweep_bw_fp64_bps)).c_str(),
              probe_qubits);

  if (!args.has("skip-suite")) {
    // The measured suite: same circuits the CI route-smoke job runs.
    auto qft12 = circuits::build_qft(12, {});
    auto random12 = circuits::generate_random_circuit(
        {.num_qubits = 12, .num_blocks = 120, .seed = 1});
    qiskit::QuantumCircuit ghz40(40, "ghz40");
    ghz40.h(0);
    for (unsigned q = 0; q + 1 < 40; ++q) ghz40.cx(q, q + 1);

    struct SuiteRun {
      const char* label;
      const qiskit::QuantumCircuit* qc;
      const char* backend;
      const char* precision;
    };
    // Statevector pairs stop at 12 qubits; ghz40 is compact-engine
    // territory (2^40 amplitudes never fit), which is the point: the
    // table should teach the model where each engine family wins.
    const SuiteRun suite[] = {
        {"qft12", &qft12, "fused", "fp32"},
        {"qft12", &qft12, "fused", "fp64"},
        {"qft12", &qft12, "reference", "fp32"},
        {"qft12", &qft12, "reference", "fp64"},
        {"qft12", &qft12, "dd", "fp64"},
        {"qft12", &qft12, "mps", "fp64"},
        {"random12", &random12, "fused", "fp32"},
        {"random12", &random12, "fused", "fp64"},
        {"random12", &random12, "reference", "fp32"},
        {"random12", &random12, "reference", "fp64"},
        {"random12", &random12, "dd", "fp64"},
        {"random12", &random12, "mps", "fp64"},
        {"ghz40", &ghz40, "dd", "fp64"},
        {"ghz40", &ghz40, "mps", "fp64"},
    };
    // Analytic estimates are priced against the layer-1 constants only
    // (an empty measured table): the stored measured/analytic ratio must
    // be relative to the pure model, or scales would compound when the
    // cost model later re-applies the lookup table.
    route::Calibration layer1 = calib;
    layer1.measured.clear();
    for (const SuiteRun& run : suite) {
      sim::BackendOptions bo;
      bo.fp32 = std::string(run.precision) == "fp32";
      route::MeasuredPoint p;
      p.circuit = run.label;
      p.backend = run.backend;
      p.precision = run.precision;
      p.qubits = run.qc->num_qubits();
      p.gates = run.qc->size();
      p.measured_s = measure_backend_wall(run.backend, bo, *run.qc, repeats);
      const sim::Program program =
          sim::compile(qiskit::transpile(*run.qc), bo.fusion.max_width);
      p.analytic_s = route::time_estimate_for(run.backend, run.precision,
                                              program, layer1, bo)
                         .seconds;
      std::printf("  %-9s %-10s %s: measured %s, analytic %s (x%.2f)\n",
                  p.circuit.c_str(), p.backend.c_str(), p.precision.c_str(),
                  human_seconds(p.measured_s).c_str(),
                  human_seconds(p.analytic_s).c_str(),
                  p.analytic_s > 0 ? p.measured_s / p.analytic_s : 0.0);
      calib.measured.push_back(std::move(p));
    }
  }

  const std::string out = args.str("out", "calibration.json");
  calib.save(out);
  std::printf("wrote %s (%zu measured point(s))\n", out.c_str(),
              calib.measured.size());
  return 0;
}

obs::JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  QGEAR_CHECK_ARG(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::JsonValue::parse(buf.str());
}

/// Per-qubit P(bit = 1) marginals of a sampled counts object, in
/// measured-qubit order. Sampled marginals concentrate at 1/sqrt(shots),
/// unlike the joint empirical distribution, so they are the right
/// cross-backend comparison for wide-support circuits.
std::vector<double> sampled_marginals(const obs::JsonValue& circuit) {
  const auto& measured = circuit.at("measured").array();
  std::vector<double> ones(measured.size(), 0.0);
  double total = 0;
  for (const auto& [key, count] : circuit.at("counts").object()) {
    const std::uint64_t k = std::stoull(key);
    const double cnt = count.number();
    total += cnt;
    for (std::size_t j = 0; j < measured.size(); ++j) {
      if ((k >> j) & 1) ones[j] += cnt;
    }
  }
  if (total > 0) {
    for (double& v : ones) v /= total;
  }
  return ones;
}

/// Compares two qgear.backend.report/v1 documents circuit-by-circuit:
/// sampled per-qubit marginals within --marginal-tol and exact Z
/// expectations within --exp-tol. Exit 0 = equivalent.
int cmd_diff_reports(const Args& args) {
  const obs::JsonValue a = load_json(args.required("a"));
  const obs::JsonValue b = load_json(args.required("b"));
  QGEAR_CHECK_ARG(a.at("schema").str() == "qgear.backend.report/v1" &&
                      b.at("schema").str() == "qgear.backend.report/v1",
                  "diff-reports: expected qgear.backend.report/v1 inputs");
  const double marginal_tol = args.f64("marginal-tol", 0.05);
  const double exp_tol = args.f64("exp-tol", 0.02);
  const auto& ca = a.at("circuits").array();
  const auto& cb = b.at("circuits").array();
  if (ca.size() != cb.size()) {
    std::fprintf(stderr, "circuit count mismatch: %zu vs %zu\n", ca.size(),
                 cb.size());
    return 1;
  }
  int failures = 0;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    const auto& x = ca[i];
    const auto& y = cb[i];
    const std::string cname = x.at("name").str();
    if (x.at("qubits").number() != y.at("qubits").number()) {
      std::fprintf(stderr, "[%zu] %s: qubit count mismatch\n", i,
                   cname.c_str());
      ++failures;
      continue;
    }
    double max_marg = 0;
    const bool have_counts = !x.at("counts").object().empty() &&
                             !y.at("counts").object().empty();
    if (have_counts) {
      const auto ma = sampled_marginals(x);
      const auto mb = sampled_marginals(y);
      QGEAR_CHECK_ARG(ma.size() == mb.size(),
                      "diff-reports: measured-qubit mismatch in " + cname);
      for (std::size_t j = 0; j < ma.size(); ++j) {
        max_marg = std::max(max_marg, std::abs(ma[j] - mb[j]));
      }
    }
    double max_exp = 0;
    const auto& za = x.at("z_expectations").array();
    const auto& zb = y.at("z_expectations").array();
    for (std::size_t j = 0; j < std::min(za.size(), zb.size()); ++j) {
      max_exp =
          std::max(max_exp, std::abs(za[j].number() - zb[j].number()));
    }
    const bool ok = max_marg <= marginal_tol && max_exp <= exp_tol;
    std::printf("[%zu] %s: max |dP1| %.4f (tol %.4f), max |d<Z>| %.4f "
                "(tol %.4f)%s -> %s\n",
                i, cname.c_str(), max_marg, marginal_tol, max_exp, exp_tol,
                have_counts ? "" : " [no counts]", ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "diff-reports: %d circuit(s) differ beyond "
                 "tolerance (%s vs %s)\n",
                 failures, a.at("backend").str().c_str(),
                 b.at("backend").str().c_str());
  }
  return failures == 0 ? 0 : 1;
}

int cmd_estimate(const Args& args) {
  if (args.has("backend")) {
    const core::GateTensor tensor = load_circuits(args.required("in"));
    const sim::BackendOptions bo = backend_options_from_args(args);
    const std::uint64_t budget = args.u64("budget-mb", 0) << 20;
    std::vector<std::string> names;
    const std::string sel = args.opt("backend");
    if (sel.empty() || sel == "all") {
      names = sim::Backend::available();
    } else {
      names = split(sel, ',');
    }
    const double max_error = args.f64("max-error", 1e-4);
    const route::Calibration calib = calibration_from_args(args);
    for (std::uint32_t c = 0; c < tensor.num_circuits(); ++c) {
      const auto qc = core::decode_circuit(tensor, c);
      // One program per circuit prices every backend and precision.
      const sim::Program program =
          sim::compile(qiskit::transpile(qc), bo.fusion.max_width);
      std::printf("[%u] %s (%u qubits, %zu gates):\n", c, qc.name().c_str(),
                  qc.num_qubits(), qc.size());
      std::printf("  %-10s %12s %12s %6s\n", "backend", "memory", "time",
                  "prec");
      for (const std::string& nm : names) {
        // Chosen precision per backend: fp32 where the engine supports
        // it and the propagated error stays inside --max-error. The
        // memory column is at that precision (the serve admission
        // currency).
        const auto e32 =
            route::time_estimate_for(nm, "fp32", program, calib, bo);
        const auto e64 =
            route::time_estimate_for(nm, "fp64", program, calib, bo);
        const bool pick32 = e32.supported && e32.error_bound <= max_error &&
                            e32.seconds <= e64.seconds;
        const auto& t = pick32 ? e32 : e64;
        const bool over = budget > 0 && t.mem_bytes > budget;
        std::printf("  %-10s %12s %12s %6s%s\n", nm.c_str(),
                    human_bytes(t.mem_bytes).c_str(),
                    human_seconds(t.seconds).c_str(),
                    pick32 ? "fp32" : "fp64",
                    over ? "  (over budget)" : "");
      }
    }
    return 0;
  }
  const core::GateTensor tensor = load_circuits(args.required("in"));
  perfmodel::ClusterConfig cfg;
  cfg.devices = static_cast<int>(args.u64("devices", 1));
  cfg.precision = parse_precision(args.str("precision", "fp32"));
  if (args.u64("gpu", 40) == 80) cfg.gpu = perfmodel::a100_80gb();
  const std::uint64_t shots = args.u64("shots", 0);
  const bool show_schedule = args.has("schedule");
  const comm::Topology topo{
      .ranks_per_domain =
          static_cast<unsigned>(args.u64("ranks-per-domain", 4))};

  for (std::uint32_t c = 0; c < tensor.num_circuits(); ++c) {
    const auto qc = core::decode_circuit(tensor, c);
    const auto e = perfmodel::estimate_gpu(qc, cfg, shots);
    if (!e.feasible) {
      std::printf("[%u] %s: infeasible — %s\n", c, qc.name().c_str(),
                  e.infeasible_reason.c_str());
      continue;
    }
    std::printf("[%u] %s on %d x %s: total %s (compute %s, comm %s, "
                "sample %s, startup %s)\n",
                c, qc.name().c_str(), cfg.devices, cfg.gpu.name.c_str(),
                human_seconds(e.total_s()).c_str(),
                human_seconds(e.compute_s).c_str(),
                human_seconds(e.comm_s).c_str(),
                human_seconds(e.sample_s).c_str(),
                human_seconds(e.startup_s).c_str());
    if (!show_schedule || cfg.devices < 2) continue;
    // The batched exchange schedule the distributed engine would run:
    // peers/tiers shown from rank 0's perspective (every rank runs the
    // same rounds against its own XOR partners).
    const unsigned r = log2_exact(static_cast<std::uint64_t>(cfg.devices));
    const unsigned num_local = qc.num_qubits() - r;
    const std::size_t amp_b = core::amp_bytes(cfg.precision);
    const sim::Program program =
        dist::compile(qc, cfg.fusion_width, num_local);
    std::printf("  exchange schedule: %llu slab swap(s) in batches, "
                "%s ranks/domain\n",
                static_cast<unsigned long long>(program.slab_swaps),
                topo.ranks_per_domain == 0
                    ? "all"
                    : std::to_string(topo.ranks_per_domain).c_str());
    std::size_t batch_no = 0;
    for (const sim::Segment& seg : program.segments) {
      const sim::SwapBatch& batch = seg.batch;
      if (batch.swaps.empty()) continue;
      const std::uint64_t per_round =
          (pow2(num_local) >> batch.swaps.size()) * amp_b;
      std::printf("  batch %zu: k=%zu, %zu rounds, %s/rank/round\n",
                  batch_no++, batch.swaps.size(), batch.peer_masks.size(),
                  human_bytes(per_round).c_str());
      for (std::size_t d = 1; d <= batch.peer_masks.size(); ++d) {
        const int peer = static_cast<int>(batch.peer_masks[d - 1]);
        std::printf("    round %zu: peer ^%d (rank0<->%d), %s, %s\n", d,
                    peer, peer, comm::tier_name(topo.tier(0, peer)),
                    human_bytes(per_round).c_str());
      }
    }
  }
  return 0;
}

int cmd_qasm_export(const Args& args) {
  const core::GateTensor tensor = load_circuits(args.required("in"));
  const auto index = static_cast<std::uint32_t>(args.u64("index", 0));
  const auto qc = core::decode_circuit(tensor, index);
  qiskit::qasm::save(qc, args.required("out"));
  std::printf("wrote %s (%zu gates)\n", args.required("out").c_str(),
              qc.size());
  return 0;
}

void print_usage() {
  std::printf(
      "qgear_cli <command> [flags]\n"
      "commands: gen-random gen-qft gen-ghz gen-image info run plan "
      "calibrate diff-reports estimate qasm-export\n"
      "see the header of tools/qgear_cli.cpp for full flag reference.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string cmd = argv[1];
  dist::register_dist_backend();  // make "dist" creatable by name
  try {
    const Args args(argc, argv);
    if (args.has("log")) log::set_level(log::parse_level(args.required("log")));
    if (cmd == "gen-random") return cmd_gen_random(args);
    if (cmd == "gen-qft") return cmd_gen_qft(args);
    if (cmd == "gen-ghz") return cmd_gen_ghz(args);
    if (cmd == "gen-image") return cmd_gen_image(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "calibrate") return cmd_calibrate(args);
    if (cmd == "diff-reports") return cmd_diff_reports(args);
    if (cmd == "estimate") return cmd_estimate(args);
    if (cmd == "qasm-export") return cmd_qasm_export(args);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    print_usage();
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
