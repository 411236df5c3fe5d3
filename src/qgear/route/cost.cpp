#include "qgear/route/cost.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "qgear/common/error.hpp"
#include "qgear/common/strings.hpp"
#include "qgear/perfmodel/model.hpp"

namespace qgear::route {

namespace {

/// Per-gate rounding step for the random-walk error accumulation model.
/// The factor over machine epsilon covers the handful of flops each
/// amplitude sees per (fused) gate application.
constexpr double kFp32GateError = 1.19209290e-07 * 4.0;
constexpr double kFp64GateError = 2.22044605e-16 * 4.0;

/// Blends the analytic estimate with the measured lookup table: a
/// per-(backend, precision) scale factor, weighted by similarity of
/// workload shape (log gate-count distance + qubit distance). An exact
/// suite hit dominates the average and reproduces the measured time.
double measured_scale(const Calibration& calib, const CandidateConfig& cfg,
                      const CircuitFeatures& f, double analytic_s) {
  if (analytic_s <= 0.0) return 1.0;
  double wsum = 0.0, acc = 0.0;
  for (const MeasuredPoint& p : calib.measured) {
    if (p.backend != cfg.backend || p.precision != cfg.precision) continue;
    if (p.analytic_s <= 0.0 || p.measured_s <= 0.0) continue;
    const double lg = std::fabs(
        std::log2(double(std::max<std::uint64_t>(p.gates, 1)) /
                  double(std::max<std::uint64_t>(f.total_gates, 1))));
    const double dq = std::fabs(double(p.qubits) - double(f.num_qubits)) / 8.0;
    // Exponential kernel: an exact suite hit must dominate dissimilar
    // points, because the measured/analytic ratio is strongly
    // shape-dependent (launch overhead vs. sweep cost flips between
    // small and large states).
    const double w = std::exp(-2.0 * (lg + dq));
    // Wide clamp: real measured/analytic ratios reach 100x+ for the
    // compact engines on volume-law circuits (the analytic node/bond
    // heuristics are deliberately cheap); the similarity weighting, not
    // the clamp, is what keeps extrapolation sane. Blending happens in
    // log space — ratios span orders of magnitude, and an arithmetic
    // mean would let one dissimilar 100x point swamp an exact 0.1x hit.
    const double ratio =
        std::clamp(p.measured_s / p.analytic_s, 1e-3, 1e3);
    wsum += w;
    acc += w * std::log(ratio);
  }
  if (wsum == 0.0) return 1.0;
  return std::clamp(std::exp(acc / wsum), 1e-3, 1e3);
}

/// Prices the reference engine (a sweep per gate) or the fused engine
/// (`fused_sweeps` blocks at cfg.fusion_width) with perfmodel's roofline,
/// at this host's calibrated rates scaled by the ISA tier.
TimeEstimate statevector_estimate(const qiskit::QuantumCircuit& qc,
                                  const CircuitFeatures& f,
                                  const CandidateConfig& cfg,
                                  const Calibration& calib,
                                  const sim::BackendOptions& base,
                                  std::uint64_t fused_sweeps) {
  TimeEstimate est;
  const bool fp32 = cfg.precision == "fp32";
  const double isa_f = isa_speed_factor(cfg.isa);
  const perfmodel::SweepRates rates{
      .bandwidth_bps =
          (fp32 ? calib.sweep_bw_fp32_bps : calib.sweep_bw_fp64_bps) * isa_f,
      .launch_s = calib.sweep_launch_s,
      .dense_flops_ps = calib.dense_flops_ps * isa_f};
  perfmodel::SweepWork work{
      .sweeps = std::max<std::uint64_t>(f.unitary_gates, 1),
      .qubits = f.num_qubits,
      .amp_bytes = fp32 ? sizeof(std::complex<float>)
                        : sizeof(std::complex<double>)};
  const bool fused = cfg.backend == "fused";
  if (fused) {
    work.sweeps = fused_sweeps;
    work.width = std::max(1u, cfg.fusion_width);
    work.dense_fraction =
        f.fused_blocks == 0
            ? 1.0
            : double(f.dense_blocks) / double(f.fused_blocks);
    work.build_gates = f.unitary_gates;
  }
  const perfmodel::SweepCost cost = perfmodel::price_sweeps(work, rates);
  est.seconds = cost.total_s();
  est.error_bound = fp32 ? fp32_error_bound(f.unitary_gates)
                         : fp64_error_bound(f.unitary_gates);
  sim::BackendOptions bo = base;
  bo.fp32 = fp32;
  bo.fusion.max_width = fused ? work.width : bo.fusion.max_width;
  est.mem_bytes = sim::Backend::memory_estimate_for(cfg.backend, qc, bo);
  est.detail = strfmt("%llu sweeps @ %s/s%s",
                      static_cast<unsigned long long>(work.sweeps),
                      human_bytes(std::uint64_t(rates.bandwidth_bps)).c_str(),
                      cost.flop_bound ? " (flop-bound)" : "");
  return est;
}

TimeEstimate dd_estimate(const qiskit::QuantumCircuit& qc,
                         const CircuitFeatures& f, const Calibration& calib,
                         const sim::BackendOptions& base) {
  TimeEstimate est;
  // Active node estimate from the entanglement proxy: structured
  // (low-bond) circuits keep diagrams near-linear, volume-law mixing
  // doubles per entangling layer. Exponent 2*bond+1 is a deliberate
  // over-estimate for rotation-heavy circuits (dense random states are
  // dd's worst case), tempered by the Clifford fraction.
  const double exp_raw =
      (2.0 * f.max_bond_exponent + 1.0) * (1.0 - 0.5 * f.clifford_fraction);
  const unsigned cap_exp = std::min(f.num_qubits + 1, 40u);
  const double node_exp = std::min(double(cap_exp), exp_raw);
  double est_nodes = std::pow(2.0, node_exp);
  if (base.dd.max_nodes > 0)
    est_nodes = std::min(est_nodes, double(base.dd.max_nodes));
  const std::uint64_t gates = std::max<std::uint64_t>(f.unitary_gates, 1);
  est.seconds =
      double(gates) * (calib.dd_gate_base_s + est_nodes * calib.dd_gate_node_s);
  est.error_bound = fp64_error_bound(gates);
  est.mem_bytes = sim::Backend::memory_estimate_for("dd", qc, base);
  est.detail = strfmt("~2^%.0f active nodes", node_exp);
  return est;
}

TimeEstimate mps_estimate(const qiskit::QuantumCircuit& qc,
                          const CircuitFeatures& f, const Calibration& calib,
                          const sim::BackendOptions& base) {
  TimeEstimate est;
  double chi = std::pow(2.0, std::min(f.mean_bond_exponent, 30.0));
  if (base.mps.max_bond > 0) chi = std::min(chi, double(base.mps.max_bond));
  const std::uint64_t g1 = f.unitary_gates - f.two_qubit_gates;
  est.seconds = double(g1) * 2.0 * chi * chi * calib.mps_unit1q_s +
                double(std::max<std::uint64_t>(f.mps_effective_2q, 1)) * 8.0 *
                    chi * chi * chi * calib.mps_unit2q_s;
  // Truncation, not rounding, dominates mps accuracy: each SVD may
  // discard up to `cutoff` squared weight.
  est.error_bound =
      base.mps.cutoff * double(std::max<std::uint64_t>(f.mps_effective_2q, 1)) +
      fp64_error_bound(f.unitary_gates);
  est.mem_bytes = sim::Backend::memory_estimate_for("mps", qc, base);
  est.detail = strfmt("chi~%.0f, %llu effective 2q", chi,
                      static_cast<unsigned long long>(f.mps_effective_2q));
  return est;
}

}  // namespace

double fp32_error_bound(std::uint64_t unitary_gates) {
  return kFp32GateError *
         std::sqrt(double(std::max<std::uint64_t>(unitary_gates, 1)));
}

double fp64_error_bound(std::uint64_t unitary_gates) {
  return kFp64GateError *
         std::sqrt(double(std::max<std::uint64_t>(unitary_gates, 1)));
}

double isa_speed_factor(sim::Isa isa) {
  switch (isa) {
    case sim::Isa::avx512: return 1.0;
    case sim::Isa::avx2: return 1.0;
    case sim::Isa::sse2: return 0.6;
    case sim::Isa::scalar: return 0.3;
  }
  return 1.0;
}

TimeEstimate time_estimate(const qiskit::QuantumCircuit& qc,
                           const CircuitFeatures& f,
                           const CandidateConfig& cfg,
                           const Calibration& calib,
                           const sim::BackendOptions& base,
                           std::uint64_t fused_sweeps) {
  TimeEstimate est;
  if (cfg.precision == "fp32" && (cfg.backend == "dd" || cfg.backend == "mps" ||
                                  cfg.backend == "dist")) {
    est.supported = false;
    est.detail = cfg.backend + " is double-precision only";
    return est;
  }
  if (cfg.backend == "reference" || cfg.backend == "fused") {
    est = statevector_estimate(qc, f, cfg, calib, base, fused_sweeps);
  } else if (cfg.backend == "dd") {
    est = dd_estimate(qc, f, calib, base);
  } else if (cfg.backend == "mps") {
    est = mps_estimate(qc, f, calib, base);
  } else if (cfg.backend == "dist") {
    // Fused execution across ranks plus exchange overhead; the
    // single-process dist backend never beats local fused, so a flat
    // penalty over the fp64 fused model is honest enough for ranking.
    // The features' program is compiled at the base width the ranks run.
    CandidateConfig fcfg = cfg;
    fcfg.backend = "fused";
    fcfg.fusion_width = base.fusion.max_width;
    est = statevector_estimate(qc, f, fcfg, calib, base, f.fused_blocks);
    est.seconds *= 1.5;
    est.mem_bytes = sim::Backend::memory_estimate_for("dist", qc, base);
    est.detail = "fused fp64 model x1.5 exchange overhead";
  } else {
    // Unknown to the model (an externally registered backend): price by
    // its own memory estimate and the reference sweep model so it still
    // ranks, but mark the detail.
    CandidateConfig rcfg = cfg;
    rcfg.backend = "reference";
    est = statevector_estimate(qc, f, rcfg, calib, base, 0);
    est.mem_bytes = sim::Backend::memory_estimate_for(cfg.backend, qc, base);
    est.detail = "no model for '" + cfg.backend + "'; reference sweep proxy";
  }
  est.seconds *= measured_scale(calib, cfg, f, est.seconds);
  return est;
}

TimeEstimate time_estimate_for(const std::string& backend,
                               const std::string& precision,
                               const sim::Program& program,
                               const Calibration& calib,
                               const sim::BackendOptions& base) {
  QGEAR_CHECK_ARG((backend != "fused" && backend != "dist") ||
                      !program.segments.empty(),
                  "route: the " + backend + " price needs a compiled program");
  const CircuitFeatures f = extract_features(program);
  CandidateConfig cfg;
  cfg.backend = backend;
  cfg.precision = precision.empty() ? "fp64" : precision;
  cfg.isa = sim::active_isa();
  cfg.fusion_width = base.fusion.max_width;
  return time_estimate(program.circuit, f, cfg, calib, base, f.fused_blocks);
}

}  // namespace qgear::route
