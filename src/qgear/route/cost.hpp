// Per-backend time / accuracy model for the autotuner.
//
// Every candidate configuration (backend × precision × ISA × fusion
// width) is priced in three currencies:
//
//   seconds      — the analytic model below, rescaled by the measured
//                  lookup table (Calibration::measured);
//   mem_bytes    — Backend::memory_estimate, the serve admission
//                  currency, at the candidate's precision;
//   error_bound  — a propagated accuracy proxy: per-gate fp32/fp64
//                  rounding growing as sqrt(gates) (random-walk
//                  accumulation) for statevector engines, SVD cutoff ×
//                  effective 2q gates for mps, ~machine epsilon for dd.
//
// Analytic time, per backend family:
//   statevector  perfmodel::price_sweeps — the roofline estimate_gpu
//                prices the paper's A100 with — at this host's rates:
//                Calibration layer 1 per precision, times an ISA tier
//                factor (avx2 measured ≈ 3x scalar). dist is the fused
//                model at the base width, x1.5 for its exchanges.
//   dd           gates × (base + est_nodes × per-node); est_nodes from
//                the entanglement proxy, capped by the node budget.
//   mps          chi^2 per 1q gate and chi^3 per effective 2q gate
//                (swap chains included), chi from the structural bond
//                bound capped by max_bond.
#pragma once

#include <cstdint>
#include <string>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/route/calibration.hpp"
#include "qgear/route/features.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/isa.hpp"

namespace qgear::route {

/// One point in the router's search space.
struct CandidateConfig {
  std::string backend;          ///< registered sim::Backend name
  std::string precision;        ///< "fp32" | "fp64"
  sim::Isa isa = sim::Isa::scalar;
  unsigned fusion_width = 0;    ///< fused backend only; 0 elsewhere
};

/// Priced candidate.
struct TimeEstimate {
  bool supported = true;        ///< config is expressible (e.g. no fp32 dd)
  double seconds = 0.0;
  double error_bound = 0.0;
  std::uint64_t mem_bytes = 0;
  std::string detail;           ///< one-line model note for the rationale
};

/// Propagated fp32 rounding bound after `unitary_gates` gates
/// (kFp32GateError × sqrt(gates); see docs/AUTOTUNER.md).
double fp32_error_bound(std::uint64_t unitary_gates);
double fp64_error_bound(std::uint64_t unitary_gates);

/// ISA tier factor applied to effective sweep bandwidth / flop rate
/// (avx512 and avx2 = 1.0; lower tiers from the first SIMD kernels'
/// measurements). route::plan prices only the best supported tier.
double isa_speed_factor(sim::Isa isa);

/// Prices one candidate. `fused_sweeps` is the fused candidate's block
/// count at cfg.fusion_width (route::plan compiles once per width).
/// `base` carries the engine knobs (dd node budget, mps bond cap, the
/// fusion width the features were compiled at) that shape both the
/// memory estimate and the time model.
TimeEstimate time_estimate(const qiskit::QuantumCircuit& qc,
                           const CircuitFeatures& f,
                           const CandidateConfig& cfg,
                           const Calibration& calib,
                           const sim::BackendOptions& base,
                           std::uint64_t fused_sweeps);

/// Prices `program` on a fixed, already-chosen backend/precision at the
/// active ISA and `base.fusion.max_width`, without enumerating
/// alternatives. The fused and dist prices read the blocks of a program
/// compiled at that width (serve admission prices a fused job from the
/// program its worker runs); reference, dd, mps and unmodelled backends
/// read only its circuit, so a program that compiled nothing will do.
TimeEstimate time_estimate_for(const std::string& backend,
                               const std::string& precision,
                               const sim::Program& program,
                               const Calibration& calib,
                               const sim::BackendOptions& base = {});

}  // namespace qgear::route
