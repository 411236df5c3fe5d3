// route::plan — the autotuner's decision API.
//
// Inspects a circuit (transpiled internally), enumerates the candidate
// space backend × precision × fusion width at the best ISA tier this
// host supports, prices every candidate with the cost model
// (route/cost.hpp), filters by the caller's Budget (memory bytes,
// optional wall-time cap, accuracy bound that forbids fp32 when the
// propagated error exceeds it), and returns the cheapest feasible
// candidate plus the full ranked alternatives list and a human-readable
// rationale. Deterministic: same circuit + budget + options -> same
// Placement (ties break on the candidate ordering).
//
// Serve uses it as the placement policy for `backend=auto` jobs; the CLI
// exposes it as `qgear_cli plan` / `run --auto`. Decisions are counted
// under `route.*` metrics and spanned (`route.plan`) so they nest under
// the submitting request's trace id. Reports serialize as
// `qgear.route.report/v1` (docs/route_report.schema.json).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qgear/obs/json.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/route/calibration.hpp"
#include "qgear/route/cost.hpp"
#include "qgear/route/features.hpp"
#include "qgear/sim/backend.hpp"

namespace qgear::route {

/// Caller constraints. Zero means "unlimited" for memory and time; the
/// accuracy bound always applies (it is what forbids fp32 on deep
/// circuits).
struct Budget {
  std::uint64_t memory_bytes = 0;  ///< hard cap on the memory estimate
  double time_s = 0.0;             ///< soft cap; candidates over it rank last
  double max_error = 1e-4;         ///< propagated error bound ceiling
};

/// One ranked candidate (feasible or not).
struct Candidate {
  CandidateConfig config;
  double seconds = 0.0;
  std::uint64_t mem_bytes = 0;
  double error_bound = 0.0;
  bool feasible = true;
  std::string reject_reason;  ///< empty when feasible
  std::string detail;         ///< cost-model note

  obs::JsonValue to_json() const;
};

/// The decision.
struct Placement {
  bool feasible = false;       ///< at least one candidate fit the budget
  Candidate choice;            ///< cheapest feasible (unset if !feasible)
  std::vector<Candidate> alternatives;  ///< ranked; feasible first
  CircuitFeatures features;
  std::vector<std::string> rationale;   ///< human-readable decision notes

  /// `qgear.route.report/v1` fragment for one circuit.
  obs::JsonValue to_json() const;
};

struct RouteOptions {
  Calibration calibration = Calibration::host_default();
  sim::BackendOptions base;          ///< engine knobs candidates inherit
  std::vector<unsigned> fusion_widths = {3, 5, 7};
  /// Consider the distributed backend (off by default: single-process
  /// dist never beats local fused; serve shards opt in).
  bool include_dist = false;
  /// Backends to drop from the candidate space. Serve's degradation path
  /// re-plans with every backend that already failed a job excluded, so
  /// the fallback chain (e.g. dd -> mps -> fused) never revisits one.
  std::vector<std::string> exclude_backends;
};

/// Routes `qc`. Transpiles, extracts features, prices and ranks the
/// candidate space. Never throws for "nothing fits" — check
/// Placement::feasible (serve maps it to a memory_budget rejection).
Placement plan(const qiskit::QuantumCircuit& qc, const Budget& budget,
               const RouteOptions& opts = {});

/// Wraps one or more placements in a complete `qgear.route.report/v1`
/// document. `names` labels each placement (parallel arrays).
obs::JsonValue make_report(const std::vector<std::string>& names,
                           const std::vector<Placement>& placements,
                           const Budget& budget);

}  // namespace qgear::route
