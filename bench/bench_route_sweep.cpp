// Route-sweep validation: does the autotuner's choice hold up against an
// exhaustive measured sweep of its own candidate space?
//
// For each routing-suite circuit (qft12 / random12 / ghz40 — the same
// set `qgear_cli calibrate` measures and CI's route-smoke job runs),
// route::plan ranks backend x precision x fusion width on the host's
// best ISA tier, then this bench *measures* every feasible candidate
// whose estimate is tractable and compares the autotuned choice against
// the measured optimum. The contract (EXPERIMENTS.md): the choice lands
// within 10% of the best measured config, and never more than 2x worse.
//
// Calibration comes from Calibration::host_default(), so point
// QGEAR_ROUTE_CALIBRATION at bench/baselines/route/calibration.json (or
// a fresh `qgear_cli calibrate` output) to exercise the measured-table
// blending; with built-in constants the 10% bar is not expected to hold
// on every host, and the bench says which mode it ran in.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/timer.hpp"
#include "qgear/route/route.hpp"
#include "qgear/sim/backend.hpp"
#include "qgear/sim/isa.hpp"

using namespace qgear;

namespace {

/// Best-of-`repeats` wall time of a full backend run (init + apply) of
/// the candidate's exact configuration, active ISA included. Min, not
/// median: at the sub-millisecond scale of the small suite circuits
/// scheduler noise only ever adds time, so the minimum is the stable
/// estimator of the config's real cost.
double measure_candidate(const qiskit::QuantumCircuit& qc,
                         const route::Candidate& cand,
                         const sim::BackendOptions& base, unsigned repeats) {
  sim::BackendOptions bo = base;
  bo.fp32 = cand.config.precision == "fp32";
  if (cand.config.fusion_width > 0)
    bo.fusion.max_width = cand.config.fusion_width;
  const sim::Isa prev = sim::active_isa();
  sim::set_active_isa(cand.config.isa);
  double best = 0.0;
  for (unsigned r = 0; r < repeats; ++r) {
    auto b = sim::Backend::create(cand.config.backend, bo);
    b->init_state(qc.num_qubits());
    WallTimer timer;
    std::vector<unsigned> measured;
    b->apply_circuit(qc, &measured);
    const double wall = timer.seconds();
    if (best == 0.0 || wall < best) best = wall;
    if (wall > 1.0) break;  // slow configs don't need noise suppression
  }
  sim::set_active_isa(prev);
  return best;
}

std::string config_label(const route::CandidateConfig& cfg) {
  std::string s = cfg.backend + "/" + cfg.precision + "/" +
                  sim::isa_name(cfg.isa);
  if (cfg.fusion_width > 0) s += "/w" + std::to_string(cfg.fusion_width);
  return s;
}

struct SweepOutcome {
  std::string circuit;
  std::string chosen;
  std::string best;
  double chosen_s = 0.0;
  double best_s = 0.0;
  std::size_t swept = 0;
  std::size_t skipped = 0;
};

/// Re-measures two near-tied candidates interleaved (A,B,A,B,...) so
/// drift (thermal, page cache, allocator state) hits both equally; the
/// single-pass sweep measures each config in a different machine state,
/// which at the ~100us scale of the small suite circuits is enough to
/// flip a ranking.
void refine_pair(const qiskit::QuantumCircuit& qc,
                 const route::Candidate& chosen, const route::Candidate& best,
                 const sim::BackendOptions& base, unsigned rounds,
                 double* chosen_s, double* best_s) {
  for (unsigned r = 0; r < rounds; ++r) {
    const double a = measure_candidate(qc, chosen, base, 1);
    const double b = measure_candidate(qc, best, base, 1);
    if (*chosen_s == 0.0 || a < *chosen_s) *chosen_s = a;
    if (*best_s == 0.0 || b < *best_s) *best_s = b;
  }
}

SweepOutcome sweep_circuit(const std::string& label,
                           const qiskit::QuantumCircuit& qc,
                           const route::RouteOptions& ropts,
                           double est_cap_s, unsigned repeats) {
  bench::subheading("sweep: " + label);
  route::Budget budget;
  budget.max_error = 1e-4;
  const route::Placement p = route::plan(qc, budget, ropts);

  SweepOutcome out;
  out.circuit = label;
  bench::Table table({"config", "est", "measured", "note"});
  double best_s = 0.0;
  std::string best_label;
  double chosen_s = 0.0;
  const route::Candidate* best_cand = nullptr;
  for (const route::Candidate& cand : p.alternatives) {
    if (!cand.feasible) continue;
    // Tractability cap: on the no-memory-budget sweep a 2^40 statevector
    // candidate is "feasible" but takes hours; everything skipped is
    // counted and printed, never silently dropped.
    if (cand.seconds > est_cap_s) {
      ++out.skipped;
      continue;
    }
    const double wall = measure_candidate(qc, cand, ropts.base, repeats);
    ++out.swept;
    const std::string cand_label = config_label(cand.config);
    const bool is_choice =
        p.feasible && cand_label == config_label(p.choice.config);
    if (is_choice) chosen_s = wall;
    if (best_s == 0.0 || wall < best_s) {
      best_s = wall;
      best_label = cand_label;
      best_cand = &cand;
    }
    table.row({cand_label, human_seconds(cand.seconds), human_seconds(wall),
               is_choice ? "<- chosen" : ""});
  }
  table.print();
  if (p.feasible && best_cand != nullptr &&
      config_label(best_cand->config) != config_label(p.choice.config)) {
    refine_pair(qc, p.choice, *best_cand, ropts.base, 10, &chosen_s, &best_s);
    std::printf("  refined (interleaved best-of-10): chosen %s, best %s\n",
                human_seconds(chosen_s).c_str(),
                human_seconds(best_s).c_str());
    if (chosen_s <= best_s) best_label = config_label(p.choice.config);
  }
  if (out.skipped > 0) {
    std::printf("  (%zu candidate(s) over the %.0fs estimate cap skipped)\n",
                out.skipped, est_cap_s);
  }
  out.chosen = p.feasible ? config_label(p.choice.config) : "(infeasible)";
  out.best = best_label;
  out.chosen_s = chosen_s;
  out.best_s = best_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_observability();
  bench::heading("Route sweep: autotuned choice vs exhaustive measurement");
  const route::RouteOptions ropts;  // host_default() calibration
  const std::string& source = ropts.calibration.source;
  const char* shown = source.empty() ? "built-in defaults" : source.c_str();
  std::printf("calibration: %s\n", shown);

  auto qft12 = circuits::build_qft(12, {});
  auto random12 = circuits::generate_random_circuit(
      {.num_qubits = 12, .num_blocks = 120, .seed = 1});
  qiskit::QuantumCircuit ghz40(40, "ghz40");
  ghz40.h(0);
  for (unsigned q = 0; q + 1 < 40; ++q) ghz40.cx(q, q + 1);

  const double est_cap_s = 10.0;
  const unsigned repeats = 5;
  std::vector<SweepOutcome> outcomes;
  outcomes.push_back(
      sweep_circuit("qft12", qft12, ropts, est_cap_s, repeats));
  outcomes.push_back(
      sweep_circuit("random12", random12, ropts, est_cap_s, repeats));
  outcomes.push_back(
      sweep_circuit("ghz40", ghz40, ropts, est_cap_s, repeats));

  bench::heading("Verdict (contract: within 10% of best, never >2x)");
  bench::Table verdict({"circuit", "chosen", "best measured", "chosen/best",
                        "<=1.1x", "<=2x"});
  bool all_within_2x = true;
  for (const SweepOutcome& o : outcomes) {
    // >= 1 by construction: a chosen config that re-measures faster than
    // the sweep's "best" just means the single-pass winner was noise.
    const double ratio = o.best_s > 0.0 && o.chosen_s > 0.0
                             ? std::max(1.0, o.chosen_s / o.best_s)
                             : 0.0;
    all_within_2x = all_within_2x && ratio > 0.0 && ratio <= 2.0;
    verdict.row({o.circuit, o.chosen, o.best, strfmt("%.2fx", ratio),
                 ratio > 0.0 && ratio <= 1.1 ? "yes" : "NO",
                 ratio > 0.0 && ratio <= 2.0 ? "yes" : "NO"});
    bench::StageLog::global().record("route_sweep." + o.circuit + ".ratio",
                                     ratio);
  }
  verdict.print();

  // Pure report bench — no google-benchmark timers to run.
  (void)argc;
  (void)argv;
  bench::write_report("route_sweep");
  return all_within_2x ? 0 : 1;
}
