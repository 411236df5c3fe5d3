#include "qgear/dist/remap.hpp"

#include <algorithm>
#include <complex>

#include "qgear/common/bits.hpp"
#include "qgear/dist/dist_state.hpp"

namespace qgear::dist {

namespace {

using qiskit::GateKind;
using qiskit::Instruction;

bool is_diagonal_1q(GateKind k) {
  switch (k) {
    case GateKind::z:
    case GateKind::s:
    case GateKind::sdg:
    case GateKind::t:
    case GateKind::tdg:
    case GateKind::rz:
    case GateKind::p:
      return true;
    default:
      return false;
  }
}

// Exchange cost, in half-slab units per rank, that a *logical* instruction
// would pay if logical qubit `q` sat on a global slot: 2 for a full-slab
// 1q exchange, 1 for the half-slab cx path. Swap gates are elided by the
// planner and weigh nothing.
int exchange_weight(const Instruction& inst, unsigned q) {
  switch (inst.kind) {
    case GateKind::cx:
      return static_cast<unsigned>(inst.q1) == q ? 1 : 0;
    case GateKind::barrier:
    case GateKind::measure:
    case GateKind::cz:
    case GateKind::cp:
    case GateKind::swap:
      return 0;
    default:
      return !is_diagonal_1q(inst.kind) &&
                     static_cast<unsigned>(inst.q0) == q
                 ? 2
                 : 0;
  }
}

// Total bytes across all ranks for one baseline per-gate exchange:
// per-rank bytes times the number of participating ranks (all ranks for
// 1q exchanges and local-control cx; the control=1 half of the ranks for
// global-control cx). swap decomposes into three cx like the engine.
std::uint64_t baseline_bytes_total(const Instruction& inst,
                                   unsigned num_qubits, unsigned num_local,
                                   std::size_t amp_bytes,
                                   std::uint64_t ranks) {
  if (inst.kind == GateKind::swap) {
    std::uint64_t total = 0;
    total += baseline_bytes_total({GateKind::cx, inst.q0, inst.q1, 0.0},
                                  num_qubits, num_local, amp_bytes, ranks);
    total += baseline_bytes_total({GateKind::cx, inst.q1, inst.q0, 0.0},
                                  num_qubits, num_local, amp_bytes, ranks);
    total += baseline_bytes_total({GateKind::cx, inst.q0, inst.q1, 0.0},
                                  num_qubits, num_local, amp_bytes, ranks);
    return total;
  }
  const std::uint64_t per_rank =
      exchange_bytes_for(inst, num_qubits, num_local, amp_bytes);
  if (per_rank == 0) return 0;
  std::uint64_t participants = ranks;
  if (inst.kind == GateKind::cx &&
      static_cast<unsigned>(inst.q0) >= num_local &&
      static_cast<unsigned>(inst.q1) >= num_local) {
    participants = ranks / 2;
  }
  return per_rank * participants;
}

/// Instructions scanned ahead of an exchange-triggering gate when
/// weighing a swap against the residual per-gate schedule.
constexpr unsigned kLookahead = 96;

/// One greedy planning pass with a fixed batch-width cap and lookahead.
/// The greedy width interacts with the whole downstream schedule (each
/// extra evicts a local qubit whose later gates then pay per-gate), so
/// plan_remap prices several caps and keeps the cheapest.
RemapPlan plan_remap_width(const qiskit::QuantumCircuit& qc,
                           unsigned num_local, unsigned max_batch_cap,
                           unsigned lookahead) {
  const unsigned n = qc.num_qubits();
  RemapPlan plan;
  plan.num_qubits = n;
  plan.num_local = num_local;

  std::vector<unsigned> l2p(n), p2l(n);
  for (unsigned q = 0; q < n; ++q) l2p[q] = p2l[q] = q;

  const auto& ops = qc.instructions();
  RemapSegment cur;
  auto flush_segment = [&] {
    if (cur.swaps.empty() && cur.insts.empty()) return;
    plan.segments.push_back(std::move(cur));
    cur = RemapSegment{};
  };

  // Rewrites a logical instruction into physical qubit ids. Measures keep
  // their logical qubit: the engine reports logical measure targets and
  // sampling resolves them through the final map.
  auto rewrite = [&](Instruction inst) {
    if (inst.kind == GateKind::measure || inst.kind == GateKind::barrier) {
      return inst;
    }
    inst.q0 = static_cast<int>(l2p[static_cast<unsigned>(inst.q0)]);
    if (inst.q1 >= 0) {
      inst.q1 = static_cast<int>(l2p[static_cast<unsigned>(inst.q1)]);
    }
    return inst;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    // Logical swap gates are absorbed into the qubit map at zero cost.
    if (ops[i].kind == GateKind::swap) {
      const unsigned a = static_cast<unsigned>(ops[i].q0);
      const unsigned b = static_cast<unsigned>(ops[i].q1);
      std::swap(p2l[l2p[a]], p2l[l2p[b]]);
      std::swap(l2p[a], l2p[b]);
      ++plan.elided_swap_gates;
      continue;
    }

    Instruction inst = rewrite(ops[i]);
    if (num_local < n && exchange_bytes_for(inst, n, num_local, 1) != 0) {
      const unsigned offender = p2l[exchange_qubit(inst)];

      // Benefit of making the offender local, in half-slab units per
      // rank, over the lookahead window (a lone slab swap costs 1 unit).
      const std::size_t window =
          std::min(ops.size(), i + std::size_t{lookahead});
      int saved = 0;
      for (std::size_t j = i; j < window; ++j) {
        saved += exchange_weight(ops[j], offender);
      }

      if (saved > 1) {
        // The batched exchange moves slab*(2^k-1)/2^k per rank, so the
        // marginal cost of the i-th swap added to the batch is 2^(1-i)
        // half-slab units: the trigger pays the full unit, every further
        // global qubit with any upcoming exchange weight rides along
        // almost free. Batch width is capped so groups stay coarse.
        const unsigned max_batch =
            std::min({max_batch_cap, num_local, n - num_local});

        // Window weight per logical qubit, and Belady slot ranking: the
        // local slots whose qubits go longest without needing locality
        // themselves; ties resolve to the lowest slot.
        const auto window_weight = [&](unsigned q) {
          int w = 0;
          for (std::size_t j = i; j < window; ++j) {
            w += exchange_weight(ops[j], q);
          }
          return w;
        };
        std::vector<std::pair<std::size_t, unsigned>> slots;
        slots.reserve(num_local);
        for (unsigned slot = 0; slot < num_local; ++slot) {
          const unsigned lq = p2l[slot];
          std::size_t need = window;
          for (std::size_t j = i + 1; j < window; ++j) {
            if (exchange_weight(ops[j], lq) > 0) {
              need = j;
              break;
            }
          }
          slots.push_back({need, slot});
        }
        std::stable_sort(slots.begin(), slots.end(),
                         [](const auto& a, const auto& b) {
                           return a.first > b.first;
                         });

        std::vector<unsigned> batch = {offender};
        if (max_batch > 1) {
          // Other globally-placed qubits ranked by their window weight.
          std::vector<std::pair<int, unsigned>> extras;
          for (unsigned q = 0; q < n; ++q) {
            if (q == offender || l2p[q] < num_local) continue;
            const int w = window_weight(q);
            if (w > 0) extras.push_back({w, q});
          }
          std::stable_sort(extras.begin(), extras.end(),
                           [](const auto& a, const auto& b) {
                             return a.first > b.first;
                           });
          for (const auto& [w, q] : extras) {
            if (batch.size() >= max_batch) break;
            batch.push_back(q);
          }
        }
        const unsigned k = static_cast<unsigned>(batch.size());

        // A slab swap re-bases the layout: pending instructions must run
        // on the old layout first, so the batch opens a new segment.
        if (!cur.insts.empty()) flush_segment();
        for (unsigned m = 0; m < k; ++m) {
          const unsigned victim = slots[m].second;
          const unsigned gphys = l2p[batch[m]];
          cur.swaps.push_back({victim, gphys});
          ++plan.slab_swaps;
          std::swap(p2l[victim], p2l[gphys]);
          l2p[p2l[victim]] = victim;
          l2p[p2l[gphys]] = gphys;
        }
        inst = rewrite(ops[i]);
      }
    }
    cur.insts.push_back(inst);
  }
  flush_segment();
  plan.logical_to_physical = std::move(l2p);
  return plan;
}

}  // namespace

RemapPlan plan_remap(const qiskit::QuantumCircuit& qc, unsigned num_local,
                     RemapOptions opts) {
  const unsigned n = qc.num_qubits();
  QGEAR_CHECK_ARG(num_local >= 1 && num_local <= n,
                  "remap: local qubit count out of range");
  QGEAR_CHECK_ARG(opts.max_batch >= 1, "remap: max_batch must be >= 1");
  // Greedy widening is not monotone: a wider batch (or longer window)
  // changes every later layout decision, and sometimes for the worse.
  // Plan once per width cap up to the requested maximum — at the full
  // and half lookahead — and keep the plan the cost model prices
  // cheapest (ties go to the earlier, narrower candidate — coarser slab
  // groups chunk better). Every rank computes the same winner, so tags
  // stay uniform.
  const unsigned cap =
      num_local < n ? std::min({opts.max_batch, num_local, n - num_local})
                    : 1;
  RemapPlan best;
  std::uint64_t best_bytes = 0;
  bool have_best = false;
  for (const unsigned look : {kLookahead, kLookahead / 2}) {
    for (unsigned width = 1; width <= cap; ++width) {
      RemapPlan plan = plan_remap_width(qc, num_local, width, look);
      const std::uint64_t bytes =
          plan_exchange_bytes_total(plan, sizeof(std::complex<double>));
      if (!have_best || bytes < best_bytes) {
        best = std::move(plan);
        best_bytes = bytes;
        have_best = true;
      }
    }
  }
  return best;
}

sim::Program compile(const qiskit::QuantumCircuit& qc, unsigned fusion_width,
                     unsigned num_local) {
  QGEAR_CHECK_ARG(fusion_width >= 1, "dist: fusion width must be >= 1");
  RemapPlan plan = plan_remap(qc, num_local);
  const unsigned width = std::min(fusion_width, num_local);
  sim::Program program;
  program.circuit = qc;
  program.num_qubits = plan.num_qubits;
  program.num_local = num_local;
  for (const RemapSegment& seg : plan.segments) {
    sim::Segment& out = program.segments.emplace_back();
    if (!seg.swaps.empty()) {
      out.batch =
          sim::compile_swap_batch(seg.swaps, plan.num_qubits, num_local);
    }
    qiskit::QuantumCircuit run(num_local, "local_run");
    const auto flush_run = [&] {
      if (run.empty()) return;
      out.steps.push_back({sim::plan_fusion(run, {.max_width = width}).blocks,
                           {}});
      run = qiskit::QuantumCircuit(num_local, "local_run");
    };
    for (const Instruction& inst : seg.insts) {
      const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
      if (info.unitary && static_cast<unsigned>(inst.q0) < num_local &&
          (info.num_qubits < 2 ||
           static_cast<unsigned>(inst.q1) < num_local)) {
        run.append(inst);
        continue;
      }
      flush_run();
      out.steps.push_back({{}, inst});
    }
    flush_run();
  }
  for (const Instruction& inst : qc.instructions()) {
    if (inst.kind == GateKind::measure) {
      program.measured.push_back(static_cast<unsigned>(inst.q0));
    } else if (qiskit::gate_info(inst.kind).unitary) {
      ++program.input_gates;
    }
  }
  program.logical_to_physical = std::move(plan.logical_to_physical);
  program.slab_swaps = plan.slab_swaps;
  program.elided_swap_gates = plan.elided_swap_gates;
  return program;
}

std::uint64_t plan_exchange_bytes_total(const RemapPlan& plan,
                                        std::size_t amp_bytes) {
  const std::uint64_t ranks = pow2(plan.num_qubits - plan.num_local);
  std::uint64_t total = 0;
  for (const RemapSegment& seg : plan.segments) {
    // A k-wide batch executes as one exchange on every rank.
    if (!seg.swaps.empty()) {
      const unsigned k = static_cast<unsigned>(seg.swaps.size());
      total += ranks * swap_batch_bytes(plan.num_local, k, amp_bytes);
    }
    for (const qiskit::Instruction& inst : seg.insts) {
      total += baseline_bytes_total(inst, plan.num_qubits, plan.num_local,
                                    amp_bytes, ranks);
    }
  }
  return total;
}

std::uint64_t schedule_exchange_bytes_total(const qiskit::QuantumCircuit& qc,
                                            unsigned num_local,
                                            std::size_t amp_bytes) {
  const unsigned n = qc.num_qubits();
  QGEAR_CHECK_ARG(num_local >= 1 && num_local <= n,
                  "remap: local qubit count out of range");
  const std::uint64_t ranks = pow2(n - num_local);
  std::uint64_t total = 0;
  for (const qiskit::Instruction& inst : qc.instructions()) {
    total += baseline_bytes_total(inst, n, num_local, amp_bytes, ranks);
  }
  return total;
}

}  // namespace qgear::dist
