// Communication-avoiding global↔local qubit remapping for the distributed
// engine — the cuQuantum index-bit-swap analogue.
//
// The baseline schedule pays one pairwise slab exchange per non-diagonal
// gate on a global qubit (full slab for 1q unitaries, half for cx with a
// local control). A slab *swap* — exchanging index bit l (local) with
// index bit g (global) — costs only half a slab, after which every gate
// on the swapped-in qubit runs communication-free. The planner scans the
// instruction stream with a lookahead window, swaps a global qubit into a
// local slot whenever the upcoming exchange bytes it would trigger exceed
// the swap cost, and rewrites the stream into physical-qubit segments a
// rank can execute under the local fusion planner. Logical swap gates are
// elided entirely: a swap is just a relabeling of the live
// logical→physical map, costing zero communication and zero sweeps.
//
// dist::compile turns a plan into the sim::Program that runs: each swap
// batch with its round peer masks, each run of local-qubit unitaries
// fusion-planned, the other instructions in order. It is built once per
// run and read by every rank, by perfmodel and by `qgear_cli estimate
// --schedule`.
#pragma once

#include <cstdint>
#include <vector>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/program.hpp"

namespace qgear::dist {

struct RemapOptions {
  /// Widest index-bit-swap batch one segment boundary may carry. A batch
  /// of k swaps executes as one exchange of swap_batch_bytes per rank
  /// (2^k-1 rounds), so the marginal comm cost of the i-th swap is
  /// 2^(1-i) half-slab units; the cap keeps the slab groups coarse enough
  /// to chunk. 1 = one swap at a time (the pre-batching schedule).
  unsigned max_batch = 4;
};

/// A run of physical-qubit instructions preceded by the slab swaps that
/// establish its layout. Measure instructions keep their *logical* qubit
/// (sampling resolves them through the final map); everything else is
/// rewritten to physical ids.
struct RemapSegment {
  std::vector<sim::SlabSwap> swaps;
  std::vector<qiskit::Instruction> insts;
};

struct RemapPlan {
  unsigned num_qubits = 0;
  unsigned num_local = 0;
  std::vector<RemapSegment> segments;
  /// Final logical→physical map after all swaps and elisions.
  std::vector<unsigned> logical_to_physical;
  std::uint64_t slab_swaps = 0;        ///< paid slab shuffles
  std::uint64_t elided_swap_gates = 0; ///< swap gates absorbed into the map

  bool identity_map() const {
    for (unsigned q = 0; q < logical_to_physical.size(); ++q) {
      if (logical_to_physical[q] != q) return false;
    }
    return true;
  }
};

/// Plans a communication-avoiding schedule for `qc` over a slab layout
/// with `num_local` local qubits (1 <= num_local <= qc.num_qubits()).
/// The plan is deterministic: the same circuit always yields the same
/// plan.
RemapPlan plan_remap(const qiskit::QuantumCircuit& qc, unsigned num_local,
                     RemapOptions opts = {});

/// Compiles `qc` for a slab layout with `num_local` local qubits: plans
/// it with plan_remap, compiles each segment's swaps through
/// sim::compile_swap_batch and splits its instructions into maximal runs
/// of unitaries on local qubits, each planned by sim::plan_fusion at
/// min(fusion_width, num_local), with every other instruction a step of
/// its own. A run ends at any other instruction, barriers and measures
/// included. Program segment i runs plan segment i.
sim::Program compile(const qiskit::QuantumCircuit& qc, unsigned fusion_width,
                     unsigned num_local);

/// Total bytes every rank together would exchange executing `plan`
/// (slab swaps plus residual per-gate exchanges) — comparable to
/// CommTrace::total_bytes of a remapped run without sampling/gather.
std::uint64_t plan_exchange_bytes_total(const RemapPlan& plan,
                                        std::size_t amp_bytes);

/// Same total for the baseline per-gate schedule of `qc` (what
/// DistStateVector::apply_circuit records in the CommTrace).
std::uint64_t schedule_exchange_bytes_total(const qiskit::QuantumCircuit& qc,
                                            unsigned num_local,
                                            std::size_t amp_bytes);

}  // namespace qgear::dist
