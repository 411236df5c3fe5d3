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
// compile_schedule turns a plan into the schedule that runs: each swap
// batch with its round peer masks, each run of local-qubit unitaries
// fusion-planned, the other instructions in order. It is built once per
// run and read by every rank, by perfmodel and by `qgear_cli estimate
// --schedule`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/fusion.hpp"

namespace qgear::dist {

struct RemapOptions {
  /// Widest index-bit-swap batch one segment boundary may carry. A batch
  /// of k swaps executes as one exchange of swap_batch_bytes per rank
  /// (2^k-1 rounds), so the marginal comm cost of the i-th swap is
  /// 2^(1-i) half-slab units; the cap keeps the slab groups coarse enough
  /// to chunk. 1 = one swap at a time (the pre-batching schedule).
  unsigned max_batch = 4;
};

/// One slab shuffle: exchange index bit `local_phys` with `global_phys`.
/// Every rank gathers the half-slab whose bit `local_phys` differs from
/// its own global bit and trades it with the partner rank across global
/// bit `global_phys` — half-slab bytes per rank.
struct SlabSwap {
  unsigned local_phys = 0;
  unsigned global_phys = 0;

  bool operator==(const SlabSwap&) const = default;
};

/// A run of physical-qubit instructions preceded by the slab swaps that
/// establish its layout. Measure instructions keep their *logical* qubit
/// (sampling resolves them through the final map); everything else is
/// rewritten to physical ids.
struct RemapSegment {
  std::vector<SlabSwap> swaps;
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

/// An index-bit-swap batch as the engine runs it: the swaps by ascending
/// local bit, and for round d = 1..2^k-1 the mask of rank bits its peer
/// differs in (the global bits of the swaps whose bit is set in d). Round
/// d trades slab group b^d, b being the rank's own global bits over the
/// batch, with rank ^ peer_masks[d-1].
struct SwapBatch {
  std::vector<SlabSwap> swaps;
  std::vector<std::uint64_t> peer_masks;
};

/// Sorts and checks `swaps` against a layout of `num_qubits` qubits, the
/// lowest `num_local` of them local, and derives the round masks. Throws
/// InvalidArgument for an empty batch, one wider than either side of the
/// layout, a bit on the wrong side or a repeated bit.
SwapBatch compile_swap_batch(std::span<const SlabSwap> swaps,
                             unsigned num_qubits, unsigned num_local);

/// One step of a compiled segment: a fusion-planned run of local-qubit
/// unitaries or, when `blocks` is empty, one instruction dispatched on
/// its own (an exchange, a diagonal gate on a global qubit, a barrier or
/// a measure).
struct ScheduleStep {
  std::vector<sim::FusedBlock> blocks;
  qiskit::Instruction inst;
};

struct ScheduleSegment {
  SwapBatch batch;  ///< no swaps: the segment keeps the layout
  std::vector<ScheduleStep> steps;
};

/// A plan compiled for execution; segments[i] runs plan.segments[i].
struct RemapSchedule {
  RemapPlan plan;
  std::vector<ScheduleSegment> segments;
};

/// Compiles `plan`: each segment's swaps through compile_swap_batch, and
/// its instructions split into maximal runs of unitaries on local qubits,
/// each planned by sim::plan_fusion at min(fusion_width, num_local), with
/// every other instruction a step of its own. A run ends at any other
/// instruction, barriers and measures included.
RemapSchedule compile_schedule(RemapPlan plan, unsigned fusion_width);

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
