// The compiled program: what a circuit becomes before an engine runs it.
//
// A program is segments, each an optional index-bit-swap batch followed
// by steps. A step is a fused run of unitaries on local qubits (blocks
// from sim::plan_fusion) or one instruction dispatched on its own. One
// compile step builds it, and the engines and pricers read it instead of
// planning for themselves:
//   - sim::compile builds a one-device program: one segment, no swaps,
//     and one step holding exactly the blocks one plan_fusion call
//     returns. The fused engine, serve's cache, route and perfmodel
//     read it;
//   - dist::compile (dist/remap.hpp) builds the remapped schedule over
//     a slab layout, which every rank walks, perfmodel prices and
//     `qgear_cli estimate --schedule` prints.
// Compiling does not transpile: the program runs the circuit it was
// given. The swap batches are data and validation only; dist runs them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/fusion.hpp"

namespace qgear::sim {

/// One slab shuffle: exchange index bit `local_phys` with `global_phys`.
/// Every rank gathers the half-slab whose bit `local_phys` differs from
/// its own global bit and trades it with the partner rank across global
/// bit `global_phys` — half-slab bytes per rank.
struct SlabSwap {
  unsigned local_phys = 0;
  unsigned global_phys = 0;

  bool operator==(const SlabSwap&) const = default;
};

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

/// One step of a segment: a fused run of local-qubit unitaries or, when
/// `inst` is set, one instruction dispatched on its own (an exchange, a
/// diagonal gate on a global qubit, a barrier or a measure).
struct Step {
  std::vector<FusedBlock> blocks;
  std::optional<qiskit::Instruction> inst;
};

struct Segment {
  SwapBatch batch;  ///< no swaps: the segment keeps the layout
  std::vector<Step> steps;
};

/// A compiled circuit. A program with no segments compiled nothing: it
/// carries only its circuit, which is all the reference, dd and mps
/// prices read (route::time_estimate_for).
struct Program {
  qiskit::QuantumCircuit circuit{1};  ///< the circuit it was compiled from
  unsigned num_qubits = 0;
  unsigned num_local = 0;  ///< qubits each device holds (all, on one)
  std::vector<Segment> segments;
  /// Measured qubits in program order (logical ids).
  std::vector<unsigned> measured;
  /// Final logical→physical qubit map; empty means identity.
  std::vector<unsigned> logical_to_physical;
  std::uint64_t input_gates = 0;        ///< unitary gates compiled
  std::uint64_t slab_swaps = 0;         ///< swaps over all batches
  std::uint64_t elided_swap_gates = 0;  ///< swap gates folded into the map

  /// The blocks of a one-device program, in run order (none when it
  /// compiled nothing). Throws InvalidArgument for any other program.
  std::span<const FusedBlock> blocks() const;

  /// Estimated resident bytes of a one-device program: its block
  /// matrices and its circuit's instruction stream (serve's compile cache
  /// charges this).
  std::uint64_t footprint_bytes() const;
};

/// Compiles `qc` for one device: one segment, no swap batch, one step
/// with sim::plan_fusion's blocks at `fusion_width`, and its measured
/// qubits. Records plan_fusion's `fuse` span and `sim.fusion_plans` count.
Program compile(const qiskit::QuantumCircuit& qc, unsigned fusion_width);

}  // namespace qgear::sim
