// Gate-fusion planner — the optimization that makes the "Cuda-Q-like"
// engine fast (the paper sets `gate fusion = 5`, Appendix D.2).
//
// Adjacent gates are greedily merged into unitaries over at most
// `max_width` qubits; each fused block then costs a single amplitude
// sweep instead of one sweep per gate. Barriers flush the current block;
// measurements are collected for sampling. Every unitary gate is kept:
// the paper's negligible-angle approximation (App. D.2) is applied where
// the circuit is built (circuits::QftOptions::angle_threshold), not here.
//
// Planning runs in two steps per block. Grouping decides the block's
// qubits and gates. Composing then builds its matrix at that final width,
// in place, through the dispatched kernel table: the row-major 2^w x 2^w
// matrix is treated as a 2w-qubit state whose high w bits index the row,
// so each gate is one apply_1q / apply_2q_dense<double> sweep on qubits
// w + j. No per-gate embedding or temporary matrix is built; the
// embed-and-multiply product (cmat.hpp) is the tests' oracle. Each call
// records a `fuse` span and adds 1 to the `sim.fusion_plans` counter.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/cmat.hpp"

namespace qgear::sim {

/// Cheapest kernel able to apply a fused block. Ordered from most to
/// least specialized; the planner classifies diagonal before permutation
/// (every diagonal is a phased identity permutation) before dense.
enum class KernelClass : int {
  diagonal = 0,     ///< multiply-only sweep over the 2^m diagonal values
  permutation = 1,  ///< out[perm[v]] = phases[v] * in[v]; O(2^m) per group
  dense = 2,        ///< full 2^m x 2^m matvec per group
};

const char* kernel_class_name(KernelClass kc);

/// One fused unitary over an ascending qubit list.
struct FusedBlock {
  std::vector<unsigned> qubits;                 ///< ascending global ids
  std::vector<std::complex<double>> matrix;     ///< row-major 2^m x 2^m
  KernelClass kernel_class = KernelClass::dense;
  /// Filled for diagonal blocks: the 2^m diagonal values.
  std::vector<std::complex<double>> diag;
  /// Filled for permutation blocks: column c maps to row perm[c] with
  /// weight phases[c].
  std::vector<std::uint32_t> perm;
  std::vector<std::complex<double>> phases;
  std::uint64_t source_gates = 0;               ///< gates fused in
};

/// Complete fusion plan for a circuit.
struct FusionPlan {
  std::vector<FusedBlock> blocks;
  std::vector<unsigned> measured;  ///< measure targets in program order
  std::uint64_t input_gates = 0;   ///< unitary gate count before fusion
};

struct FusionOptions {
  unsigned max_width = 5;  ///< the paper's gate-fusion parameter
};

/// Plans fusion for `qc`. Every unitary instruction lands in exactly one
/// block; blocks applied in order reproduce the circuit's unitary.
FusionPlan plan_fusion(const qiskit::QuantumCircuit& qc,
                       FusionOptions opts = {});

}  // namespace qgear::sim
