// Circuit feature extraction for the backend autotuner.
//
// The router decides backend × precision × ISA × fusion width from a
// handful of structural features of the *transpiled* circuit: size
// (qubits / depth / gate counts), the fused-kernel class mix (PR 2's
// KernelClass taxonomy — how much of the circuit is diagonal /
// permutation / dense work), two-qubit connectivity, an entanglement
// proxy (the same per-cut bond bound MpsEngine::memory_estimate uses),
// and the Clifford fraction (decision diagrams thrive on stabilizer-ish
// structure). Extraction is one pass over a compiled sim::Program: its
// circuit's instruction list and its blocks, which the caller compiled
// (serve admission, route::plan); everything downstream
// (route/cost.hpp) is arithmetic on this struct.
#pragma once

#include <cstdint>
#include <vector>

#include "qgear/obs/json.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/program.hpp"

namespace qgear::route {

/// Structural summary of one circuit, as seen by the cost model.
struct CircuitFeatures {
  unsigned num_qubits = 0;
  unsigned depth = 0;
  std::uint64_t total_gates = 0;    ///< all instructions incl. measure
  std::uint64_t unitary_gates = 0;  ///< gates that touch the state
  std::uint64_t two_qubit_gates = 0;
  std::uint64_t measurements = 0;

  /// Fraction of unitary gates drawn from the Clifford group
  /// (h,x,y,z,s,sdg,cx,cz,swap) — a structure proxy: near-Clifford
  /// circuits keep decision diagrams small.
  double clifford_fraction = 0.0;
  /// Fraction of unitary gates that are parameterized rotations
  /// (rx,ry,rz,p,cp) — dense-kernel work.
  double rotation_fraction = 0.0;

  // Fused-block mix at the default fusion width (KernelClass taxonomy).
  std::uint64_t fused_blocks = 0;
  std::uint64_t diag_blocks = 0;
  std::uint64_t perm_blocks = 0;
  std::uint64_t dense_blocks = 0;
  double fusion_ratio = 0.0;  ///< unitary gates per fused block

  // Two-qubit connectivity.
  std::uint64_t distinct_pairs = 0;     ///< unique (lo,hi) interaction pairs
  double nearest_neighbor_fraction = 0.0;  ///< 2q gates with |q0-q1| == 1
  unsigned max_interaction_distance = 0;   ///< max |q0-q1| over 2q gates
  /// Total extra 2q operations an MPS swap-router pays for non-adjacent
  /// pairs: sum over 2q gates of 2*(distance-1) swaps + 1 gate.
  std::uint64_t mps_effective_2q = 0;

  // Entanglement proxy: per-cut bond exponent bound
  // min(position, 2q-crossings) — exactly the structure bound behind
  // MpsEngine::memory_estimate. GHZ chains stay at 1; volume-law random
  // circuits saturate n/2.
  unsigned max_bond_exponent = 0;
  double mean_bond_exponent = 0.0;

  obs::JsonValue to_json() const;
};

/// Extracts features from `program`: the structure of the circuit it
/// was compiled from (callers transpile before compiling; route::plan
/// does) and the mix of its one-device blocks (none when it compiled
/// nothing).
CircuitFeatures extract_features(const sim::Program& program);

/// True for gates in the Clifford group (parameter-free subset; rotations
/// are classified non-Clifford regardless of angle).
bool is_clifford_gate(qiskit::GateKind kind);

}  // namespace qgear::route
