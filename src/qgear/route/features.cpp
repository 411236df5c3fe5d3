#include "qgear/route/features.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "qgear/qiskit/gates.hpp"

namespace qgear::route {

bool is_clifford_gate(qiskit::GateKind kind) {
  using qiskit::GateKind;
  switch (kind) {
    case GateKind::h:
    case GateKind::x:
    case GateKind::y:
    case GateKind::z:
    case GateKind::s:
    case GateKind::sdg:
    case GateKind::cx:
    case GateKind::cz:
    case GateKind::swap:
      return true;
    default:
      return false;
  }
}

namespace {

bool is_rotation_gate(qiskit::GateKind kind) {
  using qiskit::GateKind;
  switch (kind) {
    case GateKind::rx:
    case GateKind::ry:
    case GateKind::rz:
    case GateKind::p:
    case GateKind::cp:
      return true;
    default:
      return false;
  }
}

}  // namespace

CircuitFeatures extract_features(const sim::Program& program) {
  const qiskit::QuantumCircuit& qc = program.circuit;
  CircuitFeatures f;
  f.num_qubits = qc.num_qubits();
  f.depth = qc.depth();

  const unsigned n = qc.num_qubits();
  std::vector<unsigned> crossings(n == 0 ? 1 : n, 0);
  std::set<std::pair<unsigned, unsigned>> pairs;
  std::uint64_t nn_2q = 0;

  for (const qiskit::Instruction& inst : qc.instructions()) {
    ++f.total_gates;
    if (inst.kind == qiskit::GateKind::measure) {
      ++f.measurements;
      continue;
    }
    if (inst.kind == qiskit::GateKind::barrier) continue;
    ++f.unitary_gates;
    if (is_clifford_gate(inst.kind)) ++f.clifford_fraction;  // count, for now
    if (is_rotation_gate(inst.kind)) ++f.rotation_fraction;
    if (qiskit::gate_info(inst.kind).num_qubits != 2) continue;
    ++f.two_qubit_gates;
    const unsigned lo = static_cast<unsigned>(std::min(inst.q0, inst.q1));
    const unsigned hi = static_cast<unsigned>(std::max(inst.q0, inst.q1));
    const unsigned dist = hi - lo;
    pairs.insert({lo, hi});
    if (dist == 1) ++nn_2q;
    f.max_interaction_distance = std::max(f.max_interaction_distance, dist);
    // An MPS swap chain moves lo next to hi and back: 2*(dist-1) swaps
    // plus the gate itself, each an SVD-bearing 2q operation.
    f.mps_effective_2q += 2 * std::uint64_t{dist - 1} + 1;
    for (unsigned k = lo; k < hi; ++k) ++crossings[k];
  }

  const double ug = static_cast<double>(std::max<std::uint64_t>(
      f.unitary_gates, 1));
  f.clifford_fraction /= ug;
  f.rotation_fraction /= ug;
  f.distinct_pairs = pairs.size();
  f.nearest_neighbor_fraction =
      f.two_qubit_gates == 0
          ? 0.0
          : static_cast<double>(nn_2q) / static_cast<double>(f.two_qubit_gates);

  // Entanglement proxy: the same position-vs-crossings bound as
  // MpsEngine::memory_estimate, reduced to exponents.
  if (n >= 2) {
    double sum = 0.0;
    for (unsigned cut = 0; cut + 1 < n; ++cut) {
      const unsigned pos = std::min(cut + 1, n - 1 - cut);
      const unsigned e = std::min({pos, crossings[cut], 30u});
      f.max_bond_exponent = std::max(f.max_bond_exponent, e);
      sum += e;
    }
    f.mean_bond_exponent = sum / static_cast<double>(n - 1);
  }

  const std::span<const sim::FusedBlock> blocks = program.blocks();
  f.fused_blocks = blocks.size();
  for (const sim::FusedBlock& b : blocks) {
    switch (b.kernel_class) {
      case sim::KernelClass::diagonal: ++f.diag_blocks; break;
      case sim::KernelClass::permutation: ++f.perm_blocks; break;
      case sim::KernelClass::dense: ++f.dense_blocks; break;
    }
  }
  f.fusion_ratio = blocks.empty() ? 0.0
                                  : double(program.input_gates) /
                                        double(blocks.size());
  return f;
}

obs::JsonValue CircuitFeatures::to_json() const {
  obs::JsonValue j{obs::JsonValue::Object{}};
  j.set("num_qubits", num_qubits);
  j.set("depth", depth);
  j.set("total_gates", total_gates);
  j.set("unitary_gates", unitary_gates);
  j.set("two_qubit_gates", two_qubit_gates);
  j.set("measurements", measurements);
  j.set("clifford_fraction", clifford_fraction);
  j.set("rotation_fraction", rotation_fraction);
  j.set("fused_blocks", fused_blocks);
  j.set("diag_blocks", diag_blocks);
  j.set("perm_blocks", perm_blocks);
  j.set("dense_blocks", dense_blocks);
  j.set("fusion_ratio", fusion_ratio);
  j.set("distinct_pairs", distinct_pairs);
  j.set("nearest_neighbor_fraction", nearest_neighbor_fraction);
  j.set("max_interaction_distance", max_interaction_distance);
  j.set("mps_effective_2q", mps_effective_2q);
  j.set("max_bond_exponent", max_bond_exponent);
  j.set("mean_bond_exponent", mean_bond_exponent);
  return j;
}

}  // namespace qgear::route
