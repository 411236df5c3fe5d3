#include <algorithm>

#include "qgear/dist/dist_state.hpp"

namespace qgear::dist {

std::uint64_t exchange_bytes_for(const qiskit::Instruction& inst,
                                 unsigned num_qubits, unsigned num_local,
                                 std::size_t amp_bytes) {
  using qiskit::GateKind;
  QGEAR_EXPECTS(num_local <= num_qubits);
  const std::uint64_t slab_bytes = pow2(num_local) * amp_bytes;
  const auto local = [num_local](int q) {
    return static_cast<unsigned>(q) < num_local;
  };

  switch (inst.kind) {
    case GateKind::barrier:
    case GateKind::measure:
    // Diagonal gates never communicate.
    case GateKind::z:
    case GateKind::s:
    case GateKind::sdg:
    case GateKind::t:
    case GateKind::tdg:
    case GateKind::rz:
    case GateKind::p:
    case GateKind::cz:
    case GateKind::cp:
      return 0;
    case GateKind::cx:
      if (local(inst.q1)) return 0;          // target local: no exchange
      if (local(inst.q0)) return slab_bytes / 2;  // control=1 half only
      return slab_bytes;                     // both global, full slab
    case GateKind::swap: {
      if (local(inst.q0) && local(inst.q1)) return 0;
      // Decomposed into three cx by the engine.
      std::uint64_t total = 0;
      total += exchange_bytes_for({GateKind::cx, inst.q0, inst.q1, 0.0},
                                  num_qubits, num_local, amp_bytes);
      total += exchange_bytes_for({GateKind::cx, inst.q1, inst.q0, 0.0},
                                  num_qubits, num_local, amp_bytes);
      total += exchange_bytes_for({GateKind::cx, inst.q0, inst.q1, 0.0},
                                  num_qubits, num_local, amp_bytes);
      return total;
    }
    default:
      // Non-diagonal single-qubit gates.
      return local(inst.q0) ? 0 : slab_bytes;
  }
}

unsigned exchange_qubit(const qiskit::Instruction& inst) {
  using qiskit::GateKind;
  if (inst.kind == GateKind::cx) return static_cast<unsigned>(inst.q1);
  if (inst.kind == GateKind::swap) {
    return static_cast<unsigned>(std::max(inst.q0, inst.q1));
  }
  return static_cast<unsigned>(inst.q0);
}

std::uint64_t swap_batch_bytes(unsigned num_local, unsigned k,
                               std::size_t amp_bytes) {
  return ((pow2(num_local) * amp_bytes) >> k) * (pow2(k) - 1);
}

}  // namespace qgear::dist
