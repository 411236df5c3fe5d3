#include "qgear/core/kernel.hpp"

#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/transpile.hpp"

namespace qgear::core {

Kernel::Kernel(qiskit::QuantumCircuit qc) : circuit_(std::move(qc)) {
  for (const qiskit::Instruction& inst : circuit_.instructions()) {
    QGEAR_CHECK_ARG(qiskit::is_native_gate(inst.kind),
                    "kernel: non-native gate survived transpilation");
  }
}

Kernel Kernel::from_circuit(const qiskit::QuantumCircuit& qc) {
  obs::Span span(obs::Tracer::global(), "transpile", "core");
  if (span.active()) span.arg("circuit", qc.name());
  return Kernel(qiskit::to_native_basis(qc));
}

Kernel Kernel::from_tensor(const GateTensor& tensor, std::uint32_t index) {
  obs::Span span(obs::Tracer::global(), "transpile", "core");
  if (span.active()) span.arg("tensor_index", std::uint64_t{index});
  return Kernel(decode_circuit(tensor, index));
}

std::size_t Kernel::num_2q_gates() const { return circuit_.num_2q_gates(); }

std::vector<unsigned> Kernel::measured_qubits() const {
  std::vector<unsigned> out;
  for (const qiskit::Instruction& inst : circuit_.instructions()) {
    if (inst.kind == qiskit::GateKind::measure) {
      out.push_back(static_cast<unsigned>(inst.q0));
    }
  }
  return out;
}

}  // namespace qgear::core
