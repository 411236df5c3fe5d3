// Kernel transformation (paper Sec. 2.2).
//
// A Kernel is the CUDA-Q-style executable form of a circuit: a validated
// native-basis operation list plus register metadata, decoded either from
// a high-level QuantumCircuit or directly from a GateTensor slot. Unlike
// a QuantumCircuit (arbitrary gate set, user-built), a Kernel is guaranteed
// ready for the engines: native gates only, qubit indices checked.
#pragma once

#include <string>
#include <vector>

#include "qgear/core/tensor.hpp"
#include "qgear/qiskit/circuit.hpp"

namespace qgear::core {

class Kernel {
 public:
  /// Builds a kernel from a circuit, transpiling to the native basis.
  static Kernel from_circuit(const qiskit::QuantumCircuit& qc);

  /// Decodes circuit `index` of a gate tensor into a kernel — the
  /// "decoding of transformed quantum circuits directly into CUDA
  /// kernels" step of Sec. 2.2.
  static Kernel from_tensor(const GateTensor& tensor, std::uint32_t index);

  const std::string& name() const { return circuit_.name(); }
  unsigned num_qubits() const { return circuit_.num_qubits(); }
  const std::vector<qiskit::Instruction>& ops() const {
    return circuit_.instructions();
  }
  std::size_t size() const { return circuit_.size(); }

  /// Number of entangling (two-qubit) operations.
  std::size_t num_2q_gates() const;

  /// Measured qubits in program order.
  std::vector<unsigned> measured_qubits() const;

  /// View as a circuit (for engines that consume circuits).
  const qiskit::QuantumCircuit& circuit() const { return circuit_; }

 private:
  explicit Kernel(qiskit::QuantumCircuit qc);

  qiskit::QuantumCircuit circuit_;
};

}  // namespace qgear::core
