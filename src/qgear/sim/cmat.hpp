// Small dense complex matrices: the fusion planner's block matrices, and
// the product-of-embedded-gates oracle its tests check blocks against.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "qgear/qiskit/circuit.hpp"

namespace qgear::sim {

/// Row-major square complex matrix of dimension 2^m (m = qubit count).
class CMat {
 public:
  CMat() = default;
  explicit CMat(std::uint64_t dim);

  static CMat identity(std::uint64_t dim);

  std::uint64_t dim() const { return dim_; }
  std::complex<double>& at(std::uint64_t r, std::uint64_t c) {
    return a_[r * dim_ + c];
  }
  const std::complex<double>& at(std::uint64_t r, std::uint64_t c) const {
    return a_[r * dim_ + c];
  }
  const std::vector<std::complex<double>>& data() const { return a_; }
  /// Row-major storage, for kernels that update the matrix in place.
  std::complex<double>* mutable_data() { return a_.data(); }
  std::vector<std::complex<double>> take() && { return std::move(a_); }

  /// this * rhs (matrix product).
  CMat mul(const CMat& rhs) const;

  /// Max |this[i][j] - rhs[i][j]|.
  double max_diff(const CMat& rhs) const;

  /// True if all off-diagonal magnitudes are <= tol.
  bool is_diagonal(double tol = 1e-14) const;

  /// True if the matrix is a phased permutation: exactly one entry of unit
  /// magnitude per column (within tol), zeros elsewhere. On success fills
  /// perm[c] = destination row of column c and phases[c] = that entry, so
  /// applying the matrix is out[perm[c]] = phases[c] * in[c]. Diagonal
  /// matrices trivially qualify; callers should test is_diagonal first to
  /// pick the cheaper kernel.
  bool is_permutation(double tol, std::vector<std::uint32_t>* perm,
                      std::vector<std::complex<double>>* phases) const;

  /// True if U * U^dagger is within tol of identity.
  bool is_unitary(double tol = 1e-10) const;

 private:
  std::uint64_t dim_ = 0;
  std::vector<std::complex<double>> a_;
};

/// Builds the unitary matrix of one instruction over the ascending qubit
/// list that it touches. Local bit j corresponds to the j-th smallest qubit
/// the gate uses. Throws for non-unitary instructions.
CMat instruction_matrix(const qiskit::Instruction& inst);

/// The ascending qubit list an instruction touches.
std::vector<unsigned> instruction_qubits(const qiskit::Instruction& inst);

/// Embeds `src` (defined over ascending global qubits `src_qubits`) into a
/// matrix over the ascending superset `dst_qubits`, acting as identity on
/// the added qubits.
CMat embed(const CMat& src, const std::vector<unsigned>& src_qubits,
           const std::vector<unsigned>& dst_qubits);

}  // namespace qgear::sim
