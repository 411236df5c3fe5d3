#include "qgear/sim/cmat.hpp"

#include <algorithm>
#include <cmath>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"

namespace qgear::sim {

CMat::CMat(std::uint64_t dim) : dim_(dim), a_(dim * dim) {
  QGEAR_EXPECTS(is_pow2(dim));
}

CMat CMat::identity(std::uint64_t dim) {
  CMat m(dim);
  for (std::uint64_t i = 0; i < dim; ++i) m.at(i, i) = 1.0;
  return m;
}

CMat CMat::mul(const CMat& rhs) const {
  QGEAR_EXPECTS(dim_ == rhs.dim_);
  CMat out(dim_);
  for (std::uint64_t r = 0; r < dim_; ++r) {
    for (std::uint64_t k = 0; k < dim_; ++k) {
      const std::complex<double> lv = at(r, k);
      if (lv == std::complex<double>(0, 0)) continue;
      for (std::uint64_t c = 0; c < dim_; ++c) {
        out.at(r, c) += lv * rhs.at(k, c);
      }
    }
  }
  return out;
}

double CMat::max_diff(const CMat& rhs) const {
  QGEAR_EXPECTS(dim_ == rhs.dim_);
  double worst = 0;
  for (std::uint64_t i = 0; i < dim_ * dim_; ++i) {
    worst = std::max(worst, std::abs(a_[i] - rhs.a_[i]));
  }
  return worst;
}

bool CMat::is_diagonal(double tol) const {
  for (std::uint64_t r = 0; r < dim_; ++r) {
    for (std::uint64_t c = 0; c < dim_; ++c) {
      if (r != c && std::abs(at(r, c)) > tol) return false;
    }
  }
  return true;
}

bool CMat::is_permutation(double tol, std::vector<std::uint32_t>* perm,
                          std::vector<std::complex<double>>* phases) const {
  std::vector<std::uint32_t> p(dim_);
  std::vector<std::complex<double>> ph(dim_);
  std::vector<bool> row_used(dim_, false);
  for (std::uint64_t c = 0; c < dim_; ++c) {
    std::uint64_t hit_row = dim_;
    for (std::uint64_t r = 0; r < dim_; ++r) {
      const double mag = std::abs(at(r, c));
      if (mag <= tol) continue;
      // A second non-zero in this column, or a non-unit entry, disqualifies.
      if (hit_row != dim_ || std::abs(mag - 1.0) > tol) return false;
      hit_row = r;
    }
    if (hit_row == dim_ || row_used[hit_row]) return false;
    row_used[hit_row] = true;
    p[c] = static_cast<std::uint32_t>(hit_row);
    ph[c] = at(hit_row, c);
  }
  if (perm != nullptr) *perm = std::move(p);
  if (phases != nullptr) *phases = std::move(ph);
  return true;
}

bool CMat::is_unitary(double tol) const {
  // Check U * U^dagger == I.
  for (std::uint64_t r = 0; r < dim_; ++r) {
    for (std::uint64_t c = 0; c < dim_; ++c) {
      std::complex<double> acc(0, 0);
      for (std::uint64_t k = 0; k < dim_; ++k) {
        acc += at(r, k) * std::conj(at(c, k));
      }
      const std::complex<double> expected = r == c ? 1.0 : 0.0;
      if (std::abs(acc - expected) > tol) return false;
    }
  }
  return true;
}

std::vector<unsigned> instruction_qubits(const qiskit::Instruction& inst) {
  const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
  QGEAR_CHECK_ARG(info.unitary, "instruction_qubits: not a unitary gate");
  if (info.num_qubits == 1) return {static_cast<unsigned>(inst.q0)};
  std::vector<unsigned> qs = {static_cast<unsigned>(inst.q0),
                              static_cast<unsigned>(inst.q1)};
  std::sort(qs.begin(), qs.end());
  return qs;
}

CMat instruction_matrix(const qiskit::Instruction& inst) {
  const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
  QGEAR_CHECK_ARG(info.unitary, "instruction_matrix: not a unitary gate");

  if (info.num_qubits == 1) {
    const qiskit::Mat2 g = qiskit::gate_matrix_1q(inst.kind, inst.param);
    CMat m(2);
    m.at(0, 0) = g[0];
    m.at(0, 1) = g[1];
    m.at(1, 0) = g[2];
    m.at(1, 1) = g[3];
    return m;
  }

  const qiskit::Mat4 u = qiskit::gate_matrix_2q(
      inst.kind, inst.param, static_cast<unsigned>(inst.q0),
      static_cast<unsigned>(inst.q1));
  CMat m(4);
  for (std::uint64_t i = 0; i < 16; ++i) m.at(i / 4, i % 4) = u[i];
  return m;
}

CMat embed(const CMat& src, const std::vector<unsigned>& src_qubits,
           const std::vector<unsigned>& dst_qubits) {
  const unsigned m_src = static_cast<unsigned>(src_qubits.size());
  const unsigned m_dst = static_cast<unsigned>(dst_qubits.size());
  QGEAR_EXPECTS(src.dim() == pow2(m_src));
  QGEAR_EXPECTS(m_dst >= m_src);

  // Local bit position of each src qubit within dst.
  std::vector<unsigned> src_pos(m_src);
  for (unsigned j = 0; j < m_src; ++j) {
    const auto it = std::lower_bound(dst_qubits.begin(), dst_qubits.end(),
                                     src_qubits[j]);
    QGEAR_EXPECTS(it != dst_qubits.end() && *it == src_qubits[j]);
    src_pos[j] = static_cast<unsigned>(it - dst_qubits.begin());
  }
  // Dst bit positions not covered by src (identity qubits).
  std::vector<unsigned> rest_pos;
  for (unsigned j = 0; j < m_dst; ++j) {
    if (std::find(src_pos.begin(), src_pos.end(), j) == src_pos.end()) {
      rest_pos.push_back(j);
    }
  }

  const std::uint64_t src_dim = pow2(m_src);
  const std::uint64_t rest_dim = pow2(m_dst - m_src);
  CMat out(pow2(m_dst));
  for (std::uint64_t rest = 0; rest < rest_dim; ++rest) {
    const std::uint64_t rest_bits =
        deposit_bits(rest, rest_pos.data(),
                     static_cast<unsigned>(rest_pos.size()));
    for (std::uint64_t r = 0; r < src_dim; ++r) {
      const std::uint64_t row =
          rest_bits | deposit_bits(r, src_pos.data(), m_src);
      for (std::uint64_t c = 0; c < src_dim; ++c) {
        const std::uint64_t col =
            rest_bits | deposit_bits(c, src_pos.data(), m_src);
        out.at(row, col) = src.at(r, c);
      }
    }
  }
  return out;
}

}  // namespace qgear::sim
