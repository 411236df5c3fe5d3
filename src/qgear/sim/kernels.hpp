// Amplitude-update kernels shared by all engines.
//
// Each kernel sweeps the amplitude array once, applying one (possibly
// fused multi-qubit) unitary. A non-null ThreadPool parallelizes the sweep
// over contiguous index ranges — the shared-memory stand-in for the GPU's
// SM/warp execution described in the paper's Appendix A.
//
// These entry points validate their arguments, then dispatch through the
// KernelTable matching active_isa(): AVX-512F, AVX2+FMA or SSE2
// vectorized sweeps when the host supports them, the portable scalar
// loops otherwise (see kernels_scalar.hpp / kernels_vec.ipp and
// docs/KERNELS.md). Set QGEAR_ISA=scalar|sse2|avx2|avx512 (or call
// set_active_isa) to override.
#pragma once

#include "qgear/sim/kernel_table.hpp"
#include "qgear/sim/kernels_common.hpp"

namespace qgear::sim {

/// Applies a 2x2 unitary to qubit q of an n-qubit amplitude array.
template <typename T>
void apply_1q(std::complex<T>* amps, unsigned num_qubits, unsigned q,
              const qiskit::Mat2& gate, ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(q < num_qubits);
  active_kernels<T>().apply_1q(amps, num_qubits, q, gate, pool);
}

/// Applies a diagonal 2x2 unitary {d0, d1} to qubit q (no pairing needed).
template <typename T>
void apply_1q_diagonal(std::complex<T>* amps, unsigned num_qubits, unsigned q,
                       std::complex<T> d0, std::complex<T> d1,
                       ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(q < num_qubits);
  active_kernels<T>().apply_1q_diagonal(amps, num_qubits, q, d0, d1, pool);
}

/// Pauli-X on qubit q: a pure amplitude permutation (no arithmetic).
template <typename T>
void apply_x(std::complex<T>* amps, unsigned num_qubits, unsigned q,
             ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(q < num_qubits);
  active_kernels<T>().apply_x(amps, num_qubits, q, pool);
}

/// CX: swaps target amplitudes on the control=1 half (permutation only).
template <typename T>
void apply_cx(std::complex<T>* amps, unsigned num_qubits, unsigned control,
              unsigned target, ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(control < num_qubits && target < num_qubits &&
                control != target);
  active_kernels<T>().apply_cx(amps, num_qubits, control, target, pool);
}

/// amps[i] *= phase for every i with (i & mask) == mask — the kernel
/// behind CZ/CP and multi-controlled phases. Touches only the matching
/// 2^(n - popcount(mask)) amplitudes.
template <typename T>
void apply_phase_mask(std::complex<T>* amps, unsigned num_qubits,
                      std::uint64_t mask, std::complex<T> phase,
                      ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(mask != 0 && mask < pow2(num_qubits));
  active_kernels<T>().apply_phase_mask(amps, num_qubits, mask, phase, pool);
}

/// Two-qubit controlled-phase fast path: amps[i] *= phase when both bits
/// are set. Thin wrapper over apply_phase_mask.
template <typename T>
void apply_controlled_phase(std::complex<T>* amps, unsigned num_qubits,
                            unsigned control, unsigned target,
                            std::complex<T> phase,
                            ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(control < num_qubits && target < num_qubits &&
                control != target);
  const std::uint64_t mask = pow2(control) | pow2(target);
  active_kernels<T>().apply_phase_mask(amps, num_qubits, mask, phase, pool);
}

/// Swaps qubits a and b (amplitude permutation).
template <typename T>
void apply_swap(std::complex<T>* amps, unsigned num_qubits, unsigned a,
                unsigned b, ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(a < num_qubits && b < num_qubits && a != b);
  active_kernels<T>().apply_swap(amps, num_qubits, a, b, pool);
}

/// Specialized dense 4x4 kernel for two-qubit fused blocks — the common
/// case for CX-block workloads. Fully unrolled: no gather/scatter
/// indirection, no per-group temporaries.
template <typename T>
void apply_2q_dense(std::complex<T>* amps, unsigned num_qubits,
                    unsigned q_lo, unsigned q_hi,
                    const std::vector<std::complex<double>>& matrix,
                    ThreadPool* pool = nullptr) {
  QGEAR_EXPECTS(q_lo < q_hi && q_hi < num_qubits);
  QGEAR_EXPECTS(matrix.size() == 16);
  active_kernels<T>().apply_2q_dense(amps, num_qubits, q_lo, q_hi, matrix,
                                     pool);
}

namespace detail {
template <typename T>
void validate_block_qubits(unsigned num_qubits,
                           const std::vector<unsigned>& qubits) {
  const unsigned m = static_cast<unsigned>(qubits.size());
  QGEAR_EXPECTS(m >= 1 && m <= num_qubits);
  for (unsigned j = 0; j < m; ++j) {
    QGEAR_EXPECTS(qubits[j] < num_qubits);
    if (j > 0) QGEAR_EXPECTS(qubits[j] > qubits[j - 1]);
  }
}
}  // namespace detail

/// Applies a dense 2^m x 2^m unitary (row-major, double precision) to the
/// ascending qubit list `qubits` — the fused-block kernel. Local basis bit
/// j of the matrix corresponds to qubits[j]. Widths 1 and 2 dispatch to
/// the specialized unrolled kernels.
template <typename T>
void apply_multi(std::complex<T>* amps, unsigned num_qubits,
                 const std::vector<unsigned>& qubits,
                 const std::vector<std::complex<double>>& matrix,
                 ThreadPool* pool = nullptr) {
  detail::validate_block_qubits<T>(num_qubits, qubits);
  const unsigned m = static_cast<unsigned>(qubits.size());
  const std::uint64_t dim = pow2(m);
  QGEAR_EXPECTS(matrix.size() == dim * dim);
  if (m == 1) {
    apply_1q(amps, num_qubits, qubits[0],
             qiskit::Mat2{matrix[0], matrix[1], matrix[2], matrix[3]},
             pool);
    return;
  }
  if (m == 2) {
    apply_2q_dense(amps, num_qubits, qubits[0], qubits[1], matrix, pool);
    return;
  }
  active_kernels<T>().apply_multi_dense(amps, num_qubits, qubits, matrix,
                                        pool);
}

/// Diagonal fused-block kernel over the 2^m diagonal values:
/// amps[i] *= diag[local_index(i)].
template <typename T>
void apply_multi_diag(std::complex<T>* amps, unsigned num_qubits,
                      const std::vector<unsigned>& qubits,
                      const std::vector<std::complex<double>>& diag,
                      ThreadPool* pool = nullptr) {
  detail::validate_block_qubits<T>(num_qubits, qubits);
  QGEAR_EXPECTS(diag.size() == pow2(qubits.size()));
  active_kernels<T>().apply_multi_diag(amps, num_qubits, qubits, diag, pool);
}

/// Permutation fused-block kernel: per amplitude group,
/// out[perm[v]] = phases[v] * in[v]. O(2^m) work per group instead of the
/// dense kernel's O(4^m) — the fast path for X/CX/SWAP runs.
template <typename T>
void apply_multi_permutation(std::complex<T>* amps, unsigned num_qubits,
                             const std::vector<unsigned>& qubits,
                             const std::vector<std::uint32_t>& perm,
                             const std::vector<std::complex<double>>& phases,
                             ThreadPool* pool = nullptr) {
  detail::validate_block_qubits<T>(num_qubits, qubits);
  const std::uint64_t dim = pow2(qubits.size());
  QGEAR_EXPECTS(perm.size() == dim && phases.size() == dim);
  active_kernels<T>().apply_multi_permutation(amps, num_qubits, qubits, perm,
                                              phases, pool);
}

}  // namespace qgear::sim
