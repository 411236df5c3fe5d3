// Portable scalar implementations of every amplitude-sweep kernel.
//
// These are the semantics reference for the vectorized variants (see
// kernels_vec.ipp): each SIMD kernel must match these loops to floating-
// point rounding on every input, including unaligned tails and states
// smaller than one vector. They also serve as the Isa::scalar dispatch
// table and as the fallback on hosts without x86 SIMD.
//
// Argument validation lives in the public entry points (kernels.hpp);
// these bodies assume validated inputs.
#pragma once

#include "qgear/sim/kernel_table.hpp"
#include "qgear/sim/kernels_common.hpp"

namespace qgear::sim::scalar {

/// 2x2 unitary on qubit q.
template <typename T>
void apply_1q(std::complex<T>* amps, unsigned num_qubits, unsigned q,
              const qiskit::Mat2& gate, ThreadPool* pool) {
  const auto m = to_precision<T>(gate);
  const std::uint64_t pairs = pow2(num_qubits - 1);
  const std::uint64_t stride = pow2(q);
  detail::for_range(pool, pairs, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t k = begin; k < end; ++k) {
      const std::uint64_t i0 = insert_zero_bit(k, q);
      const std::uint64_t i1 = i0 | stride;
      const std::complex<T> a0 = amps[i0];
      const std::complex<T> a1 = amps[i1];
      amps[i0] = m[0] * a0 + m[1] * a1;
      amps[i1] = m[2] * a0 + m[3] * a1;
    }
  });
}

/// Diagonal 2x2 {d0, d1} on qubit q (no pairing needed).
template <typename T>
void apply_1q_diagonal(std::complex<T>* amps, unsigned num_qubits, unsigned q,
                       std::complex<T> d0, std::complex<T> d1,
                       ThreadPool* pool) {
  const std::uint64_t total = pow2(num_qubits);
  detail::for_range(pool, total, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      amps[i] *= test_bit(i, q) ? d1 : d0;
    }
  });
}

/// Pauli-X on qubit q: pure amplitude permutation, no arithmetic.
template <typename T>
void apply_x(std::complex<T>* amps, unsigned num_qubits, unsigned q,
             ThreadPool* pool) {
  const std::uint64_t pairs = pow2(num_qubits - 1);
  const std::uint64_t stride = pow2(q);
  detail::for_range(pool, pairs, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t k = begin; k < end; ++k) {
      const std::uint64_t i0 = insert_zero_bit(k, q);
      std::swap(amps[i0], amps[i0 | stride]);
    }
  });
}

/// CX: amplitude permutation on the control=1 half.
template <typename T>
void apply_cx(std::complex<T>* amps, unsigned num_qubits, unsigned control,
              unsigned target, ThreadPool* pool) {
  const unsigned lo = std::min(control, target);
  const unsigned hi = std::max(control, target);
  const std::uint64_t groups = pow2(num_qubits - 2);
  const std::uint64_t cbit = pow2(control);
  const std::uint64_t tbit = pow2(target);
  detail::for_range(pool, groups, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t k = begin; k < end; ++k) {
      const std::uint64_t base = insert_two_zero_bits(k, lo, hi) | cbit;
      std::swap(amps[base], amps[base | tbit]);
    }
  });
}

/// amps[i] *= phase for every i with (i & mask) == mask. Covers CZ/CP
/// (2-bit masks) and multi-controlled phases; touches only the matching
/// 2^(n - popcount) amplitudes instead of scanning all 2^n.
template <typename T>
void apply_phase_mask(std::complex<T>* amps, unsigned num_qubits,
                      std::uint64_t mask, std::complex<T> phase,
                      ThreadPool* pool) {
  unsigned bits[64];
  unsigned nbits = 0;
  for (unsigned b = 0; b < num_qubits; ++b) {
    if (test_bit(mask, b)) bits[nbits++] = b;
  }
  const std::uint64_t matches = pow2(num_qubits - nbits);
  detail::for_range(
      pool, matches,
      [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t k = begin; k < end; ++k) {
          std::uint64_t i = k;
          for (unsigned b = 0; b < nbits; ++b) {
            i = insert_zero_bit(i, bits[b]);
          }
          amps[i | mask] *= phase;
        }
      });
}

/// Swaps qubits a and b (amplitude permutation).
template <typename T>
void apply_swap(std::complex<T>* amps, unsigned num_qubits, unsigned a,
                unsigned b, ThreadPool* pool) {
  const unsigned lo = std::min(a, b);
  const unsigned hi = std::max(a, b);
  const std::uint64_t groups = pow2(num_qubits - 2);
  const std::uint64_t abit = pow2(a);
  const std::uint64_t bbit = pow2(b);
  detail::for_range(pool, groups, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t k = begin; k < end; ++k) {
      const std::uint64_t i01 = insert_two_zero_bits(k, lo, hi) | abit;
      const std::uint64_t i10 = (i01 ^ abit) | bbit;
      std::swap(amps[i01], amps[i10]);
    }
  });
}

/// Dense 4x4 kernel for two-qubit fused blocks. Fully unrolled: no
/// gather/scatter indirection, no per-group temporaries.
template <typename T>
void apply_2q_dense(std::complex<T>* amps, unsigned num_qubits,
                    unsigned q_lo, unsigned q_hi,
                    const std::vector<std::complex<double>>& matrix,
                    ThreadPool* pool) {
  std::array<std::complex<T>, 16> m;
  for (int i = 0; i < 16; ++i) m[i] = std::complex<T>(matrix[i]);
  const std::uint64_t groups = pow2(num_qubits - 2);
  const std::uint64_t lo_bit = pow2(q_lo);
  const std::uint64_t hi_bit = pow2(q_hi);
  detail::for_range(pool, groups, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t g = begin; g < end; ++g) {
      const std::uint64_t i0 = insert_two_zero_bits(g, q_lo, q_hi);
      const std::uint64_t i1 = i0 | lo_bit;
      const std::uint64_t i2 = i0 | hi_bit;
      const std::uint64_t i3 = i1 | hi_bit;
      const std::complex<T> a0 = amps[i0], a1 = amps[i1], a2 = amps[i2],
                            a3 = amps[i3];
      amps[i0] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
      amps[i1] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
      amps[i2] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
      amps[i3] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
    }
  });
}

/// Dense 2^m x 2^m unitary over the ascending qubit list (m >= 3):
/// gather each amplitude group, multiply, scatter back.
template <typename T>
void apply_multi_dense(std::complex<T>* amps, unsigned num_qubits,
                       const std::vector<unsigned>& qubits,
                       const std::vector<std::complex<double>>& matrix,
                       ThreadPool* pool) {
  const unsigned m = static_cast<unsigned>(qubits.size());
  const std::uint64_t dim = pow2(m);
  // Pre-convert the matrix once per sweep.
  std::vector<std::complex<T>> mat(dim * dim);
  for (std::uint64_t i = 0; i < dim * dim; ++i) {
    mat[i] = std::complex<T>(matrix[i]);
  }
  // Precompute the offset of each local basis index within a group.
  std::vector<std::uint64_t> offsets(dim);
  for (std::uint64_t v = 0; v < dim; ++v) {
    offsets[v] = deposit_bits(v, qubits.data(), m);
  }

  const std::uint64_t groups = pow2(num_qubits - m);
  const auto* offs = offsets.data();
  const auto* mp = mat.data();
  detail::for_range(pool, groups, [=](std::uint64_t begin, std::uint64_t end) {
    std::vector<std::complex<T>> in(dim), out(dim);
    for (std::uint64_t g = begin; g < end; ++g) {
      // Scatter group index g into the non-block bit positions.
      std::uint64_t base = g;
      for (unsigned j = 0; j < m; ++j) {
        base = insert_zero_bit(base, qubits[j]);
      }
      for (std::uint64_t v = 0; v < dim; ++v) in[v] = amps[base + offs[v]];
      for (std::uint64_t r = 0; r < dim; ++r) {
        std::complex<T> acc(0, 0);
        const auto* row = mp + r * dim;
        for (std::uint64_t c = 0; c < dim; ++c) acc += row[c] * in[c];
        out[r] = acc;
      }
      for (std::uint64_t v = 0; v < dim; ++v) amps[base + offs[v]] = out[v];
    }
  });
}

/// Diagonal fused-block kernel: amps[i] *= diag[local_index(i)], where
/// `diag` holds the 2^m diagonal entries of the block unitary.
template <typename T>
void apply_multi_diag(std::complex<T>* amps, unsigned num_qubits,
                      const std::vector<unsigned>& qubits,
                      const std::vector<std::complex<double>>& diag,
                      ThreadPool* pool) {
  const unsigned m = static_cast<unsigned>(qubits.size());
  std::vector<std::complex<T>> d(diag.size());
  for (std::uint64_t v = 0; v < diag.size(); ++v) {
    d[v] = std::complex<T>(diag[v]);
  }
  const std::uint64_t total = pow2(num_qubits);
  const auto* dptr = d.data();
  const unsigned* qptr = qubits.data();
  detail::for_range(pool, total, [=](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      std::uint64_t v = 0;
      for (unsigned j = 0; j < m; ++j) {
        v |= static_cast<std::uint64_t>((i >> qptr[j]) & 1u) << j;
      }
      amps[i] *= dptr[v];
    }
  });
}

/// Permutation fused-block kernel: per amplitude group,
/// out[perm[v]] = phases[v] * in[v]. O(2^m) per group instead of the
/// dense kernel's O(4^m) — the fast path for X/CX/SWAP runs.
template <typename T>
void apply_multi_permutation(std::complex<T>* amps, unsigned num_qubits,
                             const std::vector<unsigned>& qubits,
                             const std::vector<std::uint32_t>& perm,
                             const std::vector<std::complex<double>>& phases,
                             ThreadPool* pool) {
  const unsigned m = static_cast<unsigned>(qubits.size());
  const std::uint64_t dim = pow2(m);
  std::vector<std::complex<T>> ph(dim);
  for (std::uint64_t v = 0; v < dim; ++v) ph[v] = std::complex<T>(phases[v]);
  std::vector<std::uint64_t> offsets(dim);
  for (std::uint64_t v = 0; v < dim; ++v) {
    offsets[v] = deposit_bits(v, qubits.data(), m);
  }
  const std::uint64_t groups = pow2(num_qubits - m);
  const auto* offs = offsets.data();
  const auto* pp = perm.data();
  const auto* php = ph.data();
  detail::for_range(pool, groups, [=](std::uint64_t begin, std::uint64_t end) {
    std::vector<std::complex<T>> out(dim);
    for (std::uint64_t g = begin; g < end; ++g) {
      std::uint64_t base = g;
      for (unsigned j = 0; j < m; ++j) {
        base = insert_zero_bit(base, qubits[j]);
      }
      for (std::uint64_t v = 0; v < dim; ++v) {
        out[pp[v]] = php[v] * amps[base + offs[v]];
      }
      for (std::uint64_t v = 0; v < dim; ++v) amps[base + offs[v]] = out[v];
    }
  });
}

/// The Isa::scalar dispatch table (also the fallback table for ISA TUs
/// compiled on targets without that instruction set).
template <typename T>
constexpr KernelTable<T> make_scalar_table() {
  return {apply_1q<T>,           apply_1q_diagonal<T>,
          apply_x<T>,            apply_cx<T>,
          apply_phase_mask<T>,   apply_swap<T>,
          apply_2q_dense<T>,     apply_multi_dense<T>,
          apply_multi_diag<T>,   apply_multi_permutation<T>};
}

}  // namespace qgear::sim::scalar
