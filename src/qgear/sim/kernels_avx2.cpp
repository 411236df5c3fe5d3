// AVX2+FMA kernel variant: 256-bit vectors, 2 complex doubles or 4
// complex floats per register, interleaved re/im layout. Complex multiply
// uses the fmaddsub/fmsubadd idiom (see docs/KERNELS.md); a fused
// multiply-accumulate of `acc + a*c` costs two FMAs and one in-lane
// shuffle, no separate add.
//
// This TU is compiled with -mavx2 -mfma when the toolchain accepts those
// flags; otherwise the #else branch exports the scalar table so dispatch
// degrades gracefully on non-x86 targets.
#include "qgear/sim/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "qgear/sim/kernels_vec.ipp"

namespace qgear::sim {
namespace {

struct VecD {
  __m256d v;
  static constexpr int lanes = 2;

  struct Const {
    __m256d re, im;
  };

  static VecD load(const std::complex<double>* p) {
    return {_mm256_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(std::complex<double>* p) const {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }

  static Const cbroadcast(std::complex<double> c) {
    return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
  }
  static Const lane_consts(const std::complex<double>* p) {
    const __m256d c = _mm256_loadu_pd(reinterpret_cast<const double*>(p));
    return {_mm256_movedup_pd(c), _mm256_permute_pd(c, 0xF)};
  }
  // Two lanes: bit is always 0, so swap the 128-bit halves.
  VecD flip(unsigned /*bit*/) const {
    return {_mm256_permute4x64_pd(v, 0x4E)};
  }
  __m256d swapped() const { return _mm256_permute_pd(v, 0x5); }
  VecD mul(Const c) const {
    return {_mm256_fmaddsub_pd(v, c.re, _mm256_mul_pd(swapped(), c.im))};
  }
  // acc + this*c: the inner fmaddsub leaves (a_im*c_im - acc_re,
  // a_re*c_im + acc_im); the outer one restores both signs.
  VecD fmadd(Const c, VecD acc) const {
    return {_mm256_fmaddsub_pd(v, c.re,
                               _mm256_fmaddsub_pd(swapped(), c.im, acc.v))};
  }
};

struct VecF {
  __m256 v;
  static constexpr int lanes = 4;

  struct Const {
    __m256 re, im;
  };

  static VecF load(const std::complex<float>* p) {
    return {_mm256_loadu_ps(reinterpret_cast<const float*>(p))};
  }
  void store(std::complex<float>* p) const {
    _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
  }

  static Const cbroadcast(std::complex<float> c) {
    return {_mm256_set1_ps(c.real()), _mm256_set1_ps(c.imag())};
  }
  static Const lane_consts(const std::complex<float>* p) {
    const __m256 c = _mm256_loadu_ps(reinterpret_cast<const float*>(p));
    return {_mm256_moveldup_ps(c), _mm256_movehdup_ps(c)};
  }
  // Lane j <-> j ^ (1 << bit) is float slot f <-> f ^ (2 << bit): one
  // cross-lane permute for either bit.
  VecF flip(unsigned bit) const {
    const __m256i idx =
        _mm256_xor_si256(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(2 << bit));
    return {_mm256_permutevar8x32_ps(v, idx)};
  }
  __m256 swapped() const { return _mm256_permute_ps(v, 0xB1); }
  VecF mul(Const c) const {
    return {_mm256_fmaddsub_ps(v, c.re, _mm256_mul_ps(swapped(), c.im))};
  }
  VecF fmadd(Const c, VecF acc) const {
    return {_mm256_fmaddsub_ps(v, c.re,
                               _mm256_fmaddsub_ps(swapped(), c.im, acc.v))};
  }
};

using KD = VecKernels<VecD, double>;
using KF = VecKernels<VecF, float>;

}  // namespace

namespace detail {

const KernelTable<double>& avx2_table_d() {
  static const KernelTable<double> t = {
      KD::apply_1q,           KD::apply_1q_diagonal,
      KD::apply_x,            KD::apply_cx,
      KD::apply_phase_mask,   KD::apply_swap,
      KD::apply_2q_dense,     KD::apply_multi_dense,
      KD::apply_multi_diag,   scalar_table_d().apply_multi_permutation};
  return t;
}

const KernelTable<float>& avx2_table_f() {
  static const KernelTable<float> t = {
      KF::apply_1q,           KF::apply_1q_diagonal,
      KF::apply_x,            KF::apply_cx,
      KF::apply_phase_mask,   KF::apply_swap,
      KF::apply_2q_dense,     KF::apply_multi_dense,
      KF::apply_multi_diag,   scalar_table_f().apply_multi_permutation};
  return t;
}

}  // namespace detail
}  // namespace qgear::sim

#else  // no AVX2 at compile time: alias the scalar table

namespace qgear::sim::detail {

const KernelTable<double>& avx2_table_d() { return scalar_table_d(); }

const KernelTable<float>& avx2_table_f() { return scalar_table_f(); }

}  // namespace qgear::sim::detail

#endif
