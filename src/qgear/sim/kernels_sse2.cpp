// SSE2 kernel variant: 128-bit vectors, 1 complex double or 2 complex
// floats per register. SSE2 has neither FMA nor addsub, so the complex
// multiply emulates addsub by flipping the sign of the real lanes of the
// cross term (XOR with -0.0 in the even slots) before a plain add.
//
// Compiled with -msse2 when the toolchain accepts it; on x86-64 the
// baseline already implies SSE2 so this mostly exercises the dispatch
// path and gives a deterministic non-FMA reference on AVX2 hosts.
#include "qgear/sim/kernel_table.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "qgear/sim/kernels_vec.ipp"

namespace qgear::sim {
namespace {

struct VecD {
  __m128d v;
  static constexpr int lanes = 1;

  struct Const {
    __m128d re, im;
  };

  static VecD load(const std::complex<double>* p) {
    return {_mm_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(std::complex<double>* p) const {
    _mm_storeu_pd(reinterpret_cast<double*>(p), v);
  }

  static Const cbroadcast(std::complex<double> c) {
    return {_mm_set1_pd(c.real()), _mm_set1_pd(c.imag())};
  }
  static Const lane_consts(const std::complex<double>* p) {
    return cbroadcast(*p);
  }
  __m128d swapped() const { return _mm_shuffle_pd(v, v, 0x1); }
  // addsub(a, b) = (a0 - b0, a1 + b1): flip sign of b's real lane, add.
  static __m128d addsub(__m128d a, __m128d b) {
    return _mm_add_pd(a, _mm_xor_pd(b, _mm_set_pd(0.0, -0.0)));
  }
  VecD mul(Const c) const {
    return {addsub(_mm_mul_pd(v, c.re), _mm_mul_pd(swapped(), c.im))};
  }
  VecD fmadd(Const c, VecD acc) const {
    return {_mm_add_pd(acc.v, mul(c).v)};
  }
};

struct VecF {
  __m128 v;
  static constexpr int lanes = 2;

  struct Const {
    __m128 re, im;
  };

  static VecF load(const std::complex<float>* p) {
    return {_mm_loadu_ps(reinterpret_cast<const float*>(p))};
  }
  void store(std::complex<float>* p) const {
    _mm_storeu_ps(reinterpret_cast<float*>(p), v);
  }

  static Const cbroadcast(std::complex<float> c) {
    return {_mm_set1_ps(c.real()), _mm_set1_ps(c.imag())};
  }
  static Const lane_consts(const std::complex<float>* p) {
    const __m128 c = _mm_loadu_ps(reinterpret_cast<const float*>(p));
    return {_mm_shuffle_ps(c, c, _MM_SHUFFLE(2, 2, 0, 0)),
            _mm_shuffle_ps(c, c, _MM_SHUFFLE(3, 3, 1, 1))};
  }
  // Two lanes: bit is always 0, so swap the two complex values.
  VecF flip(unsigned /*bit*/) const {
    return {_mm_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 3, 2))};
  }
  __m128 swapped() const {
    return _mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1));
  }
  static __m128 addsub(__m128 a, __m128 b) {
    return _mm_add_ps(a, _mm_xor_ps(b, _mm_set_ps(0.0f, -0.0f, 0.0f, -0.0f)));
  }
  VecF mul(Const c) const {
    return {addsub(_mm_mul_ps(v, c.re), _mm_mul_ps(swapped(), c.im))};
  }
  VecF fmadd(Const c, VecF acc) const {
    return {_mm_add_ps(acc.v, mul(c).v)};
  }
};

using KD = VecKernels<VecD, double>;
using KF = VecKernels<VecF, float>;

}  // namespace

namespace detail {

const KernelTable<double>& sse2_table_d() {
  static const KernelTable<double> t = {
      KD::apply_1q,           KD::apply_1q_diagonal,
      KD::apply_x,            KD::apply_cx,
      KD::apply_phase_mask,   KD::apply_swap,
      KD::apply_2q_dense,     KD::apply_multi_dense,
      KD::apply_multi_diag,   scalar_table_d().apply_multi_permutation};
  return t;
}

const KernelTable<float>& sse2_table_f() {
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

#else  // no SSE2 at compile time: alias the scalar table

namespace qgear::sim::detail {

const KernelTable<double>& sse2_table_d() { return scalar_table_d(); }

const KernelTable<float>& sse2_table_f() { return scalar_table_f(); }

}  // namespace qgear::sim::detail

#endif
