// AVX-512F kernel variant: 512-bit vectors, 4 complex doubles or 8
// complex floats per register, interleaved re/im layout, with the same
// fmaddsub complex multiply as kernels_avx2.cpp.
//
// The wider vector sends one more qubit position to the scalar
// below-vector loops of the pair kernels, where the AVX2 table still
// vectorizes. So this table hands apply_1q calls whose qubit sits inside
// a 512-bit vector to the AVX2 table, and likewise apply_2q_dense on a
// state smaller than one vector (fp32, n = 2). apply_x, apply_cx,
// apply_swap and apply_phase_mask were slower in 512-bit registers at
// some position (the fp64 phase mask by 5% at q = 10, fp32 swaps of
// 2^10 by up to 9%), so the table keeps their AVX2 entries at every
// position. The dense, diagonal and fused-block kernels run here at
// every position.
//
// This TU is compiled with -mavx512f -mfma when the toolchain accepts
// those flags; otherwise the #else branch exports the AVX2 table.
#include "qgear/sim/kernel_table.hpp"

#if defined(__AVX512F__) && defined(__FMA__)

// GCC before 13 reports the undefined pass-through operand inside some
// AVX-512 intrinsics (_mm512_permute_pd, _mm512_permute_ps, ...) as
// uninitialized (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif

#include "qgear/sim/kernels_vec.ipp"

namespace qgear::sim {
namespace {

struct VecD {
  __m512d v;
  static constexpr int lanes = 4;

  struct Const {
    __m512d re, im;
  };

  static VecD load(const std::complex<double>* p) {
    return {_mm512_loadu_pd(reinterpret_cast<const double*>(p))};
  }
  void store(std::complex<double>* p) const {
    _mm512_storeu_pd(reinterpret_cast<double*>(p), v);
  }

  static Const cbroadcast(std::complex<double> c) {
    return {_mm512_set1_pd(c.real()), _mm512_set1_pd(c.imag())};
  }
  static Const lane_consts(const std::complex<double>* p) {
    const __m512d c = _mm512_loadu_pd(reinterpret_cast<const double*>(p));
    return {_mm512_movedup_pd(c), _mm512_permute_pd(c, 0xFF)};
  }
  // Each lane is one 128-bit block: bit 0 swaps neighbouring blocks,
  // bit 1 the two 256-bit halves.
  VecD flip(unsigned bit) const {
    return {bit == 0 ? _mm512_shuffle_f64x2(v, v, 0xB1)
                     : _mm512_shuffle_f64x2(v, v, 0x4E)};
  }
  __m512d swapped() const { return _mm512_permute_pd(v, 0x55); }
  VecD mul(Const c) const {
    return {_mm512_fmaddsub_pd(v, c.re, _mm512_mul_pd(swapped(), c.im))};
  }
  // acc + this*c: the inner fmaddsub leaves (a_im*c_im - acc_re,
  // a_re*c_im + acc_im); the outer one restores both signs.
  VecD fmadd(Const c, VecD acc) const {
    return {_mm512_fmaddsub_pd(v, c.re,
                               _mm512_fmaddsub_pd(swapped(), c.im, acc.v))};
  }
};

struct VecF {
  __m512 v;
  static constexpr int lanes = 8;

  struct Const {
    __m512 re, im;
  };

  static VecF load(const std::complex<float>* p) {
    return {_mm512_loadu_ps(reinterpret_cast<const float*>(p))};
  }
  void store(std::complex<float>* p) const {
    _mm512_storeu_ps(reinterpret_cast<float*>(p), v);
  }

  static Const cbroadcast(std::complex<float> c) {
    return {_mm512_set1_ps(c.real()), _mm512_set1_ps(c.imag())};
  }
  static Const lane_consts(const std::complex<float>* p) {
    const __m512 c = _mm512_loadu_ps(reinterpret_cast<const float*>(p));
    return {_mm512_moveldup_ps(c), _mm512_movehdup_ps(c)};
  }
  // Lane j <-> j ^ (1 << bit) is float slot f <-> f ^ (2 << bit): one
  // cross-lane permute for any of the three bits.
  VecF flip(unsigned bit) const {
    const __m512i idx = _mm512_xor_si512(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(2 << bit));
    return {_mm512_permutexvar_ps(idx, v)};
  }
  __m512 swapped() const { return _mm512_permute_ps(v, 0xB1); }
  VecF mul(Const c) const {
    return {_mm512_fmaddsub_ps(v, c.re, _mm512_mul_ps(swapped(), c.im))};
  }
  VecF fmadd(Const c, VecF acc) const {
    return {_mm512_fmaddsub_ps(v, c.re,
                               _mm512_fmaddsub_ps(swapped(), c.im, acc.v))};
  }
};

/// The AVX-512 kernels K, with the calls the hand-off rule names sent to
/// the AVX2 table `narrow`.
template <typename K, typename T, const KernelTable<T>& (*narrow)()>
struct HandOff {
  using amp_t = std::complex<T>;

  static void apply_1q(amp_t* amps, unsigned n, unsigned q,
                       const qiskit::Mat2& gate, ThreadPool* pool) {
    const auto fn = pow2(q) < K::kLanes ? narrow().apply_1q : K::apply_1q;
    fn(amps, n, q, gate, pool);
  }
  static void apply_2q_dense(amp_t* amps, unsigned n, unsigned q_lo,
                             unsigned q_hi,
                             const std::vector<std::complex<double>>& matrix,
                             ThreadPool* pool) {
    const auto fn =
        pow2(n) < K::kLanes ? narrow().apply_2q_dense : K::apply_2q_dense;
    fn(amps, n, q_lo, q_hi, matrix, pool);
  }

  /// The AVX2 table with the kernels that ran faster in 512-bit registers
  /// swapped in.
  static KernelTable<T> table() {
    KernelTable<T> t = narrow();
    t.apply_1q = apply_1q;
    t.apply_1q_diagonal = K::apply_1q_diagonal;
    t.apply_2q_dense = apply_2q_dense;
    t.apply_multi_dense = K::apply_multi_dense;
    t.apply_multi_diag = K::apply_multi_diag;
    return t;
  }
};

using HD = HandOff<VecKernels<VecD, double>, double, detail::avx2_table_d>;
using HF = HandOff<VecKernels<VecF, float>, float, detail::avx2_table_f>;

}  // namespace

namespace detail {

const KernelTable<double>& avx512_table_d() {
  static const KernelTable<double> t = HD::table();
  return t;
}

const KernelTable<float>& avx512_table_f() {
  static const KernelTable<float> t = HF::table();
  return t;
}

}  // namespace detail
}  // namespace qgear::sim

#else  // no AVX-512 at compile time: alias the AVX2 table

namespace qgear::sim::detail {

const KernelTable<double>& avx512_table_d() { return avx2_table_d(); }

const KernelTable<float>& avx512_table_f() { return avx2_table_f(); }

}  // namespace qgear::sim::detail

#endif
