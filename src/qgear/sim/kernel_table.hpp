// Per-ISA kernel dispatch table.
//
// Each ISA variant (scalar, sse2, avx2, avx512) fills one KernelTable<T>
// per precision with function pointers to its amplitude-sweep kernels. The
// public entry points in kernels.hpp fetch the table matching active_isa()
// on every call (one relaxed atomic load — negligible against a 2^n
// sweep), so QGEAR_ISA / set_active_isa() take effect immediately.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "qgear/qiskit/gates.hpp"
#include "qgear/sim/isa.hpp"

namespace qgear {
class ThreadPool;
}

namespace qgear::sim {

template <typename T>
struct KernelTable {
  void (*apply_1q)(std::complex<T>*, unsigned, unsigned, const qiskit::Mat2&,
                   ThreadPool*);
  void (*apply_1q_diagonal)(std::complex<T>*, unsigned, unsigned,
                            std::complex<T>, std::complex<T>, ThreadPool*);
  void (*apply_x)(std::complex<T>*, unsigned, unsigned, ThreadPool*);
  void (*apply_cx)(std::complex<T>*, unsigned, unsigned, unsigned,
                   ThreadPool*);
  void (*apply_phase_mask)(std::complex<T>*, unsigned, std::uint64_t,
                           std::complex<T>, ThreadPool*);
  void (*apply_swap)(std::complex<T>*, unsigned, unsigned, unsigned,
                     ThreadPool*);
  void (*apply_2q_dense)(std::complex<T>*, unsigned, unsigned, unsigned,
                         const std::vector<std::complex<double>>&,
                         ThreadPool*);
  void (*apply_multi_dense)(std::complex<T>*, unsigned,
                            const std::vector<unsigned>&,
                            const std::vector<std::complex<double>>&,
                            ThreadPool*);
  void (*apply_multi_diag)(std::complex<T>*, unsigned,
                           const std::vector<unsigned>&,
                           const std::vector<std::complex<double>>&,
                           ThreadPool*);
  void (*apply_multi_permutation)(std::complex<T>*, unsigned,
                                  const std::vector<unsigned>&,
                                  const std::vector<std::uint32_t>&,
                                  const std::vector<std::complex<double>>&,
                                  ThreadPool*);
};

namespace detail {
// The scalar tables, built in kernels_dispatch.cpp with the baseline
// flags. The ISA TUs fill their scalar slots from these, so that no
// scalar template is instantiated, as a weak symbol the linker may pick
// for the whole binary, under their wider flags.
const KernelTable<float>& scalar_table_f();
const KernelTable<double>& scalar_table_d();
// Defined by the per-ISA TUs (kernels_sse2.cpp, kernels_avx2.cpp,
// kernels_avx512.cpp). When that instruction set was not available at
// compile time (e.g. a non-x86 target), the sse2 and avx2 tables return
// the scalar table and the avx512 table the avx2 one.
const KernelTable<float>& sse2_table_f();
const KernelTable<double>& sse2_table_d();
const KernelTable<float>& avx2_table_f();
const KernelTable<double>& avx2_table_d();
const KernelTable<float>& avx512_table_f();
const KernelTable<double>& avx512_table_d();
}  // namespace detail

/// Table for a specific ISA (a lower tier's table when that ISA's kernels
/// were not compiled into this binary, e.g. avx2 on a non-x86 build).
template <typename T>
const KernelTable<T>& kernel_table_for(Isa isa);

/// Table matching active_isa() right now.
template <typename T>
const KernelTable<T>& active_kernels();

extern template const KernelTable<float>& kernel_table_for<float>(Isa);
extern template const KernelTable<double>& kernel_table_for<double>(Isa);
extern template const KernelTable<float>& active_kernels<float>();
extern template const KernelTable<double>& active_kernels<double>();

}  // namespace qgear::sim
