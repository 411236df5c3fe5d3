// Binds the per-ISA kernel tables to the runtime dispatch entry points,
// and hands the kernels' pooled ranges to the thread pool.
#include "qgear/sim/kernel_table.hpp"
#include "qgear/sim/kernels_scalar.hpp"

namespace qgear::sim {

namespace detail {

void parallel_range(ThreadPool& pool, std::uint64_t count,
                    void (*body)(const void*, std::uint64_t, std::uint64_t),
                    const void* ctx) {
  pool.parallel_for(0, count, [body, ctx](std::uint64_t b, std::uint64_t e) {
    body(ctx, b, e);
  });
}

const KernelTable<float>& scalar_table_f() {
  static const KernelTable<float> t = scalar::make_scalar_table<float>();
  return t;
}

const KernelTable<double>& scalar_table_d() {
  static const KernelTable<double> t = scalar::make_scalar_table<double>();
  return t;
}

}  // namespace detail

namespace {

template <typename T>
const KernelTable<T>& isa_table(Isa isa);

template <>
const KernelTable<float>& isa_table<float>(Isa isa) {
  switch (isa) {
    case Isa::avx512:
      return detail::avx512_table_f();
    case Isa::avx2:
      return detail::avx2_table_f();
    case Isa::sse2:
      return detail::sse2_table_f();
    case Isa::scalar:
      break;
  }
  return detail::scalar_table_f();
}

template <>
const KernelTable<double>& isa_table<double>(Isa isa) {
  switch (isa) {
    case Isa::avx512:
      return detail::avx512_table_d();
    case Isa::avx2:
      return detail::avx2_table_d();
    case Isa::sse2:
      return detail::sse2_table_d();
    case Isa::scalar:
      break;
  }
  return detail::scalar_table_d();
}

}  // namespace

template <typename T>
const KernelTable<T>& kernel_table_for(Isa isa) {
  return isa_table<T>(isa);
}

template <typename T>
const KernelTable<T>& active_kernels() {
  return isa_table<T>(active_isa());
}

template const KernelTable<float>& kernel_table_for<float>(Isa);
template const KernelTable<double>& kernel_table_for<double>(Isa);
template const KernelTable<float>& active_kernels<float>();
template const KernelTable<double>& active_kernels<double>();

}  // namespace qgear::sim
