// Shared plumbing for the amplitude-sweep kernel variants (scalar and
// vectorized): precision conversion and the pooled range driver.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/qiskit/gates.hpp"

namespace qgear::sim {

/// Converts the canonical double-precision 2x2 into precision T.
template <typename T>
std::array<std::complex<T>, 4> to_precision(const qiskit::Mat2& m) {
  return {std::complex<T>(m[0]), std::complex<T>(m[1]),
          std::complex<T>(m[2]), std::complex<T>(m[3])};
}

namespace detail {
/// Runs body(ctx, begin, end) over [0, count) on the pool. Out of line
/// (kernels_dispatch.cpp), so that the std::function it hands the pool
/// is built with the baseline flags: a SIMD kernel TU that built one
/// could leave std::function's inline members there as weak symbols.
void parallel_range(ThreadPool& pool, std::uint64_t count,
                    void (*body)(const void*, std::uint64_t, std::uint64_t),
                    const void* ctx);

/// Runs fn(begin, end) over [0, count) — pooled or inline.
template <typename Fn>
void for_range(ThreadPool* pool, std::uint64_t count, const Fn& fn) {
  if (pool == nullptr) {
    fn(0, count);
    return;
  }
  parallel_range(
      *pool, count,
      [](const void* ctx, std::uint64_t begin, std::uint64_t end) {
        (*static_cast<const Fn*>(ctx))(begin, end);
      },
      &fn);
}
}  // namespace detail

}  // namespace qgear::sim
