// State-vector storage for n-qubit systems.
//
// Amplitudes are indexed little-endian: qubit k is bit k of the index.
// Precision T is float or double (the paper's fp32/fp64 modes).
//
// Construction and reset() write |0...0> in one zeroing pass, split over
// the caller's ThreadPool when given one. The constructor allocates
// without value-initialising, so that pass is also the first touch of
// every page: the pool threads fault in the pages they will sweep, and
// no page is left to fault lazily inside a timed sweep.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"
#include "qgear/common/thread_pool.hpp"

namespace qgear::sim {

namespace detail {

/// std::allocator whose value-less construct() writes nothing, so a
/// sized std::vector leaves its elements for the owner to write. Copies
/// still construct through std::allocator_traits' construct_at fallback.
template <typename U>
struct UninitAllocator : std::allocator<U> {
  template <typename V>
  void construct(V*) noexcept {}
};

}  // namespace detail

template <typename T>
class StateVector {
 public:
  static_assert(std::is_floating_point_v<T>);
  using amp_t = std::complex<T>;

  /// Allocates 2^n amplitudes and zeroes them to |0...0> on `pool`
  /// (inline when null). Throws InvalidArgument, before allocating, for
  /// n outside [1, 34].
  explicit StateVector(unsigned num_qubits, ThreadPool* pool = nullptr)
      : num_qubits_(checked_qubits(num_qubits)), amps_(pow2(num_qubits_)) {
    set_zero_state(pool);
  }

  unsigned num_qubits() const { return num_qubits_; }
  std::uint64_t size() const { return amps_.size(); }

  amp_t* data() { return amps_.data(); }
  const amp_t* data() const { return amps_.data(); }
  amp_t& operator[](std::uint64_t i) { return amps_[i]; }
  const amp_t& operator[](std::uint64_t i) const { return amps_[i]; }

  std::span<amp_t> amplitudes() { return amps_; }
  std::span<const amp_t> amplitudes() const { return amps_; }

  /// Resets to |0...0> in place, zeroing on `pool` (inline when null).
  void reset(ThreadPool* pool = nullptr) { set_zero_state(pool); }

  /// Sum of |amp|^2 (should be 1 for normalized states).
  double norm() const {
    double total = 0;
    for (const amp_t& a : amps_) total += std::norm(a);
    return total;
  }

  /// Probability of basis state i.
  double probability(std::uint64_t i) const { return std::norm(amps_[i]); }

  /// <this|other> — the complex overlap.
  std::complex<double> overlap(const StateVector& other) const {
    QGEAR_EXPECTS(other.size() == size());
    std::complex<double> acc(0, 0);
    for (std::uint64_t i = 0; i < size(); ++i) {
      acc += std::conj(std::complex<double>(amps_[i])) *
             std::complex<double>(other.amps_[i]);
    }
    return acc;
  }

  /// |<this|other>|^2 — state fidelity (global-phase insensitive).
  double fidelity(const StateVector& other) const {
    return std::norm(overlap(other));
  }

 private:
  static unsigned checked_qubits(unsigned n) {
    QGEAR_CHECK_ARG(n >= 1 && n <= 34,
                    "state vector qubit count out of supported range");
    return n;
  }

  /// The one zeroing pass: every amplitude to 0, then amplitude 0 to 1.
  void set_zero_state(ThreadPool* pool) {
    amp_t* amps = amps_.data();
    const auto zero = [amps](std::uint64_t begin, std::uint64_t end) {
      std::fill(amps + begin, amps + end, amp_t(0, 0));
    };
    if (pool != nullptr) {
      pool->parallel_for(0, size(), zero);
    } else {
      zero(0, size());
    }
    amps[0] = amp_t(1, 0);
  }

  unsigned num_qubits_;
  std::vector<amp_t, detail::UninitAllocator<amp_t>> amps_;
};

}  // namespace qgear::sim
