#include "qgear/sim/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"

namespace qgear::sim {

namespace {

obs::Counter& shots_counter() {
  static obs::Counter& c = obs::Registry::global().counter("sim.sample.shots");
  return c;
}

template <typename T>
double weight_of(const std::complex<T>& a) {
  const double re = a.real();
  const double im = a.imag();
  return re * re + im * im;
}

/// Sum of |a|^2 over one chunk. Four interleaved partial sums break the
/// add dependency chain so this full-state pass keeps up with memory; the
/// order is fixed, so the sum does not depend on the pool.
template <typename T>
double chunk_weight(const std::complex<T>* a, std::uint64_t len) {
  double s[4] = {0, 0, 0, 0};
  std::uint64_t i = 0;
  for (; i + 4 <= len; i += 4) {
    for (unsigned k = 0; k < 4; ++k) s[k] += weight_of(a[i + k]);
  }
  for (; i < len; ++i) s[0] += weight_of(a[i]);
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// Inverse CDF over a non-decreasing cumulative sum (the last entry is
/// the total), with Chen and Asau's guide table: guide[j] is the first
/// index whose sum exceeds j/m of the total, so a lookup starts a step or
/// two from its answer instead of bisecting with a mispredicted branch
/// per level. A lookup never returns an index that added no weight.
class InverseCdf {
 public:
  /// `buckets` = m, at most the number of lookups worth preparing for.
  InverseCdf(std::span<const double> cum, std::uint64_t buckets)
      : cum_(cum), guide_(std::max<std::uint64_t>(buckets, 1)) {
    const double total = cum.back();
    const std::uint64_t m = guide_.size();
    std::uint64_t i = 0;
    for (std::uint64_t j = 0; j < m; ++j) {
      const double threshold = total * (static_cast<double>(j) / m);
      while (i + 1 < cum.size() && cum[i] <= threshold) ++i;
      guide_[j] = i;
    }
    last_ = static_cast<std::uint64_t>(
        std::lower_bound(cum.begin(), cum.end(), total) - cum.begin());
  }

  /// The first index whose cumulative sum exceeds v * total, v in [0, 1).
  /// A product at or past the total (a subnormal total can round up to
  /// itself) goes to the last index that added weight.
  std::uint64_t operator()(double v) const {
    const double u = v * cum_.back();
    const std::uint64_t m = guide_.size();
    std::uint64_t i =
        guide_[std::min(static_cast<std::uint64_t>(v * m), m - 1)];
    // The guide is exact up to rounding; step back if it overshot.
    while (i > 0 && cum_[i - 1] > u) --i;
    while (i < cum_.size() && cum_[i] <= u) ++i;
    return i < cum_.size() ? i : last_;
  }

 private:
  std::span<const double> cum_;
  std::vector<std::uint64_t> guide_;
  std::uint64_t last_ = 0;
};

/// Draws `shots` indices from one chunk whose first amplitude has basis
/// index `first`: builds the chunk's cumulative sum once, looks each
/// uniform up in it and writes the hits to `out` as ascending runs.
/// Returns the number of runs. `cum` and `hits` are kSampleChunk-entry
/// scratch.
template <typename T>
std::uint64_t sample_chunk(const std::complex<T>* a, std::uint64_t len,
                           std::uint64_t first, std::uint64_t shots,
                           Rng& rng, double* cum, std::uint64_t* hits,
                           IndexCount* out) {
  double total = 0;
  for (std::uint64_t i = 0; i < len; ++i) {
    total += weight_of(a[i]);
    cum[i] = total;
  }
  const InverseCdf locate({cum, len}, std::min(shots, len));
  std::fill_n(hits, len, 0);
  for (std::uint64_t s = 0; s < shots; ++s) ++hits[locate(rng.uniform())];
  std::uint64_t runs = 0;
  for (std::uint64_t i = 0; i < len; ++i) {
    if (hits[i] > 0) out[runs++] = {first + i, hits[i]};
  }
  return runs;
}

/// Runs fn(begin, end) over a partition of the items [0, n), on the pool
/// when one is set. parallel_for sizes its split for amplitude sweeps (it
/// runs ranges under 4,096 inline), so it is driven over kSampleChunk
/// slots per item and each worker takes the items whose first slot lies
/// in its range.
template <typename Fn>
void for_each_range(ThreadPool* pool, std::uint64_t n, const Fn& fn) {
  if (pool == nullptr) {
    fn(std::uint64_t{0}, n);
    return;
  }
  const auto first_item = [](std::uint64_t slot) {
    return (slot + kSampleChunk - 1) / kSampleChunk;
  };
  pool->parallel_for(0, n * kSampleChunk,
                     [&](std::uint64_t begin, std::uint64_t end) {
                       const std::uint64_t b = first_item(begin);
                       const std::uint64_t e = first_item(end);
                       if (b < e) fn(b, e);
                     });
}

}  // namespace

std::vector<std::uint64_t> split_shots(std::span<const double> weights,
                                       std::uint64_t shots, Rng& rng) {
  QGEAR_CHECK_ARG(!weights.empty(), "sampler: empty weight vector");
  std::vector<double> cum(weights.size());
  double total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    QGEAR_CHECK_ARG(weights[i] >= 0, "sampler: negative or NaN weight");
    total += weights[i];
    cum[i] = total;
  }
  QGEAR_CHECK_ARG(total > 0 && std::isfinite(total),
                  "sampler: weights must sum to a positive finite value");
  const InverseCdf locate(cum, std::min<std::uint64_t>(shots, cum.size()));
  std::vector<std::uint64_t> out(weights.size(), 0);
  for (std::uint64_t s = 0; s < shots; ++s) ++out[locate(rng.uniform())];
  return out;
}

template <typename T>
std::vector<IndexCount> sample_amplitudes(
    std::span<const std::complex<T>> amps, std::uint64_t shots, Rng& rng,
    ThreadPool* pool) {
  if (shots == 0) return {};
  QGEAR_CHECK_ARG(!amps.empty(), "sampler: no amplitudes to sample");
  const std::uint64_t n = amps.size();
  const std::uint64_t chunks = (n + kSampleChunk - 1) / kSampleChunk;
  obs::Span span(obs::Tracer::global(), "sample", "sim");
  if (span.active()) {
    span.arg("amplitudes", n);
    span.arg("shots", shots);
    span.arg("chunks", chunks);
  }
  shots_counter().add(shots);
  const auto chunk_len = [&](std::uint64_t c) {
    return std::min(kSampleChunk, n - c * kSampleChunk);
  };

  // Pass 1: every chunk's weight; then the caller's stream splits the
  // shots over the chunks and seeds the per-chunk streams.
  std::vector<double> weights(chunks);
  for_each_range(pool, chunks, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t c = b; c < e; ++c) {
      weights[c] = chunk_weight(&amps[c * kSampleChunk], chunk_len(c));
    }
  });
  const std::vector<std::uint64_t> drawn = split_shots(weights, shots, rng);
  const std::uint64_t base = rng();

  // Pass 2 over the chunks that drew shots. Chunk i writes at most
  // min(shots, length) runs into its own slots, compacted afterwards.
  std::vector<std::uint64_t> active, slot;
  std::uint64_t slots = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    if (drawn[c] == 0) continue;
    active.push_back(c);
    slot.push_back(slots);
    slots += std::min(drawn[c], chunk_len(c));
  }
  std::vector<IndexCount> runs(slots);
  std::vector<std::uint64_t> used(active.size());
  for_each_range(pool, active.size(), [&](std::uint64_t b, std::uint64_t e) {
    std::vector<double> cum(kSampleChunk);
    std::vector<std::uint64_t> hits(kSampleChunk);
    for (std::uint64_t i = b; i < e; ++i) {
      const std::uint64_t c = active[i];
      Rng chunk_rng(base, c);
      used[i] = sample_chunk(&amps[c * kSampleChunk], chunk_len(c),
                             c * kSampleChunk, drawn[c], chunk_rng,
                             cum.data(), hits.data(), &runs[slot[i]]);
    }
  });
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (std::uint64_t j = 0; j < used[i]; ++j) {
      runs[kept++] = runs[slot[i] + j];
    }
  }
  runs.resize(kept);
  return runs;
}

void add_counts(Counts& counts, const std::vector<IndexCount>& runs,
                const std::vector<unsigned>& positions,
                std::uint64_t index_bits) {
  for (const IndexCount& run : runs) {
    const std::uint64_t full = index_bits | run.index;
    std::uint64_t key = 0;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      key |= ((full >> positions[j]) & 1u) << j;
    }
    counts[key] += run.count;
  }
}

template <typename T>
Counts sample_counts(const StateVector<T>& state,
                     std::vector<unsigned> measured_qubits,
                     std::uint64_t shots, Rng& rng, ThreadPool* pool) {
  if (measured_qubits.empty()) {
    measured_qubits.resize(state.num_qubits());
    std::iota(measured_qubits.begin(), measured_qubits.end(), 0u);
  }
  std::vector<unsigned> sorted = measured_qubits;
  std::sort(sorted.begin(), sorted.end());
  QGEAR_CHECK_ARG(
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
      "sampler: duplicate measured qubit");
  QGEAR_CHECK_ARG(sorted.back() < state.num_qubits(),
                  "sampler: measured qubit out of range");

  Counts counts;
  add_counts(counts,
             sample_amplitudes(std::span<const std::complex<T>>(
                                   state.data(), state.size()),
                               shots, rng, pool),
             measured_qubits);
  return counts;
}

template <typename T>
std::vector<double> qubit_one_probabilities(const StateVector<T>& state) {
  std::vector<double> out(state.num_qubits(), 0.0);
  for (std::uint64_t i = 0; i < state.size(); ++i) {
    const double p = state.probability(i);
    if (p == 0.0) continue;
    for (unsigned q = 0; q < state.num_qubits(); ++q) {
      if (test_bit(i, q)) out[q] += p;
    }
  }
  return out;
}

template std::vector<IndexCount> sample_amplitudes<float>(
    std::span<const std::complex<float>>, std::uint64_t, Rng&, ThreadPool*);
template std::vector<IndexCount> sample_amplitudes<double>(
    std::span<const std::complex<double>>, std::uint64_t, Rng&, ThreadPool*);
template Counts sample_counts<float>(const StateVector<float>&,
                                     std::vector<unsigned>, std::uint64_t,
                                     Rng&, ThreadPool*);
template Counts sample_counts<double>(const StateVector<double>&,
                                      std::vector<unsigned>, std::uint64_t,
                                      Rng&, ThreadPool*);
template std::vector<double> qubit_one_probabilities<float>(
    const StateVector<float>&);
template std::vector<double> qubit_one_probabilities<double>(
    const StateVector<double>&);

}  // namespace qgear::sim
