// Shot sampling from final state vectors.
//
// One streaming inverse-CDF sampler serves every dense engine: the
// statevector backends, each dist rank's slab and the MPS engine's dense
// path. It makes two passes over fixed kSampleChunk-amplitude chunks and
// allocates nothing of size 2^n:
//   1. sum |a|^2 per chunk, on the pool when one is given;
//   2. split the shots over the chunks multinomially with the caller's
//      Rng (split_shots), then, in parallel over the chunks that drew
//      shots, look each shot's uniform up in the chunk's cumulative sum.
// Chunk c draws its uniforms from Rng(base, c), with `base` taken from
// the caller's Rng after the split, so the counts are bit-identical for
// any pool size. Output is (index, count) runs in ascending index order,
// so callers pack a measurement key once per distinct index, not per
// shot — the per-shot cost that dominates the paper's many-shot QCrank
// regime (Table 2: up to 98M shots from one state).
#pragma once

#include <complex>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "qgear/common/rng.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/sim/state.hpp"

namespace qgear::sim {

/// Amplitudes per sampler chunk. A constant, not an option: the shot
/// streams are keyed by chunk, so a different size gives different counts.
inline constexpr std::uint64_t kSampleChunk = 4096;

/// `count` shots landed on basis state `index`.
struct IndexCount {
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  bool operator==(const IndexCount&) const = default;
};

/// Draws `shots` basis indices with probability |a_i|^2 / sum |a|^2 and
/// returns them as runs in ascending index order (counts sum to `shots`).
/// Input need not be normalized; an all-zero (or empty) input with shots
/// > 0 throws InvalidArgument. shots == 0 returns {} without reading
/// `amps` or `rng`. Emits a `sample` span and the sim.sample.shots counter.
template <typename T>
std::vector<IndexCount> sample_amplitudes(
    std::span<const std::complex<T>> amps, std::uint64_t shots, Rng& rng,
    ThreadPool* pool = nullptr);

/// Multinomial split of `shots` over categories with the given
/// (unnormalized, non-negative) weights: out[i] is the number of shots
/// that drew category i. Zero-weight categories never draw.
std::vector<std::uint64_t> split_shots(std::span<const double> weights,
                                       std::uint64_t shots, Rng& rng);

/// Histogram of measurement outcomes keyed by the packed bit-string of the
/// measured qubits (bit j of the key = value of measured_qubits[j]).
using Counts = std::map<std::uint64_t, std::uint64_t>;

/// Adds sampled runs to `counts`. Each run index is ORed with
/// `index_bits` (bits above the sampled span, e.g. a dist rank's global
/// bits), and bit j of its key is bit positions[j] of the result.
void add_counts(Counts& counts, const std::vector<IndexCount>& runs,
                const std::vector<unsigned>& positions,
                std::uint64_t index_bits = 0);

/// Samples `shots` outcomes of the given qubits from `state`.
/// `measured_qubits` in ascending significance order; duplicates are not
/// allowed. If empty, all qubits are measured. `pool` parallelizes both
/// sampler passes without changing the counts.
template <typename T>
Counts sample_counts(const StateVector<T>& state,
                     std::vector<unsigned> measured_qubits,
                     std::uint64_t shots, Rng& rng,
                     ThreadPool* pool = nullptr);

/// Per-qubit expectation of measuring |1> (diagnostics and QCrank decode).
template <typename T>
std::vector<double> qubit_one_probabilities(const StateVector<T>& state);

extern template std::vector<IndexCount> sample_amplitudes<float>(
    std::span<const std::complex<float>>, std::uint64_t, Rng&, ThreadPool*);
extern template std::vector<IndexCount> sample_amplitudes<double>(
    std::span<const std::complex<double>>, std::uint64_t, Rng&,
    ThreadPool*);
extern template Counts sample_counts<float>(const StateVector<float>&,
                                            std::vector<unsigned>,
                                            std::uint64_t, Rng&,
                                            ThreadPool*);
extern template Counts sample_counts<double>(const StateVector<double>&,
                                             std::vector<unsigned>,
                                             std::uint64_t, Rng&,
                                             ThreadPool*);
extern template std::vector<double> qubit_one_probabilities<float>(
    const StateVector<float>&);
extern template std::vector<double> qubit_one_probabilities<double>(
    const StateVector<double>&);

}  // namespace qgear::sim
