#include "qgear/sim/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "qgear/common/bits.hpp"
#include "qgear/sim/reference.hpp"

namespace qgear::sim {
namespace {

// A deterministic unnormalized 2^n state: weight w(i) in 0..16 (about one
// index in 17 has weight zero) with a varying phase.
std::vector<double> pattern_weights(unsigned n) {
  std::vector<double> w(pow2(n));
  for (std::uint64_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<double>(((i * 2654435761u) >> 7) % 17);
  }
  return w;
}

template <typename T>
std::vector<std::complex<T>> amplitudes_for(const std::vector<double>& w,
                                            double scale = 1.0) {
  std::vector<std::complex<T>> a(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    a[i] = std::polar(static_cast<T>(scale * std::sqrt(w[i])),
                      static_cast<T>(0.37 * static_cast<double>(i % 29)));
  }
  return a;
}

// Dense histogram of sampled runs; checks runs ascend and sum to shots.
std::vector<std::uint64_t> histogram(const std::vector<IndexCount>& runs,
                                     std::uint64_t size,
                                     std::uint64_t shots) {
  std::vector<std::uint64_t> h(size, 0);
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_GT(runs[r].count, 0u);
    if (r > 0) {
      EXPECT_LT(runs[r - 1].index, runs[r].index);
    }
    h.at(runs[r].index) = runs[r].count;
    total += runs[r].count;
  }
  EXPECT_EQ(total, shots);
  return h;
}

// Pearson chi-square of sampled runs against |a|^2. Zero-probability
// indices must never be drawn and add no degree of freedom.
template <typename T>
void expect_chi_square_fit(const std::vector<std::complex<T>>& amps,
                           const std::vector<IndexCount>& runs,
                           std::uint64_t shots) {
  const std::vector<std::uint64_t> h = histogram(runs, amps.size(), shots);
  double total = 0;
  for (const auto& a : amps) total += std::norm(std::complex<double>(a));
  double chi2 = 0;
  std::uint64_t bins = 0;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const double p = std::norm(std::complex<double>(amps[i])) / total;
    if (p == 0) {
      EXPECT_EQ(h[i], 0u) << "zero-probability index " << i << " drawn";
      continue;
    }
    const double expected = p * static_cast<double>(shots);
    const double d = static_cast<double>(h[i]) - expected;
    chi2 += d * d / expected;
    ++bins;
  }
  // Six standard deviations of the chi-square distribution either way.
  const double dof = static_cast<double>(bins - 1);
  EXPECT_LT(std::abs(chi2 - dof), 6 * std::sqrt(2 * dof))
      << "chi2 " << chi2 << " over " << dof << " degrees of freedom";
}

TEST(SampleAmplitudes, ChiSquareFitsFourteenQubitState) {
  // 2^14 amplitudes = four sampler chunks.
  const auto amps = amplitudes_for<double>(pattern_weights(14));
  ASSERT_EQ(amps.size(), 4 * kSampleChunk);
  Rng rng(2024);
  const std::uint64_t shots = 1u << 20;
  expect_chi_square_fit(amps, sample_amplitudes<double>(amps, shots, rng),
                        shots);
}

TEST(SampleAmplitudes, IdenticalCountsForAnyPoolSize) {
  const auto amps = amplitudes_for<double>(pattern_weights(16));
  ThreadPool one(1), four(4);
  Rng r_serial(99), r_one(99), r_four(99);
  const auto serial = sample_amplitudes<double>(amps, 200000, r_serial);
  EXPECT_EQ(sample_amplitudes<double>(amps, 200000, r_one, &one), serial);
  EXPECT_EQ(sample_amplitudes<double>(amps, 200000, r_four, &four), serial);
  // The caller's stream advances the same way too.
  const std::uint64_t next = r_serial();
  EXPECT_EQ(r_one(), next);
  EXPECT_EQ(r_four(), next);
}

TEST(SampleAmplitudes, ZeroProbabilityIndicesNeverDrawn) {
  // Chunk 1 is entirely zero, every other index is zero, and the last
  // chunk ends in a run of zeros.
  const std::uint64_t n = pow2(14);
  std::vector<std::complex<double>> amps(n);
  for (std::uint64_t i = 0; i < n - 300; i += 2) {
    if (i / kSampleChunk != 1) amps[i] = std::complex<double>(0.3, -0.1);
  }
  Rng rng(17);
  for (const IndexCount& run : sample_amplitudes<double>(amps, 50000, rng)) {
    EXPECT_NE(amps[run.index], std::complex<double>(0, 0)) << run.index;
  }
}

TEST(SampleAmplitudes, UniformPastTheEndGoesToLastNonzeroIndex) {
  // One nonzero amplitude, in the last chunk: at its last index, or
  // followed by zeros. With a subnormal weight, uniform * total rounds up
  // to the total for about one draw in forty, past every cumulative sum,
  // so the lookup must fall back to the last index that added weight.
  const std::uint64_t n = pow2(14);
  for (const double a : {1.0, 1e-161}) {
    for (const std::uint64_t last : {n - 1, n - 100}) {
      std::vector<std::complex<double>> amps(n);
      amps[last] = a;
      Rng rng(3);
      const auto runs = sample_amplitudes<double>(amps, 2000, rng);
      ASSERT_EQ(runs.size(), 1u) << a << " at " << last;
      EXPECT_EQ(runs[0], (IndexCount{last, 2000})) << a;
    }
  }
}

TEST(SampleAmplitudes, Fp32Input) {
  const auto amps = amplitudes_for<float>(pattern_weights(14));
  Rng rng(5);
  const std::uint64_t shots = 1u << 20;
  expect_chi_square_fit(amps, sample_amplitudes<float>(amps, shots, rng),
                        shots);
}

TEST(SampleAmplitudes, UnnormalizedInputAccepted) {
  const std::vector<double> w = pattern_weights(14);
  const auto unit = amplitudes_for<double>(w);
  // Scaling by a power of two scales every weight exactly, so the counts
  // are identical; any other scale still fits.
  const auto quadrupled = amplitudes_for<double>(w, 4.0);
  Rng r1(8), r2(8);
  EXPECT_EQ(sample_amplitudes<double>(quadrupled, 10000, r1),
            sample_amplitudes<double>(unit, 10000, r2));
  const auto scaled = amplitudes_for<double>(w, 37.3);
  const std::uint64_t shots = 1u << 20;
  Rng rng(6);
  expect_chi_square_fit(scaled, sample_amplitudes<double>(scaled, shots, rng),
                        shots);
}

TEST(SampleAmplitudes, AllZeroInputRejected) {
  const std::vector<std::complex<double>> zeros(3 * kSampleChunk + 5);
  Rng rng(1);
  EXPECT_THROW(sample_amplitudes<double>(zeros, 10, rng), InvalidArgument);
  EXPECT_THROW(sample_amplitudes<double>({}, 10, rng), InvalidArgument);
  // No shots: nothing is read, so nothing is rejected and the stream is
  // untouched.
  Rng untouched(1), reference(1);
  EXPECT_TRUE(sample_amplitudes<double>(zeros, 0, untouched).empty());
  EXPECT_EQ(untouched(), reference());
}

TEST(SplitShots, MatchesWeights) {
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  Rng rng(2);
  const std::uint64_t shots = 200000;
  const std::vector<std::uint64_t> split = split_shots(w, shots, rng);
  ASSERT_EQ(split.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    const double expected = w[k] / 10.0 * shots;
    EXPECT_NEAR(static_cast<double>(split[k]), expected,
                5 * std::sqrt(expected))
        << k;
  }
  EXPECT_EQ(split[0] + split[1] + split[2] + split[3], shots);
}

TEST(SplitShots, ZeroWeightsNeverDraw) {
  Rng rng(3);
  const std::vector<std::uint64_t> split =
      split_shots(std::vector<double>{0.0, 300.0, 0.0, 100.0, 0.0}, 40000, rng);
  EXPECT_EQ(split[0], 0u);
  EXPECT_EQ(split[2], 0u);
  EXPECT_EQ(split[4], 0u);
  EXPECT_EQ(split[1] + split[3], 40000u);
  EXPECT_NEAR(static_cast<double>(split[1]), 30000, 600);
}

TEST(SplitShots, InvalidWeightsRejected) {
  Rng rng(1);
  using W = std::vector<double>;
  EXPECT_THROW(split_shots(W{}, 1, rng), InvalidArgument);
  EXPECT_THROW(split_shots(W{0.0, 0.0}, 1, rng), InvalidArgument);
  EXPECT_THROW(split_shots(W{1.0, -0.5}, 1, rng), InvalidArgument);
  EXPECT_THROW(split_shots(W{1.0, std::nan("")}, 1, rng), InvalidArgument);
  EXPECT_THROW(split_shots(W{1.0, HUGE_VAL}, 1, rng), InvalidArgument);
}

TEST(SampleCounts, BellStateHalfHalf) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(11);
  const Counts counts = sample_counts(state, {}, 100000, rng);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(static_cast<double>(counts.at(0b00)), 50000, 1000);
  EXPECT_NEAR(static_cast<double>(counts.at(0b11)), 50000, 1000);
}

TEST(SampleCounts, ShotsConserved) {
  qiskit::QuantumCircuit qc(3);
  qc.h(0).h(1).h(2);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(5);
  const Counts counts = sample_counts(state, {}, 12345, rng);
  std::uint64_t total = 0;
  for (const auto& [k, v] : counts) total += v;
  EXPECT_EQ(total, 12345u);
}

TEST(SampleCounts, MeasuredSubsetPacksBits) {
  // |q2 q1 q0> = |101>: measuring {0, 2} should give key 0b11; measuring
  // {1} gives 0.
  qiskit::QuantumCircuit qc(3);
  qc.x(0).x(2);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(9);
  const Counts both = sample_counts(state, {0, 2}, 100, rng);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both.begin()->first, 0b11u);
  const Counts mid = sample_counts(state, {1}, 100, rng);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid.begin()->first, 0u);
}

TEST(SampleCounts, MeasuredOrderControlsSignificance) {
  // |q1 q0> = |01>: measured order {0,1} -> key 0b01; {1,0} -> key 0b10.
  qiskit::QuantumCircuit qc(2);
  qc.x(0);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng rng(4);
  EXPECT_EQ(sample_counts(state, {0, 1}, 10, rng).begin()->first, 0b01u);
  EXPECT_EQ(sample_counts(state, {1, 0}, 10, rng).begin()->first, 0b10u);
}

TEST(SampleCounts, InvalidQubitsRejected) {
  StateVector<double> state(2);
  Rng rng(1);
  EXPECT_THROW(sample_counts(state, {0, 0}, 10, rng), InvalidArgument);
  EXPECT_THROW(sample_counts(state, {5}, 10, rng), InvalidArgument);
}

TEST(SampleCounts, ZeroShotsReturnsEmptyBeforeReadingState) {
  // An all-zero state cannot be sampled, so only a sampler that never
  // reads it can return for zero shots.
  StateVector<double> state(3);
  state[0] = 0;
  Rng rng(1), reference(1);
  EXPECT_TRUE(sample_counts(state, {}, 0, rng).empty());
  EXPECT_EQ(rng(), reference());
  EXPECT_THROW(sample_counts(state, {}, 1, rng), InvalidArgument);
}

TEST(SampleCounts, DeterministicForSeed) {
  qiskit::QuantumCircuit qc(4);
  qc.h(0).h(1).cx(1, 2).ry(0.7, 3);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  Rng r1(42), r2(42);
  EXPECT_EQ(sample_counts(state, {}, 5000, r1),
            sample_counts(state, {}, 5000, r2));
}

TEST(QubitOneProbabilities, MatchesAnalytic) {
  qiskit::QuantumCircuit qc(3);
  const double theta = 0.9;
  qc.ry(theta, 0).x(1);
  ReferenceEngine<double> eng;
  const auto state = eng.run(qc);
  const auto p1 = qubit_one_probabilities(state);
  EXPECT_NEAR(p1[0], std::sin(theta / 2) * std::sin(theta / 2), 1e-12);
  EXPECT_NEAR(p1[1], 1.0, 1e-12);
  EXPECT_NEAR(p1[2], 0.0, 1e-12);
}

}  // namespace
}  // namespace qgear::sim
