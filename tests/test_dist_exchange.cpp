// Batched index-bit-swap exchange: equivalence against the sequential
// schedule, analytic permutation checks, per-tier byte accounting, chunk
// auto-sizing, and correctness under injected comm faults.
#include <gtest/gtest.h>

#include <complex>
#include <mutex>
#include <random>
#include <vector>

#include "qgear/common/bits.hpp"
#include "qgear/dist/dist_state.hpp"
#include "qgear/dist/remap.hpp"
#include "qgear/fault/fault.hpp"

namespace qgear::dist {
namespace {

using amp_t = std::complex<double>;

/// Deterministic random local slab for one rank (same in every schedule).
std::vector<amp_t> random_slab(std::uint64_t size, int rank,
                               std::uint64_t seed) {
  std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(rank));
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<amp_t> amps(size);
  for (auto& a : amps) a = amp_t(u(rng), u(rng));
  return amps;
}

/// Runs one exchange schedule over `ranks` ranks and returns the gathered
/// full state (rank-major: top bits = rank id).
std::vector<amp_t> run_exchange(
    int ranks, unsigned num_qubits, std::uint64_t seed,
    const std::function<void(DistStateVector<double>&)>& exchange,
    comm::Topology topology = {}) {
  comm::World world(ranks);
  world.set_topology(topology);
  const unsigned local = num_qubits - log2_exact(std::uint64_t(ranks));
  std::vector<amp_t> full(pow2(num_qubits));
  std::mutex mu;
  world.run([&](comm::Communicator& c) {
    DistStateVector<double> state(num_qubits, c);
    state.local_amps() = random_slab(state.local_size(), c.rank(), seed);
    exchange(state);
    std::lock_guard<std::mutex> lock(mu);
    std::copy(state.local_amps().begin(), state.local_amps().end(),
              full.begin() + static_cast<std::ptrdiff_t>(
                                 std::uint64_t(c.rank()) << local));
  });
  return full;
}

/// The exchange's analytic meaning on the full state: new[i] = old[i with
/// every swapped bit pair exchanged].
std::vector<amp_t> permute_full_state(const std::vector<amp_t>& full,
                                      std::span<const sim::SlabSwap> swaps) {
  std::vector<amp_t> out(full.size());
  for (std::uint64_t i = 0; i < full.size(); ++i) {
    std::uint64_t src = i;
    for (const sim::SlabSwap& sw : swaps) {
      const bool bl = test_bit(i, sw.local_phys);
      const bool bg = test_bit(i, sw.global_phys);
      if (bl != bg) {
        src = flip_bit(flip_bit(src, sw.local_phys), sw.global_phys);
      }
    }
    out[i] = full[src];
  }
  return out;
}

TEST(DistExchange, BatchedMatchesAnalyticPermutation) {
  // 2-16 ranks, batches up to the full global width, non-adjacent bit
  // pairs included.
  struct Case {
    int ranks;
    unsigned qubits;
    std::vector<sim::SlabSwap> swaps;
  };
  const std::vector<Case> cases = {
      {2, 5, {{1, 4}}},
      {4, 6, {{0, 4}, {3, 5}}},                   // non-adjacent + adjacent
      {8, 7, {{0, 5}, {2, 4}, {3, 6}}},           // shuffled order
      {16, 8, {{0, 4}, {1, 5}, {2, 6}, {3, 7}}},  // full width k = 4
  };
  for (const Case& tc : cases) {
    const std::vector<amp_t> before =
        run_exchange(tc.ranks, tc.qubits, 1, [](DistStateVector<double>&) {});
    const std::vector<amp_t> after = run_exchange(
        tc.ranks, tc.qubits, 1, [&](DistStateVector<double>& st) {
          st.exchange_index_bit_swap(tc.swaps, 7);
        });
    const std::vector<amp_t> expect = permute_full_state(before, tc.swaps);
    ASSERT_EQ(after.size(), expect.size());
    for (std::uint64_t i = 0; i < after.size(); ++i) {
      ASSERT_EQ(after[i], expect[i])
          << "ranks=" << tc.ranks << " index=" << i;
    }
  }
}

TEST(DistExchange, BatchedMatchesSequentialSingleSwaps) {
  // One k-wide batch must equal the same pairs applied one at a time (the
  // pre-batching schedule), in any order: disjoint bit swaps commute.
  const std::vector<sim::SlabSwap> swaps = {{0, 6}, {2, 4}, {1, 5}};
  const std::vector<amp_t> batched =
      run_exchange(8, 7, 2, [&](DistStateVector<double>& st) {
        st.exchange_index_bit_swap(swaps, 11);
      });
  const std::vector<amp_t> sequential =
      run_exchange(8, 7, 2, [&](DistStateVector<double>& st) {
        int tag = 11;
        for (const sim::SlabSwap& sw : swaps) {
          st.exchange_index_bit_swap({&sw, 1}, tag++);
        }
      });
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::uint64_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i], sequential[i]) << "index=" << i;
  }
}

TEST(DistExchange, RepeatedAndOverlappingBatchesCompose) {
  // Two batches that reuse each other's slots/bits: the second batch
  // swaps a bit pair the first one just moved.
  const std::vector<sim::SlabSwap> first = {{0, 4}, {1, 5}};
  const std::vector<sim::SlabSwap> second = {{1, 4}, {0, 5}};
  const std::vector<amp_t> before =
      run_exchange(4, 6, 3, [](DistStateVector<double>&) {});
  const std::vector<amp_t> got =
      run_exchange(4, 6, 3, [&](DistStateVector<double>& st) {
        st.exchange_index_bit_swap(first, 21);
        st.exchange_index_bit_swap(second, 22);
      });
  const std::vector<amp_t> expect = permute_full_state(
      permute_full_state(before, first), second);
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "index=" << i;
  }
}

TEST(DistExchange, TierBytesSplitByTopology) {
  // 4 ranks in NVLink domains of 2: swapping the low global bit stays
  // intra-domain, the high global bit crosses domains, and a 2-wide batch
  // touches both plus the diagonal (inter-node) round.
  const unsigned qubits = 6;
  const std::uint64_t slab = pow2(qubits - 2);
  const std::uint64_t amp_bytes = sizeof(amp_t);
  struct Got {
    std::uint64_t nvlink = 0;
    std::uint64_t internode = 0;
  };
  const auto run_one = [&](const std::vector<sim::SlabSwap>& swaps) {
    Got got;
    std::mutex mu;
    comm::World world(4);
    world.set_topology({.ranks_per_domain = 2});
    world.run([&](comm::Communicator& c) {
      DistStateVector<double> state(qubits, c);
      state.local_amps() = random_slab(state.local_size(), c.rank(), 4);
      state.exchange_index_bit_swap(swaps, 31);
      std::lock_guard<std::mutex> lock(mu);
      got.nvlink += state.exchange_tier_bytes(comm::Tier::nvlink);
      got.internode += state.exchange_tier_bytes(comm::Tier::internode);
    });
    return got;
  };

  // Low global bit (qubit 4): peers differ in rank bit 0 — same domain.
  const Got low = run_one({{0, 4}});
  EXPECT_EQ(low.nvlink, 4 * (slab / 2) * amp_bytes);
  EXPECT_EQ(low.internode, 0u);

  // High global bit (qubit 5): peers differ in rank bit 1 — cross-domain.
  const Got high = run_one({{0, 5}});
  EXPECT_EQ(high.nvlink, 0u);
  EXPECT_EQ(high.internode, 4 * (slab / 2) * amp_bytes);

  // 2-wide batch: three rounds per rank, one per non-empty global mask.
  // Mask 01 stays NVLink; masks 10 and 11 cross domains.
  const Got both = run_one({{0, 4}, {1, 5}});
  EXPECT_EQ(both.nvlink, 4 * (slab / 4) * amp_bytes);
  EXPECT_EQ(both.internode, 2 * 4 * (slab / 4) * amp_bytes);
  EXPECT_EQ(both.nvlink + both.internode,
            4 * (slab - slab / 4) * amp_bytes);
}

TEST(DistExchange, AutoChunkSizeTracksMessageSizeAndTier) {
  using comm::auto_chunk_bytes;
  using comm::Tier;
  // Small messages go one-shot on both tiers.
  EXPECT_EQ(auto_chunk_bytes(1, Tier::nvlink), 0u);
  EXPECT_EQ(auto_chunk_bytes(64u << 10, Tier::internode), 0u);
  // Mid-size: a quarter (nvlink) / an eighth (internode) of the message,
  // clamped to the tier's floor.
  EXPECT_EQ(auto_chunk_bytes(4u << 20, Tier::nvlink), 1u << 20);
  EXPECT_EQ(auto_chunk_bytes(4u << 20, Tier::internode), 512u << 10);
  EXPECT_EQ(auto_chunk_bytes(600u << 10, Tier::nvlink), 256u << 10);
  EXPECT_EQ(auto_chunk_bytes(600u << 10, Tier::internode), 128u << 10);
  // Huge messages clamp to the tier ceiling; inter-node stays finer.
  EXPECT_EQ(auto_chunk_bytes(1u << 30, Tier::nvlink), 4u << 20);
  EXPECT_EQ(auto_chunk_bytes(1u << 30, Tier::internode), 1u << 20);
  for (const Tier tier : {Tier::nvlink, Tier::internode}) {
    const std::uint64_t chunk = auto_chunk_bytes(3u << 20, tier);
    EXPECT_GT(chunk, 0u);
    EXPECT_LE(chunk, 3u << 20);
  }
}

TEST(DistExchange, ResilientBatchSurvivesDropAndDelayFaults) {
  // comm.drop + comm.delay against the resilient protocol: every
  // chunk must still land (zero completion loss) and the state must be
  // bit-exact.
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.site(fault::Site::comm_drop).probability = 0.25;
  plan.site(fault::Site::comm_delay).probability = 0.25;
  plan.site(fault::Site::comm_delay).delay_us = 200;
  fault::ArmScope arm(plan);

  const std::vector<sim::SlabSwap> swaps = {{0, 6}, {1, 7}};
  comm::ResilienceOptions res;
  res.timeout_s = 0.02;
  res.max_resends = 50;
  const auto exchange = [&](DistStateVector<double>& st) {
    st.set_exchange_resilience(res);
    st.set_exchange_chunk_elems(16);  // many chunks -> many fault rolls
    st.exchange_index_bit_swap(swaps, 51);
  };
  const std::vector<amp_t> before =
      run_exchange(16, 8, 6, [](DistStateVector<double>&) {});
  const std::vector<amp_t> after = run_exchange(16, 8, 6, exchange);
  const std::vector<amp_t> expect = permute_full_state(before, swaps);
  ASSERT_EQ(after.size(), expect.size());
  for (std::uint64_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i], expect[i]) << "index=" << i;
  }
}

TEST(DistExchange, RejectsMalformedBatches) {
  comm::World world(4);
  world.run([&](comm::Communicator& c) {
    DistStateVector<double> state(6, c);
    // Duplicate local bit.
    EXPECT_THROW(state.exchange_index_bit_swap(
                     std::vector<sim::SlabSwap>{{0, 4}, {0, 5}}, 3),
                 InvalidArgument);
    // Duplicate global bit.
    EXPECT_THROW(state.exchange_index_bit_swap(
                     std::vector<sim::SlabSwap>{{0, 4}, {1, 4}}, 3),
                 InvalidArgument);
    // Local slot out of range / global bit not global.
    EXPECT_THROW(state.exchange_index_bit_swap(
                     std::vector<sim::SlabSwap>{{4, 5}}, 3),
                 InvalidArgument);
    EXPECT_THROW(state.exchange_index_bit_swap(
                     std::vector<sim::SlabSwap>{{0, 3}}, 3),
                 InvalidArgument);
    // Empty batch.
    EXPECT_THROW(
        state.exchange_index_bit_swap(std::span<const sim::SlabSwap>{}, 3),
        InvalidArgument);
    c.barrier();
  });
}

TEST(RemapPlanBatch, CoScheduledGlobalQubitsShareOneBatch) {
  // Two global qubits with upcoming non-diagonal work: the trigger pulls
  // the second one into the same segment boundary.
  qiskit::QuantumCircuit qc(6);
  qc.h(5).rx(0.3, 5).ry(0.2, 5);
  qc.h(4).rx(0.5, 4).ry(0.7, 4);
  const RemapPlan plan = plan_remap(qc, 4);
  EXPECT_EQ(plan.slab_swaps, 2u);
  ASSERT_FALSE(plan.segments.empty());
  EXPECT_EQ(plan.segments[0].swaps.size(), 2u);
}

TEST(RemapPlanBatch, MaxBatchOneRestoresSequentialSchedule) {
  qiskit::QuantumCircuit qc(6);
  qc.h(5).rx(0.3, 5).ry(0.2, 5);
  qc.h(4).rx(0.5, 4).ry(0.7, 4);
  const RemapPlan plan = plan_remap(qc, 4, {.max_batch = 1});
  for (const RemapSegment& seg : plan.segments) {
    EXPECT_LE(seg.swaps.size(), 1u);
  }
  // Pricing: one k=1 batch costs exactly the classic half slab per rank.
  qiskit::QuantumCircuit one(6);
  one.h(5).rx(0.3, 5).ry(0.2, 5);
  const RemapPlan p1 = plan_remap(one, 4, {.max_batch = 1});
  ASSERT_EQ(p1.slab_swaps, 1u);
  const std::uint64_t ranks = 4, slab = pow2(4) * sizeof(amp_t);
  EXPECT_EQ(plan_exchange_bytes_total(p1, sizeof(amp_t)),
            ranks * slab / 2);
}

TEST(RemapPlanBatch, BatchedPlanPricesBelowSequential) {
  // The same circuit planned with and without batching: the batched plan
  // must never price above the sequential one (slab*(2^k-1)/2^k <= k
  // half-slabs for k >= 1).
  qiskit::QuantumCircuit qc(8);
  for (int q = 4; q < 8; ++q) qc.h(q).rx(0.3 * q, q).ry(0.1 * q, q);
  for (int q = 0; q < 8; ++q) qc.rx(0.2, q);
  const RemapPlan batched = plan_remap(qc, 4, {.max_batch = 4});
  const RemapPlan seq = plan_remap(qc, 4, {.max_batch = 1});
  EXPECT_LE(plan_exchange_bytes_total(batched, sizeof(amp_t)),
            plan_exchange_bytes_total(seq, sizeof(amp_t)));
  EXPECT_GE(batched.slab_swaps, 1u);
}

}  // namespace
}  // namespace qgear::dist
