#include "qgear/dist/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "qgear/fault/fault.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/sim/reference.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::dist {
namespace {

template <typename T>
double max_diff_vs_reference(const qiskit::QuantumCircuit& qc,
                             const std::vector<std::complex<T>>& got) {
  sim::ReferenceEngine<T> ref;
  const auto expected = ref.run(qc);
  EXPECT_EQ(got.size(), expected.size());
  double worst = 0;
  for (std::uint64_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst,
                     static_cast<double>(std::abs(got[i] - expected[i])));
  }
  return worst;
}

TEST(DistState, SingleRankMatchesReference) {
  const auto qc = sim_test::random_circuit(5, 100, 1);
  const auto res = run_distributed<double>(qc, {.num_ranks = 1,
                                                .gather_state = true});
  EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-12);
}

TEST(DistState, MatchesReferenceAcrossRankCounts) {
  for (int ranks : {2, 4, 8}) {
    for (std::uint64_t seed : {10u, 11u, 12u}) {
      const auto qc = sim_test::random_circuit(6, 200, seed);
      const auto res = run_distributed<double>(
          qc, {.num_ranks = ranks, .gather_state = true});
      EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-11)
          << "ranks=" << ranks << " seed=" << seed;
      EXPECT_NEAR(res.norm, 1.0, 1e-10);
    }
  }
}

TEST(DistState, GlobalQubitGatesExercised) {
  // Target every qubit with non-diagonal gates so global-qubit exchange
  // paths run for sure.
  qiskit::QuantumCircuit qc(5);
  for (int q = 0; q < 5; ++q) qc.h(q);
  for (int q = 0; q < 5; ++q) qc.rx(0.3 * (q + 1), q);
  for (int q = 0; q < 4; ++q) qc.cx(q, q + 1);
  qc.cx(4, 0);  // global control, local target at every rank count
  const auto res =
      run_distributed<double>(qc, {.num_ranks = 8, .gather_state = true});
  EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-12);
}

TEST(DistState, DiagonalGatesNeverCommunicate) {
  qiskit::QuantumCircuit qc(5);
  for (int q = 0; q < 5; ++q) qc.h(q);  // local + exchanges to set up
  qc.barrier();
  // All-diagonal tail on high qubits.
  qc.rz(0.5, 4).p(0.25, 3).cp(0.7, 3, 4).cz(2, 4).s(4).t(3);
  comm::World world(4);
  std::uint64_t bytes_after_setup = 0;
  world.run([&](comm::Communicator& c) {
    DistStateVector<double> state(5, c);
    std::size_t i = 0;
    const auto& ops = qc.instructions();
    for (; ops[i].kind != qiskit::GateKind::barrier; ++i) state.apply(ops[i]);
    c.barrier();
    if (c.rank() == 0) bytes_after_setup = world.trace().total_bytes;
    c.barrier();
    for (++i; i < ops.size(); ++i) state.apply(ops[i]);
  });
  EXPECT_EQ(world.trace().total_bytes, bytes_after_setup);
}

TEST(DistState, SwapAcrossBoundary) {
  qiskit::QuantumCircuit qc(4);
  qc.h(0).rx(0.9, 1).swap(0, 3).swap(1, 2);
  const auto res =
      run_distributed<double>(qc, {.num_ranks = 4, .gather_state = true});
  EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-12);
}

TEST(DistState, TwoQubitGatesAcrossBoundaryAtEveryRankCount) {
  // swap/cz/cp/cx with operands straddling the local/global boundary, in
  // both orientations, checked at every feasible rank count.
  for (int ranks : {2, 4, 8, 16}) {
    const unsigned n = 6;
    const unsigned num_local = n - log2_exact(std::uint64_t(ranks));
    const int lo = static_cast<int>(num_local) - 1;  // highest local qubit
    const int hi = static_cast<int>(num_local);      // lowest global qubit
    qiskit::QuantumCircuit qc(n);
    for (unsigned q = 0; q < n; ++q) qc.ry(0.3 * (q + 1), q);
    qc.swap(lo, hi).cz(lo, hi).cp(0.4, hi, lo);
    qc.cx(lo, hi).cx(hi, lo);
    qc.swap(0, static_cast<int>(n) - 1).cx(static_cast<int>(n) - 1, 0);
    qc.cp(0.9, 0, static_cast<int>(n) - 1);
    const auto res = run_distributed<double>(
        qc, {.num_ranks = ranks, .gather_state = true});
    EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-12)
        << "ranks=" << ranks;
    EXPECT_NEAR(res.norm, 1.0, 1e-10);
  }
}

TEST(DistState, HalfSlabExchangeAmpOpsCount) {
  // The local-control/global-target cx updates only the control=1 half of
  // the slab; amp_ops must reflect that, not the full slab.
  qiskit::QuantumCircuit qc(4);
  qc.h(0).cx(0, 3);  // local control 0, global target 3 at 2+ ranks
  const auto res = run_distributed<double>(qc, {.num_ranks = 2});
  // h: one full-slab sweep (8 amps); cx: half-slab update (4 amps).
  EXPECT_EQ(res.rank_stats[0].amp_ops, 8u + 4u);
}

TEST(DistState, Fp32Works) {
  const auto qc = sim_test::random_circuit(6, 100, 33);
  const auto res =
      run_distributed<float>(qc, {.num_ranks = 4, .gather_state = true});
  EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-4);
}

TEST(DistState, TraceMatchesPredictedCost) {
  // The recorded per-run communication volume must equal the analytic
  // schedule cost summed over participating ranks.
  const auto qc = sim_test::random_circuit(6, 150, 77, false);
  const int ranks = 4;
  const unsigned num_local = 6 - 2;
  const auto res = run_distributed<double>(qc, {.num_ranks = ranks});

  std::uint64_t predicted = 0;
  for (const auto& inst : qc.instructions()) {
    const std::uint64_t per_rank =
        exchange_bytes_for(inst, 6, num_local, sizeof(std::complex<double>));
    if (per_rank == 0) continue;
    // Participating ranks: all for 1q global gates and local-control cx;
    // half for global-control cx (control bit must be 1).
    int participants = ranks;
    if (inst.kind == qiskit::GateKind::cx &&
        static_cast<unsigned>(inst.q0) >= num_local &&
        static_cast<unsigned>(inst.q1) >= num_local) {
      participants = ranks / 2;
    }
    predicted += per_rank * static_cast<std::uint64_t>(participants);
  }
  EXPECT_EQ(res.trace.total_bytes, predicted);
}

TEST(DistState, PerGateSurvivesDropAndDelayFaults) {
  // Per-gate exchanges run resiliently too: with a quarter of all chunks
  // dropped and a quarter delayed, the per-gate schedule must still land
  // the fault-free state bit for bit.
  const auto qc = sim_test::random_circuit(6, 150, 61);
  RunOptions opts{.num_ranks = 4, .gather_state = true,
                  .exchange_chunk_bytes = 128};  // 2 chunks per slab
  const auto clean = run_distributed<double>(qc, opts);

  fault::FaultPlan plan;
  plan.seed = 17;
  plan.site(fault::Site::comm_drop).probability = 0.25;
  plan.site(fault::Site::comm_delay).probability = 0.25;
  plan.site(fault::Site::comm_delay).delay_us = 200;
  fault::ArmScope arm(plan);
  obs::Counter& dropped =
      obs::Registry::global().counter("comm.chunks_dropped");
  const std::uint64_t dropped_before = dropped.value();
  opts.exchange_resilience = {.timeout_s = 0.02, .max_resends = 50};
  const auto faulty = run_distributed<double>(qc, opts);

  EXPECT_GT(dropped.value(), dropped_before);
  ASSERT_EQ(faulty.state.size(), clean.state.size());
  for (std::size_t i = 0; i < clean.state.size(); ++i) {
    ASSERT_EQ(faulty.state[i], clean.state[i]) << "index " << i;
  }
}

TEST(DistState, FusedMatchesReferenceWithMeasures) {
  qiskit::QuantumCircuit qc(5);
  qc.h(0).cx(0, 1).ry(0.4, 2).cx(2, 3).rx(0.9, 4).cx(3, 4);
  qc.measure_all();
  const auto res = run_distributed<double>(
      qc, {.num_ranks = 4, .gather_state = true, .fusion_width = 4,
           .remap = true});
  EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-12);
  EXPECT_EQ(res.measured.size(), 5u);
}

TEST(DistState, DistributedSamplingMatchesSingleDevice) {
  qiskit::QuantumCircuit qc(4);
  qc.h(0).cx(0, 1).cx(1, 2).ry(0.8, 3);
  qc.measure_all();
  const std::uint64_t shots = 60000;
  const auto res = run_distributed<double>(
      qc, {.num_ranks = 4, .shots = shots, .seed = 5});

  sim::ReferenceEngine<double> ref;
  const auto state = ref.run(qc);
  const auto expected_p = sim::qubit_one_probabilities(state);

  std::uint64_t total = 0;
  std::vector<double> observed(4, 0.0);
  for (const auto& [key, cnt] : res.counts) {
    total += cnt;
    for (unsigned q = 0; q < 4; ++q) {
      if (test_bit(key, q)) observed[q] += static_cast<double>(cnt);
    }
  }
  EXPECT_EQ(total, shots);
  for (unsigned q = 0; q < 4; ++q) {
    EXPECT_NEAR(observed[q] / static_cast<double>(shots), expected_p[q],
                0.02)
        << "qubit " << q;
  }
}

TEST(DistState, ImplicitFullMeasurement) {
  qiskit::QuantumCircuit qc(3);
  qc.x(0).x(2);  // deterministic |101>
  const auto res =
      run_distributed<double>(qc, {.num_ranks = 2, .shots = 100});
  ASSERT_EQ(res.counts.size(), 1u);
  EXPECT_EQ(res.counts.begin()->first, 0b101u);
  EXPECT_EQ(res.counts.begin()->second, 100u);
  EXPECT_EQ(res.measured, (std::vector<unsigned>{0, 1, 2}));
}

TEST(DistState, RejectsBadConfigs) {
  const auto qc = sim_test::random_circuit(4, 10, 1);
  EXPECT_THROW(run_distributed<double>(qc, {.num_ranks = 3}),
               InvalidArgument);
  // 16 ranks need >= 5 qubits.
  EXPECT_THROW(run_distributed<double>(qc, {.num_ranks = 16}), Error);
}

TEST(DistState, FusionWithoutRemapRejected) {
  // The per-gate schedule runs unfused; fused local work comes with the
  // remapped schedule only.
  const auto qc = sim_test::random_circuit(5, 20, 1);
  EXPECT_THROW(
      run_distributed<double>(qc, {.num_ranks = 4, .fusion_width = 3}),
      InvalidArgument);
  EXPECT_NO_THROW(run_distributed<double>(
      qc, {.num_ranks = 4, .fusion_width = 3, .remap = true}));
}

TEST(DistState, StatsPerRank) {
  const auto qc = sim_test::random_circuit(5, 60, 2, false);
  const auto res = run_distributed<double>(qc, {.num_ranks = 4});
  ASSERT_EQ(res.rank_stats.size(), 4u);
  for (const auto& s : res.rank_stats) {
    EXPECT_EQ(s.gates, qc.size());
  }
}

TEST(DistTrace, RankSpansMergeUnderOneTraceId) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const auto qc = sim_test::random_circuit(6, 60, 3);
  const auto res = run_distributed<double>(qc, {.num_ranks = 4});
  tracer.set_enabled(false);
  ASSERT_NE(res.trace_id, 0u);

  // Every rank thread tags its spans with the run's trace_id; the merged
  // per-request export must contain spans from all four ranks.
  std::set<std::int32_t> ranks_seen;
  for (const obs::SpanRecord& rec : tracer.snapshot()) {
    if (rec.trace_id != res.trace_id) continue;
    if (rec.rank >= 0) ranks_seen.insert(rec.rank);
  }
  EXPECT_EQ(ranks_seen.size(), 4u);

  // The per-rank rollup mirrors the same data: spans were counted for
  // every rank, and sender-attributed exchange bytes sum to the total.
  ASSERT_EQ(res.rank_obs.size(), 4u);
  std::uint64_t bytes = 0;
  for (const RankObsSummary& r : res.rank_obs) {
    EXPECT_GT(r.spans, 0u);
    bytes += r.exchange_bytes;
  }
  EXPECT_EQ(bytes, res.trace.total_bytes);
  tracer.clear();
}

TEST(DistTrace, ExplicitTraceIdIsAdopted) {
  const auto qc = sim_test::random_circuit(5, 20, 4);
  RunOptions opts;
  opts.num_ranks = 2;
  opts.trace_id = 0xABCDEF01u;
  const auto res = run_distributed<double>(qc, opts);
  EXPECT_EQ(res.trace_id, 0xABCDEF01u);
  // Tracing disabled: exchange accounting still populated, spans zero.
  ASSERT_EQ(res.rank_obs.size(), 2u);
  EXPECT_EQ(res.rank_obs[0].spans, 0u);
}

TEST(ExchangeBytes, CaseAnalysis) {
  using qiskit::GateKind;
  const unsigned n = 10, local = 8;
  const std::size_t ab = 16;  // complex<double>
  const std::uint64_t slab = (1ull << local) * ab;
  // Local 1q: free. Global non-diagonal 1q: full slab.
  EXPECT_EQ(exchange_bytes_for({GateKind::h, 0, -1, 0}, n, local, ab), 0u);
  EXPECT_EQ(exchange_bytes_for({GateKind::h, 9, -1, 0}, n, local, ab), slab);
  // Diagonal gates free everywhere.
  EXPECT_EQ(exchange_bytes_for({GateKind::rz, 9, -1, 0.5}, n, local, ab), 0u);
  EXPECT_EQ(exchange_bytes_for({GateKind::cp, 8, 9, 0.5}, n, local, ab), 0u);
  // cx: target local free; local control + global target half slab; both
  // global full slab.
  EXPECT_EQ(exchange_bytes_for({GateKind::cx, 9, 0, 0}, n, local, ab), 0u);
  EXPECT_EQ(exchange_bytes_for({GateKind::cx, 0, 9, 0}, n, local, ab),
            slab / 2);
  EXPECT_EQ(exchange_bytes_for({GateKind::cx, 8, 9, 0}, n, local, ab), slab);
  // swap decomposes into three cx.
  EXPECT_EQ(exchange_bytes_for({GateKind::swap, 0, 9, 0}, n, local, ab),
            slab / 2 * 2);
  EXPECT_EQ(exchange_bytes_for({GateKind::swap, 1, 2, 0}, n, local, ab), 0u);
}

}  // namespace
}  // namespace qgear::dist
