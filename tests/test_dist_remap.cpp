#include "qgear/dist/remap.hpp"

#include <gtest/gtest.h>

#include "qgear/circuits/qft.hpp"
#include "qgear/dist/runner.hpp"
#include "qgear/sim/reference.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::dist {
namespace {

constexpr std::size_t kAmpBytes = sizeof(std::complex<double>);

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

TEST(RemapPlan, IdentityWhenNoRemapHelps) {
  // Local unitaries plus diagonal gates on global qubits: nothing to gain.
  qiskit::QuantumCircuit qc(6);
  qc.h(0).cx(0, 1).ry(0.4, 2).rx(0.2, 3);
  qc.rz(0.5, 4).p(0.25, 5).cz(0, 5).cp(0.7, 3, 4);
  const RemapPlan plan = plan_remap(qc, 4);
  EXPECT_EQ(plan.slab_swaps, 0u);
  EXPECT_EQ(plan.elided_swap_gates, 0u);
  EXPECT_TRUE(plan.identity_map());
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_TRUE(plan.segments[0].swaps.empty());
  EXPECT_EQ(plan.segments[0].insts.size(), qc.size());
}

TEST(RemapPlan, SingleGlobalCxNotWorthASwap) {
  // One half-slab cx exchange costs exactly one swap: no gain, keep the
  // per-gate schedule.
  qiskit::QuantumCircuit qc(6);
  qc.h(0).cx(0, 5);
  const RemapPlan plan = plan_remap(qc, 4);
  EXPECT_EQ(plan.slab_swaps, 0u);
  EXPECT_TRUE(plan.identity_map());
}

TEST(RemapPlan, GlobalHadamardTriggersOneSwap) {
  // A full-slab 1q exchange (2 half-slab units) beats one half-slab swap.
  qiskit::QuantumCircuit qc(6);
  qc.h(5).rx(0.3, 5).ry(0.2, 5);
  const RemapPlan plan = plan_remap(qc, 4);
  EXPECT_EQ(plan.slab_swaps, 1u);
  EXPECT_FALSE(plan.identity_map());
  EXPECT_LT(plan_exchange_bytes_total(plan, kAmpBytes),
            schedule_exchange_bytes_total(qc, 4, kAmpBytes));
}

TEST(RemapPlan, QftSwapGatesAllElided) {
  const auto qc = circuits::build_qft(8, {.do_swaps = true});
  const RemapPlan plan = plan_remap(qc, 6);
  EXPECT_EQ(plan.elided_swap_gates, 4u);  // n/2 bit-reversal swaps
  std::size_t insts = 0;
  for (const RemapSegment& seg : plan.segments) insts += seg.insts.size();
  EXPECT_EQ(insts, qc.size() - 4u);
}

TEST(RemapPlan, Qft24At16RanksHalvesExchangeBytes) {
  // The analytic form of the acceptance criterion (the executed-trace
  // version runs in test_dist_accept.cpp at full size).
  const auto qc = circuits::build_qft(24, {.do_swaps = true});
  const std::size_t fp32 = sizeof(std::complex<float>);
  const RemapPlan plan = plan_remap(qc, 20);
  EXPECT_GE(schedule_exchange_bytes_total(qc, 20, fp32),
            2 * plan_exchange_bytes_total(plan, fp32));
}

TEST(RemapCompile, ProgramFollowsThePlan) {
  // dist::compile emits one program segment per plan segment: its swaps
  // as a checked batch, its runs of local unitaries fused at
  // min(width, num_local), and every other instruction a step of its own.
  qiskit::QuantumCircuit qc = sim_test::random_circuit(6, 150, 91);
  qc.barrier();
  qc.h(5).measure(2).measure(5);
  const RemapPlan plan = plan_remap(qc, 4);
  const sim::Program program = compile(qc, 3, 4);
  EXPECT_EQ(program.num_qubits, 6u);
  EXPECT_EQ(program.num_local, 4u);
  EXPECT_EQ(program.slab_swaps, plan.slab_swaps);
  EXPECT_GT(program.slab_swaps, 0u);
  EXPECT_EQ(program.elided_swap_gates, plan.elided_swap_gates);
  EXPECT_EQ(program.logical_to_physical, plan.logical_to_physical);
  EXPECT_EQ(program.measured, (std::vector<unsigned>{2, 5}));
  EXPECT_EQ(program.input_gates, 151u);
  ASSERT_EQ(program.segments.size(), plan.segments.size());
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    SCOPED_TRACE("segment " + std::to_string(i));
    const RemapSegment& want = plan.segments[i];
    const sim::Segment& got = program.segments[i];
    if (want.swaps.empty()) {
      EXPECT_TRUE(got.batch.swaps.empty());
    } else {
      EXPECT_EQ(got.batch.swaps,
                sim::compile_swap_batch(want.swaps, 6, 4).swaps);
    }
    std::uint64_t want_fused = 0;
    std::vector<qiskit::Instruction> want_lone;
    for (const qiskit::Instruction& inst : want.insts) {
      const qiskit::GateInfo& info = qiskit::gate_info(inst.kind);
      const bool local = inst.q0 < 4 && (info.num_qubits < 2 || inst.q1 < 4);
      if (info.unitary && local) {
        ++want_fused;
      } else {
        want_lone.push_back(inst);
      }
    }
    std::uint64_t fused = 0;
    std::vector<qiskit::Instruction> lone;
    for (const sim::Step& step : got.steps) {
      if (step.inst) {
        lone.push_back(*step.inst);
        continue;
      }
      for (const sim::FusedBlock& b : step.blocks) {
        fused += b.source_gates;
        EXPECT_LE(b.qubits.size(), 3u);
        EXPECT_LT(b.qubits.back(), 4u);
      }
    }
    EXPECT_EQ(fused, want_fused);
    EXPECT_EQ(lone, want_lone);
  }
}

TEST(RemapExec, MatchesReferenceAcrossRankCounts) {
  for (int ranks : {1, 2, 4, 8, 16}) {
    for (std::uint64_t seed : {21u, 22u, 23u}) {
      // Extras on: swap/cz/s/t gates exercise elision and diagonal paths.
      const auto qc = sim_test::random_circuit(6, 200, seed);
      const auto res = run_distributed<double>(
          qc, {.num_ranks = ranks, .gather_state = true, .fusion_width = 5,
               .remap = true});
      EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-11)
          << "ranks=" << ranks << " seed=" << seed;
      EXPECT_NEAR(res.norm, 1.0, 1e-10);
    }
  }
}

TEST(RemapExec, MatchesFusedStateAndSavesBytes) {
  // Against the per-gate oracle, whose bytes any fused local work would
  // leave unchanged.
  const auto qc = circuits::build_qft(10, {.do_swaps = true});
  const auto per_gate = run_distributed<double>(
      qc, {.num_ranks = 8, .gather_state = true});
  const auto remapped = run_distributed<double>(
      qc, {.num_ranks = 8, .gather_state = true, .fusion_width = 5,
           .remap = true});
  ASSERT_EQ(per_gate.state.size(), remapped.state.size());
  double worst = 0;
  for (std::size_t i = 0; i < per_gate.state.size(); ++i) {
    worst = std::max(worst, std::abs(per_gate.state[i] - remapped.state[i]));
  }
  EXPECT_LT(worst, 1e-11);
  EXPECT_LT(remapped.circuit_exchange_bytes,
            per_gate.circuit_exchange_bytes);
  EXPECT_GT(remapped.remap_slab_swaps, 0u);
  EXPECT_EQ(remapped.remap_elided_swaps, 5u);
}

TEST(RemapExec, TraceMatchesPlanBytes) {
  // No sampling, no gather: the run's whole trace is the circuit, and it
  // must equal the planner's analytic byte count.
  const auto qc = sim_test::random_circuit(6, 150, 91, false);
  const RemapPlan plan = plan_remap(qc, 4);
  const auto res = run_distributed<double>(
      qc, {.num_ranks = 4, .fusion_width = 5, .remap = true});
  EXPECT_EQ(res.trace.total_bytes, plan_exchange_bytes_total(plan, kAmpBytes));
  EXPECT_EQ(res.circuit_exchange_bytes, res.trace.total_bytes);
}

TEST(RemapExec, SmallChunksPreserveStateAndBytes) {
  const auto qc = sim_test::random_circuit(6, 150, 37);
  const auto one_shot = run_distributed<double>(
      qc, {.num_ranks = 4, .gather_state = true, .fusion_width = 5,
           .remap = true, .exchange_chunk_bytes = 0});
  const auto chunked = run_distributed<double>(
      qc, {.num_ranks = 4, .gather_state = true, .fusion_width = 5,
           .remap = true, .exchange_chunk_bytes = 64});
  ASSERT_EQ(one_shot.state.size(), chunked.state.size());
  for (std::size_t i = 0; i < one_shot.state.size(); ++i) {
    ASSERT_EQ(one_shot.state[i], chunked.state[i]) << "index " << i;
  }
  // Chunking splits messages, never bytes.
  EXPECT_EQ(chunked.trace.total_bytes, one_shot.trace.total_bytes);
  EXPECT_GT(chunked.trace.entries.size(), one_shot.trace.entries.size());
}

TEST(RemapExec, PooledSweepsMatchReference) {
  const auto qc = sim_test::random_circuit(7, 200, 55);
  const auto res = run_distributed<double>(
      qc, {.num_ranks = 4, .gather_state = true, .fusion_width = 5,
           .remap = true, .threads_per_rank = 2,
           .exchange_chunk_bytes = 256});
  EXPECT_LT(max_diff_vs_reference(qc, res.state), 1e-11);
}

TEST(RemapExec, SamplingResolvesLogicalQubits) {
  // |101> prepared behind a swap chain: remap elides the swaps into the
  // qubit map, so sampling must read measured qubits at their physical
  // positions.
  qiskit::QuantumCircuit qc(4);
  qc.x(0).swap(0, 3).swap(3, 1);  // |0010> -> logical qubit 1 is set
  qc.measure_all();
  const auto res = run_distributed<double>(
      qc, {.num_ranks = 4, .shots = 200, .fusion_width = 5, .remap = true});
  ASSERT_EQ(res.counts.size(), 1u);
  EXPECT_EQ(res.counts.begin()->first, 0b0010u);
  EXPECT_EQ(res.counts.begin()->second, 200u);
}

TEST(RemapExec, TagSpacesStayPartitioned) {
  // Every trace tag must be an op tag or a reserved sampler tag; the two
  // ranges are disjoint by construction.
  const auto qc = sim_test::random_circuit(6, 120, 13);
  const auto res = run_distributed<double>(
      qc, {.num_ranks = 4, .shots = 500, .gather_state = true,
           .fusion_width = 5, .remap = true});
  for (const comm::TraceEntry& entry : res.trace.entries) {
    const bool op_tag = entry.tag >= 0 && entry.tag < kOpTagLimit;
    const bool sampler_tag =
        entry.tag >= kSamplerTagBase && entry.tag <= kSamplerTagBase + 2;
    EXPECT_TRUE(op_tag || sampler_tag) << "tag " << entry.tag;
  }
}

}  // namespace
}  // namespace qgear::dist
