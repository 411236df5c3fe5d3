#include "qgear/sim/fusion.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/common/bits.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/sim/isa.hpp"
#include "qgear/sim/program.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::sim {
namespace {

// One block of the oracle plan: the product of its gates' embedded
// matrices, each multiplied in from the left at the block's current width.
struct OracleBlock {
  std::vector<unsigned> qubits;
  CMat matrix;
  std::uint64_t source_gates = 0;
};

// The greedy grouping rule of plan_fusion (barriers and measures flush; a
// gate joins the open block unless the qubit union outgrows max_width),
// composed with embed and CMat::mul instead of the kernel table.
std::vector<OracleBlock> oracle_blocks(const qiskit::QuantumCircuit& qc,
                                       unsigned max_width) {
  std::vector<OracleBlock> blocks;
  OracleBlock cur;
  const auto flush = [&] {
    if (cur.qubits.empty()) return;
    blocks.push_back(std::move(cur));
    cur = OracleBlock{};
  };
  for (const qiskit::Instruction& inst : qc.instructions()) {
    if (inst.kind == qiskit::GateKind::barrier ||
        inst.kind == qiskit::GateKind::measure) {
      flush();
      continue;
    }
    const std::vector<unsigned> gate_qubits = instruction_qubits(inst);
    std::vector<unsigned> merged;
    std::set_union(cur.qubits.begin(), cur.qubits.end(), gate_qubits.begin(),
                   gate_qubits.end(), std::back_inserter(merged));
    if (!cur.qubits.empty() && merged.size() > max_width) {
      flush();
      merged = gate_qubits;
    }
    const CMat gate = embed(instruction_matrix(inst), gate_qubits, merged);
    cur.matrix = cur.qubits.empty()
                     ? gate
                     : gate.mul(embed(cur.matrix, cur.qubits, merged));
    cur.qubits = std::move(merged);
    ++cur.source_gates;
  }
  flush();
  return blocks;
}

// Restores the active ISA on scope exit, as KernelsSimd's guard does.
class IsaGuard {
 public:
  IsaGuard() : prev_(active_isa()) {}
  ~IsaGuard() { set_active_isa(prev_); }

 private:
  Isa prev_;
};

KernelClass oracle_class(const CMat& m) {
  if (m.is_diagonal()) return KernelClass::diagonal;
  if (m.is_permutation(1e-14, nullptr, nullptr)) {
    return KernelClass::permutation;
  }
  return KernelClass::dense;
}

// A one-device program holds exactly `plan`: one segment with no swap
// batch, and one step with the plan's blocks, byte for byte.
void expect_program_holds_plan(const Program& program,
                               const FusionPlan& plan) {
  ASSERT_EQ(program.segments.size(), 1u);
  EXPECT_TRUE(program.segments[0].batch.swaps.empty());
  ASSERT_EQ(program.segments[0].steps.size(), 1u);
  EXPECT_FALSE(program.segments[0].steps[0].inst.has_value());
  EXPECT_EQ(program.measured, plan.measured);
  EXPECT_EQ(program.input_gates, plan.input_gates);
  const std::vector<FusedBlock>& blocks = program.segments[0].steps[0].blocks;
  ASSERT_EQ(blocks.size(), plan.blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].qubits, plan.blocks[b].qubits) << "block " << b;
    EXPECT_EQ(blocks[b].kernel_class, plan.blocks[b].kernel_class)
        << "block " << b;
    ASSERT_EQ(blocks[b].matrix.size(), plan.blocks[b].matrix.size());
    EXPECT_EQ(std::memcmp(blocks[b].matrix.data(),
                          plan.blocks[b].matrix.data(),
                          blocks[b].matrix.size() *
                              sizeof(std::complex<double>)),
              0)
        << "block " << b;
  }
}

TEST(Fusion, SingleGateSingleBlock) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0);
  const FusionPlan plan = plan_fusion(qc);
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].qubits, std::vector<unsigned>{0});
  EXPECT_EQ(plan.blocks[0].source_gates, 1u);
  EXPECT_EQ(plan.input_gates, 1u);
}

TEST(Fusion, AdjacentGatesFuse) {
  qiskit::QuantumCircuit qc(3);
  qc.h(0).ry(0.3, 1).cx(0, 1).rz(0.7, 2);  // all fit in width 3
  const FusionPlan plan = plan_fusion(qc, {.max_width = 3});
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].qubits, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(plan.blocks[0].source_gates, 4u);
}

TEST(Fusion, WidthLimitSplitsBlocks) {
  qiskit::QuantumCircuit qc(4);
  qc.cx(0, 1).cx(2, 3);  // disjoint pairs: width 2 forces two blocks
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(plan.blocks.size(), 2u);
  const FusionPlan plan4 = plan_fusion(qc, {.max_width = 4});
  EXPECT_EQ(plan4.blocks.size(), 1u);
}

TEST(Fusion, EveryGateAccounted) {
  const auto qc = sim_test::random_circuit(6, 500, 3);
  for (unsigned width : {1u, 2u, 3u, 5u}) {
    const FusionPlan plan = plan_fusion(qc, {.max_width = width});
    std::uint64_t total = 0;
    for (const FusedBlock& b : plan.blocks) {
      total += b.source_gates;
      EXPECT_LE(b.qubits.size(), std::max(width, 2u));
    }
    EXPECT_EQ(total, plan.input_gates);
    EXPECT_GE(plan.input_gates, plan.blocks.size());
  }
}

TEST(Fusion, BlockMatricesAreUnitary) {
  const auto qc = sim_test::random_circuit(5, 100, 8);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 4});
  for (const FusedBlock& b : plan.blocks) {
    CMat m(pow2(static_cast<unsigned>(b.qubits.size())));
    for (std::uint64_t i = 0; i < b.matrix.size(); ++i) {
      m.at(i / m.dim(), i % m.dim()) = b.matrix[i];
    }
    EXPECT_TRUE(m.is_unitary(1e-9));
  }
}

TEST(Fusion, DiagonalRunDetected) {
  qiskit::QuantumCircuit qc(3);
  qc.rz(0.1, 0).rz(0.2, 1).cp(0.3, 0, 2).p(0.4, 2);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 3});
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].kernel_class, KernelClass::diagonal);
}

TEST(Fusion, NonDiagonalBlockFlagged) {
  qiskit::QuantumCircuit qc(2);
  qc.rz(0.1, 0).h(0);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_NE(plan.blocks[0].kernel_class, KernelClass::diagonal);
}

TEST(Fusion, BarrierFlushes) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0);
  qc.barrier();
  qc.h(0);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(plan.blocks.size(), 2u);
}

TEST(Fusion, MeasureFlushesAndRecords) {
  qiskit::QuantumCircuit qc(2);
  qc.h(0).measure(1).h(0);
  const FusionPlan plan = plan_fusion(qc, {.max_width = 2});
  EXPECT_EQ(plan.blocks.size(), 2u);
  EXPECT_EQ(plan.measured, std::vector<unsigned>{1});
}

TEST(Fusion, InvalidWidthRejected) {
  qiskit::QuantumCircuit qc(1);
  EXPECT_THROW(plan_fusion(qc, {.max_width = 0}), InvalidArgument);
  EXPECT_THROW(plan_fusion(qc, {.max_width = 11}), InvalidArgument);
}

TEST(Fusion, BlocksEqualProductOfEmbeddedGates) {
  // Composition runs through the dispatched kernels, so every compiled
  // ISA must build the oracle's blocks. sim::compile's one-device program
  // must hold exactly those blocks.
  qiskit::QuantumCircuit mixed(6);
  mixed.h(0).cx(0, 3).cp(0.7, 3, 0).barrier();
  mixed.ry(0.4, 5).cx(5, 1).cp(-1.1, 1, 5).measure(2);
  mixed.rz(0.3, 2).cx(2, 4).h(4).cx(4, 2).measure(4);
  mixed.swap(1, 4).cp(0.2, 0, 5).rx(0.9, 3).cx(3, 0).barrier();
  mixed.cp(2.1, 4, 1).h(1).cx(1, 5).measure(0).rz(1.3, 0).cx(0, 2);
  const qiskit::QuantumCircuit random = circuits::generate_random_circuit(
      {.num_qubits = 12, .num_blocks = 40, .measure = true, .seed = 3});
  qiskit::QuantumCircuit random12(12, "random12");
  for (std::size_t i = 0; i < random.size(); ++i) {
    if (i == random.size() / 2) random12.barrier();
    random12.append(random.instructions()[i]);
  }
  const std::vector<std::pair<const char*, qiskit::QuantumCircuit>> cases = {
      {"random blocks",
       circuits::generate_random_circuit(
           {.num_qubits = 8, .num_blocks = 60, .measure = true, .seed = 11})},
      {"native qft", qiskit::to_native_basis(circuits::build_qft(7))},
      {"barriers and measures", mixed},
      {"qft12", circuits::build_qft(12)},
      {"random12, measures and a barrier", random12}};
  const IsaGuard guard;
  for (const auto& [name, qc] : cases) {
    std::uint64_t gates = 0;
    std::vector<unsigned> measured;
    for (const qiskit::Instruction& inst : qc.instructions()) {
      if (inst.kind == qiskit::GateKind::measure) {
        measured.push_back(static_cast<unsigned>(inst.q0));
      } else if (inst.kind != qiskit::GateKind::barrier) {
        ++gates;
      }
    }
    for (unsigned width = 1; width <= 6; ++width) {
      const std::vector<OracleBlock> oracle = oracle_blocks(qc, width);
      for (int i = 0; i < kNumIsas; ++i) {
        const Isa isa = static_cast<Isa>(i);
        if (!isa_supported(isa)) continue;
        set_active_isa(isa);
        SCOPED_TRACE(std::string(isa_name(isa)) + " / " + name + " / w" +
                     std::to_string(width));
        const FusionPlan plan = plan_fusion(qc, {.max_width = width});
        EXPECT_EQ(plan.input_gates, gates);
        EXPECT_EQ(plan.measured, measured);
        ASSERT_EQ(plan.blocks.size(), oracle.size());
        for (std::size_t b = 0; b < oracle.size(); ++b) {
          const FusedBlock& got = plan.blocks[b];
          const OracleBlock& want = oracle[b];
          EXPECT_EQ(got.qubits, want.qubits) << "block " << b;
          EXPECT_EQ(got.source_gates, want.source_gates) << "block " << b;
          EXPECT_EQ(got.kernel_class, oracle_class(want.matrix))
              << "block " << b;
          ASSERT_EQ(got.matrix.size(), want.matrix.data().size());
          double worst = 0;
          std::size_t negative_zeros = 0;
          for (std::size_t k = 0; k < got.matrix.size(); ++k) {
            const std::complex<double> v = got.matrix[k];
            worst = std::max(worst, std::abs(v - want.matrix.data()[k]));
            negative_zeros += (v.real() == 0 && std::signbit(v.real())) +
                              (v.imag() == 0 && std::signbit(v.imag()));
          }
          EXPECT_LE(worst, 1e-12) << "block " << b;
          // Zeros stay +0.0, as in the oracle: a zero amplitude's sign
          // shows in qh5 state bytes.
          EXPECT_EQ(negative_zeros, 0u) << "block " << b;
        }
        expect_program_holds_plan(compile(qc, width), plan);
      }
    }
  }
}

TEST(Fusion, EmptyCircuitEmptyPlan) {
  qiskit::QuantumCircuit qc(3);
  const FusionPlan plan = plan_fusion(qc);
  EXPECT_TRUE(plan.blocks.empty());
  EXPECT_EQ(plan.input_gates, 0u);
}

}  // namespace
}  // namespace qgear::sim
