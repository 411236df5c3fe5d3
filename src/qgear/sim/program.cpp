#include "qgear/sim/program.hpp"

#include <algorithm>
#include <utility>

#include "qgear/common/bits.hpp"
#include "qgear/common/error.hpp"

namespace qgear::sim {

SwapBatch compile_swap_batch(std::span<const SlabSwap> swaps,
                             unsigned num_qubits, unsigned num_local) {
  QGEAR_CHECK_ARG(!swaps.empty(), "dist: empty index-bit-swap batch");
  SwapBatch batch{{swaps.begin(), swaps.end()}, {}};
  std::vector<SlabSwap>& ps = batch.swaps;
  std::sort(ps.begin(), ps.end(), [](const SlabSwap& a, const SlabSwap& b) {
    return a.local_phys < b.local_phys;
  });
  const unsigned k = static_cast<unsigned>(ps.size());
  QGEAR_CHECK_ARG(k <= num_local && k <= num_qubits - num_local,
                  "dist: index-bit-swap batch wider than the layout");
  for (unsigned i = 0; i < k; ++i) {
    QGEAR_CHECK_ARG(ps[i].local_phys < num_local &&
                        ps[i].global_phys >= num_local &&
                        ps[i].global_phys < num_qubits,
                    "dist: index-bit-swap pair out of range");
    QGEAR_CHECK_ARG(i == 0 || ps[i].local_phys != ps[i - 1].local_phys,
                    "dist: duplicate local bit in index-bit-swap batch");
    for (unsigned j = 0; j < i; ++j) {
      QGEAR_CHECK_ARG(ps[j].global_phys != ps[i].global_phys,
                      "dist: duplicate global bit in index-bit-swap batch");
    }
  }
  for (std::uint64_t d = 1; d < pow2(k); ++d) {
    std::uint64_t mask = 0;
    for (unsigned i = 0; i < k; ++i) {
      if ((d >> i) & 1u) mask |= pow2(ps[i].global_phys - num_local);
    }
    batch.peer_masks.push_back(mask);
  }
  return batch;
}

std::span<const FusedBlock> Program::blocks() const {
  if (segments.empty()) return {};
  QGEAR_CHECK_ARG(logical_to_physical.empty() && segments.size() == 1 &&
                      segments[0].steps.size() == 1 &&
                      !segments[0].steps[0].inst,
                  "program: not a one-device program");
  return segments[0].steps[0].blocks;
}

std::uint64_t Program::footprint_bytes() const {
  std::uint64_t bytes = sizeof(Program) + sizeof(Segment) + sizeof(Step);
  bytes += circuit.size() * sizeof(qiskit::Instruction);
  for (const FusedBlock& b : blocks()) {
    bytes += (b.matrix.size() + b.diag.size() + b.phases.size()) *
             sizeof(std::complex<double>);
    bytes += b.perm.size() * sizeof(std::uint32_t);
    bytes += b.qubits.size() * sizeof(unsigned);
    bytes += sizeof(FusedBlock);
  }
  bytes += measured.size() * sizeof(unsigned);
  return bytes;
}

Program compile(const qiskit::QuantumCircuit& qc, unsigned fusion_width) {
  FusionPlan plan = plan_fusion(qc, {.max_width = fusion_width});
  Program program;
  program.circuit = qc;
  program.num_qubits = program.num_local = qc.num_qubits();
  program.segments.emplace_back().steps.push_back(
      {std::move(plan.blocks), std::nullopt});
  program.measured = std::move(plan.measured);
  program.input_gates = plan.input_gates;
  return program;
}

}  // namespace qgear::sim
