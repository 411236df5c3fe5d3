#include "qgear/sim/fusion.hpp"

#include <algorithm>

#include "qgear/common/error.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/sim/kernels.hpp"

namespace qgear::sim {

namespace {

// Classification tolerance: a block is diagonal (or a permutation) when
// every entry off its diagonal (or off its permutation) is at most this
// large in magnitude.
constexpr double kDiagTol = 1e-14;

obs::Counter& plans_counter() {
  static obs::Counter& c = obs::Registry::global().counter("sim.fusion_plans");
  return c;
}

// The gates of one block, grouped before any matrix is built.
struct Group {
  std::vector<unsigned> qubits;  // ascending
  std::vector<const qiskit::Instruction*> gates;

  bool empty() const { return gates.empty(); }

  // Qubits the block would span with `inst` added.
  std::size_t width_with(const qiskit::Instruction& inst) const {
    std::size_t w = qubits.size() + !contains(inst.q0);
    if (qiskit::gate_info(inst.kind).num_qubits == 2) w += !contains(inst.q1);
    return w;
  }

  void add(const qiskit::Instruction& inst) {
    insert(inst.q0);
    if (qiskit::gate_info(inst.kind).num_qubits == 2) insert(inst.q1);
    gates.push_back(&inst);
  }

  bool contains(int q) const {
    return std::binary_search(qubits.begin(), qubits.end(),
                              static_cast<unsigned>(q));
  }

  void insert(int q) {
    const auto u = static_cast<unsigned>(q);
    const auto it = std::lower_bound(qubits.begin(), qubits.end(), u);
    if (it == qubits.end() || *it != u) qubits.insert(it, u);
  }
};

// Composes a group's gates at its final width w. The row-major 2^w x 2^w
// matrix is a 2w-qubit state whose high w bits index the row, so
// left-multiplying it by a gate on block qubit j is applying the gate to
// state qubit w + j: one dispatched kernel sweep per gate, no embedding.
CMat compose(const Group& g, std::vector<std::complex<double>>& gate2q) {
  const auto w = static_cast<unsigned>(g.qubits.size());
  CMat m = CMat::identity(pow2(w));
  std::complex<double>* rows = m.mutable_data();
  const auto row_qubit = [&](int q) {
    return w + static_cast<unsigned>(
                   std::lower_bound(g.qubits.begin(), g.qubits.end(),
                                    static_cast<unsigned>(q)) -
                   g.qubits.begin());
  };
  for (const qiskit::Instruction* inst : g.gates) {
    if (qiskit::gate_info(inst->kind).num_qubits == 1) {
      apply_1q<double>(rows, 2 * w, row_qubit(inst->q0),
                       qiskit::gate_matrix_1q(inst->kind, inst->param));
      continue;
    }
    const qiskit::Mat4 u = qiskit::gate_matrix_2q(
        inst->kind, inst->param, static_cast<unsigned>(inst->q0),
        static_cast<unsigned>(inst->q1));
    std::copy(u.begin(), u.end(), gate2q.begin());
    apply_2q_dense<double>(rows, 2 * w, row_qubit(std::min(inst->q0, inst->q1)),
                           row_qubit(std::max(inst->q0, inst->q1)), gate2q);
  }
  // A zero entry times a negative coefficient leaves -0.0, which the
  // embed-and-multiply product never holds. Adding +0.0 clears the sign,
  // so amplitudes that stay exactly zero keep +0.0 bytes (qh5 state
  // files compress on those bytes).
  const std::complex<double> plus_zero(0.0, 0.0);
  for (std::uint64_t i = 0; i < m.dim() * m.dim(); ++i) rows[i] += plus_zero;
  return m;
}

void flush(Group& g, FusionPlan& plan,
           std::vector<std::complex<double>>& gate2q) {
  if (g.empty()) return;
  CMat m = compose(g, gate2q);
  FusedBlock block;
  // Classify most-specialized first: diagonal beats permutation (every
  // diagonal unitary is also a phased identity permutation) beats dense.
  if (m.is_diagonal(kDiagTol)) {
    block.kernel_class = KernelClass::diagonal;
    const std::uint64_t dim = m.dim();
    block.diag.resize(dim);
    for (std::uint64_t v = 0; v < dim; ++v) block.diag[v] = m.at(v, v);
  } else if (m.is_permutation(kDiagTol, &block.perm, &block.phases)) {
    block.kernel_class = KernelClass::permutation;
  } else {
    block.kernel_class = KernelClass::dense;
  }
  block.matrix = std::move(m).take();
  block.source_gates = g.gates.size();
  block.qubits = std::move(g.qubits);
  plan.blocks.push_back(std::move(block));
  g.qubits.clear();
  g.gates.clear();
}

}  // namespace

const char* kernel_class_name(KernelClass kc) {
  switch (kc) {
    case KernelClass::diagonal:
      return "diagonal";
    case KernelClass::permutation:
      return "permutation";
    case KernelClass::dense:
      break;
  }
  return "dense";
}

FusionPlan plan_fusion(const qiskit::QuantumCircuit& qc, FusionOptions opts) {
  QGEAR_CHECK_ARG(opts.max_width >= 1 && opts.max_width <= 10,
                  "fusion: max_width must be in [1, 10]");
  obs::Span fuse_span(obs::Tracer::global(), "fuse", "sim");
  plans_counter().add();
  FusionPlan plan;
  Group cur;
  std::vector<std::complex<double>> gate2q(16);

  for (const qiskit::Instruction& inst : qc.instructions()) {
    if (inst.kind == qiskit::GateKind::barrier) {
      flush(cur, plan, gate2q);
      continue;
    }
    if (inst.kind == qiskit::GateKind::measure) {
      flush(cur, plan, gate2q);
      plan.measured.push_back(static_cast<unsigned>(inst.q0));
      continue;
    }
    ++plan.input_gates;
    // Greedy: a gate joins the open block unless the union of their
    // qubits outgrows max_width; a gate wider than max_width still gets a
    // block of its own.
    if (!cur.empty() && cur.width_with(inst) > opts.max_width) {
      flush(cur, plan, gate2q);
    }
    cur.add(inst);
  }
  flush(cur, plan, gate2q);
  if (fuse_span.active()) {
    fuse_span.arg("input_gates", std::uint64_t{plan.input_gates});
    fuse_span.arg("blocks", std::uint64_t{plan.blocks.size()});
  }
  return plan;
}

}  // namespace qgear::sim
