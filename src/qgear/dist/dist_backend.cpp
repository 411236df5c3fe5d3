#include "qgear/dist/dist_backend.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "qgear/common/error.hpp"
#include "qgear/dist/runner.hpp"
#include "qgear/sim/state.hpp"

namespace qgear::dist {

namespace {

// Each rank sweeps through a one-worker pool.
constexpr unsigned kThreadsPerRank = 1;

class DistBackend final : public sim::Backend {
 public:
  explicit DistBackend(const sim::BackendOptions& o) : opts_(o) {}

  std::string name() const override { return "dist"; }

  void init_state(unsigned num_qubits) override {
    const unsigned ranks = resolved_ranks();
    QGEAR_CHECK_ARG(num_qubits >= 1, "dist: need at least one qubit");
    QGEAR_CHECK_ARG((std::uint64_t{1} << std::min(num_qubits, 32u)) >= ranks,
                    "dist: more ranks than amplitudes");
    circuit_.emplace(num_qubits);
    state_.reset();
    stats_.reset();
  }

  unsigned num_qubits() const override {
    return circuit_ ? circuit_->num_qubits() : 0;
  }

  void apply_circuit(const qiskit::QuantumCircuit& qc,
                     std::vector<unsigned>* measured) override {
    require_state();
    circuit_->compose(qc);
    state_.reset();
    if (measured != nullptr) {
      for (const qiskit::Instruction& inst : qc.instructions()) {
        if (inst.kind == qiskit::GateKind::measure) {
          measured->push_back(static_cast<unsigned>(inst.q0));
        }
      }
    }
  }

  sim::Counts sample(const std::vector<unsigned>& measured_qubits,
                     std::uint64_t shots, Rng& rng) override {
    return sim::sample_counts(final_state(), measured_qubits, shots, rng);
  }

  double expectation(const sim::PauliTerm& term) override {
    return sim::expectation(final_state(), term);
  }
  double expectation(const sim::Observable& obs) override {
    return sim::expectation(final_state(), obs);
  }

  std::uint64_t memory_estimate(
      const qiskit::QuantumCircuit& qc) const override {
    // Still a dense statevector — just partitioned. Cluster-wide bytes.
    constexpr std::uint64_t kAmpBytes = sizeof(std::complex<double>);
    const unsigned n = qc.num_qubits();
    if (n >= 60) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << n) * kAmpBytes;
  }

  const sim::EngineStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

 private:
  void require_state() const {
    QGEAR_CHECK_ARG(circuit_.has_value(),
                    "dist: init_state must precede use");
  }

  unsigned resolved_ranks() const {
    unsigned r = opts_.dist_ranks != 0 ? opts_.dist_ranks : 4;
    // Round down to a power of two (run_distributed requires it).
    while ((r & (r - 1)) != 0) r &= r - 1;
    return std::max(1u, r);
  }

  RunOptions run_options() const {
    RunOptions ro;
    ro.num_ranks = static_cast<int>(resolved_ranks());
    ro.fusion_width = opts_.fusion.max_width;
    ro.remap = true;
    ro.threads_per_rank = kThreadsPerRank;
    return ro;
  }

  /// The state the accumulated circuit leaves, run and gathered once
  /// after the last init_state or apply_circuit.
  const sim::StateVector<double>& final_state() {
    require_state();
    if (state_) return *state_;
    const unsigned n = circuit_->num_qubits();
    QGEAR_CHECK_ARG(n <= 28,
                    "dist: sample and expectation gather the full state "
                    "(n <= 28)");
    RunOptions ro = run_options();
    ro.gather_state = true;
    RunResult<double> result = run_distributed<double>(*circuit_, ro);
    for (const sim::EngineStats& s : result.rank_stats) stats_ += s;
    // Checked before state_ is set, so a failed run leaves nothing cached.
    QGEAR_ENSURES(result.state.size() == (std::uint64_t{1} << n));
    state_.emplace(n);
    std::copy(result.state.begin(), result.state.end(), state_->data());
    return *state_;
  }

  sim::BackendOptions opts_;
  std::optional<qiskit::QuantumCircuit> circuit_;
  std::optional<sim::StateVector<double>> state_;  ///< empty until run
  sim::EngineStats stats_;
};

}  // namespace

void register_dist_backend() {
  sim::Backend::register_backend("dist", [](const sim::BackendOptions& o) {
    return std::unique_ptr<sim::Backend>(new DistBackend(o));
  });
}

}  // namespace qgear::dist
