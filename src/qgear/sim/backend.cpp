#include "qgear/sim/backend.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

#include "qgear/common/error.hpp"
#include "qgear/common/log.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/reference.hpp"
#include "qgear/sim/state.hpp"

namespace qgear::sim {

namespace {

/// Bytes of a dense statevector at `amp_bytes` per amplitude,
/// saturating for large n.
std::uint64_t statevector_bytes(unsigned n, std::uint64_t amp_bytes) {
  if (n >= 60) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << n) * amp_bytes;
}

template <typename Engine, typename T>
class StateVectorBackend : public Backend {
 public:
  /// Keeps the buffer for an unchanged width and re-zeroes it on the
  /// sweep pool; a new width frees the old buffer before allocating
  /// (emplace destroys first), so two states are never resident at once.
  void init_state(unsigned num_qubits) override {
    obs::Span span(obs::Tracer::global(), "state_init", "sim");
    const bool reused = state_ && state_->num_qubits() == num_qubits;
    if (reused) {
      state_->reset(engine_.pool());
    } else {
      state_.emplace(num_qubits, engine_.pool());
    }
    if (span.active()) {
      span.arg("qubits", std::uint64_t{num_qubits});
      span.arg("reused", std::uint64_t{reused});
    }
  }
  unsigned num_qubits() const override {
    return state_ ? state_->num_qubits() : 0;
  }
  void apply_circuit(const qiskit::QuantumCircuit& qc,
                     std::vector<unsigned>* measured) override {
    require_state();
    engine_.apply(qc, *state_, measured);
  }
  Counts sample(const std::vector<unsigned>& measured_qubits,
                std::uint64_t shots, Rng& rng) override {
    require_state();
    return sample_counts(*state_, measured_qubits, shots, rng, engine_.pool());
  }
  double expectation(const PauliTerm& term) override {
    require_state();
    return sim::expectation(*state_, term);
  }
  double expectation(const Observable& obs) override {
    require_state();
    return sim::expectation(*state_, obs);
  }
  std::uint64_t memory_estimate(
      const qiskit::QuantumCircuit& qc) const override {
    return statevector_bytes(qc.num_qubits(), sizeof(std::complex<T>));
  }
  const EngineStats& stats() const override { return engine_.stats(); }
  void reset_stats() override { engine_.reset_stats(); }

 protected:
  void require_state() const {
    QGEAR_CHECK_ARG(state_.has_value(),
                    "backend: init_state must precede use");
  }

  Engine engine_;
  std::optional<StateVector<T>> state_;
};

template <typename T>
class ReferenceBackend final
    : public StateVectorBackend<ReferenceEngine<T>, T> {
 public:
  explicit ReferenceBackend(const BackendOptions& o) {
    this->engine_ = ReferenceEngine<T>({o.pool});
  }
  std::string name() const override { return "reference"; }
};

template <typename T>
class FusedBackend final : public StateVectorBackend<FusedEngine<T>, T> {
 public:
  explicit FusedBackend(const BackendOptions& o) {
    this->engine_ = FusedEngine<T>({o.fusion, o.pool});
  }
  std::string name() const override { return "fused"; }
};

class DdBackend final : public Backend {
 public:
  explicit DdBackend(const BackendOptions& o) : opts_(o.dd), engine_(o.dd) {}
  std::string name() const override { return "dd"; }
  void init_state(unsigned num_qubits) override {
    engine_.init_state(num_qubits);
  }
  unsigned num_qubits() const override { return engine_.num_qubits(); }
  void apply_circuit(const qiskit::QuantumCircuit& qc,
                     std::vector<unsigned>* measured) override {
    engine_.apply(qc, measured);
  }
  Counts sample(const std::vector<unsigned>& measured_qubits,
                std::uint64_t shots, Rng& rng) override {
    return engine_.sample(measured_qubits, shots, rng);
  }
  double expectation(const PauliTerm& term) override {
    return engine_.expectation(term);
  }
  double expectation(const Observable& obs) override {
    return engine_.expectation(obs);
  }
  std::uint64_t memory_estimate(
      const qiskit::QuantumCircuit& qc) const override {
    return DdEngine::memory_estimate(qc, opts_.max_nodes);
  }
  const EngineStats& stats() const override { return engine_.stats(); }
  void reset_stats() override { engine_.reset_stats(); }

 private:
  DdEngine::Options opts_;
  DdEngine engine_;
};

class MpsBackend final : public Backend {
 public:
  explicit MpsBackend(const BackendOptions& o) : opts_(o.mps), engine_(o.mps) {}
  std::string name() const override { return "mps"; }
  void init_state(unsigned num_qubits) override {
    engine_.init_state(num_qubits);
  }
  unsigned num_qubits() const override { return engine_.num_qubits(); }
  void apply_circuit(const qiskit::QuantumCircuit& qc,
                     std::vector<unsigned>* measured) override {
    engine_.apply(qc, measured);
  }
  Counts sample(const std::vector<unsigned>& measured_qubits,
                std::uint64_t shots, Rng& rng) override {
    return engine_.sample(measured_qubits, shots, rng);
  }
  double expectation(const PauliTerm& term) override {
    return engine_.expectation(term);
  }
  double expectation(const Observable& obs) override {
    return engine_.expectation(obs);
  }
  std::uint64_t memory_estimate(
      const qiskit::QuantumCircuit& qc) const override {
    return MpsEngine::memory_estimate(qc, opts_);
  }
  const EngineStats& stats() const override { return engine_.stats(); }
  void reset_stats() override { engine_.reset_stats(); }

 private:
  MpsEngine::Options opts_;
  MpsEngine engine_;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Backend::Factory> factories;
};

Registry& registry() {
  static Registry r;
  return r;
}

void ensure_builtins() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.factories["reference"] = [](const BackendOptions& o) {
      return o.fp32 ? std::unique_ptr<Backend>(new ReferenceBackend<float>(o))
                    : std::unique_ptr<Backend>(new ReferenceBackend<double>(o));
    };
    r.factories["fused"] = [](const BackendOptions& o) {
      return o.fp32 ? std::unique_ptr<Backend>(new FusedBackend<float>(o))
                    : std::unique_ptr<Backend>(new FusedBackend<double>(o));
    };
    r.factories["dd"] = [](const BackendOptions& o) {
      return std::unique_ptr<Backend>(new DdBackend(o));
    };
    r.factories["mps"] = [](const BackendOptions& o) {
      return std::unique_ptr<Backend>(new MpsBackend(o));
    };
  });
}

}  // namespace

double Backend::expectation(const Observable& obs) {
  double acc = 0;
  for (const PauliTerm& term : obs.terms()) acc += expectation(term);
  return acc;
}

void Backend::register_backend(const std::string& name, Factory factory) {
  QGEAR_CHECK_ARG(!name.empty(), "backend: name must be non-empty");
  ensure_builtins();
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.factories[name] = std::move(factory);
}

std::unique_ptr<Backend> Backend::create(const std::string& name,
                                         const BackendOptions& opts) {
  ensure_builtins();
  Factory factory;
  {
    auto& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      std::string names;
      for (const auto& [n, f] : r.factories) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      throw InvalidArgument("backend: unknown backend '" + name +
                            "' (available: " + names + ")");
    }
    factory = it->second;
  }
  return factory(opts);
}

std::vector<std::string> Backend::available() {
  ensure_builtins();
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [n, f] : r.factories) names.push_back(n);
  return names;  // std::map iteration is already sorted
}

bool Backend::is_registered(const std::string& name) {
  ensure_builtins();
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.factories.count(name) != 0;
}

std::string Backend::default_name() {
  const char* env = std::getenv("QGEAR_BACKEND");
  if (env != nullptr && env[0] != '\0') {
    if (is_registered(env)) return env;
    log::warn(std::string("backend: QGEAR_BACKEND='") + env +
              "' is not registered; falling back to 'fused'");
    return "fused";
  }
  return "fused";
}

std::uint64_t Backend::memory_estimate_for(const std::string& name,
                                           const qiskit::QuantumCircuit& qc,
                                           const BackendOptions& opts) {
  return create(name, opts)->memory_estimate(qc);
}

}  // namespace qgear::sim
