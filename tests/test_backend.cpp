#include "qgear/sim/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "qgear/common/error.hpp"
#include "qgear/common/rng.hpp"
#include "qgear/common/thread_pool.hpp"
#include "qgear/dist/dist_backend.hpp"
#include "qgear/obs/metrics.hpp"
#include "qgear/obs/trace.hpp"
#include "qgear/qiskit/circuit.hpp"
#include "qgear/sim/state.hpp"
#include "tests/sim_test_util.hpp"

namespace qgear::sim {
namespace {

bool contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const auto names = Backend::available();
  for (const char* name : {"reference", "fused", "dd", "mps"}) {
    EXPECT_TRUE(contains(names, name)) << name;
    EXPECT_TRUE(Backend::is_registered(name)) << name;
  }
  EXPECT_FALSE(Backend::is_registered("no-such-engine"));
}

TEST(BackendRegistry, CreateUnknownThrowsWithAvailableNames) {
  try {
    Backend::create("warp-drive");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp-drive"), std::string::npos);
    EXPECT_NE(msg.find("fused"), std::string::npos);  // lists alternatives
  }
}

TEST(BackendRegistry, ExternalRegistrationAddsDist) {
  dist::register_dist_backend();
  EXPECT_TRUE(Backend::is_registered("dist"));
  auto be = Backend::create("dist");
  EXPECT_EQ(be->name(), "dist");
}

TEST(BackendRegistry, DefaultNameFollowsEnvironment) {
  const char* prev = std::getenv("QGEAR_BACKEND");
  const std::string saved = prev ? prev : "";
  unsetenv("QGEAR_BACKEND");
  EXPECT_EQ(Backend::default_name(), "fused");
  setenv("QGEAR_BACKEND", "dd", 1);
  EXPECT_EQ(Backend::default_name(), "dd");
  if (prev) {
    setenv("QGEAR_BACKEND", saved.c_str(), 1);
  } else {
    unsetenv("QGEAR_BACKEND");
  }
}

TEST(BackendRegistry, UnknownEnvBackendFallsBackToFused) {
  const char* prev = std::getenv("QGEAR_BACKEND");
  const std::string saved = prev ? prev : "";
  setenv("QGEAR_BACKEND", "no-such-engine", 1);
  // Warns and falls back instead of exploding at first create() — a bad
  // env var must not take down a service that never asked for it.
  EXPECT_EQ(Backend::default_name(), "fused");
  auto be = Backend::create(Backend::default_name());
  EXPECT_EQ(be->name(), "fused");
  if (prev) {
    setenv("QGEAR_BACKEND", saved.c_str(), 1);
  } else {
    unsetenv("QGEAR_BACKEND");
  }
}

TEST(BackendOptionsFp32, StatevectorBackendsRunSinglePrecision) {
  BackendOptions fp32;
  fp32.fp32 = true;
  for (const char* name : {"reference", "fused"}) {
    auto be = Backend::create(name, fp32);
    qiskit::QuantumCircuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    be->init_state(2);
    be->apply_circuit(bell);
    PauliTerm zz;
    zz.ops = {Pauli::Z, Pauli::Z};
    // Bell state: <ZZ> = 1 exactly; fp32 rounding stays well under 1e-5.
    EXPECT_NEAR(be->expectation(zz), 1.0, 1e-5) << name;
  }
}

TEST(BackendOptionsFp32, HalvesTheStatevectorMemoryEstimate) {
  qiskit::QuantumCircuit qc(20);
  BackendOptions fp64;
  BackendOptions fp32;
  fp32.fp32 = true;
  for (const char* name : {"reference", "fused"}) {
    const std::uint64_t full = Backend::memory_estimate_for(name, qc, fp64);
    const std::uint64_t half = Backend::memory_estimate_for(name, qc, fp32);
    EXPECT_EQ(half * 2, full) << name;
  }
  // Compact engines ignore the flag: same price either way.
  EXPECT_EQ(Backend::memory_estimate_for("dd", qc, fp32),
            Backend::memory_estimate_for("dd", qc, fp64));
}

TEST(BackendRegistry, EveryBuiltinRunsABellCircuit) {
  qiskit::QuantumCircuit bell(2);
  bell.h(0).cx(0, 1);
  for (const char* name : {"reference", "fused", "dd", "mps"}) {
    auto be = Backend::create(name);
    EXPECT_EQ(be->name(), name);
    be->init_state(2);
    EXPECT_EQ(be->num_qubits(), 2u);
    be->apply_circuit(bell);
    EXPECT_NEAR(be->expectation(PauliTerm::parse("ZZ")), 1.0, 1e-6)
        << name;
    Rng rng(2);
    const Counts counts = be->sample({}, 200, rng);
    std::uint64_t total = 0;
    for (const auto& [key, count] : counts) {
      EXPECT_TRUE(key == 0 || key == 3) << name << " sampled " << key;
      total += count;
    }
    EXPECT_EQ(total, 200u) << name;
  }
}

TEST(BackendRegistry, UseBeforeInitThrows) {
  for (const char* name : {"reference", "fused", "dd", "mps"}) {
    auto be = Backend::create(name);
    qiskit::QuantumCircuit qc(2);
    qc.h(0);
    EXPECT_THROW(be->apply_circuit(qc), InvalidArgument) << name;
  }
}

TEST(BackendMemoryEstimate, StatevectorPriceIsTwoToTheN) {
  qiskit::QuantumCircuit qc(20);
  for (const char* name : {"reference", "fused"}) {
    const std::uint64_t est = Backend::memory_estimate_for(name, qc, {});
    EXPECT_EQ(est, (std::uint64_t{1} << 20) * 16) << name;
  }
}

TEST(BackendMemoryEstimate, CompactBackendsUndercutStatevectorAt50Q) {
  qiskit::QuantumCircuit ghz(50);
  ghz.h(0);
  for (unsigned q = 0; q + 1 < 50; ++q) ghz.cx(q, q + 1);
  const std::uint64_t dense = Backend::memory_estimate_for("fused", ghz, {});
  const std::uint64_t dd = Backend::memory_estimate_for("dd", ghz, {});
  const std::uint64_t mps = Backend::memory_estimate_for("mps", ghz, {});
  // The dense price is astronomically larger — this is the admission
  // bug the Backend interface fixes: serve must price dd/mps jobs by
  // these estimates, not by 2^n.
  EXPECT_GT(dense, std::uint64_t{1} << 50);
  EXPECT_LT(dd, std::uint64_t{1} << 30);   // < 1 GiB
  EXPECT_LT(mps, std::uint64_t{1} << 20);  // < 1 MiB
}

TEST(BackendMemoryEstimate, OptionsChangeThePrice) {
  qiskit::QuantumCircuit qc(50);
  BackendOptions small;
  small.dd.max_nodes = 1 << 12;
  BackendOptions large;
  large.dd.max_nodes = 1 << 22;
  EXPECT_LT(Backend::memory_estimate_for("dd", qc, small),
            Backend::memory_estimate_for("dd", qc, large));
}

TEST(StateVectorInit, QubitRangeIsCheckedBeforeAllocating) {
  // 35 qubits would ask for 512 GiB at fp64, and 64 shifts past pow2's
  // range. Each must fail as a bad argument, which serve treats as
  // permanent, not as a retryable bad_alloc.
  for (const unsigned n : {0u, 35u, 64u}) {
    EXPECT_THROW(StateVector<double>{n}, InvalidArgument) << n;
    EXPECT_THROW(StateVector<float>{n}, InvalidArgument) << n;
    for (const char* name : {"reference", "fused"}) {
      auto be = Backend::create(name);
      EXPECT_THROW(be->init_state(n), InvalidArgument) << name << " " << n;
    }
  }
}

/// Re-initialising a pooled statevector backend must leave exactly the
/// state a fresh backend starts from: after circuit A, init_state and
/// circuit B, the seeded counts and <Z...Z> equal those of a fresh
/// backend that ran only B. The re-zeroing is one pass split across the
/// pool, seen through the threadpool.rounds counter (ranges under 4,096
/// amplitudes would run inline).
TEST(StateVectorInit, PooledReInitMatchesAFreshBackend) {
  constexpr unsigned kQubits = 14;
  ThreadPool pool(4);
  const obs::Counter& rounds =
      obs::Registry::global().counter("threadpool.rounds");
  const auto a = sim_test::random_circuit(kQubits, 80, 31);
  const auto b = sim_test::random_circuit(kQubits, 80, 32);
  const PauliTerm all_z = PauliTerm::parse(std::string(kQubits, 'Z'));
  for (const char* name : {"reference", "fused"}) {
    for (const bool fp32 : {false, true}) {
      SCOPED_TRACE(std::string(name) + (fp32 ? " fp32" : " fp64"));
      BackendOptions opts;
      opts.pool = &pool;
      opts.fp32 = fp32;
      const auto finish_with_b = [&](Backend& be) {
        be.apply_circuit(b);
        Rng rng(17);
        return std::make_pair(be.sample({}, 2000, rng), be.expectation(all_z));
      };
      auto fresh = Backend::create(name, opts);
      fresh->init_state(kQubits);
      const auto [fresh_counts, fresh_z] = finish_with_b(*fresh);

      auto kept = Backend::create(name, opts);
      kept->init_state(kQubits);
      kept->apply_circuit(a);
      const std::uint64_t rounds_before = rounds.value();
      kept->init_state(kQubits);
      // One zeroing pass, split across the pool.
      EXPECT_EQ(rounds.value() - rounds_before, 1u);
      const auto [counts, z] = finish_with_b(*kept);
      EXPECT_EQ(counts, fresh_counts);
      EXPECT_EQ(z, fresh_z);
    }
  }
}

TEST(StateVectorInit, StateInitSpanReportsReuse) {
  obs::Tracer& tracer = obs::Tracer::global();
  for (const char* name : {"reference", "fused"}) {
    tracer.clear();
    tracer.set_enabled(true);
    auto be = Backend::create(name);
    be->init_state(3);
    be->init_state(3);
    be->init_state(5);
    tracer.set_enabled(false);
    std::vector<std::string> seen;  // "<qubits>:<reused>" per state_init
    for (const obs::SpanRecord& rec : tracer.snapshot()) {
      if (rec.name != "state_init") continue;
      EXPECT_EQ(rec.cat, "sim");
      std::string qubits, reused;
      for (const auto& [key, value] : rec.args) {
        if (key == "qubits") qubits = value;
        if (key == "reused") reused = value;
      }
      seen.push_back(qubits + ":" + reused);
    }
    const std::vector<std::string> expected = {"3:0", "3:1", "5:0"};
    EXPECT_EQ(seen, expected) << name;
  }
  tracer.clear();
}

TEST(BackendRegistry, CustomFactoryIsCreatable) {
  Backend::register_backend("test-alias", [](const BackendOptions& opts) {
    return Backend::create("reference", opts);
  });
  auto be = Backend::create("test-alias");
  EXPECT_EQ(be->name(), "reference");
  EXPECT_TRUE(Backend::is_registered("test-alias"));
}

}  // namespace
}  // namespace qgear::sim
