#include "qgear/serve/compile_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qgear/qiskit/circuit.hpp"
#include "qgear/qiskit/transpile.hpp"
#include "qgear/sim/program.hpp"

namespace qgear::serve {
namespace {

// Fake artifact: a program that compiled nothing, whose footprint grows
// with its circuit's `gates`, so LRU behaviour can be tested without
// real compiles.
std::shared_ptr<const sim::Program> fake_artifact(std::size_t gates) {
  auto program = std::make_shared<sim::Program>();
  for (std::size_t i = 0; i < gates; ++i) program->circuit.x(0);
  return program;
}

std::uint64_t footprint(std::size_t gates) {
  return fake_artifact(gates)->footprint_bytes();
}

CompilationCache small_cache(std::uint64_t max_bytes) {
  CompilationCache::Options opts;
  opts.max_bytes = max_bytes;
  return CompilationCache(opts);
}

TEST(CompilationCache, MissThenHit) {
  CompilationCache cache;
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return fake_artifact(100);
  };
  bool hit = true;
  const auto first = cache.get_or_compile(42, compile, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_compile(42, compile, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(first.get(), second.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, footprint(100));
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(CompilationCache, DisabledCacheIsPassThrough) {
  CompilationCache::Options opts;
  opts.enabled = false;
  CompilationCache cache(opts);
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return fake_artifact(100);
  };
  bool hit = true;
  cache.get_or_compile(7, compile, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_compile(7, compile, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(compiles, 2);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CompilationCache, EvictsLeastRecentlyUsedOverBudget) {
  CompilationCache cache = small_cache(footprint(60) * 5 / 3);
  const auto compile = [] { return fake_artifact(60); };
  cache.get_or_compile(1, compile);
  cache.get_or_compile(2, compile);  // two entries > budget: evicts key 1

  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, footprint(60));

  bool hit = false;
  cache.get_or_compile(2, compile, &hit);
  EXPECT_TRUE(hit);  // key 2 survived
  cache.get_or_compile(1, compile, &hit);
  EXPECT_FALSE(hit);  // key 1 was the victim
}

TEST(CompilationCache, HitRefreshesRecency) {
  CompilationCache cache = small_cache(footprint(60) * 13 / 6);
  const auto compile = [] { return fake_artifact(60); };
  cache.get_or_compile(1, compile);
  cache.get_or_compile(2, compile);
  cache.get_or_compile(1, compile);  // touch 1: now 2 is the LRU tail
  cache.get_or_compile(3, compile);  // over budget: evicts 2, not 1

  bool hit = false;
  cache.get_or_compile(1, compile, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_compile(2, compile, &hit);
  EXPECT_FALSE(hit);
}

TEST(CompilationCache, NeverEvictsTheNewestEntry) {
  CompilationCache cache = small_cache(footprint(500) / 50);
  bool hit = false;
  cache.get_or_compile(1, [] { return fake_artifact(500); }, &hit);
  EXPECT_FALSE(hit);
  // An over-budget singleton still caches (it is the only copy we have).
  cache.get_or_compile(1, [] { return fake_artifact(500); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CompilationCache, ClearDropsResidentEntries) {
  CompilationCache cache;
  cache.get_or_compile(1, [] { return fake_artifact(100); });
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  bool hit = true;
  cache.get_or_compile(1, [] { return fake_artifact(100); }, &hit);
  EXPECT_FALSE(hit);
}

// Run under TSan via the `sanitizer` ctest label.
TEST(CompilationCache, SingleFlightCompilesOnceUnderContention) {
  CompilationCache cache;
  std::atomic<int> compiles{0};
  const auto slow_compile = [&] {
    compiles.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return fake_artifact(100);
  };

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const sim::Program>> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = cache.get_or_compile(99, slow_compile); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(compiles.load(), 1);  // the whole burst cost one compile
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);  // every non-compiler ends up a hit
  EXPECT_LE(stats.singleflight_waits, 7u);
}

TEST(CompilationCache, FailedCompileReleasesKeyForRetry) {
  CompilationCache cache;
  EXPECT_THROW(
      cache.get_or_compile(
          5, []() -> std::shared_ptr<const sim::Program> {
            throw std::runtime_error("transpile exploded");
          }),
      std::runtime_error);
  // The key is not poisoned: the next caller compiles fresh.
  bool hit = true;
  const auto value =
      cache.get_or_compile(5, [] { return fake_artifact(10); }, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CompileCircuit, ProducesExecutableArtifact) {
  // What serve caches: the transpiled circuit compiled at its width.
  qiskit::QuantumCircuit qc(3);
  qc.h(0).cx(0, 1).ry(0.25, 2).cx(1, 2);
  const sim::Program program =
      sim::compile(qiskit::transpile(qc), sim::FusionOptions{}.max_width);
  EXPECT_EQ(program.num_qubits, 3u);
  EXPECT_FALSE(program.blocks().empty());
  EXPECT_GT(program.circuit.size(), 0u);
  EXPECT_GT(program.footprint_bytes(), sizeof(sim::Program));
}

}  // namespace
}  // namespace qgear::serve
