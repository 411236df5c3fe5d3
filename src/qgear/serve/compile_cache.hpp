// Compilation cache: circuit fingerprint -> compiled sim::Program, with
// LRU eviction and single-flight deduplication.
//
// Compilation (basis transpile + sim::compile) is the reusable artifact
// of repeated circuit traffic — it depends only on circuit content,
// never on the submitting tenant or the state vector. The cache keys on
// qiskit::circuit_fingerprint, bounds resident bytes
// (Program::footprint_bytes) with LRU eviction, and deduplicates
// concurrent compilations of the same key: the first requester compiles,
// later requesters block until the entry is ready (single flight), so a
// burst of N identical submissions costs one compile instead of N.
//
// Thread-safe. Values are immutable and shared_ptr-held, so an entry may
// be evicted while executions still reference it.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <unordered_map>

#include "qgear/sim/program.hpp"

namespace qgear::serve {

class CompilationCache {
 public:
  struct Options {
    bool enabled = true;
    std::uint64_t max_bytes = 256ull << 20;  ///< LRU eviction threshold
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t singleflight_waits = 0;  ///< requests that blocked on an
                                           ///< in-progress compile
    std::uint64_t bytes = 0;               ///< resident bytes
    std::uint64_t entries = 0;             ///< resident entries

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  using Compiler = std::function<std::shared_ptr<const sim::Program>()>;

  CompilationCache() : CompilationCache(Options{}) {}
  explicit CompilationCache(Options opts);

  /// Returns the cached program for `key`, compiling via `compile` on a
  /// miss. Concurrent callers with the same key compile once (single
  /// flight); if the compile throws, waiters retry (one of them becomes
  /// the new compiler) and the exception propagates to the thrower.
  /// With the cache disabled this is a pass-through call to `compile`.
  /// `cache_hit` (optional) reports whether the value came from cache.
  std::shared_ptr<const sim::Program> get_or_compile(
      std::uint64_t key, const Compiler& compile, bool* cache_hit = nullptr);

  Stats stats() const;
  bool enabled() const { return opts_.enabled; }
  std::uint64_t max_bytes() const { return opts_.max_bytes; }

  /// Drops every resident entry (in-progress compiles are unaffected).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const sim::Program> value;  // null while compiling
    bool compiling = true;
    std::list<std::uint64_t>::iterator lru_it{};  // valid once ready
  };

  void evict_over_budget_locked();

  Options opts_;
  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  Stats stats_;
};

}  // namespace qgear::serve
