#include "qgear/serve/compile_cache.hpp"

#include <utility>

#include "qgear/obs/metrics.hpp"

namespace qgear::serve {

namespace {

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.cache.hits");
  return c;
}
obs::Counter& misses_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.cache.misses");
  return c;
}
obs::Counter& evictions_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.cache.evictions");
  return c;
}
obs::Counter& singleflight_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.cache.singleflight_waits");
  return c;
}
obs::Gauge& bytes_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("serve.cache.bytes");
  return g;
}
obs::Gauge& entries_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("serve.cache.entries");
  return g;
}

}  // namespace

CompilationCache::CompilationCache(Options opts) : opts_(opts) {}

std::shared_ptr<const sim::Program> CompilationCache::get_or_compile(
    std::uint64_t key, const Compiler& compile, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  if (!opts_.enabled) {
    return compile();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  bool counted_wait = false;
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // this caller compiles
    if (it->second.compiling) {
      if (!counted_wait) {
        counted_wait = true;
        ++stats_.singleflight_waits;
        singleflight_counter().add();
      }
      ready_cv_.wait(lock);
      continue;  // re-check: ready, or erased after a failed compile
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    ++stats_.hits;
    hits_counter().add();
    if (cache_hit != nullptr) *cache_hit = true;
    return it->second.value;
  }

  ++stats_.misses;
  misses_counter().add();
  entries_.emplace(key, Entry{});  // claims the key (compiling == true)
  lock.unlock();

  std::shared_ptr<const sim::Program> value;
  try {
    value = compile();
  } catch (...) {
    lock.lock();
    entries_.erase(key);
    ready_cv_.notify_all();
    throw;
  }

  lock.lock();
  Entry& entry = entries_[key];
  entry.value = value;
  entry.compiling = false;
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  stats_.bytes += value->footprint_bytes();
  stats_.entries = lru_.size();
  evict_over_budget_locked();
  bytes_gauge().set(static_cast<double>(stats_.bytes));
  entries_gauge().set(static_cast<double>(stats_.entries));
  ready_cv_.notify_all();
  return value;
}

void CompilationCache::evict_over_budget_locked() {
  // Never evicts the most recent entry, so a single over-budget artifact
  // still caches (and still bounds steady-state growth).
  while (stats_.bytes > opts_.max_bytes && lru_.size() > 1) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    stats_.bytes -= it->second.value->footprint_bytes();
    entries_.erase(it);
    ++stats_.evictions;
    evictions_counter().add();
  }
  stats_.entries = lru_.size();
}

CompilationCache::Stats CompilationCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void CompilationCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::uint64_t key : lru_) entries_.erase(key);
  lru_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
  bytes_gauge().set(0);
  entries_gauge().set(0);
}

}  // namespace qgear::serve
