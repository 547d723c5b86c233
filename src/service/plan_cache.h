// PlanCache: warm compiled SimPlans for the prediction service.
//
// A TraceSession answers repeated what-if queries against one profiled trace;
// the expensive step per query is freezing the transformed graph into a
// SimPlan (CSR compile: ~100 ms at cluster scale). The cache keys plans on
// the transformed graph's DependencyGraph::structure_stamp(), so a repeated
// query is a lookup + plan dispatch instead of a recompile. Timing-only
// what-ifs (AMP-style duration edits) share the baseline structure stamp —
// their plans differ only in the SoA timing arrays — so the key carries the
// request signature as a second component to keep timing variants of one
// structure apart. The stamp is what *invalidation* checks: structural
// mutation bumps it, making every cached plan for the old stamp unreachable.
//
// Bounded LRU with hit/miss/eviction/retime/compile counters; all entry
// points are thread-safe (the RequestExecutor hits one cache from many
// client threads).
#ifndef SRC_SERVICE_PLAN_CACHE_H_
#define SRC_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/sim_plan.h"

namespace daydream {

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // How the misses were filled: Retime over a donor structure block
  // (timing-only what-ifs) vs a full CSR compile.
  uint64_t retimes = 0;
  uint64_t compiles = 0;
};

class PlanCache {
 public:
  struct Key {
    uint64_t stamp = 0;       // transformed graph's structure_stamp()
    std::string signature;    // canonical what-if signature; disambiguates
                              // timing variants over one shared structure
    bool operator==(const Key& other) const = default;
  };

  explicit PlanCache(size_t capacity = 64);

  // Counts a hit or a miss; nullptr on miss.
  std::shared_ptr<const SimPlan> Get(const Key& key);

  // Inserts (or refreshes) a plan, evicting the least-recently-used entry
  // past capacity. `retimed` records how the miss was filled (stats only).
  void Put(const Key& key, std::shared_ptr<const SimPlan> plan, bool retimed);

  // Drops one plan — the session's hook when it evicts the transformed graph
  // the plan was compiled from. Counts as an eviction when the key was
  // cached.
  void Erase(const Key& key);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  // Most-recent first; Entry pairs the key back so eviction can erase from
  // the index.
  using LruList = std::list<std::pair<Key, std::shared_ptr<const SimPlan>>>;

  const size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  PlanCacheStats stats_;
};

}  // namespace daydream

#endif  // SRC_SERVICE_PLAN_CACHE_H_
