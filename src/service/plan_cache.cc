#include "src/service/plan_cache.h"

#include <algorithm>
#include <functional>

#include "src/util/fault.h"

namespace daydream {

size_t PlanCache::KeyHash::operator()(const Key& key) const {
  size_t seed = std::hash<uint64_t>{}(key.stamp);
  auto mix = [&seed](size_t h) {
    seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  };
  mix(std::hash<std::string>{}(key.signature));
  return seed;
}

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

std::shared_ptr<const SimPlan> PlanCache::Get(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to most-recent
  return it->second->second;
}

void PlanCache::Put(const Key& key, std::shared_ptr<const SimPlan> plan, bool retimed) {
  // Fault site: a failed insert degrades gracefully — the request that built
  // the plan still answers from its local copy, the cache just stays cold.
  if (FaultInjector::Global().ShouldFail("plan_cache_insert")) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (retimed) {
    ++stats_.retimes;
  } else {
    ++stats_.compiles;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent builder raced us to the same key; keep the newest plan.
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(plan));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PlanCache::Erase(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.evictions;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace daydream
