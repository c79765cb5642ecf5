#include "server/plan_cache.h"

#include <algorithm>
#include <functional>

namespace parqo {

PlanCache::PlanCache(int num_shards, std::size_t shard_capacity)
    : shard_capacity_(std::max<std::size_t>(1, shard_capacity)) {
  num_shards = std::max(1, num_shards);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  std::size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::optional<CachedPlan> PlanCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::optional<CachedPlan> out;
  {
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      // Copy while the lock pins the entry: the caller's shared_ptr
      // keeps the plan alive through any concurrent eviction.
      out = it->second->second;
    }
  }
  (out ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return out;
}

void PlanCache::Insert(const std::string& key, CachedPlan plan) {
  Shard& shard = ShardFor(key);
  std::uint64_t evicted = 0;
  {
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(plan);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.emplace_front(key, std::move(plan));
      shard.index.emplace(key, shard.lru.begin());
      evicted = EvictExcessLocked(shard);
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

std::uint64_t PlanCache::EvictExcessLocked(Shard& shard) {
  std::uint64_t evicted = 0;
  while (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++evicted;
  }
  return evicted;
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace parqo
