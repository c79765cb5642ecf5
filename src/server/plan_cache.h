// Sharded LRU plan cache for the serving layer (DESIGN.md section 14).
// Keys are canonical BGP signatures combined with the partitioning scheme
// — a plan's shape depends on the maximal-local-query structure, so the
// same query under hash-by-subject and METIS partitioning must occupy two
// entries.
//
// Concurrency contract: every operation copies the entry *under the shard
// lock* and returns it by value (the plan itself is a shared_ptr<const
// PlanNode>, so the copy is one refcount bump). A reader can therefore
// never observe a dangling plan, no matter how aggressively a concurrent
// hot shard evicts — eviction drops the cache's reference, not the
// reader's. There is deliberately no Lookup returning a pointer into the
// shard.

#ifndef PARQO_SERVER_PLAN_CACHE_H_
#define PARQO_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"

namespace parqo {

/// One cached optimization result, stored in canonical pattern/VarId
/// space (see server/signature.h).
struct CachedPlan {
  PlanNodePtr plan;
  double plan_cost = 0;
  Algorithm algorithm_used = Algorithm::kTdAuto;
  /// The optimizer's deadline expired (or it fell back to MSC), so this
  /// plan is best-effort, not the space's optimum. Kept usable — a
  /// degraded plan still beats re-optimizing under pressure — but flagged
  /// so an unhurried request re-optimizes and upgrades the entry instead
  /// of being poisoned by it.
  bool degraded = false;
};

class PlanCache {
 public:
  /// `num_shards` clamps to >= 1; `shard_capacity` is the per-shard entry
  /// cap (total capacity = num_shards * shard_capacity, clamps to >= 1).
  PlanCache(int num_shards, std::size_t shard_capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Cache key for a canonical signature under a partitioning scheme.
  static std::string MakeKey(const std::string& signature,
                             const std::string& partitioning) {
    return partitioning + "\n" + signature;
  }

  /// Copy-out lookup: returns the entry by value (plan shared) and marks
  /// it most-recently-used, or nullopt on a miss.
  std::optional<CachedPlan> Lookup(const std::string& key);

  /// Inserts or overwrites (the overwrite path is how a degraded entry is
  /// upgraded) and marks the entry most-recently-used; evicts from the
  /// shard's cold end past capacity.
  void Insert(const std::string& key, CachedPlan plan);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t size() const;

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    /// Leaf in practice: held only for the map/list surgery, never across
    /// counter updates or the optimizer. size() locks the shards one at a
    /// time (sequentially, never nested), which a same-rank hierarchy
    /// permits because at most one shard lock is ever held.
    Mutex mu{LockRank::kCacheShard};
    /// Front = most recently used. The map indexes into the list.
    std::list<std::pair<std::string, CachedPlan>> lru PARQO_GUARDED_BY(mu);
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, CachedPlan>>::iterator>
        index PARQO_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);

  /// Pops cold entries until the shard is back under shard_capacity_;
  /// returns how many were dropped.
  std::uint64_t EvictExcessLocked(Shard& shard) PARQO_REQUIRES(shard.mu);

  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The cache's only counts, read through hits()/misses()/inserts()/
  /// evictions().
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace parqo

#endif  // PARQO_SERVER_PLAN_CACHE_H_
