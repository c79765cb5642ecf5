#include "optimizer/msc.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/stopwatch.h"

namespace parqo {
namespace {

// One relation at the current plan level.
struct Relation {
  TpSet tps;        // base patterns covered
  PlanNodePtr plan; // subplan producing it
};

// Mask over the current level's relation indexes.
using RelMask = TpSet;

struct Clique {
  VarId var;
  RelMask rels;
};

class MscSearch {
 public:
  MscSearch(const OptimizerInputs& inputs, const OptimizeOptions& options)
      : jg_(*inputs.join_graph),
        local_index_(*inputs.local_index),
        builder_(*inputs.estimator, CostModel(options.cost_params)),
        options_(options) {}

  OptimizeResult Run() {
    Stopwatch watch;
    std::vector<Relation> initial;
    initial.reserve(jg_.num_tps());
    for (int tp = 0; tp < jg_.num_tps(); ++tp) {
      initial.push_back(Relation{TpSet::Singleton(tp), builder_.Scan(tp)});
    }
    RecurseLevels(initial);
    OptimizeResult result;
    result.plan = best_;
    result.seconds = watch.ElapsedSeconds();
    result.enumerated = plans_enumerated_;
    result.timed_out = aborted_;
    result.algorithm_used = Algorithm::kMsc;
    return result;
  }

 private:
  // Stop probe, run between enumeration steps: the deadline or the plan
  // cap. MSC keeps the best complete flat plan found so far, so a stop
  // still yields a valid plan once the first cover completes (O(|E|)
  // work).
  bool Aborting() {
    if (!aborted_) {
      aborted_ = options_.deadline.Expired() ||
                 plans_enumerated_ >= options_.msc_plan_cap;
    }
    return aborted_;
  }

  // The variable cliques of the current relations: one clique per join
  // variable still shared by >= 2 relations. Identical relation sets are
  // merged (they would produce the same join).
  std::vector<Clique> BuildCliques(const std::vector<Relation>& rels) {
    std::vector<Clique> cliques;
    for (VarId v : jg_.join_vars()) {
      RelMask mask;
      for (std::size_t i = 0; i < rels.size(); ++i) {
        if (jg_.Ntp(v).Intersects(rels[i].tps)) {
          mask.Add(static_cast<int>(i));
        }
      }
      if (mask.Count() >= 2) {
        bool dup = false;
        for (const Clique& c : cliques) {
          if (c.rels == mask) {
            dup = true;
            break;
          }
        }
        if (!dup) cliques.push_back(Clique{v, mask});
      }
    }
    return cliques;
  }

  // Enumerates every cover of `universe` by `cliques` with exactly `limit`
  // sets, deduplicated; calls `found` with the chosen clique indexes.
  template <typename FoundFn>
  void EnumerateCovers(const std::vector<Clique>& cliques, RelMask universe,
                       int limit, FoundFn&& found) {
    std::vector<int> chosen;
    std::unordered_set<std::uint64_t> seen;
    EnumerateCoversRec(cliques, universe, limit, &chosen, &seen, found);
  }

  template <typename FoundFn>
  void EnumerateCoversRec(const std::vector<Clique>& cliques,
                          RelMask uncovered, int remaining,
                          std::vector<int>* chosen,
                          std::unordered_set<std::uint64_t>* seen,
                          FoundFn&& found) {
    if (Aborting()) return;
    if (uncovered.Empty()) {
      // Canonical signature: sorted clique indexes packed 8 bits each
      // (levels never need more than 8 cliques at 64 relations... they can,
      // so hash the sorted vector instead).
      std::vector<int> sig = *chosen;
      std::sort(sig.begin(), sig.end());
      std::uint64_t h = 1469598103934665603ULL;
      for (int idx : sig) {
        h ^= static_cast<std::uint64_t>(idx) + 1;
        h *= 1099511628211ULL;
      }
      if (seen->insert(h).second) found(sig);
      return;
    }
    if (remaining == 0) return;
    // Branch on the lowest uncovered relation: some chosen clique must
    // contain it.
    int r = uncovered.First();
    for (std::size_t i = 0; i < cliques.size(); ++i) {
      if (!cliques[i].rels.Contains(r)) continue;
      chosen->push_back(static_cast<int>(i));
      EnumerateCoversRec(cliques, uncovered - cliques[i].rels,
                         remaining - 1, chosen, seen, found);
      chosen->pop_back();
    }
  }

  // Builds the next level for one cover and recurses.
  void ApplyCover(const std::vector<Relation>& rels,
                  const std::vector<Clique>& cliques,
                  const std::vector<int>& cover) {
    // Assign each relation to the first clique of the cover containing it.
    std::vector<Relation> next;
    RelMask assigned;
    for (int ci : cover) {
      std::vector<PlanNodePtr> children;
      TpSet tps;
      bool all_scans = true;
      RelMask members = cliques[ci].rels - assigned;
      if (members.Empty()) continue;  // fully claimed by earlier cliques
      for (int r : members) {
        children.push_back(rels[r].plan);
        tps |= rels[r].tps;
        if (rels[r].plan->kind != PlanNode::Kind::kScan) all_scans = false;
      }
      assigned |= members;
      if (children.size() == 1) {
        next.push_back(Relation{tps, children[0]});
        continue;
      }
      // Base-level joins over co-located data are local; everything else
      // reshuffles (flat plans never broadcast).
      JoinMethod method = (all_scans && local_index_.IsLocal(tps))
                              ? JoinMethod::kLocal
                              : JoinMethod::kRepartition;
      VarId jv =
          method == JoinMethod::kLocal ? kInvalidVarId : cliques[ci].var;
      next.push_back(Relation{tps, builder_.Join(method, jv, children)});
    }
    RecurseLevels(next);
  }

  void RecurseLevels(const std::vector<Relation>& rels) {
    if (Aborting()) return;
    if (rels.size() == 1) {
      ++plans_enumerated_;
      if (!best_ || rels[0].plan->total_cost < best_->total_cost) {
        best_ = rels[0].plan;
      }
      return;
    }
    std::vector<Clique> cliques = BuildCliques(rels);
    if (cliques.empty()) return;  // disconnected residue; dead end

    RelMask universe = TpSet::FullSet(static_cast<int>(rels.size()));
    // Iterative deepening to the minimum cover size, then enumerate all
    // covers of that size. This is the expensive exact MSC step.
    for (int limit = 1; limit <= static_cast<int>(cliques.size());
         ++limit) {
      bool any = false;
      EnumerateCovers(cliques, universe, limit,
                      [&](const std::vector<int>& cover) {
                        any = true;
                        ApplyCover(rels, cliques, cover);
                      });
      if (any || Aborting()) break;
    }
  }

  const JoinGraph& jg_;
  const LocalQueryIndex& local_index_;
  PlanBuilder builder_;
  OptimizeOptions options_;

  PlanNodePtr best_;
  std::uint64_t plans_enumerated_ = 0;
  bool aborted_ = false;
};

}  // namespace

OptimizeResult RunMsc(const OptimizerInputs& inputs,
                      const OptimizeOptions& options) {
  return MscSearch(inputs, options).Run();
}

}  // namespace parqo
