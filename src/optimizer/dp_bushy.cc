#include "optimizer/dp_bushy.h"

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/flat_map.h"
#include "common/stopwatch.h"
#include "optimizer/plan_validator.h"

namespace parqo {
namespace {

class DpBushy {
 public:
  DpBushy(const OptimizerInputs& inputs, const OptimizeOptions& options)
      : inputs_(inputs),
        jg_(*inputs.join_graph),
        local_index_(*inputs.local_index),
        builder_(*inputs.estimator, CostModel(options.cost_params)),
        deadline_(options.deadline),
        validate_(options.validate) {}

  OptimizeResult Run() {
    Stopwatch watch;
    const PlanCandidate* plan = BestPlan(jg_.AllTps());
    if (validate_ && plan != nullptr) {
      // Same memo contract as the TD-CMD family: only connected,
      // correctly costed subplans keyed by exactly their pattern set.
      // Candidates are materialized one at a time for the validator.
      PlanValidator validator(jg_, &local_index_, inputs_.estimator,
                              &builder_.cost_model());
      memo_.ForEach([&](TpSet q, const PlanCandidate* entry) {
        PARQO_CHECK(entry != nullptr);
        PARQO_CHECK_OK(validator.ValidateMemoEntry(q, *MaterializePlan(*entry)));
      });
    }
    OptimizeResult result;
    // A stopped run keeps the best complete plan: a candidate enters
    // `best` only after all its children derived before the stop.
    result.plan = plan == nullptr ? nullptr : MaterializePlan(*plan);
    result.seconds = watch.ElapsedSeconds();
    result.enumerated = ops_enumerated_;
    result.timed_out = aborted_;
    result.algorithm_used = Algorithm::kDpBushy;
    return result;
  }

 private:
  /// The first call and every 4096th after it probe the deadline. True
  /// once the run is stopped.
  bool Stopped() {
    if (!aborted_ && (probe_++ & 0xfff) == 0) aborted_ = deadline_.Expired();
    return aborted_;
  }

  // The maximal multi-way division: one part per pattern adjacent to the
  // highest-degree join variable, with the non-adjacent remainder pieces
  // attached to a neighboring part (first fit).
  bool MaximalDivision(TpSet q, VarId* var_out,
                       std::vector<TpSet>* parts_out) {
    VarId best_var = kInvalidVarId;
    int best_degree = 0;
    for (VarId v : jg_.join_vars()) {
      int d = jg_.Degree(v, q);
      if (d > best_degree) {
        best_degree = d;
        best_var = v;
      }
    }
    if (best_degree < 3) return false;  // binary splits already cover k=2

    TpSet neighbors = jg_.Ntp(best_var) & q;
    std::vector<TpSet>& parts = *parts_out;
    parts.clear();
    for (int tp : neighbors) parts.push_back(TpSet::Singleton(tp));
    jg_.ComponentsExcluding(q, best_var, &comps_scratch_);
    for (TpSet comp : comps_scratch_) {
      TpSet remainder = comp - neighbors;
      jg_.ComponentsExcluding(remainder, best_var, &pieces_scratch_);
      for (TpSet piece : pieces_scratch_) {
        TpSet adj = jg_.NeighborsOf(piece) & neighbors;
        if (adj.Empty()) return false;  // piece only reachable via v*
        // Attach to the first adjacent seed part.
        for (TpSet& part : parts) {
          if (part.Intersects(adj)) {
            part |= piece;
            break;
          }
        }
      }
    }
    *var_out = best_var;
    return true;
  }

  const PlanCandidate* BestPlan(TpSet q) {
    if (const PlanCandidate* const* hit = memo_.Find(q)) return *hit;
    const PlanCandidate* best = Generate(q);
    if (!aborted_) memo_.EmplaceFirstWins(q, best);
    return best;
  }

  const PlanCandidate* Generate(TpSet q) {
    if (q.Count() == 1) return builder_.ScanIn(arena_, q.First());
    if (local_index_.IsLocal(q)) {
      // Local subqueries are pushed down to the store as one local join.
      return builder_.LocalJoinAllIn(arena_, q);
    }

    const PlanCandidate* best = nullptr;
    auto consider = [&](JoinMethod method, VarId var,
                        std::span<const PlanCandidate* const> children) {
      const PlanCandidate* cand =
          builder_.JoinIn(arena_, method, var, children);
      if (best == nullptr || cand->total_cost < best->total_cost) {
        best = cand;
      }
    };

    // (a) Every binary split — generate first, check connectivity and
    // Cartesian-freeness afterwards (the inefficiency the paper analyzes).
    const std::uint64_t bits = q.bits();
    const std::uint64_t low = bits & (~bits + 1);  // anchor the lowest bit
    for (std::uint64_t sub = (bits - 1) & bits; sub != 0;
         sub = (sub - 1) & bits) {
      if (Stopped()) return best;
      if ((sub & low) == 0) continue;  // canonical half only
      TpSet left(sub);
      TpSet right = q - left;
      if (right.Empty()) continue;
      // Post-hoc checks:
      if (!jg_.IsConnected(left) || !jg_.IsConnected(right)) continue;
      std::vector<VarId> shared = jg_.SharedJoinVars(left, right);
      if (shared.empty()) continue;  // Cartesian product; discard
      ++ops_enumerated_;
      const PlanCandidate* children[2] = {BestPlan(left), BestPlan(right)};
      if (aborted_) return best;
      consider(JoinMethod::kBroadcast, shared[0], children);
      consider(JoinMethod::kRepartition, shared[0], children);
    }

    // (b) The one maximal multi-way join.
    VarId var;
    std::vector<TpSet> parts;
    if (MaximalDivision(q, &var, &parts)) {
      ++ops_enumerated_;
      const PlanCandidate* children[TpSet::kMaxSize];
      std::size_t n = 0;
      for (TpSet part : parts) {
        children[n++] = BestPlan(part);
        if (aborted_) return best;
      }
      std::span<const PlanCandidate* const> span(children, n);
      consider(JoinMethod::kBroadcast, var, span);
      consider(JoinMethod::kRepartition, var, span);
    }
    return best;
  }

  const OptimizerInputs& inputs_;
  const JoinGraph& jg_;
  const LocalQueryIndex& local_index_;
  PlanBuilder builder_;
  Deadline deadline_;
  bool validate_ = false;

  std::uint64_t probe_ = 0;
  std::uint64_t ops_enumerated_ = 0;
  bool aborted_ = false;
  /// All candidates live here; only the winner is materialized at the end.
  Arena arena_;
  FlatTpSetMap<const PlanCandidate*> memo_;
  std::vector<TpSet> comps_scratch_;
  std::vector<TpSet> pieces_scratch_;
};

}  // namespace

OptimizeResult RunDpBushy(const OptimizerInputs& inputs,
                          const OptimizeOptions& options) {
  return DpBushy(inputs, options).Run();
}

}  // namespace parqo
