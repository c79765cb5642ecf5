// Top-down join enumeration with memoization — Algorithm 1 of the paper.
//
// GetBestPlan recursively finds the cheapest k-ary bushy plan of a
// (sub)query: it enumerates the connected multi-divisions (each cmd is one
// candidate k-way join), recursively optimizes every part, builds broadcast
// and repartition variants of the operator, and keeps the cheapest plan in
// a memo table keyed by the subquery bitset. Local queries additionally get
// the single-operator local-join plan (line 10); with Rule 3 (TD-CMDP) the
// local plan short-circuits the enumeration entirely. With the cost bound
// (TdCmdRules::cost_bound) a division is costed from its parts' estimated
// cardinalities before any part is optimized, and skipped when that
// operator alone costs at least the best plan so far.
//
// The core is a template over the Graph concept (JoinGraph or
// GroupedJoinGraph) and over the three hook functors mapping graph elements
// to plans, which is what lets the identical code drive TD-CMD, TD-CMDP,
// and the reduced-graph phase of HGR-TD-CMD — and, with relations instead
// of triple patterns, relational multi-way join ordering. The hooks are
// template parameters (not std::function) so the hottest recursion makes
// direct calls; construct with CTAD: `TdCmdCore core(graph, builder, ...)`.
//
// Memory management (DESIGN.md §12): enumeration constructs candidates,
// not shared plan nodes. Every subplan is a PlanCandidate allocated from a
// bump-pointer Arena via the arena-taking hooks and PlanBuilder::JoinIn,
// the memo is a flat open-addressed FlatTpSetMap storing raw candidate
// pointers, and only the winning root candidate is deep-copied
// into the PlanNodePtr representation the rest of the system consumes.
// Losing candidates are never freed individually; they die wholesale with
// the core's arena. Nothing is reset between runs — a repeated Run() keeps
// its warm memo, whose entries point into the arena.
//
// The enumeration is single-threaded. Parallelism lives across queries
// (QueryServer::ServeConcurrent) and in the executor, never inside one
// enumeration.

#ifndef PARQO_OPTIMIZER_TD_CMD_CORE_H_
#define PARQO_OPTIMIZER_TD_CMD_CORE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/flat_map.h"
#include "common/scratch_pool.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/tp_set.h"
#include "optimizer/cmd_enumerator.h"
#include "optimizer/plan_validator.h"
#include "plan/plan.h"

namespace parqo {

/// Search-space knobs. TD-CMD uses the defaults; TD-CMDP enables all three
/// pruning rules of Section IV-A.
struct TdCmdRules {
  CmdMode cmd_mode = CmdMode::kAll;   ///< Rule 1 when kCcmdAndBinary.
  bool binary_broadcast_only = false; ///< Rule 2.
  bool local_short_circuit = false;   ///< Rule 3.
  /// Cost bound (DESIGN.md §6): skip, without optimizing its parts, every
  /// division whose cheapest join operator alone already costs at least
  /// the subquery's best plan so far. Unlike Rules 1-3 it loses nothing:
  /// every memo entry and the chosen plan are bit-identical to the
  /// unbounded search. It does shrink the enumerated count, so TD-Auto
  /// sets it while TD-CMD, TD-CMDP and HGR-TD-CMD run as the paper
  /// defines them (Table VII, Eq. 7-9).
  bool cost_bound = false;
  /// Mid-run invariant validation (OptimizeOptions::validate): every
  /// enumerated division is checked against the Definition 3 contract and
  /// every candidate operator's cost against finiteness and the
  /// "memoized best is cheapest" invariant. Violations abort.
  bool validate = false;
};

/// Memo-table ceiling: a backstop against exhausting memory on huge dense
/// queries before the deadline fires. It stops a run exactly like the
/// deadline does. ~4M entries is a few hundred MB of plans.
inline constexpr std::size_t kMemoCap = std::size_t{1} << 22;

struct TdCmdStats {
  std::uint64_t enumerated_cmds = 0;  ///< Table VII's search-space size.
  std::uint64_t memo_entries = 0;
  std::uint64_t memo_hits = 0;    ///< Subproblems answered from the memo.
  std::uint64_t memo_misses = 0;  ///< Subproblems derived fresh.
  /// Rule-3 short circuits: local subqueries whose cmd enumeration was
  /// skipped entirely (each one prunes a whole subtree of the search).
  std::uint64_t local_short_circuits = 0;
  /// Divisions the cost bound skipped. They were enumerated, so they
  /// count in enumerated_cmds too; only their parts went unoptimized.
  std::uint64_t bound_pruned = 0;
  /// The deadline or kMemoCap stopped the run before it finished.
  bool stopped = false;
};

template <typename Graph, typename LeafPlanFn, typename IsLocalFn,
          typename LocalPlanFn>
class TdCmdCore {
 public:
  /// `leaf_plan(arena, i)` supplies the candidate plan of single relation
  /// i, allocated in `arena`. `is_local(s)` answers whether relation set s
  /// is a local query, and `local_plan(arena, s)` builds its one-operator
  /// local candidate (|s| >= 2).
  TdCmdCore(const Graph& graph, const PlanBuilder& builder, TdCmdRules rules,
            LeafPlanFn leaf_plan, IsLocalFn is_local, LocalPlanFn local_plan,
            Deadline deadline = Deadline::Infinite())
      : graph_(graph),
        builder_(builder),
        rules_(rules),
        leaf_plan_(std::move(leaf_plan)),
        is_local_(std::move(is_local)),
        local_plan_(std::move(local_plan)),
        deadline_(deadline) {}

  /// Optimizes the full query. A stopped run (stats().stopped) returns the
  /// best complete plan found so far, or nullptr when none completed.
  /// Candidates only ever enter a subquery's best after all its children
  /// derived cleanly (the enumeration loop re-probes Aborted() after
  /// every child), so a kept plan is always complete and correctly costed.
  PlanNodePtr Run() {
    // Deliberately keeps the memo and the arena: a repeated run reuses the
    // warm memo, whose entries point into the arena.
    stats_ = TdCmdStats{};
    probe_ = 0;
    const PlanCandidate* plan =
        GetBestPlan(graph_.AllTps(), /*is_local=*/false);
    stats_.memo_entries = memo_.size();
    if (plan == nullptr) return nullptr;
    return MaterializePlan(*plan);
  }

  const TdCmdStats& stats() const { return stats_; }

  /// Post-run inspection of the memo, for OptimizeOptions::validate wiring
  /// and tests. Each candidate entry is materialized into a fresh
  /// PlanNodePtr for the visitor — this is the validation cold path, never
  /// enumeration.
  template <typename Fn>
  void ForEachMemoEntry(Fn&& fn) const {
    memo_.ForEach([&](TpSet q, const PlanCandidate* plan) {
      fn(q, plan != nullptr ? MaterializePlan(*plan) : nullptr);
    });
  }

 private:
  bool Aborted() const { return stats_.stopped; }

  /// The first call and every 1024th after it probe the deadline and the
  /// memo cap, so an already-expired deadline stops the first division.
  /// False once the run is stopped.
  bool CheckDeadline() {
    if (stats_.stopped) return false;
    if ((probe_++ & 0x3ff) == 0) {
      stats_.stopped = deadline_.Expired() || memo_.size() > kMemoCap;
    }
    return !stats_.stopped;
  }

  const PlanCandidate* GetBestPlan(TpSet q, bool is_local) {
    if (const PlanCandidate* const* hit = memo_.Find(q)) {
      ++stats_.memo_hits;
      return *hit;
    }
    ++stats_.memo_misses;
    if (!is_local) is_local = is_local_(q);
    const PlanCandidate* plan = BestPlanGen(q, is_local);
    if (!Aborted()) memo_.EmplaceFirstWins(q, plan);
    return plan;
  }

  const PlanCandidate* BestPlanGen(TpSet q, bool is_local) {
    if (q.Count() == 1) return leaf_plan_(arena_, q.First());

    const PlanCandidate* best = nullptr;
    if (is_local) {
      best = local_plan_(arena_, q);
      if (rules_.local_short_circuit) {  // Rule 3
        ++stats_.local_short_circuits;
        return best;
      }
    }

    // Cost bound: C_join of each method depends on the subquery's output
    // only, so it is computed once here rather than per division.
    double compute_broadcast = 0;
    double compute_repartition = 0;
    if (rules_.cost_bound) {
      const double out_card =
          builder_.estimator().Cardinality(graph_.ExpandTps(q));
      const CostModel& cost_model = builder_.cost_model();
      compute_broadcast =
          cost_model.ComputeCost(JoinMethod::kBroadcast, out_card);
      compute_repartition =
          cost_model.ComputeCost(JoinMethod::kRepartition, out_card);
    }

    double min_candidate = std::numeric_limits<double>::infinity();
    double lower_bound = 0;  // the cost bound of the current division
    auto consider = [&](const PlanCandidate* cand) {
      if (rules_.validate) {
        PARQO_CHECK(std::isfinite(cand->total_cost) &&
                    cand->total_cost >= 0);
        // Exactness of the cost bound: it never exceeds what it bounds.
        PARQO_CHECK(cand->total_cost >= lower_bound);
        min_candidate = std::min(min_candidate, cand->total_cost);
      }
      if (best == nullptr || cand->total_cost < best->total_cost) {
        best = cand;
      }
    };

    typename ScratchPool<const PlanCandidate*>::Lease children(
        children_pool_);
    EnumerateCmds(
        graph_, q, rules_.cmd_mode,
        [&](std::span<const TpSet> parts, VarId vj) {
          ++stats_.enumerated_cmds;
          if (!CheckDeadline()) return false;
          if (rules_.validate) {
            PARQO_CHECK_OK(ValidateDivision(graph_, q, parts, vj));
          }

          bool broadcast_ok =
              !rules_.binary_broadcast_only || parts.size() == 2;  // Rule 2
          children->clear();
          if (rules_.cost_bound && best != nullptr) {
            lower_bound =
                LowerBound(parts, broadcast_ok, compute_broadcast,
                           compute_repartition, children.get());
            if (lower_bound >= best->total_cost) {
              ++stats_.bound_pruned;
              return true;
            }
          } else {
            lower_bound = 0;
            children->assign(parts.size(), nullptr);
          }
          for (std::size_t i = 0; i < parts.size(); ++i) {
            const PlanCandidate*& child = (*children)[i];
            if (child != nullptr) {
              ++stats_.memo_hits;  // found by LowerBound
              continue;
            }
            child = GetBestPlan(parts[i], is_local);
            if (Aborted()) return false;
          }
          // Line 15-19: try each distributed join algorithm on this cmd.
          if (broadcast_ok) {
            consider(builder_.JoinIn(arena_, JoinMethod::kBroadcast, vj,
                                     *children));
          }
          consider(builder_.JoinIn(arena_, JoinMethod::kRepartition, vj,
                                   *children));
          return true;
        },
        &enum_scratch_);
    if (rules_.validate && best != nullptr && !Aborted()) {
      // The plan this subquery memoizes must be no worse than every
      // alternative recorded during its enumeration.
      PARQO_CHECK(best->total_cost <= min_candidate);
    }
    return best;
  }

  /// The cost bound: a lower bound on the total cost of every candidate
  /// over `parts`. Each part's estimated cardinality is read from its
  /// memoized plan, or else from the estimator (ExpandTps maps a memo key
  /// to the patterns it covers: group sets under HGR), and the cheapest
  /// allowed method is costed by the CostModel arithmetic JoinIn applies
  /// to the same inputs, so the result never exceeds a candidate's
  /// op_cost. Memoized parts also add their exact totals as Eq. 3's child
  /// term: fl(max + op) is monotone in both. `children` receives the
  /// memoized part plans (nullptr where a part is not memoized yet).
  double LowerBound(std::span<const TpSet> parts, bool broadcast_ok,
                    double compute_broadcast, double compute_repartition,
                    std::vector<const PlanCandidate*>* children) const {
    const CardinalityEstimator& estimator = builder_.estimator();
    double sum = 0;
    double max = 0;
    double max_known_total = 0;
    for (TpSet part : parts) {
      const PlanCandidate* const* hit = memo_.Find(part);
      const PlanCandidate* child = hit != nullptr ? *hit : nullptr;
      children->push_back(child);
      double card;
      if (child != nullptr) {
        card = child->cardinality;
        max_known_total = std::max(max_known_total, child->total_cost);
      } else {
        card = estimator.Cardinality(graph_.ExpandTps(part));
      }
      sum += card;
      max = std::max(max, card);
    }
    const CostModel& cost_model = builder_.cost_model();
    double op =
        cost_model.InputCost(JoinMethod::kRepartition, sum, max) +
        compute_repartition;
    if (broadcast_ok) {
      op = std::min(op, cost_model.InputCost(JoinMethod::kBroadcast, sum,
                                             max) +
                            compute_broadcast);
    }
    return max_known_total + op;
  }

  const Graph& graph_;
  const PlanBuilder& builder_;
  TdCmdRules rules_;
  LeafPlanFn leaf_plan_;
  IsLocalFn is_local_;
  LocalPlanFn local_plan_;
  Deadline deadline_;

  /// Counters and the stop flag of the current run.
  TdCmdStats stats_;
  std::uint64_t probe_ = 0;  ///< CheckDeadline calls this run.
  Arena arena_;
  FlatTpSetMap<const PlanCandidate*> memo_;
  CmdEnumScratch enum_scratch_;
  /// Depth-indexed reusable child-plan vectors for BestPlanGen's
  /// recursion (one live vector per recursion level).
  ScratchPool<const PlanCandidate*> children_pool_;
};

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_TD_CMD_CORE_H_
