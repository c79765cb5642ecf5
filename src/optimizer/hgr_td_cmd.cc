#include "optimizer/hgr_td_cmd.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "optimizer/grouped_graph.h"
#include "optimizer/join_graph_reduction.h"
#include "optimizer/plan_validator.h"
#include "optimizer/td_cmd.h"
#include "optimizer/td_cmd_core.h"

namespace parqo {
namespace {

// Candidate-generation cap: connected subqueries enumerated per maximal
// local query (see join_graph_reduction.h).
constexpr int kCandidateCap = 4096;

}  // namespace

OptimizeResult RunHgrTdCmd(const OptimizerInputs& inputs,
                           const OptimizeOptions& options,
                           const TdCmdRules& rules) {
  const JoinGraph& jg = *inputs.join_graph;
  PlanBuilder builder(*inputs.estimator, CostModel(options.cost_params));
  Stopwatch watch;

  OptimizeResult result;
  result.algorithm_used = Algorithm::kHgrTdCmd;

  JgrResult jgr = ReduceJoinGraph(jg, *inputs.local_index, *inputs.estimator,
                                  kCandidateCap);

  if (jgr.groups.size() == 1) {
    // The whole query is one local query (e.g. under Path-BMC).
    TpSet group = jgr.groups[0];
    result.plan =
        group.Count() == 1
            // parqo-lint: allow(shared-plan-hot-path) cold: one node, once
            ? builder.Scan(group.First())
            // parqo-lint: allow(shared-plan-hot-path) cold: one node, once
            : builder.LocalJoinAll(group);
    result.seconds = watch.ElapsedSeconds();
    return result;
  }

  // A leaf of the reduced graph is either a raw pattern scan or the
  // one-operator local join of a whole group.
  auto group_leaf = [&](Arena& arena, TpSet group) -> const PlanCandidate* {
    if (group.Count() == 1) return builder.ScanIn(arena, group.First());
    return builder.LocalJoinAllIn(arena, group);
  };

  GroupedJoinGraph grouped(jg, jgr.groups);
  TdCmdRules run_rules = rules;
  run_rules.validate = options.validate;
  TdCmdCore core(
      grouped, builder, run_rules,
      /*leaf_plan=*/
      [&](Arena& arena, int rel) {
        return group_leaf(arena, grouped.GroupTps(rel));
      },
      /*is_local=*/
      [&](TpSet rels) {
        return inputs.local_index->IsLocal(grouped.ExpandTps(rels));
      },
      /*local_plan=*/
      [&](Arena& arena, TpSet rels) {
        return builder.LocalJoinAllIn(arena, grouped.ExpandTps(rels));
      },
      options.deadline);
  result.plan = core.Run();

  if (options.validate && result.plan != nullptr) {
    // Memo keys live in group space; the stored plans cover base
    // patterns, so expand each key before checking the entry.
    PlanValidator validator(jg, inputs.local_index, inputs.estimator,
                            &builder.cost_model());
    core.ForEachMemoEntry([&](TpSet rels, const PlanNodePtr& entry) {
      PARQO_CHECK(entry != nullptr);
      PARQO_CHECK_OK(
          validator.ValidateMemoEntry(grouped.ExpandTps(rels), *entry));
    });
  }

  result.seconds = watch.ElapsedSeconds();
  CopyStats(core.stats(), &result);
  return result;
}

}  // namespace parqo
