#include "optimizer/td_cmd.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "optimizer/plan_validator.h"
#include "optimizer/td_cmd_core.h"

namespace parqo {

TdCmdRules PaperRules(bool pruned) {
  TdCmdRules rules;
  if (pruned) {
    rules.cmd_mode = CmdMode::kCcmdAndBinary;
    rules.binary_broadcast_only = true;
    rules.local_short_circuit = true;
  }
  return rules;
}

void CopyStats(const TdCmdStats& stats, OptimizeResult* result) {
  result->enumerated = stats.enumerated_cmds;
  result->timed_out = stats.stopped;
  result->memo_entries = stats.memo_entries;
  result->memo_hits = stats.memo_hits;
  result->memo_misses = stats.memo_misses;
  result->local_short_circuits = stats.local_short_circuits;
  result->bound_pruned = stats.bound_pruned;
}

OptimizeResult RunTdCmd(const OptimizerInputs& inputs,
                        const OptimizeOptions& options, bool pruned) {
  OptimizeResult result =
      RunTdCmdWithRules(inputs, options, PaperRules(pruned));
  result.algorithm_used = pruned ? Algorithm::kTdCmdp : Algorithm::kTdCmd;
  return result;
}

OptimizeResult RunTdCmdWithRules(const OptimizerInputs& inputs,
                                 const OptimizeOptions& options,
                                 const TdCmdRules& rules) {
  const JoinGraph& jg = *inputs.join_graph;
  PlanBuilder builder(*inputs.estimator, CostModel(options.cost_params));

  Stopwatch watch;
  TdCmdRules run_rules = rules;
  run_rules.validate = options.validate;
  TdCmdCore core(
      jg, builder, run_rules,
      /*leaf_plan=*/
      [&](Arena& arena, int tp) { return builder.ScanIn(arena, tp); },
      /*is_local=*/
      [&](TpSet q) { return inputs.local_index->IsLocal(q); },
      /*local_plan=*/
      [&](Arena& arena, TpSet q) {
        return builder.LocalJoinAllIn(arena, q);
      },
      options.deadline);
  PlanNodePtr plan = core.Run();

  if (options.validate && plan != nullptr) {
    // The memo must never be polluted: every entry keys a connected
    // subquery and stores a well-formed, correctly costed plan for
    // exactly that subquery.
    PlanValidator validator(jg, inputs.local_index, inputs.estimator,
                            &builder.cost_model());
    core.ForEachMemoEntry([&](TpSet q, const PlanNodePtr& entry) {
      PARQO_CHECK(entry != nullptr);
      PARQO_CHECK_OK(validator.ValidateMemoEntry(q, *entry));
    });
  }

  OptimizeResult result;
  result.plan = plan;
  result.seconds = watch.ElapsedSeconds();
  result.algorithm_used = Algorithm::kTdCmd;
  CopyStats(core.stats(), &result);
  return result;
}

}  // namespace parqo
