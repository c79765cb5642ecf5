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
      options.timeout_seconds, options.deadline);
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
  result.enumerated = core.stats().enumerated_cmds;
  result.abort_cause = ToAbortCause(core.stats().abort_cause);
  // Deadline expiry degrades (plan kept / MSC fallback) rather than
  // failing, so it is not reported as a timeout.
  result.timed_out = core.stats().timed_out &&
                     result.abort_cause != AbortCause::kDeadline;
  result.algorithm_used = Algorithm::kTdCmd;
  result.memo_entries = core.stats().memo_entries;
  result.memo_hits = core.stats().memo_hits;
  result.memo_misses = core.stats().memo_misses;
  result.local_short_circuits = core.stats().local_short_circuits;
  result.bound_pruned = core.stats().bound_pruned;
  return result;
}

}  // namespace parqo
