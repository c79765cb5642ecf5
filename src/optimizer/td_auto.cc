#include "optimizer/td_auto.h"

#include "optimizer/hgr_td_cmd.h"
#include "optimizer/td_cmd.h"
#include "query/shape.h"

namespace parqo {

Algorithm TdAutoChoice(const JoinGraph& jg, const OptimizeOptions& options) {
  double ratio = TpToJoinVarRatio(jg);
  if (ratio >= 1.0) {
    if (jg.MaxJoinVarDegree() < options.theta_d) return Algorithm::kTdCmd;
    if (jg.num_tps() < options.theta_n) return Algorithm::kTdCmdp;
    return Algorithm::kHgrTdCmd;
  }
  if (jg.num_tps() < options.lambda_n) return Algorithm::kTdCmd;
  return Algorithm::kHgrTdCmd;
}

OptimizeResult RunTdAuto(const OptimizerInputs& inputs,
                         const OptimizeOptions& options) {
  // The choice only inspects the join graph; the options flow through
  // unchanged to whichever TD-CMD-family algorithm it picks. Every arm
  // adds the cost bound, which keeps that algorithm's plan bit-identical
  // and only skips divisions that cannot win.
  Algorithm choice = TdAutoChoice(*inputs.join_graph, options);
  OptimizeResult result;
  TdCmdRules rules = PaperRules(/*pruned=*/choice == Algorithm::kTdCmdp);
  rules.cost_bound = true;
  if (choice == Algorithm::kHgrTdCmd) {
    result = RunHgrTdCmd(inputs, options, rules);
  } else {
    result = RunTdCmdWithRules(inputs, options, rules);
  }
  result.algorithm_used = choice;
  return result;
}

}  // namespace parqo
