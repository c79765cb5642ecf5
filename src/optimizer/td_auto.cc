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
  // unchanged to whichever TD-CMD-family algorithm it picks.
  Algorithm choice = TdAutoChoice(*inputs.join_graph, options);
  OptimizeResult result;
  switch (choice) {
    case Algorithm::kTdCmd:
      result = RunTdCmd(inputs, options, /*pruned=*/false);
      break;
    case Algorithm::kTdCmdp:
      result = RunTdCmd(inputs, options, /*pruned=*/true);
      break;
    default:
      result = RunHgrTdCmd(inputs, options);
      break;
  }
  result.algorithm_used = choice;
  return result;
}

}  // namespace parqo
