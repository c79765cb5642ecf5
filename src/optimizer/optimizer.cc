#include "optimizer/optimizer.h"

#include "common/status.h"
#include "common/trace.h"
#include "cost/cost_model.h"
#include "optimizer/plan_validator.h"
#include "optimizer/dp_bushy.h"
#include "optimizer/hgr_td_cmd.h"
#include "optimizer/msc.h"
#include "optimizer/td_auto.h"
#include "optimizer/td_cmd.h"

namespace parqo {
namespace {

OptimizeResult Dispatch(Algorithm algorithm, const OptimizerInputs& inputs,
                        const OptimizeOptions& options) {
  switch (algorithm) {
    case Algorithm::kTdCmd:
      return RunTdCmd(inputs, options, /*pruned=*/false);
    case Algorithm::kTdCmdp:
      return RunTdCmd(inputs, options, /*pruned=*/true);
    case Algorithm::kHgrTdCmd:
      return RunHgrTdCmd(inputs, options);
    case Algorithm::kTdAuto:
      return RunTdAuto(inputs, options);
    case Algorithm::kMsc:
      return RunMsc(inputs, options);
    case Algorithm::kDpBushy:
      return RunDpBushy(inputs, options);
    case Algorithm::kBinaryDp: {
      TdCmdRules rules;
      rules.cmd_mode = CmdMode::kBinaryOnly;
      OptimizeResult result = RunTdCmdWithRules(inputs, options, rules);
      result.algorithm_used = Algorithm::kBinaryDp;
      return result;
    }
  }
  return OptimizeResult{};
}

// Static names, so a span that tracing leaves disabled allocates nothing.
const char* SpanName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTdCmd: return "optimize/TD-CMD";
    case Algorithm::kTdCmdp: return "optimize/TD-CMDP";
    case Algorithm::kHgrTdCmd: return "optimize/HGR-TD-CMD";
    case Algorithm::kTdAuto: return "optimize/TD-Auto";
    case Algorithm::kMsc: return "optimize/MSC";
    case Algorithm::kDpBushy: return "optimize/DP-Bushy";
    case Algorithm::kBinaryDp: return "optimize/Binary-DP";
  }
  return "optimize/?";
}

}  // namespace

std::string ToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTdCmd: return "TD-CMD";
    case Algorithm::kTdCmdp: return "TD-CMDP";
    case Algorithm::kHgrTdCmd: return "HGR-TD-CMD";
    case Algorithm::kTdAuto: return "TD-Auto";
    case Algorithm::kMsc: return "MSC";
    case Algorithm::kDpBushy: return "DP-Bushy";
    case Algorithm::kBinaryDp: return "Binary-DP";
  }
  return "?";
}

OptimizeResult Optimize(Algorithm algorithm, const OptimizerInputs& inputs,
                        const OptimizeOptions& options) {
  PARQO_CHECK(inputs.join_graph != nullptr);
  PARQO_CHECK(inputs.local_index != nullptr);
  PARQO_CHECK(inputs.estimator != nullptr);
  TraceSpan span(SpanName(algorithm), "optimizer");
  OptimizeResult result = Dispatch(algorithm, inputs, options);
  if (result.plan == nullptr) {
    // The search stopped before it completed any plan. The caller still
    // needs something executable, so degrade to the MSC flat plan: its
    // first cover completes in O(|E|) work per level, which is
    // effectively instant at the scale where a stop can fire mid-run.
    // The (expired) deadline is lifted for the fallback — re-applying it
    // would stop MSC before its first plan too.
    OptimizeOptions fallback = options;
    fallback.deadline = Deadline::Infinite();
    OptimizeResult msc = RunMsc(inputs, fallback);
    result.plan = msc.plan;
    result.seconds += msc.seconds;
    result.fell_back_to_msc = result.plan != nullptr;
    if (result.fell_back_to_msc) result.algorithm_used = Algorithm::kMsc;
  }
  if (options.validate && result.plan != nullptr) {
    // Algorithm-specific wiring already validated divisions and memo
    // state mid-run; this is the uniform final gate every algorithm
    // (including MSC and TD-Auto's delegate) passes through.
    CostModel cost_model(options.cost_params);
    PlanValidator validator(*inputs.join_graph, inputs.local_index,
                            inputs.estimator, &cost_model);
    PARQO_CHECK_OK(validator.ValidatePlan(*result.plan));
  }
  return result;
}

}  // namespace parqo
