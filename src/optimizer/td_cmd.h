// TD-CMD and TD-CMDP (Sections III and IV-A): Algorithm 1 instantiated on
// the raw join graph, with triple-pattern scans as leaves.

#ifndef PARQO_OPTIMIZER_TD_CMD_H_
#define PARQO_OPTIMIZER_TD_CMD_H_

#include "optimizer/optimizer.h"
#include "optimizer/td_cmd_core.h"

namespace parqo {

/// The rules of plain TD-CMD, or of TD-CMDP (Rules 1-3) when `pruned`.
TdCmdRules PaperRules(bool pruned);

/// `pruned` selects TD-CMDP (Rules 1-3) instead of plain TD-CMD.
OptimizeResult RunTdCmd(const OptimizerInputs& inputs,
                        const OptimizeOptions& options, bool pruned);

/// Ablation entry point: run Algorithm 1 with an arbitrary combination of
/// the Section IV-A pruning rules (see bench/bench_ablation.cc).
OptimizeResult RunTdCmdWithRules(const OptimizerInputs& inputs,
                                 const OptimizeOptions& options,
                                 const TdCmdRules& rules);

/// Copies one TD-CMD-family run's counters and stop flag into `result`.
void CopyStats(const TdCmdStats& stats, OptimizeResult* result);

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_TD_CMD_H_
