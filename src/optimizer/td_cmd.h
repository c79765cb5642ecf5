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

/// Maps the enumerator-internal abort cause onto the public one.
inline AbortCause ToAbortCause(TdAbortCause cause) {
  switch (cause) {
    case TdAbortCause::kNone: return AbortCause::kNone;
    case TdAbortCause::kTimeout: return AbortCause::kTimeout;
    case TdAbortCause::kMemoCap: return AbortCause::kMemoCap;
    case TdAbortCause::kDeadline: return AbortCause::kDeadline;
  }
  return AbortCause::kNone;
}

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_TD_CMD_H_
