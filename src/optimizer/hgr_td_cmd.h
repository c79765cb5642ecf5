// HGR-TD-CMD (Section IV-B): heuristic join-graph reduction followed by
// full TD-CMD enumeration on the reduced graph. Collapsing local queries
// into single vertices reduces both drivers of enumeration complexity —
// the number of patterns and the join-variable degrees — while the plans
// lost are exactly those that would split a cheap local region across
// distributed joins.

#ifndef PARQO_OPTIMIZER_HGR_TD_CMD_H_
#define PARQO_OPTIMIZER_HGR_TD_CMD_H_

#include "optimizer/optimizer.h"
#include "optimizer/td_cmd_core.h"

namespace parqo {

/// `rules` govern the enumeration of the reduced graph: plain TD-CMD by
/// default, plus the cost bound under TD-Auto.
OptimizeResult RunHgrTdCmd(const OptimizerInputs& inputs,
                           const OptimizeOptions& options,
                           const TdCmdRules& rules = TdCmdRules{});

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_HGR_TD_CMD_H_
