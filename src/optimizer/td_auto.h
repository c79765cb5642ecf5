// TD-Auto (Section IV-C): picks the optimization algorithm from the two
// complexity drivers identified in Section III-D — join-variable degree
// and query size — using the decision tree of Figure 5:
//
//   |V_T| / |V_J| >= 1  (acyclic or single-cycle join graph):
//       max degree < theta_d        -> TD-CMD
//       else |V_T| < theta_n        -> TD-CMDP
//       else                        -> HGR-TD-CMD
//   |V_T| / |V_J| < 1   (multiple cycles):
//       |V_T| < lambda_n            -> TD-CMD
//       else                        -> HGR-TD-CMD
//
// Each arm runs with the cost bound (TdCmdRules::cost_bound): the chosen
// algorithm's plan, bit for bit, from fewer enumerated divisions.

#ifndef PARQO_OPTIMIZER_TD_AUTO_H_
#define PARQO_OPTIMIZER_TD_AUTO_H_

#include "optimizer/optimizer.h"

namespace parqo {

/// The decision only (exposed for tests and the ablation bench).
Algorithm TdAutoChoice(const JoinGraph& jg, const OptimizeOptions& options);

OptimizeResult RunTdAuto(const OptimizerInputs& inputs,
                         const OptimizeOptions& options);

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_TD_AUTO_H_
