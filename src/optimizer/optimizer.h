// Public entry point of the query optimizer. Bundles the per-query inputs
// (join graph, query graph, partitioning-derived local-query index, and
// cardinality estimator) and dispatches to one of the algorithms studied in
// the paper:
//
//   kTdCmd     - Algorithm 1, full connected-multi-division space (Sec III)
//   kTdCmdp    - TD-CMD + pruning Rules 1-3 (Sec IV-A)
//   kHgrTdCmd  - join-graph reduction, then TD-CMD on the reduced graph
//                (Sec IV-B)
//   kTdAuto    - decision-tree dispatch between the above (Sec IV-C, Fig 5),
//                each run with the exact cost bound (TdCmdRules::cost_bound)
//   kMsc       - CliqueSquare-style minimum-set-cover flat plans [6]
//   kDpBushy   - Huang et al. generate-and-test bushy DP [7]
//   kBinaryDp  - binary-only bushy DP (TriAD's plan space [8]; extension)

#ifndef PARQO_OPTIMIZER_OPTIMIZER_H_
#define PARQO_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <string>

#include "common/stopwatch.h"
#include "cost/cost_model.h"
#include "partition/local_query_index.h"
#include "plan/plan.h"
#include "query/join_graph.h"
#include "query/query_graph.h"
#include "stats/estimator.h"

namespace parqo {

enum class Algorithm {
  kTdCmd,
  kTdCmdp,
  kHgrTdCmd,
  kTdAuto,
  kMsc,
  kDpBushy,
  /// Extension: binary bushy plans only (TriAD's plan space [8]); used by
  /// the ablation bench to quantify the value of k-ary joins.
  kBinaryDp,
};

std::string ToString(Algorithm algorithm);

/// Everything an optimizer needs to know about one query. All pointers are
/// borrowed and must outlive the call.
struct OptimizerInputs {
  const JoinGraph* join_graph = nullptr;
  const QueryGraph* query_graph = nullptr;
  const LocalQueryIndex* local_index = nullptr;
  const CardinalityEstimator* estimator = nullptr;
};

struct OptimizeOptions {
  CostParams cost_params;
  /// The optimizer's one wall-clock budget (default: none; the paper caps
  /// runs at 600 s in Section V-C). Every algorithm probes it during
  /// enumeration. A stopped run keeps the best complete plan found so
  /// far, and when there is none Optimize() falls back to MSC with the
  /// deadline lifted, so the caller always gets a valid executable plan.
  /// OptimizeResult::timed_out reports the stop. A Deadline is an
  /// absolute point in time: build one per Optimize() call.
  Deadline deadline = Deadline::Infinite();

  /// Runs the structural/cost invariant validator (plan_validator.h) over
  /// the produced plan, every memo entry, and every enumerated division.
  /// Any violation aborts via PARQO_CHECK — a wrong plan must never
  /// escape silently. Works in all build types (independent of
  /// PARQO_DCHECK); costs roughly a constant factor on enumeration, so
  /// it is for tests, canaries, and debugging, not the serving path.
  bool validate = false;

  /// TD-Auto thresholds (Figure 5; Section IV-C reports the values used
  /// in the paper's experiments).
  int theta_d = 5;    ///< max join-variable degree for plain TD-CMD.
  int theta_n = 30;   ///< #patterns below which TD-CMDP handles high-degree.
  int lambda_n = 14;  ///< #patterns below which TD-CMD handles dense.

  /// MSC guard: maximum complete flat plans to materialize. Reaching it
  /// stops MSC like the deadline does.
  std::uint64_t msc_plan_cap = 200000;
};

struct OptimizeResult {
  /// Never null from Optimize() (see OptimizeOptions::deadline); a direct
  /// Run* call that stopped before any complete plan returns null.
  PlanNodePtr plan;
  double seconds = 0;
  /// Search-space size: join operators / plans enumerated (Table VII).
  std::uint64_t enumerated = 0;
  /// The deadline or a size cap (TD-CMD's memo, MSC's plan count) stopped
  /// the search early: `plan` is a best-effort plan, not the space's
  /// optimum.
  bool timed_out = false;
  /// True when the search stopped before any complete plan existed and
  /// Optimize() substituted the MSC flat plan.
  bool fell_back_to_msc = false;
  /// The algorithm whose plan this is: differs from the request for
  /// kTdAuto, which reports its decision-tree choice, and is kMsc when
  /// Optimize() substituted the MSC fallback.
  Algorithm algorithm_used = Algorithm::kTdCmd;

  /// TD-CMD-family enumeration detail (all zero for MSC / DP-Bushy).
  /// memo_hits / (memo_hits + memo_misses) is the subproblem reuse rate.
  std::uint64_t memo_entries = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t local_short_circuits = 0;  ///< Rule-3 pruned subtrees.
  /// Divisions the cost bound skipped (TD-Auto only; see TdCmdRules).
  std::uint64_t bound_pruned = 0;
};

/// Runs the requested algorithm on one query.
OptimizeResult Optimize(Algorithm algorithm, const OptimizerInputs& inputs,
                        const OptimizeOptions& options);

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_OPTIMIZER_H_
