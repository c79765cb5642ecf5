// The cost model of Section II-E. A k-way join operator's cost is
//
//   C(op) = C_io + C_trans + C_join                       (Eq. 4)
//
// with the per-algorithm components of Table I:
//
//             C_io              C_trans                             C_join
//   Local     a*sum|SQ_i|       0                                   yL*|result|
//   Broadcast a*sum|SQ_i|       bB*(sum|SQ_i| - max|SQ_i|)*n        yB*|result|
//   Repart.   a*sum|SQ_i|       bR*sum|SQ_i|                        yR*|result|
//
// and plan cost is the recursive Eq. 3:
//
//   C(p(Q)) = max{C(p(SQ_1)), ..., C(p(SQ_k))} + C(op_join)
//
// The default normalization factors are the paper's Table II values.

#ifndef PARQO_COST_COST_MODEL_H_
#define PARQO_COST_COST_MODEL_H_

#include <span>
#include <string>

namespace parqo {

/// How a k-way join operator is executed (Section II-D).
enum class JoinMethod {
  kLocal,        ///< Per-node join, no cross-node communication.
  kBroadcast,    ///< k-1 smaller inputs broadcast to the largest's nodes.
  kRepartition,  ///< All inputs repartitioned on the shared join variable.
};

std::string ToString(JoinMethod method);

/// Normalization factors (Table II) plus the cluster size n, which the
/// broadcast-join network term depends on.
struct CostParams {
  double alpha = 0.02;              ///< a: I/O per tuple.
  double beta_broadcast = 0.05;     ///< bB: network per broadcast tuple.
  double beta_repartition = 0.1;    ///< bR: network per repartitioned tuple.
  double gamma_local = 0.004;       ///< yL: local-join work per result tuple.
  double gamma_broadcast = 0.008;   ///< yB.
  double gamma_repartition = 0.005; ///< yR.
  int num_nodes = 10;               ///< n: computing nodes in the cluster.
};

class CostModel {
 public:
  explicit CostModel(CostParams params = CostParams{}) : params_(params) {}

  const CostParams& params() const { return params_; }

  /// Cost of one k-way join operator given its input and output
  /// cardinalities (Table I). `input_cards` must be non-empty.
  double JoinOpCost(JoinMethod method, std::span<const double> input_cards,
                    double output_card) const;

  /// The two halves of JoinOpCost, which is exactly their sum: C_io +
  /// C_trans from the sum and max of the input cardinalities, and C_join
  /// from the output cardinality. The TD-CMD cost bound (td_cmd_core.h)
  /// costs a division through them without building its operator.
  double InputCost(JoinMethod method, double input_sum,
                   double input_max) const;
  double ComputeCost(JoinMethod method, double output_card) const;

 private:
  CostParams params_;
};

}  // namespace parqo

#endif  // PARQO_COST_COST_MODEL_H_
