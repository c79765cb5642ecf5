// Per-triple-pattern statistics: the cardinality |tp| of each pattern's
// bindings and the number of distinct bindings B(tp, v) of each variable
// (Appendix B of the paper). These are the inputs to the cardinality
// estimator; they come either from data (exact counts over the store) or
// from the synthetic workload generators (random in [1, 1000], Section V-A).

#ifndef PARQO_STATS_STATISTICS_H_
#define PARQO_STATS_STATISTICS_H_

#include <vector>

#include "query/join_graph.h"

namespace parqo {

class QueryStatistics {
 public:
  /// Initializes all cardinalities to 1.
  explicit QueryStatistics(const JoinGraph& jg)
      : num_vars_(jg.num_vars()),
        cardinality_(jg.num_tps(), 1.0),
        bindings_(static_cast<std::size_t>(jg.num_tps()) * jg.num_vars(),
                  1.0) {}

  void SetCardinality(int tp, double card) { cardinality_[tp] = card; }
  double Cardinality(int tp) const { return cardinality_[tp]; }

  /// B(tp, v): distinct bindings of variable v in tp's matches. Must not
  /// exceed |tp|; setters clamp to [1, |tp|] to keep Eq. 10 well-formed.
  void SetBindings(int tp, VarId v, double b) {
    double card = cardinality_[tp];
    if (b < 1) b = 1;
    if (b > card && card >= 1) b = card;
    bindings_[Index(tp, v)] = b;
  }
  double Bindings(int tp, VarId v) const { return bindings_[Index(tp, v)]; }

 private:
  std::size_t Index(int tp, VarId v) const {
    return static_cast<std::size_t>(tp) * num_vars_ + v;
  }

  int num_vars_;
  std::vector<double> cardinality_;
  std::vector<double> bindings_;  // row-major [tp][var]
};

}  // namespace parqo

#endif  // PARQO_STATS_STATISTICS_H_
