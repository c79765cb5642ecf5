#include "stats/estimator.h"

#include <algorithm>
#include <utility>

#include "common/status.h"

namespace parqo {

CardinalityEstimator::CardinalityEstimator(const JoinGraph& jg,
                                           QueryStatistics stats)
    : jg_(&jg), stats_(std::move(stats)) {}

std::size_t CardinalityEstimator::Derive(TpSet sq) const {
  PARQO_CHECK(!sq.Empty());
  if (const std::size_t* hit = memo_.Find(sq)) {
    ++memo_hits_;
    return *hit;
  }
  ++memo_misses_;

  // Eq. 11 folds the highest-index pattern into the rest, so derive the
  // rest first (every prefix is memoized: deriving all subqueries of a
  // query costs O(#subqueries * #vars)). Offsets, not pointers: the
  // append below may move entries_.
  int last = -1;
  for (int tp : sq) last = tp;
  TpSet rest = sq;
  rest.Remove(last);
  const std::size_t lhs = rest.Empty() ? 0 : Derive(rest);

  const std::size_t at = entries_.size();
  entries_.resize(at + 1 + jg_->num_vars(), 0.0);
  double* d = &entries_[at];
  double* d_bind = d + 1;
  const double tp_card = stats_.Cardinality(last);
  if (rest.Empty()) {
    d[0] = tp_card;
    for (VarId v : jg_->VarsOf(last)) {
      d_bind[v] = std::min(stats_.Bindings(last, v), tp_card);
    }
  } else {
    const double* l = &entries_[lhs];
    const double* l_bind = l + 1;
    std::copy(l_bind, l_bind + jg_->num_vars(), d_bind);
    double denom = 1.0;
    for (VarId v : jg_->VarsOf(last)) {
      const double b_tp = std::min(stats_.Bindings(last, v), tp_card);
      if (l_bind[v] > 0) {
        denom *= std::max(l_bind[v], b_tp);  // shared variable
        d_bind[v] = std::min(l_bind[v], b_tp);
      } else {
        d_bind[v] = b_tp;
      }
    }
    d[0] = l[0] * tp_card / denom;
    if (d[0] < 1.0) d[0] = 1.0;
    // Distinct bindings can never exceed the result cardinality.
    for (int v = 0; v < jg_->num_vars(); ++v) {
      d_bind[v] = std::min(d_bind[v], d[0]);
    }
  }
  memo_.EmplaceFirstWins(sq, at);
  return at;
}

double CardinalityEstimator::Cardinality(TpSet sq) const {
  return entries_[Derive(sq)];
}

double CardinalityEstimator::Bindings(TpSet sq, VarId v) const {
  return entries_[Derive(sq) + 1 + v];
}

}  // namespace parqo
