// The reduced join graph J'(Q) of Section IV-B: vertices are groups of
// triple patterns that the join-graph reduction collapsed into single
// local queries; join variables are the original query's variables that
// still connect two or more groups. GroupedJoinGraph implements the same
// Graph concept as JoinGraph (AllTps / join_vars / Ntp / Degree /
// NeighborsOf / ComponentsExcluding / ExpandTps), so Algorithms 1-3 run
// on it unchanged — bitsets now index groups instead of patterns.

#ifndef PARQO_OPTIMIZER_GROUPED_GRAPH_H_
#define PARQO_OPTIMIZER_GROUPED_GRAPH_H_

#include <vector>

#include "common/tp_set.h"
#include "query/join_graph.h"

namespace parqo {

class GroupedJoinGraph {
 public:
  /// `groups` must be disjoint, non-empty, and cover base.AllTps().
  GroupedJoinGraph(const JoinGraph& base, std::vector<TpSet> groups);

  int num_tps() const { return static_cast<int>(groups_.size()); }
  TpSet AllTps() const { return TpSet::FullSet(num_tps()); }

  const std::vector<VarId>& join_vars() const { return join_vars_; }
  TpSet Ntp(VarId v) const { return rel_ntp_[v]; }
  int Degree(VarId v, TpSet within) const {
    return (rel_ntp_[v] & within).Count();
  }

  TpSet Adjacent(int rel) const { return adjacent_[rel]; }
  TpSet AdjacentExcluding(int rel, VarId vj) const;
  TpSet NeighborsOf(TpSet rels) const;
  bool IsConnected(TpSet rels) const;
  TpSet ComponentOfExcluding(int seed, TpSet within, VarId vj) const;
  std::vector<TpSet> ComponentsExcluding(TpSet within, VarId vj) const;
  /// Allocation-free variant (same contract as JoinGraph's).
  void ComponentsExcluding(TpSet within, VarId vj,
                           std::vector<TpSet>* out) const;

  //===------------------------------------------------------------------===//
  // Mapping back to the base query
  //===------------------------------------------------------------------===//

  const JoinGraph& base() const { return *base_; }
  /// Triple patterns of group `rel`.
  TpSet GroupTps(int rel) const { return groups_[rel]; }
  /// Union of the patterns of all groups in `rels`.
  TpSet ExpandTps(TpSet rels) const;
  int MaxJoinVarDegree() const;

 private:
  const JoinGraph* base_;
  std::vector<TpSet> groups_;
  std::vector<VarId> join_vars_;
  std::vector<TpSet> rel_ntp_;        // per base VarId: mask over groups
  std::vector<std::vector<VarId>> rel_join_vars_;  // per group
  std::vector<TpSet> adjacent_;       // per group
};

}  // namespace parqo

#endif  // PARQO_OPTIMIZER_GROUPED_GRAPH_H_
