// The join graph J(Q) = (V_T, V_J, E_J) of Definition 1: a bipartite graph
// whose vertices are the query's triple patterns (V_T) and the join
// variables shared between them (V_J). All plan-enumeration algorithms
// (Algorithms 1-3), the heuristics of Section IV, and the TD-Auto decision
// tree operate on this structure.
//
// Subqueries are TpSet bitsets; the join graph provides the bitset-level
// adjacency, neighborhood, and connected-component primitives they need.
// Connectivity is defined over shared join variables: two triple patterns
// are adjacent iff they share at least one join variable. Plans never
// contain Cartesian products (problem statement, Section II-E), so a
// subquery that is disconnected here cannot appear as a join input.

#ifndef PARQO_QUERY_JOIN_GRAPH_H_
#define PARQO_QUERY_JOIN_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tp_set.h"
#include "sparql/query.h"

namespace parqo {

/// Dense per-query variable identifier (index into JoinGraph's var table).
using VarId = std::int32_t;
inline constexpr VarId kInvalidVarId = -1;

class JoinGraph {
 public:
  /// Builds the join graph of `patterns`. The query must have at most
  /// TpSet::kMaxSize (64) triple patterns.
  explicit JoinGraph(std::vector<TriplePattern> patterns);

  //===------------------------------------------------------------------===//
  // Triple patterns (V_T)
  //===------------------------------------------------------------------===//

  int num_tps() const { return static_cast<int>(patterns_.size()); }
  const std::vector<TriplePattern>& patterns() const { return patterns_; }
  const TriplePattern& pattern(int tp) const { return patterns_[tp]; }
  TpSet AllTps() const { return TpSet::FullSet(num_tps()); }
  /// The triple patterns a subquery key covers: the identity here; the
  /// reduced graph (GroupedJoinGraph) maps group sets to pattern sets.
  TpSet ExpandTps(TpSet sq) const { return sq; }

  //===------------------------------------------------------------------===//
  // Variables and join variables (V_J)
  //===------------------------------------------------------------------===//

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::string& var_name(VarId v) const { return var_names_[v]; }
  /// Returns kInvalidVarId if the name does not occur in the query.
  VarId FindVar(const std::string& name) const;

  /// N_tp(v): the triple patterns containing variable v (Definition 1).
  TpSet Ntp(VarId v) const { return ntp_[v]; }
  /// |N_tp(v) & within|, the degree of v restricted to a subquery.
  int Degree(VarId v, TpSet within) const {
    return (ntp_[v] & within).Count();
  }

  bool IsJoinVar(VarId v) const { return ntp_[v].Count() >= 2; }
  /// Join variables of the whole query, ascending by VarId.
  const std::vector<VarId>& join_vars() const { return join_vars_; }
  int num_join_vars() const { return static_cast<int>(join_vars_.size()); }
  /// max_v |N_tp(v)| over join variables; 0 if there are none.
  int MaxJoinVarDegree() const;

  /// All variables of triple pattern `tp` (s/p/o order, deduplicated).
  const std::vector<VarId>& VarsOf(int tp) const { return tp_vars_[tp]; }
  /// The join variables of triple pattern `tp`.
  const std::vector<VarId>& JoinVarsOf(int tp) const {
    return tp_join_vars_[tp];
  }

  //===------------------------------------------------------------------===//
  // Bitset-level adjacency and connectivity
  //===------------------------------------------------------------------===//

  /// Triple patterns sharing a join variable with `tp`, excluding `tp`.
  TpSet Adjacent(int tp) const { return adjacent_[tp]; }

  /// Like Adjacent, but ignoring edges through join variable `vj`. Used by
  /// Algorithm 2, which analyses components of J(Q) after removing v_j.
  TpSet AdjacentExcluding(int tp, VarId vj) const;

  /// Adj(SQ) \ SQ: the neighbor patterns of a subquery (Algorithm 2 line 10).
  TpSet NeighborsOf(TpSet sq) const;

  /// True iff the subquery induces a connected join graph. The empty set
  /// and singletons are connected.
  bool IsConnected(TpSet sq) const;

  /// The connected component of `seed` within the induced subgraph on
  /// `within` (seed must be in `within`).
  TpSet ComponentOf(int seed, TpSet within) const;
  /// Same, with edges through `vj` removed.
  TpSet ComponentOfExcluding(int seed, TpSet within, VarId vj) const;

  /// All connected components of the induced subgraph on `within`.
  std::vector<TpSet> Components(TpSet within) const;
  /// Components after removing join variable `vj` (Algorithm 2 line 1).
  std::vector<TpSet> ComponentsExcluding(TpSet within, VarId vj) const;
  /// Allocation-free variant for the enumeration hot path: clears `out`
  /// and appends the components, reusing its capacity.
  void ComponentsExcluding(TpSet within, VarId vj,
                           std::vector<TpSet>* out) const;

  /// Join variables shared by subqueries `a` and `b` (occur in both).
  std::vector<VarId> SharedJoinVars(TpSet a, TpSet b) const;
  /// Join variables with at least 2 incident patterns inside `sq`.
  std::vector<VarId> JoinVarsWithin(TpSet sq) const;
  /// All variables occurring in `sq`.
  std::vector<VarId> VarsIn(TpSet sq) const;

 private:
  std::vector<TriplePattern> patterns_;
  std::vector<std::string> var_names_;
  std::vector<TpSet> ntp_;                       // per VarId
  std::vector<VarId> join_vars_;                 // ascending
  std::vector<std::vector<VarId>> tp_vars_;      // per tp
  std::vector<std::vector<VarId>> tp_join_vars_; // per tp
  std::vector<TpSet> adjacent_;                  // per tp
};

}  // namespace parqo

#endif  // PARQO_QUERY_JOIN_GRAPH_H_
