// Single-machine evaluation of a basic graph pattern by backtracking over
// the unpartitioned RdfGraph's CSR adjacency. This is not the parallel
// engine (see executor.h) and shares no code with it or with the storage
// layer: it is the one ground truth the executor's results are checked
// against, and the hot-query partitioner uses it to find the concrete
// match subgraphs of a query to co-locate them.

#ifndef PARQO_QUERY_MATCH_H_
#define PARQO_QUERY_MATCH_H_

#include <cstddef>
#include <vector>

#include "query/join_graph.h"
#include "rdf/graph.h"

namespace parqo {

struct BgpMatch {
  /// Variable bindings, indexed by VarId (kInvalidTermId never occurs).
  std::vector<TermId> bindings;
  /// The matched triples, parallel to the query's patterns.
  std::vector<Triple> triples;
};

/// All matches of `jg`'s patterns against `graph`, up to `limit`
/// (0 = unlimited). Each step extends the bindings by the pattern with the
/// fewest candidate triples: the subject's out-edges or the object's
/// in-edges when either is bound, else the bound predicate's triples,
/// else all triples.
std::vector<BgpMatch> MatchBgp(const JoinGraph& jg, const RdfGraph& graph,
                               std::size_t limit);

}  // namespace parqo

#endif  // PARQO_QUERY_MATCH_H_
