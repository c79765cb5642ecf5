// Shared helpers for the test suite: quick query construction, the Figure 1
// and Figure 4 running examples from the paper, brute-force reference
// implementations of cbd/cmd enumeration, and a reference SPARQL evaluator
// used to check the execution engine end to end.

#ifndef PARQO_TESTS_TEST_UTIL_H_
#define PARQO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "exec/binding_table.h"
#include "query/join_graph.h"
#include "rdf/graph.h"
#include "sparql/query.h"

namespace parqo::testing {

/// Builds a triple pattern from three tokens: "?name" makes a variable,
/// anything else an IRI constant.
TriplePattern Tp(const std::string& s, const std::string& p,
                 const std::string& o);

/// The query of Figure 1a (7 triple patterns, join variables
/// ?a ?b ?c ?d ?e as in Figure 1b).
std::vector<TriplePattern> Figure1Query();

/// The join graph of Figure 4: patterns tp1..tp9 (indexes 0..8) around the
/// join variable vj, with {tp1,tp2} and {tp3,tp4} indivisible components
/// and {tp5..tp9} divisible. Returns patterns; vj is the variable "vj".
std::vector<TriplePattern> Figure4Query();

/// Canonical form of an unordered binary division: the side containing
/// the query's lowest pattern first.
std::pair<TpSet, TpSet> CanonicalCbd(TpSet q, TpSet a, TpSet b);

/// Brute force D_cbd(q) on vj by subset enumeration (Definition 3, k=2).
std::set<std::pair<std::uint64_t, std::uint64_t>> BruteForceCbds(
    const JoinGraph& jg, TpSet q, VarId vj);

/// Brute force D_cmd(q) over all join variables by set-partition
/// enumeration; each cmd is (sorted part bitsets, var). Only feasible for
/// |q| <= ~10.
std::set<std::pair<std::vector<std::uint64_t>, VarId>> BruteForceCmds(
    const JoinGraph& jg, TpSet q);

/// All matches of the query against the full graph (MatchBgp), as rows
/// over the join graph's variables in ascending VarId order.
std::set<std::vector<TermId>> ReferenceEvaluate(const JoinGraph& jg,
                                                const RdfGraph& graph);

/// The distinct MatchBgp bindings of `jg`'s patterns, sorted: the ground
/// truth an execution's SortedRows must equal.
std::vector<std::vector<TermId>> MatchRows(const JoinGraph& jg,
                                           const RdfGraph& graph);

/// `t`'s rows over VarIds 0..jg.num_vars()-1, sorted but not
/// deduplicated: a multiset, so a duplicated row shows.
std::vector<std::vector<TermId>> SortedRows(const BindingTable& t,
                                            const JoinGraph& jg);

}  // namespace parqo::testing

#endif  // PARQO_TESTS_TEST_UTIL_H_
