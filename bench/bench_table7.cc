// Reproduces Table VII: the search-space size (number of enumerated join
// operators / plans) per algorithm for chain, cycle, tree, and dense
// queries of 8, 16, and 30 triple patterns, with no locality (the table
// isolates pure enumeration behavior; hash locality is irrelevant to the
// chain/cycle closed forms).
//
// Validation anchors: TD-CMD chain/cycle cells must equal the paper's
// closed forms exactly — (n^3-n)/6 and (n^3-n^2)/2, i.e. 84/680/4,495 and
// 224/1,920/13,050 — independent of the random seed. MSC and DP-Bushy
// time out ("N/A") on the larger shapes, TD-CMDP <= TD-CMD, and
// HGR-TD-CMD is the smallest.
//
// The TD-Auto row counts the search TD-Auto actually runs: the algorithm
// it dispatches to plus the cost bound (DESIGN.md §6), so it can sit below
// that algorithm's row. The paper's TD-Auto count is the row of the
// algorithm it picks, which the table prints unbounded.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "common/rng.h"
#include "optimizer/enumeration_stats.h"
#include "partition/hash_so.h"
#include "partition/local_query_index.h"
#include "query/query_graph.h"

namespace parqo::bench {
namespace {

// The paper's whole Section V-C study runs over hash-partitioned data, so
// subqueries sharing a vertex are local. This is what makes DP-Bushy's
// tree/dense search spaces tiny in Table VII (it stops at local
// subqueries) while TD-CMD's chain/cycle counts still equal the closed
// forms (Algorithm 1 enumerates local subqueries too).
OptimizeResult RunUnderHash(Algorithm algorithm, const GeneratedQuery& q,
                            const Flags& flags) {
  JoinGraph jg(q.patterns);
  QueryGraph qg(jg);
  HashSoPartitioner hash;
  LocalQueryIndex index(qg, hash);
  CardinalityEstimator estimator(jg, q.MakeStats(jg));
  OptimizerInputs in;
  in.join_graph = &jg;
  in.query_graph = &qg;
  in.local_index = &index;
  in.estimator = &estimator;
  return Optimize(algorithm, in, CallOptions(flags));
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  std::printf("=== Table VII: size of search space ===\n");
  std::printf("cells: enumerated join operators / plans; N/A = >%gs\n",
              flags.timeout);
  std::printf("TD-Auto counts its cost-bounded search; the paper's TD-Auto "
              "count is the row of the algorithm it picks\n\n");

  const std::vector<std::pair<QueryShape, std::string>> shapes{
      {QueryShape::kChain, "chain"},
      {QueryShape::kCycle, "cycle"},
      {QueryShape::kTree, "tree"},
      {QueryShape::kDense, "dense"},
  };
  std::vector<int> sizes{8, 16, 30};
  if (flags.quick) sizes = {8, 16};
  const std::vector<std::pair<Algorithm, std::string>> algorithms{
      {Algorithm::kMsc, "MSC"},
      {Algorithm::kDpBushy, "DP-Bushy"},
      {Algorithm::kTdCmd, "TD-CMD"},
      {Algorithm::kTdCmdp, "TD-CMDP"},
      {Algorithm::kHgrTdCmd, "HGR-TD-CMD"},
      {Algorithm::kTdAuto, "TD-Auto"},
  };

  for (const auto& [shape, shape_name] : shapes) {
    std::printf("--- %s ---\n", shape_name.c_str());
    std::vector<std::string> header;
    for (int n : sizes) header.push_back("#tp=" + std::to_string(n));
    PrintRow("algorithm", header);
    PrintRule(12, static_cast<int>(sizes.size()));
    for (const auto& [algorithm, name] : algorithms) {
      std::vector<std::string> cells;
      for (int n : sizes) {
        Rng rng(flags.seed + n);
        GeneratedQuery q = GenerateRandomQuery(shape, n, rng);
        OptimizeResult r = RunUnderHash(algorithm, q, flags);
        cells.push_back(CountCell(r));
      }
      PrintRow(name, cells);
    }
    // Closed-form anchors from Section III-D.
    if (shape == QueryShape::kChain || shape == QueryShape::kCycle) {
      std::vector<std::string> cells;
      for (int n : sizes) {
        std::uint64_t expected = shape == QueryShape::kChain
                                     ? ChainSearchSpace(n)
                                     : CycleSearchSpace(n);
        cells.push_back(WithThousandsSep(expected));
      }
      PrintRow("(Eq. 8/9)", cells);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
