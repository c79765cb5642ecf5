// Partitioning study: how the choice of RDF data partitioning changes
// what the optimizer can do. For one query (default: the paper's L6 tree
// query) this example shows, per partitioning method:
//
//   * the maximal local queries the generic model derives (Section III-B),
//   * which/how many subqueries become local,
//   * the plan TD-Auto picks and its estimated cost,
//   * data-side replication on a small generated dataset.
//
// This is Section II-C's "an engine should choose its partitioning per
// application" argument made tangible.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "optimizer/join_graph_reduction.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/hot_query.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "plan/plan.h"
#include "sparql/parser.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"

int main(int argc, char** argv) {
  using namespace parqo;

  const std::string query_name = argc > 1 ? argv[1] : "L6";
  const BenchmarkQuery& bq = GetBenchmarkQuery(query_name);
  Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("query %s (%s, %d patterns):\n%s\n\n", bq.name.c_str(),
              ToString(bq.shape).c_str(), bq.num_patterns,
              parsed->ToString().c_str());

  LubmConfig config;
  config.universities = 3;
  RdfGraph graph = GenerateLubm(config);
  std::printf("dataset: %s triples\n\n",
              WithThousandsSep(graph.NumTriples()).c_str());

  HashSoPartitioner hash_base;  // shared base for the dynamic wrapper
  std::vector<std::unique_ptr<Partitioner>> partitioners;
  partitioners.push_back(std::make_unique<HashSoPartitioner>());
  partitioners.push_back(std::make_unique<TwoHopForwardPartitioner>());
  partitioners.push_back(std::make_unique<PathBmcPartitioner>());
  partitioners.push_back(std::make_unique<MinEdgeCutPartitioner>());
  // The dynamic model of the paper's appendix: the system has observed
  // this very query as "hot" and re-co-located its matches on top of
  // plain hash partitioning — everything becomes one local query.
  partitioners.push_back(std::make_unique<HotQueryPartitioner>(
      hash_base,
      std::vector<std::vector<TriplePattern>>{parsed->patterns}));

  for (const auto& partitioner : partitioners) {
    std::printf("=== %s ===\n", partitioner->name().c_str());
    PreparedQuery prepared(parsed->patterns, *partitioner,
                           StatsFromData(graph));
    const JoinGraph& jg = prepared.join_graph();

    // Maximal local queries (deduplicated, dominated ones dropped).
    std::printf("maximal local queries:");
    for (TpSet mlq : prepared.local_index().mlqs()) {
      std::printf(" %s", mlq.ToString().c_str());
    }
    std::printf("\n");

    // How much of the subquery lattice is local?
    std::size_t local = 0, connected = 0;
    for (std::uint64_t s = 1; s < (1ull << jg.num_tps()); ++s) {
      TpSet sq(s);
      if (!jg.IsConnected(sq)) continue;
      ++connected;
      if (prepared.local_index().IsLocal(sq)) ++local;
    }
    std::printf("local connected subqueries: %zu / %zu\n", local,
                connected);

    // What would HGR collapse the query into?
    JgrResult jgr =
        ReduceJoinGraph(jg, prepared.local_index(), prepared.estimator(),
                        4096);
    std::printf("join-graph reduction groups:");
    for (TpSet g : jgr.groups) std::printf(" %s", g.ToString().c_str());
    std::printf("\n");

    // Replication cost of the data side.
    PartitionAssignment assignment = partitioner->PartitionData(graph, 10);
    std::printf("data replication: %.2fx\n",
                assignment.ReplicationFactor(graph.NumTriples()));

    // The plan TD-Auto picks.
    OptimizeOptions options;
    OptimizeResult r =
        Optimize(Algorithm::kTdAuto, prepared.inputs(), options);
    std::printf("TD-Auto plan (via %s, est. cost %s):\n%s\n",
                ToString(r.algorithm_used).c_str(),
                FormatCostE(r.plan->total_cost).c_str(),
                PlanToString(*r.plan, jg).c_str());
  }
  return 0;
}
