// LUBM walkthrough: generate a university dataset, partition it with a
// chosen method, then optimize and execute all ten LUBM benchmark queries
// with TD-Auto, reporting per-query plan shape, estimated vs measured
// cost, network traffic, and result counts. This is the paper's Section
// V-B pipeline as one runnable program.
//
// Usage: lubm_cluster [hash|2f|path|mincut] [universities] [nodes]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/strings.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "plan/plan.h"
#include "sparql/parser.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"

int main(int argc, char** argv) {
  using namespace parqo;

  std::string method = argc > 1 ? argv[1] : "hash";
  int universities = argc > 2 ? std::atoi(argv[2]) : 8;
  int nodes = argc > 3 ? std::atoi(argv[3]) : 10;

  std::unique_ptr<Partitioner> partitioner;
  if (method == "hash") {
    partitioner = std::make_unique<HashSoPartitioner>();
  } else if (method == "2f") {
    partitioner = std::make_unique<TwoHopForwardPartitioner>();
  } else if (method == "path") {
    partitioner = std::make_unique<PathBmcPartitioner>();
  } else if (method == "mincut") {
    partitioner = std::make_unique<MinEdgeCutPartitioner>();
  } else {
    std::fprintf(stderr, "usage: %s [hash|2f|path|mincut] [universities] "
                         "[nodes]\n",
                 argv[0]);
    return 2;
  }

  LubmConfig config;
  config.universities = universities;
  std::printf("generating LUBM-like data (%d universities)...\n",
              universities);
  RdfGraph graph = GenerateLubm(config);
  std::printf("  %s triples, %s vertices\n",
              WithThousandsSep(graph.NumTriples()).c_str(),
              WithThousandsSep(graph.vertices().size()).c_str());

  std::printf("partitioning with %s onto %d nodes...\n",
              partitioner->name().c_str(), nodes);
  PartitionAssignment assignment =
      partitioner->PartitionData(graph, nodes);
  std::printf("  replication factor %.2fx\n",
              assignment.ReplicationFactor(graph.NumTriples()));
  Cluster cluster(graph, assignment);

  OptimizeOptions options;
  options.cost_params.num_nodes = nodes;

  std::printf("\n%-5s %-10s %6s %6s %12s %12s %14s %9s\n", "query", "via",
              "joins", "depth", "est. cost", "meas. cost", "rows shipped",
              "results");
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    if (!bq.lubm) continue;
    Result<ParsedQuery> parsed = ParseSparql(bq.sparql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", bq.name.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    PreparedQuery prepared(parsed->patterns, *partitioner,
                           StatsFromData(graph));
    options.deadline = Deadline::AfterSeconds(60);
    OptimizeResult r =
        Optimize(Algorithm::kTdAuto, prepared.inputs(), options);
    if (r.timed_out) {
      std::printf("%-5s optimization timed out\n", bq.name.c_str());
      continue;
    }

    Executor executor(cluster, prepared.join_graph(), options.cost_params);
    ExecMetrics metrics;
    Result<BindingTable> result = executor.Execute(*r.plan, &metrics);
    if (!result.ok()) {
      std::printf("%-5s execution failed: %s\n", bq.name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-5s %-10s %6d %6d %12s %12.1f %14s %9zu\n",
                bq.name.c_str(), ToString(r.algorithm_used).c_str(),
                r.plan->NumJoinOps(), r.plan->JoinDepth(),
                FormatCostE(r.plan->total_cost).c_str(),
                metrics.measured_cost,
                WithThousandsSep(metrics.rows_transferred).c_str(),
                result->NumRows());
  }

  std::printf("\nplan for L7 (dense query), to show the bushy structure:\n");
  const BenchmarkQuery& l7 = GetBenchmarkQuery("L7");
  Result<ParsedQuery> parsed = ParseSparql(l7.sparql);
  PreparedQuery prepared(parsed->patterns, *partitioner,
                         StatsFromData(graph));
  OptimizeResult r =
      Optimize(Algorithm::kTdAuto, prepared.inputs(), options);
  if (r.plan != nullptr) {
    std::printf("%s", PlanToString(*r.plan, prepared.join_graph()).c_str());
  }
  return 0;
}
