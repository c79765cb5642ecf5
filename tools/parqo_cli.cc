// parqo_cli — optimize and run SPARQL BGPs against an N-Triples file on a
// simulated cluster from the command line.
//
//   parqo_cli --data=FILE.nt [--query=FILE.rq | reads stdin]
//             [--partitioner=hash|2f|path|mincut] [--nodes=N]
//             [--algorithm=tdauto|tdcmd|tdcmdp|hgr|msc|dpbushy|binary]
//             [--timeout=S] [--explain] [--dot] [--json] [--no-exec]
//             [--max-rows=N]
//
// --timeout=S is the optimizer's deadline (default 600 s, the paper's
// cutoff); a search it stops runs its best plan so far, or the MSC plan.
//
// Examples:
//   parqo_cli --data=uni.nt --query=q.rq --partitioner=path --explain
//   echo 'SELECT * WHERE { ?s ?p ?o }' | parqo_cli --data=uni.nt

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "plan/export.h"
#include "plan/plan.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"

namespace {

struct CliOptions {
  std::string data_path;
  std::string query_path;
  std::string partitioner = "hash";
  std::string algorithm = "tdauto";
  int nodes = 10;
  double timeout = 600;
  bool explain = false;
  bool dot = false;
  bool json = false;
  bool no_exec = false;
  bool parallel = false;
  int max_rows = 50;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --data=FILE.nt [--query=FILE.rq] [--partitioner=hash|2f|"
      "path|mincut]\n"
      "          [--algorithm=tdauto|tdcmd|tdcmdp|hgr|msc|dpbushy|binary]\n"
      "          [--nodes=N] [--timeout=S] [--explain] [--dot] [--json]\n"
      "          [--no-exec] [--max-rows=N]\n"
      "N is an integer >= 1, S a number >= 0.\n"
      "The query is read from stdin when --query is absent.\n",
      argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view name) -> const char* {
      std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return nullptr;
      return argv[i] + prefix.size();
    };
    const char* v = nullptr;
    if ((v = value("--data")) != nullptr) {
      opts->data_path = v;
    } else if ((v = value("--query")) != nullptr) {
      opts->query_path = v;
    } else if ((v = value("--partitioner")) != nullptr) {
      opts->partitioner = v;
    } else if ((v = value("--algorithm")) != nullptr) {
      opts->algorithm = v;
    } else if ((v = value("--nodes")) != nullptr) {
      if (!parqo::ParsePositiveInt(v, &opts->nodes)) return false;
    } else if ((v = value("--timeout")) != nullptr) {
      if (!parqo::ParseNonNegativeDouble(v, &opts->timeout)) return false;
    } else if ((v = value("--max-rows")) != nullptr) {
      if (!parqo::ParsePositiveInt(v, &opts->max_rows)) return false;
    } else if (arg == "--explain") {
      opts->explain = true;
    } else if (arg == "--dot") {
      opts->dot = true;
    } else if (arg == "--json") {
      opts->json = true;
    } else if (arg == "--no-exec") {
      opts->no_exec = true;
    } else if (arg == "--parallel") {
      opts->parallel = true;
    } else {
      return false;
    }
  }
  return !opts->data_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parqo;

  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage(argv[0]);

  std::unique_ptr<Partitioner> partitioner;
  if (opts.partitioner == "hash") {
    partitioner = std::make_unique<HashSoPartitioner>();
  } else if (opts.partitioner == "2f") {
    partitioner = std::make_unique<TwoHopForwardPartitioner>();
  } else if (opts.partitioner == "path") {
    partitioner = std::make_unique<PathBmcPartitioner>();
  } else if (opts.partitioner == "mincut") {
    partitioner = std::make_unique<MinEdgeCutPartitioner>();
  } else {
    return Usage(argv[0]);
  }

  Algorithm algorithm;
  if (opts.algorithm == "tdauto") {
    algorithm = Algorithm::kTdAuto;
  } else if (opts.algorithm == "tdcmd") {
    algorithm = Algorithm::kTdCmd;
  } else if (opts.algorithm == "tdcmdp") {
    algorithm = Algorithm::kTdCmdp;
  } else if (opts.algorithm == "hgr") {
    algorithm = Algorithm::kHgrTdCmd;
  } else if (opts.algorithm == "msc") {
    algorithm = Algorithm::kMsc;
  } else if (opts.algorithm == "dpbushy") {
    algorithm = Algorithm::kDpBushy;
  } else if (opts.algorithm == "binary") {
    algorithm = Algorithm::kBinaryDp;
  } else {
    return Usage(argv[0]);
  }

  // Load data.
  Result<RdfGraph> graph = ParseNTriplesFile(opts.data_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %s triples from %s\n",
               WithThousandsSep(graph->NumTriples()).c_str(),
               opts.data_path.c_str());

  // Load query.
  std::string query_text;
  if (!opts.query_path.empty()) {
    FILE* f = std::fopen(opts.query_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   opts.query_path.c_str());
      return 1;
    }
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      query_text.append(buf, got);
    }
    std::fclose(f);
  } else {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    query_text = ss.str();
  }
  Result<ParsedQuery> query = ParseSparql(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "error: %s\n", query.status().ToString().c_str());
    return 1;
  }

  // Optimize.
  PreparedQuery prepared(query->patterns, *partitioner,
                         StatsFromData(*graph));
  OptimizeOptions options;
  options.deadline = Deadline::AfterSeconds(opts.timeout);
  options.cost_params.num_nodes = opts.nodes;
  OptimizeResult best = Optimize(algorithm, prepared.inputs(), options);
  if (best.timed_out) {
    std::fprintf(stderr,
                 "optimization stopped at the %.3gs deadline; using the %s\n",
                 opts.timeout,
                 best.fell_back_to_msc ? "MSC fallback plan"
                                       : "best plan found so far");
  }
  std::fprintf(stderr,
               "optimized with %s in %.4fs (%llu operators enumerated, "
               "estimated cost %s)\n",
               ToString(best.algorithm_used).c_str(), best.seconds,
               static_cast<unsigned long long>(best.enumerated),
               FormatCostE(best.plan->total_cost).c_str());

  if (opts.explain) {
    std::printf("%s",
                PlanToString(*best.plan, prepared.join_graph()).c_str());
  }
  if (opts.dot) {
    std::printf("%s", PlanToDot(*best.plan, prepared.join_graph()).c_str());
  }
  if (opts.json) {
    std::printf("%s\n",
                PlanToJson(*best.plan, prepared.join_graph()).c_str());
  }
  if (opts.no_exec) return 0;

  // Execute.
  Cluster cluster(*graph,
                  partitioner->PartitionData(*graph, opts.nodes));
  Executor executor(cluster, prepared.join_graph(), options.cost_params,
                    opts.parallel);
  ExecMetrics metrics;
  Result<BindingTable> rows = ExecuteAndProject(
      executor, *best.plan, *query, prepared.join_graph(), &metrics);
  if (!rows.ok()) {
    std::fprintf(stderr, "error: %s\n", rows.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "executed in %.3fs wall: %zu rows, %llu scanned, %llu "
               "shipped, measured cost %.1f\n",
               metrics.wall_seconds, rows->NumRows(),
               static_cast<unsigned long long>(metrics.rows_scanned),
               static_cast<unsigned long long>(metrics.rows_transferred),
               metrics.measured_cost);

  // Header + rows (tab-separated).
  for (int c = 0; c < rows->num_cols(); ++c) {
    std::printf("%s?%s", c > 0 ? "\t" : "",
                prepared.join_graph().var_name(rows->schema()[c]).c_str());
  }
  std::printf("\n");
  std::size_t shown = 0;
  for (std::size_t r = 0; r < rows->NumRows(); ++r) {
    if (shown++ >= static_cast<std::size_t>(opts.max_rows)) {
      std::printf("... (%zu more rows)\n", rows->NumRows() - shown + 1);
      break;
    }
    for (int c = 0; c < rows->num_cols(); ++c) {
      std::printf("%s%s", c > 0 ? "\t" : "",
                  graph->dict().Decode(rows->At(r, c)).ToNTriples().c_str());
    }
    std::printf("\n");
  }
  return 0;
}
