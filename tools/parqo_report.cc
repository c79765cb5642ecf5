// parqo_report — end-to-end observability report for one query: generates
// a workload dataset, partitions it, optimizes and executes the query, and
// prints per-phase timings, optimizer/estimator memo statistics, the
// partitioning quality summary, and a per-node traffic table that is
// checked against the executor's totals.
//
//   parqo_report [--workload=lubm|uniprot|watdiv] [--query=L1|U3]
//                [--template=N]            (watdiv template index)
//                [--partitioner=hash|2f|path|mincut]
//                [--algorithm=tdauto|tdcmd|tdcmdp|hgr|msc|dpbushy|binary]
//                [--nodes=N] [--scale=N] [--threads=N] [--explain]
//                [--json=FILE]             (this run's counters as JSON)
//                [--trace=FILE]            (Chrome trace-event JSON)
//
// --threads=N (N >= 1) only selects execution: 1 runs serially, and any
// N > 1 runs each operator's per-node work in parallel on the global pool
// (hardware_concurrency workers plus the caller, whatever N is). The
// optimizer always enumerates on one thread. The dataset's storage index
// is built lazily on first use, so it gets its own "index" phase ahead of
// "prepare" instead of inflating it.
//
// Examples:
//   parqo_report --workload=lubm --query=L2 --partitioner=path
//   parqo_report --workload=watdiv --template=17 --trace=trace.json

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/min_edge_cut.h"
#include "partition/path_bmc.h"
#include "partition/two_hop.h"
#include "plan/export.h"
#include "sparql/parser.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"
#include "workload/watdiv.h"

namespace {

using namespace parqo;

constexpr int kWatdivTemplates = 124;

struct Options {
  std::string workload = "lubm";
  std::string query;  // default picked per workload
  int template_id = 0;
  std::string partitioner = "hash";
  std::string algorithm = "tdauto";
  int nodes = 10;
  int scale = 0;  // 0 = workload default
  int threads = 4;
  bool explain = false;
  std::string json_path;
  std::string trace_path;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload=lubm|uniprot|watdiv] [--query=L1|U3]\n"
      "          [--template=N] [--partitioner=hash|2f|path|mincut]\n"
      "          [--algorithm=tdauto|tdcmd|tdcmdp|hgr|msc|dpbushy|binary]\n"
      "          [--nodes=N] [--scale=N] [--threads=N] [--explain]\n"
      "          [--json=FILE] [--trace=FILE]\n"
      "N is an integer >= 1; --template=N indexes the %d WatDiv templates\n"
      "from 0.\n",
      argv0, kWatdivTemplates);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view name) -> const char* {
      std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return nullptr;
      return argv[i] + prefix.size();
    };
    const char* v = nullptr;
    if ((v = value("--workload")) != nullptr) {
      opts->workload = v;
    } else if ((v = value("--query")) != nullptr) {
      opts->query = v;
    } else if ((v = value("--template")) != nullptr) {
      double id = 0;
      if (!ParseNonNegativeDouble(v, &id) || id != std::floor(id) ||
          id >= kWatdivTemplates) {
        return false;
      }
      opts->template_id = static_cast<int>(id);
    } else if ((v = value("--partitioner")) != nullptr) {
      opts->partitioner = v;
    } else if ((v = value("--algorithm")) != nullptr) {
      opts->algorithm = v;
    } else if ((v = value("--nodes")) != nullptr) {
      if (!ParsePositiveInt(v, &opts->nodes)) return false;
    } else if ((v = value("--scale")) != nullptr) {
      if (!ParsePositiveInt(v, &opts->scale)) return false;
    } else if ((v = value("--threads")) != nullptr) {
      if (!ParsePositiveInt(v, &opts->threads)) return false;
    } else if (arg == "--explain") {
      opts->explain = true;
    } else if ((v = value("--json")) != nullptr) {
      opts->json_path = v;
    } else if ((v = value("--trace")) != nullptr) {
      opts->trace_path = v;
    } else {
      return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

// --json: one flat object of this run's numbers, read from the structs
// that counted them: optimizer.* from the OptimizeResult, exec.* from the
// timed run's ExecMetrics, partition.* from the PartitionAnalysis.
std::string ReportJson(const OptimizeResult& opt, const ExecMetrics& m,
                       const PartitionAnalysis& a) {
  std::string out = "{";
  auto key = [&](const char* name) {
    out += out.size() > 1 ? ",\n  \"" : "\n  \"";
    out += name;
    out += "\": ";
  };
  auto count = [&](const char* name, std::uint64_t v) {
    key(name);
    out += std::to_string(v);
  };
  auto real = [&](const char* name, double v) {
    key(name);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
  };
  auto per_node = [&](const char* name, const std::vector<std::uint64_t>& v) {
    key(name);
    out += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? ", " : "") + std::to_string(v[i]);
    }
    out += "]";
  };
  real("optimizer.seconds", opt.seconds);
  count("optimizer.cmds_enumerated", opt.enumerated);
  count("optimizer.memo_entries", opt.memo_entries);
  count("optimizer.memo_hits", opt.memo_hits);
  count("optimizer.memo_misses", opt.memo_misses);
  count("optimizer.local_short_circuits", opt.local_short_circuits);
  count("optimizer.bound_pruned", opt.bound_pruned);
  count("optimizer.timeouts", opt.timed_out);
  count("optimizer.msc_fallbacks", opt.fell_back_to_msc);
  real("exec.wall_seconds", m.wall_seconds);
  real("exec.measured_cost", m.measured_cost);
  real("exec.total_work", m.total_work);
  count("exec.result_rows", m.result_rows);
  count("exec.rows_scanned", m.rows_scanned);
  count("exec.rows_decoded", m.rows_decoded);
  count("exec.rows_transferred", m.rows_transferred);
  count("exec.bytes_shipped", m.bytes_shipped);
  count("exec.distributed_joins", m.distributed_joins);
  count("exec.merge_joins", m.merge_joins);
  count("exec.dedup_rows", m.dedup_rows);
  per_node("exec.node_rows_scanned", m.node_rows_scanned);
  per_node("exec.node_rows_received", m.node_rows_received);
  real("partition.replication_factor", a.replication_factor);
  count("partition.total_stored", a.total_stored);
  count("partition.cut_edges", a.cut_edges);
  count("partition.total_edges", a.total_edges);
  return out + "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
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

  TraceRecorder::Global().SetEnabled(true);

  std::vector<std::pair<std::string, double>> phases;
  auto timed = [&](const std::string& name, auto&& fn) {
    TraceSpan span("phase/" + name, "report");
    Stopwatch watch;
    auto result = fn();
    phases.emplace_back(name, watch.ElapsedSeconds());
    return result;
  };

  // -- Phase: generate ----------------------------------------------------
  std::string query_label;
  std::vector<TriplePattern> patterns;
  ParsedQuery parsed;
  RdfGraph graph = timed("generate", [&]() -> RdfGraph {
    if (opts.workload == "lubm" || opts.workload == "uniprot") {
      query_label = !opts.query.empty() ? opts.query
                    : opts.workload == "lubm" ? "L1"
                                              : "U1";
      const BenchmarkQuery& bq = GetBenchmarkQuery(query_label);
      Result<ParsedQuery> q = ParseSparql(bq.sparql);
      if (!q.ok()) {
        std::fprintf(stderr, "error: %s\n", q.status().ToString().c_str());
        std::exit(1);
      }
      parsed = *q;
      patterns = parsed.patterns;
      if (opts.workload == "lubm") {
        LubmConfig config;
        if (opts.scale > 0) config.universities = opts.scale;
        return GenerateLubm(config);
      }
      UniprotConfig config;
      if (opts.scale > 0) config.proteins = opts.scale;
      return GenerateUniprot(config);
    }
    if (opts.workload == "watdiv") {
      Rng rng(2017);
      std::vector<WatdivTemplate> templates =
          GenerateWatdivTemplates(kWatdivTemplates, rng);
      const int id = opts.template_id;
      query_label = "watdiv-template-" + std::to_string(id);
      patterns = templates[id].patterns;
      parsed.select_all = true;
      parsed.patterns = patterns;
      WatdivDataConfig config;
      if (opts.scale > 0) config.entities_per_class = opts.scale;
      return GenerateWatdivData(config);
    }
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 opts.workload.c_str());
    std::exit(2);
  });

  const bool parallel_nodes = opts.threads > 1;
  const std::string execution =
      parallel_nodes ? "parallel nodes (pool of " +
                           std::to_string(ThreadPool::Global().size()) +
                           " workers)"
                     : "serial";
  std::printf("parqo_report: %s / %s on %d nodes (%s, %s, %s)\n",
              opts.workload.c_str(), query_label.c_str(), opts.nodes,
              opts.partitioner.c_str(), opts.algorithm.c_str(),
              execution.c_str());
  std::printf("dataset: %s triples, %s vertices\n",
              WithThousandsSep(graph.NumTriples()).c_str(),
              WithThousandsSep(graph.vertices().size()).c_str());

  // -- Phase: partition ---------------------------------------------------
  PartitionAssignment assignment =
      timed("partition", [&]() {
        return partitioner->PartitionData(graph, opts.nodes);
      });
  PartitionAnalysis analysis = AnalyzeAssignment(graph, assignment);

  // -- Phase: index (one-time build of the dataset-wide storage index) ---
  timed("index", [&]() { return &graph.Index(); });

  // -- Phase: prepare (stats + local-query index) -------------------------
  auto prepared = timed("prepare", [&]() {
    return std::make_unique<PreparedQuery>(patterns, *partitioner,
                                           StatsFromData(graph));
  });

  // -- Phase: optimize ----------------------------------------------------
  OptimizeOptions options;
  options.cost_params.num_nodes = opts.nodes;
  OptimizeResult best = timed("optimize", [&]() {
    return Optimize(algorithm, prepared->inputs(), options);
  });
  if (best.plan == nullptr) {
    std::fprintf(stderr, "error: the optimizer found no plan\n");
    return 1;
  }

  // -- Phase: execute -----------------------------------------------------
  Cluster cluster(graph, assignment);
  // The timed run is the plain one; the cardinality table below comes
  // from a separate recording pass, which re-gathers every operator and
  // runs without key filters.
  Executor executor(cluster, prepared->join_graph(), options.cost_params,
                    parallel_nodes);
  ExecMetrics metrics;
  Result<BindingTable> rows = timed("execute", [&]() {
    return ExecuteAndProject(executor, *best.plan, parsed,
                             prepared->join_graph(), &metrics);
  });
  if (!rows.ok()) {
    std::fprintf(stderr, "error: %s\n", rows.status().ToString().c_str());
    return 1;
  }

  // -- Report -------------------------------------------------------------
  std::printf("\n== per-phase wall time ==\n");
  double total_phase = 0;
  for (const auto& [name, seconds] : phases) total_phase += seconds;
  for (const auto& [name, seconds] : phases) {
    std::printf("  %-10s %10.4fs  %5.1f%%\n", name.c_str(), seconds,
                total_phase > 0 ? 100.0 * seconds / total_phase : 0.0);
  }

  std::printf("\n== partitioning (%s) ==\n", partitioner->name().c_str());
  std::printf("  stored triples     %s (replication factor %.3f)\n",
              WithThousandsSep(analysis.total_stored).c_str(),
              analysis.replication_factor);
  std::printf("  cut edges          %s of %s (%.1f%%)\n",
              WithThousandsSep(analysis.cut_edges).c_str(),
              WithThousandsSep(analysis.total_edges).c_str(),
              Pct(analysis.cut_edges, analysis.total_edges));

  std::printf("\n== optimizer (%s) ==\n",
              ToString(best.algorithm_used).c_str());
  std::printf("  optimize time      %.4fs\n", best.seconds);
  std::printf("  operators          %s enumerated\n",
              WithThousandsSep(best.enumerated).c_str());
  std::printf("  plan cost          %s (estimated)\n",
              FormatCostE(best.plan->total_cost).c_str());
  std::uint64_t lookups = best.memo_hits + best.memo_misses;
  std::printf("  memo               %s entries, %s hits / %s lookups"
              " (%.1f%% hit rate)\n",
              WithThousandsSep(best.memo_entries).c_str(),
              WithThousandsSep(best.memo_hits).c_str(),
              WithThousandsSep(lookups).c_str(),
              Pct(best.memo_hits, lookups));
  std::printf("  rule-3 pruning     %s local short circuits\n",
              WithThousandsSep(best.local_short_circuits).c_str());
  std::printf("  cost bound         %s divisions skipped\n",
              WithThousandsSep(best.bound_pruned).c_str());
  const CardinalityEstimator& est = prepared->estimator();
  std::uint64_t est_lookups = est.memo_hits() + est.memo_misses();
  std::printf("  estimator memo     %s hits / %s lookups (%.1f%% hit "
              "rate)\n",
              WithThousandsSep(est.memo_hits()).c_str(),
              WithThousandsSep(est_lookups).c_str(),
              Pct(est.memo_hits(), est_lookups));
  if (opts.explain) {
    std::printf("\n%s",
                PlanToString(*best.plan, prepared->join_graph()).c_str());
  }

  std::printf("\n== execution ==\n");
  std::printf("  result rows        %s\n",
              WithThousandsSep(metrics.result_rows).c_str());
  std::printf("  critical path      %.1f (measured Eq. 3 cost)\n",
              metrics.measured_cost);
  std::printf("  total work         %.1f (%.2fx parallelism)\n",
              metrics.total_work,
              metrics.measured_cost > 0
                  ? metrics.total_work / metrics.measured_cost
                  : 0.0);
  std::printf("  distributed joins  %s\n",
              WithThousandsSep(metrics.distributed_joins).c_str());
  std::printf("  rows scanned       %s (%s index entries decoded)\n",
              WithThousandsSep(metrics.rows_scanned).c_str(),
              WithThousandsSep(metrics.rows_decoded).c_str());
  std::printf("  rows transferred   %s (%s bytes)\n",
              WithThousandsSep(metrics.rows_transferred).c_str(),
              WithThousandsSep(metrics.bytes_shipped).c_str());
  for (const ExecMetrics::EdgeTraffic& e : metrics.edges) {
    std::printf("    edge %-12s %s rows, %s bytes\n", e.op.c_str(),
                WithThousandsSep(e.rows).c_str(),
                WithThousandsSep(e.bytes).c_str());
  }

  std::printf("\n== storage ==\n");
  std::uint64_t index_bytes = 0;
  std::uint64_t stored_triples = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    index_bytes += cluster.node(i).IndexBytes();
    stored_triples += cluster.node(i).NumTriples();
  }
  std::printf("  permutation indexes %s bytes over %s stored triples\n",
              WithThousandsSep(index_bytes).c_str(),
              WithThousandsSep(stored_triples).c_str());
  std::printf("  bytes per triple   %.2f (dual-sorted-vector baseline "
              "24.00)\n",
              stored_triples > 0 ? static_cast<double>(index_bytes) /
                                       static_cast<double>(stored_triples)
                                 : 0.0);

  Executor recorder(cluster, prepared->join_graph(), options.cost_params,
                    parallel_nodes);
  recorder.set_record_op_cardinalities(true);
  ExecMetrics card_metrics;
  if (!recorder.Execute(*best.plan, &card_metrics).ok()) {
    std::fprintf(stderr, "error: cardinality recording pass failed\n");
    return 1;
  }
  std::printf("\n== cardinality estimation ==\n");
  std::printf("  %-14s %-16s %14s %14s %8s\n", "op", "patterns",
              "estimated", "actual", "q-error");
  for (const ExecMetrics::OpCardinality& oc : card_metrics.op_cards) {
    std::string tps;
    for (int tp : oc.tps) {
      if (!tps.empty()) tps += ",";
      tps += std::to_string(tp);
    }
    std::printf("  %-14s {%-14s %14.1f %14s %8.2f\n", oc.op.c_str(),
                (tps + "}").c_str(), oc.estimated,
                WithThousandsSep(oc.actual).c_str(), oc.QError());
  }
  const QErrorSummary q = card_metrics.SummarizeQError();
  std::printf("  Eq. 10-11 estimates  geo-mean q %.3f, max q %.1f over %s "
              "ops\n",
              q.geomean(), q.max, WithThousandsSep(q.ops).c_str());

  std::printf("\n== per-node traffic ==\n");
  std::printf("  %-6s %12s %12s %12s %12s\n", "node", "stored", "scanned",
              "received", "joined");
  for (int i = 0; i < opts.nodes; ++i) {
    std::printf("  %-6d %12s %12s %12s %12s\n", i,
                WithThousandsSep(i < static_cast<int>(
                                         analysis.node_stored.size())
                                     ? analysis.node_stored[i]
                                     : 0)
                    .c_str(),
                WithThousandsSep(metrics.node_rows_scanned[i]).c_str(),
                WithThousandsSep(metrics.node_rows_received[i]).c_str(),
                WithThousandsSep(metrics.node_rows_joined[i]).c_str());
  }
  std::uint64_t sum_scanned = std::accumulate(
      metrics.node_rows_scanned.begin(), metrics.node_rows_scanned.end(),
      std::uint64_t{0});
  std::uint64_t sum_received = std::accumulate(
      metrics.node_rows_received.begin(), metrics.node_rows_received.end(),
      std::uint64_t{0});
  std::printf("  %-6s %12s %12s %12s\n", "sum", "",
              WithThousandsSep(sum_scanned).c_str(),
              WithThousandsSep(sum_received).c_str());
  bool sums_ok = sum_scanned == metrics.rows_scanned &&
                 sum_received == metrics.rows_transferred;
  std::printf("  traffic check: per-node sums %s executor totals\n",
              sums_ok ? "match" : "DO NOT match");

  // Only populated when the run executed under a FaultScope (the scalar
  // totals above count successful deliveries only, so the traffic check
  // holds even through recovery — that is the reconciliation invariant).
  if (metrics.recovery_attempts > 0 || !metrics.degraded_nodes.empty() ||
      metrics.shipments_dropped > 0) {
    std::printf("\n== recovery ==\n");
    std::printf("  retry attempts     %s\n",
                WithThousandsSep(metrics.recovery_attempts).c_str());
    std::printf("  ops re-executed    %s\n",
                WithThousandsSep(metrics.operators_reexecuted).c_str());
    std::printf("  rows re-shipped    %s\n",
                WithThousandsSep(metrics.rows_reshipped).c_str());
    std::printf("  shipments dropped  %s\n",
                WithThousandsSep(metrics.shipments_dropped).c_str());
    std::string degraded;
    for (int node : metrics.degraded_nodes) {
      if (!degraded.empty()) degraded += ", ";
      degraded += std::to_string(node);
    }
    std::printf("  degraded nodes     %zu%s%s\n",
                metrics.degraded_nodes.size(),
                degraded.empty() ? "" : ": ", degraded.c_str());
  }

  if (!opts.json_path.empty()) {
    if (!WriteFile(opts.json_path, ReportJson(best, metrics, analysis))) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opts.json_path.c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s\n",
                opts.json_path.c_str());
  }
  if (!opts.trace_path.empty()) {
    if (!WriteFile(opts.trace_path,
                   TraceRecorder::Global().ToChromeJson() + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opts.trace_path.c_str());
      return 1;
    }
    std::printf("trace (%zu events) written to %s — open in "
                "chrome://tracing or ui.perfetto.dev\n",
                TraceRecorder::Global().NumEvents(),
                opts.trace_path.c_str());
  }

  return sums_ok ? 0 : 1;
}
