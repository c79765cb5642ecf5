// bench_main — the canonical end-to-end sweep: optimize AND execute every
// benchmark query (LUBM L1-L10, UniProt U1-U5) plus a WatDiv template
// subset against generated WatDiv data, then emit one machine-readable
// BENCH_main.json with each query's optimize time, plan cost, search and
// execution counters, and their totals. CI's bench-smoke step and
// EXPERIMENTS.md's trend tracking both read this file.
//
//   bench_main [--quick] [--nodes=N] [--timeout=S] [--json=PATH]
//
// The JSON layout is documented in EXPERIMENTS.md ("BENCH_main.json").

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "partition/local_query_index.h"
#include "query/match.h"
#include "query/query_graph.h"
#include "query/shape.h"
#include "sparql/parser.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/random_query.h"
#include "workload/uniprot.h"
#include "workload/watdiv.h"

namespace parqo::bench {
namespace {

struct Record {
  std::string workload;
  std::string name;
  double optimize_seconds = 0;
  double plan_cost = 0;
  double measured_cost = 0;
  double total_work = 0;
  double wall_seconds = 0;  ///< Fault-free execution wall time.
  // OptimizeResult's counters.
  std::uint64_t enumerated = 0;
  /// Divisions TD-Auto's cost bound skipped (counted in `enumerated`).
  std::uint64_t bound_pruned = 0;
  std::uint64_t memo_entries = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t local_short_circuits = 0;
  // The fault-free run's ExecMetrics counters.
  std::uint64_t result_rows = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_decoded = 0;
  std::uint64_t rows_transferred = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t distributed_joins = 0;
  std::uint64_t merge_joins = 0;
  std::uint64_t dedup_rows = 0;
  bool timed_out = false;
  bool executed = false;
  /// Synthetic dense/cycle stress queries (Table VII shapes) that are
  /// optimized but never executed: there is no backing dataset, their
  /// purpose is a high `enumerated` count so optimize_seconds tracks the
  /// enumeration hot path. Excluded from the all_executed invariant.
  bool optimize_only = false;

  /// --faults mode: the same plan re-executed under a seeded FaultPlan
  /// (crashes + stragglers + dropped shipments). "recovered" means the
  /// run returned OK; "rows_match" means its result was row-for-row
  /// identical to the fault-free run — the chaos invariant.
  /// Cardinality-estimation accuracy: per-operator q-error of the plan
  /// (Eq. 10-11 over exact per-pattern stats) from a recording pass; no
  /// operators counted when that pass did not run.
  QErrorSummary qerror;

  bool fault_run = false;
  bool fault_recovered = false;
  bool fault_rows_match = false;
  double fault_wall_seconds = 0;  ///< Execution wall time under faults.
  std::uint64_t recovery_attempts = 0;
  std::uint64_t operators_reexecuted = 0;
  std::uint64_t rows_reshipped = 0;
  std::uint64_t shipments_dropped = 0;
  std::uint64_t node_crashes = 0;
};

/// The additive counters, in JSON order: each query record writes them and
/// `totals` writes their sums.
constexpr std::pair<const char*, std::uint64_t Record::*> kCounters[] = {
    {"enumerated", &Record::enumerated},
    {"bound_pruned", &Record::bound_pruned},
    {"memo_entries", &Record::memo_entries},
    {"memo_hits", &Record::memo_hits},
    {"memo_misses", &Record::memo_misses},
    {"local_short_circuits", &Record::local_short_circuits},
    {"result_rows", &Record::result_rows},
    {"rows_scanned", &Record::rows_scanned},
    {"rows_decoded", &Record::rows_decoded},
    {"rows_transferred", &Record::rows_transferred},
    {"bytes_shipped", &Record::bytes_shipped},
    {"distributed_joins", &Record::distributed_joins},
    {"merge_joins", &Record::merge_joins},
    {"dedup_rows", &Record::dedup_rows},
};

std::string CountersJson(const Record& r) {
  std::string out;
  for (const auto& [name, field] : kCounters) {
    out += std::string("\"") + name + "\": " + std::to_string(r.*field) +
           ", ";
  }
  return out;
}

/// Copies one Optimize() call's outcome into `rec`.
void RecordOptimize(const OptimizeResult& best, Record& rec) {
  rec.optimize_seconds = best.seconds;
  rec.enumerated = best.enumerated;
  rec.bound_pruned = best.bound_pruned;
  rec.memo_entries = best.memo_entries;
  rec.memo_hits = best.memo_hits;
  rec.memo_misses = best.memo_misses;
  rec.local_short_circuits = best.local_short_circuits;
  rec.timed_out = best.timed_out;
  if (!best.timed_out) rec.plan_cost = best.plan->total_cost;
}

/// Row-for-row equality up to order (both tables are deduplicated, so
/// sorted row multisets coincide iff the results are identical).
bool SameRows(const BindingTable& a, const BindingTable& b) {
  if (a.schema() != b.schema() || a.NumRows() != b.NumRows()) return false;
  auto rows = [](const BindingTable& t) {
    std::vector<std::vector<TermId>> out;
    out.reserve(t.NumRows());
    for (std::size_t r = 0; r < t.NumRows(); ++r) {
      std::vector<TermId> row(t.num_cols());
      for (int c = 0; c < t.num_cols(); ++c) row[c] = t.At(r, c);
      out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return rows(a) == rows(b);
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string QErrorJson(const QErrorSummary& q) {
  return "{\"geomean\": " + JsonNum(q.geomean()) +
         ", \"max\": " + JsonNum(q.max) +
         ", \"ops\": " + std::to_string(q.ops) + "}";
}

std::string ToJson(const Record& r) {
  std::string out = "    {";
  out += "\"workload\": \"" + r.workload + "\", ";
  out += "\"name\": \"" + r.name + "\", ";
  out += "\"optimize_seconds\": " + JsonNum(r.optimize_seconds) + ", ";
  out += "\"plan_cost\": " + JsonNum(r.plan_cost) + ", ";
  out += "\"measured_cost\": " + JsonNum(r.measured_cost) + ", ";
  out += "\"total_work\": " + JsonNum(r.total_work) + ", ";
  out += "\"wall_seconds\": " + JsonNum(r.wall_seconds) + ", ";
  out += CountersJson(r);
  out += std::string("\"timed_out\": ") + (r.timed_out ? "true" : "false") +
         ", ";
  out += std::string("\"executed\": ") + (r.executed ? "true" : "false");
  out += std::string(", \"optimize_only\": ") +
         (r.optimize_only ? "true" : "false");
  if (r.qerror.ops > 0) out += ", \"qerror\": " + QErrorJson(r.qerror);
  if (r.fault_run) {
    out += ", \"fault\": {";
    out += std::string("\"recovered\": ") +
           (r.fault_recovered ? "true" : "false") + ", ";
    out += std::string("\"rows_match\": ") +
           (r.fault_rows_match ? "true" : "false") + ", ";
    out += "\"fault_wall_seconds\": " + JsonNum(r.fault_wall_seconds) +
           ", ";
    out += "\"recovery_attempts\": " +
           std::to_string(r.recovery_attempts) + ", ";
    out += "\"operators_reexecuted\": " +
           std::to_string(r.operators_reexecuted) + ", ";
    out += "\"rows_reshipped\": " + std::to_string(r.rows_reshipped) +
           ", ";
    out += "\"shipments_dropped\": " +
           std::to_string(r.shipments_dropped) + ", ";
    out += "\"node_crashes\": " + std::to_string(r.node_crashes);
    out += "}";
  }
  out += "}";
  return out;
}

/// One entry of the execute-side stress set (DESIGN.md section 13): a
/// synthetic join-heavy query whose execute wall lives in the same
/// BENCH_main.json the optimizer numbers do. `rows_match` means the
/// result holds exactly the distinct MatchBgp bindings, each once.
struct ExecStressRecord {
  std::string name;
  std::uint64_t triples = 0;
  std::uint64_t result_rows = 0;
  double batch_wall_seconds = 0;
  bool rows_match = false;
};

std::string ExecStressToJson(const ExecStressRecord& r) {
  std::string out = "    {";
  out += "\"name\": \"" + r.name + "\", ";
  out += "\"triples\": " + std::to_string(r.triples) + ", ";
  out += "\"result_rows\": " + std::to_string(r.result_rows) + ", ";
  out += "\"batch_wall_seconds\": " + JsonNum(r.batch_wall_seconds) + ", ";
  out += std::string("\"rows_match\": ") + (r.rows_match ? "true" : "false");
  out += "}";
  return out;
}

/// Does `rows` hold exactly the distinct MatchBgp bindings of `jg`, each
/// once?
bool MatchesGroundTruth(const BindingTable& rows, const JoinGraph& jg,
                        const RdfGraph& graph) {
  std::vector<std::vector<TermId>> truth, got(rows.NumRows());
  for (BgpMatch& m : MatchBgp(jg, graph, 0)) {
    truth.push_back(std::move(m.bindings));
  }
  std::sort(truth.begin(), truth.end());
  truth.erase(std::unique(truth.begin(), truth.end()), truth.end());
  for (std::size_t r = 0; r < rows.NumRows(); ++r) {
    for (VarId v = 0; v < jg.num_vars(); ++v) {
      const int c = rows.ColumnOf(v);
      got[r].push_back(c < 0 ? kInvalidTermId : rows.At(r, c));
    }
  }
  std::sort(got.begin(), got.end());
  return got == truth;
}

/// Random edge set over `entities` subjects/objects per predicate p0..pk:
/// every pairwise join has ~edges^2/entities matching pairs, so the
/// execute cost is dominated by the join kernels, not by scans.
RdfGraph MakeExecStressGraph(int entities, int edges_per_pred, int preds,
                             std::uint64_t seed) {
  Dictionary dict;
  std::vector<TermId> ent(entities);
  // Built with += : GCC 12's -Wrestrict misfires on "lit" + to_string
  // (GCC bug 105329).
  for (int i = 0; i < entities; ++i) {
    std::string iri = "se";
    iri += std::to_string(i);
    ent[i] = dict.EncodeIri(iri);
  }
  std::vector<TermId> pred(preds);
  for (int j = 0; j < preds; ++j) {
    std::string iri = "p";
    iri += std::to_string(j);
    pred[j] = dict.EncodeIri(iri);
  }
  Rng rng(seed);
  std::vector<Triple> triples;
  triples.reserve(static_cast<std::size_t>(preds) * edges_per_pred);
  for (int j = 0; j < preds; ++j) {
    for (int k = 0; k < edges_per_pred; ++k) {
      triples.push_back({ent[rng.Uniform(0, entities - 1)], pred[j],
                         ent[rng.Uniform(0, entities - 1)]});
    }
  }
  return RdfGraph(std::move(dict), std::move(triples));
}

ExecStressRecord RunExecStress(const std::string& name,
                               const std::string& sparql,
                               const RdfGraph& graph, const Flags& flags) {
  ExecStressRecord rec;
  rec.name = name;
  rec.triples = graph.NumTriples();

  Result<ParsedQuery> parsed = ParseSparql(sparql);
  PARQO_CHECK(parsed.ok());
  HashSoPartitioner hash;
  Cluster cluster(graph, hash.PartitionData(graph, flags.nodes));
  PreparedQuery prepared(parsed->patterns, hash, StatsFromData(graph));
  const OptimizeOptions options = CallOptions(flags);
  OptimizeResult best =
      Optimize(Algorithm::kTdAuto, prepared.inputs(), options);
  PARQO_CHECK(!best.timed_out);

  // Best-of-N walls on the same plan.
  const int reps = flags.quick ? 1 : 3;
  Executor exec(cluster, prepared.join_graph(), options.cost_params,
                /*parallel_nodes=*/true);
  Result<BindingTable> rows = Status::Unavailable("unrun");
  rec.batch_wall_seconds = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    ExecMetrics m;
    rows = exec.Execute(*best.plan, &m);
    PARQO_CHECK(rows.ok());
    rec.batch_wall_seconds = std::min(rec.batch_wall_seconds, m.wall_seconds);
  }
  rec.result_rows = rows->NumRows();
  rec.rows_match = MatchesGroundTruth(*rows, prepared.join_graph(), graph);
  return rec;
}

/// The enumeration stress set: random dense and cycle queries (Section
/// V-A shapes) optimized under hash locality with synthetic statistics
/// and never executed. These are the queries whose candidate counts dwarf
/// the 15 benchmark queries, so their optimize_seconds is the number the
/// arena/flat-memo hot path is judged by (EXPERIMENTS.md's optimize-time
/// table).
Record RunOptimizeOnly(const std::string& workload, const std::string& name,
                       QueryShape shape, int num_tps, const Flags& flags) {
  Record rec;
  rec.workload = workload;
  rec.name = name;
  rec.optimize_only = true;

  Rng rng(flags.seed + num_tps);
  GeneratedQuery q = GenerateRandomQuery(shape, num_tps, rng);
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
  RecordOptimize(Optimize(Algorithm::kTdAuto, in, CallOptions(flags)), rec);
  return rec;
}

Record RunQuery(const std::string& workload, const std::string& name,
                const ParsedQuery& parsed, const Partitioner& partitioner,
                const RdfGraph& graph, const Cluster& cluster,
                const Flags& flags) {
  Record rec;
  rec.workload = workload;
  rec.name = name;

  PreparedQuery prepared(parsed.patterns, partitioner,
                         StatsFromData(graph));
  const OptimizeOptions options = CallOptions(flags);
  OptimizeResult best =
      Optimize(Algorithm::kTdAuto, prepared.inputs(), options);
  RecordOptimize(best, rec);
  if (best.timed_out) return rec;

  // Wall time and traffic come from a plain run; the q-error study
  // below records per-operator cardinalities in a pass of its own
  // (recording re-gathers every operator and runs without key filters).
  Executor executor(cluster, prepared.join_graph(), options.cost_params,
                    /*parallel_nodes=*/true);
  ExecMetrics metrics;
  Result<BindingTable> rows = ExecuteAndProject(
      executor, *best.plan, parsed, prepared.join_graph(), &metrics);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s/%s: execution failed: %s\n", workload.c_str(),
                 name.c_str(), rows.status().ToString().c_str());
    return rec;
  }
  rec.executed = true;
  rec.measured_cost = metrics.measured_cost;
  rec.total_work = metrics.total_work;
  rec.result_rows = metrics.result_rows;
  rec.rows_scanned = metrics.rows_scanned;
  rec.rows_decoded = metrics.rows_decoded;
  rec.rows_transferred = metrics.rows_transferred;
  rec.bytes_shipped = metrics.bytes_shipped;
  rec.distributed_joins = metrics.distributed_joins;
  rec.merge_joins = metrics.merge_joins;
  rec.dedup_rows = metrics.dedup_rows;
  rec.wall_seconds = metrics.wall_seconds;

  // Cardinality-estimation study: per-operator estimated vs actual rows
  // for the plan above.
  Executor recorder(cluster, prepared.join_graph(), options.cost_params,
                    /*parallel_nodes=*/true);
  recorder.set_record_op_cardinalities(true);
  ExecMetrics card_metrics;
  if (recorder.Execute(*best.plan, &card_metrics).ok()) {
    rec.qerror = card_metrics.SummarizeQError();
  }

  if (flags.faults) {
    // The recovery-overhead study of EXPERIMENTS.md: re-run the same plan
    // with crashes, a straggler or two, and a lossy network, and report
    // how much wall time and re-shipped traffic recovery costs. The seed
    // mixes the run seed with the query name so each query draws a
    // distinct but reproducible fault schedule.
    std::uint64_t fault_seed = flags.seed;
    for (char c : workload + "/" + name) {
      fault_seed = fault_seed * 131 + static_cast<unsigned char>(c);
    }
    FaultPlanConfig config;
    config.crash_probability = 0.3;
    config.slow_probability = 0.25;
    config.slow_seconds = 1e-4;
    config.drop_probability = 0.1;
    FaultPlan fault(fault_seed, flags.nodes, config);
    RetryPolicy retry;
    retry.max_attempts = 6;
    Executor chaos(cluster, prepared.join_graph(), options.cost_params,
                   /*parallel_nodes=*/true, retry);
    ExecMetrics fault_metrics;
    Result<BindingTable> fault_rows = [&] {
      FaultScope scope(&fault);
      return ExecuteAndProject(chaos, *best.plan, parsed,
                               prepared.join_graph(), &fault_metrics);
    }();
    rec.fault_run = true;
    rec.fault_recovered = fault_rows.ok();
    rec.fault_wall_seconds = fault_metrics.wall_seconds;
    if (fault_rows.ok()) {
      rec.fault_rows_match = SameRows(*rows, *fault_rows);
      rec.recovery_attempts = fault_metrics.recovery_attempts;
      rec.operators_reexecuted = fault_metrics.operators_reexecuted;
      rec.rows_reshipped = fault_metrics.rows_reshipped;
      rec.shipments_dropped = fault_metrics.shipments_dropped;
      rec.node_crashes = fault_metrics.degraded_nodes.size();
    }
  }
  return rec;
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  std::printf("=== bench_main: optimize + execute, all workloads ===\n\n");
  HashSoPartitioner hash;
  std::vector<Record> records;

  // Compressed-storage footprint across every workload cluster: the
  // permutation indexes' bytes per stored triple, against the 24 B/triple
  // of the dual sorted Triple vectors they replaced; and the dataset-wide
  // statistics index's bytes per graph triple.
  std::uint64_t storage_index_bytes = 0, storage_stored_triples = 0;
  std::uint64_t graph_index_bytes = 0, graph_triples = 0;
  auto add_storage = [&](const RdfGraph& graph, const Cluster& cluster) {
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      storage_index_bytes += cluster.node(n).IndexBytes();
      storage_stored_triples += cluster.node(n).NumTriples();
    }
    graph_index_bytes += graph.Index().ByteSize();
    graph_triples += graph.NumTriples();
  };

  {
    LubmConfig config;
    config.universities = flags.quick ? 7 : flags.lubm_universities;
    RdfGraph graph = GenerateLubm(config);
    Cluster cluster(graph, hash.PartitionData(graph, flags.nodes));
    add_storage(graph, cluster);
    std::printf("LUBM: %s triples\n",
                WithThousandsSep(graph.NumTriples()).c_str());
    for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
      if (!bq.lubm) continue;
      Result<ParsedQuery> q = ParseSparql(bq.sparql);
      PARQO_CHECK(q.ok());
      records.push_back(
          RunQuery("lubm", bq.name, *q, hash, graph, cluster, flags));
    }
  }

  {
    UniprotConfig config;
    config.proteins = flags.quick ? 800 : flags.uniprot_proteins;
    RdfGraph graph = GenerateUniprot(config);
    Cluster cluster(graph, hash.PartitionData(graph, flags.nodes));
    add_storage(graph, cluster);
    std::printf("UniProt: %s triples\n",
                WithThousandsSep(graph.NumTriples()).c_str());
    for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
      if (bq.lubm) continue;
      Result<ParsedQuery> q = ParseSparql(bq.sparql);
      PARQO_CHECK(q.ok());
      records.push_back(
          RunQuery("uniprot", bq.name, *q, hash, graph, cluster, flags));
    }
  }

  {
    WatdivDataConfig config;
    if (flags.quick) config.entities_per_class = 300;
    RdfGraph graph = GenerateWatdivData(config);
    Cluster cluster(graph, hash.PartitionData(graph, flags.nodes));
    add_storage(graph, cluster);
    std::printf("WatDiv: %s triples\n",
                WithThousandsSep(graph.NumTriples()).c_str());
    Rng rng(flags.seed);
    std::vector<WatdivTemplate> templates =
        GenerateWatdivTemplates(flags.quick ? 20 : 124, rng);
    // Execute a bounded subset of small templates: joins over the dense
    // skewed data explode combinatorially for the largest walks.
    const int kMax = flags.quick ? 5 : 10;
    int taken = 0;
    for (const WatdivTemplate& tmpl : templates) {
      if (taken >= kMax) break;
      if (tmpl.patterns.size() > 6) continue;
      ++taken;
      ParsedQuery parsed;
      parsed.select_all = true;
      parsed.patterns = tmpl.patterns;
      records.push_back(RunQuery("watdiv", "T" + std::to_string(tmpl.id),
                                 parsed, hash, graph, cluster, flags));
    }
  }

  {
    // Enumeration stress set (optimize-only): dense and cycle shapes
    // drive `enumerated` orders of magnitude beyond the benchmark
    // queries, which all finish in microseconds. Sizes follow Table VII;
    // --quick keeps the smallest of each shape.
    struct Stress {
      QueryShape shape;
      const char* workload;
      int num_tps;
    };
    std::vector<Stress> stress{{QueryShape::kDense, "dense", 10},
                               {QueryShape::kDense, "dense", 12},
                               {QueryShape::kDense, "dense", 14},
                               {QueryShape::kCycle, "cycle", 16},
                               {QueryShape::kCycle, "cycle", 24},
                               {QueryShape::kCycle, "cycle", 30}};
    if (flags.quick) {
      stress = {{QueryShape::kDense, "dense", 10},
                {QueryShape::kCycle, "cycle", 16}};
    }
    std::printf("synthetic: %zu optimize-only stress queries\n",
                stress.size());
    for (const Stress& s : stress) {
      records.push_back(
          RunOptimizeOnly(s.workload,
                          s.workload + std::to_string(s.num_tps), s.shape,
                          s.num_tps, flags));
    }
  }

  // Execute-side stress set: join-heavy dense and cycle queries over
  // synthetic random graphs, checked against MatchBgp.
  std::vector<ExecStressRecord> exec_stress;
  {
    // Edge/entity ratio ~6 keeps the intermediate join inputs large (the
    // kernels' work) while the closed shapes stay selective enough that
    // final-result materialization does not dominate the wall.
    const int entities = flags.quick ? 900 : 2000;
    const int edges = flags.quick ? 5400 : 12000;
    RdfGraph graph =
        MakeExecStressGraph(entities, edges, /*preds=*/6, flags.seed);
    std::printf("exec stress: %s triples, %d entities\n",
                WithThousandsSep(graph.NumTriples()).c_str(), entities);
    // 4-variable clique: every pair of variables constrained.
    exec_stress.push_back(RunExecStress(
        "dense4",
        "SELECT * WHERE { ?a <p0> ?b . ?a <p1> ?c . ?a <p2> ?d . "
        "?b <p3> ?c . ?b <p4> ?d . ?c <p5> ?d . }",
        graph, flags));
    // 6-variable cycle: long chain closed back on itself.
    exec_stress.push_back(RunExecStress(
        "cycle6",
        "SELECT * WHERE { ?a <p0> ?b . ?b <p1> ?c . ?c <p2> ?d . "
        "?d <p3> ?e . ?e <p4> ?f . ?f <p5> ?a . }",
        graph, flags));
    for (const ExecStressRecord& r : exec_stress) {
      std::printf("  %-8s batch %.4fs  %s rows  %s\n", r.name.c_str(),
                  r.batch_wall_seconds, WithThousandsSep(r.result_rows).c_str(),
                  r.rows_match ? "match MatchBgp" : "MISMATCH");
    }
  }

  std::printf("\n");
  PrintRow("query", {"opt time", "plan cost", "meas cost", "scanned",
                     "shipped", "rows"});
  PrintRule(12, 6);
  Record totals;
  for (const Record& r : records) {
    char t[32];
    std::snprintf(t, sizeof(t), "%.4fs", r.optimize_seconds);
    PrintRow(r.workload + "/" + r.name,
             {t, FormatCostE(r.plan_cost),
              FormatCostE(r.measured_cost),
              WithThousandsSep(r.rows_scanned),
              WithThousandsSep(r.rows_transferred),
              WithThousandsSep(r.result_rows)});
    totals.optimize_seconds += r.optimize_seconds;
    totals.wall_seconds += r.wall_seconds;
    for (const auto& [name, field] : kCounters) totals.*field += r.*field;
    // Any execution failure flags the run; optimize-only stress queries
    // never execute by design.
    if (!r.executed && !r.optimize_only) totals.timed_out = true;
  }
  std::printf("\n%zu queries, %.3fs total optimize time\n", records.size(),
              totals.optimize_seconds);

  // Q-error rollup: geometric mean over every counted operator of every
  // query.
  QErrorSummary qerror;
  for (const Record& r : records) {
    qerror.log_sum += r.qerror.log_sum;
    qerror.ops += r.qerror.ops;
    qerror.max = std::max(qerror.max, r.qerror.max);
  }
  if (qerror.ops > 0) {
    std::printf("q-error: geo %.3f max %.1f (%llu ops)\n", qerror.geomean(),
                qerror.max, static_cast<unsigned long long>(qerror.ops));
  }

  const double bytes_per_triple =
      storage_stored_triples > 0
          ? static_cast<double>(storage_index_bytes) /
                static_cast<double>(storage_stored_triples)
          : 0.0;
  const double graph_index_bytes_per_triple =
      graph_triples > 0 ? static_cast<double>(graph_index_bytes) /
                              static_cast<double>(graph_triples)
                        : 0.0;
  std::printf(
      "storage: %s index bytes over %s stored triples = %.2f B/triple "
      "(dual-vector baseline 24.00); statistics index %.2f B/graph "
      "triple\n",
      WithThousandsSep(storage_index_bytes).c_str(),
      WithThousandsSep(storage_stored_triples).c_str(), bytes_per_triple,
      graph_index_bytes_per_triple);

  std::size_t fault_runs = 0, recovered = 0, rows_matched = 0;
  std::uint64_t attempts = 0, reshipped = 0, crashes = 0;
  for (const Record& r : records) {
    if (!r.fault_run) continue;
    ++fault_runs;
    if (r.fault_recovered) ++recovered;
    if (r.fault_rows_match) ++rows_matched;
    attempts += r.recovery_attempts;
    reshipped += r.rows_reshipped;
    crashes += r.node_crashes;
  }
  if (fault_runs > 0) {
    std::printf(
        "faults: %zu runs, %zu recovered (%zu row-identical), "
        "%llu crashes, %llu retry attempts, %s rows re-shipped\n",
        fault_runs, recovered, rows_matched,
        static_cast<unsigned long long>(crashes),
        static_cast<unsigned long long>(attempts),
        WithThousandsSep(reshipped).c_str());
  }

  std::string path = flags.json.empty() ? "BENCH_main.json" : flags.json;
  std::string json = "{\n  \"queries\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    json += ToJson(records[i]);
    if (i + 1 < records.size()) json += ",";
    json += "\n";
  }
  json += "  ],\n  \"exec_stress\": [\n";
  for (std::size_t i = 0; i < exec_stress.size(); ++i) {
    json += ExecStressToJson(exec_stress[i]);
    if (i + 1 < exec_stress.size()) json += ",";
    json += "\n";
  }
  json += "  ],\n  \"totals\": {";
  json += "\"queries\": " + std::to_string(records.size()) + ", ";
  json += "\"optimize_seconds\": " + JsonNum(totals.optimize_seconds) +
          ", ";
  json += "\"wall_seconds\": " + JsonNum(totals.wall_seconds) + ", ";
  json += CountersJson(totals);
  json += "\"all_executed\": ";
  json += totals.timed_out ? "false" : "true";
  if (fault_runs > 0) {
    json += ", \"fault_runs\": " + std::to_string(fault_runs);
    json += ", \"fault_recovered\": " + std::to_string(recovered);
    json += ", \"fault_rows_matched\": " + std::to_string(rows_matched);
    json += ", \"recovery_attempts\": " + std::to_string(attempts);
    json += ", \"rows_reshipped\": " + std::to_string(reshipped);
    json += ", \"node_crashes\": " + std::to_string(crashes);
  }
  json += "},\n  \"storage\": {";
  json += "\"index_bytes\": " + std::to_string(storage_index_bytes) + ", ";
  json += "\"stored_triples\": " + std::to_string(storage_stored_triples) +
          ", ";
  json += "\"bytes_per_triple\": " + JsonNum(bytes_per_triple) + ", ";
  json += "\"graph_index_bytes_per_triple\": " +
          JsonNum(graph_index_bytes_per_triple) + ", ";
  json += "\"baseline_bytes_per_triple\": 24.0";
  json += "},\n  \"qerror\": " + QErrorJson(qerror);
  json += "\n}\n";

  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) {
  return parqo::bench::Main(argc, argv);
}
