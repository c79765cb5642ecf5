// parqo_serve — serve SPARQL BGPs through the plan-cached serving layer
// (src/server/) against an N-Triples file or a generated WatDiv dataset
// on a simulated cluster.
//
//   parqo_serve [--data=FILE.nt] [--nodes=N] [--deadline=S]
//               [--algorithm=tdauto|tdcmd|tdcmdp|hgr|msc|dpbushy|binary]
//               [--max-in-flight=N] [--max-rows=N] [--stats] [--saturate]
//
// Reads SELECT queries from stdin, separated by blank lines (or one
// query when the input has none), serves each, and prints rows plus the
// serving diagnostics: signature, cache hit/miss, optimize/execute
// latency. With no --data a WatDiv dataset is generated, so
//
//   echo 'SELECT * WHERE { ?s ?p ?o }' | parqo_serve
//
// works out of the box. --deadline=S bounds each query's optimization
// (ServerConfig's 600 s when absent, none when 0). --stats dumps cache
// counters on exit.
//
// Exit codes distinguish what a wrapping script should do: 0 all served,
// 75 (EX_TEMPFAIL) every failure was RETRYABLE (kOverloaded /
// kUnavailable — transient overload or exhausted recovery; back off and
// re-submit), 1 at least one fatal failure (parse error, invalid query),
// 2 usage. --saturate is a test hook that fills every admission slot
// first, so each query is turned away with the typed kOverloaded.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "exec/cluster.h"
#include "partition/hash_so.h"
#include "rdf/ntriples.h"
#include "server/server.h"
#include "sparql/parser.h"
#include "workload/watdiv.h"

namespace {

struct ServeOptions {
  std::string data_path;
  std::string algorithm = "tdauto";
  int nodes = 10;
  double deadline = -1;  ///< < 0 keeps ServerConfig's default.
  int max_in_flight = 64;
  int max_rows = 20;
  bool stats = false;
  bool saturate = false;
};

/// Exit code for "every failure was transient" (sysexits EX_TEMPFAIL):
/// the caller should back off and re-submit, not page anyone.
constexpr int kExitRetryable = 75;

bool IsRetryable(const parqo::Status& s) {
  return s.code() == parqo::StatusCode::kOverloaded ||
         s.code() == parqo::StatusCode::kUnavailable;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--data=FILE.nt] [--nodes=N] [--deadline=S]\n"
               "          [--algorithm=tdauto|tdcmd|tdcmdp|hgr|msc|dpbushy|"
               "binary]\n"
               "          [--max-in-flight=N] [--max-rows=N] [--stats]\n"
               "          [--saturate]\n"
               "N is an integer >= 1, S a number >= 0 (0: no deadline).\n"
               "Queries are read from stdin, separated by blank lines.\n"
               "Exit: 0 ok, %d all failures retryable, 1 fatal, 2 usage.\n",
               argv0, kExitRetryable);
  return 2;
}

bool ParseArgs(int argc, char** argv, ServeOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const std::string& name) -> const char* {
      std::string prefix = name + "=";
      if (arg.rfind(prefix, 0) != 0) return nullptr;
      return arg.c_str() + prefix.size();
    };
    const char* v = nullptr;
    bool ok = true;
    if ((v = value("--data")) != nullptr) {
      opts->data_path = v;
    } else if ((v = value("--algorithm")) != nullptr) {
      opts->algorithm = v;
    } else if ((v = value("--nodes")) != nullptr) {
      ok = parqo::ParsePositiveInt(v, &opts->nodes);
    } else if ((v = value("--deadline")) != nullptr) {
      ok = parqo::ParseNonNegativeDouble(v, &opts->deadline);
    } else if ((v = value("--max-in-flight")) != nullptr) {
      ok = parqo::ParsePositiveInt(v, &opts->max_in_flight);
    } else if ((v = value("--max-rows")) != nullptr) {
      ok = parqo::ParsePositiveInt(v, &opts->max_rows);
    } else if (arg == "--stats") {
      opts->stats = true;
    } else if (arg == "--saturate") {
      opts->saturate = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

bool PickAlgorithm(const std::string& name, parqo::Algorithm* out) {
  using parqo::Algorithm;
  if (name == "tdauto") *out = Algorithm::kTdAuto;
  else if (name == "tdcmd") *out = Algorithm::kTdCmd;
  else if (name == "tdcmdp") *out = Algorithm::kTdCmdp;
  else if (name == "hgr") *out = Algorithm::kHgrTdCmd;
  else if (name == "msc") *out = Algorithm::kMsc;
  else if (name == "dpbushy") *out = Algorithm::kDpBushy;
  else if (name == "binary") *out = Algorithm::kBinaryDp;
  else return false;
  return true;
}

/// Splits stdin into query texts at blank lines.
std::vector<std::string> ReadQueries() {
  std::vector<std::string> queries;
  std::string current, line;
  while (std::getline(std::cin, line)) {
    bool blank = line.find_first_not_of(" \t\r") == std::string::npos;
    if (blank) {
      if (!current.empty()) queries.push_back(current);
      current.clear();
    } else {
      current += line;
      current += '\n';
    }
  }
  if (!current.empty()) queries.push_back(current);
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage(argv[0]);
  parqo::Algorithm algorithm;
  if (!PickAlgorithm(opts.algorithm, &algorithm)) return Usage(argv[0]);

  parqo::RdfGraph graph = [&] {
    if (opts.data_path.empty()) {
      std::fprintf(stderr, "no --data: generating a WatDiv dataset\n");
      return parqo::GenerateWatdivData(parqo::WatdivDataConfig{});
    }
    auto loaded = parqo::ParseNTriplesFile(opts.data_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", opts.data_path.c_str(),
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(*loaded);
  }();

  parqo::HashSoPartitioner partitioner;
  parqo::Cluster cluster(graph,
                         partitioner.PartitionData(graph, opts.nodes));
  std::fprintf(stderr, "%zu triples on %d nodes (%s partitioning)\n",
               graph.NumTriples(), opts.nodes,
               partitioner.name().c_str());

  parqo::ServerConfig config;
  config.algorithm = algorithm;
  if (opts.deadline >= 0) config.query_deadline_seconds = opts.deadline;
  config.max_in_flight = opts.max_in_flight;
  parqo::QueryServer server(graph, cluster, partitioner, config);

  if (opts.saturate) {
    // Test hook: occupy every admission slot so each served query is
    // rejected with the typed kOverloaded (slots are never released; the
    // process exits right after the query loop).
    int held = 0;
    while (server.admission().TryAdmit()) ++held;
    std::fprintf(stderr, "saturated: holding %d admission slots\n", held);
  }

  int fatal_failures = 0;
  int retryable_failures = 0;
  for (const std::string& text : ReadQueries()) {
    auto parsed = parqo::ParseSparql(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   parsed.status().ToString().c_str());
      ++fatal_failures;
      continue;
    }
    parqo::ServeResult r = server.Serve(parsed->patterns);
    if (!r.status.ok()) {
      if (IsRetryable(r.status)) {
        std::fprintf(stderr, "serve error (retryable): %s\n",
                     r.status.ToString().c_str());
        std::fprintf(stderr,
                     "retry: transient overload/unavailability -- back off "
                     "and re-submit this query\n");
        ++retryable_failures;
      } else {
        std::fprintf(stderr, "serve error: %s\n",
                     r.status.ToString().c_str());
        ++fatal_failures;
      }
      continue;
    }
    std::printf("# signature: %s\n", r.signature.c_str());
    std::printf(
        "# %s%s | optimize %.3f ms | execute %.3f ms | total %.3f ms | "
        "cost %.3g | %zu rows\n",
        r.cache_hit ? "cache hit" : "cache miss",
        r.degraded ? " (degraded)" : "", r.optimize_seconds * 1e3,
        r.execute_seconds * 1e3, r.total_seconds * 1e3, r.plan_cost,
        r.rows.NumRows());
    // Header in the caller's variable spellings, canonical order.
    for (std::size_t k = 0; k < r.var_names.size(); ++k) {
      std::printf("%s?%s", k == 0 ? "" : "\t", r.var_names[k].c_str());
    }
    std::printf("\n");
    const parqo::Dictionary& dict = graph.dict();
    std::size_t shown = 0;
    const auto max_rows = static_cast<std::size_t>(opts.max_rows);
    for (std::size_t row = 0; row < r.rows.NumRows() && shown < max_rows;
         ++row, ++shown) {
      for (std::size_t k = 0; k < r.var_names.size(); ++k) {
        int c = r.rows.ColumnOf(static_cast<parqo::VarId>(k));
        std::printf("%s%s", k == 0 ? "" : "\t",
                    c < 0 ? "-"
                          : dict.Decode(r.rows.At(row, c))
                                .ToNTriples()
                                .c_str());
      }
      std::printf("\n");
    }
    if (r.rows.NumRows() > shown) {
      std::printf("... (%zu more rows)\n", r.rows.NumRows() - shown);
    }
    std::printf("\n");
  }

  if (opts.stats) {
    std::printf(
        "cache: %llu hits, %llu misses, %llu inserts, %llu evictions, "
        "%zu entries; admission: %llu admitted, %llu rejected\n",
        static_cast<unsigned long long>(server.cache().hits()),
        static_cast<unsigned long long>(server.cache().misses()),
        static_cast<unsigned long long>(server.cache().inserts()),
        static_cast<unsigned long long>(server.cache().evictions()),
        server.cache().size(),
        static_cast<unsigned long long>(server.admission().admitted()),
        static_cast<unsigned long long>(server.admission().rejected()));
  }
  if (fatal_failures > 0) return 1;
  return retryable_failures > 0 ? kExitRetryable : 0;
}
