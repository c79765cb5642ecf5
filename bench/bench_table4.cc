// Reproduces Table IV: query optimization time for the fifteen benchmark
// queries (Table III) under TD-Auto, MSC, and DP-Bushy, using exact
// statistics from generated LUBM-like / UniProt-like data and Hash-SO
// locality (the setting shared by all three optimizers in Section V-B).
//
// Expected shape (paper): MSC is the slowest and blows up on the dense
// queries (L9 took 432 s, L10 > 10 h in the paper); DP-Bushy is fast but
// explores little; TD-Auto stays in milliseconds-to-sub-second for every
// query.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "partition/hash_so.h"
#include "query/shape.h"
#include "sparql/parser.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  std::printf("=== Table IV: query optimization time ===\n");
  std::printf(
      "datasets: LUBM-like (%d universities), UniProt-like (%d proteins); "
      "timeout %gs\n\n",
      flags.lubm_universities, flags.uniprot_proteins, flags.timeout);

  LubmConfig lubm_cfg;
  lubm_cfg.universities = flags.lubm_universities;
  RdfGraph lubm = GenerateLubm(lubm_cfg);
  UniprotConfig uni_cfg;
  uni_cfg.proteins = flags.uniprot_proteins;
  RdfGraph uniprot = GenerateUniprot(uni_cfg);
  std::printf("LUBM-like triples:    %s\n",
              WithThousandsSep(lubm.NumTriples()).c_str());
  std::printf("UniProt-like triples: %s\n\n",
              WithThousandsSep(uniprot.NumTriples()).c_str());

  // Table III recap.
  PrintRow("Query", {"shape", "#patterns"});
  PrintRule(12, 2);
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    PrintRow(bq.name,
             {ToString(bq.shape), std::to_string(bq.num_patterns)});
  }
  std::printf("\n");

  HashSoPartitioner hash;
  const std::vector<Algorithm> algorithms{
      Algorithm::kTdAuto, Algorithm::kMsc, Algorithm::kDpBushy};

  PrintRow("Query", {"TD-Auto", "MSC", "DP-Bushy", "(TD-Auto via)"});
  PrintRule(12, 4);
  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    auto parsed = ParseSparql(bq.sparql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", bq.name.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    const RdfGraph& data = bq.lubm ? lubm : uniprot;
    PreparedQuery query(parsed->patterns, hash, StatsFromData(data));

    std::vector<std::string> cells;
    std::string via;
    for (Algorithm algorithm : algorithms) {
      OptimizeResult r = Run(algorithm, query, flags);
      cells.push_back(TimeCell(r, flags));
      if (algorithm == Algorithm::kTdAuto) {
        via = ToString(r.algorithm_used);
      }
    }
    cells.push_back(via);
    PrintRow(bq.name, cells);
  }
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
