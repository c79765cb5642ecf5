// Reproduces Figure 8: the cumulative frequency distribution of plan cost
// normalized to TD-CMD's optimal plan, per query shape, for the random
// query workload (the paper's own generator: sizes 2..30, three
// cardinality draws each).
//
// Expected shape: TD-CMDP's and TD-Auto's curves hug 1.0 (nearly all
// plans optimal or near-optimal), HGR-TD-CMD is close behind, DP-Bushy
// clearly worse on dense (90% of its dense plans beaten in the paper),
// and MSC has the heaviest tail.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "partition/hash_so.h"

namespace parqo::bench {
namespace {

const std::vector<std::pair<Algorithm, std::string>> kAlgorithms{
    {Algorithm::kTdCmdp, "TD-CMDP"}, {Algorithm::kHgrTdCmd, "HGR"},
    {Algorithm::kMsc, "MSC"},        {Algorithm::kDpBushy, "DP-Bushy"},
    {Algorithm::kTdAuto, "TD-Auto"},
};

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  std::printf("=== Figure 8: CDF of plan cost relative to TD-CMD ===\n");
  std::printf(
      "random queries, sizes 4..%d, %d cardinality draws each; only "
      "queries TD-CMD finishes within %gs enter the universe\n\n",
      flags.quick ? 12 : 16, flags.repeats, flags.timeout);

  const std::vector<std::pair<QueryShape, std::string>> shapes{
      {QueryShape::kChain, "(a) chain"},
      {QueryShape::kCycle, "(b) cycle"},
      {QueryShape::kTree, "(c) tree"},
      {QueryShape::kDense, "(d) dense"},
  };
  // TD-CMD must finish to define the ratio, so the sweep stops at sizes
  // it can optimize exhaustively (the paper applies the same 600 s rule).
  const int max_n = flags.quick ? 12 : 16;

  static const double kBuckets[] = {1.0, 1.01, 1.1, 1.25, 1.5,
                                    2.0, 4.0,  8.0, 1e300};

  for (const auto& [shape, title] : shapes) {
    std::map<std::string, std::vector<double>> ratios;
    std::size_t universe = 0;
    for (int n = 4; n <= max_n; n += 2) {
      for (int rep = 0; rep < flags.repeats; ++rep) {
        Rng rng(flags.seed + 1000 * n + rep);
        GeneratedQuery q = GenerateRandomQuery(shape, n, rng);
        HashSoPartitioner hash;
        auto reference_query = Prepare(q, hash);
        OptimizeResult reference =
            Run(Algorithm::kTdCmd, *reference_query, flags);
        if (reference.timed_out) continue;
        ++universe;
        for (const auto& [algorithm, name] : kAlgorithms) {
          auto query = Prepare(q, hash);
          OptimizeResult r = Run(algorithm, *query, flags);
          if (r.timed_out) continue;
          ratios[name].push_back(r.plan->total_cost /
                                 reference.plan->total_cost);
        }
      }
    }

    std::printf("--- %s (universe: %zu queries) ---\n", title.c_str(),
                universe);
    PrintRow("algorithm",
             {"<=1.0", "1.01", "1.1", "1.25", "1.5", "2", "4", "8", "inf"},
             10, 7);
    PrintRule(10, 9, 7);
    for (const auto& [algorithm, name] : kAlgorithms) {
      std::vector<double>& r = ratios[name];
      std::sort(r.begin(), r.end());
      std::vector<std::string> cells;
      for (double b : kBuckets) {
        std::size_t covered =
            std::upper_bound(r.begin(), r.end(), b + 1e-12) - r.begin();
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%5.1f%%",
                      universe == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(covered) /
                                static_cast<double>(universe));
        cells.push_back(buf);
      }
      PrintRow(name, cells, 10, 7);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
