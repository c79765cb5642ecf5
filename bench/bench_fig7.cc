// Reproduces Figure 7: optimization time versus query size (2..30 triple
// patterns) for chain, cycle, tree, and dense queries from the random
// query generator, per algorithm. Cells are mean seconds over --repeats
// queries; "N/A" marks timeouts (the paper cuts curves at 600 s).
//
// Expected shape: TD-CMD is near-flat for chain/cycle (linear amortized
// enumeration), grows steeply on tree/dense; TD-CMDP tracks TD-CMD but
// 2-5x faster on large tree/dense; HGR-TD-CMD stays lowest at large n;
// MSC grows exponentially everywhere; DP-Bushy blows up on chains/cycles
// (generate-then-check splits) while staying fast on dense.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "partition/hash_so.h"

namespace parqo::bench {
namespace {

const std::vector<std::pair<Algorithm, std::string>> kAlgorithms{
    {Algorithm::kTdCmd, "TD-CMD"},     {Algorithm::kTdCmdp, "TD-CMDP"},
    {Algorithm::kHgrTdCmd, "HGR"},     {Algorithm::kMsc, "MSC"},
    {Algorithm::kDpBushy, "DP-Bushy"}, {Algorithm::kTdAuto, "TD-Auto"},
};

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  std::printf("=== Figure 7: optimization time vs query size ===\n");
  std::printf("mean over %d random queries per cell; N/A = >%gs\n\n",
              flags.repeats, flags.timeout);

  const std::vector<std::pair<QueryShape, std::string>> shapes{
      {QueryShape::kChain, "(a) chain"},
      {QueryShape::kCycle, "(b) cycle"},
      {QueryShape::kTree, "(c) tree"},
      {QueryShape::kDense, "(d) dense"},
  };
  std::vector<int> sizes;
  for (int n = 4; n <= (flags.quick ? 12 : 30); n += flags.quick ? 4 : 2) {
    sizes.push_back(n);
  }

  for (const auto& [shape, title] : shapes) {
    std::printf("--- %s ---\n", title.c_str());
    std::vector<std::string> header;
    for (int n : sizes) header.push_back(std::to_string(n));
    PrintRow("algorithm", header, 10, 9);
    PrintRule(10, static_cast<int>(sizes.size()), 9);

    for (const auto& [algorithm, name] : kAlgorithms) {
      std::vector<std::string> cells;
      bool exceeded = false;  // once an algorithm times out, stop growing
      for (int n : sizes) {
        if (exceeded) {
          cells.push_back("N/A");
          continue;
        }
        double sum = 0;
        bool timed_out = false;
        for (int rep = 0; rep < flags.repeats; ++rep) {
          Rng rng(flags.seed + 1000 * n + rep);
          GeneratedQuery q = GenerateRandomQuery(shape, n, rng);
          HashSoPartitioner hash;
          auto query = Prepare(q, hash);
          OptimizeResult r = Run(algorithm, *query, flags);
          sum += r.seconds;
          timed_out |= r.timed_out;
          if (timed_out) break;  // no point burning the budget again
        }
        if (timed_out) {
          cells.push_back("N/A");
          exceeded = true;
        } else {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.4f", sum / flags.repeats);
          cells.push_back(buf);
        }
      }
      PrintRow(name, cells, 10, 9);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
