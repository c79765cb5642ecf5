// Optimizer comparison on a random workload: a miniature of the paper's
// Section V-C study. Generates random queries of a chosen shape and size
// and prints, per algorithm, the optimization time, the number of
// enumerated join operators (search-space size), and the plan cost
// normalized to TD-CMD's optimum.
//
// Usage: optimizer_comparison [star|chain|cycle|tree|dense] [num_tps]
//                             [count]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "workload/random_query.h"

int main(int argc, char** argv) {
  using namespace parqo;

  const std::string shape_name = argc > 1 ? argv[1] : "tree";
  const int num_tps = argc > 2 ? std::atoi(argv[2]) : 10;
  const int count = argc > 3 ? std::atoi(argv[3]) : 5;

  QueryShape shape;
  if (shape_name == "star") {
    shape = QueryShape::kStar;
  } else if (shape_name == "chain") {
    shape = QueryShape::kChain;
  } else if (shape_name == "cycle") {
    shape = QueryShape::kCycle;
  } else if (shape_name == "tree") {
    shape = QueryShape::kTree;
  } else if (shape_name == "dense") {
    shape = QueryShape::kDense;
  } else {
    std::fprintf(stderr,
                 "usage: %s [star|chain|cycle|tree|dense] [num_tps] "
                 "[count]\n",
                 argv[0]);
    return 2;
  }

  const std::vector<std::pair<Algorithm, std::string>> algorithms{
      {Algorithm::kTdCmd, "TD-CMD"},     {Algorithm::kTdCmdp, "TD-CMDP"},
      {Algorithm::kHgrTdCmd, "HGR"},     {Algorithm::kTdAuto, "TD-Auto"},
      {Algorithm::kMsc, "MSC"},          {Algorithm::kDpBushy, "DP-Bushy"},
  };

  std::printf("%d random %s queries with %d patterns (hash locality)\n\n",
              count, shape_name.c_str(), num_tps);

  HashSoPartitioner hash;
  Rng rng(4242);
  for (int i = 0; i < count; ++i) {
    GeneratedQuery q = GenerateRandomQuery(shape, num_tps, rng);
    std::printf("query %d:\n", i);
    std::printf("  %-10s %10s %14s %12s %8s\n", "algorithm", "seconds",
                "enumerated", "plan cost", "ratio");

    double reference = -1;
    for (const auto& [algorithm, name] : algorithms) {
      PreparedQuery prepared(
          q.patterns, hash,
          [&q](const JoinGraph& jg) { return q.MakeStats(jg); });
      OptimizeOptions options;
      options.deadline = Deadline::AfterSeconds(30);
      OptimizeResult r = Optimize(algorithm, prepared.inputs(), options);
      if (r.timed_out) {
        std::printf("  %-10s %10s %14s %12s %8s\n", name.c_str(),
                    "timeout", "-", "-", "-");
        continue;
      }
      if (algorithm == Algorithm::kTdCmd) reference = r.plan->total_cost;
      char ratio[16] = "-";
      if (reference > 0) {
        std::snprintf(ratio, sizeof(ratio), "%.3f",
                      r.plan->total_cost / reference);
      }
      std::printf("  %-10s %9.4fs %14s %12s %8s\n", name.c_str(),
                  r.seconds, WithThousandsSep(r.enumerated).c_str(),
                  FormatCostE(r.plan->total_cost).c_str(), ratio);
    }
    std::printf("\n");
  }
  return 0;
}
