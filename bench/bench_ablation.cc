// Ablation studies for the design choices DESIGN.md calls out:
//
//   1. TD-CMDP's three pruning rules (Section IV-A) toggled one at a
//      time: how much search-space reduction and plan-quality loss does
//      each rule contribute? Two more rows add TD-Auto's cost bound to
//      TD-CMD and to TD-CMDP: it shrinks the search and must lose
//      nothing, so their ratio against the same rules unbounded reads
//      exactly 1.0000.
//   2. TD-Auto's decision-tree thresholds (Section IV-C): sweep theta_d
//      and lambda_n over a mixed workload and report mean optimization
//      time and mean cost ratio versus exhaustive TD-CMD.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "optimizer/td_auto.h"
#include "optimizer/td_cmd.h"
#include "partition/hash_so.h"
#include "query/shape.h"

namespace parqo::bench {
namespace {

struct RuleConfig {
  std::string name;
  TdCmdRules rules;
  /// The row whose plans the cost ratio is taken against: the same rules
  /// without the cost bound, or -1 for TD-CMD's reference plans.
  int unbounded_row = -1;
};

std::vector<RuleConfig> RuleConfigs() {
  std::vector<RuleConfig> out;
  out.push_back({"none (TD-CMD)", TdCmdRules{}});
  TdCmdRules r1;
  r1.cmd_mode = CmdMode::kCcmdAndBinary;
  out.push_back({"rule1 (ccmd)", r1});
  TdCmdRules r2;
  r2.binary_broadcast_only = true;
  out.push_back({"rule2 (bin-bcast)", r2});
  TdCmdRules r3;
  r3.local_short_circuit = true;
  out.push_back({"rule3 (local)", r3});
  TdCmdRules all;
  all.cmd_mode = CmdMode::kCcmdAndBinary;
  all.binary_broadcast_only = true;
  all.local_short_circuit = true;
  const int all_row = static_cast<int>(out.size());
  out.push_back({"all (TD-CMDP)", all});
  TdCmdRules bounded;
  bounded.cost_bound = true;
  out.push_back({"cost bound", bounded, /*unbounded_row=*/0});
  TdCmdRules all_bounded = all;
  all_bounded.cost_bound = true;
  out.push_back({"TD-CMDP + cost bound", all_bounded, all_row});
  return out;
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  const int kQueriesPerShape = flags.quick ? 3 : 10;

  std::printf("=== Ablation 1: TD-CMDP pruning rules ===\n");
  std::printf(
      "mixed star/tree/dense workload (n=8..12), hash locality; cells: "
      "mean enumerated ops | mean cost ratio vs TD-CMD (cost-bound rows: "
      "vs the same rules unbounded)\n\n");

  // Build the workload once.
  std::vector<GeneratedQuery> workload;
  {
    Rng rng(flags.seed);
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kTree, QueryShape::kDense}) {
      for (int i = 0; i < kQueriesPerShape; ++i) {
        // Sizes 8..12: star queries grow with Bell numbers (Eq. 7), so
        // the exhaustive reference stays tractable.
        workload.push_back(GenerateRandomQuery(
            shape, 8 + 2 * (i % 3), rng));
      }
    }
  }

  HashSoPartitioner hash;

  // Reference costs.
  std::vector<double> reference_costs;
  for (const GeneratedQuery& q : workload) {
    auto query = Prepare(q, hash);
    OptimizeResult r =
        RunTdCmdWithRules(query->inputs(), CallOptions(flags), TdCmdRules{});
    reference_costs.push_back(r.timed_out ? -1 : r.plan->total_cost);
  }

  PrintRow("rules", {"mean ops", "mean ratio", "worst ratio"}, 22);
  PrintRule(22, 3);
  const std::vector<RuleConfig> configs = RuleConfigs();
  // costs[row][query]: each row's plan cost, -1 when it found none.
  std::vector<std::vector<double>> costs(
      configs.size(), std::vector<double>(workload.size(), -1));
  for (std::size_t row = 0; row < configs.size(); ++row) {
    const RuleConfig& cfg = configs[row];
    const std::vector<double>& base =
        cfg.unbounded_row < 0 ? reference_costs : costs[cfg.unbounded_row];
    double ops = 0, ratio_sum = 0, worst = 0;
    int counted = 0;
    for (std::size_t i = 0; i < workload.size(); ++i) {
      if (reference_costs[i] <= 0) continue;
      auto query = Prepare(workload[i], hash);
      OptimizeResult r =
          RunTdCmdWithRules(query->inputs(), CallOptions(flags), cfg.rules);
      if (r.timed_out) continue;
      costs[row][i] = r.plan->total_cost;
      if (base[i] <= 0) continue;
      ops += static_cast<double>(r.enumerated);
      double ratio = r.plan->total_cost / base[i];
      ratio_sum += ratio;
      worst = std::max(worst, ratio);
      ++counted;
    }
    char ops_buf[32], ratio_buf[32], worst_buf[32];
    std::snprintf(ops_buf, sizeof(ops_buf), "%.0f", ops / counted);
    std::snprintf(ratio_buf, sizeof(ratio_buf), "%.4f",
                  ratio_sum / counted);
    std::snprintf(worst_buf, sizeof(worst_buf), "%.4f", worst);
    PrintRow(cfg.name, {ops_buf, ratio_buf, worst_buf}, 22);
  }

  std::printf("\n=== Ablation 2: k-ary vs binary-only plans ===\n");
  std::printf(
      "the paper's core claim: multi-way joins beat binary plans in "
      "MapReduce-like engines. Cells: mean/worst cost ratio of the best "
      "binary-only plan (TriAD's space) vs TD-CMD's k-ary optimum.\n\n");
  {
    PrintRow("shape", {"mean ratio", "worst ratio"}, 10);
    PrintRule(10, 2);
    Rng rng(flags.seed + 7);
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kTree, QueryShape::kDense}) {
      double ratio_sum = 0, worst = 0;
      int counted = 0;
      for (int i = 0; i < kQueriesPerShape; ++i) {
        GeneratedQuery q = GenerateRandomQuery(shape, 10, rng);
        // No locality: isolate the distributed-join question (under hash
        // locality a star is one local join either way).
        NoLocalityFixture fx1(q), fx2(q);
        OptimizeResult kary =
            RunTdCmdWithRules(fx1.inputs(), CallOptions(flags), TdCmdRules{});
        TdCmdRules binary;
        binary.cmd_mode = CmdMode::kBinaryOnly;
        OptimizeResult bin =
            RunTdCmdWithRules(fx2.inputs(), CallOptions(flags), binary);
        if (kary.timed_out || bin.timed_out) continue;
        double ratio = bin.plan->total_cost / kary.plan->total_cost;
        ratio_sum += ratio;
        worst = std::max(worst, ratio);
        ++counted;
      }
      char mean_buf[32], worst_buf[32];
      std::snprintf(mean_buf, sizeof(mean_buf), "%.4f",
                    ratio_sum / counted);
      std::snprintf(worst_buf, sizeof(worst_buf), "%.4f", worst);
      PrintRow(ToString(shape), {mean_buf, worst_buf}, 10);
    }
  }

  std::printf("\n=== Ablation 3: TD-Auto thresholds ===\n");
  std::printf(
      "cells: mean optimization seconds | mean cost ratio vs TD-CMD\n\n");
  PrintRow("thresholds", {"mean secs", "mean ratio"}, 24);
  PrintRule(24, 2);
  for (int theta_d : {3, 5, 8}) {
    for (int lambda_n : {10, 14, 18}) {
      double secs = 0, ratio_sum = 0;
      int counted = 0;
      for (std::size_t i = 0; i < workload.size(); ++i) {
        if (reference_costs[i] <= 0) continue;
        auto query = Prepare(workload[i], hash);
        OptimizeOptions tuned = CallOptions(flags);
        tuned.theta_d = theta_d;
        tuned.lambda_n = lambda_n;
        OptimizeResult r = RunTdAuto(query->inputs(), tuned);
        if (r.timed_out) continue;
        secs += r.seconds;
        ratio_sum += r.plan->total_cost / reference_costs[i];
        ++counted;
      }
      char label[64], secs_buf[32], ratio_buf[32];
      std::snprintf(label, sizeof(label), "theta_d=%d lambda_n=%d",
                    theta_d, lambda_n);
      std::snprintf(secs_buf, sizeof(secs_buf), "%.5f", secs / counted);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%.4f",
                    ratio_sum / counted);
      PrintRow(label, {secs_buf, ratio_buf}, 24);
    }
  }
  return 0;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
