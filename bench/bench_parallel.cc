// Inter-query optimizer bench: how much faster does the WatDiv batch
// workload (Fig 6's 124 templates x N instances) optimize when
// independent queries are spread over a thread pool, one Optimize() per
// query as a server's cache miss runs it?
//
// Each pass is one ThreadPool::ParallelFor capped at t threads, the
// caller included, sweeping t (--threads=1,2,4,8); t = 1 is a plain
// sequential loop and is the speedup baseline. Every parallel pass is
// cross-checked against the baseline: plan costs must be identical for
// every query (determinism contract). Each query's enumeration is
// single-threaded; parallelism is across queries only.
//
// Every pass re-prepares its queries so no pass inherits another's warm
// cardinality memo. An untimed sequential pass runs first, so the
// baseline is not the process's cold first pass (which read speedups
// above the core count). Each thread count is timed over kRuns passes
// and reports the median wall time with its min and max; speedup is the
// baseline median over the pass median. --json=PATH additionally emits
// the results machine-readable (threads -> seconds/spread/speedup) for
// trend tracking.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "workload/random_query.h"
#include "workload/watdiv.h"

namespace parqo::bench {
namespace {

// Timed passes per thread count; the median is reported.
constexpr int kRuns = 5;

struct PassResult {
  int threads = 1;
  std::vector<double> seconds;  // one per run, sorted
  bool costs_match = true;
  int mismatches = 0;
  double median() const { return seconds[seconds.size() / 2]; }
};

std::vector<std::unique_ptr<PreparedQuery>> PrepareAll(
    const std::vector<GeneratedQuery>& instances,
    const Partitioner& partitioner) {
  std::vector<std::unique_ptr<PreparedQuery>> out;
  out.reserve(instances.size());
  for (const GeneratedQuery& q : instances) {
    out.push_back(Prepare(q, partitioner));
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  const int kTemplates = flags.quick ? 20 : 124;
  std::vector<int> thread_counts = ParseThreadList(flags.threads);
  if (thread_counts.empty() || thread_counts.front() != 1) {
    thread_counts.insert(thread_counts.begin(), 1);
  }

  std::printf("=== bench_parallel: optimizer throughput vs. threads ===\n");
  std::printf(
      "WatDiv batch: %d templates x %d instances; hardware_concurrency=%d\n\n",
      kTemplates, flags.watdiv_instances, ThreadPool::DefaultConcurrency());

  Rng template_rng(flags.seed);
  auto templates = GenerateWatdivTemplates(kTemplates, template_rng);
  Rng instance_rng(flags.seed + 1);
  std::vector<GeneratedQuery> instances;
  for (const WatdivTemplate& tmpl : templates) {
    for (int i = 0; i < flags.watdiv_instances; ++i) {
      instances.push_back(InstantiateWatdivTemplate(tmpl, instance_rng));
    }
  }
  std::printf("batch size: %zu queries\n\n", instances.size());

  HashSoPartitioner hash;

  const std::vector<std::pair<Algorithm, std::string>> kAlgorithms{
      {Algorithm::kTdCmd, "TD-CMD"}, {Algorithm::kTdAuto, "TD-Auto"}};

  std::string json = "{\n";
  char jbuf[256];
  std::snprintf(jbuf, sizeof(jbuf),
                "  \"workload\": {\"templates\": %d, \"instances\": %d, "
                "\"queries\": %zu},\n  \"hardware_concurrency\": %d,\n"
                "  \"runs_per_row\": %d,\n  \"batch\": [\n",
                kTemplates, flags.watdiv_instances, instances.size(),
                ThreadPool::DefaultConcurrency(), kRuns);
  json += jbuf;
  bool first_json_row = true;

  bool all_match = true;
  for (const auto& [algorithm, name] : kAlgorithms) {
    PrintRow(name, {"threads", "seconds", "speedup", "costs"});
    PrintRule(10, 4);

    // One optimize pass at `t` threads over freshly prepared queries:
    // wall seconds, plan costs in batch order.
    auto run_pass = [&](int t, std::vector<double>* costs) {
      // Fresh preparation per pass: no pass benefits from a previous
      // pass's warm cardinality memos.
      auto prepared = PrepareAll(instances, hash);
      std::vector<OptimizeResult> results(prepared.size());
      ThreadPool pool(t);
      Stopwatch watch;
      pool.ParallelFor(
          static_cast<int>(prepared.size()),
          [&](int i) {
            results[i] = Optimize(algorithm, prepared[i]->inputs(),
                                  CallOptions(flags));
          },
          /*max_workers=*/t);
      const double seconds = watch.ElapsedSeconds();
      costs->clear();
      for (const OptimizeResult& r : results) {
        costs->push_back(r.timed_out ? -1.0 : r.plan->total_cost);
      }
      return seconds;
    };

    std::vector<double> baseline_costs;
    run_pass(1, &baseline_costs);  // warm-up, untimed
    double baseline_seconds = 0;
    for (int t : thread_counts) {
      PassResult pass;
      pass.threads = t;
      std::vector<double> costs;
      for (int run = 0; run < kRuns; ++run) {
        pass.seconds.push_back(run_pass(t, &costs));
        for (std::size_t i = 0; i < costs.size(); ++i) {
          if (costs[i] != baseline_costs[i]) {
            pass.costs_match = false;
            ++pass.mismatches;
          }
        }
      }
      std::sort(pass.seconds.begin(), pass.seconds.end());
      if (t == 1) baseline_seconds = pass.median();
      all_match = all_match && pass.costs_match;

      const double speedup =
          pass.median() > 0 ? baseline_seconds / pass.median() : 0;
      char sec[64], spd[32];
      std::snprintf(sec, sizeof(sec), "%.3fs (%.3f-%.3f)", pass.median(),
                    pass.seconds.front(), pass.seconds.back());
      std::snprintf(spd, sizeof(spd), "%.2fx", speedup);
      PrintRow("", {std::to_string(t), sec, spd,
                    pass.costs_match
                        ? "ok"
                        : ("MISMATCH:" + std::to_string(pass.mismatches))});

      std::string runs;
      for (double x : pass.seconds) {
        std::snprintf(jbuf, sizeof(jbuf), "%s%.6f", runs.empty() ? "" : ", ",
                      x);
        runs += jbuf;
      }
      std::snprintf(jbuf, sizeof(jbuf),
                    "%s    {\"algorithm\": \"%s\", \"threads\": %d, "
                    "\"seconds\": %.6f, \"seconds_min\": %.6f, "
                    "\"seconds_max\": %.6f, \"speedup\": %.4f, "
                    "\"costs_match\": %s, \"runs\": [",
                    first_json_row ? "" : ",\n", name.c_str(), t,
                    pass.median(), pass.seconds.front(), pass.seconds.back(),
                    speedup, pass.costs_match ? "true" : "false");
      json += jbuf;
      json += runs + "]}";
      first_json_row = false;
    }
    std::printf("\n");
  }
  json += "\n  ],\n";
  json += std::string("  \"costs_match\": ") + (all_match ? "true" : "false") +
          "\n}\n";

  std::printf("determinism: parallel plan costs %s sequential baseline\n",
              all_match ? "identical to" : "DIVERGED from");

  if (!flags.json.empty()) {
    if (FILE* f = std::fopen(flags.json.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("json written to %s\n", flags.json.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
      return 1;
    }
  }
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
