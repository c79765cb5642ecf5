// Plan-identity sweep: every benchmark query (L1-L10, U1-U5) through all
// seven algorithms, with and without the validator, must produce a plan
// whose (cost, shape) is bit-identical to the golden recorded before the
// arena/flat-memo refactor of the enumeration hot path. The golden file
// (plan_identity_golden.inc) was generated from the pre-arena tree with
// PARQO_DUMP_PLAN_IDENTITY=1, so this test is the "before vs after" proof
// that routing candidate construction through the arena and replacing
// the memo tables changed nothing about plan choice.
//
// Regenerating (only legitimate after an intentional cost-model or
// estimator change):
//   PARQO_DUMP_PLAN_IDENTITY=1 ./tests/plan_identity_test  (then redirect
//   stdout to tests/plan_identity_golden.inc)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

struct GoldenEntry {
  const char* query;
  const char* algorithm;
  const char* cost;   // %.17g — round-trips the double exactly
  const char* shape;  // PlanToCompactString
};

const GoldenEntry kGolden[] = {
#include "tests/plan_identity_golden.inc"
    // Sentinel so the array is never empty (dump mode starts from an
    // empty golden file).
    {nullptr, nullptr, nullptr, nullptr},
};

const std::vector<Algorithm> kAllAlgorithms{
    Algorithm::kTdCmd,  Algorithm::kTdCmdp,  Algorithm::kHgrTdCmd,
    Algorithm::kTdAuto, Algorithm::kMsc,     Algorithm::kDpBushy,
    Algorithm::kBinaryDp};

std::string FormatCost(double cost) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", cost);
  return buf;
}

const GoldenEntry* FindGolden(const std::string& query,
                              const std::string& algorithm) {
  for (const GoldenEntry& e : kGolden) {
    if (e.query == nullptr) break;  // sentinel
    if (query == e.query && algorithm == e.algorithm) return &e;
  }
  return nullptr;
}

TEST(PlanIdentityTest, AllAlgorithmsMatchPreArenaGolden) {
  const bool dump = std::getenv("PARQO_DUMP_PLAN_IDENTITY") != nullptr;

  // Same data scale as ParallelDeterminismTest.BenchmarkQueriesOnRealStatistics
  // so statistics (and therefore golden plans) are reproducible.
  LubmConfig lubm_cfg;
  lubm_cfg.universities = 2;
  RdfGraph lubm = GenerateLubm(lubm_cfg);
  UniprotConfig uni_cfg;
  uni_cfg.proteins = 400;
  RdfGraph uniprot = GenerateUniprot(uni_cfg);
  HashSoPartitioner hash;

  for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << bq.name;
    const RdfGraph& data = bq.lubm ? lubm : uniprot;
    PreparedQuery prepared(parsed->patterns, hash, StatsFromData(data));

    for (Algorithm algorithm : kAllAlgorithms) {
      // The validator must not change plan choice: validate off and on
      // must agree. Any divergence from the golden is a hot-path
      // refactor changing plan choice.
      std::string cost, shape;
      for (bool validate : {false, true}) {
        const char* label = validate ? "validate" : "plain";
        OptimizeOptions options;
        options.deadline = Deadline::AfterSeconds(120);
        options.validate = validate;
        OptimizeResult result =
            Optimize(algorithm, prepared.inputs(), options);
        ASSERT_FALSE(result.timed_out)
            << bq.name << " " << ToString(algorithm) << " " << label;
        ASSERT_NE(result.plan, nullptr)
            << bq.name << " " << ToString(algorithm) << " " << label;
        std::string c = FormatCost(result.plan->total_cost);
        std::string s = PlanToCompactString(*result.plan);
        if (cost.empty()) {
          cost = c;
          shape = s;
        } else {
          EXPECT_EQ(c, cost) << bq.name << " " << ToString(algorithm)
                             << " diverges in config " << label;
          EXPECT_EQ(s, shape) << bq.name << " " << ToString(algorithm)
                              << " diverges in config " << label;
        }
      }

      if (dump) {
        std::printf("{\"%s\", \"%s\", \"%s\", \"%s\"},\n", bq.name.c_str(),
                    ToString(algorithm).c_str(), cost.c_str(),
                    shape.c_str());
        continue;
      }
      const GoldenEntry* golden = FindGolden(bq.name, ToString(algorithm));
      ASSERT_NE(golden, nullptr)
          << "no golden for " << bq.name << " " << ToString(algorithm)
          << " — regenerate with PARQO_DUMP_PLAN_IDENTITY=1";
      EXPECT_STREQ(cost.c_str(), golden->cost)
          << bq.name << " " << ToString(algorithm)
          << ": plan cost differs from the pre-arena golden";
      EXPECT_STREQ(shape.c_str(), golden->shape)
          << bq.name << " " << ToString(algorithm)
          << ": plan shape differs from the pre-arena golden";
    }
  }
}

}  // namespace
}  // namespace parqo
