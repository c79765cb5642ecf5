// Shared plumbing for the paper-reproduction bench binaries: flag parsing,
// dataset construction, query preparation, and table formatting. Each
// bench binary regenerates one table or figure of Section V; see
// EXPERIMENTS.md for the index and how to read the output.

#ifndef PARQO_BENCH_BENCH_UTIL_H_
#define PARQO_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/local_query_index.h"
#include "workload/random_query.h"

namespace parqo::bench {

struct Flags {
  /// Per-call optimizer deadline in seconds. The paper's cutoff is 600 s;
  /// the default here keeps a full bench sweep to minutes (pass
  /// --timeout=600 to match the paper exactly).
  double timeout = 30;
  int nodes = 10;              ///< Simulated cluster size (paper: 10).
  int lubm_universities = 8;   ///< LUBM scale.
  int uniprot_proteins = 3000; ///< UniProt scale.
  int watdiv_instances = 20;   ///< Instances per template (paper: 100).
  int repeats = 3;             ///< Random queries per configuration.
  std::uint64_t seed = 2017;
  bool quick = false;          ///< Shrink sweeps for smoke runs.
  /// bench_main: after each fault-free execution, re-run the same plan
  /// under a seeded FaultPlan and record the recovery overhead.
  bool faults = false;
  /// bench_parallel: comma-separated worker counts to sweep.
  std::string threads = "1,2,4,8";
  /// bench_parallel: write machine-readable results here ("" = don't).
  std::string json;
};

/// Parses "1,2,4" into {1, 2, 4}; ignores empty fields.
std::vector<int> ParseThreadList(const std::string& csv);

/// Parses --name=value flags; an unknown flag or a value that is not a
/// number in its range exits 2 with usage.
Flags ParseFlags(int argc, char** argv);

/// Options for one optimizer call: the flags' cluster size and a deadline
/// --timeout seconds from now (a Deadline is absolute, so build one per
/// call).
OptimizeOptions CallOptions(const Flags& flags);

/// "0.123s", or ">30s" when the run timed out.
std::string TimeCell(const OptimizeResult& result, const Flags& flags);
/// "4,495", or "N/A" when the run timed out.
std::string CountCell(const OptimizeResult& result);
/// "3.12E4", or "N/A" when the run timed out.
std::string CostCell(const OptimizeResult& result);

/// Runs one algorithm under CallOptions(flags).
OptimizeResult Run(Algorithm algorithm, const PreparedQuery& query,
                   const Flags& flags);

/// PreparedQuery from a generated query (synthetic statistics) under a
/// partitioner.
std::unique_ptr<PreparedQuery> Prepare(const GeneratedQuery& query,
                                       const Partitioner& partitioner);

/// Optimizer inputs with no data locality at all (pure enumeration
/// studies; every multi-pattern subquery needs a distributed join).
class NoLocalityFixture {
 public:
  explicit NoLocalityFixture(const GeneratedQuery& query);
  OptimizerInputs inputs() const;

 private:
  JoinGraph jg_;
  LocalQueryIndex index_;
  CardinalityEstimator estimator_;
};

/// Fixed-width row printer: first column `label_width` wide, the rest
/// `cell_width`.
void PrintRow(const std::string& label,
              const std::vector<std::string>& cells, int label_width = 12,
              int cell_width = 12);

void PrintRule(int label_width, int cells, int cell_width = 12);

}  // namespace parqo::bench

#endif  // PARQO_BENCH_BENCH_UTIL_H_
