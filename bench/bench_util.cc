#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

namespace parqo::bench {

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view name) -> const char* {
      if (!StartsWith(arg, name) || arg.size() <= name.size() ||
          arg[name.size()] != '=') {
        return nullptr;
      }
      return argv[i] + name.size() + 1;
    };
    const char* v = nullptr;
    int seed = 0;
    bool ok = true;
    if ((v = value("--timeout")) != nullptr) {
      ok = ParseNonNegativeDouble(v, &flags.timeout);
    } else if ((v = value("--nodes")) != nullptr) {
      ok = ParsePositiveInt(v, &flags.nodes);
    } else if ((v = value("--lubm-universities")) != nullptr) {
      ok = ParsePositiveInt(v, &flags.lubm_universities);
    } else if ((v = value("--uniprot-proteins")) != nullptr) {
      ok = ParsePositiveInt(v, &flags.uniprot_proteins);
    } else if ((v = value("--watdiv-instances")) != nullptr) {
      ok = ParsePositiveInt(v, &flags.watdiv_instances);
    } else if ((v = value("--repeats")) != nullptr) {
      ok = ParsePositiveInt(v, &flags.repeats);
    } else if ((v = value("--seed")) != nullptr) {
      ok = ParsePositiveInt(v, &seed);
      flags.seed = static_cast<std::uint64_t>(seed);
    } else if ((v = value("--threads")) != nullptr) {
      flags.threads = v;
    } else if ((v = value("--json")) != nullptr) {
      flags.json = v;
    } else if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--faults") {
      flags.faults = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad flag: %s\n"
                   "flags: --timeout=S --nodes=N --lubm-universities=N "
                   "--uniprot-proteins=N --watdiv-instances=N --repeats=N "
                   "--seed=N --threads=CSV --json=PATH --quick --faults\n"
                   "(S a number >= 0, N an integer >= 1)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (flags.quick) {
    flags.timeout = std::min(flags.timeout, 5.0);
    flags.lubm_universities = std::min(flags.lubm_universities, 2);
    flags.uniprot_proteins = std::min(flags.uniprot_proteins, 500);
    flags.watdiv_instances = std::min(flags.watdiv_instances, 3);
    flags.repeats = 1;
  }
  return flags;
}

std::vector<int> ParseThreadList(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos) {
      int t = std::atoi(csv.substr(pos, comma - pos).c_str());
      if (t > 0) out.push_back(t);
    }
    pos = comma + 1;
  }
  return out;
}

std::string TimeCell(const OptimizeResult& result, const Flags& flags) {
  if (result.timed_out) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ">%gs", flags.timeout);
    return buf;
  }
  return FormatSeconds(result.seconds);
}

std::string CountCell(const OptimizeResult& result) {
  if (result.timed_out) return "N/A";
  return WithThousandsSep(result.enumerated);
}

std::string CostCell(const OptimizeResult& result) {
  if (result.timed_out) return "N/A";
  return FormatCostE(result.plan->total_cost);
}

OptimizeOptions CallOptions(const Flags& flags) {
  OptimizeOptions options;
  options.deadline = Deadline::AfterSeconds(flags.timeout);
  options.cost_params.num_nodes = flags.nodes;
  return options;
}

OptimizeResult Run(Algorithm algorithm, const PreparedQuery& query,
                   const Flags& flags) {
  return Optimize(algorithm, query.inputs(), CallOptions(flags));
}

std::unique_ptr<PreparedQuery> Prepare(const GeneratedQuery& query,
                                       const Partitioner& partitioner) {
  return std::make_unique<PreparedQuery>(
      query.patterns, partitioner,
      [&query](const JoinGraph& jg) { return query.MakeStats(jg); });
}

NoLocalityFixture::NoLocalityFixture(const GeneratedQuery& query)
    : jg_(query.patterns),
      index_(LocalQueryIndex::None(jg_.num_tps())),
      estimator_(jg_, query.MakeStats(jg_)) {}

OptimizerInputs NoLocalityFixture::inputs() const {
  OptimizerInputs in;
  in.join_graph = &jg_;
  in.local_index = &index_;
  in.estimator = &estimator_;
  return in;
}

void PrintRow(const std::string& label,
              const std::vector<std::string>& cells, int label_width,
              int cell_width) {
  std::printf("%-*s", label_width, label.c_str());
  for (const std::string& cell : cells) {
    std::printf(" %*s", cell_width, cell.c_str());
  }
  std::printf("\n");
}

void PrintRule(int label_width, int cells, int cell_width) {
  int total = label_width + cells * (cell_width + 1);
  for (int i = 0; i < total; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace parqo::bench
