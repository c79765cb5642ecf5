// Serving-layer bench: replay a WatDiv template stream through the
// QueryServer and measure what the plan cache buys end to end.
//
// Setup: an executable WatDiv dataset on a simulated cluster, the 124
// query templates (--quick: 24), and a stream of `instances` events per
// template. Every event is a scrambled instance — variables renamed,
// patterns permuted, entity constants re-drawn — so any cache hit is the
// canonicalizer's doing, never string equality. Two arrival orders:
// "uniform" cycles templates evenly; "skewed" concentrates most events on
// few templates (the realistic endpoint shape).
//
// Three passes per distribution:
//   serial      - every event cold: canonicalize, prepare statistics,
//                 optimize, execute. No cache. The per-query baseline.
//   concurrent  - the same stream through QueryServer::ServeConcurrent
//                 with --clients sessions sharing the plan cache. Every
//                 served plan is compared bit-for-bit (compact rendering
//                 + %.17g cost) against the serial pass's plan for that
//                 signature, and result rows must carry the same
//                 order-independent multiset fingerprint as that event's
//                 serial rows.
//   faults      - the concurrent pass again under a seeded FaultPlan
//                 (PR 4 layer): every session must return rows identical
//                 to the fault-free pass or a clean typed error.
//
// --json=PATH writes BENCH_serve.json (schema validated by CI's
// bench-smoke job): per-distribution cache hit rate, p50/p99 end-to-end
// latency serial vs concurrent, and the identity/fault verdicts.
//
// --faults additionally runs the self-healing resilience sweep
// (DESIGN.md section 16) on a fixed query: a sick-node stream (the
// breaker must trip within its configured threshold, after which
// sessions route around the node with zero mid-query crash detections),
// a straggler stream served hedged vs un-hedged (hedged p99 must not
// exceed un-hedged p99; rows bit-identical to clean), and a retry storm
// under a fixed cluster-wide RetryBudget (total retries across all
// sessions <= capacity). Results land in the JSON's "resilience"
// section, with per-session recovery/hedge/quarantine counters printed.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "server/server.h"
#include "server/signature.h"
#include "workload/watdiv.h"

namespace parqo::bench {
namespace {

std::uint64_t ChaosSeed(std::uint64_t fallback) {
  // Read once from main() before any worker thread exists; nothing in the
  // process calls setenv, so the getenv data race mt-unsafe guards
  // against cannot occur here.
  const char* env = std::getenv("PARQO_CHAOS_SEED");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Scrambles one event: renames variables, permutes patterns, re-draws
/// the trailing number of every entity constant. Structure (and thus the
/// signature) is untouched.
std::vector<TriplePattern> ScrambleEvent(
    const std::vector<TriplePattern>& patterns, int entities, Rng& rng) {
  std::map<std::string, std::string> names;
  for (const TriplePattern& tp : patterns) {
    for (const std::string& v : tp.Variables()) {
      if (!names.count(v)) {
        std::string name = "v";
        name += std::to_string(rng.Next() % 1000000);
        name += "_";
        name += std::to_string(names.size());
        names[v] = std::move(name);
      }
    }
  }
  std::vector<TriplePattern> out = patterns;
  for (TriplePattern& tp : out) {
    for (PatternTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (t->IsVar()) {
        t->var = names.at(t->var);
      } else if (t != &tp.p) {
        // Re-draw ".../entity/<Class><num>" constants: same signature
        // (the value is parameterized out), different cache-irrelevant
        // binding.
        std::string& lex = t->term.lexical;
        std::size_t end = lex.size();
        while (end > 0 && std::isdigit(static_cast<unsigned char>(
                              lex[end - 1]))) {
          --end;
        }
        if (end < lex.size()) {
          lex = lex.substr(0, end) +
                std::to_string(rng.Uniform(0, entities - 1));
        }
      }
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Next() % i]);
  }
  return out;
}

struct LatencyStats {
  double p50_ms = 0, p99_ms = 0, mean_ms = 0, total_s = 0;
};

LatencyStats Summarize(std::vector<double> seconds, double total_s) {
  LatencyStats s;
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  auto pct = [&](double p) {
    std::size_t i = static_cast<std::size_t>(p * (seconds.size() - 1));
    return seconds[i] * 1e3;
  };
  s.p50_ms = pct(0.5);
  s.p99_ms = pct(0.99);
  double sum = 0;
  for (double v : seconds) sum += v;
  s.mean_ms = sum / seconds.size() * 1e3;
  s.total_s = total_s;
  return s;
}

/// What the serial cold pass learned about one signature: the golden
/// plan identity (rows are golden per event, not per signature).
struct Golden {
  std::string plan_compact;
  std::string cost_bits;
};

std::string CostBits(double cost) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", cost);
  return buf;
}

/// Order-independent multiset fingerprint of a result table over the
/// canonical VarIds 0..num_vars-1: per-row FNV-1a folded with two
/// commutative reductions plus the row count. This replaces
/// materializing a std::set of row vectors — WatDiv templates that
/// return millions of rows made that the bench's memory bound (tens of
/// GB across the event stream), not anything in the serving layer.
struct RowsFp {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  bool operator!=(const RowsFp& o) const {
    return count != o.count || sum != o.sum || xr != o.xr;
  }
};

RowsFp FingerprintRows(const BindingTable& t, int num_vars) {
  RowsFp fp;
  std::vector<int> cols(static_cast<std::size_t>(num_vars));
  for (VarId v = 0; v < num_vars; ++v) cols[v] = t.ColumnOf(v);
  for (std::size_t r = 0; r < t.NumRows(); ++r) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int c : cols) {
      std::uint64_t x =
          c < 0 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(t.At(r, c));
      for (int b = 0; b < 8; ++b) {
        h ^= (x >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
      }
    }
    ++fp.count;
    fp.sum += h;
    fp.xr ^= h;
  }
  return fp;
}

/// The --faults self-healing sweep: one verdict per scenario, plus the
/// numbers the acceptance bars are stated in.
struct ResilienceReport {
  // Sick-node stream.
  int sick_sessions = 0;
  int breaker_trip_session = 0;  ///< 1-based session that tripped it.
  int failure_threshold = 0;
  std::uint64_t post_trip_crash_detections = 0;
  int post_trip_quarantined_sessions = 0;
  bool sick_rows_match = true;
  // Straggler stream, hedged vs un-hedged.
  double unhedged_p99_ms = 0;
  double hedged_p99_ms = 0;
  std::uint64_t hedge_launches = 0;
  std::uint64_t hedge_wins = 0;
  bool hedge_rows_match = true;
  // Retry storm under a shared budget.
  int storm_sessions = 0;
  std::uint64_t budget_capacity = 0;
  std::uint64_t retries_acquired = 0;
  std::uint64_t budget_denied = 0;
  int storm_typed_errors = 0;
  bool storm_rows_match = true;

  bool ok() const {
    return breaker_trip_session > 0 &&
           breaker_trip_session <= failure_threshold &&
           post_trip_crash_detections == 0 && sick_rows_match &&
           hedged_p99_ms <= unhedged_p99_ms && hedge_rows_match &&
           retries_acquired <= budget_capacity && storm_rows_match;
  }
};

/// Runs the three seeded resilience scenarios against a fixed query (the
/// first mid-size template) so every session's rows are comparable to
/// one clean fingerprint.
ResilienceReport RunResilience(const RdfGraph& graph, const Cluster& cluster,
                               const Partitioner& partitioner,
                               const OptimizeOptions& options,
                               const std::vector<WatdivTemplate>& templates,
                               const Flags& flags) {
  ResilienceReport rep;
  std::vector<TriplePattern> query = templates[0].patterns;
  for (const WatdivTemplate& t : templates) {
    if (t.patterns.size() >= 3 && t.patterns.size() <= 5) {
      query = t.patterns;
      break;
    }
  }

  auto fingerprint = [](const ServeResult& r) {
    return FingerprintRows(r.rows, static_cast<int>(r.var_names.size()));
  };

  // --- Scenario 1: sick node. Sessions stream at a persistently failing
  // node; the breaker must trip within failure_threshold sessions, after
  // which every session quarantines the node pre-emptively.
  {
    ServerConfig config;
    config.algorithm = Algorithm::kTdAuto;
    config.options = options;
    config.query_deadline_seconds = flags.timeout;
    config.health.cooldown_seconds = 1e6;  // stays open for the sweep
    QueryServer server(graph, cluster, partitioner, config);
    rep.failure_threshold = NodeHealthRegistry::kFailureThreshold;

    ServeResult clean = server.Serve(query);
    if (!clean.status.ok()) {
      std::fprintf(stderr, "resilience: clean serve failed: %s\n",
                   clean.status.ToString().c_str());
      rep.sick_rows_match = false;
      return rep;
    }
    RowsFp clean_fp = fingerprint(clean);

    const int sick_node = 1;
    FaultPlan fault(flags.nodes);
    fault.SickNode(sick_node);
    FaultScope scope(&fault);
    rep.sick_sessions = rep.failure_threshold + 6;
    std::printf("resilience: sick node %d, %d sessions\n", sick_node,
                rep.sick_sessions);
    for (int s = 1; s <= rep.sick_sessions; ++s) {
      ServeResult r = server.Serve(query);
      bool tripped = server.health()->state(sick_node) == BreakerState::kOpen;
      if (rep.breaker_trip_session == 0 && tripped) {
        rep.breaker_trip_session = s;
      }
      std::uint64_t crashes = 0;
      for (std::uint64_t f : r.exec_metrics.node_failures) crashes += f;
      bool quarantined = !r.exec_metrics.quarantined_nodes.empty();
      if (rep.breaker_trip_session > 0 && s > rep.breaker_trip_session) {
        rep.post_trip_crash_detections += crashes;
        if (quarantined) ++rep.post_trip_quarantined_sessions;
      }
      if (r.status.ok()) {
        if (fingerprint(r) != clean_fp) rep.sick_rows_match = false;
      } else {
        rep.sick_rows_match = false;  // a sick node must be recoverable
      }
      std::printf(
          "  session %2d: recoveries=%llu crashes_detected=%llu "
          "quarantined=%s breaker=%s\n",
          s,
          static_cast<unsigned long long>(r.exec_metrics.recovery_attempts),
          static_cast<unsigned long long>(crashes), quarantined ? "yes" : "no",
          tripped ? "open" : "closed");
    }
  }

  // --- Scenario 2: straggler, hedged vs un-hedged. The same slow-node
  // fault plan served by a health-less server (pays the delay) and by a
  // warmed health-enabled server (hedges around it).
  {
    const int slow_node = flags.nodes - 1;
    const double delay = 0.005;
    const int kSessions = 12;

    auto p99 = [](std::vector<double> lat) {
      std::sort(lat.begin(), lat.end());
      return lat[static_cast<std::size_t>(0.99 * (lat.size() - 1))] * 1e3;
    };

    ServerConfig unhedged_config;
    unhedged_config.algorithm = Algorithm::kTdAuto;
    unhedged_config.options = options;
    unhedged_config.query_deadline_seconds = flags.timeout;
    unhedged_config.enable_health = false;
    QueryServer unhedged(graph, cluster, partitioner, unhedged_config);

    ServerConfig hedged_config = unhedged_config;
    hedged_config.enable_health = true;
    QueryServer hedged(graph, cluster, partitioner, hedged_config);

    ServeResult clean = hedged.Serve(query);  // warms cache AND EWMAs
    RowsFp clean_fp = fingerprint(clean);
    ServeResult warm = hedged.Serve(query);  // cache-hit timing sample
    (void)warm;
    ServeResult unhedged_clean = unhedged.Serve(query);
    (void)unhedged_clean;

    FaultPlan fault(flags.nodes);
    fault.SlowNode(slow_node, delay);
    FaultScope scope(&fault);
    std::vector<double> unhedged_lat, hedged_lat;
    for (int s = 0; s < kSessions; ++s) {
      ServeResult r = unhedged.Serve(query);
      if (!r.status.ok() || fingerprint(r) != clean_fp) {
        rep.hedge_rows_match = false;
      }
      unhedged_lat.push_back(r.total_seconds);
    }
    for (int s = 0; s < kSessions; ++s) {
      ServeResult r = hedged.Serve(query);
      if (!r.status.ok() || fingerprint(r) != clean_fp) {
        rep.hedge_rows_match = false;
      }
      rep.hedge_launches += r.exec_metrics.hedged_ops;
      rep.hedge_wins += r.exec_metrics.hedge_wins;
      hedged_lat.push_back(r.total_seconds);
    }
    rep.unhedged_p99_ms = p99(unhedged_lat);
    rep.hedged_p99_ms = p99(hedged_lat);
    std::printf(
        "resilience: straggler node %d (+%.1f ms/op): p99 %.3f ms "
        "un-hedged vs %.3f ms hedged (%llu hedges, %llu wins)\n",
        slow_node, delay * 1e3, rep.unhedged_p99_ms, rep.hedged_p99_ms,
        static_cast<unsigned long long>(rep.hedge_launches),
        static_cast<unsigned long long>(rep.hedge_wins));
  }

  // --- Scenario 3: retry storm against a fixed cluster-wide budget.
  // Concurrent sessions retry through a very lossy network; the TOTAL
  // number of retries across all of them is capped by the bucket.
  {
    ServerConfig config;
    config.algorithm = Algorithm::kTdAuto;
    config.options = options;
    config.query_deadline_seconds = flags.timeout;
    config.enable_health = false;  // isolate the budget
    config.retry_budget = 16;
    config.num_threads = 4;
    QueryServer server(graph, cluster, partitioner, config);
    rep.budget_capacity = config.retry_budget;

    ServeResult clean = server.Serve(query);
    RowsFp clean_fp = fingerprint(clean);

    FaultPlan fault(flags.nodes);
    fault.DropShipments(0.5, ChaosSeed(flags.seed));
    rep.storm_sessions = 24;
    std::vector<std::vector<TriplePattern>> stream(
        static_cast<std::size_t>(rep.storm_sessions), query);
    std::vector<char> verdict(stream.size(), 0);  // 1 ok, 2 typed, 3 bad
    {
      FaultScope scope(&fault);
      server.ServeConcurrent(stream, 4, [&](std::size_t e, ServeResult r) {
        if (r.status.ok()) {
          verdict[e] = fingerprint(r) != clean_fp ? 3 : 1;
        } else {
          verdict[e] = r.status.code() == StatusCode::kUnavailable ||
                               r.status.code() == StatusCode::kOverloaded
                           ? 2
                           : 3;
        }
      });
    }
    for (char v : verdict) {
      if (v == 2) ++rep.storm_typed_errors;
      if (v == 3) rep.storm_rows_match = false;
    }
    rep.retries_acquired = server.retry_budget()->acquired();
    rep.budget_denied = server.retry_budget()->denied();
    std::printf(
        "resilience: retry storm: %llu/%llu budget tokens drawn across %d "
        "sessions (%llu denied, %d typed errors)\n\n",
        static_cast<unsigned long long>(rep.retries_acquired),
        static_cast<unsigned long long>(rep.budget_capacity),
        rep.storm_sessions, static_cast<unsigned long long>(rep.budget_denied),
        rep.storm_typed_errors);
  }
  return rep;
}

struct DistributionReport {
  std::string name;
  int events = 0;
  LatencyStats serial;
  LatencyStats concurrent;
  std::uint64_t hits = 0, misses = 0, evictions = 0, overloaded = 0;
  double hit_rate = 0;
  bool plans_identical = true;
  bool rows_identical = true;
  int fault_sessions = 0, fault_ok = 0, fault_typed_errors = 0;
  bool fault_rows_match = true;
};

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  const int kTemplates = flags.quick ? 24 : 124;
  // >= 10 events per template keeps the best-case hit rate >= 90%, the
  // acceptance bar for template replay.
  const int kEventsPerTemplate = 12;
  const int kClients = 4;
  const int kEntities = flags.quick ? 120 : 300;

  std::printf("=== bench_serve: plan-cache serving vs per-query optimize ===\n");
  std::printf("%d templates, %d events each, %d clients, %d nodes\n\n",
              kTemplates, kEventsPerTemplate, kClients, flags.nodes);

  WatdivDataConfig data_config;
  data_config.entities_per_class = kEntities;
  data_config.density = 1.2;
  data_config.seed = flags.seed;
  RdfGraph graph = GenerateWatdivData(data_config);
  HashSoPartitioner partitioner;
  Cluster cluster(graph, partitioner.PartitionData(graph, flags.nodes));
  std::printf("data: %zu triples on %d nodes\n\n", graph.NumTriples(),
              flags.nodes);

  Rng template_rng(flags.seed);
  auto templates = GenerateWatdivTemplates(kTemplates, template_rng);
  const int kEvents = kTemplates * kEventsPerTemplate;

  OptimizeOptions options;
  options.cost_params.num_nodes = flags.nodes;

  std::vector<DistributionReport> reports;
  for (const std::string& dist : {std::string("skewed"),
                                  std::string("uniform")}) {
    DistributionReport report;
    report.name = dist;
    report.events = kEvents;

    // Build the stream. Uniform cycles templates; skewed draws template
    // u^3-biased so a few templates dominate (hot keys), while every
    // template still appears at least once (cold tail).
    Rng stream_rng(flags.seed + (dist == "skewed" ? 11 : 23));
    std::vector<std::vector<TriplePattern>> stream;
    stream.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      int t;
      if (dist == "uniform" || i < kTemplates) {
        t = i % kTemplates;
      } else {
        double u =
            static_cast<double>(stream_rng.Next() % 1000000) / 1000000.0;
        t = static_cast<int>(u * u * u * kTemplates) % kTemplates;
      }
      stream.push_back(
          ScrambleEvent(templates[t].patterns, kEntities, stream_rng));
    }

    // --- serial cold baseline: optimize + execute every event, no cache.
    // Plan identity is golden per *signature*; rows are golden per
    // *event* — two events of one template share a plan but carry
    // re-drawn constants, so their rows differ legitimately.
    std::map<std::string, Golden> golden;
    std::vector<RowsFp> event_rows(stream.size());
    std::vector<double> serial_lat;
    serial_lat.reserve(kEvents);
    Stopwatch serial_watch;
    for (std::size_t e = 0; e < stream.size(); ++e) {
      const auto& event = stream[e];
      Stopwatch event_watch;
      CanonicalBgp canon = CanonicalizeBgp(event);
      PreparedQuery prepared(canon.patterns, partitioner,
                             StatsFromData(graph));
      OptimizeResult r =
          Optimize(Algorithm::kTdAuto, prepared.inputs(), CallOptions(flags));
      if (r.timed_out) {
        std::fprintf(stderr, "serial optimize timed out\n");
        return 1;
      }
      Executor exec(cluster, prepared.join_graph(), options.cost_params);
      ExecMetrics m;
      auto rows = exec.Execute(*r.plan, &m);
      if (!rows.ok()) {
        std::fprintf(stderr, "serial execute failed: %s\n",
                     rows.status().ToString().c_str());
        return 1;
      }
      serial_lat.push_back(event_watch.ElapsedSeconds());
      event_rows[e] =
          FingerprintRows(*rows, static_cast<int>(canon.var_names.size()));
      auto [it, inserted] = golden.emplace(canon.signature, Golden{});
      if (inserted) {
        it->second.plan_compact = PlanToCompactString(*r.plan);
        it->second.cost_bits = CostBits(r.plan->total_cost);
      }
    }
    report.serial = Summarize(serial_lat, serial_watch.ElapsedSeconds());

    // --- concurrent cached pass through the server.
    ServerConfig config;
    config.algorithm = Algorithm::kTdAuto;
    config.options = options;
    config.query_deadline_seconds = flags.timeout;
    config.num_threads = kClients;
    config.max_in_flight = kClients * 4;
    QueryServer server(graph, cluster, partitioner, config);
    // Streaming consumption: each session's result table is verified and
    // dropped on the worker thread that produced it; only per-index
    // scalars survive the pass. Slots are distinct per index, so the
    // concurrent writes below are race-free.
    std::vector<double> lat_by_event(stream.size(), -1);
    std::vector<char> was_overloaded(stream.size(), 0);
    std::vector<char> plan_mismatch(stream.size(), 0);
    std::vector<char> rows_mismatch(stream.size(), 0);
    Stopwatch concurrent_watch;
    server.ServeConcurrent(
        stream, kClients, [&](std::size_t e, ServeResult r) {
          if (!r.status.ok()) {
            if (r.status.code() == StatusCode::kOverloaded) {
              was_overloaded[e] = 1;
            }
            return;
          }
          lat_by_event[e] = r.total_seconds;
          const Golden& g = golden.at(r.signature);
          if (PlanToCompactString(*r.plan) != g.plan_compact ||
              CostBits(r.plan->total_cost) != g.cost_bits) {
            plan_mismatch[e] = 1;
          }
          if (FingerprintRows(r.rows, static_cast<int>(r.var_names.size())) !=
              event_rows[e]) {
            rows_mismatch[e] = 1;
          }
        });
    double concurrent_total = concurrent_watch.ElapsedSeconds();

    std::vector<double> concurrent_lat;
    concurrent_lat.reserve(stream.size());
    for (std::size_t e = 0; e < stream.size(); ++e) {
      if (was_overloaded[e]) ++report.overloaded;
      if (lat_by_event[e] >= 0) concurrent_lat.push_back(lat_by_event[e]);
      if (plan_mismatch[e]) report.plans_identical = false;
      if (rows_mismatch[e]) report.rows_identical = false;
    }
    report.concurrent = Summarize(concurrent_lat, concurrent_total);
    report.hits = server.cache().hits();
    report.misses = server.cache().misses();
    report.evictions = server.cache().evictions();
    report.hit_rate =
        report.hits + report.misses == 0
            ? 0
            : static_cast<double>(report.hits) /
                  static_cast<double>(report.hits + report.misses);

    // --- fault pass: same stream, same (already warm) server, under a
    // seeded fault plan. Chaos invariant per session.
    FaultPlanConfig fault_config;
    fault_config.crash_probability = 0.3;
    fault_config.drop_probability = 0.1;
    FaultPlan fault(ChaosSeed(flags.seed), flags.nodes, fault_config);
    // 0 = pending, 1 = ok+rows match, 2 = typed error, 3 = invariant broken.
    std::vector<char> fault_verdict(stream.size(), 0);
    {
      FaultScope scope(&fault);
      server.ServeConcurrent(
          stream, kClients, [&](std::size_t e, ServeResult r) {
            if (r.status.ok()) {
              fault_verdict[e] =
                  FingerprintRows(r.rows,
                                  static_cast<int>(r.var_names.size())) !=
                          event_rows[e]
                      ? 3
                      : 1;
            } else {
              fault_verdict[e] =
                  r.status.code() != StatusCode::kUnavailable &&
                          r.status.code() != StatusCode::kOverloaded
                      ? 3
                      : 2;
            }
          });
    }
    for (char v : fault_verdict) {
      ++report.fault_sessions;
      if (v == 1) ++report.fault_ok;
      if (v == 2) ++report.fault_typed_errors;
      if (v == 3) report.fault_rows_match = false;
    }

    std::printf("--- %s stream (%d events) ---\n", dist.c_str(), kEvents);
    PrintRow("pass", {"p50 ms", "p99 ms", "mean ms", "total s"}, 12, 10);
    PrintRule(12, 4, 10);
    auto row = [](const LatencyStats& s) {
      char a[32], b[32], c[32], d[32];
      std::snprintf(a, sizeof(a), "%.3f", s.p50_ms);
      std::snprintf(b, sizeof(b), "%.3f", s.p99_ms);
      std::snprintf(c, sizeof(c), "%.3f", s.mean_ms);
      std::snprintf(d, sizeof(d), "%.2f", s.total_s);
      return std::vector<std::string>{a, b, c, d};
    };
    PrintRow("serial", row(report.serial), 12, 10);
    PrintRow("concurrent", row(report.concurrent), 12, 10);
    std::printf(
        "cache: %llu hits / %llu misses (%.1f%% hit rate), %llu evictions, "
        "%llu overloaded\nplans identical to cold optimize: %s; rows "
        "identical: %s\nfaults: %d sessions -> %d ok, %d typed errors, "
        "invariant %s\n\n",
        static_cast<unsigned long long>(report.hits),
        static_cast<unsigned long long>(report.misses),
        report.hit_rate * 100.0,
        static_cast<unsigned long long>(report.evictions),
        static_cast<unsigned long long>(report.overloaded),
        report.plans_identical ? "yes" : "NO",
        report.rows_identical ? "yes" : "NO", report.fault_sessions,
        report.fault_ok, report.fault_typed_errors,
        report.fault_rows_match ? "held" : "VIOLATED");
    reports.push_back(std::move(report));
  }

  ResilienceReport resilience;
  bool ran_resilience = false;
  if (flags.faults) {
    std::printf("--- resilience sweep (--faults) ---\n");
    resilience = RunResilience(graph, cluster, partitioner, options,
                               templates, flags);
    ran_resilience = true;
    std::printf(
        "resilience verdict: breaker trip session %d (threshold %d), "
        "post-trip crash detections %llu, hedged p99 %s un-hedged, "
        "retries %llu <= budget %llu: %s\n\n",
        resilience.breaker_trip_session, resilience.failure_threshold,
        static_cast<unsigned long long>(
            resilience.post_trip_crash_detections),
        resilience.hedged_p99_ms <= resilience.unhedged_p99_ms ? "<=" : ">",
        static_cast<unsigned long long>(resilience.retries_acquired),
        static_cast<unsigned long long>(resilience.budget_capacity),
        resilience.ok() ? "OK" : "VIOLATED");
  }

  bool all_ok = true;
  for (const DistributionReport& r : reports) {
    all_ok = all_ok && r.plans_identical && r.rows_identical &&
             r.fault_rows_match;
  }
  if (ran_resilience) all_ok = all_ok && resilience.ok();

  if (!flags.json.empty()) {
    std::string json = "{\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"workload\": {\"templates\": %d, \"events_per_template\""
                  ": %d, \"clients\": %d, \"nodes\": %d},\n"
                  "  \"distributions\": {\n",
                  kTemplates, kEventsPerTemplate, kClients, flags.nodes);
    json += buf;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const DistributionReport& r = reports[i];
      std::snprintf(
          buf, sizeof(buf),
          "    \"%s\": {\n"
          "      \"events\": %d,\n"
          "      \"serial\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"mean_ms\": %.4f, \"total_s\": %.3f},\n"
          "      \"concurrent\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"mean_ms\": %.4f, \"total_s\": %.3f},\n",
          r.name.c_str(), r.events, r.serial.p50_ms, r.serial.p99_ms,
          r.serial.mean_ms, r.serial.total_s, r.concurrent.p50_ms,
          r.concurrent.p99_ms, r.concurrent.mean_ms, r.concurrent.total_s);
      json += buf;
      std::snprintf(
          buf, sizeof(buf),
          "      \"cache\": {\"hits\": %llu, \"misses\": %llu, "
          "\"evictions\": %llu, \"hit_rate\": %.4f},\n"
          "      \"overloaded\": %llu,\n"
          "      \"plans_identical\": %s,\n"
          "      \"rows_identical\": %s,\n"
          "      \"faults\": {\"sessions\": %d, \"ok\": %d, "
          "\"typed_errors\": %d, \"rows_match\": %s}\n    }%s\n",
          static_cast<unsigned long long>(r.hits),
          static_cast<unsigned long long>(r.misses),
          static_cast<unsigned long long>(r.evictions), r.hit_rate,
          static_cast<unsigned long long>(r.overloaded),
          r.plans_identical ? "true" : "false",
          r.rows_identical ? "true" : "false", r.fault_sessions, r.fault_ok,
          r.fault_typed_errors, r.fault_rows_match ? "true" : "false",
          i + 1 < reports.size() ? "," : "");
      json += buf;
    }
    json += "  }";
    if (ran_resilience) {
      const ResilienceReport& r = resilience;
      json += ",\n  \"resilience\": {\n";
      std::snprintf(
          buf, sizeof(buf),
          "    \"sick_node\": {\"sessions\": %d, \"failure_threshold\": %d, "
          "\"breaker_trip_session\": %d, \"post_trip_crash_detections\": "
          "%llu, \"post_trip_quarantined_sessions\": %d, \"rows_match\": "
          "%s},\n",
          r.sick_sessions, r.failure_threshold, r.breaker_trip_session,
          static_cast<unsigned long long>(r.post_trip_crash_detections),
          r.post_trip_quarantined_sessions,
          r.sick_rows_match ? "true" : "false");
      json += buf;
      std::snprintf(
          buf, sizeof(buf),
          "    \"hedging\": {\"unhedged_p99_ms\": %.4f, \"hedged_p99_ms\": "
          "%.4f, \"hedge_launches\": %llu, \"hedge_wins\": %llu, "
          "\"rows_match\": %s},\n",
          r.unhedged_p99_ms, r.hedged_p99_ms,
          static_cast<unsigned long long>(r.hedge_launches),
          static_cast<unsigned long long>(r.hedge_wins),
          r.hedge_rows_match ? "true" : "false");
      json += buf;
      std::snprintf(
          buf, sizeof(buf),
          "    \"retry_storm\": {\"sessions\": %d, \"budget_capacity\": "
          "%llu, \"retries_acquired\": %llu, \"budget_denied\": %llu, "
          "\"typed_errors\": %d, \"within_budget\": %s, \"rows_match\": "
          "%s},\n    \"ok\": %s\n  }",
          r.storm_sessions, static_cast<unsigned long long>(r.budget_capacity),
          static_cast<unsigned long long>(r.retries_acquired),
          static_cast<unsigned long long>(r.budget_denied),
          r.storm_typed_errors,
          r.retries_acquired <= r.budget_capacity ? "true" : "false",
          r.storm_rows_match ? "true" : "false", r.ok() ? "true" : "false");
      json += buf;
    }
    json += "\n}\n";
    FILE* f = std::fopen(flags.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", flags.json.c_str());
  }

  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace parqo::bench

int main(int argc, char** argv) { return parqo::bench::Main(argc, argv); }
