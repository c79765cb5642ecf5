// Micro-benchmarks (google-benchmark) for the hot paths the paper's
// complexity analysis talks about: cbd/cmd enumeration throughput (the
// claimed linear amortized cost per operator), the Theta(|V_Q|)
// local-query check, cardinality estimation, and the executor's hash
// join. Run any binary with --benchmark_filter=... as usual.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/fault.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "exec/binding_table.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "exec/join_kernel.h"
#include "exec/node_store.h"
#include "optimizer/cbd_enumerator.h"
#include "optimizer/cmd_enumerator.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "optimizer/td_cmd_core.h"
#include "partition/hash_so.h"
#include "partition/local_query_index.h"
#include "query/query_graph.h"
#include "stats/data_stats.h"
#include "stats/estimator.h"
#include "storage/compressed_index.h"
#include "storage/permutation_index.h"
#include "workload/random_query.h"
#include "workload/watdiv.h"

namespace parqo {
namespace {

GeneratedQuery MakeQuery(QueryShape shape, int n) {
  Rng rng(1234 + n);
  return GenerateRandomQuery(shape, n, rng);
}

void BM_CbdEnumeration(benchmark::State& state, QueryShape shape) {
  GeneratedQuery q = MakeQuery(shape, static_cast<int>(state.range(0)));
  JoinGraph jg(q.patterns);
  std::uint64_t emitted = 0;
  for (auto _ : state) {
    for (VarId vj : jg.join_vars()) {
      if (jg.Ntp(vj).Count() < 2) continue;
      EnumerateCbds(jg, jg.AllTps(), vj, [&](TpSet a, TpSet b) {
        benchmark::DoNotOptimize(a);
        benchmark::DoNotOptimize(b);
        ++emitted;
        return true;
      });
    }
  }
  state.counters["cbds/s"] = benchmark::Counter(
      static_cast<double>(emitted), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_CbdEnumeration, chain, QueryShape::kChain)
    ->Arg(8)
    ->Arg(16)
    ->Arg(30);
BENCHMARK_CAPTURE(BM_CbdEnumeration, star, QueryShape::kStar)
    ->Arg(8)
    ->Arg(12);
BENCHMARK_CAPTURE(BM_CbdEnumeration, dense, QueryShape::kDense)
    ->Arg(8)
    ->Arg(12);

void BM_CmdEnumeration(benchmark::State& state, QueryShape shape,
                       CmdMode mode) {
  GeneratedQuery q = MakeQuery(shape, static_cast<int>(state.range(0)));
  JoinGraph jg(q.patterns);
  std::uint64_t emitted = 0;
  for (auto _ : state) {
    EnumerateCmds(jg, jg.AllTps(), mode,
                  [&](std::span<const TpSet> parts, VarId vj) {
                    benchmark::DoNotOptimize(parts);
                    benchmark::DoNotOptimize(vj);
                    ++emitted;
                    return true;
                  });
  }
  state.counters["cmds/s"] = benchmark::Counter(
      static_cast<double>(emitted), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_CmdEnumeration, chain_all, QueryShape::kChain,
                  CmdMode::kAll)
    ->Arg(16)
    ->Arg(30);
BENCHMARK_CAPTURE(BM_CmdEnumeration, star_all, QueryShape::kStar,
                  CmdMode::kAll)
    ->Arg(8)
    ->Arg(12);
BENCHMARK_CAPTURE(BM_CmdEnumeration, star_pruned, QueryShape::kStar,
                  CmdMode::kCcmdAndBinary)
    ->Arg(8)
    ->Arg(12);
BENCHMARK_CAPTURE(BM_CmdEnumeration, dense_all, QueryShape::kDense,
                  CmdMode::kAll)
    ->Arg(8)
    ->Arg(10);

void BM_LocalQueryCheck(benchmark::State& state) {
  GeneratedQuery q =
      MakeQuery(QueryShape::kDense, static_cast<int>(state.range(0)));
  JoinGraph jg(q.patterns);
  QueryGraph qg(jg);
  HashSoPartitioner hash;
  LocalQueryIndex index(qg, hash);
  Rng rng(7);
  std::vector<TpSet> probes;
  for (int i = 0; i < 64; ++i) {
    probes.push_back(
        TpSet(rng.Next() & jg.AllTps().bits()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.IsLocal(probes[i++ & 63]));
  }
}
BENCHMARK(BM_LocalQueryCheck)->Arg(8)->Arg(16)->Arg(30);

void BM_CardinalityEstimation(benchmark::State& state) {
  GeneratedQuery q =
      MakeQuery(QueryShape::kTree, static_cast<int>(state.range(0)));
  JoinGraph jg(q.patterns);
  for (auto _ : state) {
    // Fresh estimator per iteration: measures the memoized derivation of
    // all prefixes, not a hash lookup.
    CardinalityEstimator est(jg, q.MakeStats(jg));
    benchmark::DoNotOptimize(est.Cardinality(jg.AllTps()));
  }
}
BENCHMARK(BM_CardinalityEstimation)->Arg(8)->Arg(16)->Arg(30);

// Hook-dispatch cost in the hottest recursion: TdCmdCore's leaf/local
// hooks used to be std::function (one indirect call per memo miss); they
// are now template parameters. The two variants below run the identical
// full TD-CMD optimization, differing only in how the hooks are passed —
// the delta is the dispatch overhead bought back by the refactor. The
// estimator is shared (warm after the first iteration) in both, so the
// comparison isolates call dispatch.
struct TdCmdHookFixture {
  explicit TdCmdHookFixture(int n)
      : q(MakeQuery(QueryShape::kChain, n)),
        jg(q.patterns),
        index(LocalQueryIndex::None(jg.num_tps())),
        est(jg, q.MakeStats(jg)),
        builder(est, CostModel()) {}
  GeneratedQuery q;
  JoinGraph jg;
  LocalQueryIndex index;
  CardinalityEstimator est;
  PlanBuilder builder;
};

void BM_TdCmdHooksFunctor(benchmark::State& state) {
  TdCmdHookFixture fx(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TdCmdCore core(
        fx.jg, fx.builder, TdCmdRules{},
        [&](Arena& a, int tp) { return fx.builder.ScanIn(a, tp); },
        [&](TpSet s) { return fx.index.IsLocal(s); },
        [&](Arena& a, TpSet s) { return fx.builder.LocalJoinAllIn(a, s); });
    benchmark::DoNotOptimize(core.Run());
  }
}
BENCHMARK(BM_TdCmdHooksFunctor)->Arg(16)->Arg(30);

void BM_TdCmdHooksStdFunction(benchmark::State& state) {
  TdCmdHookFixture fx(static_cast<int>(state.range(0)));
  std::function<const PlanCandidate*(Arena&, int)> leaf =
      [&](Arena& a, int tp) { return fx.builder.ScanIn(a, tp); };
  std::function<bool(TpSet)> is_local = [&](TpSet s) {
    return fx.index.IsLocal(s);
  };
  std::function<const PlanCandidate*(Arena&, TpSet)> local =
      [&](Arena& a, TpSet s) { return fx.builder.LocalJoinAllIn(a, s); };
  for (auto _ : state) {
    TdCmdCore core(fx.jg, fx.builder, TdCmdRules{}, leaf, is_local, local);
    benchmark::DoNotOptimize(core.Run());
  }
}
BENCHMARK(BM_TdCmdHooksStdFunction)->Arg(16)->Arg(30);

// Allocation strategy of the enumeration hot path (DESIGN.md §12): the
// cost of one discarded binary-join candidate, which is what Algorithm 1
// churns per considered division. BM_ArenaAlloc prices the arena node —
// a bump allocation with the two children stored inline (plus a Reset
// every 4096 nodes, the steady state of a chunked run). BM_SharedPtrAlloc
// prices what the enumeration used to do: make_shared the node and give
// it a heap-backed two-element children vector, all torn back down
// through refcounts when the candidate loses. The arena side must stay
// comfortably >= 2x faster.
void BM_ArenaAlloc(benchmark::State& state) {
  Arena arena;
  const PlanCandidate leaf{};
  std::uint64_t n = 0;
  for (auto _ : state) {
    PlanCandidate* c = arena.New<PlanCandidate>();
    c->kind = PlanNode::Kind::kJoin;
    c->num_children = 2;
    c->inline_children[0] = &leaf;
    c->inline_children[1] = &leaf;
    benchmark::DoNotOptimize(c);
    if ((++n & 4095) == 0) arena.Reset();
  }
}
BENCHMARK(BM_ArenaAlloc);

void BM_SharedPtrAlloc(benchmark::State& state) {
  const PlanNodePtr leaf = std::make_shared<PlanNode>();
  for (auto _ : state) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanNode::Kind::kJoin;
    node->children = {leaf, leaf};
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_SharedPtrAlloc);

// End-to-end candidate churn: per iteration, build the scans of an
// n-pattern chain and fold them into a left-deep join tree, then throw
// the whole tree away — the per-division work Algorithm 1 repeats
// millions of times on a dense query. The arena variant resets between
// iterations; the shared_ptr variant frees the tree through refcounts.
// The estimator is warm in both, so the delta is pure allocation.
void BM_CandidateChurnArena(benchmark::State& state) {
  TdCmdHookFixture fx(static_cast<int>(state.range(0)));
  fx.est.Cardinality(fx.jg.AllTps());  // warm the estimator memo
  Arena arena;
  for (auto _ : state) {
    arena.Reset();
    const PlanCandidate* acc = fx.builder.ScanIn(arena, 0);
    for (int tp = 1; tp < fx.jg.num_tps(); ++tp) {
      const PlanCandidate* children[2] = {acc,
                                          fx.builder.ScanIn(arena, tp)};
      acc = fx.builder.JoinIn(arena, JoinMethod::kRepartition,
                              fx.jg.SharedJoinVars(acc->tps,
                                                   TpSet::Singleton(tp))[0],
                              children);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CandidateChurnArena)->Arg(8)->Arg(16);

void BM_CandidateChurnSharedPtr(benchmark::State& state) {
  TdCmdHookFixture fx(static_cast<int>(state.range(0)));
  fx.est.Cardinality(fx.jg.AllTps());
  for (auto _ : state) {
    PlanNodePtr acc = fx.builder.Scan(0);
    for (int tp = 1; tp < fx.jg.num_tps(); ++tp) {
      VarId vj =
          fx.jg.SharedJoinVars(acc->tps, TpSet::Singleton(tp))[0];
      acc = fx.builder.Join(JoinMethod::kRepartition, vj,
                            {acc, fx.builder.Scan(tp)});
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CandidateChurnSharedPtr)->Arg(8)->Arg(16);

// Memo-probe cost: the flat open-addressed table against the
// unordered_map it replaced, both preloaded with every connected subchain
// of an n-pattern chain (the key distribution a real memo sees) and
// probed with a 75% hit / 25% miss mix.
std::vector<TpSet> MemoProbeKeys(int n) {
  std::vector<TpSet> keys;
  for (int lo = 0; lo < n; ++lo) {
    TpSet s;
    for (int hi = lo; hi < n; ++hi) {
      s.Add(hi);
      keys.push_back(s);
    }
  }
  return keys;
}

std::vector<TpSet> MemoProbeMix(const std::vector<TpSet>& keys, int n) {
  Rng rng(42);
  std::vector<TpSet> probes;
  for (int i = 0; i < 256; ++i) {
    if (rng.Uniform(0, 3) == 0) {
      // Guaranteed miss: bit n is never set in a stored key.
      probes.push_back(TpSet(rng.Next() | (std::uint64_t{1} << n)));
    } else {
      probes.push_back(
          keys[rng.Uniform(0, static_cast<int>(keys.size()) - 1)]);
    }
  }
  return probes;
}

void BM_FlatMemoProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<TpSet> keys = MemoProbeKeys(n);
  const PlanCandidate dummy{};
  FlatTpSetMap<const PlanCandidate*> map;
  for (TpSet k : keys) map.EmplaceFirstWins(k, &dummy);
  std::vector<TpSet> probes = MemoProbeMix(keys, n);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(probes[i++ & 255]));
  }
}
BENCHMARK(BM_FlatMemoProbe)->Arg(16)->Arg(30);

void BM_UnorderedMemoProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<TpSet> keys = MemoProbeKeys(n);
  const PlanCandidate dummy{};
  std::unordered_map<TpSet, const PlanCandidate*, TpSetHash> map;
  for (TpSet k : keys) map.emplace(k, &dummy);
  std::vector<TpSet> probes = MemoProbeMix(keys, n);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probes[i++ & 255]));
  }
}
BENCHMARK(BM_UnorderedMemoProbe)->Arg(16)->Arg(30);

// The fault layer's contract (common/fault.h): with no FaultScope active
// the executor's per-work-item probe is a single acquire load of a null
// pointer, so production runs pay nothing for the recovery machinery.
// Compare BM_FaultProbeDisabled against BM_FaultProbeBaseline to read
// that cost; BM_FaultProbeEnabled prices a live BeginNodeOp on a plan
// with no scheduled faults (the common case inside a chaos run).
void BM_FaultProbeBaseline(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_FaultProbeBaseline);

void BM_FaultProbeDisabled(benchmark::State& state) {
  for (auto _ : state) {
    FaultPlan* plan = ActiveFaultPlan();
    benchmark::DoNotOptimize(plan);
    if (plan != nullptr) {
      benchmark::DoNotOptimize(plan->BeginNodeOp(0));
    }
  }
}
BENCHMARK(BM_FaultProbeDisabled);

void BM_FaultProbeEnabled(benchmark::State& state) {
  FaultPlan plan(4);
  FaultScope scope(&plan);
  int node = 0;
  for (auto _ : state) {
    FaultPlan* active = ActiveFaultPlan();
    benchmark::DoNotOptimize(active);
    if (active != nullptr) {
      benchmark::DoNotOptimize(active->BeginNodeOp(node));
      node = (node + 1) & 3;
    }
  }
}
BENCHMARK(BM_FaultProbeEnabled);

// ---------------------------------------------------------------------------
// Vectorized execution kernels (DESIGN.md section 13): each pair prices
// the batch primitive against the row-at-a-time machinery it replaced.

// Two joinable tables sharing exactly one variable; ~`dup` build rows per
// key so probe chains have realistic length.
struct JoinInputs {
  BindingTable left{std::vector<VarId>{0, 1}};
  BindingTable right{std::vector<VarId>{1, 2}};
};
JoinInputs MakeJoinInputs(int rows, int dup) {
  Rng rng(71);
  JoinInputs in;
  const TermId keys = static_cast<TermId>(rows / dup + 1);
  for (int r = 0; r < rows; ++r) {
    std::vector<TermId> lrow{static_cast<TermId>(r + 1),
                             static_cast<TermId>(rng.Uniform(1, keys))};
    std::vector<TermId> rrow{static_cast<TermId>(rng.Uniform(1, keys)),
                             static_cast<TermId>(r + 1)};
    in.left.AppendRow(lrow);
    in.right.AppendRow(rrow);
  }
  return in;
}

// Flat open-addressed probe vs unordered_multimap probe over the same
// single-key build side: the per-probe cost of the join table itself.
void BM_JoinProbeFlat(benchmark::State& state) {
  JoinInputs in = MakeJoinInputs(static_cast<int>(state.range(0)), 8);
  SingleKeyJoinTable table;
  table.Build(in.left.Column(1).data(), in.left.NumRows());
  const std::vector<TermId>& probe = in.right.Column(0);
  std::uint64_t matches = 0;
  for (auto _ : state) {
    for (TermId k : probe) {
      table.ForEachMatch(k, [&](std::uint32_t r) {
        benchmark::DoNotOptimize(r);
        ++matches;
      });
    }
  }
  state.counters["matches/s"] = benchmark::Counter(
      static_cast<double>(matches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JoinProbeFlat)->Arg(4096)->Arg(65536);

void BM_JoinProbeMultimap(benchmark::State& state) {
  JoinInputs in = MakeJoinInputs(static_cast<int>(state.range(0)), 8);
  const std::vector<TermId>& build = in.left.Column(1);
  std::unordered_multimap<std::uint64_t, std::uint32_t> table;
  table.reserve(build.size());
  for (std::uint32_t r = 0; r < build.size(); ++r) {
    table.emplace(JoinKeyHash(build[r]), r);
  }
  const std::vector<TermId>& probe = in.right.Column(0);
  std::uint64_t matches = 0;
  for (auto _ : state) {
    for (TermId k : probe) {
      auto [lo, hi] = table.equal_range(JoinKeyHash(k));
      for (auto it = lo; it != hi; ++it) {
        if (build[it->second] != k) continue;
        benchmark::DoNotOptimize(it->second);
        ++matches;
      }
    }
  }
  state.counters["matches/s"] = benchmark::Counter(
      static_cast<double>(matches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JoinProbeMultimap)->Arg(4096)->Arg(65536);

// Column-batched append (AppendFrom) vs per-row AppendRow for the same
// gather-free copy, the shape of broadcast gathers and the final gather.
void BM_BatchAppendColumn(benchmark::State& state) {
  JoinInputs in = MakeJoinInputs(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    BindingTable dst(in.left.schema());
    dst.AppendFrom(in.left);
    benchmark::DoNotOptimize(dst.NumRows());
  }
}
BENCHMARK(BM_BatchAppendColumn)->Arg(4096)->Arg(65536);

void BM_BatchAppendRow(benchmark::State& state) {
  JoinInputs in = MakeJoinInputs(static_cast<int>(state.range(0)), 8);
  const BindingTable& src = in.left;
  std::vector<TermId> row(src.num_cols());
  for (auto _ : state) {
    BindingTable dst(src.schema());
    for (std::size_t r = 0; r < src.NumRows(); ++r) {
      for (int c = 0; c < src.num_cols(); ++c) row[c] = src.At(r, c);
      dst.AppendRow(row);
    }
    benchmark::DoNotOptimize(dst.NumRows());
  }
}
BENCHMARK(BM_BatchAppendRow)->Arg(4096)->Arg(65536);

// The single-key specialization vs the generic multi-key kernel on the
// same single-key join: what the TermId fast path is worth end to end.
void BM_SingleKeyJoinSpecialized(benchmark::State& state) {
  JoinInputs in = MakeJoinInputs(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    BindingTable out = BatchHashJoin(in.left, in.right);
    benchmark::DoNotOptimize(out.NumRows());
  }
}
BENCHMARK(BM_SingleKeyJoinSpecialized)->Arg(4096)->Arg(65536);

void BM_SingleKeyJoinGeneric(benchmark::State& state) {
  JoinInputs in = MakeJoinInputs(static_cast<int>(state.range(0)), 8);
  BatchJoinOptions opts;
  opts.force_generic_kernel = true;
  for (auto _ : state) {
    BindingTable out = BatchHashJoin(in.left, in.right, opts);
    benchmark::DoNotOptimize(out.NumRows());
  }
}
BENCHMARK(BM_SingleKeyJoinGeneric)->Arg(4096)->Arg(65536);

// ---------------------------------------------------------------------------
// Compressed storage kernels (DESIGN.md section 17): page decode, seek,
// and ordered-merge cost against the flat-vector machinery they replace.

std::vector<IndexKey> MakeSortedKeys(int n) {
  Rng rng(2017);
  std::vector<IndexKey> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys.push_back(IndexKey{static_cast<TermId>(rng.Uniform(1, 64)),
                            static_cast<TermId>(rng.Uniform(1, 256)),
                            static_cast<TermId>(rng.Uniform(1, 1 << 20))});
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Full-range decode through the tagged-varbyte pages vs a plain memcpy of
// the same keys: the decompression tax per key, to be weighed against the
// ~3-4x footprint reduction the pages buy.
void BM_PageDecode(benchmark::State& state) {
  std::vector<IndexKey> keys = MakeSortedKeys(static_cast<int>(state.range(0)));
  CompressedKeyIndex idx;
  idx.Build(keys);
  const IndexKey lo{0, 0, 0};
  const IndexKey hi{kMaxTermId, kMaxTermId, kMaxTermId};
  std::uint64_t decoded = 0;
  for (auto _ : state) {
    idx.ScanRange(lo, hi, [&](const IndexKey& k) {
      benchmark::DoNotOptimize(k);
      ++decoded;
    });
  }
  state.counters["keys/s"] = benchmark::Counter(
      static_cast<double>(decoded), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PageDecode)->Arg(4096)->Arg(65536);

void BM_PageMemcpy(benchmark::State& state) {
  std::vector<IndexKey> keys = MakeSortedKeys(static_cast<int>(state.range(0)));
  std::vector<IndexKey> page(kLeafEntries);
  std::uint64_t decoded = 0;
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < keys.size(); begin += kLeafEntries) {
      const std::size_t n = std::min(kLeafEntries, keys.size() - begin);
      std::memcpy(page.data(), keys.data() + begin, n * sizeof(IndexKey));
      benchmark::DoNotOptimize(page.data());
      decoded += n;
    }
  }
  state.counters["keys/s"] = benchmark::Counter(
      static_cast<double>(decoded), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PageMemcpy)->Arg(4096)->Arg(65536);

// Range-count seek through the page directory (decode at most two
// boundary pages) vs equal_range over the uncompressed sorted vector —
// the operation behind every CountPattern statistics probe.
void BM_IndexSeek(benchmark::State& state) {
  std::vector<IndexKey> keys = MakeSortedKeys(static_cast<int>(state.range(0)));
  CompressedKeyIndex idx;
  idx.Build(keys);
  Rng rng(5);
  std::vector<TermId> probes(256);
  for (TermId& p : probes) p = static_cast<TermId>(rng.Uniform(1, 64));
  std::size_t i = 0;
  for (auto _ : state) {
    const TermId k1 = probes[i++ & 255];
    benchmark::DoNotOptimize(idx.CountRange(
        IndexKey{k1, 0, 0}, IndexKey{k1, kMaxTermId, kMaxTermId}));
  }
}
BENCHMARK(BM_IndexSeek)->Arg(4096)->Arg(65536);

void BM_VectorLowerBound(benchmark::State& state) {
  std::vector<IndexKey> keys = MakeSortedKeys(static_cast<int>(state.range(0)));
  Rng rng(5);
  std::vector<TermId> probes(256);
  for (TermId& p : probes) p = static_cast<TermId>(rng.Uniform(1, 64));
  std::size_t i = 0;
  for (auto _ : state) {
    const TermId k1 = probes[i++ & 255];
    auto lo = std::lower_bound(keys.begin(), keys.end(), IndexKey{k1, 0, 0});
    auto hi = std::upper_bound(
        lo, keys.end(), IndexKey{k1, kMaxTermId, kMaxTermId});
    benchmark::DoNotOptimize(hi - lo);
  }
}
BENCHMARK(BM_VectorLowerBound)->Arg(4096)->Arg(65536);

// Filtered-scan access paths (DESIGN.md sections 13 and 17): N keys per
// range, spread evenly over one predicate's twenty-page range, answered
// by a run of cursor seeks or by one decode of the range that filters
// every entry. A key on the subject, the range's sort column, seeks PSO
// and the decode merges against the sorted keys; a key on the object
// seeks POS and the decode probes a KeySet. Each row is counted, not
// written, so only the access path is timed. `decoded` is index entries
// decoded per scan. The scan assumes a seek costs kBlockEntries / 2
// entries per key and a decode the range's entries; the crossover where
// seek time reaches decode time checks that assumption (EXPERIMENTS.md,
// "Scans cost what they return").

constexpr TermId kScanPredicate = 3;
constexpr TermId kScanSubjects = 20 * kLeafEntries;

const PermutationIndex& FilteredScanIndex() {
  static const PermutationIndex* index = [] {
    std::vector<Triple> triples;
    for (TermId s = 1; s <= kScanSubjects; ++s) {
      // 8192 distinct objects, two or three rows each.
      triples.push_back({s, kScanPredicate, s * 7919 % 8192 + 1});
      triples.push_back({s, kScanPredicate + 1, s});
      triples.push_back({s, kScanPredicate - 1, s});
    }
    // parqo-lint: allow(naked-new) process-lifetime benchmark fixture
    return new PermutationIndex(triples);
  }();
  return *index;
}

std::vector<TermId> SpreadKeys(std::size_t n, TermId domain) {
  std::vector<TermId> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<TermId>(1 + i * domain / n));
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// range(0): keys; range(1): 1 = keys on the sorted subject, 0 = on the
// object; range(2): 1 = seek, 0 = decode.
void BM_FilteredScan(benchmark::State& state) {
  const PermutationIndex& index = FilteredScanIndex();
  const bool sorted = state.range(1) != 0;
  const bool seek = state.range(2) != 0;
  const std::vector<TermId> keys = SpreadKeys(
      static_cast<std::size_t>(state.range(0)), sorted ? kScanSubjects : 8192);
  const KeySet set(keys);
  const CompressedKeyIndex& pso = index.perm(Perm::kPso);
  const CompressedKeyIndex& pos = index.perm(Perm::kPos);
  const IndexKey lo{kScanPredicate, 0, 0};
  const IndexKey hi{kScanPredicate, kMaxTermId, kMaxTermId};
  std::uint64_t rows = 0;
  std::uint64_t decoded = 0;
  std::uint64_t scans = 0;
  for (auto _ : state) {
    if (seek) {
      CompressedKeyIndex::Seeker seeker(sorted ? pso : pos);
      for (TermId k : keys) {
        seeker.Scan({kScanPredicate, k, 0},
                    {kScanPredicate, k, kMaxTermId},
                    [&](const IndexKey&) { ++rows; });
      }
      decoded += seeker.decoded();
    } else if (sorted) {
      const TermId* cur = keys.data();
      const TermId* end = cur + keys.size();
      decoded += pso.ScanRange(lo, hi, [&](const IndexKey& k) {
        cur = std::lower_bound(cur, end, k.k2);
        if (cur != end && *cur == k.k2) ++rows;
      });
    } else {
      decoded += pso.ScanRange(lo, hi, [&](const IndexKey& k) {
        if (set.Contains(k.k3)) ++rows;
      });
    }
    ++scans;
  }
  benchmark::DoNotOptimize(rows);
  state.counters["decoded"] =
      static_cast<double>(decoded) / static_cast<double>(scans);
  state.counters["rows"] =
      static_cast<double>(rows) / static_cast<double>(scans);
}
BENCHMARK(BM_FilteredScan)
    ->ArgsProduct({{1, 4, 16, 64, 256, 640, 1024, 2048, 4096},
                   {1, 0},
                   {1, 0}});

// Ordered-input join: the merge kernel (two forward cursors, no build
// table) against the hash kernel it supplants when both inputs arrive
// sorted on the shared variable. Same inputs, bit-identical outputs.
JoinInputs MakeSortedJoinInputs(int rows, int dup) {
  Rng rng(71);
  JoinInputs in;
  const TermId nkeys = static_cast<TermId>(rows / dup + 1);
  std::vector<TermId> lk(static_cast<std::size_t>(rows));
  std::vector<TermId> rk(static_cast<std::size_t>(rows));
  for (TermId& k : lk) k = static_cast<TermId>(rng.Uniform(1, nkeys));
  for (TermId& k : rk) k = static_cast<TermId>(rng.Uniform(1, nkeys));
  std::sort(lk.begin(), lk.end());
  std::sort(rk.begin(), rk.end());
  for (int r = 0; r < rows; ++r) {
    std::vector<TermId> lrow{static_cast<TermId>(r + 1),
                             lk[static_cast<std::size_t>(r)]};
    std::vector<TermId> rrow{rk[static_cast<std::size_t>(r)],
                             static_cast<TermId>(r + 1)};
    in.left.AppendRow(lrow);
    in.right.AppendRow(rrow);
  }
  in.left.SetSortedBy(1);
  in.right.SetSortedBy(1);
  return in;
}

void BM_MergeJoin(benchmark::State& state) {
  JoinInputs in = MakeSortedJoinInputs(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    BindingTable out = BatchMergeJoin(in.left, in.right);
    benchmark::DoNotOptimize(out.NumRows());
  }
}
BENCHMARK(BM_MergeJoin)->Arg(4096)->Arg(65536);

void BM_HashJoinProbe(benchmark::State& state) {
  JoinInputs in = MakeSortedJoinInputs(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    BindingTable out = BatchHashJoin(in.left, in.right);
    benchmark::DoNotOptimize(out.NumRows());
  }
}
BENCHMARK(BM_HashJoinProbe)->Arg(4096)->Arg(65536);

void BM_BindingTableDeduplicate(benchmark::State& state) {
  Rng rng(9);
  BindingTable base({0, 1, 2});
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<TermId> row{
        static_cast<TermId>(rng.Uniform(1, 64)),
        static_cast<TermId>(rng.Uniform(1, 64)),
        static_cast<TermId>(rng.Uniform(1, 1024))};
    base.AppendRow(row);
  }
  for (auto _ : state) {
    BindingTable copy = base;
    copy.Deduplicate();
    benchmark::DoNotOptimize(copy.NumRows());
  }
}
BENCHMARK(BM_BindingTableDeduplicate)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------------
// Fixed cost per simulated node (DESIGN.md section 13, "Scratch
// ownership"): one light WatDiv plan (T3, parqo_report's drill-down
// template, on perfbench's watdiv_explode data) executed warm on a
// 10-node and on a 1-node cluster. Both run the same plan over the same
// triples, so `ratio` is what the nine extra nodes' per-operator fixed
// costs add; Eq. 3 charges them nothing.

void BM_ExecuteTenNodesVsOne(benchmark::State& state) {
  WatdivDataConfig config;
  config.entities_per_class = 120;
  config.density = 1.1;
  config.seed = 7;
  const RdfGraph graph = GenerateWatdivData(config);
  Rng rng(2017);
  std::vector<TriplePattern> patterns;
  for (const WatdivTemplate& t : GenerateWatdivTemplates(124, rng)) {
    if (t.id == 3) patterns = t.patterns;
  }
  HashSoPartitioner hash;
  PreparedQuery pq(patterns, hash, StatsFromData(graph));
  OptimizeOptions options;
  options.cost_params.num_nodes = 10;
  PlanNodePtr plan = Optimize(Algorithm::kTdAuto, pq.inputs(), options).plan;
  const Cluster ten(graph, hash.PartitionData(graph, 10));
  const Cluster one(graph, hash.PartitionData(graph, 1));
  Executor on_ten(ten, pq.join_graph(), options.cost_params);
  Executor on_one(one, pq.join_graph(), options.cost_params);
  // Each side keeps its scratch between Executes, as the server does.
  ExecScratch ten_scratch, one_scratch;
  using Clock = std::chrono::steady_clock;
  double ten_s = 0, one_s = 0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(on_ten.Execute(*plan, nullptr, &ten_scratch));
    const Clock::time_point t1 = Clock::now();
    benchmark::DoNotOptimize(on_one.Execute(*plan, nullptr, &one_scratch));
    const Clock::time_point t2 = Clock::now();
    ten_s += std::chrono::duration<double>(t1 - t0).count();
    one_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["ten_node_us"] = ten_s / iters * 1e6;
  state.counters["one_node_us"] = one_s / iters * 1e6;
  state.counters["ratio"] = one_s > 0 ? ten_s / one_s : 0;
}
BENCHMARK(BM_ExecuteTenNodesVsOne);

}  // namespace
}  // namespace parqo

BENCHMARK_MAIN();
