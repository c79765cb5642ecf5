// Compressed storage subsystem tests (DESIGN.md section 17): varbyte and
// leaf-page round-trips, page-boundary seeks, permutation agreement,
// aggregated counts vs brute force, NodeStore scan regressions for the
// patterns that used to degenerate to full filter passes, merge-join vs
// hash-join bit-identity, and exact pairwise join statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "exec/join_kernel.h"
#include "exec/node_store.h"
#include "rdf/ntriples.h"
#include "stats/data_stats.h"
#include "stats/estimator.h"
#include "storage/compressed_index.h"
#include "storage/dataset_index.h"
#include "storage/permutation_index.h"
#include "storage/varbyte.h"
#include "tests/reference_join.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::Tp;

TEST(VarbyteTest, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xffffffffull,
                                  (1ull << 35) - 1,
                                  ~0ull};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : values) VarbyteEncode(v, buf);
  const std::uint8_t* p = buf.data();
  for (std::uint64_t v : values) EXPECT_EQ(VarbyteDecode(p), v);
  EXPECT_EQ(p, buf.data() + buf.size());
}

std::vector<IndexKey> FullScan(const CompressedKeyIndex& idx) {
  CompressedKeyIndex::Scratch scratch;
  std::vector<IndexKey> out;
  idx.ScanRange(IndexKey{0, 0, 0},
                IndexKey{kMaxTermId, kMaxTermId, kMaxTermId}, scratch,
                [&](std::span<const IndexKey> run) {
                  out.insert(out.end(), run.begin(), run.end());
                });
  return out;
}

TEST(CompressedKeyIndexTest, RoundTripsAcrossPageBoundarySizes) {
  // Sizes straddling leaf-page boundaries, including empty and single.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, kLeafEntries - 1,
                        kLeafEntries, kLeafEntries + 1, 3 * kLeafEntries,
                        3 * kLeafEntries + 1}) {
    Rng rng(n * 31 + 7);
    std::vector<IndexKey> keys(n);
    for (IndexKey& k : keys) {
      k = {static_cast<TermId>(rng.Uniform(0, 50)),
           static_cast<TermId>(rng.Uniform(0, 1000)),
           static_cast<TermId>(rng.Uniform(0, 1u << 20))};
    }
    std::sort(keys.begin(), keys.end());
    CompressedKeyIndex idx;
    idx.Build(keys);
    EXPECT_EQ(idx.size(), n);
    EXPECT_EQ(FullScan(idx), keys) << "n=" << n;
  }
}

TEST(CompressedKeyIndexTest, PreservesDuplicatesAndMaxIds) {
  // Adversarial distributions: all-identical keys (gap encoding must keep
  // multiplicity) and maximal TermIds (widest varbytes).
  std::vector<IndexKey> keys(2 * kLeafEntries + 5,
                             IndexKey{kMaxTermId, kMaxTermId, kMaxTermId});
  CompressedKeyIndex idx;
  idx.Build(keys);
  EXPECT_EQ(FullScan(idx), keys);
  CompressedKeyIndex::Scratch scratch;
  EXPECT_EQ(idx.CountRange(keys.front(), keys.front(), scratch),
            keys.size());
}

TEST(CompressedKeyIndexTest, SeeksAtPageBoundaries) {
  // Distinct keys so every range count has one closed-form answer.
  const std::size_t n = 4 * kLeafEntries;
  std::vector<IndexKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = {static_cast<TermId>(i / 1000), static_cast<TermId>(i % 1000),
               static_cast<TermId>(i)};
  }
  CompressedKeyIndex idx;
  idx.Build(keys);
  ASSERT_EQ(idx.num_pages(), 4u);

  CompressedKeyIndex::Scratch scratch;
  auto count = [&](std::size_t lo, std::size_t hi) {
    return idx.CountRange(keys[lo], keys[hi], scratch);
  };
  // Ranges pinned exactly at page boundaries, one-off each side, interior
  // pages answered from the directory, and cross-page single steps.
  EXPECT_EQ(count(0, n - 1), n);
  EXPECT_EQ(count(0, kLeafEntries - 1), kLeafEntries);
  EXPECT_EQ(count(kLeafEntries, 2 * kLeafEntries - 1), kLeafEntries);
  EXPECT_EQ(count(kLeafEntries - 1, kLeafEntries), 2u);
  EXPECT_EQ(count(kLeafEntries - 1, 3 * kLeafEntries), 2 * kLeafEntries + 2);
  EXPECT_EQ(count(7, 7), 1u);
  // Empty ranges: between-keys and off-the-end probes.
  EXPECT_EQ(idx.CountRange(IndexKey{kMaxTermId, 0, 0},
                           IndexKey{kMaxTermId, kMaxTermId, kMaxTermId},
                           scratch),
            0u);
  std::vector<IndexKey> got;
  idx.ScanRange(keys[kLeafEntries - 1], keys[kLeafEntries], scratch,
                [&](std::span<const IndexKey> run) {
                  got.insert(got.end(), run.begin(), run.end());
                });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], keys[kLeafEntries - 1]);
  EXPECT_EQ(got[1], keys[kLeafEntries]);
}

std::vector<Triple> RandomTriples(std::uint64_t seed, std::size_t n,
                                  TermId max_s, TermId max_p, TermId max_o) {
  Rng rng(seed);
  std::vector<Triple> triples(n);
  for (Triple& t : triples) {
    t = {static_cast<TermId>(rng.Uniform(1, max_s)),
         static_cast<TermId>(rng.Uniform(1, max_p)),
         static_cast<TermId>(rng.Uniform(1, max_o))};
  }
  return triples;
}

std::multiset<std::array<TermId, 3>> AsMultiset(
    const std::vector<Triple>& ts) {
  std::multiset<std::array<TermId, 3>> out;
  for (const Triple& t : ts) out.insert({t.s, t.p, t.o});
  return out;
}

TEST(PermutationIndexTest, AllPermutationsAgreeOnTheTripleMultiset) {
  // Includes duplicate triples: per-node stores are multisets.
  std::vector<Triple> triples = RandomTriples(11, 5000, 300, 8, 400);
  triples.insert(triples.end(), triples.begin(), triples.begin() + 100);
  PermutationIndex index(triples);
  EXPECT_EQ(index.NumTriples(), triples.size());

  const auto want = AsMultiset(triples);
  for (Perm perm : {Perm::kSpo, Perm::kPso, Perm::kPos, Perm::kOsp}) {
    CompressedKeyIndex::Scratch scratch;
    std::vector<Triple> got;
    std::vector<IndexKey> keys;
    index.perm(perm).ScanRange(
        IndexKey{0, 0, 0}, IndexKey{kMaxTermId, kMaxTermId, kMaxTermId},
        scratch, [&](std::span<const IndexKey> run) {
          for (const IndexKey& k : run) {
            keys.push_back(k);
            got.push_back(PermTriple(perm, k));
          }
        });
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()))
        << "perm " << static_cast<int>(perm);
    EXPECT_EQ(AsMultiset(got), want) << "perm " << static_cast<int>(perm);
  }
}

TEST(DatasetIndexTest, CountPatternMatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    std::vector<Triple> triples = RandomTriples(seed, 3000, 60, 6, 80);
    // Dedup like RdfGraph does, so distinct == count holds for pinned
    // pairs and the aggregate path is comparable to set semantics.
    std::sort(triples.begin(), triples.end(),
              [](const Triple& a, const Triple& b) {
                return std::array<TermId, 3>{a.s, a.p, a.o} <
                       std::array<TermId, 3>{b.s, b.p, b.o};
              });
    triples.erase(std::unique(triples.begin(), triples.end(),
                              [](const Triple& a, const Triple& b) {
                                return a.s == b.s && a.p == b.p &&
                                       a.o == b.o;
                              }),
                  triples.end());
    DatasetIndex index(triples);

    Rng rng(seed * 977);
    for (int probe = 0; probe < 200; ++probe) {
      // Random constant mask over ids both present and absent.
      TermId s = rng.Bernoulli(0.5)
                     ? static_cast<TermId>(rng.Uniform(1, 70))
                     : kInvalidTermId;
      TermId p = rng.Bernoulli(0.5) ? static_cast<TermId>(rng.Uniform(1, 8))
                                    : kInvalidTermId;
      TermId o = rng.Bernoulli(0.5)
                     ? static_cast<TermId>(rng.Uniform(1, 90))
                     : kInvalidTermId;
      std::uint64_t brute = 0;
      for (const Triple& t : triples) {
        brute += (s == kInvalidTermId || t.s == s) &&
                 (p == kInvalidTermId || t.p == p) &&
                 (o == kInvalidTermId || t.o == o);
      }
      EXPECT_EQ(index.CountPattern(s, p, o), brute)
          << "seed " << seed << " mask (" << s << "," << p << "," << o
          << ")";
    }

    // Aggregated unary stats vs brute-force distinct sets.
    for (TermId p = 1; p <= 7; ++p) {
      std::set<TermId> ds, dobj;
      std::uint64_t cnt = 0;
      for (const Triple& t : triples) {
        if (t.p != p) continue;
        ++cnt;
        ds.insert(t.s);
        dobj.insert(t.o);
      }
      DatasetIndex::UnaryStats u = index.StatsForP(p);
      EXPECT_EQ(u.count, cnt);
      EXPECT_EQ(u.distinct_a, ds.size());
      EXPECT_EQ(u.distinct_b, dobj.size());
    }
    std::set<TermId> all_s, all_p, all_o;
    for (const Triple& t : triples) {
      all_s.insert(t.s);
      all_p.insert(t.p);
      all_o.insert(t.o);
    }
    EXPECT_EQ(index.distinct_s(), all_s.size());
    EXPECT_EQ(index.distinct_p(), all_p.size());
    EXPECT_EQ(index.distinct_o(), all_o.size());
  }
}

TEST(PermutationIndexTest, CompressedFootprintBeatsDualVectors) {
  std::vector<Triple> triples = RandomTriples(5, 100000, 5000, 40, 8000);
  PermutationIndex index(triples);
  const double bytes_per_triple =
      static_cast<double>(index.ByteSize()) / triples.size();
  // The replaced layout stored two sorted vector<Triple> = 24 B/triple;
  // four compressed permutations must beat it.
  EXPECT_LT(bytes_per_triple, 24.0);
}

TEST(NodeStoreTest, IndexBytesCountOnlyTheFourPermutations) {
  // Count tables live only in the dataset-wide index: a node store's
  // footprint is its four permutations, and any per-node aggregate shows
  // up as extra bytes.
  std::vector<Triple> triples = RandomTriples(9, 20000, 2000, 12, 3000);
  PermutationIndex perms(triples);
  std::size_t perm_bytes = 0;
  for (Perm perm : {Perm::kSpo, Perm::kPso, Perm::kPos, Perm::kOsp}) {
    perm_bytes += perms.perm(perm).ByteSize();
  }
  EXPECT_EQ(NodeStore(triples).IndexBytes(), perm_bytes);
}

// ---------------------------------------------------------------------------
// NodeStore scan regressions (satellite: the variable-predicate and
// constant-subject patterns used to scan+filter the whole store).

ResolvedPattern Pattern(TermId s, TermId p, TermId o, VarId vs, VarId vp,
                        VarId vo) {
  ResolvedPattern rp;
  rp.s = s;
  rp.p = p;
  rp.o = o;
  rp.var_s = vs;
  rp.var_p = vp;
  rp.var_o = vo;
  for (VarId v : {vs, vp, vo}) {
    if (v != kInvalidVarId &&
        std::find(rp.schema.begin(), rp.schema.end(), v) ==
            rp.schema.end()) {
      rp.schema.push_back(v);
    }
  }
  std::sort(rp.schema.begin(), rp.schema.end());
  return rp;
}

TEST(NodeStoreTest, VariablePredicateScansUseThePermutations) {
  std::vector<Triple> triples = RandomTriples(21, 4000, 50, 6, 70);
  NodeStore store(triples);

  // ?s ?p ?o: every triple, SPO order, sorted by ?s.
  BindingTable all =
      store.Scan(Pattern(kInvalidTermId, kInvalidTermId, kInvalidTermId,
                         /*vs=*/0, /*vp=*/1, /*vo=*/2));
  EXPECT_EQ(all.NumRows(), triples.size());
  EXPECT_EQ(all.sorted_by(), 0);
  EXPECT_TRUE(std::is_sorted(all.Column(all.ColumnOf(0)).begin(),
                             all.Column(all.ColumnOf(0)).end()));

  // Constant subject, variable predicate+object: SPO prefix seek.
  const TermId s = triples[17].s;
  BindingTable by_s =
      store.Scan(Pattern(s, kInvalidTermId, kInvalidTermId, kInvalidVarId,
                         /*vp=*/0, /*vo=*/1));
  std::uint64_t brute = 0;
  for (const Triple& t : triples) brute += t.s == s;
  EXPECT_EQ(by_s.NumRows(), brute);
  for (TermId v : by_s.Column(by_s.ColumnOf(0))) {
    (void)v;
  }
  EXPECT_EQ(by_s.sorted_by(), 0);  // sorted by ?p (SPO with s pinned)
  EXPECT_TRUE(std::is_sorted(by_s.Column(by_s.ColumnOf(0)).begin(),
                             by_s.Column(by_s.ColumnOf(0)).end()));

  // Constant object, variable subject+predicate: OSP prefix seek.
  const TermId o = triples[33].o;
  BindingTable by_o =
      store.Scan(Pattern(kInvalidTermId, kInvalidTermId, o, /*vs=*/0,
                         /*vp=*/1, kInvalidVarId));
  brute = 0;
  for (const Triple& t : triples) brute += t.o == o;
  EXPECT_EQ(by_o.NumRows(), brute);
  EXPECT_EQ(by_o.sorted_by(), 0);  // OSP: s is the first free component

  // Repeated variable (?x ?p ?x) still filters equality.
  BindingTable loops = store.Scan(
      Pattern(kInvalidTermId, kInvalidTermId, kInvalidTermId, /*vs=*/0,
              /*vp=*/1, /*vo=*/0));
  brute = 0;
  for (const Triple& t : triples) brute += t.s == t.o;
  EXPECT_EQ(loops.NumRows(), brute);
}

TEST(NodeStoreTest, MorselScanMatchesSerialScan) {
  std::vector<Triple> triples = RandomTriples(9, 10000, 40, 5, 60);
  NodeStore store(triples);
  const ResolvedPattern rp = Pattern(kInvalidTermId, 3, kInvalidTermId,
                                     /*vs=*/0, kInvalidVarId, /*vo=*/1);
  BindingTable serial = store.Scan(rp);
  BindingTable morsel = store.Scan(rp, /*morsel_rows=*/512,
                                   /*parallel=*/true);
  EXPECT_TRUE(serial == morsel);
  EXPECT_EQ(serial.sorted_by(), morsel.sorted_by());
}

// ---------------------------------------------------------------------------
// Merge join vs hash join bit-identity.

BindingTable SortedTable(std::vector<VarId> schema,
                         std::vector<std::vector<TermId>> rows, VarId key) {
  BindingTable t(std::move(schema));
  for (const std::vector<TermId>& r : rows) t.AppendRow(r);
  t.SetSortedBy(key);
  return t;
}

TEST(MergeJoinTest, BitIdenticalToHashJoinIncludingDuplicates) {
  // Duplicate key runs on both sides, plus unmatched keys at both ends.
  BindingTable left = SortedTable(
      {0, 1},
      {{1, 10}, {2, 20}, {2, 21}, {4, 40}, {4, 41}, {4, 42}, {9, 90}}, 0);
  BindingTable right = SortedTable(
      {0, 2}, {{0, 5}, {2, 7}, {2, 8}, {4, 6}, {5, 1}}, 0);
  ASSERT_EQ(MergeJoinKey(left, right), 0);
  BindingTable merged = BatchMergeJoin(left, right);
  BindingTable hashed = BatchHashJoin(left, right);
  EXPECT_TRUE(merged == hashed);
  EXPECT_TRUE(merged == testing::ReferenceHashJoin(left, right));
  EXPECT_EQ(merged.sorted_by(), hashed.sorted_by());

  // Parallel morsels with a tiny morsel size cross run boundaries.
  BatchJoinOptions opts;
  opts.morsel_rows = 2;
  opts.parallel = true;
  EXPECT_TRUE(BatchMergeJoin(left, right, opts) == hashed);
}

TEST(MergeJoinTest, RandomizedSweepAgainstHashJoin) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    auto make = [&](VarId other, std::size_t n, TermId key_range) {
      std::vector<std::vector<TermId>> rows(n);
      for (auto& r : rows) {
        r = {static_cast<TermId>(rng.Uniform(0, key_range)),
             static_cast<TermId>(rng.Uniform(0, 1000))};
      }
      std::sort(rows.begin(), rows.end());
      return SortedTable({0, other}, std::move(rows), 0);
    };
    const std::size_t nl = static_cast<std::size_t>(rng.Uniform(0, 300));
    const std::size_t nr = static_cast<std::size_t>(rng.Uniform(0, 300));
    BindingTable left = make(1, nl, 40);
    BindingTable right = make(2, nr, 40);
    BindingTable hashed = BatchHashJoin(left, right);
    if (MergeJoinKey(left, right) == kInvalidVarId) {
      // Only empty inputs disqualify here; result is empty both ways.
      EXPECT_EQ(hashed.NumRows(), 0u);
      continue;
    }
    EXPECT_TRUE(BatchMergeJoin(left, right) == hashed) << "seed " << seed;
  }
}

TEST(MergeJoinTest, KeyRequiresSortedSingleSharedVariable) {
  BindingTable left = SortedTable({0, 1}, {{1, 2}}, 0);
  BindingTable right = SortedTable({0, 1}, {{1, 2}}, 0);
  // Two shared variables: not mergeable.
  EXPECT_EQ(MergeJoinKey(left, right), kInvalidVarId);

  BindingTable a = SortedTable({0, 1}, {{1, 2}}, 0);
  BindingTable b = SortedTable({0, 2}, {{1, 3}}, 0);
  EXPECT_EQ(MergeJoinKey(a, b), 0);
  // Unknown order on one side disqualifies.
  b.SetSortedBy(kInvalidVarId);
  EXPECT_EQ(MergeJoinKey(a, b), kInvalidVarId);
  // Sorted on a non-shared variable disqualifies.
  b.SetSortedBy(2);
  EXPECT_EQ(MergeJoinKey(a, b), kInvalidVarId);
}

TEST(MergeJoinTest, AppendInvalidatesSortedMetadata) {
  BindingTable t = SortedTable({0, 1}, {{1, 2}, {3, 4}}, 0);
  EXPECT_EQ(t.sorted_by(), 0);
  t.AppendRow(std::vector<TermId>{0, 9});  // out of order
  EXPECT_EQ(t.sorted_by(), kInvalidVarId);

  BindingTable u = SortedTable({0, 1}, {{5, 6}}, 0);
  BindingTable v = SortedTable({0, 1}, {{1, 1}}, 0);
  u.AppendFrom(v);
  EXPECT_EQ(u.sorted_by(), kInvalidVarId);

  // Projection keeps metadata when the sorted column survives.
  BindingTable w = SortedTable({0, 1}, {{1, 2}, {3, 4}}, 0);
  EXPECT_EQ(w.Project({0}).sorted_by(), 0);
  EXPECT_EQ(w.Project({1}).sorted_by(), kInvalidVarId);
}

// ---------------------------------------------------------------------------
// Pairwise join statistics and the estimator's exact two-pattern path.

TEST(PairwiseStatsTest, MeasuredJoinCardinalityIsExact) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n"
      "<a> <p> <c> .\n"
      "<d> <p> <c> .\n"
      "<b> <q> <e> .\n"
      "<c> <q> <e> .\n"
      "<c> <q> <f> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?s", "p", "?x"), Tp("?x", "q", "?y")});
  DataStatsOptions opts;
  opts.pairwise_joins = true;
  QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g, opts);
  ASSERT_TRUE(stats.has_pairwise());
  // Join on ?x: (a,b)x(b,e); (a,c)x{(c,e),(c,f)}; (d,c)x{(c,e),(c,f)} = 5.
  EXPECT_DOUBLE_EQ(stats.JoinCardinality(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(stats.JoinCardinality(1, 0), 5.0);

  // The estimator's two-pattern estimate becomes exact:
  // |tp0| * |tp1| * jc / (|tp0| * |tp1|) = jc.
  CardinalityEstimator est(jg, std::move(stats));
  EXPECT_DOUBLE_EQ(est.Cardinality(TpSet::FullSet(2)), 5.0);
}

TEST(PairwiseStatsTest, BaselineStatisticsUnchangedWithoutPairwise) {
  auto g = ParseNTriplesString(
      "<a> <p> <b> .\n"
      "<b> <q> <c> .\n");
  ASSERT_TRUE(g.ok());
  JoinGraph jg({Tp("?s", "p", "?x"), Tp("?x", "q", "?y")});
  QueryStatistics base = ComputeStatisticsFromGraph(jg, *g);
  EXPECT_FALSE(base.has_pairwise());
  EXPECT_DOUBLE_EQ(base.JoinCardinality(0, 1), -1.0);

  // The pairwise overload leaves the per-pattern values untouched.
  DataStatsOptions opts;
  opts.pairwise_joins = true;
  QueryStatistics pw = ComputeStatisticsFromGraph(jg, *g, opts);
  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    EXPECT_DOUBLE_EQ(pw.Cardinality(tp), base.Cardinality(tp));
    for (VarId v : jg.VarsOf(tp)) {
      EXPECT_DOUBLE_EQ(pw.Bindings(tp, v), base.Bindings(tp, v));
    }
  }
}

TEST(PairwiseStatsTest, RandomizedPairsMatchBruteForceJoin) {
  for (std::uint64_t seed : {4ull, 5ull}) {
    // Small random graph through the dictionary-backed path.
    Rng rng(seed);
    std::string nt;
    for (int i = 0; i < 400; ++i) {
      nt += "<s" + std::to_string(rng.Uniform(0, 25)) + "> <p" +
            std::to_string(rng.Uniform(0, 3)) + "> <s" +
            std::to_string(rng.Uniform(0, 25)) + "> .\n";
    }
    auto g = ParseNTriplesString(nt);
    ASSERT_TRUE(g.ok());
    JoinGraph jg({Tp("?x", "p0", "?y"), Tp("?y", "p1", "?z"),
                  Tp("?x", "p2", "?z")});
    DataStatsOptions opts;
    opts.pairwise_joins = true;
    QueryStatistics stats = ComputeStatisticsFromGraph(jg, *g, opts);

    // Brute-force every pair over the raw triples.
    const Dictionary& dict = g->dict();
    auto matches = [&](const char* p) {
      std::vector<Triple> out;
      TermId pid = dict.LookupIri(p);
      for (const Triple& t : g->triples()) {
        if (t.p == pid) out.push_back(t);
      }
      return out;
    };
    std::vector<Triple> m0 = matches("p0"), m1 = matches("p1"),
                        m2 = matches("p2");
    std::uint64_t j01 = 0, j12 = 0, j02 = 0;
    for (const Triple& a : m0) {
      for (const Triple& b : m1) j01 += a.o == b.s;  // shared ?y
      for (const Triple& b : m2) j02 += a.s == b.s;  // shared ?x
    }
    for (const Triple& a : m1) {
      for (const Triple& b : m2) j12 += a.o == b.o;  // shared ?z
    }
    EXPECT_DOUBLE_EQ(stats.JoinCardinality(0, 1), j01) << "seed " << seed;
    EXPECT_DOUBLE_EQ(stats.JoinCardinality(1, 2), j12) << "seed " << seed;
    EXPECT_DOUBLE_EQ(stats.JoinCardinality(0, 2), j02) << "seed " << seed;
  }
}

}  // namespace
}  // namespace parqo
