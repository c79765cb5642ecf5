// Compressed storage subsystem tests (DESIGN.md section 17): varbyte and
// leaf-page round-trips, page-boundary seeks, permutation agreement,
// aggregated counts vs brute force, NodeStore scan regressions for the
// patterns that used to degenerate to full filter passes, and merge-join
// vs hash-join bit-identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "exec/join_kernel.h"
#include "exec/node_store.h"
#include "storage/compressed_index.h"
#include "storage/dataset_index.h"
#include "storage/permutation_index.h"
#include "storage/varbyte.h"
#include "tests/reference_join.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

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
  std::vector<IndexKey> out;
  idx.ScanRange(IndexKey{0, 0, 0},
                IndexKey{kMaxTermId, kMaxTermId, kMaxTermId},
                [&](const IndexKey& k) { out.push_back(k); });
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
  EXPECT_EQ(idx.CountRange(keys.front(), keys.front()),
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

  auto count = [&](std::size_t lo, std::size_t hi) {
    return idx.CountRange(keys[lo], keys[hi]);
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
                           IndexKey{kMaxTermId, kMaxTermId, kMaxTermId}),
            0u);
  std::vector<IndexKey> got;
  idx.ScanRange(keys[kLeafEntries - 1], keys[kLeafEntries],
                [&](const IndexKey& k) { got.push_back(k); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], keys[kLeafEntries - 1]);
  EXPECT_EQ(got[1], keys[kLeafEntries]);
}

// Entries of `idx` in [lo, hi] by ScanRange, checked against CountRange
// and against `sorted`, the keys the index was built from.
void ExpectRange(const CompressedKeyIndex& idx,
                 const std::vector<IndexKey>& sorted, const IndexKey& lo,
                 const IndexKey& hi) {
  std::vector<IndexKey> got;
  idx.ScanRange(lo, hi, [&](const IndexKey& k) { got.push_back(k); });
  std::vector<IndexKey> want;
  if (!(hi < lo)) {
    want.assign(std::lower_bound(sorted.begin(), sorted.end(), lo),
                std::upper_bound(sorted.begin(), sorted.end(), hi));
  }
  EXPECT_EQ(got, want) << "lo=" << lo.k1 << "," << lo.k2 << "," << lo.k3
                       << " hi=" << hi.k1 << "," << hi.k2 << "," << hi.k3;
  EXPECT_EQ(idx.CountRange(lo, hi), want.size());
}

TEST(CompressedKeyIndexTest, RestartBlockBoundarySizes) {
  // Sizes one off a multiple of the restart block, inside the first page
  // and across pages; every size is probed at random ranges.
  for (std::size_t blocks : {std::size_t{1}, std::size_t{3},
                             kBlocksPerPage, kBlocksPerPage + 2}) {
    for (std::size_t n : {blocks * kBlockEntries - 1,
                          blocks * kBlockEntries,
                          blocks * kBlockEntries + 1}) {
      Rng rng(n * 17 + 3);
      std::vector<IndexKey> keys(n);
      for (IndexKey& k : keys) {
        k = {static_cast<TermId>(rng.Uniform(0, 4)),
             static_cast<TermId>(rng.Uniform(0, 300)),
             static_cast<TermId>(rng.Uniform(0, 1000))};
      }
      std::sort(keys.begin(), keys.end());
      CompressedKeyIndex idx;
      idx.Build(keys);
      ASSERT_EQ(FullScan(idx), keys) << "n=" << n;
      for (int probe = 0; probe < 50; ++probe) {
        IndexKey lo = keys[rng.Uniform(0, n - 1)];
        IndexKey hi = keys[rng.Uniform(0, n - 1)];
        if (hi < lo) std::swap(lo, hi);
        ExpectRange(idx, keys, lo, hi);
        // Bounds between stored keys.
        ExpectRange(idx, keys, {lo.k1, lo.k2, lo.k3 + 1},
                    {hi.k1, hi.k2 + 1, 0});
      }
    }
  }
}

TEST(CompressedKeyIndexTest, SeeksFromEveryBlockAnchor) {
  // Distinct keys: every block opens with an anchor; a seek whose lower
  // bound IS that anchor, or falls just before or after it, must return
  // exactly the brute-force range.
  const std::size_t n = 2 * kLeafEntries + 3 * kBlockEntries;
  std::vector<IndexKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = {static_cast<TermId>(i / 500), static_cast<TermId>(i % 500),
               static_cast<TermId>(i * 3)};
  }
  CompressedKeyIndex idx;
  idx.Build(keys);
  for (std::size_t a = 0; a < n; a += kBlockEntries) {
    for (std::size_t span : {std::size_t{0}, std::size_t{1},
                             kBlockEntries - 1, kBlockEntries,
                             kLeafEntries}) {
      const IndexKey& hi = keys[std::min(n - 1, a + span)];
      ExpectRange(idx, keys, keys[a], hi);
      if (a > 0) ExpectRange(idx, keys, keys[a - 1], hi);
      ExpectRange(idx, keys, {keys[a].k1, keys[a].k2, keys[a].k3 - 1}, hi);
      ExpectRange(idx, keys, {keys[a].k1, keys[a].k2, keys[a].k3 + 1}, hi);
    }
  }
}

TEST(CompressedKeyIndexTest, DuplicateRunsAcrossBlocksAndPages) {
  // Runs of one key that start inside a block and end several blocks on,
  // and one that crosses a page boundary: anchors inside a run equal its
  // key, so seeks must start from the block before the first of them.
  std::vector<IndexKey> keys;
  auto add_run = [&](IndexKey k, std::size_t len) {
    keys.insert(keys.end(), len, k);
  };
  TermId next = 1;
  auto add_distinct = [&](std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) keys.push_back({next++, 0, 0});
  };
  add_distinct(kBlockEntries - 5);
  const IndexKey block_run{next++, 7, 7};
  add_run(block_run, 2 * kBlockEntries + 9);
  add_distinct(kLeafEntries - keys.size() - 11);
  const IndexKey page_run{next++, 8, 8};
  add_run(page_run, kBlockEntries + 30);
  add_distinct(kLeafEntries);
  add_distinct(kBlockEntries - keys.size() % kBlockEntries);
  const IndexKey anchored_run{next++, 9, 9};  // starts exactly at a block
  add_run(anchored_run, kBlockEntries + 1);
  add_distinct(kBlockEntries / 2);
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  CompressedKeyIndex idx;
  idx.Build(keys);
  ASSERT_GE(idx.num_pages(), 3u);
  EXPECT_EQ(FullScan(idx), keys);
  EXPECT_EQ(idx.CountRange(block_run, block_run),
            2 * kBlockEntries + 9);
  EXPECT_EQ(idx.CountRange(page_run, page_run), kBlockEntries + 30);
  EXPECT_EQ(idx.CountRange(anchored_run, anchored_run),
            kBlockEntries + 1);
  for (const IndexKey& k : {block_run, page_run, anchored_run}) {
    ExpectRange(idx, keys, k, k);
    ExpectRange(idx, keys, {k.k1, 0, 0}, k);
    ExpectRange(idx, keys, k, {k.k1 + 1, 0, 0});
    ExpectRange(idx, keys, {k.k1 - 1, 0, 0}, {k.k1, kMaxTermId, kMaxTermId});
  }
}

TEST(CompressedKeyIndexTest, SeekerMatchesScanRangeAndDecodesEachBlockOnce) {
  // Duplicate runs cross block and page boundaries; ranges are prefix
  // ranges on k1 or (k1, k2), ascending and disjoint, from sparse to
  // every prefix.
  Rng rng(23);
  std::vector<IndexKey> keys;
  for (int i = 0; i < 9 * static_cast<int>(kLeafEntries); ++i) {
    keys.push_back({static_cast<TermId>(rng.Uniform(1, 400)),
                    static_cast<TermId>(rng.Uniform(1, 6)),
                    static_cast<TermId>(rng.Uniform(1, 3))});
  }
  std::sort(keys.begin(), keys.end());
  CompressedKeyIndex idx;
  idx.Build(keys);
  for (const int stride : {1, 2, 7, 40, 399}) {
    for (const bool pair : {false, true}) {
      SCOPED_TRACE(std::to_string(stride) + (pair ? " (k1, k2)" : " k1"));
      CompressedKeyIndex::Seeker seeker(idx);
      std::size_t scanned = 0;  // what independent ScanRanges decode
      for (TermId k1 = 1; k1 <= 401; k1 += static_cast<TermId>(stride)) {
        const IndexKey lo{k1, pair ? TermId{3} : 0, 0};
        const IndexKey hi{k1, pair ? TermId{3} : kMaxTermId, kMaxTermId};
        std::vector<IndexKey> want, got;
        scanned += idx.ScanRange(
            lo, hi, [&](const IndexKey& k) { want.push_back(k); });
        seeker.Scan(lo, hi, [&](const IndexKey& k) { got.push_back(k); });
        EXPECT_EQ(got, want) << "k1=" << k1;
        if (!seeker.done()) {
          EXPECT_TRUE(hi < seeker.key());
          // The cursor's key is the first entry past hi.
          EXPECT_EQ(seeker.key(), *std::upper_bound(keys.begin(),
                                                    keys.end(), hi));
        }
      }
      EXPECT_LE(seeker.decoded(), scanned);
      EXPECT_LE(seeker.decoded(), idx.size());
    }
  }
  // Every range at once reads the whole index exactly once.
  CompressedKeyIndex::Seeker all(idx);
  std::size_t rows = 0;
  for (TermId k1 = 0; k1 <= 401; ++k1) {
    all.Scan({k1, 0, 0}, {k1, kMaxTermId, kMaxTermId},
             [&](const IndexKey&) { ++rows; });
  }
  EXPECT_EQ(rows, keys.size());
  EXPECT_EQ(all.decoded(), keys.size());
  EXPECT_TRUE(all.done());
}

TEST(CompressedKeyIndexTest, BlockBoundCoversEveryRange) {
  std::vector<IndexKey> keys;
  for (TermId i = 0; i < 5 * kLeafEntries + 77; ++i) {
    keys.push_back({i / 300 + 1, i % 300, 0});
  }
  CompressedKeyIndex idx;
  idx.Build(keys);
  for (TermId k1 = 0; k1 <= keys.back().k1 + 1; ++k1) {
    for (TermId k2 : {TermId{0}, TermId{64}, TermId{299}}) {
      for (const bool prefix : {false, true}) {
        const IndexKey lo{k1, prefix ? 0 : k2, 0};
        const IndexKey hi{k1, prefix ? kMaxTermId : k2, kMaxTermId};
        const auto [first, end] = idx.PageSpan(lo, hi);
        const std::size_t bound = idx.BlockBound(first, end, lo, hi);
        std::size_t rows = 0;
        const std::size_t decoded =
            idx.ScanRange(lo, hi, [&](const IndexKey&) { ++rows; });
        EXPECT_LE(rows, bound);
        EXPECT_LE(decoded, bound + 1);  // + the key that stops the scan
        // Within a block at either end.
        EXPECT_LE(bound, rows + 2 * kBlockEntries);
      }
    }
  }
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
    std::vector<Triple> got;
    std::vector<IndexKey> keys;
    index.perm(perm).ScanRange(
        IndexKey{0, 0, 0}, IndexKey{kMaxTermId, kMaxTermId, kMaxTermId},
        [&](const IndexKey& k) {
          keys.push_back(k);
          got.push_back(PermTriple(perm, k));
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
      // No aggregate answers an all-constant mask (see the death test).
      if (s != kInvalidTermId && p != kInvalidTermId && o != kInvalidTermId) {
        continue;
      }
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

TEST(DatasetIndexDeathTest, CountPatternNeedsAFreePosition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Triple> triples{{1, 2, 3}};
  DatasetIndex index(triples);
  EXPECT_EQ(index.CountPattern(1, 2, kInvalidTermId), 1u);
  EXPECT_DEATH(index.CountPattern(1, 2, 3), "PARQO_CHECK failed");
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

// Scans decode each key straight into the output columns. Every path —
// the four permutations, repeated variables, bound seeks, and the merge
// and probe decode filters — must emit exactly the brute-force rows in
// the brute-force order.

// Brute force: the rows of `triples` matching `rp` in the order of `perm`
// keys (then by filter key when `seek_var` is set: a seek scan's order),
// restricted to `keys` on `filter_var` when it is set.
BindingTable BruteScan(const std::vector<Triple>& triples,
                       const ResolvedPattern& rp, Perm perm,
                       VarId filter_var, const std::vector<TermId>& keys,
                       bool seek) {
  const TermId consts[3] = {rp.s, rp.p, rp.o};
  const VarId vars[3] = {rp.var_s, rp.var_p, rp.var_o};
  auto field = [](const Triple& t, int f) {
    return f == 0 ? t.s : f == 1 ? t.p : t.o;
  };
  auto first_field = [&](VarId v) {
    for (int f = 0; f < 3; ++f) {
      if (vars[f] == v) return f;
    }
    return -1;
  };
  std::vector<Triple> match;
  for (const Triple& t : triples) {
    bool ok = true;
    for (int f = 0; f < 3; ++f) {
      if (consts[f] != kInvalidTermId && field(t, f) != consts[f]) ok = false;
      if (vars[f] != kInvalidVarId &&
          field(t, f) != field(t, first_field(vars[f]))) {
        ok = false;
      }
    }
    if (ok && filter_var != kInvalidVarId &&
        !std::binary_search(keys.begin(), keys.end(),
                            field(t, first_field(filter_var)))) {
      ok = false;
    }
    if (ok) match.push_back(t);
  }
  std::stable_sort(match.begin(), match.end(),
                   [&](const Triple& a, const Triple& b) {
                     if (seek) {
                       const int f = first_field(filter_var);
                       if (field(a, f) != field(b, f)) {
                         return field(a, f) < field(b, f);
                       }
                     }
                     return PermKey(perm, a) < PermKey(perm, b);
                   });
  BindingTable out(rp.schema);
  for (const Triple& t : match) {
    std::vector<TermId> row;
    for (VarId v : rp.schema) row.push_back(field(t, first_field(v)));
    out.AppendRow(row);
  }
  return out;
}

TEST(NodeStoreTest, DecodeIntoColumnsMatchesBruteForce) {
  // Small domains: ranges span pages and ?x p ?x loops occur.
  std::vector<Triple> triples = RandomTriples(5, 12000, 90, 4, 90);
  for (TermId s = 1; s <= 90; s += 3) triples.push_back({s, 2, s});
  const NodeStore store(triples);
  const PermutationIndex perms(triples);  // the same layout, for page counts
  const Triple pin = triples[123];

  struct Case {
    const char* name;
    ResolvedPattern rp;
  };
  const TermId none = kInvalidTermId;
  const VarId no = kInvalidVarId;
  const std::vector<Case> cases = {
      {"?s ?p ?o (SPO)", Pattern(none, none, none, 0, 1, 2)},
      {"?s p ?o (PSO)", Pattern(none, pin.p, none, 0, no, 1)},
      {"?s p o (POS)", Pattern(none, pin.p, pin.o, 0, no, no)},
      {"?s ?p o (OSP)", Pattern(none, none, pin.o, 0, 1, no)},
      {"s ?p ?o (SPO)", Pattern(pin.s, none, none, no, 0, 1)},
      {"s ?p o (OSP)", Pattern(pin.s, none, pin.o, no, 0, no)},
      {"?x p ?x", Pattern(none, 2, none, 0, no, 0)},
      {"?x ?p ?x", Pattern(none, none, none, 0, 1, 0)},
  };
  // Filtered scans per path: sort-variable seeks, other seeks, probes.
  int paths[3] = {0, 0, 0};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const PermutationIndex::RangeChoice rc =
        PermutationIndex::ChooseRange(c.rp.s, c.rp.p, c.rp.o);
    const BindingTable want =
        BruteScan(triples, c.rp, rc.perm, no, {}, false);
    ASSERT_GT(want.NumRows(), 0u);
    const CompressedKeyIndex& ridx = perms.perm(rc.perm);
    const auto [first, end] = ridx.PageSpan(rc.lo, rc.hi);
    const std::size_t span = ridx.BlockBound(first, end, rc.lo, rc.hi);
    // Every variable as a filter: keys on the sort variable always seek;
    // on another variable, few keys seek and many keys probe.
    std::vector<std::pair<VarId, std::vector<TermId>>> filters;
    for (VarId v : c.rp.schema) {
      const std::vector<TermId>& col = want.Column(want.ColumnOf(v));
      std::vector<TermId> all(col.begin(), col.end());
      std::sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      std::vector<TermId> few, many;
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (i % 7 == 3 && few.size() < 2) few.push_back(all[i]);
        if (i % 2 == 0) many.push_back(all[i]);
      }
      many.push_back(kMaxTermId - 1);  // a key no row has
      filters.push_back({v, few});
      filters.push_back({v, many});
    }
    const BindingTable got = store.Scan(c.rp);
    EXPECT_TRUE(got == want);
    for (const auto& [var, keys] : filters) {
      const KeySet set(keys);
      const BindingTable filtered = store.Scan(c.rp, {var, &set});
      // Keys on the sort variable seek in the range's permutation; other
      // keys seek in ChooseRange's when their walk-ins, half a block each
      // but no more than the range, cost no more than the entries the
      // range spans.
      const bool sorted = got.sorted_by() == var;
      const bool seek =
          sorted || keys.size() * std::min(span, kBlockEntries / 2) <= span;
      const TermId any = 1;
      const Perm perm = seek && !sorted
                            ? PermutationIndex::ChooseRange(
                                  c.rp.var_s == var ? any : c.rp.s,
                                  c.rp.var_p == var ? any : c.rp.p,
                                  c.rp.var_o == var ? any : c.rp.o)
                                  .perm
                            : rc.perm;
      EXPECT_TRUE(filtered == BruteScan(triples, c.rp, perm, var, keys, seek))
          << "filter on " << var << ", " << keys.size() << " keys";
      if (seek) {
        EXPECT_EQ(filtered.sorted_by(), var);
      } else {
        EXPECT_EQ(filtered.sorted_by(), got.sorted_by());
      }
      ++paths[sorted ? 0 : seek ? 1 : 2];
    }
  }
  for (int n : paths) EXPECT_GT(n, 0);
}

// One row per subject: (s, kP, 7s mod 2048 + 1) for s in 1..20 pages, so
// PSO entry i is subject i + 1, restart block b holds subjects 64b + 1 ..
// 64b + 64, and each of the 2048 objects has ten rows.
class ScanDecodeTest : public ::testing::Test {
 protected:
  static constexpr TermId kP = 3;
  static constexpr TermId kSubjects = 20 * kLeafEntries;

  ScanDecodeTest() : store_(Triples()) {}

  static std::vector<Triple> Triples() {
    std::vector<Triple> t;
    for (TermId s = 1; s <= kSubjects; ++s) {
      t.push_back({s, kP, s * 7 % 2048 + 1});
    }
    return t;
  }

  static ResolvedPattern XPY() {  // ?x <kP> ?y
    ResolvedPattern r;
    r.p = kP;
    r.var_s = 0;
    r.var_o = 1;
    r.schema = {0, 1};
    return r;
  }

  // The filtered scan's rows and the index entries it decoded.
  std::pair<std::size_t, std::uint64_t> Decode(VarId var,
                                               std::vector<TermId> keys) {
    const KeySet set(std::move(keys));
    std::uint64_t decoded = 0;
    const std::size_t rows =
        store_.Scan(XPY(), {var, &set}, &decoded).NumRows();
    return {rows, decoded};
  }

  NodeStore store_;
};

TEST_F(ScanDecodeTest, FewKeysOverManyPagesDecodeAboutABlockEach) {
  // 100 subjects, more keys than the range has pages, spread over all
  // twenty: a merge of the whole range would decode 20,480 entries.
  std::vector<TermId> xs;
  for (TermId s = 7; s <= kSubjects; s += kSubjects / 100) xs.push_back(s);
  const auto [x_rows, x_decoded] = Decode(0, xs);
  EXPECT_EQ(x_rows, xs.size());
  // Each seek walks in from its block's anchor, then decodes its row and
  // the key that stops it.
  EXPECT_LE(x_decoded, xs.size() * (kBlockEntries + 2));
  EXPECT_GE(x_decoded, x_rows);

  // 100 keys on the unsorted object seek POS, ten rows each.
  std::vector<TermId> ys;
  for (TermId o = 1; o <= 2048; o += 20) ys.push_back(o);
  const auto [y_rows, y_decoded] = Decode(1, ys);
  EXPECT_EQ(y_rows, 10 * ys.size());
  EXPECT_LE(y_decoded, y_rows + ys.size() * (kBlockEntries + 2));
}

TEST_F(ScanDecodeTest, ConsecutiveKeysInOneBlockDecodeItOnce) {
  // Subjects 64 * 5 + 2 .. 64 * 5 + 40 sit inside restart block 5 of
  // page 0: one walk-in from its anchor, then one pass.
  std::vector<TermId> xs;
  for (TermId s = 5 * kBlockEntries + 2; s <= 5 * kBlockEntries + 40; ++s) {
    xs.push_back(s);
  }
  const auto [rows, decoded] = Decode(0, xs);
  EXPECT_EQ(rows, xs.size());
  EXPECT_LE(decoded, kBlockEntries);
  // Every other subject of the block: still one pass.
  std::vector<TermId> odd;
  for (TermId s = 5 * kBlockEntries + 3; s <= 6 * kBlockEntries; s += 2) {
    odd.push_back(s);
  }
  const auto [odd_rows, odd_decoded] = Decode(0, odd);
  EXPECT_EQ(odd_rows, odd.size());
  EXPECT_LE(odd_decoded, kBlockEntries + 1);
}

TEST_F(ScanDecodeTest, KeysPastTheLastRowDecodeNothing) {
  // Sixteen keys in one block, then 27,520 keys past the range's last
  // entry: once the cursor is past the index, the run stops.
  std::vector<TermId> xs;
  for (TermId s = 1; s <= 48000; ++s) {
    if (s > 64 && s <= 128 ? s % 4 == 0 : s > kSubjects) xs.push_back(s);
  }
  const auto [rows, decoded] = Decode(0, xs);
  EXPECT_EQ(rows, 16u);
  // The block before the first key, the key's own block, and at most one
  // boundary entry past each.
  EXPECT_LE(decoded, 2 * kBlockEntries + 2);
}

TEST_F(ScanDecodeTest, DecodedCountsEveryPath) {
  std::uint64_t decoded = 0;
  // Unfiltered: every entry of the range, which fills its pages.
  EXPECT_EQ(store_.Scan(XPY(), {}, &decoded).NumRows(), kSubjects);
  EXPECT_EQ(decoded, kSubjects);
  // Half the objects: their walk-ins would cost more than the range, so
  // one decode of the range probes every entry.
  std::vector<TermId> ys;
  for (TermId o = 1; o <= 2048; o += 2) ys.push_back(o);
  const auto [rows, probed] = Decode(1, ys);
  EXPECT_EQ(rows, kSubjects / 2);
  EXPECT_EQ(probed, kSubjects);
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

}  // namespace
}  // namespace parqo
