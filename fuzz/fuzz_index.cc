// libFuzzer harness for the storage index builders (src/storage/). Input
// bytes are consumed as 12-byte little-endian chunks, one (s, p, o)
// triple of three uint32s per chunk; raw ids are folded into
// [1, kMaxTermId) so kInvalidTermId (the wildcard marker) never appears
// as data. Properties under fuzz:
//
//   1. No crash / sanitizer report building a PermutationIndex and a
//      DatasetIndex from an arbitrary triple multiset — duplicates, runs
//      of identical keys spanning many leaf pages, and adversarial gap
//      patterns included.
//   2. Round-trip: a full-range ScanRange of every PermutationIndex
//      permutation decodes exactly the input multiset in that
//      permutation's sorted key order (delta+varbyte pages lose nothing).
//   3. DatasetIndex::CountPattern / StatsFor* agree with brute force over
//      the input for every constant mask with a free position, on a
//      bounded sample of data triples.
//   4. ByteSize / num_pages sanity.
//   5. Random ranges: ScanRange and CountRange over [lo, hi] return
//      exactly the brute-force slice of the sorted keys, with bounds
//      drawn from stored keys (block anchors and duplicate runs
//      included) and nudged one step off them.
//   6. NodeStore::Scan, which decodes keys straight into columns,
//      returns exactly the brute-force rows in the chosen permutation's
//      key order for every constant mask, with and without a repeated
//      variable; a key-filtered scan returns those rows restricted to
//      the keys.
//
// Build: cmake -DPARQO_FUZZ=ON. Under clang this links libFuzzer;
// under other compilers fuzz/standalone_main.cc replays the seed corpus.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.h"
#include "exec/node_store.h"
#include "rdf/triple.h"
#include "storage/dataset_index.h"
#include "storage/permutation_index.h"

namespace {

// Bounds build cost per input: 4096 triples x 8 sorts stays well under
// the libFuzzer per-input timeout even with ASan.
constexpr std::size_t kMaxTriples = 4096;

parqo::TermId FoldId(std::uint32_t raw) {
  return static_cast<parqo::TermId>(raw % (parqo::kMaxTermId - 1)) + 1;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using parqo::CompressedKeyIndex;
  using parqo::DatasetIndex;
  using parqo::IndexKey;
  using parqo::kInvalidTermId;
  using parqo::kMaxTermId;
  using parqo::Perm;
  using parqo::PermKey;
  using parqo::PermutationIndex;
  using parqo::TermId;
  using parqo::Triple;

  const std::size_t n = std::min(size / 12, kMaxTriples);
  std::vector<Triple> triples(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t raw[3];
    std::memcpy(raw, data + i * 12, sizeof(raw));
    triples[i] = {FoldId(raw[0]), FoldId(raw[1]), FoldId(raw[2])};
  }

  PermutationIndex perms(triples);
  DatasetIndex index(triples);
  PARQO_CHECK(perms.NumTriples() == n);
  PARQO_CHECK(index.NumTriples() == n);
  if (n == 0) return 0;
  for (Perm perm : {Perm::kSpo, Perm::kPso, Perm::kPos, Perm::kOsp}) {
    PARQO_CHECK(perms.perm(perm).num_pages() >= 1);
  }
  PARQO_CHECK(index.ByteSize() > 0);

  // Property 2: every permutation round-trips the input multiset in
  // sorted key order.
  for (Perm perm : {Perm::kSpo, Perm::kPso, Perm::kPos, Perm::kOsp}) {
    std::vector<IndexKey> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = PermKey(perm, triples[i]);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<IndexKey> got;
    got.reserve(n);
    perms.perm(perm).ScanRange(
        {0, 0, 0}, {kMaxTermId, kMaxTermId, kMaxTermId},
        [&](const IndexKey& k) { got.push_back(k); });
    PARQO_CHECK(got.size() == expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      PARQO_CHECK(got[i].k1 == expected[i].k1 &&
                  got[i].k2 == expected[i].k2 &&
                  got[i].k3 == expected[i].k3);
    }
  }

  // Property 5: random ranges against the sorted keys. The draws are a
  // deterministic function of the input, so a crash replays.
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL ^ n;
  for (std::size_t i = 0; i < size; ++i) rng = (rng ^ data[i]) * 0x100000001b3ULL;
  auto draw = [&](std::size_t bound) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<std::size_t>(rng % bound);
  };
  auto nudge = [&](IndexKey k) {
    switch (draw(3)) {
      case 0: k.k3 = k.k3 == 0 ? 0 : k.k3 - 1; break;
      case 1: k.k3 = k.k3 == kMaxTermId ? kMaxTermId : k.k3 + 1; break;
      default: break;
    }
    return k;
  };
  for (Perm perm : {Perm::kSpo, Perm::kPso, Perm::kPos, Perm::kOsp}) {
    const CompressedKeyIndex& idx = perms.perm(perm);
    std::vector<IndexKey> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = PermKey(perm, triples[i]);
    std::sort(sorted.begin(), sorted.end());
    for (int probe = 0; probe < 32; ++probe) {
      const IndexKey lo = nudge(sorted[draw(n)]);
      const IndexKey hi = nudge(sorted[draw(n)]);
      auto first = std::lower_bound(sorted.begin(), sorted.end(), lo);
      auto last = std::upper_bound(sorted.begin(), sorted.end(), hi);
      const std::size_t want =
          hi < lo ? 0 : static_cast<std::size_t>(last - first);
      std::size_t got = 0;
      idx.ScanRange(lo, hi, [&](const IndexKey& k) {
        PARQO_CHECK(got < want);
        PARQO_CHECK(k == first[static_cast<std::ptrdiff_t>(got)]);
        ++got;
      });
      PARQO_CHECK(got == want);
      PARQO_CHECK(idx.CountRange(lo, hi) == want);
    }
  }

  // Property 6: node-store scans against brute force, over a sample of
  // data triples. Bit f of `mask` pins field f to the sample's value;
  // with `loop`, s and o share one variable (?x p ?x).
  const parqo::NodeStore store(triples);
  using Rows = std::vector<std::vector<TermId>>;
  auto rows_of = [](const parqo::BindingTable& t) {
    Rows out(t.NumRows());
    for (std::size_t r = 0; r < t.NumRows(); ++r) {
      for (int c = 0; c < t.num_cols(); ++c) out[r].push_back(t.At(r, c));
    }
    return out;
  };
  const std::size_t scan_step = std::max<std::size_t>(1, n / 3);
  for (std::size_t i = 0; i < n; i += scan_step) {
    const Triple& pin = triples[i];
    const TermId pins[3] = {pin.s, pin.p, pin.o};
    for (int mask = 0; mask < 8; ++mask) {
      for (bool loop : {false, true}) {
        parqo::ResolvedPattern rp;
        TermId* consts[3] = {&rp.s, &rp.p, &rp.o};
        parqo::VarId* vars[3] = {&rp.var_s, &rp.var_p, &rp.var_o};
        for (int f = 0; f < 3; ++f) {
          if (mask & (1 << f)) {
            *consts[f] = pins[f];
          } else {
            *vars[f] = f == 2 && loop ? 0 : f;
          }
        }
        for (int f = 0; f < 3; ++f) {
          if (*vars[f] != parqo::kInvalidVarId &&
              std::find(rp.schema.begin(), rp.schema.end(), *vars[f]) ==
                  rp.schema.end()) {
            rp.schema.push_back(*vars[f]);
          }
        }
        std::sort(rp.schema.begin(), rp.schema.end());
        if (rp.schema.empty()) continue;
        // Brute force: matching triples in the chosen permutation's order.
        const Perm perm = PermutationIndex::ChooseRange(rp.s, rp.p, rp.o).perm;
        std::vector<IndexKey> keys;
        for (const Triple& t : triples) {
          const TermId f[3] = {t.s, t.p, t.o};
          bool ok = true;
          for (int k = 0; k < 3; ++k) {
            if (*consts[k] != kInvalidTermId && f[k] != *consts[k]) ok = false;
          }
          if (loop && rp.var_o != parqo::kInvalidVarId &&
              rp.var_s != parqo::kInvalidVarId && t.s != t.o) {
            ok = false;
          }
          if (ok) keys.push_back(PermKey(perm, t));
        }
        std::sort(keys.begin(), keys.end());
        Rows want;
        for (const IndexKey& k : keys) {
          const Triple t = parqo::PermTriple(perm, k);
          const TermId f[3] = {t.s, t.p, t.o};
          std::vector<TermId> row;
          for (parqo::VarId v : rp.schema) {
            for (int k2 = 0; k2 < 3; ++k2) {
              if (*vars[k2] == v) {
                row.push_back(f[k2]);
                break;
              }
            }
          }
          want.push_back(row);
        }
        // Filter keys: every other distinct binding of the first
        // variable, plus one no row has.
        std::vector<TermId> filter_keys;
        for (const std::vector<TermId>& row : want) {
          filter_keys.push_back(row[0]);
        }
        std::sort(filter_keys.begin(), filter_keys.end());
        filter_keys.erase(
            std::unique(filter_keys.begin(), filter_keys.end()),
            filter_keys.end());
        std::vector<TermId> kept;
        for (std::size_t k = 0; k < filter_keys.size(); k += 2) {
          kept.push_back(filter_keys[k]);
        }
        kept.push_back(kMaxTermId);
        const parqo::KeySet set(kept);
        Rows want_filtered;
        for (const std::vector<TermId>& row : want) {
          if (std::binary_search(kept.begin(), kept.end(), row[0])) {
            want_filtered.push_back(row);
          }
        }
        std::sort(want_filtered.begin(), want_filtered.end());
        PARQO_CHECK(rows_of(store.Scan(rp)) == want);
        Rows got = rows_of(store.Scan(rp, {rp.schema[0], &set}));
        std::sort(got.begin(), got.end());
        PARQO_CHECK(got == want_filtered);
      }
    }
  }

  // Property 3: aggregated counts match brute force for every constant
  // mask with a free position (an all-constant mask has no aggregate),
  // sampled over the data so runtime stays O(n) per mask.
  auto brute = [&](TermId s, TermId p, TermId o) {
    std::uint64_t c = 0;
    for (const Triple& t : triples) {
      c += (s == kInvalidTermId || t.s == s) &&
           (p == kInvalidTermId || t.p == p) &&
           (o == kInvalidTermId || t.o == o);
    }
    return c;
  };
  const TermId none = kInvalidTermId;
  const std::size_t step = std::max<std::size_t>(std::size_t{1}, n / 16);
  for (std::size_t i = 0; i < n; i += step) {
    const Triple& t = triples[i];
    PARQO_CHECK(index.CountPattern(t.s, t.p, none) == brute(t.s, t.p, none));
    PARQO_CHECK(index.CountPattern(none, t.p, t.o) == brute(none, t.p, t.o));
    PARQO_CHECK(index.CountPattern(t.s, none, t.o) == brute(t.s, none, t.o));
    PARQO_CHECK(index.CountPattern(t.s, none, none) ==
                brute(t.s, none, none));
    PARQO_CHECK(index.CountPattern(none, t.p, none) ==
                brute(none, t.p, none));
    PARQO_CHECK(index.CountPattern(none, none, t.o) ==
                brute(none, none, t.o));
    PARQO_CHECK(index.StatsForS(t.s).count == brute(t.s, none, none));
    PARQO_CHECK(index.StatsForP(t.p).count == brute(none, t.p, none));
    PARQO_CHECK(index.StatsForO(t.o).count == brute(none, none, t.o));
  }
  PARQO_CHECK(index.CountPattern(none, none, none) == n);

  // A key folded differently from every data id must count zero
  // everywhere (the aggregated tables return zeros, not garbage).
  TermId absent = 1;
  for (const Triple& t : triples) {
    absent = std::max({absent, t.s, t.p, t.o});
  }
  if (absent < kMaxTermId - 1) {
    ++absent;
    PARQO_CHECK(index.CountPattern(absent, none, none) == 0);
    PARQO_CHECK(index.StatsForS(absent).count == 0);
    PARQO_CHECK(index.StatsForP(absent).count == 0);
    PARQO_CHECK(index.StatsForO(absent).count == 0);
  }
  return 0;
}
