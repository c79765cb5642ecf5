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
  CompressedKeyIndex::Scratch scratch;
  for (Perm perm : {Perm::kSpo, Perm::kPso, Perm::kPos, Perm::kOsp}) {
    std::vector<IndexKey> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = PermKey(perm, triples[i]);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<IndexKey> got;
    got.reserve(n);
    perms.perm(perm).ScanRange(
        {0, 0, 0}, {kMaxTermId, kMaxTermId, kMaxTermId}, scratch,
        [&](std::span<const IndexKey> run) {
          got.insert(got.end(), run.begin(), run.end());
        });
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
      idx.ScanRange(lo, hi, scratch, [&](std::span<const IndexKey> run) {
        for (const IndexKey& k : run) {
          PARQO_CHECK(got < want);
          PARQO_CHECK(k == first[static_cast<std::ptrdiff_t>(got)]);
          ++got;
        }
      });
      PARQO_CHECK(got == want);
      PARQO_CHECK(idx.CountRange(lo, hi, scratch) == want);
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
