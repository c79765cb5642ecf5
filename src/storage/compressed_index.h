// Clustered compressed index over sorted three-component keys — the
// storage primitive behind every permutation index and aggregated count
// table (DESIGN.md section 17). Keys are stored in fixed-size leaf pages,
// delta + varbyte compressed over component gaps; an uncompressed page
// directory (first key, byte offset, entry count per page) drives
// lower_bound seeks, so a prefix-range scan decodes only the pages that
// overlap the range and a range COUNT decodes only the two boundary
// pages — interior pages are answered from the directory alone.
//
// Each page is split into restart blocks of kBlockEntries entries. A
// block opens with an absolute (k1, k2, k3) anchor; a per-page table of
// block byte offsets lets a seek start at the block holding its lower
// bound instead of at the page's first entry. Every other entry is one
// tagged varbyte value whose low 2 bits say which key component changed
// first, followed by absolute varbytes for the components after it:
//
//   tag 0: (gap3 << 2)        — k1, k2 unchanged; gap3 == 0 keeps
//                               duplicates, so multisets round-trip
//   tag 1: (gap2 << 2) | 1, k3
//   tag 2: (gap1 << 2) | 2, k2, k3
//
// The common case — same k1/k2 group, small k3 gap — is one byte.

#ifndef PARQO_STORAGE_COMPRESSED_INDEX_H_
#define PARQO_STORAGE_COMPRESSED_INDEX_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "rdf/term.h"
#include "storage/varbyte.h"

namespace parqo {

/// Largest representable TermId; open range bounds use it as +infinity.
inline constexpr TermId kMaxTermId = 0xffffffffu;

/// A key in index component order (NOT triple order; permutation_index.h
/// maps permutations). Aggregated tables store a count as k3.
struct IndexKey {
  TermId k1 = 0;
  TermId k2 = 0;
  TermId k3 = 0;
  friend constexpr auto operator<=>(const IndexKey&,
                                    const IndexKey&) = default;
};

/// Entries per compressed leaf page. 1024 keeps a decoded page (12 KiB)
/// cache-resident and makes pages natural scan morsels.
inline constexpr std::size_t kLeafEntries = 1024;

/// Entries per restart block: a seek decodes at most one block of keys
/// below its lower bound. Each block costs an absolute anchor in place
/// of one gap, plus a 2-byte offset (DESIGN.md section 17).
inline constexpr std::size_t kBlockEntries = 64;
inline constexpr std::size_t kBlocksPerPage = kLeafEntries / kBlockEntries;
static_assert(kLeafEntries % kBlockEntries == 0);

class CompressedKeyIndex {
 public:
  /// Reusable per-caller decode buffer, grown to the largest page it has
  /// been asked to hold. Never shared across threads (the index itself
  /// is immutable after Build and safe for concurrent readers).
  struct Scratch {
    std::vector<IndexKey> keys;
  };

  CompressedKeyIndex() = default;

  /// Builds from keys sorted ascending; duplicates are allowed and
  /// preserved (the fuzzer feeds multisets; node stores and count tables
  /// are sets). Replaces prior contents.
  void Build(std::span<const IndexKey> sorted);

  std::size_t size() const { return n_; }
  std::size_t num_pages() const { return pages_.size(); }

  /// Compressed payload plus page directory and block offset bytes.
  std::size_t ByteSize() const {
    return data_.size() + pages_.size() * sizeof(PageRef) +
           blocks_.size() * sizeof(std::uint16_t);
  }

  /// Pages overlapping [lo, hi]: [first, end) directory indexes.
  std::pair<std::size_t, std::size_t> PageSpan(const IndexKey& lo,
                                               const IndexKey& hi) const;

  /// Decodes the part of page `page` that can hold entries within
  /// [lo, hi] and calls fn(std::span<const IndexKey>) on those entries
  /// (possibly empty span -> fn not called).
  template <typename Fn>
  void ScanPage(std::size_t page, const IndexKey& lo, const IndexKey& hi,
                Scratch& scratch, Fn&& fn) const {
    const std::size_t page_max = std::min(n_, kLeafEntries);
    if (scratch.keys.size() < page_max) scratch.keys.resize(page_max);
    const std::size_t n = DecodeRange(page, lo, hi, scratch.keys.data());
    if (n != 0) fn(std::span<const IndexKey>(scratch.keys.data(), n));
  }

  /// Ordered scan of every entry in [lo, hi]; fn sees one ascending span
  /// per overlapping page.
  template <typename Fn>
  void ScanRange(const IndexKey& lo, const IndexKey& hi, Scratch& scratch,
                 Fn&& fn) const {
    auto [first, end] = PageSpan(lo, hi);
    for (std::size_t page = first; page < end; ++page) {
      ScanPage(page, lo, hi, scratch, fn);
    }
  }

  /// Exact number of entries in [lo, hi]. Interior pages are counted from
  /// the directory; at most two boundary pages are decoded.
  std::uint64_t CountRange(const IndexKey& lo, const IndexKey& hi,
                           Scratch& scratch) const;

 private:
  struct PageRef {
    IndexKey first;             // first key stored in the page
    std::uint32_t offset = 0;   // byte offset into data_
    std::uint32_t count = 0;    // entries in the page
  };

  /// Writes page `page`'s entries within [lo, hi] to `out` (room for
  /// the page's entries) and returns how many.
  std::size_t DecodeRange(std::size_t page, const IndexKey& lo,
                          const IndexKey& hi, IndexKey* out) const;

  std::size_t n_ = 0;
  std::vector<std::uint8_t> data_;
  std::vector<PageRef> pages_;
  /// Byte offset of block b of page p, relative to the page's offset, at
  /// [p * kBlocksPerPage + b]. A page of at most 1024 entries of at most
  /// 15 bytes each fits 16 bits.
  std::vector<std::uint16_t> blocks_;
};

}  // namespace parqo

#endif  // PARQO_STORAGE_COMPRESSED_INDEX_H_
