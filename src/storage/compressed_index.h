// Clustered compressed index over sorted three-component keys — the
// storage primitive behind every permutation index and aggregated count
// table (DESIGN.md section 17). Keys are stored in fixed-size leaf pages,
// delta + varbyte compressed over component gaps; an uncompressed page
// directory (first key, byte offset, entry count per page) drives
// lower_bound seeks, so a prefix-range scan decodes only the pages that
// overlap the range and a range COUNT decodes only the two boundary
// pages — interior pages are answered from the directory alone.
//
// Page entry encoding, after an absolute (k1, k2, k3) anchor per page:
// one tagged varbyte value whose low 2 bits say which key component
// changed first, followed by absolute varbytes for the components after
// it:
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

class CompressedKeyIndex {
 public:
  /// Reusable per-caller decode buffer: one decoded page. Never shared
  /// across threads (the index itself is immutable after Build and safe
  /// for concurrent readers). It remembers which page it holds, so
  /// consecutive seeks that land in one page decode it once.
  struct Scratch {
    std::vector<IndexKey> keys;
    const CompressedKeyIndex* index = nullptr;  // owner of `keys`' page
    std::size_t page = 0;
  };

  CompressedKeyIndex() = default;

  /// Builds from keys sorted ascending; duplicates are allowed and
  /// preserved (per-node stores are multisets). Replaces prior contents.
  void Build(std::span<const IndexKey> sorted);

  std::size_t size() const { return n_; }
  std::size_t num_pages() const { return pages_.size(); }

  /// Compressed payload plus directory bytes.
  std::size_t ByteSize() const {
    return data_.size() + pages_.size() * sizeof(PageRef);
  }

  /// Pages overlapping [lo, hi]: [first, end) directory indexes.
  std::pair<std::size_t, std::size_t> PageSpan(const IndexKey& lo,
                                               const IndexKey& hi) const;

  /// Decodes page `page` and calls fn(std::span<const IndexKey>) on its
  /// entries within [lo, hi] (possibly empty span -> fn not called).
  template <typename Fn>
  void ScanPage(std::size_t page, const IndexKey& lo, const IndexKey& hi,
                Scratch& scratch, Fn&& fn) const {
    DecodePage(page, scratch);
    const IndexKey* b = scratch.keys.data();
    const IndexKey* e = b + scratch.keys.size();
    const IndexKey* lo_it = std::lower_bound(b, e, lo);
    const IndexKey* hi_it = std::upper_bound(lo_it, e, hi);
    if (lo_it != hi_it) {
      fn(std::span<const IndexKey>(lo_it,
                                   static_cast<std::size_t>(hi_it - lo_it)));
    }
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

  void DecodePage(std::size_t page, Scratch& scratch) const;

  std::size_t n_ = 0;
  std::vector<std::uint8_t> data_;
  std::vector<PageRef> pages_;
};

}  // namespace parqo

#endif  // PARQO_STORAGE_COMPRESSED_INDEX_H_
