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
//
// Decoding hands each key to a caller's function as it is decoded; there
// is no page buffer, so a scan writes its output columns directly.

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

/// Component `i` (0, 1, 2) of `k`.
inline TermId KeyAt(const IndexKey& k, int i) {
  return i == 0 ? k.k1 : i == 1 ? k.k2 : k.k3;
}

/// Entries per compressed leaf page. Pages are the unit of the page
/// directory and the unit a range decode reads.
inline constexpr std::size_t kLeafEntries = 1024;

/// Entries per restart block: a seek decodes at most one block of keys
/// below its lower bound. Each block costs an absolute anchor in place
/// of one gap, plus a 2-byte offset (DESIGN.md section 17).
inline constexpr std::size_t kBlockEntries = 64;
inline constexpr std::size_t kBlocksPerPage = kLeafEntries / kBlockEntries;
static_assert(kLeafEntries % kBlockEntries == 0);

namespace page_codec {

inline IndexKey DecodeAnchor(const std::uint8_t*& p) {
  IndexKey k;
  k.k1 = VarbyteDecode32(p);
  k.k2 = VarbyteDecode32(p);
  k.k3 = VarbyteDecode32(p);
  return k;
}

// Applies one tagged gap entry to `k`, the entry before it.
inline void DecodeGap(const std::uint8_t*& p, IndexKey& k) {
  const std::uint64_t tagged = VarbyteDecode(p);
  const std::uint32_t gap = static_cast<std::uint32_t>(tagged >> 2);
  switch (tagged & 3) {
    case 2:
      k.k1 += gap;
      k.k2 = VarbyteDecode32(p);
      k.k3 = VarbyteDecode32(p);
      break;
    case 1:
      k.k2 += gap;
      k.k3 = VarbyteDecode32(p);
      break;
    default:
      k.k3 += gap;
      break;
  }
}

// Sequential decoder over one page from a block boundary: entry i is an
// anchor when it opens a block, else a tagged gap from entry i - 1.
struct PageCursor {
  const std::uint8_t* p;
  std::size_t i;  // index of the next entry to decode
  IndexKey key;   // the last decoded entry

  void Next() {
    if (i++ % kBlockEntries == 0) {
      key = DecodeAnchor(p);
    } else {
      DecodeGap(p, key);
    }
  }

  // Hands every remaining entry up to `end` to fn with no bound
  // comparisons. Works a block at a time, so the inner loop only decodes
  // gaps, and on locals: fn's stores could alias the members.
  template <typename Fn>
  void DecodeTo(std::size_t end, Fn& fn) {
    const std::uint8_t* q = p;
    IndexKey k = key;
    for (std::size_t j = i; j < end;) {
      const std::size_t block_end =
          std::min(end, (j / kBlockEntries + 1) * kBlockEntries);
      if (j % kBlockEntries == 0) {
        k = DecodeAnchor(q);
        fn(k);
        ++j;
      }
      for (; j < block_end; ++j) {
        DecodeGap(q, k);
        fn(k);
      }
    }
    p = q;
    i = end;
    key = k;
  }
};

}  // namespace page_codec

class CompressedKeyIndex {
 public:
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

  /// Calls fn(const IndexKey&) on every entry of page `page` within
  /// [lo, hi], ascending, and returns the entries it decoded. Decodes only
  /// the part of the page the range can touch: from the last restart block
  /// whose anchor is < lo (a run of keys equal to lo can begin in the block
  /// before an anchor that equals it) to the first key > hi. When the next
  /// page's anchor is <= hi, so is this page's last key, and the rest of
  /// the page decodes with no bound comparisons.
  template <typename Fn>
  std::size_t ScanPage(std::size_t page, const IndexKey& lo,
                       const IndexKey& hi, Fn&& fn) const {
    const PageRef& ref = pages_[page];
    const std::size_t block = FirstBlock(page, lo);
    page_codec::PageCursor c = BlockCursor(page, block);
    const std::size_t begin = c.i;
    const std::size_t count = ref.count;
    c.Next();
    while (c.key < lo) {
      if (c.i == count) return c.i - begin;
      c.Next();
    }
    if (page + 1 < pages_.size() && pages_[page + 1].first <= hi) {
      fn(c.key);
      c.DecodeTo(count, fn);
      return c.i - begin;
    }
    while (!(hi < c.key)) {
      fn(c.key);
      if (c.i == count) break;
      c.Next();
    }
    return c.i - begin;
  }

  /// Ordered scan of every entry in [lo, hi]: fn(const IndexKey&) per
  /// entry, ascending. Returns the entries it decoded.
  template <typename Fn>
  std::size_t ScanRange(const IndexKey& lo, const IndexKey& hi,
                        Fn&& fn) const {
    auto [first, end] = PageSpan(lo, hi);
    std::size_t decoded = 0;
    for (std::size_t page = first; page < end; ++page) {
      decoded += ScanPage(page, lo, hi, fn);
    }
    return decoded;
  }

  /// Entries in the restart blocks of pages [first, end) = PageSpan(lo,
  /// hi) that a scan of [lo, hi] can decode: from FirstBlock on the first
  /// page to the last block whose anchor is <= hi on the last. Bounds both
  /// the entries the scan returns and those it decodes (but for the one
  /// key past hi that ends it), to within a block at either end. Reads
  /// only the directory and a few anchors.
  std::size_t BlockBound(std::size_t first, std::size_t end,
                         const IndexKey& lo, const IndexKey& hi) const;

  class Seeker;

  /// Exact number of entries in [lo, hi]. Interior pages are counted from
  /// the directory; at most two boundary pages are decoded.
  std::uint64_t CountRange(const IndexKey& lo, const IndexKey& hi) const;

 private:
  struct PageRef {
    IndexKey first;             // first key stored in the page
    std::uint32_t offset = 0;   // byte offset into data_
    std::uint32_t count = 0;    // entries in the page
  };

  std::size_t num_blocks(std::size_t page) const {
    return (pages_[page].count + kBlockEntries - 1) / kBlockEntries;
  }
  const std::uint8_t* BlockData(std::size_t page, std::size_t block) const {
    return data_.data() + pages_[page].offset +
           blocks_[page * kBlocksPerPage + block];
  }
  /// A cursor about to decode the anchor of block `block` of `page`.
  page_codec::PageCursor BlockCursor(std::size_t page,
                                     std::size_t block) const {
    return {BlockData(page, block), block * kBlockEntries, {}};
  }
  IndexKey Anchor(std::size_t page, std::size_t block) const {
    const std::uint8_t* p = BlockData(page, block);
    return page_codec::DecodeAnchor(p);
  }

  /// The restart block of page `page` a decode of keys >= lo starts at.
  std::size_t FirstBlock(std::size_t page, const IndexKey& lo) const;

  std::size_t n_ = 0;
  std::vector<std::uint8_t> data_;
  std::vector<PageRef> pages_;
  /// Byte offset of block b of page p, relative to the page's offset, at
  /// [p * kBlocksPerPage + b]. A page of at most 1024 entries of at most
  /// 15 bytes each fits 16 bits.
  std::vector<std::uint16_t> blocks_;
};

/// Ascending seeks over one index that never decode a restart block
/// twice (DESIGN.md section 17). Each Scan continues from where the last
/// one stopped while its lower bound lies in the cursor's block; only a
/// bound past the next block's anchor jumps, through the page directory
/// and the anchors, to the block that bound's run can begin in. So a run
/// of seeks decodes each block at most once and skips every block that
/// holds none of their keys but for the one each seek walks in from. One
/// Seeker serves one thread.
class CompressedKeyIndex::Seeker {
 public:
  explicit Seeker(const CompressedKeyIndex& idx) : idx_(idx) {}

  /// Calls fn(const IndexKey&) on every entry in [lo, hi], ascending. Each
  /// call's lo must exceed the previous call's hi.
  template <typename Fn>
  void Scan(const IndexKey& lo, const IndexKey& hi, Fn&& fn) {
    if (done_) return;
    if (!positioned_) {
      if (idx_.pages_.empty()) {
        done_ = true;
        return;
      }
      JumpTo(lo, 0);
    } else if (c_.key < lo && NextAnchor() < lo) {
      JumpTo(lo, page_);
    }
    // Decode on locals, as PageCursor::DecodeTo does: fn's stores could
    // alias the members.
    page_codec::PageCursor c = c_;
    std::size_t count = idx_.pages_[page_].count;
    while (c.key < lo) {
      if (c.i < count) {
        c.Next();
      } else if (!NextPage(c, count)) {
        return;
      }
    }
    // When the next page's anchor is <= hi, so is the rest of this page.
    auto rest_in = [&] {
      return page_ + 1 < idx_.pages_.size() &&
             idx_.pages_[page_ + 1].first <= hi;
    };
    bool tail = rest_in();
    while (!(hi < c.key)) {
      fn(c.key);
      if (c.i < count && !tail) {
        c.Next();
        continue;
      }
      c.DecodeTo(count, fn);
      if (!NextPage(c, count)) return;
      tail = rest_in();
    }
    c_ = c;
  }

  /// True once every entry is decoded and behind the cursor: no later
  /// Scan can return a row.
  bool done() const { return done_; }
  /// The first entry not yet behind the cursor: no entry lies between the
  /// last Scan's hi and it. Valid after a Scan that left !done().
  const IndexKey& key() const { return c_.key; }

  /// Index entries decoded so far, anchors and walk-ins included.
  std::size_t decoded() const { return decoded_ + (c_.i - begin_); }

 private:
  // The anchor after the cursor's block, or +infinity past the last one.
  IndexKey NextAnchor() const {
    const std::size_t next = (c_.i - 1) / kBlockEntries + 1;
    if (next < idx_.num_blocks(page_)) return idx_.Anchor(page_, next);
    if (page_ + 1 < idx_.pages_.size()) return idx_.pages_[page_ + 1].first;
    return {kMaxTermId, kMaxTermId, kMaxTermId};
  }

  // Moves to the block a decode of keys >= lo starts at, searching pages
  // from `from` on, and decodes its anchor.
  void JumpTo(const IndexKey& lo, std::size_t from) {
    const auto& pages = idx_.pages_;
    auto it = std::lower_bound(
        pages.begin() + static_cast<std::ptrdiff_t>(from), pages.end(), lo,
        [](const PageRef& p, const IndexKey& k) { return p.first < k; });
    const std::size_t at = static_cast<std::size_t>(it - pages.begin());
    const std::size_t page = at > from ? at - 1 : from;
    Enter(page, idx_.FirstBlock(page, lo));
  }

  void Enter(std::size_t page, std::size_t block) {
    decoded_ += c_.i - begin_;
    page_ = page;
    c_ = idx_.BlockCursor(page, block);
    begin_ = c_.i;
    positioned_ = true;
    c_.Next();
  }

  // Moves `c` to the next page's anchor, `count` to its entries; false,
  // with every entry behind the cursor, past the last page.
  bool NextPage(page_codec::PageCursor& c, std::size_t& count) {
    if (page_ + 1 == idx_.pages_.size()) {
      c_ = c;
      done_ = true;
      return false;
    }
    c_ = c;
    Enter(page_ + 1, 0);
    c = c_;
    count = idx_.pages_[page_].count;
    return true;
  }

  const CompressedKeyIndex& idx_;
  std::size_t page_ = 0;
  page_codec::PageCursor c_{nullptr, 0, {}};
  std::size_t begin_ = 0;    // c_.i where the current decode run began
  std::size_t decoded_ = 0;  // entries of earlier runs
  bool positioned_ = false;
  bool done_ = false;        // every entry is decoded and consumed
};

}  // namespace parqo

#endif  // PARQO_STORAGE_COMPRESSED_INDEX_H_
