#include "storage/compressed_index.h"

namespace parqo {
namespace {

// A key costs at most three 5-byte varbytes, so block offsets within a
// page fit 16 bits.
static_assert(kLeafEntries * 15 <= 0xffff);

void EncodeAnchor(const IndexKey& k, std::vector<std::uint8_t>& out) {
  VarbyteEncode(k.k1, out);
  VarbyteEncode(k.k2, out);
  VarbyteEncode(k.k3, out);
}

IndexKey DecodeAnchor(const std::uint8_t*& p) {
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

  // Decodes every remaining entry up to `end` into `out` with no bound
  // comparisons. Returns the end of what it wrote. Works a block at a
  // time, so the inner loop only decodes gaps, and on locals: stores
  // through `out` could alias the members.
  IndexKey* DecodeTo(std::size_t end, IndexKey* out) {
    const std::uint8_t* q = p;
    IndexKey k = key;
    for (std::size_t j = i; j < end;) {
      const std::size_t block_end =
          std::min(end, (j / kBlockEntries + 1) * kBlockEntries);
      if (j % kBlockEntries == 0) {
        k = DecodeAnchor(q);
        *out++ = k;
        ++j;
      }
      for (; j < block_end; ++j) {
        DecodeGap(q, k);
        *out++ = k;
      }
    }
    p = q;
    i = end;
    key = k;
    return out;
  }
};

}  // namespace

void CompressedKeyIndex::Build(std::span<const IndexKey> sorted) {
  PARQO_DCHECK(std::is_sorted(sorted.begin(), sorted.end()));
  n_ = sorted.size();
  data_.clear();
  pages_.clear();
  blocks_.clear();
  const std::size_t num_pages = (n_ + kLeafEntries - 1) / kLeafEntries;
  pages_.reserve(num_pages);
  blocks_.assign(num_pages * kBlocksPerPage, 0);

  for (std::size_t begin = 0; begin < n_; begin += kLeafEntries) {
    const std::size_t end = std::min(n_, begin + kLeafEntries);
    PageRef ref;
    ref.first = sorted[begin];
    ref.offset = static_cast<std::uint32_t>(data_.size());
    ref.count = static_cast<std::uint32_t>(end - begin);
    std::uint16_t* offsets = &blocks_[pages_.size() * kBlocksPerPage];
    pages_.push_back(ref);

    for (std::size_t i = begin; i < end; ++i) {
      const IndexKey& k = sorted[i];
      if ((i - begin) % kBlockEntries == 0) {
        offsets[(i - begin) / kBlockEntries] =
            static_cast<std::uint16_t>(data_.size() - ref.offset);
        EncodeAnchor(k, data_);
        continue;
      }
      const IndexKey& prev = sorted[i - 1];
      if (k.k1 != prev.k1) {
        VarbyteEncode((static_cast<std::uint64_t>(k.k1 - prev.k1) << 2) | 2,
                      data_);
        VarbyteEncode(k.k2, data_);
        VarbyteEncode(k.k3, data_);
      } else if (k.k2 != prev.k2) {
        VarbyteEncode((static_cast<std::uint64_t>(k.k2 - prev.k2) << 2) | 1,
                      data_);
        VarbyteEncode(k.k3, data_);
      } else {
        VarbyteEncode(static_cast<std::uint64_t>(k.k3 - prev.k3) << 2,
                      data_);
      }
    }
  }
}

std::pair<std::size_t, std::size_t> CompressedKeyIndex::PageSpan(
    const IndexKey& lo, const IndexKey& hi) const {
  if (n_ == 0 || hi < lo) return {0, 0};
  // First candidate: one page before the first page whose first key is
  // >= lo. Entries >= lo can sit at the tail of the last page whose first
  // key is < lo, but no earlier (a page's tail is bounded by the next
  // page's first key); pages whose first key equals lo may ALL hold
  // matches when duplicate keys span pages, so none of them may be
  // skipped.
  auto it = std::lower_bound(
      pages_.begin(), pages_.end(), lo,
      [](const PageRef& p, const IndexKey& k) { return p.first < k; });
  std::size_t first =
      it == pages_.begin()
          ? 0
          : static_cast<std::size_t>(it - pages_.begin()) - 1;
  // End: the first page whose first key is > hi.
  auto end_it = std::upper_bound(
      pages_.begin() + static_cast<std::ptrdiff_t>(first), pages_.end(), hi,
      [](const IndexKey& k, const PageRef& p) { return k < p.first; });
  return {first, static_cast<std::size_t>(end_it - pages_.begin())};
}

std::uint64_t CompressedKeyIndex::CountRange(const IndexKey& lo,
                                             const IndexKey& hi,
                                             Scratch& scratch) const {
  auto [first, end] = PageSpan(lo, hi);
  std::uint64_t total = 0;
  for (std::size_t page = first; page < end; ++page) {
    const PageRef& ref = pages_[page];
    // A page is fully inside the range when its own first key is >= lo
    // and the NEXT page's first key is <= hi: the page's last key is
    // bounded by the next anchor, so no decode is needed.
    if (ref.first >= lo && page + 1 < pages_.size() &&
        pages_[page + 1].first <= hi) {
      total += ref.count;
      continue;
    }
    ScanPage(page, lo, hi, scratch,
             [&](std::span<const IndexKey> run) { total += run.size(); });
  }
  return total;
}

std::size_t CompressedKeyIndex::DecodeRange(std::size_t page,
                                            const IndexKey& lo,
                                            const IndexKey& hi,
                                            IndexKey* out) const {
  const PageRef& ref = pages_[page];
  const std::uint8_t* base = data_.data() + ref.offset;
  const std::uint16_t* offsets = &blocks_[page * kBlocksPerPage];

  // Start at the last block whose anchor is < lo, or at block 0. The
  // comparison is strict for the reason PageSpan's is: a run of keys
  // equal to lo can begin in the tail of the block before an anchor that
  // equals lo.
  std::size_t block = 0;
  if (ref.first < lo) {
    std::size_t below = 0;  // anchor < lo
    std::size_t above = (ref.count + kBlockEntries - 1) / kBlockEntries;
    while (above - below > 1) {
      const std::size_t mid = below + (above - below) / 2;
      const std::uint8_t* p = base + offsets[mid];
      if (DecodeAnchor(p) < lo) {
        below = mid;
      } else {
        above = mid;
      }
    }
    block = below;
  }

  PageCursor c{base + offsets[block], block * kBlockEntries, {}};
  const std::size_t count = ref.count;
  c.Next();
  while (c.key < lo) {
    if (c.i == count) return 0;
    c.Next();
  }
  IndexKey* o = out;
  // The next page's anchor bounds this page's last key, so when it is
  // <= hi the rest of the page decodes with no bound comparisons.
  if (page + 1 < pages_.size() && pages_[page + 1].first <= hi) {
    *o++ = c.key;
    return static_cast<std::size_t>(c.DecodeTo(count, o) - out);
  }
  while (!(hi < c.key)) {
    *o++ = c.key;
    if (c.i == count) break;
    c.Next();
  }
  return static_cast<std::size_t>(o - out);
}

}  // namespace parqo
