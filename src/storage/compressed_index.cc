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
                                             const IndexKey& hi) const {
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
    ScanPage(page, lo, hi, [&](const IndexKey&) { ++total; });
  }
  return total;
}

std::size_t CompressedKeyIndex::BlockBound(std::size_t first,
                                           std::size_t end,
                                           const IndexKey& lo,
                                           const IndexKey& hi) const {
  if (first == end) return 0;
  std::size_t total = 0;
  for (std::size_t page = first; page < end; ++page) {
    total += pages_[page].count;
  }
  const std::size_t start = FirstBlock(first, lo);
  total -= start * kBlockEntries;
  // Every page but the last ends at or below the next page's anchor,
  // which is <= hi. On the last, blocks whose anchor is > hi hold no key
  // the scan reads but the one that stops it.
  const std::size_t last = end - 1;
  if (last + 1 < pages_.size() && pages_[last + 1].first <= hi) return total;
  std::size_t upto = num_blocks(last);  // blocks [upto, ...) have anchor > hi
  std::size_t below = last == first ? start : 0;
  while (upto - below > 1) {
    const std::size_t mid = below + (upto - below) / 2;
    if (hi < Anchor(last, mid)) {
      upto = mid;
    } else {
      below = mid;
    }
  }
  return total - (pages_[last].count - std::min<std::size_t>(
                                           pages_[last].count,
                                           upto * kBlockEntries));
}

std::size_t CompressedKeyIndex::FirstBlock(std::size_t page,
                                           const IndexKey& lo) const {
  if (!(pages_[page].first < lo)) return 0;
  // The last block whose anchor is < lo. The comparison is strict for the
  // reason PageSpan's is: a run of keys equal to lo can begin in the tail
  // of the block before an anchor that equals lo.
  std::size_t below = 0;  // anchor < lo
  std::size_t above = num_blocks(page);
  while (above - below > 1) {
    const std::size_t mid = below + (above - below) / 2;
    if (Anchor(page, mid) < lo) {
      below = mid;
    } else {
      above = mid;
    }
  }
  return below;
}

}  // namespace parqo
