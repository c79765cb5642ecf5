#include "storage/compressed_index.h"

namespace parqo {

void CompressedKeyIndex::Build(std::span<const IndexKey> sorted) {
  PARQO_DCHECK(std::is_sorted(sorted.begin(), sorted.end()));
  n_ = sorted.size();
  data_.clear();
  pages_.clear();
  pages_.reserve((n_ + kLeafEntries - 1) / kLeafEntries);

  for (std::size_t begin = 0; begin < n_; begin += kLeafEntries) {
    const std::size_t end = std::min(n_, begin + kLeafEntries);
    PageRef ref;
    ref.first = sorted[begin];
    ref.offset = static_cast<std::uint32_t>(data_.size());
    ref.count = static_cast<std::uint32_t>(end - begin);
    pages_.push_back(ref);

    IndexKey prev = sorted[begin];
    VarbyteEncode(prev.k1, data_);
    VarbyteEncode(prev.k2, data_);
    VarbyteEncode(prev.k3, data_);
    for (std::size_t i = begin + 1; i < end; ++i) {
      const IndexKey& k = sorted[i];
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
      prev = k;
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

void CompressedKeyIndex::DecodePage(std::size_t page,
                                    Scratch& scratch) const {
  if (scratch.index == this && scratch.page == page) return;
  scratch.index = this;
  scratch.page = page;
  const PageRef& ref = pages_[page];
  scratch.keys.clear();
  scratch.keys.reserve(ref.count);
  const std::uint8_t* p = data_.data() + ref.offset;
  IndexKey k;
  k.k1 = VarbyteDecode32(p);
  k.k2 = VarbyteDecode32(p);
  k.k3 = VarbyteDecode32(p);
  scratch.keys.push_back(k);
  for (std::uint32_t i = 1; i < ref.count; ++i) {
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
    scratch.keys.push_back(k);
  }
}

}  // namespace parqo
