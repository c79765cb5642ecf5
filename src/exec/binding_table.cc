#include "exec/binding_table.h"

#include <utility>

namespace parqo {
namespace {

// FNV-1a over one row, reading column vectors at a fixed row index. Same
// constants as the join kernels so hash quality is shared.
std::uint64_t HashRowAt(const std::vector<std::vector<TermId>>& cols,
                        std::size_t row) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::vector<TermId>& c : cols) {
    h ^= c[row];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint32_t kVacant = 0xffffffffu;

}  // namespace

void BindingTable::AppendFrom(const BindingTable& src) {
  PARQO_DCHECK(schema_ == src.schema_);
  sorted_by_ = kInvalidVarId;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].insert(cols_[c].end(), src.cols_[c].begin(),
                    src.cols_[c].end());
  }
}

void BindingTable::Deduplicate(DedupScratch* scratch) {
  Truncate(DeduplicateRows(0, NumRows(), 0, scratch));
}

std::size_t BindingTable::DeduplicateRows(std::size_t begin, std::size_t end,
                                          std::size_t to,
                                          DedupScratch* scratch) {
  PARQO_DCHECK(to <= begin && begin <= end && end <= NumRows());
  const std::size_t rows = end - begin;
  if (rows == 0) return 0;
  DedupScratch local;
  DedupScratch& s = scratch != nullptr ? *scratch : local;

  // Open-addressed table of row indexes, linear probing, power-of-two
  // capacity at <= 50% load. A slot holds the index of the first row seen
  // with that content; kVacant marks empty.
  std::size_t cap = 16;
  while (cap < rows * 2) cap <<= 1;
  const std::size_t mask = cap - 1;
  std::vector<std::uint32_t>& slots = s.slots;
  std::vector<std::uint32_t>& keep = s.keep;
  slots.assign(cap, kVacant);
  keep.clear();

  auto rows_equal = [&](std::uint32_t a, std::uint32_t b) {
    for (const std::vector<TermId>& c : cols_) {
      if (c[a] != c[b]) return false;
    }
    return true;
  };

  for (auto r = static_cast<std::uint32_t>(begin); r < end; ++r) {
    std::uint64_t h = HashRowAt(cols_, r);
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      std::uint32_t slot = slots[i];
      if (slot == kVacant) {
        slots[i] = r;
        keep.push_back(r);
        break;
      }
      if (rows_equal(slot, r)) break;  // duplicate of an earlier row
    }
  }
  const std::size_t kept = keep.size();
  if (kept != rows || to != begin) {
    // keep is ascending with keep[i] >= begin + i >= to + i, so compacting
    // front to back never reads a row it has already overwritten.
    for (std::vector<TermId>& c : cols_) {
      for (std::size_t i = 0; i < kept; ++i) c[to + i] = c[keep[i]];
    }
  }
  ReleaseIfLarge(slots);
  ReleaseIfLarge(keep);
  return kept;
}

BindingTable BindingTable::Project(const std::vector<VarId>& vars) const {
  BindingTable out(vars);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    int c = ColumnOf(vars[i]);
    PARQO_CHECK(c >= 0);
    out.cols_[i] = cols_[c];  // whole-column copy
  }
  // Projection keeps row order (dedup is keep-first), so known order
  // survives when the sorted column itself is kept.
  if (sorted_by_ != kInvalidVarId && out.ColumnOf(sorted_by_) >= 0) {
    out.sorted_by_ = sorted_by_;
  }
  out.Deduplicate();
  return out;
}

}  // namespace parqo
