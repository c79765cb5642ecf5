// Flat open-addressed hash map keyed by TpSet, for the optimizer's memo
// tables (td_cmd_core.h, stats/estimator.h).
//
// The memo lookup sits on the hottest path of the enumeration: one probe
// per subproblem. std::unordered_map pays a heap-allocated node and a
// bucket-pointer chase per probe; this table stores the 8-byte TpSet keys
// and their values inline in one power-of-two slot array with linear
// probing, so a probe is a hash, a mask, and a short contiguous scan.
//
// Invariants (asserted in debug builds, relied on everywhere):
//   * The empty TpSet is the vacant-slot sentinel — memo keys are
//     subqueries, which are never empty.
//   * No erase, therefore no tombstones: probe chains never break, and
//     an insert never overwrites: the first value stored under a key
//     stays. Not thread-safe: one thread at a time uses each memo.
//   * Growth doubles the slot array and rehashes; pointers INTO the table
//     are invalidated, so memo values are handles (plan pointers into an
//     arena, offsets into the estimator's array) that stay valid.

#ifndef PARQO_COMMON_FLAT_MAP_H_
#define PARQO_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/tp_set.h"

namespace parqo {

template <typename V>
class FlatTpSetMap {
 public:
  FlatTpSetMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  /// Pointer to the value stored under `key`, or null. `key` non-empty.
  const V* Find(TpSet key) const {
    PARQO_DCHECK(!key.Empty());
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = TpSetHash{}(key) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key.Empty()) return nullptr;
    }
  }
  V* Find(TpSet key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  /// Inserts (key, value) unless `key` is already present; the existing
  /// value wins. Returns {stored value, inserted}. The returned pointer
  /// is invalidated by the next mutating call.
  std::pair<V*, bool> EmplaceFirstWins(TpSet key, V value) {
    PARQO_DCHECK(!key.Empty());
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = TpSetHash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key.Empty()) {
        slot.key = key;
        slot.value = std::move(value);
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  /// Pre-sizes the slot array for `n` entries without exceeding the load
  /// factor, so a bulk build performs no rehashes.
  void Reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want < 2 * (n + 1)) want <<= 1;
    if (want > slots_.size()) Rehash(want);
  }

  /// Drops all entries; keeps the slot array.
  void Clear() {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  /// Visits every (key, value) in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (!slot.key.Empty()) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    TpSet key;  // empty = vacant
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  void Grow() {
    Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    const std::size_t mask = new_capacity - 1;
    for (Slot& slot : old) {
      if (slot.key.Empty()) continue;
      std::size_t i = TpSetHash{}(slot.key) & mask;
      while (!slots_[i].key.Empty()) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size (or empty)
  std::size_t size_ = 0;
};

}  // namespace parqo

#endif  // PARQO_COMMON_FLAT_MAP_H_
