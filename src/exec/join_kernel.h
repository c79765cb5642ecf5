// Batch hash-join kernels for the per-node execution path (DESIGN.md
// section 13). The join table is open-addressed with linear probing —
// the same shape as common/flat_map.h, but keyed per build row instead
// of per TpSet: each slot holds one build-row entry, duplicates of a key
// occupy later slots of the same probe chain, and linear probing
// guarantees a probe encounters them in build-insertion (ascending row)
// order. That property, plus a probe that runs over the probe rows in
// order, makes the batch engine's output order canonical: probe rows
// ascending, matching build rows ascending — independent of hashing or
// capacity.
//
// Two kernels share the layout: SingleKeyJoinTable stores the TermId key
// inline and matches by direct key comparison (no hash re-check, no key
// gather — the overwhelmingly common case in BGP joins, where operators
// share exactly one variable); MultiKeyJoinTable stores the 64-bit key
// hash and leaves full key equality to the caller, which has the key
// columns at hand.

#ifndef PARQO_EXEC_JOIN_KERNEL_H_
#define PARQO_EXEC_JOIN_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "exec/binding_table.h"
#include "query/join_graph.h"
#include "rdf/term.h"

namespace parqo {

/// Sorted union of two operator schemas (the join output schema).
std::vector<VarId> MergeSchemas(const std::vector<VarId>& a,
                                const std::vector<VarId>& b);

/// Variables present in both schemas, in `a`'s order (the join key).
std::vector<VarId> SharedSchema(const std::vector<VarId>& a,
                                const std::vector<VarId>& b);

/// Mixes a single TermId key into a 64-bit hash (splitmix64 finalizer).
/// TermIds are small dense integers, so without mixing every key would
/// land in the same low slots of a power-of-two table.
inline std::uint64_t JoinKeyHash(TermId t) {
  std::uint64_t x = static_cast<std::uint64_t>(t);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// FNV-1a over a multi-column key (matches the row-hash constants used by
/// BindingTable::Deduplicate).
inline std::uint64_t JoinKeyHash(const TermId* key, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= key[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Open-addressed join table over a single TermId key column. Slots are 8
/// bytes ({key, row+1}); row_plus_1 == 0 marks vacant. No erase, no
/// tombstones; capacity is a power of two at <= 50% load.
class SingleKeyJoinTable {
 public:
  /// (Re)builds the table over the `rows` keys at `keys`; row r of the
  /// build side has key keys[r]. Previous contents are discarded.
  void Build(const TermId* keys, std::size_t rows) {
    std::size_t cap = 16;
    while (cap < rows * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    const std::size_t mask = cap - 1;
    for (std::uint32_t r = 0; r < rows; ++r) {
      TermId k = keys[r];
      std::size_t i = JoinKeyHash(k) & mask;
      while (slots_[i].row_plus_1 != 0) i = (i + 1) & mask;
      slots_[i] = Slot{k, r + 1};
    }
  }

  /// Calls fn(build_row) for every build row whose key equals `key`, in
  /// ascending build-row order. Matching is a direct TermId comparison —
  /// hash collisions cost one compare, never a false match.
  template <typename Fn>
  void ForEachMatch(TermId key, Fn&& fn) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = JoinKeyHash(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.row_plus_1 == 0) return;
      if (s.key == key) fn(s.row_plus_1 - 1);
    }
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t Bytes() const { return CapacityBytes(slots_); }

  /// Frees the slots when a heavy build grew them (ReleaseIfLarge).
  void ReleaseIfLarge() { parqo::ReleaseIfLarge(slots_); }

 private:
  struct Slot {
    TermId key = kInvalidTermId;
    std::uint32_t row_plus_1 = 0;  // 0 = vacant
  };
  std::vector<Slot> slots_;
};

/// Open-addressed join table over a multi-column key, storing the 64-bit
/// key hash per build row. The caller confirms full key equality on hash
/// match (it owns the key columns); with 64-bit hashes a false positive
/// costs one extra compare.
class MultiKeyJoinTable {
 public:
  /// (Re)builds the table; row r of the build side hashes to hashes[r].
  void Build(const std::vector<std::uint64_t>& hashes) {
    std::size_t cap = 16;
    while (cap < hashes.size() * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    const std::size_t mask = cap - 1;
    for (std::uint32_t r = 0; r < hashes.size(); ++r) {
      std::size_t i = hashes[r] & mask;
      while (slots_[i].row_plus_1 != 0) i = (i + 1) & mask;
      slots_[i] = Slot{hashes[r], r + 1};
    }
  }

  /// Calls fn(build_row) for every build row whose key HASH equals
  /// `hash`, in ascending build-row order. The caller must re-check the
  /// actual key columns.
  template <typename Fn>
  void ForEachHashMatch(std::uint64_t hash, Fn&& fn) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.row_plus_1 == 0) return;
      if (s.hash == hash) fn(s.row_plus_1 - 1);
    }
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t Bytes() const { return CapacityBytes(slots_); }

  /// Frees the slots when a heavy build grew them (ReleaseIfLarge).
  void ReleaseIfLarge() { parqo::ReleaseIfLarge(slots_); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t row_plus_1 = 0;  // 0 = vacant
  };
  std::vector<Slot> slots_;
};

/// Reusable join buffers (DESIGN.md section 13, "Scratch ownership"): the
/// build tables, the generic kernel's build-key hashes, key-column
/// pointers and probe-key buffer, and the matches — parallel index
/// arrays into the probe and build inputs, in probe order. One scratch
/// serves one join at a time; the executor keeps one per partition.
struct JoinScratch {
  SingleKeyJoinTable single;
  MultiKeyJoinTable multi;
  std::vector<std::uint64_t> hashes;
  std::vector<const TermId*> build_key;
  std::vector<const TermId*> probe_key;
  std::vector<TermId> probe_tuple;
  std::vector<std::uint32_t> probe_rows;
  std::vector<std::uint32_t> build_rows;

  /// Heap bytes the buffers hold.
  std::size_t Bytes() const {
    return single.Bytes() + multi.Bytes() + CapacityBytes(hashes) +
           CapacityBytes(build_key) + CapacityBytes(probe_key) +
           CapacityBytes(probe_tuple) + CapacityBytes(probe_rows) +
           CapacityBytes(build_rows);
  }
};

struct BatchJoinOptions {
  /// Forces the generic multi-key kernel even for single-key joins; for
  /// benchmarking the specialization, never for production use.
  bool force_generic_kernel = false;
  /// Buffers to reuse; null means the join allocates its own.
  JoinScratch* scratch = nullptr;
};

/// Hash join of two row ranges on all shared variables (cross product
/// when none are shared). Build side is the smaller input (ties keep
/// left); output rows are ordered probe-row-major with build matches
/// ascending, columns materialized by batch gather into `out`: one
/// column per entry of `out_schema`, which must be
/// MergeSchemas(left schema, right schema). The columns are overwritten
/// and keep their capacity, so a caller that reuses them pays for them
/// once. The output inherits the probe side's sorted-by metadata
/// (probe-major emit preserves probe order).
RowsWritten BatchHashJoinInto(const RowRange& left, const RowRange& right,
                              const std::vector<VarId>& out_schema,
                              std::vector<TermId>* out,
                              const BatchJoinOptions& opts);

/// BatchHashJoinInto over whole tables, into a new table.
BindingTable BatchHashJoin(const BindingTable& left,
                           const BindingTable& right,
                           const BatchJoinOptions& opts = BatchJoinOptions{});

/// The single shared variable both inputs are known-sorted on, or
/// kInvalidVarId when the merge join does not apply (no/multiple shared
/// variables, unknown order, or an empty input — the hash join handles
/// those identically for free).
VarId MergeJoinKey(const RowRange& left, const RowRange& right);

/// Merge join on the single shared variable; both inputs MUST be sorted
/// on it (MergeJoinKey != kInvalidVarId). Probe/build sides, emit order,
/// and output columns are chosen exactly like BatchHashJoinInto — for
/// sorted inputs the run-scan produces probe-ascending, build-ascending
/// matches, so the output is BIT-IDENTICAL to the hash join's; only the
/// matching work (two sorted cursors, no table build, no hashing)
/// differs.
RowsWritten BatchMergeJoinInto(const RowRange& left, const RowRange& right,
                               const std::vector<VarId>& out_schema,
                               std::vector<TermId>* out,
                               const BatchJoinOptions& opts);

/// BatchMergeJoinInto over whole tables, into a new table.
BindingTable BatchMergeJoin(
    const BindingTable& left, const BindingTable& right,
    const BatchJoinOptions& opts = BatchJoinOptions{});

}  // namespace parqo

#endif  // PARQO_EXEC_JOIN_KERNEL_H_
