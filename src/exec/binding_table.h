// Columnar table of variable bindings flowing between operators of the
// execution engine. The schema is a list of VarIds; storage is one dense
// TermId vector per column, so batch operators (scan emission, join
// gather, repartition routing) read and write contiguous columns instead
// of strided rows (DESIGN.md section 13). Row-at-a-time access (At,
// AppendRow) remains for cold paths and tests; the execution hot path is
// held to the batch APIs by tools/parqo_lint.py's exec-row-hot-path rule.

#ifndef PARQO_EXEC_BINDING_TABLE_H_
#define PARQO_EXEC_BINDING_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "query/join_graph.h"
#include "rdf/term.h"

namespace parqo {

/// Scratch buffers keep their capacity from one use to the next, so a
/// light operator that reuses them allocates nothing. A buffer that a
/// heavy operator grew past kScratchKeepBytes is freed after that use
/// instead, so keeping scratch for a whole request does not hold on to
/// the heavy operator's memory.
inline constexpr std::size_t kScratchKeepBytes = std::size_t{64} << 10;

template <typename T>
std::size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
void ReleaseIfLarge(std::vector<T>& v) {
  if (CapacityBytes(v) > kScratchKeepBytes) std::vector<T>().swap(v);
}

/// Reusable buffers for BindingTable::Deduplicate: the open-addressed
/// slot table and the list of kept rows.
struct DedupScratch {
  std::vector<std::uint32_t> slots;
  std::vector<std::uint32_t> keep;
};

/// What a kernel wrote into its caller's columns: the rows, and the
/// variable they are known sorted on (kInvalidVarId = unknown).
struct RowsWritten {
  std::size_t rows = 0;
  VarId sorted_by = kInvalidVarId;
};

class BindingTable;

/// Rows [begin, end) of columns laid out by `schema`, known sorted on
/// `sorted_by`: how a node reads its share of an operator's table, and
/// how a k-way join reads its previous step's output. A view: the
/// columns must outlive it and must not grow while it is read.
struct RowRange {
  RowRange(const std::vector<VarId>* schema_in,
           const std::vector<TermId>* cols_in, std::size_t begin_in,
           std::size_t end_in, VarId sorted_by_in)
      : schema(schema_in),
        cols(cols_in),
        begin(begin_in),
        end(end_in),
        sorted_by(sorted_by_in) {}
  /// Every row of `t`, with its sorted-by metadata.
  RowRange(const BindingTable& t);  // NOLINT(google-explicit-constructor)

  std::size_t NumRows() const { return end - begin; }
  /// Column index of variable v, or -1 (BindingTable::ColumnOf).
  int ColumnOf(VarId v) const {
    for (std::size_t c = 0; c < schema->size(); ++c) {
      if ((*schema)[c] == v) return static_cast<int>(c);
    }
    return -1;
  }
  /// Column `col`'s first row of the range.
  const TermId* Column(int col) const { return cols[col].data() + begin; }

  const std::vector<VarId>* schema;
  const std::vector<TermId>* cols;  ///< cols[c] is column c
  std::size_t begin;
  std::size_t end;
  VarId sorted_by;
};

class BindingTable {
 public:
  BindingTable() = default;
  explicit BindingTable(std::vector<VarId> schema)
      : schema_(std::move(schema)), cols_(schema_.size()) {}

  const std::vector<VarId>& schema() const { return schema_; }
  int num_cols() const { return static_cast<int>(schema_.size()); }
  std::size_t NumRows() const { return cols_.empty() ? 0 : cols_[0].size(); }

  /// Column index of variable v, or -1 if absent (duplicate schema
  /// entries keep the first column). A linear scan: callers look columns
  /// up once per operator, never per row, and a lookup table would cost
  /// every table one more allocation.
  int ColumnOf(VarId v) const {
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      if (schema_[c] == v) return static_cast<int>(c);
    }
    return -1;
  }

  TermId At(std::size_t row, int col) const { return cols_[col][row]; }

  /// Whole-column access for batch kernels.
  const std::vector<TermId>& Column(int col) const { return cols_[col]; }
  std::vector<TermId>& MutableColumn(int col) { return cols_[col]; }
  /// Every column, for kernels that write them all (num_cols() entries).
  std::vector<TermId>* MutableColumns() { return cols_.data(); }

  /// Rows [begin, end), known sorted on `sorted_by`.
  RowRange Rows(std::size_t begin, std::size_t end, VarId sorted_by) const {
    return {&schema_, cols_.data(), begin, end, sorted_by};
  }

  void Reserve(std::size_t rows) {
    for (std::vector<TermId>& c : cols_) c.reserve(rows);
  }

  /// Ordered-scan metadata: the variable whose column is known to be
  /// non-decreasing in row order (kInvalidVarId = unknown). Index scans
  /// set it for the first free key component; the batch join kernels
  /// propagate it through order-preserving operators and the executor
  /// consults it to choose merge joins. NOT part of value equality:
  /// operator== compares schema and rows only, so tables that differ only
  /// in known order compare equal.
  VarId sorted_by() const { return sorted_by_; }
  void SetSortedBy(VarId v) { sorted_by_ = v; }

  /// Appends one row; `row` must have num_cols() entries. Cold-path/test
  /// API: operators append in batches (AppendFrom, or whole columns
  /// through MutableColumn). Any append invalidates sorted-order metadata
  /// (appended rows need not extend the order).
  void AppendRow(const TermId* row) {
    sorted_by_ = kInvalidVarId;
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(row[c]);
    }
  }
  void AppendRow(const std::vector<TermId>& row) { AppendRow(row.data()); }

  /// Appends every row of `src`, column by column. Schemas must be
  /// identical (same variables in the same column order).
  void AppendFrom(const BindingTable& src);

  /// Removes duplicate rows (set semantics), keeping the first occurrence
  /// of each row in order — the canonical order downstream golden
  /// comparisons rely on. Hash-based: no row copies, no sorting; kept
  /// rows are compacted in place. Keep-first preserves row order, so
  /// sorted-by metadata survives. `scratch` (a local one when null)
  /// holds the hash table and kept-row list.
  void Deduplicate(DedupScratch* scratch = nullptr);

  /// Deduplicate over rows [begin, end) alone: keeps the first occurrence
  /// of each row of the range, writes the kept rows in order from row
  /// `to` (at most `begin`) and returns how many it kept. Rows outside
  /// the range are not read, and the table keeps its size, so a caller
  /// can compact several ranges front to back and Truncate once.
  std::size_t DeduplicateRows(std::size_t begin, std::size_t end,
                              std::size_t to, DedupScratch* scratch);

  /// Drops every row from `rows` on.
  void Truncate(std::size_t rows) {
    for (std::vector<TermId>& c : cols_) c.resize(rows);
  }

  /// Rows projected onto `vars` (each must be in the schema),
  /// deduplicated. Column-oriented: each projected column is copied
  /// wholesale, then duplicates are hashed out on the projected columns
  /// only. A zero-column projection yields an empty table (a table with
  /// no schema has no rows by definition).
  BindingTable Project(const std::vector<VarId>& vars) const;

  /// Exact equality: same schema, same rows in the same order.
  friend bool operator==(const BindingTable& a, const BindingTable& b) {
    return a.schema_ == b.schema_ && a.cols_ == b.cols_;
  }

 private:
  std::vector<VarId> schema_;
  std::vector<std::vector<TermId>> cols_;  // cols_[c][r]
  VarId sorted_by_ = kInvalidVarId;        // known row order; not compared
};

inline RowRange::RowRange(const BindingTable& t)
    : RowRange(t.Rows(0, t.NumRows(), t.sorted_by())) {}

}  // namespace parqo

#endif  // PARQO_EXEC_BINDING_TABLE_H_
