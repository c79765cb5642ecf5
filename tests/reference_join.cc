#include "tests/reference_join.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/join_kernel.h"

namespace parqo::testing {

BindingTable ReferenceHashJoin(const BindingTable& left,
                               const BindingTable& right) {
  std::vector<VarId> shared = SharedSchema(left.schema(), right.schema());
  std::vector<VarId> out_schema = MergeSchemas(left.schema(), right.schema());
  BindingTable out(out_schema);

  std::vector<int> out_from_left(out_schema.size(), -1);
  std::vector<int> out_from_right(out_schema.size(), -1);
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    out_from_left[i] = left.ColumnOf(out_schema[i]);
    out_from_right[i] = right.ColumnOf(out_schema[i]);
  }
  std::vector<TermId> row(out_schema.size());
  auto emit = [&](std::size_t lr, std::size_t rr) {
    for (std::size_t i = 0; i < out_schema.size(); ++i) {
      row[i] = out_from_left[i] >= 0 ? left.At(lr, out_from_left[i])
                                     : right.At(rr, out_from_right[i]);
    }
    out.AppendRow(row);
  };

  if (shared.empty()) {
    for (std::size_t lr = 0; lr < left.NumRows(); ++lr) {
      for (std::size_t rr = 0; rr < right.NumRows(); ++rr) emit(lr, rr);
    }
    return out;
  }

  const bool build_left = left.NumRows() <= right.NumRows();
  const BindingTable& build = build_left ? left : right;
  const BindingTable& probe = build_left ? right : left;
  std::vector<int> build_key, probe_key;
  for (VarId v : shared) {
    build_key.push_back(build.ColumnOf(v));
    probe_key.push_back(probe.ColumnOf(v));
  }

  // Hash -> build rows in ascending order (vector preserves insertion
  // order); the probe loop then emits probe-ascending, build-ascending.
  std::vector<TermId> key(shared.size());
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
  table.reserve(build.NumRows());
  for (std::size_t r = 0; r < build.NumRows(); ++r) {
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] = build.At(r, build_key[i]);
    }
    table[JoinKeyHash(key.data(), key.size())].push_back(
        static_cast<std::uint32_t>(r));
  }
  for (std::size_t r = 0; r < probe.NumRows(); ++r) {
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] = probe.At(r, probe_key[i]);
    }
    auto it = table.find(JoinKeyHash(key.data(), key.size()));
    if (it == table.end()) continue;
    for (std::uint32_t b : it->second) {
      bool equal = true;
      for (std::size_t i = 0; i < key.size(); ++i) {
        if (build.At(b, build_key[i]) != key[i]) {
          equal = false;
          break;
        }
      }
      if (!equal) continue;
      if (build_left) {
        emit(b, r);
      } else {
        emit(r, b);
      }
    }
  }
  return out;
}

}  // namespace parqo::testing
