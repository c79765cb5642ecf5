// Row-at-a-time reference hash join: the kernel-level oracle the batch
// join kernels (exec/join_kernel.h) are compared against. It pins down
// the canonical output order both kernels share: probe rows ascending
// (probe = the larger input; ties build left), matching build rows
// ascending, cross product left-row-major. Deliberately slow and simple:
// per-row key materialization, per-row AppendRow.

#ifndef PARQO_TESTS_REFERENCE_JOIN_H_
#define PARQO_TESTS_REFERENCE_JOIN_H_

#include "exec/binding_table.h"

namespace parqo::testing {

/// Hash join of two tables on all shared variables (cross product when
/// none are shared), row at a time. Same schema, rows, and row ORDER as
/// BatchHashJoin — by construction, not by sorting.
BindingTable ReferenceHashJoin(const BindingTable& left,
                               const BindingTable& right);

}  // namespace parqo::testing

#endif  // PARQO_TESTS_REFERENCE_JOIN_H_
