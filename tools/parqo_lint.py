#!/usr/bin/env python3
"""Project-specific lint for the parqo codebase.

Four rule families, each guarding an invariant the compiler cannot see:

  unordered-iteration   Iterating a std::unordered_map/unordered_set feeds
                        hash-order into whatever consumes the loop. In an
                        optimizer whose contract is "parallel plan == serial
                        plan, bit for bit" (the determinism tests in
                        tests/parallel_test.cc), any such loop that touches a
                        cost comparison or plan reduction is a latent
                        nondeterminism bug. Every iteration must either be
                        rewritten over a sorted/indexed container or carry an
                        allow() comment arguing order-independence.

  naked-new             Manual new/delete outside an owning abstraction.
                        The codebase is shared_ptr/unique_ptr/value-only.

  std-function-hot-path std::function in the enumerator hot path. The
                        recursion in td_cmd_core.h is templated over its
                        hook functors precisely so calls inline; a
                        std::function reintroduces type erasure and an
                        indirect call per memo probe.

  shared-plan-hot-path  Plan nodes constructed through the shared_ptr path
                        (std::make_shared, PlanBuilder::Scan/Join/
                        LocalJoinAll) inside the enumeration hot-path
                        files. Enumeration churns millions of candidates
                        and discards all but one; each must be a bump
                        allocation from the per-worker Arena
                        (ScanIn/JoinIn/LocalJoinAllIn, DESIGN.md §12), not
                        a heap node with refcounts. Cold paths — the
                        one-time materialization of a winner, a
                        single-group fallback — carry an allow().

  metric-write          Metric state mutated outside the registry's atomic
                        API (src/common/metrics.h). Hot paths share metric
                        cache lines across worker threads; a non-atomic
                        write is a data race TSan only catches when the
                        interleaving cooperates.

  exec-row-hot-path     Row-at-a-time constructs inside the vectorized
                        per-node execution hot path (DESIGN.md §13):
                        std::unordered_multimap join state, or per-row
                        AppendRow calls. The batch engine's contract is
                        one hash probe and one gather per morsel, not a
                        node allocation or a row copy per tuple; the
                        test-only tests/reference_join.cc, the kernels'
                        row-at-a-time oracle, is outside the listed
                        files. Cold paths carry an allow().

  raw-triple-storage    Raw permutation storage in the execution layer
                        (src/exec/): a std::vector<Triple> data member —
                        the pre-storage dual-sorted-vector layout — or any
                        use of legacy pso_/pos_/spo_/osp_ vector members.
                        A node's triples live in storage/PermutationIndex
                        (DESIGN.md §17); scans go through ChooseRange so
                        every pattern is answered from the right
                        permutation's contiguous range instead of a
                        hand-rolled binary search over a raw vector.
                        Counts come from RdfGraph::Index(), not nodes. A
                        deliberate raw buffer (test staging, build-time
                        chunking locals are already exempt by the member
                        naming convention) carries an allow().

  unordered-in-signature
                        Any std::unordered_* container in the BGP
                        canonicalizer (src/server/signature.*). The plan
                        cache keys on the canonical signature, so the
                        signature must be byte-identical across processes,
                        platforms, and libstdc++ versions; hash containers
                        expose seed- and implementation-dependent order to
                        every loop that touches them. Unlike
                        unordered-iteration this rule bans the declaration
                        itself — signature code uses std::map/std::set/
                        std::sort only, and there is no allow() escape.

  naked-sleep           Sleeps (sleep/usleep/nanosleep/sleep_for/
                        sleep_until) and predicate-less condition-variable
                        waits outside src/common/fault.*. All simulated
                        waiting is owned by parqo::SleepSeconds so fault
                        injection and retry backoff stay deterministic and
                        bounded; a stray sleep elsewhere is either a hidden
                        timing dependence (flaky test) or an unbounded hang
                        the chaos harness cannot detect. Waits must carry a
                        predicate (cv.wait(lock, pred)) or a timeout.

  retry-budget          A SleepSeconds() call whose delay does not come from
                        RetryPolicy::NextBackoffSeconds(). A hand-rolled
                        retry loop (fixed or ad-hoc backoff) retries for
                        free: it never draws a token from the cluster-wide
                        RetryBudget (src/common/fault.h), so a recovery
                        storm of such loops can amplify an outage
                        unbounded. Every retry delay must be computed by
                        the RetryPolicy wired to the budget; a sleep that
                        genuinely is not a retry (startup settle, test
                        pacing) carries an allow() saying so.

  Lock-discipline rules (src/ and tsa_fixtures only; the annotation header
  src/common/thread_annotations.h that implements the discipline is exempt):

  raw-std-mutex         std::mutex / std::shared_mutex / std::lock_guard /
                        std::unique_lock / std::scoped_lock / std::shared_lock
                        outside the annotation header. All locking goes
                        through parqo::Mutex + MutexLock so Clang Thread
                        Safety Analysis sees every acquisition and the
                        runtime rank checker audits ordering.

  mutex-rank            A parqo::Mutex/SharedMutex declared without a
                        LockRank::k* position in the static hierarchy, or
                        with a rank name the registry (the LockRank enum in
                        thread_annotations.h) does not define. Unranked
                        locks are invisible to deadlock-ordering review.

  guarded-field         A mutable data member of a mutex-owning class that
                        carries neither PARQO_GUARDED_BY nor a written
                        reason why it needs no lock (immutable after
                        construction, per-element atomics, ...). Exempt
                        member types: std::atomic, std::condition_variable,
                        std::once_flag, Mutex/SharedMutex, const/constexpr.

  lock-rank-order       A lexically nested MutexLock acquisition whose rank
                        is not strictly greater than the lock already held.
                        Same-rank nesting is also a finding (self-deadlock
                        under a different interleaving). This is the static
                        mirror of the runtime checker in
                        thread_annotations.h.

  naked-lock            A bare .lock()/.unlock()/.Lock()/.Unlock() call:
                        critical sections are RAII-only (MutexLock /
                        SharedMutexLock), so no early return or exception
                        can leak a held lock past its scope.

  tsa-escape            PARQO_NO_THREAD_SAFETY_ANALYSIS without an
                        allow(tsa-escape) justification. Every analysis
                        escape must say why the analysis is wrong there.

Suppression: append "// parqo-lint: allow(<rule>) <reason>" to the offending
line, or put it on the line directly above. The reason is mandatory —
an allow() without one is itself a finding.

Usage: tools/parqo_lint.py [root ...]   (default: src tools bench fuzz)
Exit status 1 if any finding is reported.
"""

import os
import re
import sys

DEFAULT_ROOTS = ["src", "tools", "bench", "fuzz"]
CXX_EXTENSIONS = (".h", ".cc")

# Files whose call graph sits inside the per-division enumeration loop
# (Algorithms 1-3) or the DP inner loop. std::function is banned here.
HOT_PATH_FILES = {
    "src/optimizer/td_cmd_core.h",
    "src/optimizer/cbd_enumerator.h",
    "src/optimizer/cmd_enumerator.h",
    "src/optimizer/td_cmd.cc",
    "src/optimizer/hgr_td_cmd.cc",
    "src/optimizer/dp_bushy.cc",
    "src/optimizer/msc.cc",
    "src/optimizer/join_graph_reduction.cc",
}

# Files whose enumeration loops must build PlanCandidates in an Arena,
# never shared PlanNodes (DESIGN.md §12).
ARENA_HOT_PATH_FILES = {
    "src/optimizer/td_cmd_core.h",
    "src/optimizer/cbd_enumerator.h",
    "src/optimizer/cmd_enumerator.h",
    "src/optimizer/td_cmd.cc",
    "src/optimizer/hgr_td_cmd.cc",
    "src/optimizer/dp_bushy.cc",
}

# Files on the per-node execution hot path (DESIGN.md §13). Joins here go
# through the open-addressed kernels in join_kernel.cc and rows move in
# columnar gathers; a std::unordered_multimap or a per-row AppendRow call
# reintroduces the row-at-a-time engine this path replaced. The test-only
# kernel oracle (tests/reference_join.cc) and the cold-path API
# definition (binding_table.h) are deliberately not listed.
EXEC_HOT_PATH_FILES = {
    "src/exec/executor.cc",
    "src/exec/node_store.cc",
    "src/exec/binding_table.cc",
    "src/exec/join_kernel.h",
    "src/exec/join_kernel.cc",
}

ALLOW_RE = re.compile(r"//\s*parqo-lint:\s*allow\(([a-z-]+)\)\s*(\S.*)?$")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s+(\w+)"
)
RANGE_FOR_HEAD_RE = re.compile(r"for\s*\(")
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # "new T", not "new (place)"
PLAIN_NEW_RE = re.compile(r"(?<![\w.])new\b")
DELETE_RE = re.compile(r"(?<![\w.])delete(\s*\[\s*\])?\s+\w")
STD_FUNCTION_RE = re.compile(r"std::function\s*<")
# make_shared of anything, or a call to one of PlanBuilder's shared_ptr
# constructors. The arena twins (ScanIn/JoinIn/LocalJoinAllIn) do not
# match: a following identifier character breaks the pattern.
SHARED_PLAN_RE = re.compile(
    r"std::make_shared\s*<|[.>]\s*(?:Scan|Join|LocalJoinAll)\s*\("
)
METRIC_INTERNAL_RE = re.compile(r"\bmetrics_internal::")
METRIC_RAW_WRITE_RE = re.compile(
    r"\bMetric(?:Counter|Gauge|Histogram)\b[^;]*\bvalue_\b"
)
# A mutable namespace-scope accumulator named like a metric, declared
# outside the registry: these are exactly the "I'll just bump a global"
# writes the rule exists to keep atomic and inside src/common.
METRIC_GLOBAL_RE = re.compile(
    r"^\s*(?:static\s+)?(?:double|float|int|long|unsigned|std::u?int\d+_t|"
    r"u?int\d+_t|std::size_t|size_t)\s+g?_?\w*(?:metric|counter)\w*\s*[={;]"
)
UNORDERED_MULTIMAP_RE = re.compile(r"std::unordered_multimap\s*<")
# A std::vector<Triple> *member* (trailing-underscore naming) — locals and
# parameters used while building a store do not match — and the legacy
# permutation-vector member names themselves.
TRIPLE_VECTOR_MEMBER_RE = re.compile(
    r"std::vector\s*<\s*Triple\s*>\s+\w+_\s*[;={]"
)
PERM_VECTOR_IDENT_RE = re.compile(r"\b(?:pso|pos|spo|osp)_\b")
APPEND_ROW_CALL_RE = re.compile(r"[.>]\s*AppendRow\s*\(")
SLEEP_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|nanosleep|sleep)\s*\("
)
CV_WAIT_RE = re.compile(r"[.>]\s*wait\s*\(")
SLEEP_SECONDS_CALL_RE = re.compile(r"\bSleepSeconds\s*\(")
# The backoff computation that draws from the cluster-wide RetryBudget.
RETRY_BACKOFF_RE = re.compile(r"\bNextBackoffSeconds\s*\(")
# The one sanctioned wait implementation (see SleepSeconds).
SLEEP_EXEMPT_FILES = {"src/common/fault.h", "src/common/fault.cc"}
# Canonical-signature computation (plan-cache keys) must be byte-stable
# across processes and standard-library versions: hash containers are
# banned outright here, declaration included, with no allow() escape.
SIGNATURE_FILES = {"src/server/signature.h", "src/server/signature.cc"}
UNORDERED_ANY_RE = re.compile(r"std::unordered_\w+")

# --- Lock discipline (see the rule descriptions at the top) -----------------

# The header that implements the discipline: it wraps std::mutex, defines
# the LockRank registry, and is the one sanctioned home of raw locking.
THREAD_ANNOTATIONS_FILE = "src/common/thread_annotations.h"

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
# A by-value Mutex/SharedMutex declaration ("Mutex mu{LockRank::kPool};").
# References and pointers ("Mutex& mu") do not match: they alias a lock
# ranked at its declaration site. Ordering attributes may sit between the
# declarator and the initializer ("Mutex b PARQO_ACQUIRED_AFTER(a) = ...").
MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(?:Shared)?Mutex\s+\w+\s*"
    r"(?:PARQO_\w+\s*\([^)]*\)\s*)*[;={(]"
)
MUTEX_RANK_REF_RE = re.compile(
    r"\b(?:Shared)?Mutex\s+(\w+)\s*(?:PARQO_\w+\s*\([^)]*\)\s*)*"
    r"(?:[{(]|=\s*(?:Shared)?Mutex\s*[({])\s*LockRank::(k\w+)\s*[)}]"
)
ACQUIRE_RE = re.compile(r"\b(?:Shared)?MutexLock\s+\w+\s*[({]([^;{}]*)[)}]")
NAKED_LOCK_RE = re.compile(
    r"[.>]\s*(?:try_lock|lock|unlock|lock_shared|unlock_shared|"
    r"TryLock|Lock|Unlock|LockShared|UnlockShared)\s*\(\s*\)"
)
TSA_ESCAPE_RE = re.compile(r"\bPARQO_NO_THREAD_SAFETY_ANALYSIS\b")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:PARQO_\w+\s*\([^)]*\)\s*)?\w+[^;=]*$"
)
# Member types that need no GUARDED_BY: lock-free by construction, the
# lock itself, or CV/once_flag (which synchronize through their own API).
GUARDED_EXEMPT_RE = re.compile(
    r"^(?:mutable\s+)?(?:std::atomic\b|std::condition_variable\b|"
    r"std::once_flag\b|(?:Shared)?Mutex\b|const\b|constexpr\b|static\b)"
)
ACCESS_SPEC_RE = re.compile(r"^\s*(?:public|private|protected)\s*:\s*")


def _load_lock_ranks():
    """LockRank name -> value, parsed from the registry enum. Empty when
    the header is missing (pre-hierarchy checkouts lint without ranks)."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(os.path.dirname(here), "src", "common",
                        "thread_annotations.h")
    ranks = {}
    if not os.path.isfile(path):
        return ranks
    in_enum = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "enum class LockRank" in line:
                in_enum = True
                continue
            if in_enum:
                if "}" in line:
                    break
                m = re.match(r"\s*(k\w+)\s*=\s*(\d+)", line)
                if m:
                    ranks[m.group(1)] = int(m.group(2))
    return ranks


LOCK_RANKS = _load_lock_ranks()


def _lock_rules_apply(rel):
    """Lock-discipline rules run on src/ (and the deliberately-broken
    fixture snippets) but not on tests/bench/tools, and never on the
    annotation header that implements the machinery being enforced."""
    if rel == THREAD_ANNOTATIONS_FILE or rel.endswith("thread_annotations.h"):
        return False
    return rel.startswith("src/") or "tsa_fixtures" in rel


def _strip_template_args(s):
    """Blanks matched <...> spans so parens inside template arguments
    ("std::function<void()>") do not read as a function declaration."""
    out = []
    depth = 0
    for c in s:
        if c == "<":
            depth += 1
            out.append(" ")
        elif c == ">" and depth > 0:
            depth -= 1
            out.append(" ")
        else:
            out.append(c if depth == 0 else " ")
    return "".join(out)


def range_for_sequence(code):
    """Returns the sequence expression of a range-for on this line, or None.

    Walks from "for (" to the matching close paren so loop bodies on the
    same line are not captured, then splits on the range-for ':' at paren
    depth zero.
    """
    m = RANGE_FOR_HEAD_RE.search(code)
    if not m:
        return None
    depth = 1
    colon = None
    for i in range(m.end(), len(code)):
        c = code[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
            if depth == 0:
                if colon is None:
                    return None  # classic for(;;)
                return code[colon + 1:i].strip()
        elif c == ":" and depth == 1:
            # "::" is scope resolution, not the range-for separator.
            if code[i - 1:i] == ":" or code[i + 1:i + 2] == ":":
                continue
            colon = i
    return None


def final_identifier(expr):
    """The last member in an access chain: "a.b_->map" -> "map",
    "g.Items(x)" -> "Items". That is the entity actually iterated."""
    expr = expr.strip()
    call = re.match(r"(.*?)\s*\((?:[^()]|\([^()]*\))*\)$", expr)
    if call:
        expr = call.group(1)
    ids = re.findall(r"\w+", expr)
    return ids[-1] if ids else None


def strip_strings_and_comments(line, in_block_comment):
    """Blanks out string/char literals and comments, preserving length.

    Returns (code, in_block_comment, comment_text) where comment_text is
    the // trailer (used to find allow() pragmas).
    """
    out = []
    comment = ""
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                comment = line[i:]
                break
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            i += 1
        elif state in ("string", "char"):
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (state == "string" and c == '"') or (
                state == "char" and c == "'"
            ):
                state = "code"
            out.append(" ")
            i += 1
    return "".join(out), state == "block", comment


class Linter:
    def __init__(self):
        self.findings = []

    def report(self, path, lineno, rule, message):
        self.findings.append((path, lineno, rule, message))

    def lint_file(self, path):
        rel = path.replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()

        code_lines = []
        allows = {}  # line number -> set of allowed rules
        in_block = False
        for idx, raw in enumerate(raw_lines, start=1):
            code, in_block, comment = strip_strings_and_comments(
                raw, in_block
            )
            code_lines.append(code)
            m = ALLOW_RE.search(comment)
            if m:
                rule, reason = m.group(1), m.group(2)
                if not reason:
                    self.report(
                        rel, idx, "allow-without-reason",
                        "allow(%s) needs a justification after the ')'"
                        % rule,
                    )
                # A pragma on its own line covers the next line; an
                # end-of-line pragma covers its own line.
                target = idx + 1 if not code.strip() else idx
                allows.setdefault(target, set()).add(rule)

        def allowed(lineno, rule):
            return rule in allows.get(lineno, set())

        self.check_unordered_iteration(rel, code_lines, allowed)
        self.check_unordered_in_signature(rel, code_lines)
        self.check_naked_new(rel, code_lines, allowed)
        self.check_std_function(rel, code_lines, allowed)
        self.check_shared_plan(rel, code_lines, allowed)
        self.check_exec_row(rel, code_lines, allowed)
        self.check_raw_triple_storage(rel, code_lines, allowed)
        self.check_metric_writes(rel, code_lines, allowed)
        self.check_naked_sleep(rel, code_lines, allowed)
        self.check_retry_budget(rel, code_lines, allowed)
        self.check_lock_discipline(rel, code_lines, allowed)
        self.check_guarded_fields(rel, code_lines, allowed)
        self.check_lock_rank_order(rel, path, code_lines, allowed)

    def check_unordered_iteration(self, rel, code_lines, allowed):
        rule = "unordered-iteration"
        names = set()
        for code in code_lines:
            for m in UNORDERED_DECL_RE.finditer(code):
                names.add(m.group(1))
        if not names:
            return
        for lineno, code in enumerate(code_lines, start=1):
            seq = range_for_sequence(code)
            if seq is None:
                continue
            target = final_identifier(seq)
            if target not in names:
                continue
            if allowed(lineno, rule):
                continue
            self.report(
                rel, lineno, rule,
                "range-for over unordered container '%s': hash order must "
                "not feed cost comparisons or plan reductions; sort first "
                "or justify with allow(%s)" % (seq, rule),
            )

    def check_unordered_in_signature(self, rel, code_lines):
        # Deliberately no allowed() hook: a hash container anywhere in the
        # canonicalizer risks seed-dependent signatures, which silently
        # splits (or, worse, merges) plan-cache keys.
        rule = "unordered-in-signature"
        if rel not in SIGNATURE_FILES:
            return
        for lineno, code in enumerate(code_lines, start=1):
            m = UNORDERED_ANY_RE.search(code)
            if not m:
                continue
            self.report(
                rel, lineno, rule,
                "%s in signature computation: canonical signatures must be "
                "byte-stable across processes; use std::map/std::set/"
                "std::sort (no allow() escape for this rule)" % m.group(0),
            )

    def check_naked_new(self, rel, code_lines, allowed):
        rule = "naked-new"
        for lineno, code in enumerate(code_lines, start=1):
            hit = None
            if PLAIN_NEW_RE.search(code):
                hit = "new"
            elif DELETE_RE.search(code) and "= delete" not in code:
                hit = "delete"
            if hit is None or allowed(lineno, rule):
                continue
            self.report(
                rel, lineno, rule,
                "naked '%s': use std::make_shared/std::make_unique or a "
                "value type" % hit,
            )

    def check_std_function(self, rel, code_lines, allowed):
        rule = "std-function-hot-path"
        if rel not in HOT_PATH_FILES:
            return
        for lineno, code in enumerate(code_lines, start=1):
            if not STD_FUNCTION_RE.search(code):
                continue
            if allowed(lineno, rule):
                continue
            self.report(
                rel, lineno, rule,
                "std::function in the enumeration hot path: use a template "
                "parameter so the per-division calls inline",
            )

    def check_shared_plan(self, rel, code_lines, allowed):
        rule = "shared-plan-hot-path"
        if rel not in ARENA_HOT_PATH_FILES:
            return
        for lineno, code in enumerate(code_lines, start=1):
            if not SHARED_PLAN_RE.search(code):
                continue
            if allowed(lineno, rule):
                continue
            self.report(
                rel, lineno, rule,
                "shared_ptr plan construction in the enumeration hot path: "
                "build candidates in the worker's Arena "
                "(ScanIn/JoinIn/LocalJoinAllIn) and materialize only the "
                "winner, or justify the cold path with allow(%s)" % rule,
            )

    def check_exec_row(self, rel, code_lines, allowed):
        rule = "exec-row-hot-path"
        if rel not in EXEC_HOT_PATH_FILES:
            return
        for lineno, code in enumerate(code_lines, start=1):
            msg = None
            if UNORDERED_MULTIMAP_RE.search(code):
                msg = ("std::unordered_multimap join state in the batch "
                       "execution hot path: use the open-addressed "
                       "SingleKeyJoinTable/MultiKeyJoinTable kernels "
                       "(src/exec/join_kernel.h)")
            elif APPEND_ROW_CALL_RE.search(code):
                msg = ("per-row AppendRow in the batch execution hot path: "
                       "batch with AppendFrom/AppendGather (one gather per "
                       "column per morsel), or justify the cold path with "
                       "allow(%s)" % rule)
            if msg is None or allowed(lineno, rule):
                continue
            self.report(rel, lineno, rule, msg)

    def check_raw_triple_storage(self, rel, code_lines, allowed):
        rule = "raw-triple-storage"
        if not rel.startswith("src/exec/"):
            return
        for lineno, code in enumerate(code_lines, start=1):
            msg = None
            if TRIPLE_VECTOR_MEMBER_RE.search(code):
                msg = ("std::vector<Triple> member in the execution layer: "
                       "store triples in a storage/PermutationIndex "
                       "(compressed permutation indexes, "
                       "src/storage/permutation_index.h) instead of raw "
                       "sorted "
                       "vectors, or justify a deliberate buffer with "
                       "allow(%s)" % rule)
            elif PERM_VECTOR_IDENT_RE.search(code):
                msg = ("raw permutation-vector identifier in the execution "
                       "layer: scans go through "
                       "PermutationIndex::ChooseRange/ForEachMatch, not "
                       "hand-rolled pso_/pos_ iteration")
            if msg is None or allowed(lineno, rule):
                continue
            self.report(rel, lineno, rule, msg)

    def check_metric_writes(self, rel, code_lines, allowed):
        rule = "metric-write"
        if rel.startswith("src/common/"):
            return
        for lineno, code in enumerate(code_lines, start=1):
            msg = None
            if METRIC_INTERNAL_RE.search(code):
                msg = ("metrics_internal is private to src/common; go "
                       "through MetricsEnabled()/the registry")
            elif METRIC_RAW_WRITE_RE.search(code):
                msg = ("direct access to a metric's value_; use "
                       "Add()/Set()/Observe()")
            elif METRIC_GLOBAL_RE.match(code):
                msg = ("namespace-scope metric/counter accumulator outside "
                       "src/common; register a MetricCounter instead (hot "
                       "paths share these across threads)")
            if msg is None or allowed(lineno, rule):
                continue
            self.report(rel, lineno, rule, msg)

    def check_naked_sleep(self, rel, code_lines, allowed):
        rule = "naked-sleep"
        if rel in SLEEP_EXEMPT_FILES:
            return
        for lineno, code in enumerate(code_lines, start=1):
            msg = None
            if SLEEP_RE.search(code):
                msg = ("naked sleep: route all waiting through "
                       "parqo::SleepSeconds (src/common/fault.cc) so fault "
                       "injection and retry backoff stay deterministic")
            else:
                m = CV_WAIT_RE.search(code)
                if m and self._wait_is_unbounded(code, m.end() - 1):
                    msg = ("predicate-less condition-variable wait: pass a "
                           "predicate (cv.wait(lock, pred)) or use a "
                           "bounded wait_for/wait_until")
            if msg is None or allowed(lineno, rule):
                continue
            self.report(rel, lineno, rule, msg)

    def check_retry_budget(self, rel, code_lines, allowed):
        rule = "retry-budget"
        if rel in SLEEP_EXEMPT_FILES:
            return
        for lineno, code in enumerate(code_lines, start=1):
            m = SLEEP_SECONDS_CALL_RE.search(code)
            if m is None or allowed(lineno, rule):
                continue
            # Collect the argument expression: from the opening paren to
            # its balanced close, spilling over a few continuation lines.
            arg = code[m.end() - 1:]
            for extra in range(5):
                balance = 0
                closed = False
                for ch in arg:
                    if ch == "(":
                        balance += 1
                    elif ch == ")":
                        balance -= 1
                        if balance == 0:
                            closed = True
                            break
                if closed:
                    break
                nxt = lineno + extra  # code_lines is 0-based: next line
                if nxt >= len(code_lines):
                    break
                arg += " " + code_lines[nxt]
            if RETRY_BACKOFF_RE.search(arg):
                continue
            self.report(
                rel, lineno, rule,
                "retry delay not drawn from the cluster retry budget: "
                "compute it with RetryPolicy::NextBackoffSeconds() "
                "(src/common/fault.h) so each retry claims a RetryBudget "
                "token, or allow(retry-budget) a sleep that is not a "
                "retry",
            )

    def check_lock_discipline(self, rel, code_lines, allowed):
        """Per-line lock rules: raw-std-mutex, mutex-rank, naked-lock,
        tsa-escape."""
        if not _lock_rules_apply(rel):
            return
        for lineno, code in enumerate(code_lines, start=1):
            m = RAW_MUTEX_RE.search(code)
            if m and not allowed(lineno, "raw-std-mutex"):
                self.report(
                    rel, lineno, "raw-std-mutex",
                    "%s bypasses the annotated wrappers: use parqo::Mutex "
                    "+ MutexLock (common/thread_annotations.h) so the "
                    "thread-safety analysis and the rank checker see the "
                    "acquisition" % m.group(0),
                )
            if MUTEX_DECL_RE.search(code):
                rank_m = MUTEX_RANK_REF_RE.search(code)
                if rank_m is None:
                    if not allowed(lineno, "mutex-rank"):
                        self.report(
                            rel, lineno, "mutex-rank",
                            "Mutex declared without a LockRank: every lock "
                            "takes a position in the static hierarchy "
                            "(LockRank registry in "
                            "common/thread_annotations.h)",
                        )
                elif LOCK_RANKS and rank_m.group(2) not in LOCK_RANKS:
                    if not allowed(lineno, "mutex-rank"):
                        self.report(
                            rel, lineno, "mutex-rank",
                            "LockRank::%s is not in the registry; add it "
                            "to the LockRank enum (with its ordering "
                            "rationale) before using it" % rank_m.group(2),
                        )
            if NAKED_LOCK_RE.search(code) and not allowed(lineno,
                                                          "naked-lock"):
                self.report(
                    rel, lineno, "naked-lock",
                    "naked lock()/unlock(): critical sections are "
                    "RAII-only (MutexLock/SharedMutexLock) so early "
                    "returns and exceptions cannot leak a held lock",
                )
            if TSA_ESCAPE_RE.search(code) and not allowed(lineno,
                                                          "tsa-escape"):
                self.report(
                    rel, lineno, "tsa-escape",
                    "PARQO_NO_THREAD_SAFETY_ANALYSIS needs an "
                    "allow(tsa-escape) comment explaining why the "
                    "analysis is wrong here",
                )

    def check_guarded_fields(self, rel, code_lines, allowed):
        """Every mutable member of a mutex-owning class carries
        PARQO_GUARDED_BY or a written allow(guarded-field) reason.

        A lexical scope walk: class/struct bodies are tracked through a
        stack, member statements are accumulated across lines, and
        function bodies / nested enums are skipped wholesale. Only classes
        that directly declare a Mutex/SharedMutex member are audited —
        a class whose locking lives in a nested shard struct is audited
        at the shard."""
        rule = "guarded-field"
        if not _lock_rules_apply(rel):
            return
        depth = 0
        scopes = []  # innermost last: {"body": depth, "mutex": bool,
        #              "fields": [(lineno, stmt)]}
        stmt = ""
        stmt_line = None
        skip_until = None  # skip chars until depth drops below this

        def finish_stmt():
            nonlocal stmt, stmt_line
            text = ACCESS_SPEC_RE.sub("", stmt.strip())
            while ACCESS_SPEC_RE.match(text):
                text = ACCESS_SPEC_RE.sub("", text)
            if text and scopes:
                scope = scopes[-1]
                if re.match(r"(?:mutable\s+)?(?:Shared)?Mutex\b", text):
                    scope["mutex"] = True
                else:
                    scope["fields"].append((stmt_line, text))
            stmt = ""
            stmt_line = None

        def close_scope():
            scope = scopes.pop()
            if not scope["mutex"]:
                return
            for lineno, text in scope["fields"]:
                if self._field_is_exempt(text):
                    continue
                if allowed(lineno, rule):
                    continue
                self.report(
                    rel, lineno, rule,
                    "mutable member of a mutex-owning type without "
                    "PARQO_GUARDED_BY: annotate it, or state why it needs "
                    "no lock with allow(%s) <reason>" % rule,
                )

        for lineno, code in enumerate(code_lines, start=1):
            if code.lstrip().startswith("#"):
                continue  # preprocessor lines never join a member stmt
            for ch in code:
                if skip_until is not None:
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        if depth < skip_until:
                            skip_until = None
                    continue
                if ch == "{":
                    depth += 1
                    head = _strip_template_args(stmt)
                    if re.search(r"\benum\b", head):
                        skip_until = depth
                        stmt, stmt_line = "", None
                    elif CLASS_HEAD_RE.search(head.strip()):
                        scopes.append({"body": depth, "mutex": False,
                                       "fields": []})
                        stmt, stmt_line = "", None
                    elif re.search(r"\bnamespace\b", head):
                        # Transparent: namespaces do not nest members.
                        stmt, stmt_line = "", None
                    elif scopes and "(" in head:
                        # Inline member function body (or ctor with init
                        # list): opaque to the field audit.
                        skip_until = depth
                        stmt, stmt_line = "", None
                    elif scopes:
                        # Brace-init inside a member declaration
                        # ("std::atomic<int> done{0};"): part of the stmt.
                        stmt += ch
                        if stmt_line is None:
                            stmt_line = lineno
                    else:
                        skip_until = depth  # free function body etc.
                        stmt, stmt_line = "", None
                elif ch == "}":
                    depth -= 1
                    if scopes and depth < scopes[-1]["body"]:
                        finish_stmt()
                        close_scope()
                    elif scopes and depth >= scopes[-1]["body"]:
                        stmt += ch  # closing a brace-init
                elif ch == ";":
                    if scopes and depth == scopes[-1]["body"]:
                        finish_stmt()
                    else:
                        stmt, stmt_line = "", None
                else:
                    if not ch.isspace() and stmt_line is None:
                        stmt_line = lineno
                    stmt += ch
            stmt += " "  # newline separates tokens
        while scopes:  # unbalanced file: close what is open, still audit
            finish_stmt()
            close_scope()

    @staticmethod
    def _field_is_exempt(text):
        """True for member statements that need no GUARDED_BY."""
        if not text or "PARQO_GUARDED_BY" in text or \
                "PARQO_PT_GUARDED_BY" in text:
            return True
        if re.match(r"(?:using|typedef|friend|enum|template)\b", text):
            return True
        if "= delete" in text or "= default" in text:
            return True
        if GUARDED_EXEMPT_RE.match(text):
            return True
        stripped = _strip_template_args(text)
        eq = stripped.find("=")
        paren = stripped.find("(")
        if paren >= 0 and (eq < 0 or paren < eq):
            return True  # function declaration
        return False

    def check_lock_rank_order(self, rel, path, code_lines, allowed):
        """Lexically nested MutexLock acquisitions must climb the rank
        hierarchy strictly. Ranks resolve through the Mutex declarations
        in this file plus its sibling header (where a .cc's members are
        declared); an acquisition whose rank cannot be resolved is
        skipped — mutex-rank already forces every declaration to carry
        one."""
        rule = "lock-rank-order"
        if not _lock_rules_apply(rel) or not LOCK_RANKS:
            return
        decls = self._mutex_rank_decls(code_lines)
        if path.endswith(".cc"):
            sibling = path[:-3] + ".h"
            if os.path.isfile(sibling):
                decls.update(self._mutex_rank_decls(
                    self._stripped_lines(sibling)))
        depth = 0
        held = []  # (depth_at_acquisition, rank, name, lineno)
        for lineno, code in enumerate(code_lines, start=1):
            pos = 0
            for m in ACQUIRE_RE.finditer(code):
                depth += code.count("{", pos, m.start()) - \
                    code.count("}", pos, m.start())
                pos = m.start()
                while held and depth < held[-1][0]:
                    held.pop()
                name = final_identifier(m.group(1))
                rank = decls.get(name)
                if rank is None:
                    continue
                if held and rank <= held[-1][1] and \
                        not allowed(lineno, rule):
                    self.report(
                        rel, lineno, rule,
                        "acquiring '%s' (rank %d) while holding '%s' "
                        "(rank %d): nested acquisitions must take "
                        "strictly increasing LockRank values" %
                        (name, rank, held[-1][2], held[-1][1]),
                    )
                held.append((depth, rank, name, lineno))
            depth += code.count("{", pos) - code.count("}", pos)
            while held and depth < held[-1][0]:
                held.pop()

    @staticmethod
    def _mutex_rank_decls(code_lines):
        """Mutex member/variable name -> rank value for this file."""
        decls = {}
        for code in code_lines:
            for m in MUTEX_RANK_REF_RE.finditer(code):
                rank = LOCK_RANKS.get(m.group(2))
                if rank is not None:
                    decls[m.group(1)] = rank
        return decls

    @staticmethod
    def _stripped_lines(path):
        code_lines = []
        in_block = False
        with open(path, encoding="utf-8") as f:
            for raw in f.read().splitlines():
                code, in_block, _ = strip_strings_and_comments(raw, in_block)
                code_lines.append(code)
        return code_lines

    @staticmethod
    def _wait_is_unbounded(code, open_paren):
        """True when the wait(...) starting at `open_paren` has exactly one
        argument (no predicate) on this line. Multi-line argument lists end
        in a comma or an unclosed paren and are conservatively skipped."""
        depth = 0
        commas = 0
        for i in range(open_paren, len(code)):
            c = code[i]
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
                if depth == 0:
                    return commas == 0
            elif c == "," and depth == 1:
                commas += 1
        return False


def main(argv):
    roots = argv[1:] or DEFAULT_ROOTS
    linter = Linter()
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            # Deliberately-broken thread-safety snippets: linted by
            # tools/parqo_lint_test.py (which asserts they FAIL), compiled
            # by tools/check_tsa_fixtures.py — never part of a clean run.
            dirnames[:] = [d for d in dirnames if d != "tsa_fixtures"]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    for path in sorted(files):
        linter.lint_file(path)

    for path, lineno, rule, message in linter.findings:
        print("%s:%d: [%s] %s" % (path, lineno, rule, message))
    if linter.findings:
        print("parqo_lint: %d finding(s)" % len(linter.findings))
        return 1
    print("parqo_lint: clean (%d files)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
