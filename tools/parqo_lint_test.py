#!/usr/bin/env python3
"""Self-test for tools/parqo_lint.py.

One positive (rule fires) and one negative (clean, or allow()-suppressed)
snippet per rule, plus end-to-end assertions over the deliberately-broken
thread-safety fixtures in tests/tsa_fixtures/. Runs as the lint_selftest
ctest target; tools/parqo_lint.py itself is exercised in-process so a
regression in rule scoping (a rule that silently stops matching) fails
here rather than shipping a linter that approves everything.

Usage: tools/parqo_lint_test.py   (from the repository root or anywhere)
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import parqo_lint  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "tsa_fixtures")


class LintHarness(unittest.TestCase):
    """Writes snippets under a temp tree so path-scoped rules see the
    relative paths they key on ("src/...", hot-path file names)."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="parqo_lint_test_")
        self.prev_cwd = os.getcwd()
        os.chdir(self.tmp)

    def tearDown(self):
        os.chdir(self.prev_cwd)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def findings(self, source, rel="src/snippet.h"):
        path = os.path.join(self.tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)
        linter = parqo_lint.Linter()
        linter.lint_file(rel)
        return linter.findings

    def rules(self, source, rel="src/snippet.h"):
        return {rule for _, _, rule, _ in self.findings(source, rel)}

    def assert_fires(self, rule, source, rel="src/snippet.h"):
        self.assertIn(rule, self.rules(source, rel),
                      "expected %s to fire" % rule)

    def assert_clean(self, rule, source, rel="src/snippet.h"):
        self.assertNotIn(rule, self.rules(source, rel),
                         "expected %s to stay quiet" % rule)


class ExistingRules(LintHarness):
    def test_unordered_iteration(self):
        bad = ("std::unordered_map<int, int> m;\n"
               "void F() { for (const auto& kv : m) Use(kv); }\n")
        self.assert_fires("unordered-iteration", bad)
        ok = ("std::unordered_map<int, int> m;\n"
              "// parqo-lint: allow(unordered-iteration) order-independent sum\n"
              "void F() { for (const auto& kv : m) Use(kv); }\n")
        self.assert_clean("unordered-iteration", ok)

    def test_naked_new(self):
        self.assert_fires("naked-new", "int* p = new int;\n")
        self.assert_clean("naked-new", "auto p = std::make_unique<int>();\n")

    def test_allow_without_reason(self):
        bad = "int* p = new int;  // parqo-lint: allow(naked-new)\n"
        self.assert_fires("allow-without-reason", bad)
        ok = "int* p = new int;  // parqo-lint: allow(naked-new) arena slab\n"
        self.assert_clean("allow-without-reason", ok)

    def test_std_function_hot_path(self):
        src = "std::function<void()> hook;\n"
        self.assert_fires("std-function-hot-path", src,
                          rel="src/optimizer/td_cmd_core.h")
        self.assert_clean("std-function-hot-path", src,
                          rel="src/server/server.h")

    def test_shared_plan_hot_path(self):
        src = "auto n = std::make_shared<PlanNode>();\n"
        self.assert_fires("shared-plan-hot-path", src,
                          rel="src/optimizer/dp_bushy.cc")
        self.assert_clean("shared-plan-hot-path", src,
                          rel="src/server/server.cc")

    def test_exec_row_hot_path(self):
        src = "void F(Table& t, Row r) { t.AppendRow(r); }\n"
        self.assert_fires("exec-row-hot-path", src,
                          rel="src/exec/join_kernel.cc")
        self.assert_clean("exec-row-hot-path", src,
                          rel="tests/reference_join.cc")

    def test_raw_triple_storage(self):
        member = ("class NodeStore {\n"
                  "  std::vector<Triple> pso_;\n"
                  "};\n")
        self.assert_fires("raw-triple-storage", member,
                          rel="src/exec/node_store.h")
        iteration = ("std::uint64_t F() {\n"
                     "  std::uint64_t n = 0;\n"
                     "  for (const Triple& t : pso_) n += t.s;\n"
                     "  return n;\n"
                     "}\n")
        self.assert_fires("raw-triple-storage", iteration,
                          rel="src/exec/executor.cc")
        # The storage layer itself owns the permutation members.
        self.assert_clean("raw-triple-storage", member,
                          rel="src/storage/permutation_index.h")
        # Locals/parameters (no trailing underscore) while building a
        # store are fine, as is an allow()ed deliberate buffer.
        local = "void Build(std::vector<Triple> triples);\n"
        self.assert_clean("raw-triple-storage", local,
                          rel="src/exec/node_store.h")
        allowed = ("// parqo-lint: allow(raw-triple-storage) test staging\n"
                   "std::vector<Triple> staged_;\n")
        self.assert_clean("raw-triple-storage", allowed,
                          rel="src/exec/node_store.h")

    def test_metric_write(self):
        self.assert_fires(
            "metric-write", "static double g_probe_counter = 0;\n",
            rel="src/exec/executor.cc")
        self.assert_clean(
            "metric-write", "static double g_probe_counter = 0;\n",
            rel="src/common/metrics.cc")

    def test_naked_sleep(self):
        self.assert_fires(
            "naked-sleep",
            "void F() { std::this_thread::sleep_for(d); }\n")
        self.assert_clean(
            "naked-sleep", "void F() { SleepSeconds(0.1); }\n")

    def test_retry_budget(self):
        bad = "void F() { while (!ok) SleepSeconds(0.05); }\n"
        self.assert_fires("retry-budget", bad)
        conforming = (
            "void F() { SleepSeconds(retry.NextBackoffSeconds()); }\n")
        self.assert_clean("retry-budget", conforming)
        # The argument may spill onto a continuation line.
        multiline = ("void F() {\n"
                     "  SleepSeconds(\n"
                     "      retry.NextBackoffSeconds());\n"
                     "}\n")
        self.assert_clean("retry-budget", multiline)
        not_a_retry = (
            "// parqo-lint: allow(retry-budget) startup settle, not a retry\n"
            "void F() { SleepSeconds(0.05); }\n")
        self.assert_clean("retry-budget", not_a_retry)
        # fault.cc owns SleepSeconds and the injection delays themselves.
        self.assert_clean("retry-budget",
                          "void F() { SleepSeconds(0.05); }\n",
                          rel="src/common/fault.cc")

    def test_unordered_in_signature(self):
        src = "std::unordered_map<int, int> m;\n"
        self.assert_fires("unordered-in-signature", src,
                          rel="src/server/signature.cc")
        self.assert_clean("unordered-in-signature", src,
                          rel="src/server/plan_cache.cc")


class LockDisciplineRules(LintHarness):
    def test_registry_parsed(self):
        # The rank registry comes from the real thread_annotations.h; a
        # parse regression would silently disable two rules.
        self.assertIn("kPool", parqo_lint.LOCK_RANKS)
        self.assertIn("kMetrics", parqo_lint.LOCK_RANKS)
        self.assertLess(parqo_lint.LOCK_RANKS["kCacheShard"],
                        parqo_lint.LOCK_RANKS["kMetrics"])

    def test_raw_std_mutex(self):
        self.assert_fires("raw-std-mutex", "std::mutex mu;\n")
        self.assert_fires("raw-std-mutex",
                          "std::lock_guard<std::mutex> l(mu);\n")
        self.assert_clean("raw-std-mutex",
                          "Mutex mu{LockRank::kLeaf};\n")
        # Out of scope: tests and tools may use raw primitives.
        self.assert_clean("raw-std-mutex", "std::mutex mu;\n",
                          rel="tests/some_test.cc")

    def test_mutex_rank(self):
        self.assert_fires("mutex-rank", "struct S { Mutex mu; };\n")
        self.assert_fires(
            "mutex-rank", "Mutex mu{LockRank::kNotInRegistry};\n")
        self.assert_clean("mutex-rank", "Mutex mu{LockRank::kPool};\n")
        # Ordering attributes between declarator and initializer.
        self.assert_clean(
            "mutex-rank",
            "struct S {\n"
            "  Mutex a{LockRank::kPool};\n"
            "  Mutex b PARQO_ACQUIRED_AFTER(a) = Mutex(LockRank::kFault);\n"
            "};\n")
        # References are aliases, not declarations.
        self.assert_clean("mutex-rank", "void F(Mutex& mu);\n")

    def test_guarded_field(self):
        bad = ("struct S {\n"
               "  Mutex mu{LockRank::kLeaf};\n"
               "  int value = 0;\n"
               "};\n")
        self.assert_fires("guarded-field", bad)
        annotated = ("struct S {\n"
                     "  Mutex mu{LockRank::kLeaf};\n"
                     "  int value PARQO_GUARDED_BY(mu) = 0;\n"
                     "};\n")
        self.assert_clean("guarded-field", annotated)
        reasoned = ("struct S {\n"
                    "  Mutex mu{LockRank::kLeaf};\n"
                    "  // parqo-lint: allow(guarded-field) set before sharing\n"
                    "  int value = 0;\n"
                    "};\n")
        self.assert_clean("guarded-field", reasoned)
        exempt = ("struct S {\n"
                  "  Mutex mu{LockRank::kLeaf};\n"
                  "  std::atomic<int> hits{0};\n"
                  "  std::condition_variable cv;\n"
                  "  const int limit = 4;\n"
                  "  int Size() const;\n"
                  "};\n")
        self.assert_clean("guarded-field", exempt)
        # A class with no mutex is not audited at all.
        self.assert_clean("guarded-field", "struct S { int value = 0; };\n")

    def test_guarded_field_scopes_nested_structs(self):
        # The mutex lives in the nested shard; the outer class's members
        # are not the shard's responsibility.
        src = ("class Cache {\n"
               "  struct Shard {\n"
               "    Mutex mu{LockRank::kCacheShard};\n"
               "    int entries PARQO_GUARDED_BY(mu) = 0;\n"
               "  };\n"
               "  std::vector<Shard> shards_;\n"
               "};\n")
        self.assert_clean("guarded-field", src)

    def test_lock_rank_order(self):
        bad = ("struct S {\n"
               "  Mutex hi{LockRank::kMetrics};\n"
               "  Mutex lo{LockRank::kCacheShard};\n"
               "};\n"
               "void F(S& s) {\n"
               "  MutexLock a(s.hi);\n"
               "  MutexLock b(s.lo);\n"
               "}\n")
        self.assert_fires("lock-rank-order", bad)
        same_rank = ("struct S {\n"
                     "  Mutex a{LockRank::kPool};\n"
                     "  Mutex b{LockRank::kPool};\n"
                     "};\n"
                     "void F(S& s) {\n"
                     "  MutexLock outer(s.a);\n"
                     "  MutexLock inner(s.b);\n"
                     "}\n")
        self.assert_fires("lock-rank-order", same_rank)
        climbing = ("struct S {\n"
                    "  Mutex lo{LockRank::kCacheShard};\n"
                    "  Mutex hi{LockRank::kMetrics};\n"
                    "};\n"
                    "void F(S& s) {\n"
                    "  MutexLock a(s.lo);\n"
                    "  MutexLock b(s.hi);\n"
                    "}\n")
        self.assert_clean("lock-rank-order", climbing)
        sequential = ("struct S {\n"
                      "  Mutex hi{LockRank::kMetrics};\n"
                      "  Mutex lo{LockRank::kCacheShard};\n"
                      "};\n"
                      "void F(S& s) {\n"
                      "  { MutexLock a(s.hi); }\n"
                      "  { MutexLock b(s.lo); }\n"
                      "}\n")
        self.assert_clean("lock-rank-order", sequential)

    def test_lock_rank_order_uses_sibling_header(self):
        header = ("class C {\n"
                  "  Mutex hi_{LockRank::kMetrics};\n"
                  "  Mutex lo_{LockRank::kCacheShard};\n"
                  "};\n")
        source = ("void C::F() {\n"
                  "  MutexLock a(hi_);\n"
                  "  MutexLock b(lo_);\n"
                  "}\n")
        path = os.path.join(self.tmp, "src", "c.h")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(header)
        self.assert_fires("lock-rank-order", source, rel="src/c.cc")

    def test_naked_lock(self):
        self.assert_fires("naked-lock", "void F() { mu_.Lock(); }\n")
        self.assert_fires("naked-lock", "void F() { mu_.unlock(); }\n")
        self.assert_clean("naked-lock", "void F() { MutexLock l(mu_); }\n")
        # Named locked-helper calls are not acquisitions.
        self.assert_clean("naked-lock",
                          "void F() { EvictExcessLocked(shard); }\n")

    def test_tsa_escape(self):
        self.assert_fires(
            "tsa-escape",
            "void F() PARQO_NO_THREAD_SAFETY_ANALYSIS;\n")
        self.assert_clean(
            "tsa-escape",
            "// parqo-lint: allow(tsa-escape) benign init-order race\n"
            "void F() PARQO_NO_THREAD_SAFETY_ANALYSIS;\n")


class TsaFixtures(unittest.TestCase):
    """The deliberately-broken fixture files must keep failing the linter
    and the clean one must keep passing — end to end, real paths."""

    @staticmethod
    def lint(name):
        linter = parqo_lint.Linter()
        prev = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            linter.lint_file(os.path.join("tests", "tsa_fixtures", name))
        finally:
            os.chdir(prev)
        return {rule for _, _, rule, _ in linter.findings}

    def test_ok_fixture_is_clean(self):
        self.assertEqual(self.lint("ok_discipline.cc"), set())

    def test_bad_unguarded_field_fixture_fails(self):
        self.assertIn("guarded-field", self.lint("bad_unguarded_field.cc"))

    def test_bad_misordered_lock_fixture_fails(self):
        self.assertIn("lock-rank-order",
                      self.lint("bad_misordered_lock.cc"))

    def test_fixture_dir_excluded_from_tree_walks(self):
        # A tree run over tests/ must skip the fixtures: they are negative
        # examples, not findings against the repository.
        import subprocess
        out = subprocess.run(
            [sys.executable, os.path.join("tools", "parqo_lint.py"),
             "tests"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertNotIn("tsa_fixtures", out.stdout)


if __name__ == "__main__":
    unittest.main()
