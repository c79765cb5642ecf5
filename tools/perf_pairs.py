#!/usr/bin/env python3
"""Runs perfbench in alternating pairs for a parent and a change revision.

    python3 tools/perf_pairs.py --parent HEAD~1 --change HEAD \\
        --workload lubm_serve --pairs 10 --seeds 1,2,3 --seconds 20

Each side is built from its own local `git clone` of this repository,
checked out at its revision, under --workdir; only committed files take
part. Both sides are clones because perfbench records the source id
(the commit) in its report, and its length moves `plan_cold`'s peak RSS
between a clone and a plain copy. Pair i runs seed seeds[i % len(seeds)]
on both sides, the parent first in even pairs and the change first in
odd ones, because the second run of a pair reads higher `setup_s`.

For every end-to-end metric of BENCHMARK.json, and for each request
class's p90 in perfbench's per-class table, the summary prints both sides'
median and quartiles, the parent's IQR and the pairs the change wins
(strictly better in the metric's direction). With --json the raw
results go to a file. --dry-run prints the commands it would run and
runs nothing. perfbench itself is not modified.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) by linear interpolation between closest ranks."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def run(cmd, dry_run, cwd=None):
    where = "(cd %s && %s)" % (shlex.quote(cwd), shlex.join(cmd)) if cwd \
        else shlex.join(cmd)
    print("$ " + where, flush=True)
    if dry_run:
        return ""
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        sys.exit("perf_pairs: command failed: " + where)
    return r.stdout


def resolve(rev):
    """`rev` as a commit id of this repository, so that a branch name or
    a relative revision means the same commit in a fresh clone."""
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                        rev + "^{commit}"], capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("perf_pairs: unknown revision " + rev)
    return r.stdout.strip()


def checkout(workdir, side, rev, dry_run):
    """A fresh local clone of this repository at `rev`; returns its path."""
    path = os.path.join(workdir, side)
    if not dry_run and os.path.exists(path):
        sys.exit("perf_pairs: %s exists; pass an empty --workdir" % path)
    run(["git", "clone", "--quiet", "--no-local", ROOT, path], dry_run)
    run(["git", "-C", path, "checkout", "--quiet", "--detach", resolve(rev)],
        dry_run)
    return path


def class_p90(lines):
    """{class: p90 ms} from the per-class table perfbench prints before
    its result line."""
    out = {}
    col = None
    for line in lines:
        cells = line.split()
        if "p90_ms" in cells:
            col = cells.index("p90_ms")
        elif col is not None and len(cells) > col:
            try:
                out[cells[0]] = float(cells[col])
            except ValueError:
                col = None
        else:
            col = None
    return out


def bench(clone, workload, seed, seconds, dry_run):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "%g" % seconds, "--trace", "0"]
    out = run(cmd, dry_run, cwd=clone)
    if dry_run:
        return None
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("perf_pairs: %s run incorrect: %d of %d failed" %
                 (clone, result["failed"], result["attempted"]))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name, p90 in class_p90(lines[:-1]).items():
        metrics["p90_ms/" + name] = p90
    return metrics


def summarize(workload, pairs, end_to_end):
    lower = {m["name"]: m["better"] == "lower" for m in end_to_end}
    names = [m["name"] for m in end_to_end]
    names += sorted({k for p in pairs for k in p["parent"]
                     if k.startswith("p90_ms/")})
    print("\n== %s: %d pairs ==" % (workload, len(pairs)))
    print("%-26s %10s %10s %10s %10s %10s %10s %9s %6s" %
          ("metric", "par_q1", "par_med", "par_q3", "chg_q1", "chg_med",
           "chg_q3", "par_iqr", "wins"))
    for name in names:
        got = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if not got:
            continue
        par = [p["parent"][name] for p in got]
        chg = [p["change"][name] for p in got]
        down = lower.get(name, True)
        wins = sum(1 for a, b in zip(par, chg) if (b < a if down else b > a))
        pq, cq = quartiles(par), quartiles(chg)
        print("%-26s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %9.3g %3d/%-2d" %
              (name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2], pq[2] - pq[0],
               wins, len(got)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="changed revision")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2,3",
                    help="comma-separated seeds, used round-robin")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workdir", default="perf_pairs.work",
                    help="where the two clones go; must not hold them yet")
    ap.add_argument("--json", help="write the raw per-pair results here")
    ap.add_argument("--dry-run", action="store_true",
                    help="print the planned commands and run nothing")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if args.pairs < 1 or not seeds or args.seconds <= 0:
        sys.exit("perf_pairs: --pairs, --seeds and --seconds must be positive")

    workdir = os.path.abspath(args.workdir)
    clones = {side: checkout(workdir, side, rev, args.dry_run)
              for side, rev in zip(SIDES, (args.parent, args.change))}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    results = {}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(clones[side], workload, seed, args.seconds,
                                   args.dry_run)
            pairs.append(pair)
        results[workload] = pairs
        if not args.dry_run:
            summarize(workload, pairs, end_to_end)
    if args.json and not args.dry_run:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
