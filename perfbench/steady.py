#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py [--workloads lubm_serve,plan_cold,watdiv_explode]

Runs every workload ten times through run.py with --trace 0, seeds 1-10,
and prints for each end-to-end metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. A spread
above a third of the bound is flagged "noisy"; above the bound the check
fails. The ungated latency_geo_p50_ms and throughput_qps (report "extra"
block) are printed the same way for information.

It then repeats seed 1 untraced and makes two runs with --trace 1
(seeds 1 and 2), and asserts that the deterministic quantities repeat
exactly:
sim_exec_cost_geomean and shipped_bytes_per_query between the two runs of
one seed (both depend on the seed's constant draws), plan_cost_geomean and
optimizer.enumerated on every run. Exits non-zero on any failed run,
failed check, or incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:2]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(r.stdout.strip().split("\n")[-1])
    path = os.path.join(OUT, "report-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        report = json.load(f)
    return result, report


def value(section, name):
    return section[name]["value"] if name in section else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of BENCHMARK.json's workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        runs = {}
        for s in SEEDS:
            result, report = run(w, s, seconds, 0)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect (%d of %d failed)"
                      % (w, s, result["failed"], result["attempted"]))
                ok = False
            runs[s] = (result, report)
            print("%s seed %d: %s" % (w, s, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})),
                flush=True)
        print("\n%s: %d runs, %d s each" % (w, len(SEEDS), seconds))
        print("%-22s %12s %12s %12s %8s %7s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, bound in bounds.items():
            vals = [runs[s][0]["metrics"][name]["value"] for s in SEEDS]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "noisy"
            else:
                verdict = "FAIL"
                ok = False
            print("%-22s %12.6g %12.6g %12.6g %8.4f %7.3f  %s"
                  % (name, med, q1, q3, spread, bound, verdict))
        for name in ("latency_geo_p50_ms", "throughput_qps"):
            vals = [value(runs[s][1]["extra"], name) for s in SEEDS]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print("%-22s %12.6g %12.6g %12.6g %8.4f %7s  (not gated)"
                  % (name, med, q1, q3, (q3 - q1) / med, "-"))
        probes = [(runs[s][1]["env"]["probe_before_ms"],
                   runs[s][1]["env"]["probe_after_ms"]) for s in SEEDS]
        print("host probe ms (before, after): " +
              " ".join("%.0f/%.0f" % p for p in probes))

        # Deterministic quantities: the first seed once more, untraced,
        # must repeat its cost stand-ins exactly; plan_cost_geomean and
        # optimizer.enumerated do not depend on the seed at all.
        first = SEEDS[0]
        _, again = run(w, first, seconds, 0)
        for name in ("sim_exec_cost_geomean", "shipped_bytes_per_query"):
            a = value(runs[first][1]["extra"], name)
            b = value(again["extra"], name)
            if a is None and b is None:
                continue  # plan_cold executes nothing
            same = a == b
            ok = ok and same
            print("%s seed %d: %s" % (name, first, "identical %r" % a if same
                                      else "DIFFERS %r vs %r" % (a, b)))
        plan_costs = {runs[s][0]["metrics"]["plan_cost_geomean"]["value"]
                      for s in SEEDS}
        plan_costs.add(value(again["end_to_end"], "plan_cost_geomean"))
        enumerated = {value(runs[s][1]["extra"], "optimizer.enumerated")
                      for s in SEEDS} - {None}
        for s in TRACED_SEEDS:
            result, report = run(w, s, seconds, 1)
            if not result["correct"] or result["failed"]:
                print("%s seed %d traced: incorrect" % (w, s))
                ok = False
            layer = {k: v["value"] for k, v in result["metrics"].items()}
            print("%s seed %d traced: %s" % (w, s, json.dumps(layer)))
            plan_costs.add(value(report["end_to_end"], "plan_cost_geomean"))
            enumerated.add(layer["optimizer.enumerated"])
        for name, vals in (("plan_cost_geomean", plan_costs),
                           ("optimizer.enumerated", enumerated)):
            same = len(vals) <= 1
            ok = ok and same
            print("%s %s: %s" % (name, "identical" if same else "DIFFERS",
                                 sorted(vals)))
        print(flush=True)
    print("steadiness check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
