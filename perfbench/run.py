#!/usr/bin/env python3
"""Builds parqo_bench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload lubm_serve --seed 1 --seconds 20 --trace 0

Workloads: lubm_serve, plan_cold, watdiv_explode (perfbench/README.md).
The harness is configured with CMake from perfbench/CMakeLists.txt, which
compiles ../src; the build tree is $CARGO_TARGET_DIR (default
.bench_build) under the checkout root, and per-run reports and span
files go to .bench_out/. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm_serve", "plan_cold", "watdiv_explode")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def run_logged(cmd, log, timeout, env):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=env).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no parqo sources at %s/src" % ROOT)
    if not shutil.which("cmake"):
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S, env) != 0:
            fail("cmake configure failed, see " + log)
    jobs = str(os.cpu_count() or 1)
    rc = run_logged(["cmake", "--build", build_dir, "-j", jobs], log,
                    max(1.0, deadline - time.monotonic()), env)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("build failed, see " + log)
    binary = os.path.join(build_dir, "parqo_bench")
    if not os.path.isfile(binary):
        fail("build produced no parqo_bench")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--out=" + out_dir,
           "--source-id=" + source_id()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("parqo_bench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("parqo_bench exited with %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("parqo_bench printed no result line")
    if set(result) != RESULT_KEYS:
        fail("result keys %s != %s" % (sorted(result), sorted(RESULT_KEYS)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
