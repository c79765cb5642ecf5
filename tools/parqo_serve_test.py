#!/usr/bin/env python3
"""Exit-code contract test for parqo_serve (DESIGN.md section 16).

A wrapping script must be able to tell "back off and re-submit" from
"this query is broken" without parsing stderr prose:

  0   every query served
  75  every failure was retryable (kOverloaded / kUnavailable), with a
      one-line retry hint on stderr
  1   at least one fatal failure (e.g. a parse error)
  2   usage, including a count (--nodes, --max-in-flight, --max-rows)
      that is not an integer >= 1 or a --deadline that is not a number
      >= 0

Usage: parqo_serve_test.py --serve=/path/to/parqo_serve
"""

import os
import subprocess
import sys
import tempfile

QUERY = "SELECT * WHERE { ?s <p> ?o }\n"
BAD_QUERY = "SELECT * WHERE { this is not sparql\n"

DATA = """\
<s1> <p> <o1> .
<s2> <p> <o2> .
<s3> <q> <o3> .
"""


def run(serve, args, stdin):
    return subprocess.run(
        [serve] + args,
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


def main():
    serve = None
    for arg in sys.argv[1:]:
        if arg.startswith("--serve="):
            serve = arg[len("--serve=") :]
    if not serve or not os.path.exists(serve):
        print(f"missing --serve binary (got {serve!r})", file=sys.stderr)
        return 2

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "tiny.nt")
        with open(data, "w", encoding="utf-8") as f:
            f.write(DATA)
        base = [f"--data={data}", "--nodes=3"]

        # 1. Healthy serve: exit 0, rows on stdout.
        r = run(serve, base, QUERY)
        if r.returncode != 0:
            failures.append(f"healthy serve exited {r.returncode}: {r.stderr}")
        elif "signature" not in r.stdout:
            failures.append(f"healthy serve printed no result: {r.stdout!r}")

        # 2. Saturated server: the typed kOverloaded is RETRYABLE — exit
        #    75 with a one-line retry hint on stderr.
        r = run(serve, base + ["--max-in-flight=1", "--saturate"], QUERY)
        if r.returncode != 75:
            failures.append(f"saturated serve exited {r.returncode}, want 75")
        if "retryable" not in r.stderr:
            failures.append(f"no retryable marker on stderr: {r.stderr!r}")
        if "retry:" not in r.stderr or "re-submit" not in r.stderr:
            failures.append(f"no retry hint line on stderr: {r.stderr!r}")

        # 3. A parse error is fatal: exit 1, no retry hint.
        r = run(serve, base, BAD_QUERY)
        if r.returncode != 1:
            failures.append(f"parse error exited {r.returncode}, want 1")
        if "retry:" in r.stderr:
            failures.append(f"fatal failure printed a retry hint: {r.stderr!r}")

        # 4. Mixed stream: one fatal + one retryable failure -> fatal (1)
        #    wins, so automation never blindly retries a broken query.
        r = run(
            serve,
            base + ["--max-in-flight=1", "--saturate"],
            QUERY + "\n" + BAD_QUERY,
        )
        if r.returncode != 1:
            failures.append(f"mixed stream exited {r.returncode}, want 1")

        # 5. Unknown flag: usage (2).
        r = run(serve, ["--no-such-flag"], "")
        if r.returncode != 2:
            failures.append(f"usage exited {r.returncode}, want 2")

        # 6. A count below 1, a budget below 0, or anything that is not a
        #    number in range is usage (2), never a crash and never a
        #    silent clamp or default. parqo_cli and parqo_report, built
        #    next to parqo_serve, check their numeric flags the same way.
        tools = os.path.dirname(serve)
        cli = os.path.join(tools, "parqo_cli")
        report = os.path.join(tools, "parqo_report")
        bad_counts = ["0", "-2", "abc", "4x", ""]
        bad_seconds = ["-1", "abc", "4x", "", "inf", "nan"]
        cases = [
            (serve, base[:1], "--nodes", bad_counts),
            (serve, base[:1], "--max-in-flight", bad_counts),
            (serve, base[:1], "--max-rows", bad_counts),
            (serve, base[:1], "--deadline", bad_seconds),
            (cli, base[:1], "--nodes", bad_counts),
            (cli, base[:1], "--max-rows", bad_counts),
            (cli, base[:1], "--timeout", bad_seconds),
            (report, [], "--nodes", bad_counts),
            (report, [], "--threads", bad_counts),
            (report, [], "--scale", bad_counts),
            (report, [], "--template", ["-1", "abc", "1.5", "124", ""]),
        ]
        for binary, args, flag, bad_values in cases:
            if not os.path.exists(binary):
                failures.append(f"missing {binary}")
                continue
            for bad in bad_values:
                r = run(binary, args + [f"{flag}={bad}"], QUERY)
                if r.returncode != 2:
                    failures.append(
                        f"{os.path.basename(binary)} {flag}={bad!r} exited "
                        f"{r.returncode}, want 2")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("parqo_serve exit-code contract: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
