#!/usr/bin/env python3
"""Steadiness check: runs every workload in BENCHMARK.json ten times, twice,
and compares the spreads and the two sets' medians with the bounds.

    python3 perfbench/steady.py

Run from the repository root.  Each set runs every workload RUNS times at
the file's run_seconds; run i uses seed SEED_BASE + i, and the workload
order reverses on every other run, so slow drift on the host lands on all
workloads alike.  Each run's JSON result goes to stderr as it ends.

For each set and end-to-end metric it prints the median, the quartiles
(as statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median beside the metric's bound: over the bound is FAIL,
over a third of it "wide".  Then, per metric, how much worse set 2's
median is than set 1's as a share of set 1's, FAIL over the bound, and
whether the share of failed operations is the same in both sets.  Exits 1
on any FAIL or incorrect run.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2
SEED_BASE = 100


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def run_set(workloads, seconds):
    results = {w: [] for w in workloads}
    for i in range(RUNS):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, SEED_BASE + i, seconds)
            results[w].append(r)
            print("%s seed %d: %s" % (w, SEED_BASE + i, json.dumps(r)),
                  file=sys.stderr, flush=True)
    return results


def median_and_spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sets = [run_set(workloads, spec["run_seconds"]) for _ in range(SETS)]

    ok = True
    print("%-4s %-17s %-22s %12s %12s %12s %7s %6s  %s"
          % ("set", "workload", "metric", "median", "q1", "q3", "spread",
             "bound", "verdict"))
    for n, results in enumerate(sets, 1):
        for w in workloads:
            if any(not r["correct"] for r in results[w]):
                ok = False
                print("%-4d %-17s incorrect output" % (n, w))
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in results[w]]
                med, q1, q3, spread = median_and_spread(vals)
                verdict = "ok"
                if spread > m["bound"]:
                    verdict, ok = "FAIL", False
                elif spread > m["bound"] / 3:
                    verdict = "wide"
                print("%-4d %-17s %-22s %12.6g %12.6g %12.6g %7.4f %6.3f  %s"
                      % (n, w, m["name"], med, q1, q3, spread, m["bound"],
                         verdict))

    print("\n%-17s %-22s %12s %12s %7s %6s  %s"
          % ("workload", "metric", "median 1", "median 2", "worse", "bound",
             "verdict"))
    for w in workloads:
        shares = {tuple(sorted({r["failed"] / r["attempted"]
                                for r in s[w]})) for s in sets}
        if len(shares) != 1 or len(next(iter(shares))) != 1:
            ok = False
            print("%-17s failed share differs: %s" % (w, sorted(shares)))
        for m in metrics:
            m1, m2 = (statistics.median(r["metrics"][m["name"]]["value"]
                                        for r in s[w]) for s in sets)
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            verdict = "ok"
            if worse > m["bound"]:
                verdict, ok = "FAIL", False
            print("%-17s %-22s %12.6g %12.6g %7.4f %6.3f  %s"
                  % (w, m["name"], m1, m2, worse, m["bound"], verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
