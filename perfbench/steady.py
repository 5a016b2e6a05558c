#!/usr/bin/env python3
"""Steadiness check for the benchmark: two interleaved sets of runs.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]
                                [--other CHECKOUT] [--out FILE]

Runs set A from this checkout and set B from CHECKOUT (default: this
checkout again), interleaved A, B, A, B... so host drift lands on both sets
alike.  Run k of every workload uses seed k+1 in both sets.  For each
workload and end-to-end metric it prints both sets' quartiles, each set's
spread (interquartile range over median) and how much worse B's median is
than A's, against the metric's bound from BENCHMARK.json; a spread above a
third of its bound or a drift above the bound is flagged.  Each run's
host.spin_ms sentinel (the fixed ALU loop timed at its start and end) is
reported beside the metrics, with the share of CPU time the hypervisor
stole from this machine during the run (host.steal_pct, from /proc/stat).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_once(checkout, workload, seed, seconds):
    steal0, total0 = cpu_ticks()
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {workload} seed {seed} in {checkout}")
    result = json.loads(lines[-1])
    spin = [float(part.split("=")[1]) for part in lines[-2].split()[1:3]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["host.spin_ms"] = sum(spin) / 2
    steal1, total1 = cpu_ticks()
    values["host.steal_pct"] = 100.0 * (steal1 - steal0) / (total1 - total0)
    return result, values


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--other", default=ROOT)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    samples = {(s, w): [] for s in "AB" for w in workloads}
    bad = 0
    for k in range(args.runs):
        for w in workloads:
            for s, checkout in (("A", ROOT), ("B", args.other)):
                result, values = run_once(checkout, w, k + 1, seconds)
                if not result["correct"] or result["failed"]:
                    bad += 1
                samples[(s, w)].append(values)
                print(f"{s} {w} seed {k + 1}: " + " ".join(
                    f"{n}={v:.5g}" for n, v in sorted(values.items())),
                    file=sys.stderr, flush=True)

    flagged = 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':15s} {'set':3s} {'q1':>10s} {'median':>10s} "
              f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
        for name in [*metrics, "host.spin_ms", "host.steal_pct"]:
            bound = metrics[name]["bound"] if name in metrics else None
            meds = {}
            for s in "AB":
                vals = [v[name] for v in samples[(s, w)]]
                q1, q2, q3 = quartiles(vals)
                meds[s] = q2
                spread = (q3 - q1) / q2
                flag = ""
                if bound is not None and name != "setup_s" and \
                        spread > bound / 3:
                    flag = "  <-- spread"
                    flagged += 1
                print(f"  {name:15s} {s:3s} {q1:10.5g} {q2:10.5g} "
                      f"{q3:10.5g} {spread:7.3f} "
                      f"{'' if bound is None else bound:>6}{flag}")
            if bound is not None:
                higher = metrics[name]["better"] == "higher"
                worse = (meds["A"] / meds["B"] - 1) if higher else \
                    (meds["B"] / meds["A"] - 1)
                flag = "  <-- drift" if worse > bound else ""
                flagged += bool(flag)
                print(f"  {name:15s} B worse than A by {worse:+.3f}{flag}")
    print(f"\nruns with failed ops: {bad}; flagged: {flagged}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({f"{s}/{w}": v for (s, w), v in samples.items()}, f,
                      indent=1)
    return 1 if bad or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
