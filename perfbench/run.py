#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the driver in
perfbench/cpp) into .bench_build/perfbench; later calls only rebuild what
changed.  Each run gets a private temp dir under .bench_build/tmp for
journals and state files, removed when the run ends.  The driver's last
stdout line is the result JSON; --trace 1 also writes its spans to
.bench_build/spans/.  GB_JOBS is removed from the driver's environment:
every workload sets its worker count explicitly.

--self-test runs every workload for a few ops and checks that each metric
named in BENCHMARK.json prints with its unit, that default-seed outputs pass
their checks, and that a poisoned reference digest is reported as a failed
op.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(step))
            return False
    return True


def run_driver(args, extra=()):
    """Run the driver once; returns (exit code, stdout text)."""
    tmp_root = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp, *extra]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    env = {k: v for k, v in os.environ.items() if k != "GB_JOBS"}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log("driver timed out after", RUN_TIMEOUT_S, "s")
        return 1, ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ops = 40  # more than any workload's input pool, so inputs repeat
    problems = []

    def check(label, args, extra, want_failed):
        code, out = run_driver(args, extra)
        result = last_json(out) if code == 0 else None
        if result is None:
            problems.append(f"{label}: exit {code}, no result")
            return
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{label}: result keys {sorted(result)}")
            return
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected[args.trace]:
            problems.append(f"{label}: metrics/units differ from "
                            f"BENCHMARK.json: {sorted(set(got) ^ set(expected[args.trace]))}")
        if want_failed:
            if result["failed"] < 1 or result["correct"]:
                problems.append(f"{label}: poisoned digest not reported")
        elif result["failed"] != 0 or not result["correct"]:
            problems.append(f"{label}: {result['failed']} failed ops")
        log(f"self-test {label}: attempted {result['attempted']}, "
            f"failed {result['failed']}")

    for w in spec["workloads"]:
        args = argparse.Namespace(workload=w["name"], seed=2018, seconds=1,
                                  trace=0)
        check(f"{w['name']} untraced", args, ["--ops", str(ops)], False)
        check(f"{w['name']} poisoned", args,
              ["--ops", str(ops), "--poison-digest"], True)
    args = argparse.Namespace(workload=spec["workloads"][0]["name"],
                              seed=2018, seconds=1, trace=1)
    check("traced", args, ["--ops", "2"], False)
    for p in problems:
        log("self-test FAILED:", p)
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="vmin_suite")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.self_test:
        return self_test()
    code, out = run_driver(args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
