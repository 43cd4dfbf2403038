#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the simulator (see README.md).

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selftest

Run from the repository root. The benchmark binary is built from source with
CMake into $CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench);
build output goes to stderr, so the last line of stdout is the result JSON.
Traced runs write their spans to the same build directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve_fleet", "schedule_search")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no simulator sources under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "hostbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "hostbench")


def pinned():
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f)


def run(binary, workload, seed, seconds, trace, expect_digest=None):
    """Runs one benchmark invocation; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", build_dir()]
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def selftest(binary):
    """Checks the binary's helpers, the pinned digests, and that a seed's
    digest and exact counters repeat across processes."""
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        return 1
    pins = pinned()
    exact = ("sim.events", "search.analytic_evals", "runtime.runs",
             "core.k_probes", "core.plan_calls", "serve.requests",
             "serve.router_decisions", "search.tier_b_evals")
    failures = 0
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            code, lines = run(binary, workload, pins["default_seed"], 0, 1)
            if code != 0:
                result, provenance = {}, {}
            else:
                result = json.loads(lines[-1])
                provenance = json.loads(lines[-2])["provenance"]
            if not result.get("correct") or result.get("failed") != 0:
                print("selftest FAILED: %s run not correct" % workload)
                failures += 1
                break
            counters = {k: result["metrics"][k]["value"] for k in exact}
            seen.append((provenance["digest"], counters))
        if len(seen) != 2:
            continue
        if seen[0] != seen[1]:
            print("selftest FAILED: %s digest/counters differ: %s vs %s"
                  % (workload, seen[0], seen[1]))
            failures += 1
        if seen[0][0] != pins["digests"][workload]:
            print("selftest FAILED: %s digest %s, pinned %s"
                  % (workload, seen[0][0], pins["digests"][workload]))
            failures += 1
        print("%s: digest %s, counters %s" % (workload, seen[0][0],
                                               seen[0][1]))
    print("selftest: %s" % ("ok" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    pins = pinned()
    seed = pins["default_seed"] if args.seed is None else args.seed
    expect = pins["digests"].get(args.workload) \
        if seed == pins["default_seed"] else None
    code, lines = run(binary, args.workload, seed, args.seconds, args.trace,
                      expect)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
