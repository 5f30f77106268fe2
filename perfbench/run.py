#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload gnutella_flood --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources
under src/ plus the benchmark) with CMake into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that is set; later calls only
rebuild what changed. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The exit code is
the benchmark's: 0 when every check passed, non-zero otherwise (2 when the
build fails).

--selftest runs the benchmark's own self-tests, then checks that
BENCHMARK.json lists exactly the metrics and units the benchmark reports and
that a tiny run of each workload prints a well-formed result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gnutella_flood", "pier_search", "hybrid_qrs")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(exe):
    if subprocess.run([exe, "--selftest"]).returncode:
        return 1
    failures = []
    spec = json.loads(subprocess.run([exe, "--list-metrics"],
                                     capture_output=True, text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"]) for m in spec[key]]
        theirs = [(m["name"], m["unit"]) for m in bench[key]]
        if ours != theirs:
            failures.append("BENCHMARK.json %s differs from the benchmark's "
                            "list" % key)
    for key in ("end_to_end", "per_layer"):
        for m, s in zip(bench[key], spec[key]):
            if m.get("better") != s["better"]:
                failures.append("better direction of %s differs" % m["name"])
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run(
                [exe, "--workload", workload, "--seed", "5", "--seconds",
                 "0.01", "--trace", trace, "--scale", "0.1"],
                capture_output=True, text=True)
            result = last_json(done.stdout) if done.returncode == 0 else None
            want = [m["name"] for m in
                    spec["per_layer" if trace == "1" else "end_to_end"]]
            if (result is None or
                    sorted(result) != ["attempted", "correct", "failed",
                                       "metrics"] or
                    result["correct"] is not True or
                    result["attempted"] < 1 or
                    list(result["metrics"]) != want):
                failures.append("%s --trace %s: malformed result line"
                                % (workload, trace))
    for f in failures:
        print("  FAIL: " + f)
    print("run.py selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    exe = build()
    if exe is None:
        return 2
    if args.selftest:
        return selftest(exe)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
