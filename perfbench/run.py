#!/usr/bin/env python3
"""condtd's benchmark: builds an optimized condtd plus the perfbench
harness from this checkout, runs one workload and prints its result.

    python3 perfbench/run.py [--workload infer_text|infer_learn|serve_mixed]
                             [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all three. The last line of standard output
is the JSON result: {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The line before it is the context block, which is also stored with the
result under .bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ["infer_text", "infer_learn", "serve_mixed"]
DEFAULT_SEED = 20060912
# Generation, pre-seed, set-up and the output checks on top of --seconds.
HARNESS_MARGIN_S = 140

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def read_cache():
    cache = {}
    path = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep and not key.startswith(("//", "#")):
                    cache[key.split(":")[0]] = value
    return cache


def build():
    """Configures (once) and builds the CLI, the harness and the launcher."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no condtd sources next to perfbench/ in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if read_cache().get("CMAKE_HOME_DIRECTORY") != HERE:
            step = ["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                fail("configure failed, see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                "condtd_cli", "perfbench", "perfbench_spawn"]
        if subprocess.call(step, stdout=log, stderr=log) != 0:
            fail("build failed, see " + log_path)


def context(cache, args, workload):
    """What a result was measured on. Refuses builds unfit to time."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitize = cache.get("CONDTD_SANITIZE", "")
    if build_type != "Release" or sanitize:
        fail("refusing to record from a %s build (CONDTD_SANITIZE=%r)"
             % (build_type or "unset", sanitize))
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout; source_sha256 identifies the code
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": source_digest(),
        "compiler": "%s (%s)" % (compiler, version),
        "cmake_build_type": build_type,
        "condtd_sanitize": sanitize,
        "condtd_no_stats": cache.get("CONDTD_NO_STATS", "OFF"),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
    }


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_workload(args, workload, cache):
    ctx = context(cache, args, workload)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--condtd", os.path.join(BUILD, "condtd", "tools", "condtd"),
               "--spawn", os.path.join(BUILD, "perfbench_spawn"),
               "--work", os.path.join(BUILD, "work")]
    timeout = args.seconds + HARNESS_MARGIN_S
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(workload + ": harness exceeded %d s" % timeout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        fail(workload + ": harness printed no result (exit %d)"
             % done.returncode)
    for line in lines[:-1]:
        print(line)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump({"context": ctx, "result": result}, f, indent=1)
    print("context: " + json.dumps(ctx, sort_keys=True))
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cache = read_cache()
    if args.workload:
        code, result = run_workload(args, args.workload, cache)
        print(json.dumps(result))
        return code

    # All workloads: one combined result, metrics keyed workload.metric.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(args, workload, cache)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
