#!/usr/bin/env python3
"""End-to-end benchmark of the rfh library: corpus, serve and pipeline.

One run (the interface BENCHMARK.json names):

    python3 perfbench/run.py --workload corpus|serve|pipeline \\
        --seed N --seconds S --trace 0|1

builds the library, the `rfhc` CLI and the benchmark binary from source
(CMake, Release, into .bench_build/), runs one workload and prints its
host context, notes and, as the last line, one JSON result object.
Every run is also saved under .bench_build/results/. `--workload all`
runs the three in turn and fails if any of them does.

Steadiness mode runs every workload over fresh seeds in two sets of
10 runs and fails when a set's spread or the gap between the sets'
medians, in either direction, exceeds the bounds in BENCHMARK.json:

    python3 perfbench/run.py --steady [--seconds S] [--first-seed 1]

Comparison mode sets the medians of two saved steadiness files side by
side, and refuses when their host contexts differ:

    python3 perfbench/run.py --compare OLD.json NEW.json

See perfbench/README.md for the metrics and how to read the span files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "cmake")
OUT = os.path.join(".bench_build", "out")
RESULTS = os.path.join(".bench_build", "results")
WORKLOADS = ("corpus", "serve", "pipeline")
# Context fields that must match before two results are compared; the
# git SHA and seed are recorded but differ by design.
CONTEXT_KEYS = ("nproc", "build_type", "compiler", "rfh_threads")
RUNS_PER_SET = 10
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; return the binary path or None."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "perfbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, context, result or None)."""
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    env = dict(os.environ, RFH_THREADS="1", PB_GIT_SHA=git_sha())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, None, None
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    context = result = None
    for line in lines:
        if line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if context and result:
        name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
        with open(os.path.join(RESULTS, name), "w") as f:
            json.dump({"context": context, "result": result}, f, indent=1)
    return proc.returncode, context, result


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, old, new):
    """Share by which NEW is worse than OLD (negative when better)."""
    if metric["better"] == "lower":
        return new / old - 1.0
    return old / new - 1.0


def context_key(context):
    return {k: context.get(k) for k in CONTEXT_KEYS}


def steady(args):
    bounds = load_bounds()
    binary = build()
    if not binary:
        return 2
    report = {"runs": {}, "contexts": {}}
    ok = True
    seed = args.first_seed
    for w in WORKLOADS:
        sets = []
        for _ in range(2):
            values = {name: [] for name in bounds}
            for _ in range(RUNS_PER_SET):
                code, context, result = run_once(binary, w, seed,
                                                 args.seconds, 0, echo=False)
                seed += 1
                if not result:
                    log("perfbench: %s seed %d gave no result" % (w, seed - 1))
                    return 1
                if code != 0 or not result["correct"]:
                    # Keep measuring: the spread is still informative,
                    # but the verdict fails.
                    log("perfbench: %s seed %d failed %d of %d" % (
                        w, seed - 1, result["failed"], result["attempted"]))
                    ok = False
                key = context_key(context)
                if report["contexts"].setdefault(w, key) != key:
                    log("perfbench: host context changed during the run; "
                        "refusing to compare")
                    return 1
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                log("  %s seed %d: %s" % (w, seed - 1, " ".join(
                    "%s=%.6g" % (n, v[-1]) for n, v in values.items())))
            sets.append(values)
        report["runs"][w] = sets
        print("%s (%d runs per set)" % (w, RUNS_PER_SET))
        for name, metric in bounds.items():
            a = summarize(sets[0][name])
            b = summarize(sets[1][name])
            # Either set may be the slower one.
            gap = max(worse_by(metric, a["median"], b["median"]),
                      worse_by(metric, b["median"], a["median"]))
            # setup_s is held to its bound only between the sets'
            # medians: a single set-up is short enough that scheduler
            # noise dominates its spread.
            spread_ok = name == "setup_s" or max(
                a["spread"], b["spread"]) <= metric["bound"]
            verdict = "ok" if spread_ok and gap <= metric["bound"] else "FAIL"
            ok = ok and verdict == "ok"
            print("  %-16s median %.6g / %.6g  q1-q3 %.4g-%.4g  "
                  "spread %.3f / %.3f  gap %.3f  bound %.2f  %s" % (
                      name, a["median"], b["median"], a["q1"], a["q3"],
                      a["spread"], b["spread"], gap, metric["bound"],
                      verdict))
        sys.stdout.flush()
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("saved %s" % path)
    print("steady: %s" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def compare(args):
    bounds = load_bounds()
    with open(args.compare[0]) as f:
        old = json.load(f)
    with open(args.compare[1]) as f:
        new = json.load(f)
    for w in sorted(set(old["runs"]) & set(new["runs"])):
        if old["contexts"][w] != new["contexts"][w]:
            print("perfbench: %s contexts differ (%s vs %s); refusing to "
                  "compare" % (w, old["contexts"][w], new["contexts"][w]))
            return 1
    worst = 0
    for w in sorted(set(old["runs"]) & set(new["runs"])):
        print(w)
        for name, metric in bounds.items():
            a = old["runs"][w][0][name] + old["runs"][w][1][name]
            b = new["runs"][w][0][name] + new["runs"][w][1][name]
            gap = worse_by(metric, statistics.median(a),
                           statistics.median(b))
            regressed = gap > metric["bound"]
            worst = max(worst, 1 if regressed else 0)
            print("  %-16s %.6g -> %.6g  %+.3f  %s" % (
                name, statistics.median(a), statistics.median(b), gap,
                "REGRESSED" if regressed else "ok"))
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(args)
    if args.steady:
        return steady(args)
    if not args.workload:
        p.error("--workload is required")
    binary = build()
    if not binary:
        return 2
    worst = 0
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        code, _, result = run_once(binary, w, args.seed, args.seconds,
                                   args.trace)
        worst = max(worst, code if result else (code or 1))
    return worst


if __name__ == "__main__":
    sys.exit(main())
