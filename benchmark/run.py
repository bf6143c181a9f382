#!/usr/bin/env python3
"""Build rpsbench from source and run one workload of the benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke [--bin PATH]

The first form configures and builds benchmark/build (the library comes
from the repository's own CMake tree), runs the workload, prints
rpsbench's report, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer one
(--trace 1). The exit status is non-zero on a wrong answer, a missing
metric or a failed build.

--smoke runs all three workloads at toy size, untraced and traced, and
checks that every metric BENCHMARK.json names comes out.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
RESULTS = os.path.join(HERE, "results")
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then an incremental build of rpsbench."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("the library sources are not in this checkout")
        sys.exit(1)
    jobs = str(min(8, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rpsbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, "rpsbench")


def commit():
    """The checkout's commit when it is a git work tree, else unknown."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def run_one(binary, workload, seed, seconds, trace, smoke=False):
    """Run rpsbench once; returns the result document it wrote.

    Returns None when the run timed out, wrote no result, or exited
    non-zero with a result that claims to be correct. Smoke results go
    to results/smoke/, apart from the measured ones.
    """
    results = os.path.join(RESULTS, "smoke") if smoke else RESULTS
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d%s" % (workload, seed, "-trace" if trace else "")
    out = os.path.join(results, tag + ".json")
    trace_out = os.path.join(results, tag + ".trace.json")
    # An earlier run's files must never stand in for this run's.
    for path in (out, trace_out):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out]
    if trace:
        cmd += ["--trace", trace_out]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, RPSBENCH_COMMIT=commit())
    # A session of its own, so a timeout stops rpsbench's child too.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(workload, "timed out")
        return None
    try:
        with open(out) as f:
            res = json.load(f)
    except (OSError, ValueError):
        log(workload, "left no result (exit %d)" % proc.returncode)
        return None
    # rpsbench exits non-zero on a wrong answer, and then its result
    # says correct=false; any other non-zero exit is a failure.
    if proc.returncode != 0 and res.get("correct", True):
        log(workload, "exited %d with a result marked correct"
            % proc.returncode)
        return None
    return res


def select(spec, result, trace):
    """One run as BENCHMARK.json sees it: only the metrics it names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, missing


def smoke(binary):
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run_one(binary, w["name"], 1, 1, trace, smoke=True)
            if res is None:
                ok = False
                continue
            _, missing = select(spec, res, trace)
            if missing or not res["correct"]:
                ok = False
                log(w["name"], "trace=%d" % trace, "missing:", missing,
                    "errors:", res.get("errors"))
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="use this rpsbench instead of building")
    a = p.parse_args()

    spec = load_spec()
    binary = a.bin or build()
    if a.smoke:
        return smoke(binary)
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        p.error("--workload must be one of %s" % ", ".join(names))
    seconds = a.seconds or spec["run_seconds"]
    res = run_one(binary, a.workload, a.seed, seconds, a.trace)
    if res is None:
        return 1
    metrics, missing = select(spec, res, a.trace)
    if missing:
        log("metrics missing from the result:", ", ".join(missing))
        return 1
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
