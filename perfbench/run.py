#!/usr/bin/env python3
"""Build and run the bfq benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the benchmark (a Cargo package of its own, release
profile, into $CARGO_TARGET_DIR or .bench_build) and runs one workload in
its own process; the last line of standard output is the result object.
The second runs every workload of BENCHMARK.json for a few statements and
checks that each metric it names is printed with its unit, that the
traced per-layer times add up to the statements' wall time, and that the
operator-class self times add up to the execute time without a breaker's
inputs outlasting the breaker.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Share of traced statement time no layer span may leave unaccounted for.
LAYER_SUM_TOLERANCE = 0.05
# Largest relative gap allowed between the operator-class self times of a
# statement, summed, and its exec.execute span.
CLASS_SUM_TOLERANCE = 0.15
# Largest share of class time by which breakers' inputs may exceed the
# breakers' own stage times (0 when both are wall-clock times).
CLASS_OVERSHOOT_TOLERANCE = 0.01
CLASSES = ("scan", "hashjoin", "nljoin", "agg", "sort", "exchange", "other")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run(binary, args):
    trace_dir = os.path.join(target_dir(), "perfbench-traces")
    return subprocess.run([binary, *args, "--trace-dir", trace_dir], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=900)


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            done = run(binary, ["--workload", name, "--seed", "7", "--seconds", "1",
                                "--trace", trace, "--quick"])
            where = f"{name} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit code {done.returncode}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            for metric in declared:
                m = got.get(metric["name"])
                if m is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif m["unit"] != metric["unit"] or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {metric['name']} = {m}, declared unit {metric['unit']}")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            if trace == "1":
                gap = got.get("obs.unattributed_frac", {}).get("value", 1.0)
                if gap > LAYER_SUM_TOLERANCE:
                    problems.append(f"{where}: layers leave {gap:.1%} of statement time unaccounted")
                execute = got.get("exec.execute_ms_mean", {}).get("value", 0.0)
                classes = sum(got.get(f"exec.{c}_ms", {}).get("value", 0.0) for c in CLASSES)
                # Workloads whose engine side is not exposed report both as 0.
                if execute > 0 and abs(classes - execute) > CLASS_SUM_TOLERANCE * execute:
                    problems.append(f"{where}: operator classes sum to {classes:.3f} ms/stmt, "
                                    f"exec.execute averages {execute:.3f} ms")
                overshoot = got.get("exec.class_overshoot_frac", {}).get("value", 0.0)
                if overshoot > CLASS_OVERSHOOT_TOLERANCE:
                    problems.append(f"{where}: breaker inputs overshoot their stage time "
                                    f"by {overshoot:.1%} of class time")
            print(f"self-test {where}: {len(got)} metrics, {result['attempted']} statements",
                  file=sys.stderr)
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    binary = build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    done = run(binary, sys.argv[1:])
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
