#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py

It checks that BENCHMARK.json and the harness declare the same workloads
and metrics with valid names and units, and it runs a smoke pass of every
workload: every op and its reference check, with mesh and path counts
shrunk tenfold.  Only the documented survival bias may count as a known
failure.  Two traced smoke runs of each workload with one seed must
report identical counts.  Last, the harness must refuse to run, without
printing a result, in a directory that holds only the benchmark's files.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7
problems = []


def check(ok, what):
    if not ok:
        print("FAIL " + what, flush=True)
        problems.append(what)


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(done):
    check(done.returncode == 0, f"exit status {done.returncode} {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(res, declared, label):
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(res["correct"] is True and res["attempted"] >= 1, f"{label}: correct, ops attempted")
    got = res["metrics"]
    check(set(got) == set(declared), f"{label}: every declared metric printed")
    for name, unit in declared.items():
        entry = got.get(name, {})
        check(entry.get("unit") == unit and isinstance(entry.get("value"), (int, float))
              and math.isfinite(entry["value"]), f"{label}: {name} in {unit}")


def check_known_bias():
    """A survival value is a known failure only inside the documented bias envelope."""
    want, sigma, bias = 0.56807, 0.0035, workloads.FkPaths.SURVIVAL_BIAS
    # (value, expected class): pass, known failure or unexpected failure
    for value, expected in ((want + sigma, "pass"), (0.606, "known"),
                            (want - 4 * sigma, "unexpected"),
                            (want + 3 * sigma + bias + 0.01, "unexpected"),
                            (math.nan, "unexpected"), (math.inf, "unexpected")):
        op = workloads.Op("survival")
        est = SimpleNamespace(value=value, std_error=sigma, bias_bound=None)
        workloads._expect_survival(op, est, want, bias)
        got = "unexpected" if op else "known" if op.known else "pass"
        check(got == expected, f"survival {value} is {got}, not {expected}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workloads match the harness")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics match the harness")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS,
          "per-layer metrics match the tracer")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.fullmatch(m["name"]) is not None and UNIT.fullmatch(m["unit"]) is not None,
              f"name and unit of {m['name']}")
    check_known_bias()

    for name in run.WORKLOADS:
        check_metrics(result(bench(name, 0)), run.END_TO_END, f"{name} untraced")
        with open(os.path.join(run.OUT, name, f"result-seed{SEED}-trace0.json")) as fh:
            ran = json.load(fh)["ops"]
        check(ran == sorted(workloads.WORKLOADS[name].ops),
              f"{name}: every op and its reference check ran")
        first, second = (result(bench(name, 1)) for _ in range(2))
        for res in (first, second):
            check_metrics(res, tracer.METRICS, f"{name} traced")
        exact = [m for m, unit in tracer.METRICS.items() if unit in ("count", "bytes")]
        differ = [m for m in exact
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        check(not differ, f"{name}: counts repeat across traced runs {differ}")
        check(first["metrics"]["trace.overhead"]["value"] > 0.0, f"{name}: trace.overhead")
        print(f"checked {name}: {len(problems)} failures so far", flush=True)

    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = bench("kato_verdicts", 0, cwd=bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          "refuses to run without the katoform sources")
    shutil.rmtree(bare)

    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
