#!/usr/bin/env python3
"""Benchmark harness for katoform.

Run from anywhere inside a checkout; it imports katoform from ``src/``:

    python3 bench/run.py --workload kato_verdicts --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it times set-up in fresh processes, then makes a fixed
number of passes over the workload's ops (as many as fit in ``--seconds``
at the workload's nominal pass time) and reports the end-to-end metrics
(medians over set-ups and over passes).  With
``--trace 1`` it runs an untraced pass, a traced pass and another untraced
pass, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with provenance, every failure and, when traced, the spans
is written to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("kato_verdicts", "mesh_paths")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Set-up is timed in this many fresh processes (this one included); the
# median is reported.  One set-up takes 0.6-3 s.
SETUP_SAMPLES = 5

# One BLAS thread unless the caller sets one.  On a small shared machine a
# second OpenBLAS thread mostly waits for a busy core: it doubled the
# run-to-run spread of the large-operator ops' wall time (IQR/median 0.34
# against 0.17 over ten seeds on 2 CPUs) and its spinning inflated cpu_s.
# Children inherit the setting; numpy reads it when first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def parse_args(argv):
    p = argparse.ArgumentParser(description="katoform benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the mesh and path counts tenfold (harness self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this process and print it (used internally)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def setup(args, tracer=None):
    """Import katoform and build the workload's inputs; returns (seconds, workload, inputs)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import katoform

    if not os.path.abspath(katoform.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"katoform imported from {katoform.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install_mesh_wrappers()
    try:
        inputs = wl.setup(args.seed, os.path.join(OUT, args.workload),
                          scale=0.1 if args.smoke else 1.0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start, wl, inputs


def setup_in_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(wl, inputs):
    import workloads

    tally = workloads.Tally()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    wl.run(inputs, tally)
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, tally


def source_digest():
    """sha256 over the files under src/ and bench/: names the code a run measured."""
    h = hashlib.sha256()
    for top in (SRC, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_digests(workload, seed, tallies):
    """Every CLI report must hash the same in every pass and every run of a seed.

    The first run of a seed stores its digests under the digest of the
    sources, so runs of the same code compare against it and runs of other
    code do not.  A mismatch fails that op in that pass.
    """
    path = os.path.join(OUT, workload, f"sha256-{source_digest()[:16]}-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as fh:
            want = json.load(fh)
    else:
        want = dict(tallies[0].digests)
        with open(path, "w") as fh:
            json.dump(want, fh, indent=1, sort_keys=True)
    for tally in tallies:
        failed = {f[0] for f in tally.failures}
        for name, digest in tally.digests.items():
            if digest != want.get(name) and name not in failed:
                tally.failures.append((name, f"report.json sha256 {digest[:12]} differs "
                                             f"from {str(want.get(name))[:12]}", False))


def commit():
    """The checked-out commit when run from a git working tree, else "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def provenance(args):
    import numpy
    import scipy
    import workloads

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "workers": workloads.WORKERS,
            "seed": args.seed, "commit": commit(), "source_sha256": source_digest(),
            "smoke": args.smoke}


def finish(args, tallies, metrics, units, extra):
    attempted = sum(t.n_attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(tallies)} pass(es)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} ops attempted)")
    for name, detail, known in sorted(set(failures)):
        print(f"  {'known failure' if known else 'FAILED'}: {name}: {detail}")
    record = {"workload": args.workload, "provenance": provenance(args),
              "ops": sorted({name for t in tallies for name in t.attempted}),
              "attempted": attempted,
              "failures": [list(f) for f in failures],
              "digests": tallies[0].digests,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              **extra}
    path = os.path.join(OUT, args.workload, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": all(known for _, _, known in failures),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))


def run_plain(args):
    samples = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    own, wl, inputs = setup(args)
    samples.append(own)
    os.makedirs(inputs.out_dir, exist_ok=True)

    # The pass count depends on --seconds only, never on how fast the code
    # under test is, so every commit is measured the same way.
    walls, cpus, tallies = [], [], []
    for _ in range(max(1, int(args.seconds // wl.pass_s))):
        wall, cpu, tally = run_pass(wl, inputs)
        walls.append(wall)
        cpus.append(cpu)
        tallies.append(tally)
    check_digests(args.workload, args.seed, tallies)
    metrics = {"setup_s": statistics.median(samples),
               "wall_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    finish(args, tallies, metrics, END_TO_END,
           {"setup_samples_s": samples, "pass_wall_s": walls, "pass_cpu_s": cpus})
    return 0


def run_traced(args):
    from tracer import METRICS, Tracer

    tracer = Tracer()
    _, wl, inputs = setup(args, tracer)
    os.makedirs(inputs.out_dir, exist_ok=True)
    # The first pass in a process pays one-time costs (the first large LAPACK
    # call alone can double), so the overhead compares the traced pass with
    # the untraced pass that follows it.
    _, _, cold = run_pass(wl, inputs)
    tracer.install(inputs)
    try:
        traced_wall, _, traced = run_pass(wl, inputs)
    finally:
        tracer.uninstall()
    plain_wall, _, plain = run_pass(wl, inputs)

    # assembly probe: one operator assembly per mesh of the workload
    import katoform.operators

    assembly_s = 0.0
    for m in inputs.assembly_meshes:
        start = time.perf_counter()
        katoform.operators.bochner_laplacian(m)
        assembly_s += time.perf_counter() - start

    check_digests(args.workload, args.seed, [cold, traced, plain])
    metrics = tracer.metrics(overhead=traced_wall / plain_wall, assembly_s=assembly_s)
    finish(args, [cold, traced, plain], metrics, METRICS,
           {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "absent": tracer.absent, "spans": tracer.span_records()})
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "katoform", "__init__.py")):
        print(f"no katoform sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        seconds, _, _ = setup(args)
        print(json.dumps({"setup_s": seconds}))
        return 0
    os.makedirs(OUT, exist_ok=True)
    return run_traced(args) if args.trace else run_plain(args)


if __name__ == "__main__":
    sys.exit(main())
