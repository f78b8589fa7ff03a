"""Benchmark of the dualgain pipeline, driven from outside the library.

    python3 perfbench/run.py --workload small-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates its inputs from the
seed, measures how long fresh interpreters take to import `dualgain` and its
CLI, then starts a worker process that runs the workload's queries in a
closed loop (one client) and checks every answer against a numpy reference.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
every query twice in a row, untraced then traced, and prints the per-layer
metrics, the tracing overhead and where the spans were saved.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread settings)

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 7
DEADLINE_S = 170
SUBCOMMANDS = ("spectrum", "balance", "radius", "interlace", "convert", "cycle", "path",
               "check", "charpoly", "mdet")

# Requested metrics reported under another name, and why.
RENAMED = {
    "failed_ratio": "reported as correct_ratio = 1 - failed_ratio, because a benchmark "
                    "metric may not read 0; the failed and attempted counts are printed "
                    "beside it",
    **{f"_rings.{m}": f"reported as rings.{m}: a metric name starts with a letter or digit"
       for m in ("eigh.self_s", "eigh.calls", "matmul.calls", "matmul.self_s",
                 "matmul.gflop_computed")},
}

# Which end-to-end metric, on which workload, each layer metric should move
# (longest matching prefix wins).
LAYER_TARGETS = {
    "cli.": "throughput_qps on small-cli",
    "graph_io.": "throughput_qps on small-cli; setup_s, query_s.p50 on large-radius",
    "gain_graph.": "throughput_qps on small-cli and large-radius",
    "scalars.": "query_s.p50 on exact-poly",
    "quaternion.": "query_s.p50 on exact-poly",
    "transcendental.": "throughput_qps on small-cli (closed forms)",
    "spectra.": "throughput_qps on small-cli and large-radius",
    "linalg.eigdec.": "throughput_qps on dense-spectra and large-radius; floor "
                      "rings.eigh.self_s",
    "linalg.mdet.": "query_s.p50 on exact-poly",
    "linalg.residual_": "accuracy guard on dense-spectra; moves no speed metric",
    "rings.": "throughput_qps on dense-spectra",
    "char_poly.": "query_s.p50 on exact-poly",
    "sampling.": "throughput_qps on small-cli (check suites)",
    "trace.": "tracing overhead: traced against untraced throughput_qps",
}


def layer_target(name):
    return LAYER_TARGETS[max((p for p in LAYER_TARGETS if name.startswith(p)), key=len)]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env):
    """Seconds from spawning a fresh interpreter until `dualgain` and
    `dualgain.cli` are imported, one spawn per sample after one unmeasured
    spawn that fills the bytecode cache.  No subprocess timeout here: waiting
    with one polls in steps of up to 50 ms, which would show in the samples;
    the run's own deadline bounds it instead."""
    argv = [sys.executable, "-c", "import dualgain, dualgain.cli"]
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        if i:
            samples.append(time.perf_counter() - start)
    return samples


def tail(latencies):
    """(value, percentile, samples beyond it): the highest whole percentile
    with at least ten samples above it, by nearest rank."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100, 0
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return s[rank - 1], p, n - rank


def environment(seed, workload, blas_reported):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads_requested": BLAS_THREADS, "blas_threads_reported": blas_reported,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def end_to_end(loop, setup, peak_rss):
    lat = loop["latencies"]
    attempted = len(lat)
    failed = len(loop["failures"])
    value, pct, beyond = tail(lat)
    metrics = {
        "throughput_qps": ((attempted - failed) / sum(lat), "1/s"),
        "query_s.p50": (statistics.median(lat), "s"),
        "query_s.tail": (value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "correct_ratio": ((attempted - failed) / attempted, "1"),
    }
    notes = {"query_s.tail": f"p{pct}, {attempted} samples, {beyond} beyond it",
             "setup_s": f"median of {len(setup)} spawns",
             "correct_ratio": f"failed_ratio {failed / attempted:.6g} "
                              f"({failed} of {attempted})"}
    return metrics, notes


def per_layer(result):
    untraced, traced = result["untraced"], result["traced"]
    by_sub = defaultdict(list)
    for label, dt in zip(untraced["labels"], untraced["latencies"]):
        if label.startswith("cli."):
            by_sub[label[4:]].append(dt)
    metrics = {name: (value, _unit(name)) for name, value in result["layers"].items()}
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_s"] = (statistics.median(by_sub[sub]) if by_sub[sub]
                                       else 0.0, "s")
    qps = {}
    for name, loop in (("untraced", untraced), ("traced", traced)):
        ok = len(loop["latencies"]) - len(loop["failures"])
        qps[name] = ok / sum(loop["latencies"])
        metrics[f"trace.throughput_qps_{name}"] = (qps[name], "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (qps["untraced"] / qps["traced"] - 1.0), "%")
    absent = sorted(f"cli.{s}.p50_s" for s in SUBCOMMANDS if not by_sub[s])
    notes = {"cli.*.p50_s": "from the untraced runs; 0 where the workload runs no "
                            "such subcommand: " + (", ".join(absent) or "none"),
             "*.self_s": "summed over the traced runs"}
    return metrics, notes


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("ratio"):
        return "1"
    if name.endswith(".max"):
        return "abs"
    return "count"


def _deadline(signum, frame):
    # subprocess.run kills and reaps a running child when this propagates
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualgain" / "__init__.py").is_file():
        print(f"error: no dualgain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    out_root = ROOT / ".perfbench_out"
    run_dir = out_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        builder = workloads.build(args.workload, args.seed, str(run_dir))
        shares = workloads.input_shares(builder)
        env = child_env()
        setup = measure_setup(env)
        plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
        spans_out = out_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"root": str(ROOT), "seconds": args.seconds, "trace": args.trace,
                       "queries": builder.queries, "paths": builder.paths,
                       "spans_out": str(spans_out)}, fh)
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                               str(result_path)], env=env, cwd=ROOT)
        if proc.returncode != 0:
            print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("env " + json.dumps(environment(args.seed, args.workload, result["blas_threads"])))
    print("inputs " + json.dumps(shares))
    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    failures = [f for loop in loops for f in loop["failures"]]
    attempted = sum(len(loop["latencies"]) for loop in loops)
    for line in failures[:10]:
        print("FAILED " + line)
    if args.trace:
        metrics, notes = per_layer(result)
        print(f"spans written to {spans_out.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(result["untraced"], setup, result["peak_rss_mb"])
    for name, (value, unit) in metrics.items():
        note = notes.get(name) or (layer_target(name) if args.trace else None)
        print(f"{name:36s} {value:<12.6g} {unit:6s}" + (f"  {note}" if note else ""))
    for key, note in notes.items():
        if key not in metrics:
            print(f"{key}: {note}")
    for name, why in RENAMED.items():
        if (name == "failed_ratio") != bool(args.trace):
            print(f"renamed {name}: {why}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
