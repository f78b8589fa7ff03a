"""One workload's closed loop, in a process of its own.

    python3 perfbench/worker.py PLAN.json RESULT.json

PLAN.json is written by run.py: the checkout root, the queries with their
expected answers, the run length and whether to trace.  One client sends
the next query only after the previous one has returned.  Each query is
timed alone; its answer is checked afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import gate
import reference as ref
import spans
from gen import read_ggf


def import_library(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dualgain
    import dualgain.cli  # noqa: F401

    where = os.path.realpath(dualgain.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dualgain imported from {where}, not from {src}")
    return dualgain


class Client:
    """Runs queries through the library's public entry points, looked up at
    call time so that the tracer's wrappers take effect."""

    def __init__(self, dualgain, keep_spectra):
        self.dg = dualgain
        self.keep_spectra = keep_spectra
        self.kept = {}        # (path, kind) -> last spectrum, for residuals

    def run(self, q):
        """(seconds, reason or None)."""
        dg = self.dg
        out, err = io.StringIO(), io.StringIO()
        answer = status = None
        start = time.perf_counter()
        try:
            if q["op"] == "cli":
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        status = dg.cli.run(q["argv"])
                    except SystemExit as exc:
                        status = exc.code
            elif q["op"] == "spectrum":
                answer = dg.spectra.spectrum(dg.graph_io.load(q["path"]), q["matrix"],
                                             with_vectors=True)
            else:
                answer = dg.spectra.check_interlacing(dg.graph_io.load(q["path"]),
                                                      q["subset"], q["matrix"])
        except Exception as exc:  # a failed query is counted, not fatal
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        try:
            if q["op"] == "cli":
                graph = q["argv"][1] if q["expect"]["type"] == "convert" else None
                reason = gate.check_cli(q["expect"], status, out.getvalue(), graph)
            elif q["op"] == "spectrum":
                reason = gate.check_spectrum(q["expect"], answer)
                if self.keep_spectra:
                    self.kept[(q["path"], q["matrix"])] = answer
            else:
                reason = gate.check_interlacing(q["expect"], answer)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        return seconds, reason


def closed_loop(client, queries, seconds, tracer=None):
    """Whole rounds through the queries, until `seconds` of untraced query
    time are spent: another round starts only while ending after it lands
    nearer to `seconds` than stopping now.  Whole rounds keep the mix of
    queries, and so the percentiles, the same from run to run.

    With a tracer, every query runs a second time right after, traced, so
    the two timings of each pair see the same machine state."""
    loops = {"untraced": _new_loop(), "traced": _new_loop()}
    busy = 0.0
    while True:
        round_start = busy
        for q in queries:
            busy += _record(loops["untraced"], q, client.run(q))
            if tracer is not None:
                tracer.query = len(loops["traced"]["latencies"])
                tracer.install()
                try:
                    outcome = client.run(q)
                finally:
                    tracer.uninstall()
                _record(loops["traced"], q, outcome)
        if busy + (busy - round_start) / 2.0 >= seconds:
            return loops


def _new_loop():
    return {"latencies": [], "labels": [], "failures": []}


def _record(loop, q, outcome):
    dt, reason = outcome
    loop["latencies"].append(dt)
    loop["labels"].append(q["label"])
    if reason is not None:
        where = " ".join(q.get("argv", [q.get("path", "")]))
        loop["failures"].append(f"{q['label']} {where}: {reason}")
    return dt


def warm_up(client, queries, seconds=1.0):
    """Let BLAS and lazy imports start before timing: small solves, then
    queries from the head of the round until `seconds` have passed."""
    rng = np.random.default_rng(0)
    for dtype in (float, complex):
        a = rng.normal(size=(64, 64)).astype(dtype)
        np.linalg.eigh(a + a.conj().T)
    start = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - start < seconds and i < len(queries)):
        client.run(queries[i])
        i += 1


def residuals(client, dg, plan):
    """First-order eigen-residuals on the spectra the run computed, or, when
    it computed none with vectors, on the workload's graphs with n <= 250."""
    kept = dict(client.kept)
    if not kept:
        for path in plan["paths"]:
            g = read_ggf(path)
            if g.n <= 250:
                kept[(path, "adjacency")] = dg.spectra.spectrum(
                    dg.graph_io.load(path), "adjacency", with_vectors=True)
    worst = [0.0, 0.0]
    for (path, kind), spec in kept.items():
        g = read_ggf(path)
        r = ref.eigen_residuals(ref.dense_parts(g, kind), g.ring, spec.values,
                                  spec.vectors)
        worst = [max(worst[0], r[0]), max(worst[1], r[1])]
    return worst


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    dg = import_library(plan["root"])
    # Spectra are kept for the residuals of a traced run only; holding their
    # eigenvectors would add to the peak memory an untraced run reports.
    client = Client(dg, keep_spectra=bool(plan["trace"]))
    queries = plan["queries"]
    warm_up(client, queries)
    client.kept.clear()
    result = {"blas_threads": blas_threads()}
    if not plan["trace"]:
        result["untraced"] = closed_loop(client, queries, plan["seconds"])["untraced"]
    else:
        tracer = spans.Tracer()
        result.update(closed_loop(client, queries, plan["seconds"], tracer))
        layer = tracer.metrics()
        layer["linalg.residual_std.max"], layer["linalg.residual_dual.max"] = \
            residuals(client, dg, plan)
        result["layers"] = layer
        tracer.write(plan["spans_out"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
