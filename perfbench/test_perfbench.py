"""The benchmark's own tests.

    python3 -m pytest perfbench

They check that inputs are deterministic and valid, that the gate rejects a
wrong answer, and that a run prints every metric BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dualgain.cli  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Every metric the benchmark was asked for, by the name it was asked under.
REQUESTED = {
    "end_to_end": ["throughput_qps", "query_s.p50", "query_s.tail", "setup_s",
                   "peak_rss_mb", "failed_ratio"],
    "per_layer": [
        "cli.self_s", "graph_io.parse.self_s", "graph_io.serialize.self_s",
        "gain_graph.validate.self_s", "gain_graph.validate.calls",
        "gain_graph.balance.self_s", "gain_graph.neighbors.calls",
        "gain_graph.has_edge.calls", "scalars.mul.calls", "transcendental.self_s",
        "spectra.assemble.self_s", "spectra.underlying_radius.self_s", "spectra.self_s",
        "linalg.eigdec.self_s", "linalg.eigdec.calls", "linalg.eigdec.order_sum",
        "linalg.mdet.self_s", "linalg.residual_std.max", "linalg.residual_dual.max",
        "_rings.eigh.self_s", "_rings.eigh.calls", "_rings.matmul.calls",
        "_rings.matmul.self_s", "_rings.matmul.gflop_computed",
        "char_poly.enumerate.self_s", "char_poly.basic_subgraphs",
        "char_poly.cycles_useful_ratio", "char_poly.real_gain_useful_ratio",
        "sampling.self_s"] + [f"cli.{s}.p50_s" for s in run.SUBCOMMANDS],
}


def _build(workload, seed, tmp_path):
    out = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    return workloads.build(workload, seed, str(out))


@pytest.mark.parametrize("workload", ["small-cli", "exact-poly"])
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a, b, c = (_build(workload, s, tmp_path) for s in (5, 5, 6))
    texts = [[Path(p).read_text() for p in x.paths] for x in (a, b, c)]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    assert [q["argv"][1:] for q in a.queries if q["argv"][0] == "check"] == \
        [q["argv"][1:] for q in b.queries if q["argv"][0] == "check"]


def test_gains_pass_library_validation_and_verdicts_hold(tmp_path):
    b = _build("small-cli", 3, tmp_path)
    for g, path in zip(b.graphs, b.paths):
        phi = dualgain.graph_io.load(path)          # raises on a non-unit gain
        assert phi.n == g.n and phi.graph.m == g.m
        assert phi.is_balanced() is g.balanced
        assert phi.is_antibalanced() is g.antibalanced


def _answer(q):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = dualgain.cli.run(q["argv"])
    return status, out.getvalue()


def _first(b, sub, predicate=lambda q: True):
    return next(q for q in b.queries if q["argv"][0] == sub and predicate(q))


def test_gate_accepts_the_library_and_rejects_perturbed_answers(tmp_path):
    b = _build("small-cli", 4, tmp_path)
    q = _first(b, "spectrum", lambda q: np.abs(q["expect"]["dual"]).max() > 0.1)
    status, text = _answer(q)
    assert gate.check_cli(q["expect"], status, text) is None
    doc = json.loads(text)
    k = int(np.argmax([abs(v["dual"]) for v in doc["values"]]))
    doc["values"][k]["dual"] = -doc["values"][k]["dual"]
    assert gate.check_cli(q["expect"], status, json.dumps(doc)) is not None
    assert gate.check_cli(q["expect"], 2, text) is not None

    q = _first(b, "balance")
    status, text = _answer(q)
    assert gate.check_cli(q["expect"], status, text) is None
    doc = json.loads(text)
    doc["balanced"] = not doc["balanced"]
    assert gate.check_cli(q["expect"], status, json.dumps(doc)) is not None


def test_gate_rejects_a_flipped_mdet_dual_part(tmp_path):
    b = _build("exact-poly", 1, tmp_path)
    q = _first(b, "mdet", lambda q: "-7.ggf" in q["argv"][1]
               and abs(q["expect"]["dual"]) > 0.1)
    status, text = _answer(q)
    assert gate.check_cli(q["expect"], status, text) is None
    doc = json.loads(text)
    doc["via_subgraphs"]["dual"][0] = -doc["via_subgraphs"]["dual"][0]
    assert gate.check_cli(q["expect"], status, json.dumps(doc)) is not None


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90, 10)
    assert run.tail([1.0] * 5)[1] == 100


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc


def _run(trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", "small-cli",
                           "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_requested_metric_is_printed_or_renamed(trace, section):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name in REQUESTED[section]:
        assert name in printed or name in run.RENAMED, name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench_out")
