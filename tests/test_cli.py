import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dualgain._rings as rings
import dualgain.cli as cli_module
import dualgain.sampling as sampling
from dualgain import (SizeCapExceededError, check_interlacing, cycle_spectrum_closed_form,
                      parse_dual_scalar, path_spectrum_closed_form, serialize, spectrum)
from dualgain.cli import run
from dualgain.graph_io import complete_graph, cycle_graph, load, path_graph, save
from dualgain.spectra import radius_report


# Runs `dualgain.cli.run(argv)` in a fresh interpreter and prints its exit
# status and its peak resident size over the import baseline.  VmHWM is the
# process's own peak; ru_maxrss would also count the parent's resident size,
# inherited through fork and exec.
PEAK_SCRIPT = """
import sys
from dualgain.cli import run
def peak():
    with open('/proc/self/status') as status:
        line = next(line for line in status if line.startswith('VmHWM:'))
    return int(line.split()[1]) * 1024
base = peak()
code = run(sys.argv[1:])
print(code, peak() - base, file=sys.stderr)
"""


def start_peak_run(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.Popen([sys.executable, "-c", PEAK_SCRIPT, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def peak_over_import(proc):
    """(exit status, peak bytes over the import baseline) of a start_peak_run."""
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    status, grown = err.split()
    return int(status), int(grown)


@pytest.fixture
def triangle_file(tmp_path, dual_spectrum_triangle):
    path = tmp_path / "triangle.ggf"
    save(dual_spectrum_triangle, path)
    return str(path)


@pytest.fixture
def balanced_file(tmp_path, balanced_triangle):
    path = tmp_path / "balanced.ggf"
    save(balanced_triangle, path)
    return str(path)


@pytest.fixture
def off_unit_file(tmp_path):
    """A complex triangle with one gain 1.00001: a unit only within 1e-3."""
    edges = [{"u": u, "v": v, "gain_std": [g, 0.0], "gain_dual": [0.0, 0.0]}
             for u, v, g in ((0, 1, 1.00001), (0, 2, 1.0), (1, 2, 1.0))]
    path = tmp_path / "off_unit.ggf"
    path.write_text(json.dumps({"format": "dual-gain-graph", "version": 1,
                                "ring": "complex", "n": 3, "edges": edges}))
    return str(path)


class TestSpectrumCommand:
    def test_table_output(self, triangle_file, capsys):
        assert run(["spectrum", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "1.93185165258 + 0.172546030068·eps" in out
        assert "-1.41421356237 + 0.471404520791·eps" in out

    def test_json_round_trip(self, triangle_file, dual_spectrum_triangle, capsys):
        assert run(["spectrum", triangle_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == spectrum(dual_spectrum_triangle).to_dict()

    def test_byte_identical_reruns(self, triangle_file, capsys):
        run(["spectrum", triangle_file, "--matrix", "laplacian"])
        first = capsys.readouterr().out
        run(["spectrum", triangle_file, "--matrix", "laplacian"])
        assert capsys.readouterr().out == first


class TestBalanceCommand:
    def test_balanced(self, balanced_file, capsys):
        assert run(["balance", balanced_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("balanced")
        assert "theta[2]" in out

    def test_unbalanced_witness(self, triangle_file, capsys):
        assert run(["balance", triangle_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("unbalanced")
        assert "witness cycle" in out


class TestReportCommands:
    def test_radius_json(self, triangle_file, dual_spectrum_triangle, capsys):
        assert run(["radius", triangle_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == radius_report(dual_spectrum_triangle).to_dict()
        assert payload["bound_holds"] is True and payload["equality"] is False

    def test_interlace_default_chain(self, triangle_file, capsys):
        assert run(["interlace", triangle_file]) == 0
        assert "holds" in capsys.readouterr().out

    def test_interlace_explicit_subset(self, triangle_file, capsys):
        assert run(["interlace", triangle_file, "--keep", "0,2",
                    "--matrix", "laplacian"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_interlace_json_round_trip(self, triangle_file, dual_spectrum_triangle,
                                       capsys):
        assert run(["interlace", triangle_file, "--keep", "0,1",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = check_interlacing(dual_spectrum_triangle, [0, 1]).to_dict()
        assert payload == expected

    def test_balance_json(self, balanced_file, capsys):
        assert run(["balance", balanced_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["balanced"] is True and len(payload["theta"]) == 3

    def test_charpoly(self, balanced_file, capsys):
        assert run(["charpoly", balanced_file]) == 0
        out = capsys.readouterr().out
        assert "c_2 = -3" in out
        assert "c_3 = -2" in out

    def test_mdet(self, balanced_file, capsys):
        assert run(["mdet", balanced_file]) == 0
        out = capsys.readouterr().out
        assert out.count("(2.0") == 2


class TestClosedFormCommands:
    def test_cycle_command(self, capsys):
        code = run(["cycle", "--n", "3", "--ring", "complex",
                    "--gain", "(1.0+0.0i) + (0.0+0.0i)*eps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 + 0·eps" in out and "-1 + 0·eps" in out

    def test_path_command(self, capsys):
        assert run(["path", "--n", "3", "--matrix", "laplacian"]) == 0
        out = capsys.readouterr().out
        assert "3 + 0·eps" in out and "1 + 0·eps" in out and "0 + 0·eps" in out

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident size from /proc/self/status")
    @pytest.mark.parametrize("argv", [
        pytest.param(["path", "--format", "json", "--n", "{n}"], id="path"),
        pytest.param(["cycle", "--gain", "(0+1i)+(0.5+0i)*eps", "--format", "json",
                      "--n", "{n}"], id="cycle"),
        pytest.param(["generate", "path", "--ring", "quaternion", "--n", "{n}"],
                     id="generate-path"),
        pytest.param(["generate", "cycle", "--ring", "quaternion", "--gain",
                      "(0+1i+0j+0k)+(0.5+0i+0j+0k)*eps", "--n", "{n}"], id="generate-cycle"),
        pytest.param(["balance", "{file}", "--format", "json"], id="balance"),
    ])
    def test_peak_per_vertex_within_the_size_guard(self, argv, tmp_path):
        # the vertex guard admits n vertices while rings._VERTEX_BYTES * n
        # fits in physical memory, so the peak over the import baseline of a
        # closed form, a graph written out or a graph pass over an edgeless
        # file must stay below that figure per vertex
        n = 50_000
        edgeless = tmp_path / "edgeless.ggf"
        edgeless.write_text(json.dumps({"format": "dual-gain-graph", "version": 1,
                                        "ring": "quaternion", "n": n, "edges": []}))
        argv = [a.format(n=n, file=edgeless) for a in argv]
        status, grown = peak_over_import(start_peak_run(argv))
        assert status == 0
        assert grown / n <= rings._VERTEX_BYTES


class TestGenerateConvert:
    def test_generate_then_read(self, tmp_path, capsys):
        out_file = tmp_path / "c5.ggf"
        assert run(["generate", "cycle", "--n", "5", "--ring", "real",
                    "--gain", "(-1.0)", "--out", str(out_file)]) == 0
        assert run(["spectrum", str(out_file)]) == 0
        assert "·eps" in capsys.readouterr().out

    def test_generate_random_deterministic(self, capsys):
        assert run(["generate", "random", "--n", "5", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert run(["generate", "random", "--n", "5", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_convert_widens_ring(self, tmp_path, balanced_file, capsys):
        out_file = tmp_path / "widened.ggf"
        assert run(["convert", balanced_file, "--ring", "quaternion",
                    "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert '"ring": "quaternion"' in text
        assert run(["convert", str(out_file), "--ring", "complex"]) == 2

    def test_convert_is_canonical_identity(self, triangle_file, capsys):
        assert run(["convert", triangle_file]) == 0
        out = capsys.readouterr().out
        assert out == open(triangle_file).read()

    def test_refused_random_graph_draws_no_gain(self, monkeypatch, capsys):
        # with p = 1 the n = 100 graph has 4,950 edges; physical memory one
        # byte short of their documents admits the dense and vertex guards
        # and refuses the edges, which must happen before a gain is drawn
        n, m = 100, 4950
        monkeypatch.setattr(rings, "_physical_memory", lambda: rings._EDGE_BYTES * m - 1)
        drawn = []

        def refuse(*args):
            drawn.append(args)
            raise AssertionError("a gain was drawn")

        monkeypatch.setattr(sampling, "_random_unit_gains", refuse)
        for ring in ("real", "complex", "quaternion"):
            assert run(["generate", "random", "--n", str(n), "--p", "1", "--ring", ring]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith(f"error: a graph file of m={m} edges")
        assert drawn == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident size from /proc/self/status")
    def test_generate_complete_peak_per_edge_within_the_edge_guard(self):
        # the edge guard admits a document of m edge records while
        # rings._EDGE_BYTES * m fits in physical memory; the complete graph
        # has the most edges per vertex, so its peak bounds that figure.
        # The three rings run at once.
        n = 1000
        runs = [start_peak_run(["generate", "complete", "--ring", ring, "--n", str(n)])
                for ring in ("real", "complex", "quaternion")]
        for proc in runs:
            status, grown = peak_over_import(proc)
            assert status == 0
            assert grown / (n * (n - 1) // 2) <= rings._EDGE_BYTES


class TestLoadTolerance:
    @pytest.mark.parametrize("argv", [["spectrum"], ["balance"], ["radius"],
                                      ["interlace", "--keep", "0,1"],
                                      ["convert", "--ring", "quaternion"]])
    def test_every_command_keeps_the_loaded_tolerance(self, off_unit_file, argv, capsys):
        assert run([argv[0], off_unit_file, "--tol", "1e-3", *argv[1:]]) == 0
        assert capsys.readouterr().err == ""
        assert run([argv[0], off_unit_file, *argv[1:]]) == 2

    def test_radius_flags_follow_the_tolerance(self, off_unit_file, capsys):
        assert run(["radius", off_unit_file, "--tol", "1e-3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["balanced"] is True and payload["antibalanced"] is False


class TestCheckCommand:
    @pytest.mark.parametrize("suite", ["interlacing", "switching-invariance",
                                       "radius-bounds", "mdet-product",
                                       "coefficient", "dq2dc", "closed-forms"])
    def test_suites_pass(self, suite, capsys):
        assert run(["check", suite, "--trials", "8", "--seed", "1"]) == 0
        assert "8/8 trials passed" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert run(["check", "dq2dc", "--trials", "5", "--seed", "2",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"suite": "dq2dc", "trials": 5, "passes": 5, "failures": 0}

    def test_same_seed_byte_identical(self, capsys):
        run(["check", "mdet-product", "--trials", "4", "--seed", "3"])
        first = capsys.readouterr().out
        run(["check", "mdet-product", "--trials", "4", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_violation_exits_one_with_counterexample(self, monkeypatch, capsys,
                                                     balanced_triangle):
        import dualgain.cli as cli_mod
        from dualgain import parse

        def rigged(trials, seed):
            return 2, balanced_triangle, "synthetic violation"

        monkeypatch.setitem(cli_mod._SUITES, "interlacing", rigged)
        assert run(["check", "interlacing", "--trials", "10", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAILED at trial 2" in out and "synthetic violation" in out
        # the counterexample is a replayable document
        doc = out.split("counterexample:\n", 1)[1]
        assert parse(doc).graph == balanced_triangle.graph


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert run(["spectrum", "/nonexistent/file.ggf"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ggf"
        bad.write_text("{not json")
        assert run(["spectrum", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_gain_text(self, capsys):
        assert run(["cycle", "--n", "3", "--gain", "garbage"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_non_positive_trials(self, trials, capsys):
        assert run(["check", "dq2dc", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"format": "dual-gain-graph", "version": 1, "ring": "real", "n": 2.7, "edges": []}',
        '{"format": "dual-gain-graph", "version": 1, "ring": "real", "n": 1e400, "edges": []}',
        '{"format": "dual-gain-graph", "version": 1, "ring": "real", "n": 2, "edges": '
        '[{"u": 0.5, "v": 1, "gain_std": [1.0], "gain_dual": [0.0]}]}',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["fractional-n", "overflowing-n", "fractional-vertex", "deep-nesting"])
    def test_hostile_documents_exit_two(self, tmp_path, text, capsys):
        bad = tmp_path / "bad.ggf"
        bad.write_text(text)
        assert run(["spectrum", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["spectrum", "radius"])
    def test_dense_size_refused_before_allocation(self, tmp_path, command, capsys):
        big = tmp_path / "big.ggf"
        big.write_text('{"format": "dual-gain-graph", "version": 1, "ring": "quaternion", '
                       '"n": 1000000, "edges": []}')
        tracemalloc.start()
        try:
            code = run([command, str(big)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 10 * 2**20
        err = capsys.readouterr().err
        assert err.startswith("error:") and "physical memory" in err

    @pytest.mark.parametrize("argv", [["balance"], ["interlace", "--drop", "0"],
                                      ["spectrum"], ["radius"], ["convert"]],
                             ids=lambda argv: argv[0])
    def test_vertex_count_refused_before_any_graph_pass(self, tmp_path, argv, capsys):
        huge = tmp_path / "huge.ggf"
        huge.write_text('{"format": "dual-gain-graph", "version": 1, "ring": "real", '
                        '"n": 1000000000000000000000000000000, "edges": []}')
        # loading refuses it, so no subcommand reaches a loop over the vertices
        with pytest.raises(SizeCapExceededError, match="physical memory"):
            load(huge)
        start = time.perf_counter()
        code = run([argv[0], str(huge), *argv[1:]])
        assert code == 2 and time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["cycle", "--ring", "real", "--gain", "(1)+(0)*eps"],
                                      ["path"], ["path", "--matrix", "laplacian"]],
                             ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
    def test_closed_form_vertex_count_refused(self, argv, capsys):
        # the closed forms build one eigenvalue per vertex: refused up front
        start = time.perf_counter()
        code = run([*argv, "--n", str(10**30)])
        assert code == 2 and time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "physical memory" in captured.err

    @pytest.mark.parametrize("family", ["complete", "random"])
    def test_dense_family_refused_before_any_edge(self, family, monkeypatch, capsys):
        # both families have O(n^2) vertex pairs; nothing may reach them
        def never(*args, **kwargs):
            raise AssertionError("edges built for a refused size")

        monkeypatch.setattr(np, "triu_indices", never)
        monkeypatch.setattr(np.random, "default_rng", never)
        assert run(["generate", family, "--n", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "n=100000" in captured.err and "physical memory" in captured.err

    def test_complete_document_refused_beyond_physical_memory(self, monkeypatch, capsys):
        # 64 MiB admits the dense working set of K_400 (51 MB) but not its
        # 79,800 edge records at rings._EDGE_BYTES each
        monkeypatch.setattr(rings, "_physical_memory", lambda: 64 * 2**20)
        assert run(["generate", "complete", "--n", "400", "--ring", "quaternion"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "m=79800" in captured.err and "physical memory" in captured.err

    def test_convert_and_save_refused_beyond_physical_memory(self, tmp_path, monkeypatch,
                                                             capsys):
        source, target = tmp_path / "k60.ggf", tmp_path / "kept.ggf"
        save(complete_graph(60, "real"), source)
        target.write_text("kept")
        monkeypatch.setattr(rings, "_physical_memory", lambda: 2 * 2**20)
        assert run(["convert", str(source), "--ring", "quaternion"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "m=1770" in captured.err
        with pytest.raises(SizeCapExceededError):
            save(load(str(source)), target)
        assert target.read_text() == "kept"

    @pytest.mark.parametrize("flags", [["--keep", "0,999"], ["--keep=-1,2"], ["--drop", "99"],
                                       ["--drop=-1"]])
    def test_interlace_vertices_outside_the_graph(self, triangle_file, flags, capsys):
        assert run(["interlace", triangle_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "out of range for n=3" in captured.err

    def test_interlace_keep_and_drop_are_exclusive(self, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["interlace", triangle_file, "--keep", "0,1", "--drop", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--drop: not allowed with argument --keep" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
    @pytest.mark.parametrize("command", ["spectrum", "balance", "radius", "interlace"])
    def test_nan_or_negative_tolerance(self, triangle_file, command, tol, capsys):
        assert run([command, triangle_file, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "tolerance" in captured.err and "not a unit" not in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
    def test_cycle_nan_or_negative_tolerance(self, tol, capsys):
        assert run(["cycle", "--n", "4", "--gain", "(0+1i) + (0+0i)*eps",
                    f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "tolerance" in captured.err and "not a unit" not in captured.err

    @pytest.mark.parametrize("argv", [["check", "switching-invariance"], ["path", "--n", "4"]])
    def test_tol_refused_where_unused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol 1e-3" in captured.err

    def test_unexpected_failure_exits_two_without_traceback(self, triangle_file, monkeypatch,
                                                            capsys):
        def broken(args):
            raise RuntimeError("synthetic\nfault")

        monkeypatch.setitem(cli_module._HANDLERS, "spectrum", broken)
        assert run(["spectrum", triangle_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal RuntimeError: synthetic fault\n"

    def test_output_file(self, tmp_path, triangle_file):
        out_file = tmp_path / "spec.json"
        assert run(["spectrum", triangle_file, "--format", "json",
                    "--out", str(out_file)]) == 0
        json.loads(out_file.read_text())


CYCLE_GAIN = "(0+1i)+(0.5+0i)*eps"


def json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def both_destinations(argv, tmp_path, capsys):
    """The text one query prints to stdout and the text it writes to --out."""
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out_file = tmp_path / "answer.txt"
    assert run([*argv, "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    return printed, out_file.read_text(encoding="utf-8")


class TestOutputPath:
    @pytest.mark.parametrize("name", ["spectrum", "spectrum-laplacian", "radius", "interlace",
                                      "cycle", "path-longer-than-a-chunk"])
    def test_json_answer_is_its_dict_dumped(self, name, triangle_file, dual_spectrum_triangle,
                                            tmp_path, capsys):
        phi = dual_spectrum_triangle
        argv, payload = {
            "spectrum": (["spectrum", triangle_file],
                         lambda: spectrum(phi, with_vectors=False).to_dict()),
            "spectrum-laplacian": (["spectrum", triangle_file, "--matrix", "laplacian"],
                                   lambda: spectrum(phi, "laplacian").to_dict()),
            "radius": (["radius", triangle_file], lambda: radius_report(phi).to_dict()),
            "interlace": (["interlace", triangle_file, "--keep", "0,2"],
                          lambda: check_interlacing(phi, [0, 2]).to_dict()),
            "cycle": (["cycle", "--n", "7", "--gain", CYCLE_GAIN],
                      lambda: cycle_spectrum_closed_form(
                          7, parse_dual_scalar(CYCLE_GAIN, "complex")).to_dict()),
            "path-longer-than-a-chunk": (["path", "--n", "5000"],
                                         lambda: path_spectrum_closed_form(5000).to_dict()),
        }[name]
        expected = json_text(payload())
        assert both_destinations([*argv, "--format", "json"], tmp_path, capsys) == (expected,
                                                                                     expected)

    @pytest.mark.parametrize("argv", [["balance"], ["charpoly"], ["mdet"]])
    def test_payload_answers_are_indented_json(self, argv, balanced_file, tmp_path, capsys):
        printed, written = both_destinations([argv[0], balanced_file, "--format", "json"],
                                             tmp_path, capsys)
        assert printed == written == json_text(json.loads(printed))

    def test_check_payload_bytes(self, tmp_path, capsys):
        printed, written = both_destinations(["check", "dq2dc", "--trials", "3", "--format",
                                              "json"], tmp_path, capsys)
        assert printed == written == json_text({"suite": "dq2dc", "trials": 3, "passes": 3,
                                                "failures": 0})

    def test_empty_graph(self, tmp_path, capsys):
        empty = tmp_path / "empty.ggf"
        empty.write_text('{"format": "dual-gain-graph", "version": 1, "ring": "complex", '
                         '"n": 0, "edges": []}')
        printed, _ = both_destinations(["spectrum", str(empty), "--format", "json"],
                                       tmp_path, capsys)
        assert printed == json_text({"kind": "adjacency", "values": []})
        assert '"values": []' in printed
        printed, _ = both_destinations(["convert", str(empty)], tmp_path, capsys)
        assert printed == serialize(load(empty)) and '"edges": []' in printed

    @pytest.mark.parametrize("ring", ["real", "quaternion"])
    def test_generated_graphs_are_serialized(self, ring, tmp_path, capsys):
        # 3,000 edges are far more tokens than one write chunk
        printed, written = both_destinations(["generate", "path", "--n", "3000", "--ring", ring],
                                             tmp_path, capsys)
        assert printed == written == serialize(path_graph(3000, ring))
        gain = "(-1)+(0)*eps" if ring == "real" else "(0+1i+0j+0k)+(0.5+0i+0j+0k)*eps"
        printed, written = both_destinations(["generate", "cycle", "--n", "4", "--ring", ring,
                                              "--gain", gain], tmp_path, capsys)
        assert printed == written == serialize(cycle_graph(4, parse_dual_scalar(gain, ring)))

    def test_converted_graphs_are_serialized(self, triangle_file, tmp_path, capsys):
        printed, written = both_destinations(["convert", triangle_file, "--ring", "quaternion"],
                                             tmp_path, capsys)
        assert printed == written == serialize(load(tmp_path / "answer.txt"))
        assert '"ring": "quaternion"' in printed

    def test_json_builds_no_table(self, triangle_file, monkeypatch, capsys):
        def no_table(value):
            raise AssertionError("table line formatted for JSON output")

        monkeypatch.setattr(cli_module, "_fmt_dual", no_table)
        for argv in (["spectrum", triangle_file], ["cycle", "--n", "5", "--gain", CYCLE_GAIN],
                     ["path", "--n", "5"], ["interlace", triangle_file],
                     ["radius", triangle_file], ["charpoly", triangle_file]):
            assert run([*argv, "--format", "json"]) == 0, argv
            json.loads(capsys.readouterr().out)
        # the table is where it is used
        assert run(["path", "--n", "5"]) == 2
        assert "table line formatted" in capsys.readouterr().err


def every_subcommand(graph_file):
    """One small valid argv per subcommand."""
    return [
        ["spectrum", graph_file],
        ["balance", graph_file, "--format", "json"],
        ["radius", graph_file, "--matrix", "laplacian"],
        ["interlace", graph_file, "--drop", "1"],
        ["charpoly", graph_file, "--format", "json"],
        ["mdet", graph_file],
        ["cycle", "--n", "5", "--ring", "quaternion",
         "--gain", "(0.0+1.0i+0.0j+0.0k) + (0.0+0.0i+0.5j+0.0k)*eps"],
        ["path", "--n", "4", "--format", "json"],
        ["check", "closed-forms", "--trials", "2", "--seed", "5"],
        ["generate", "random", "--n", "6", "--ring", "quaternion", "--seed", "3"],
        ["convert", graph_file, "--ring", "quaternion"],
    ]


@pytest.fixture
def parser_builds(monkeypatch):
    """One entry per build_parser call from here on, starting from an empty
    parser cache."""
    builds = []
    original = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: builds.append(1) or original())
    cli_module._parser.cache_clear()
    yield builds
    cli_module._parser.cache_clear()


class TestParserReuse:
    def test_one_build_for_many_calls(self, triangle_file, parser_builds, capsys):
        argvs = every_subcommand(triangle_file)
        assert [argv[0] for argv in argvs] == list(cli_module._HANDLERS)
        for i in range(50):
            assert run(argvs[i % len(argvs)]) == 0
        capsys.readouterr()
        assert len(parser_builds) == 1

    def test_nothing_leaks_between_calls(self, triangle_file, parser_builds, capsys):
        assert run(["interlace", triangle_file, "--keep", "0,2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["subset"] == [0, 2]
        assert run(["interlace", triangle_file, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["subset"] == [0, 1]     # default chain
        args = cli_module._parser().parse_args(["interlace", triangle_file])
        assert args.keep is None and args.drop is None and args.matrix == "adjacency"
        assert run(["spectrum", triangle_file, "--format", "json", "--matrix", "laplacian"]) == 0
        json.loads(capsys.readouterr().out)
        assert run(["spectrum", triangle_file]) == 0
        assert capsys.readouterr().out.startswith("adjacency spectrum (3 eigenvalues")
        assert len(parser_builds) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["radius", "--help"]])
    def test_help_twice(self, argv, parser_builds, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: dualgain")
        assert len(parser_builds) == 1

    @pytest.mark.parametrize("argv", [["spectrum"], ["path", "--n", "four"], ["frobnicate"]])
    def test_usage_error_twice(self, argv, parser_builds, capsys):
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("error:") == 1
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert len(parser_builds) == 1

    def test_cached_output_equals_a_fresh_parser(self, triangle_file, monkeypatch, capsys):
        argvs = every_subcommand(triangle_file)
        outputs = []
        # the cached parser first, then a fresh build_parser() per call
        for parser in (cli_module._parser, cli_module.build_parser):
            monkeypatch.setattr(cli_module, "_parser", parser)
            texts = []
            for argv in argvs:
                assert run(argv) == 0
                texts.append(capsys.readouterr().out.encode())
            outputs.append(texts)
        assert outputs[0] == outputs[1]
