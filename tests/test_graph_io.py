import json
import math

import numpy as np
import pytest

from dualgain import (
    BadParameterError,
    BadRingError,
    DualScalar,
    GainGraph,
    GraphSyntaxError,
    NotUnitGainError,
    Quaternion,
    RINGS,
    UnderlyingGraph,
    generate,
    parse,
    serialize,
)
from dualgain import graph_io
from dualgain.graph_io import cycle_graph, load, path_graph, random_graph, save
from dualgain.sampling import random_connected_graph, random_gain_graph, random_unit_scalar


def graphs_equal(a, b):
    if a.ring != b.ring or a.graph != b.graph:
        return False
    return all(b.gain(u, v) == g for u, v, g in a.gains())


class TestRoundTrip:
    @pytest.mark.parametrize("ring", RINGS)
    def test_exact_round_trip(self, ring):
        rng = np.random.default_rng(1)
        for _ in range(35):
            n = int(rng.integers(2, 9))
            phi = random_gain_graph(
                rng, random_connected_graph(rng, n, int(rng.integers(0, 4))), ring)
            assert graphs_equal(parse(serialize(phi)), phi)

    def test_file_round_trip(self, tmp_path, dual_spectrum_triangle):
        path = tmp_path / "t.ggf"
        save(dual_spectrum_triangle, path)
        assert graphs_equal(load(path), dual_spectrum_triangle)

    def test_serialization_is_stable(self, dual_spectrum_triangle):
        assert serialize(dual_spectrum_triangle) == serialize(dual_spectrum_triangle)

    @pytest.mark.parametrize("ring", RINGS)
    def test_edgeless_round_trip(self, ring):
        phi = path_graph(1, ring)
        assert '"edges": []' in serialize(phi)
        assert graphs_equal(parse(serialize(phi)), phi)

    def test_save_writes_the_serialized_text(self, tmp_path):
        phi = path_graph(3000, "quaternion")
        save(phi, tmp_path / "p.ggf")
        assert (tmp_path / "p.ggf").read_text() == serialize(phi)
        assert serialize(phi) == json.dumps(graph_io._document(phi), indent=2) + "\n"


class TestJsonWriter:
    @pytest.mark.parametrize("doc", [
        [], {}, {"values": []}, {"a": [[], {}, [1, [2.5, None]]], "b": "x\u00b7\"y\""},
        {"tiny": 5e-324, "huge": -1e300, "nan": float("nan"), "inf": float("inf")},
        [True, False, None, 0, -0.0, 2**70],
    ], ids=["empty-list", "empty-dict", "empty-values", "nested", "floats", "scalars"])
    def test_bytes_equal_json_dumps(self, doc):
        parts = []
        graph_io._write_json(doc, parts.append)
        assert "".join(parts) == json.dumps(doc, indent=2) + "\n"

    def test_writes_a_chunk_of_tokens_at_a_time(self):
        doc = {"values": [{"std": i / 7, "dual": -i / 3} for i in range(20_000)]}
        tokens = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc))
        assert tokens > 10 * graph_io._CHUNK_TOKENS
        parts = []
        graph_io._write_json(doc, parts.append)
        assert "".join(parts) == json.dumps(doc, indent=2) + "\n"
        # the chunks, then the closing newline
        assert len(parts) == -(-tokens // graph_io._CHUNK_TOKENS) + 1


class TestParseErrors:
    def test_non_unit_gain(self):
        text = serialize(path_graph(2, "real")).replace(
            '"gain_dual": [\n        0.0\n      ]', '"gain_dual": [\n        1.0\n      ]')
        with pytest.raises(NotUnitGainError):
            parse(text)

    def test_truncated_document(self):
        text = serialize(path_graph(3, "complex"))
        with pytest.raises(GraphSyntaxError):
            parse(text[: len(text) // 2])

    def test_bad_ring(self):
        text = serialize(path_graph(2, "real")).replace('"real"', '"octonion"')
        with pytest.raises(BadRingError):
            parse(text)

    def test_wrong_component_count(self):
        text = serialize(path_graph(2, "complex")).replace('"ring": "complex"',
                                                           '"ring": "quaternion"')
        with pytest.raises(GraphSyntaxError):
            parse(text)

    def test_wrong_format_or_version(self):
        with pytest.raises(GraphSyntaxError):
            parse('{"format": "something-else"}')
        text = serialize(path_graph(2, "real")).replace('"version": 1', '"version": 99')
        with pytest.raises(GraphSyntaxError):
            parse(text)


    @pytest.mark.parametrize("value", ["2.7", "2.0", "1e400", '"3"', "true"])
    def test_vertex_count_must_be_an_integer(self, value):
        text = serialize(path_graph(2, "real")).replace('"n": 2', f'"n": {value}')
        with pytest.raises(GraphSyntaxError, match="must be an integer"):
            parse(text)

    def test_deep_nesting(self):
        with pytest.raises(GraphSyntaxError, match="nested too deeply"):
            parse("[" * 100_000 + "]" * 100_000)


class TestGenerate:
    def test_cycle_family(self):
        q = DualScalar.complex(1j, 0.5)
        phi = generate("cycle", n=5, gain=q)
        assert phi.graph.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert phi.gain_of_walk([0, 1, 2, 3, 4, 0]).allclose(q, 1e-15)

    def test_neutral_triangle_cycle(self):
        phi = generate("cycle", n=3, gain=DualScalar.one("complex"))
        assert phi.graph.edges == ((0, 1), (0, 2), (1, 2))
        assert all(g == DualScalar.one("complex") for _, _, g in phi.gains())

    def test_path_family(self):
        phi = generate("path", n=4, ring="real")
        assert phi.graph.edges == ((0, 1), (1, 2), (2, 3))
        assert all(g == DualScalar.one("real") for _, _, g in phi.gains())

    def test_complete_family(self):
        phi = generate("complete", n=4, ring="quaternion")
        assert phi.graph.m == 6
        assert phi.is_balanced()

    def test_random_determinism(self):
        a = generate("random", n=6, p=0.5, seed=42, ring="complex")
        b = generate("random", n=6, p=0.5, seed=42, ring="complex")
        assert graphs_equal(a, b)
        c = generate("random", n=6, p=0.5, seed=43, ring="complex")
        assert not graphs_equal(a, c)

    @pytest.mark.parametrize("ring", RINGS)
    def test_random_gains_are_units(self, ring):
        phi = random_graph(8, 0.6, 7, ring)
        for _, _, g in phi.gains():
            assert g.is_unit(1e-12)

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            generate("cycle", n=2, gain=DualScalar.one("real"))
        with pytest.raises(BadParameterError):
            generate("random", n=4, p=1.5, seed=0)
        with pytest.raises(BadParameterError):
            generate("moebius", n=4)


def oracle_unit_scalar(rng, ring):
    """One random unit gain by the scalar formula: a sign; e^(i theta_s) with
    dual part i theta_d e^(i theta_s); a unit quaternion with a raw dual part
    projected against it."""
    if ring == "real":
        return DualScalar.real(1.0 if rng.random() < 0.5 else -1.0, 0.0)
    if ring == "complex":
        theta_s = rng.uniform(-math.pi, math.pi)
        theta_d = rng.normal()
        ps = complex(math.cos(theta_s), math.sin(theta_s))
        return DualScalar.complex(ps, 1j * theta_d * ps)
    qs = Quaternion.from_components(rng.normal(size=4))
    qs = qs * (1.0 / abs(qs))
    raw = Quaternion.from_components(rng.normal(size=4))
    return DualScalar.quaternion(qs, raw - qs * (qs.conjugate() * raw).w)


def oracle_random_graph(n, p, seed, ring):
    """G(n, p) drawn one vertex pair and then one edge gain at a time."""
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    gains = {e: oracle_unit_scalar(rng, ring) for e in edges}
    return GainGraph(UnderlyingGraph(n, edges), ring, gains)


class TestRandomDraws:
    """random_graph draws its pair mask and its gains as arrays; real and
    quaternion graphs keep the numbers of the one-at-a-time draws."""

    @pytest.mark.parametrize("ring", ["real", "quaternion"])
    def test_array_draws_equal_the_per_pair_loop(self, ring):
        for seed in range(10):
            for n in (1, 2, 3, 7, 20, 40):
                for p in (0.0, 0.3, 0.5, 0.9, 1.0):
                    assert (serialize(random_graph(n, p, seed, ring))
                            == serialize(oracle_random_graph(n, p, seed, ring))), (seed, n, p)

    @pytest.mark.parametrize("ring", RINGS)
    def test_one_draw_is_the_scalar_formula(self, ring):
        for seed in range(500):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                got, want = random_unit_scalar(rng, ring), oracle_unit_scalar(ref, ring)
                assert repr(got.components()) == repr(want.components()), seed
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("ring", RINGS)
    def test_builds_no_scalar_per_edge(self, ring, scalar_count):
        assert random_graph(60, 0.5, 0, ring).graph.m > 0
        assert len(scalar_count) == 0
