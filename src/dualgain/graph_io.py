"""Serialization of gain graphs plus generators for named families.

The file format is versioned JSON with one record per canonical edge
(u < v); gain components are plain decimal floats, so serialize/parse round
trips are exact.  Gains are re-validated as units on load.
"""

from __future__ import annotations

import json
import operator
from itertools import chain, islice

import numpy as np

from . import _rings as rings
from .errors import BadParameterError, BadRingError, GraphSyntaxError
from .gain_graph import GainGraph, UnderlyingGraph
from .scalars import RING_COMPLEX, RING_REAL, RING_WIDTH, RINGS, UNIT_TOL, DualScalar

FORMAT_NAME = "dual-gain-graph"
FORMAT_VERSION = 1


def serialize(phi: GainGraph) -> str:
    parts = []
    _write_json(_document(phi), parts.append)
    return "".join(parts)


def _document(phi):
    """The file document of `phi`: one record per canonical edge."""
    rings.check_edge_count(phi.graph.m)
    us, vs = phi.graph.edge_array.T.tolist()
    stds, duals = (rings.to_components(phi.ring, part).tolist()
                   for part in (phi.std, phi.dual))
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "ring": phi.ring,
        "n": phi.n,
        "edges": [{"u": u, "v": v, "gain_std": s, "gain_dual": d}
                  for u, v, s, d in zip(us, vs, stds, duals)],
    }


# encoder tokens joined per write: one write per token is slow, one string
# for the whole document holds every token at once
_CHUNK_TOKENS = 4096


def _write_json(doc, write) -> None:
    """Pass `json.dumps(doc, indent=2) + "\n"` to `write` in pieces of
    _CHUNK_TOKENS encoder tokens, so the text never exists as one string."""
    tokens = json.JSONEncoder(indent=2).iterencode(doc)
    for chunk in iter(lambda: tuple(islice(tokens, _CHUNK_TOKENS)), ()):
        write("".join(chunk))
    write("\n")


def parse(text: str, tol: float = UNIT_TOL) -> GainGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSyntaxError(exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:
        raise GraphSyntaxError("document is nested too deeply") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise GraphSyntaxError(f"not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise GraphSyntaxError(f"unsupported version {doc.get('version')!r}")
    ring = doc.get("ring")
    if ring not in RINGS:
        raise BadRingError(f"unknown ring tag {ring!r}")
    try:
        n = _integer(doc["n"], "vertex count n")
        records = list(doc["edges"])
    except (KeyError, TypeError) as exc:
        raise GraphSyntaxError(f"malformed document: {exc}") from exc
    pairs, std, dual = _edge_columns(records, ring)
    graph = UnderlyingGraph(n, pairs)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return GainGraph(graph, ring, (rings.from_components(ring, std[order]),
                                   rings.from_components(ring, dual[order])), tol)


_FIELDS = ("u", "v", "gain_std", "gain_dual")
_NUMBER_TYPES = {int, float}


def _edge_columns(records, ring):
    """The edge records as whole columns: (m, 2) endpoints in file order
    (int64, or object when a label exceeds int64) and (m, width) float64
    std and dual components.

    Every record must be an object with integer endpoints u < v and two
    lists of the ring's width of JSON numbers; when one is not,
    GraphSyntaxError names the first such record.
    """
    m, width = len(records), RING_WIDTH[ring]
    try:
        us, vs, stds, duals = ([rec[key] for rec in records] for key in _FIELDS)
    except (KeyError, TypeError):
        us = vs = stds = duals = ()
    ok = (len(us) == m
          and set(map(type, us)) <= {int} and set(map(type, vs)) <= {int}
          and all(set(map(type, parts)) <= {list}
                  and set(map(len, parts)) <= {width}
                  and set(map(type, chain.from_iterable(parts))) <= _NUMBER_TYPES
                  for parts in (stds, duals))
          and all(map(operator.lt, us, vs)))
    if ok:
        try:
            std, dual = (np.fromiter(chain.from_iterable(parts), np.float64, m * width)
                         .reshape(m, width) for parts in (stds, duals))
        except OverflowError:
            ok = False
    if not ok:
        problem = next(filter(None, (_record_problem(rec, ring) for rec in records)),
                       "malformed edge records")
        raise GraphSyntaxError(problem)
    bits = np.int64 if m == 0 or (min(us) >= -2**63 and max(vs) < 2**63) else object
    pairs = np.empty((m, 2), dtype=bits)
    pairs[:, 0], pairs[:, 1] = us, vs
    return pairs, std, dual


def _record_problem(rec, ring):
    """Why one edge record is malformed, or None; names the refusal once the
    whole-column checks of `_edge_columns` have failed."""
    if not isinstance(rec, dict) or "u" not in rec or "v" not in rec:
        return f"malformed edge record {rec!r}"
    u, v = rec["u"], rec["v"]
    for what, value in (("vertex u", u), ("vertex v", v)):
        if type(value) is not int:
            return f"{what} must be an integer, got {value!r}"
    parts = [rec.get(key) for key in _FIELDS[2:]]
    for part in parts:
        if type(part) is not list or not set(map(type, part)) <= _NUMBER_TYPES:
            return f"malformed edge record {rec!r}"
        try:
            np.array(part, dtype=np.float64)
        except OverflowError:
            return f"malformed edge record {rec!r}"
    if any(len(part) != RING_WIDTH[ring] for part in parts):
        return f"edge ({u}, {v}): {ring} gains take {RING_WIDTH[ring]} components"
    if not u < v:
        return f"edge ({u}, {v}) is not in canonical order u < v"
    return None


def _integer(value, what):
    """A JSON integer as is; floats (2.7, 1e400), strings and booleans are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphSyntaxError(f"{what} must be an integer, got {value!r}")
    return value


def save(phi: GainGraph, path) -> None:
    doc = _document(phi)    # a refused document leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(doc, fh.write)


def load(path, tol: float = UNIT_TOL) -> GainGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), tol)


# ---------------------------------------------------------------------------
# generators


def generate(family: str, *, n: int = None, ring: str = RING_COMPLEX,
             gain: DualScalar = None, p: float = 0.5, seed: int = 0) -> GainGraph:
    """Named families: path, cycle (with a closing gain), complete, random.

    Deterministic for fixed arguments; random graphs draw unit gains from
    the seeded sampler in `sampling`.
    """
    if family == "path":
        return path_graph(n, ring)
    if family == "cycle":
        return cycle_graph(n, gain if gain is not None else DualScalar.one(ring))
    if family == "complete":
        return complete_graph(n, ring)
    if family == "random":
        return random_graph(n, p, seed, ring)
    raise BadParameterError(f"unknown family {family!r}")


def _check_n(n, least):
    if n is None or int(n) < least:
        raise BadParameterError(f"need at least {least} vertices, got {n!r}")
    rings.check_vertex_count(int(n))
    return int(n)


def _neutral_gains(m, ring):
    """The split-layout (std, dual) arrays of gain 1 on m edges."""
    return rings.widen(RING_REAL, np.ones(m), ring), rings.zeros(ring, (m,))


def path_graph(n: int, ring: str = RING_COMPLEX) -> GainGraph:
    n = _check_n(n, 1)
    graph = UnderlyingGraph(n, np.stack((np.arange(n - 1), np.arange(1, n)), axis=1))
    return GainGraph(graph, ring, _neutral_gains(graph.m, ring))


def cycle_graph(n: int, gain: DualScalar) -> GainGraph:
    """The n-cycle with neutral gains except `gain` on the closing edge
    (0, n-1), oriented so the walk 0 -> 1 -> ... -> n-1 -> 0 has gain
    `gain`."""
    n = _check_n(n, 3)
    if not isinstance(gain, DualScalar):
        raise BadParameterError("cycle gain must be a dual scalar")
    ring = gain.ring
    graph = UnderlyingGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    std, dual = _neutral_gains(n, ring)
    # (0, n-1) is row 1 of the sorted edges; the walk crosses it as (n-1, 0)
    std[1], dual[1] = rings.conj(ring, rings.from_values(ring, [gain.std, gain.dual]))
    return GainGraph(graph, ring, (std, dual))


def complete_graph(n: int, ring: str = RING_COMPLEX) -> GainGraph:
    n = _check_n(n, 1)
    rings.check_dense_size(ring, n)     # n(n-1)/2 edges
    graph = UnderlyingGraph(n, np.stack(np.triu_indices(n, 1), axis=1))
    return GainGraph(graph, ring, _neutral_gains(graph.m, ring))


def random_graph(n: int, p: float, seed: int, ring: str = RING_COMPLEX) -> GainGraph:
    """G(n, p) underlying graph with random unit gains; deterministic per
    seed.  The pair mask and the gains are drawn as arrays, and a graph
    file of that many edges is refused before any gain is drawn."""
    from . import sampling

    n = _check_n(n, 1)
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"edge probability {p!r} outside [0, 1]")
    rings.check_ring(ring)
    rings.check_dense_size(ring, n)     # one draw per vertex pair
    rng = np.random.default_rng(seed)
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    pairs = pairs[rng.random(len(pairs)) < p]
    rings.check_edge_count(len(pairs))
    return GainGraph(UnderlyingGraph(n, pairs), ring,
                     sampling._random_unit_gains(rng, ring, len(pairs)))
