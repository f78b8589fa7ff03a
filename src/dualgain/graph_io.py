"""Serialization of gain graphs plus generators for named families.

The file format is versioned JSON with one record per canonical edge
(u < v); gain components are plain decimal floats, so serialize/parse round
trips are exact.  Gains are re-validated as units on load.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BadParameterError, BadRingError, GraphSyntaxError
from .gain_graph import GainGraph, UnderlyingGraph
from .scalars import RING_COMPLEX, RING_WIDTH, RINGS, DualScalar

FORMAT_NAME = "dual-gain-graph"
FORMAT_VERSION = 1


def serialize(phi: GainGraph) -> str:
    edges = []
    for u, v, g in sorted(phi.gains()):
        std, dual = g.components()
        edges.append({"u": u, "v": v, "gain_std": std, "gain_dual": dual})
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "ring": phi.ring,
        "n": phi.n,
        "edges": edges,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse(text: str, tol: float = 1e-9) -> GainGraph:
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
    width = RING_WIDTH[ring]
    edges = []
    gains = {}
    for rec in records:
        try:
            u, v = _integer(rec["u"], "vertex u"), _integer(rec["v"], "vertex v")
            std = [float(c) for c in rec["gain_std"]]
            dual = [float(c) for c in rec["gain_dual"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphSyntaxError(f"malformed edge record {rec!r}") from exc
        if len(std) != width or len(dual) != width:
            raise GraphSyntaxError(
                f"edge ({u}, {v}): {ring} gains take {width} components")
        if not u < v:
            raise GraphSyntaxError(f"edge ({u}, {v}) is not in canonical order u < v")
        edges.append((u, v))
        gains[(u, v)] = DualScalar.from_components(ring, std, dual)
    return GainGraph(UnderlyingGraph(n, edges), ring, gains, tol)


def _integer(value, what):
    """A JSON integer as is; floats (2.7, 1e400), strings and booleans are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphSyntaxError(f"{what} must be an integer, got {value!r}")
    return value


def save(phi: GainGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(phi))


def load(path, tol: float = 1e-9) -> GainGraph:
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
    return int(n)


def path_graph(n: int, ring: str = RING_COMPLEX) -> GainGraph:
    n = _check_n(n, 1)
    edges = [(i, i + 1) for i in range(n - 1)]
    gains = {e: DualScalar.one(ring) for e in edges}
    return GainGraph(UnderlyingGraph(n, edges), ring, gains)


def cycle_graph(n: int, gain: DualScalar) -> GainGraph:
    """The n-cycle with neutral gains except `gain` on the closing edge
    (0, n-1), oriented so the walk 0 -> 1 -> ... -> n-1 -> 0 has gain
    `gain`."""
    n = _check_n(n, 3)
    if not isinstance(gain, DualScalar):
        raise BadParameterError("cycle gain must be a dual scalar")
    ring = gain.ring
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    gains = {e: DualScalar.one(ring) for e in edges}
    # stored on the canonical orientation (0, n-1); the walk uses (n-1, 0)
    gains[(0, n - 1)] = gain.conjugate()
    return GainGraph(UnderlyingGraph(n, edges), ring, gains)


def complete_graph(n: int, ring: str = RING_COMPLEX) -> GainGraph:
    n = _check_n(n, 1)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    gains = {e: DualScalar.one(ring) for e in edges}
    return GainGraph(UnderlyingGraph(n, edges), ring, gains)


def random_graph(n: int, p: float, seed: int, ring: str = RING_COMPLEX) -> GainGraph:
    """G(n, p) underlying graph with random unit gains; deterministic per
    seed."""
    from . import sampling

    n = _check_n(n, 1)
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"edge probability {p!r} outside [0, 1]")
    if ring not in RINGS:
        raise BadRingError(f"unknown ring tag {ring!r}")
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    gains = {e: sampling.random_unit_scalar(rng, ring) for e in edges}
    return GainGraph(UnderlyingGraph(n, edges), ring, gains)
