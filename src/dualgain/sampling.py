"""Seeded random instances for tests and the property-check suites.

Unit dual elements are drawn so the unit condition holds exactly up to
rounding: complex gains as e**(i theta_s) with dual part i theta_d p_s, and
quaternion gains by projecting a raw dual part against the standard part.
Dual real units are just +-1 (their dual part must vanish).
"""

from __future__ import annotations

import math

import numpy as np

from . import _rings as rings
from .gain_graph import GainGraph, UnderlyingGraph
from .graph_io import _neutral_gains
from .linalg import DualMatrix
from .quaternion import Quaternion
from .scalars import (
    DualScalar,
    RING_COMPLEX,
    RING_QUATERNION,
    RING_REAL,
)


def random_unit_scalar(rng: np.random.Generator, ring: str) -> DualScalar:
    std, dual = _random_unit_gains(rng, ring, 1)
    return DualScalar(ring, rings.get(ring, std, (0,)), rings.get(ring, dual, (0,)))


def _random_unit_gains(rng: np.random.Generator, ring: str, m: int):
    """The split-layout (std, dual) arrays of m random unit gains.  Each
    step is the scalar formula's, in its order, so one gain has its bits;
    real and quaternion blocks also hold the numbers of m one-gain draws,
    complex ones (an angle and a dual angle per gain) do not."""
    if ring == RING_REAL:
        return np.where(rng.random(m) < 0.5, 1.0, -1.0), np.zeros(m)
    if ring == RING_COMPLEX:
        theta_s, theta_d = rng.uniform(-math.pi, math.pi, m), rng.normal(size=m)
        c, s = np.cos(theta_s), np.sin(theta_s)
        zr, zi = 0.0 * theta_d, theta_d + 0.0     # i theta_d, signed zeros as (1j * x) has them
        std, dual = (c, s), (zr * c - zi * s, zr * s + zi * c)
    else:
        q, raw = rng.normal(size=(m, 2, 4)).transpose(1, 2, 0)
        std = q * (1.0 / np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]))
        # Re(conj(p_s) raw), the w term of the quaternion product: x - (-a) b is
        # x + a b to the bit
        w = std[0] * raw[0] + std[1] * raw[1] + std[2] * raw[2] + std[3] * raw[3]
        dual = raw - std * w
    return tuple(rings.from_components(ring, np.stack(part, axis=1)) for part in (std, dual))


def random_scalar(rng: np.random.Generator, ring: str) -> DualScalar:
    """A generic (not unit) dual scalar with standard Gaussian components."""
    if ring == RING_REAL:
        return DualScalar.real(rng.normal(), rng.normal())
    if ring == RING_COMPLEX:
        s = complex(rng.normal(), rng.normal())
        d = complex(rng.normal(), rng.normal())
        return DualScalar.complex(s, d)
    s = Quaternion.from_components(rng.normal(size=4))
    d = Quaternion.from_components(rng.normal(size=4))
    return DualScalar.quaternion(s, d)


def random_dual_quaternion(rng: np.random.Generator, kind: str = "generic") -> DualScalar:
    """Dual quaternions for exercising the complex reduction, including its
    degenerate branches."""
    if kind == "generic":
        return random_scalar(rng, RING_QUATERNION)
    if kind == "real_std":
        s = Quaternion(rng.normal())
        d = Quaternion.from_components(rng.normal(size=4))
        return DualScalar.quaternion(s, d)
    if kind == "complex_form":
        s = Quaternion(rng.normal(), rng.normal())
        d = Quaternion(rng.normal(), rng.normal())
        return DualScalar.quaternion(s, d)
    if kind == "dual_real":
        return DualScalar.quaternion(Quaternion(rng.normal()), Quaternion(rng.normal()))
    if kind == "negative_i_axis":
        # vector part along -i, where the naive rotation construction degenerates
        s = Quaternion(rng.normal(), -abs(rng.normal()))
        d = Quaternion.from_components(rng.normal(size=4))
        return DualScalar.quaternion(s, d)
    raise ValueError(f"unknown kind {kind!r}")


def random_switching(rng: np.random.Generator, ring: str, n: int) -> list[DualScalar]:
    return [random_unit_scalar(rng, ring) for _ in range(n)]


def random_hermitian_matrix(rng: np.random.Generator, ring: str, n: int) -> DualMatrix:
    grid = [[random_scalar(rng, ring) for _ in range(n)] for _ in range(n)]
    a = DualMatrix.from_scalars(grid)
    h = a + a.conj_transpose()
    return DualMatrix(ring, 0.5 * h.s, 0.5 * h.d)


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_edges: int = 0) -> UnderlyingGraph:
    """Random spanning tree plus extra distinct non-tree edges."""
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        v = int(order[idx])
        u = int(order[rng.integers(0, idx)])
        edges.add((min(u, v), max(u, v)))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in edges]
    rng.shuffle(candidates)
    for e in candidates[:extra_edges]:
        edges.add(e)
    return UnderlyingGraph(n, sorted(edges))


def random_gain_graph(rng: np.random.Generator, graph: UnderlyingGraph,
                      ring: str) -> GainGraph:
    gains = {e: random_unit_scalar(rng, ring) for e in graph.edges}
    return GainGraph(graph, ring, gains)


def random_balanced_gain_graph(rng: np.random.Generator, graph: UnderlyingGraph,
                               ring: str) -> GainGraph:
    """Gains derived from a random potential, so the graph is balanced: the
    neutral graph switched by one random unit per vertex."""
    neutral = GainGraph(graph, ring, _neutral_gains(graph.m, ring))
    return neutral.switch(random_switching(rng, ring, graph.n))


_MAX_TRIES = 256


def random_unbalanced_connected(rng: np.random.Generator, n: int, ring: str) -> GainGraph:
    """Connected graph with a certified unbalanced, non-antibalanced gain
    assignment (the strict-inequality case of the radius bound).

    Each try draws a random spanning tree plus two extra edges, so the graph
    has at least two independent cycles when n >= 4; signed graphs need that
    (an unbalanced odd cycle is automatically antibalanced), hence their
    floor on n.  RuntimeError after _MAX_TRIES draws without a hit.
    """
    if n < 3:
        raise ValueError("need n >= 3 for an unbalanced graph")
    if ring == RING_REAL and n < 4:
        raise ValueError("signed graphs need n >= 4 to be unbalanced and "
                         "not antibalanced")
    for _ in range(_MAX_TRIES):
        graph = random_connected_graph(rng, n, 2)
        phi = random_gain_graph(rng, graph, ring)
        if not phi.is_balanced() and not phi.is_antibalanced():
            return phi
    raise RuntimeError("failed to sample an unbalanced graph")
