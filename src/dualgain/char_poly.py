"""Basic-subgraph enumeration and the coefficient theorem.

A basic subgraph is a vertex-disjoint union of single edges and cycles.  Its
signed, cycle-weighted count reproduces the characteristic polynomial of a
gain adjacency matrix: with p(B) components and c(B) cycles,

    c_i    = sum over basic subgraphs B on i vertices of
             (-1)**p(B) * 2**c(B) * R(B),
    Mdet(A) = (-1)**n * c_n = sum over spanning basic subgraphs B of
              (-1)**(n + p(B)) * 2**c(B) * R(B),

where R(C) is the real part (a dual number) of the walk gain around a cycle
(independent of start and direction) and R(B) the product over its cycles.
Enumeration is explicit and capped at 12 vertices; one pass over the basic
subgraphs yields every coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotACycleError, SizeCapExceededError
from .gain_graph import GainGraph, UnderlyingGraph
from .scalars import DualNumber, DualScalar, RING_QUATERNION

SIZE_CAP = 12


@dataclass(frozen=True)
class BasicSubgraph:
    """A disjoint union of single edges and cycles (as vertex tuples)."""

    edges: tuple
    cycles: tuple

    @property
    def component_count(self) -> int:
        return len(self.edges) + len(self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class CycleRealGain:
    """Real part of a cycle's walk gain; well defined per cycle."""

    cycle: tuple
    value: DualNumber


def real_gain_of_cycle(phi: GainGraph, cycle) -> CycleRealGain:
    """R(C) = Re(walk gain around C), a dual number independent of the
    starting vertex and direction."""
    cyc = tuple(int(v) for v in cycle)
    if cyc and cyc[0] == cyc[-1]:
        cyc = cyc[:-1]
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise NotACycleError(f"{cycle!r} is not a simple cycle")
    for u, v in zip(cyc, cyc[1:] + (cyc[0],)):
        if not phi.graph.has_edge(u, v):
            raise NotACycleError(f"({u}, {v}) is not an edge")
    return CycleRealGain(cyc, _real_gains(phi, [cyc])[cyc])


def enumerate_cycles(graph: UnderlyingGraph) -> list[tuple]:
    """All simple cycles, each emitted once: minimal vertex first and the
    smaller neighbor chosen as the second vertex."""
    if graph.n > SIZE_CAP:
        raise SizeCapExceededError(f"n={graph.n} exceeds the size cap {SIZE_CAP}")
    adj = {v: graph.neighbors(v) for v in range(graph.n)}
    cycles = []

    def extend(path):
        head = path[0]
        for nxt in adj[path[-1]]:
            if nxt == head and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif nxt > head and nxt not in path:
                extend(path + [nxt])

    for root in range(graph.n):
        extend([root])
    cycles.sort()
    return cycles


def _basic_parts(graph: UnderlyingGraph, cycles, size=None):
    """Yield (vertex count, edges, cycles) once per basic subgraph of
    `graph` whose cycles come from `cycles`; with `size`, only those on
    exactly `size` vertices, pruning branches that cannot reach it."""
    n = graph.n
    adj = [graph.neighbors(v) for v in range(n)]
    cycles_by_min = {}
    for cyc in cycles:
        cycles_by_min.setdefault(cyc[0], []).append(cyc)
    # vertex v, covered vertices, vertices left uncovered so far, components
    stack = [(0, frozenset(), 0, (), ())]
    while stack:
        v, used, skipped, edges, cycs = stack.pop()
        if size is not None and not len(used) <= size <= n - skipped:
            continue
        if v == n:
            yield n - skipped, edges, cycs
            continue
        if v in used:
            stack.append((v + 1, used, skipped, edges, cycs))
            continue
        # v stays uncovered
        stack.append((v + 1, used, skipped + 1, edges, cycs))
        # v is the smaller endpoint of a single-edge component
        for w in adj[v]:
            if w > v and w not in used:
                stack.append((v + 1, used | {v, w}, skipped, edges + ((v, w),), cycs))
        # v is the minimal vertex of a cycle component
        for cyc in cycles_by_min.get(v, ()):
            if used.isdisjoint(cyc):
                stack.append((v + 1, used.union(cyc), skipped, edges, cycs + (cyc,)))


def enumerate_basic_subgraphs(graph: UnderlyingGraph, i: int) -> list[BasicSubgraph]:
    """All basic subgraphs covering exactly i vertices, in deterministic
    order."""
    cycles = enumerate_cycles(graph)
    if not 0 <= i <= graph.n:
        raise ValueError(f"vertex count {i} out of range")
    out = [BasicSubgraph(edges, cycs) for _, edges, cycs in _basic_parts(graph, cycles, i)]
    out.sort(key=lambda b: (b.edges, b.cycles))
    return out


def _real_gains(phi: GainGraph, cycles) -> dict:
    """{cycle: R(C)} for simple cycles of `phi`, one walk fold per cycle
    length."""
    by_length = {}
    for cyc in cycles:
        by_length.setdefault(len(cyc), []).append(cyc)
    real_gains = {}
    for group in by_length.values():
        s, d = phi._walk_gains(np.array([cyc + cyc[:1] for cyc in group]))
        if phi.ring == RING_QUATERNION:
            s, d = s[:, 0], d[:, 0]
        real_gains.update(zip(group, map(DualNumber, s.real.tolist(), d.real.tolist())))
    return real_gains


def _weighted_sums(phi: GainGraph, size=None) -> list[DualNumber]:
    """Entry i is the sum of (-1)**p(B) * 2**c(B) * R(B) over the basic
    subgraphs B on i vertices (only entry `size` is filled when given)."""
    cycles = enumerate_cycles(phi.graph)
    real_gains = _real_gains(phi, cycles)
    sums = [DualNumber.zero() for _ in range(phi.n + 1)]
    for count, edges, cycs in _basic_parts(phi.graph, cycles, size):
        term = DualNumber(float(2 ** len(cycs)), 0.0)
        if (len(edges) + len(cycs)) % 2:
            term = -term
        for cyc in cycs:
            term = term * real_gains[cyc]
        sums[count] = sums[count] + term
    return sums


def coefficients(phi: GainGraph) -> list[DualNumber]:
    """Characteristic-polynomial coefficients c_1..c_n of the adjacency
    matrix, as dual numbers (x**n + c_1 x**(n-1) + ... + c_n)."""
    return _weighted_sums(phi)[1:]


def char_poly_from_eigenvalues(values) -> list[DualNumber]:
    """Expand prod (x - lambda_i) over dual numbers; returns c_1..c_n.

    Independent cross-check partner for `coefficients`: c_i must equal
    (-1)**i e_i(lambda), which is exactly what this expansion produces.
    """
    coeffs = [DualNumber(1.0)]
    for lam in values:
        nxt = [DualNumber.zero() for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * lam
        coeffs = nxt
    return coeffs[1:]


def mdet_via_subgraphs(phi: GainGraph) -> DualScalar:
    """Moore determinant of the adjacency matrix, (-1)**n * c_n: the
    spanning basic-subgraph sum; an empty sum gives zero."""
    n = phi.n
    spanning = _weighted_sums(phi, n)[n]
    # 0 - x rather than -x keeps an empty odd-n sum at +0
    return (DualNumber.zero() - spanning if n % 2 else spanning).to_scalar(phi.ring)
