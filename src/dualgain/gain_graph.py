"""Dual unit gain graphs: construction, switching, walk gains, balance.

A gain graph attaches a unit dual element to every oriented edge, with the
reverse orientation carrying the inverse (equal to the conjugate for
units).  Gains are stored once per undirected edge in the canonical
orientation u < v, so the inverse constraint holds structurally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameterError,
    DuplicateEdgeError,
    NotAWalkError,
    NotUnitError,
    NotUnitGainError,
    RingMismatchError,
    SelfLoopError,
)
from .scalars import DualScalar, RINGS


class UnderlyingGraph:
    """A simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_edge_set")

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 0:
            raise BadParameterError("vertex count must be nonnegative")
        canonical = []
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise SelfLoopError(f"self loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise BadParameterError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdgeError(f"edge {e} given twice")
            seen.add(e)
            canonical.append(e)
        self.n = n
        self.edges = tuple(sorted(canonical))
        self._edge_set = frozenset(canonical)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u, v) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self._edge_set

    def neighbors(self, v):
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        adj = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for root in range(self.n):
            if seen[root]:
                continue
            comp = []
            queue = deque([root])
            seen[root] = True
            while queue:
                v = queue.popleft()
                comp.append(v)
                for w in sorted(adj[v]):
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def __eq__(self, other):
        if not isinstance(other, UnderlyingGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self):
        return f"UnderlyingGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class PotentialCertificate:
    """Balance verdict with either a potential function or a witness cycle.

    When balanced, theta satisfies gain(u, v) = theta[u]^-1 theta[v] on every
    edge (roots of the spanning forest are fixed at 1).  When unbalanced,
    witness_cycle is a closed vertex sequence whose walk gain is not 1.
    """

    balanced: bool
    theta: tuple | None = None
    witness_cycle: tuple | None = None


class GainGraph:
    """An underlying graph together with one unit dual gain per edge."""

    __slots__ = ("graph", "ring", "_gains")

    def __init__(self, graph: UnderlyingGraph, ring, gains, tol: float = 1e-9):
        if ring not in RINGS:
            raise RingMismatchError(f"unknown ring tag {ring!r}")
        table = {}
        gains = dict(gains)
        for u, v in graph.edges:
            if (u, v) not in gains:
                raise BadParameterError(f"missing gain for edge ({u}, {v})")
            g = gains.pop((u, v))
            if not isinstance(g, DualScalar) or g.ring != ring:
                raise RingMismatchError(f"gain on ({u}, {v}) is not a {ring}-ring dual scalar")
            if not g.is_unit(tol):
                raise NotUnitGainError((u, v))
            table[(u, v)] = g
        if gains:
            raise BadParameterError(f"gains given for non-edges: {sorted(gains)}")
        self.graph = graph
        self.ring = ring
        self._gains = table

    @classmethod
    def build(cls, graph: UnderlyingGraph, gains, ring=None, tol: float = 1e-9) -> "GainGraph":
        """Validate and build; gains map canonical edges (u < v) to scalars."""
        gains = dict(gains)
        if ring is None:
            if not gains:
                raise BadParameterError("cannot infer the ring of an edgeless graph")
            ring = next(iter(gains.values())).ring
        return cls(graph, ring, gains, tol)

    @property
    def n(self) -> int:
        return self.graph.n

    def gain(self, u, v) -> DualScalar:
        """The gain of the oriented edge u -> v."""
        if u < v:
            return self._gains[(u, v)]
        return self._gains[(v, u)].conjugate()

    def gains(self):
        """Iterate (u, v, gain) over canonical edges."""
        for (u, v), g in self._gains.items():
            yield u, v, g

    def gain_of_walk(self, walk) -> DualScalar:
        """Ordered product of oriented gains along a vertex sequence."""
        walk = [int(v) for v in walk]
        if len(walk) < 2:
            raise NotAWalkError("a walk needs at least two vertices")
        out = DualScalar.one(self.ring)
        for u, v in zip(walk, walk[1:]):
            if not self.graph.has_edge(u, v):
                raise NotAWalkError(f"({u}, {v}) is not an edge")
            out = out * self.gain(u, v)
        return out

    def switch(self, zeta, tol: float = 1e-9) -> "GainGraph":
        """Switched graph with gains zeta(u)^-1 gain(u, v) zeta(v)."""
        zeta = list(zeta)
        if len(zeta) != self.n:
            raise BadParameterError("switching function needs one value per vertex")
        for i, z in enumerate(zeta):
            if not isinstance(z, DualScalar) or z.ring != self.ring:
                raise RingMismatchError(f"switching value at vertex {i} has the wrong ring")
            if not z.is_unit(tol):
                raise NotUnitError(f"switching value at vertex {i} is not a unit")
        new_gains = {(u, v): zeta[u].inverse() * g * zeta[v] for u, v, g in self.gains()}
        return GainGraph(self.graph, self.ring, new_gains, tol)

    def negate(self) -> "GainGraph":
        return GainGraph(self.graph, self.ring, {(u, v): -g for u, v, g in self.gains()})

    def balance_certificate(self, tol: float = 1e-9) -> PotentialCertificate:
        """Decide balance through a BFS spanning forest.

        Tree edges define theta (roots fixed at 1); the graph is balanced
        exactly when every non-tree edge satisfies the potential equation
        within tol.  The first violated edge yields its fundamental cycle as
        a witness.
        """
        theta = [None] * self.n
        parent = [None] * self.n
        adj = {v: self.graph.neighbors(v) for v in range(self.n)}
        for comp in self.graph.components():
            root = comp[0]
            theta[root] = DualScalar.one(self.ring)
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if theta[w] is None:
                        theta[w] = theta[v] * self.gain(v, w)
                        parent[w] = v
                        queue.append(w)
        for u, v, g in sorted(self.gains()):
            predicted = theta[u].inverse() * theta[v]
            if not g.allclose(predicted, tol):
                return PotentialCertificate(False, None, self._fundamental_cycle(parent, u, v))
        return PotentialCertificate(True, tuple(theta), None)

    def _fundamental_cycle(self, parent, u, v):
        def chain(x):
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path

        up_u, up_v = chain(u), chain(v)
        common = set(up_u) & set(up_v)
        lca = next(x for x in up_u if x in common)
        down = up_u[: up_u.index(lca) + 1]          # u ... lca
        back = up_v[: up_v.index(lca)]              # v ... child of lca
        return tuple(down + list(reversed(back)) + [u])

    def is_balanced(self, tol: float = 1e-9) -> bool:
        return self.balance_certificate(tol).balanced

    def is_antibalanced(self, tol: float = 1e-9) -> bool:
        return self.negate().balance_certificate(tol).balanced

    def induced_subgraph(self, vertices) -> "GainGraph":
        """Restriction to a vertex subset, relabeled in increasing order."""
        vs = sorted(set(int(v) for v in vertices))
        for v in vs:
            if not 0 <= v < self.n:
                raise BadParameterError(f"vertex {v} out of range")
        index = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        edges = [(index[u], index[v]) for u, v in self.graph.edges if u in keep and v in keep]
        gains = {(index[u], index[v]): g for u, v, g in self.gains()
                 if u in keep and v in keep}
        return GainGraph(UnderlyingGraph(len(vs), edges), self.ring, gains)

    def __repr__(self):
        return f"GainGraph(ring={self.ring!r}, n={self.n}, m={self.graph.m})"
