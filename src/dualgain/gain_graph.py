"""Dual unit gain graphs: construction, switching, walk gains, balance.

A gain graph attaches a unit dual element to every oriented edge, with the
reverse orientation carrying the inverse (equal to the conjugate for
units).  Gains are stored once per undirected edge in the canonical
orientation u < v, so the inverse constraint holds structurally.

Storage is array-backed, and the arrays are the only representation: a
sorted (m, 2) int64 edge array and std/dual gain arrays aligned with it in
the `_rings` split layout.  The CSR adjacency, the edge keys and the public
`edges` tuple are built from them on first use.  Walk gains, switching and
balance are `_rings.dual_mul` passes over the arrays; a `DualScalar` exists
only where a caller hands one in or asks for one back.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _rings as rings
from .errors import (
    BadParameterError,
    DuplicateEdgeError,
    NotAWalkError,
    NotUnitError,
    NotUnitGainError,
    RingMismatchError,
    SelfLoopError,
)
from .scalars import DualScalar, RING_QUATERNION, RING_REAL, RINGS, UNIT_TOL, check_unit_tol


def _canonical_edges(n, edges):
    """The sorted (m, 2) int64 array of canonical pairs u < v.

    Refusals follow the input order: the first edge that is a self loop, out
    of range or a repeat of an earlier edge raises, in that order of checks.
    """
    pairs = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise BadParameterError("edges must be vertex pairs")
    if pairs.dtype.kind not in "iu":
        # int() per label as for single vertices: floats truncate, and
        # integers beyond int64 stay exact (object dtype)
        pairs = np.vectorize(int, otypes=[object])(pairs)
    u, v = pairs[:, 0], pairs[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    stop = int(bad.argmax()) if bad.any() else len(pairs)
    lo, hi = lo[:stop].astype(np.int64), hi[:stop].astype(np.int64)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if repeat.any():
        # a stable sort keeps copies in input order: the earliest later copy
        first = int(order[1:][repeat].min())
        e = (int(min(u[first], v[first])), int(max(u[first], v[first])))
        raise DuplicateEdgeError(f"edge {e} given twice")
    if stop < len(pairs):
        a, b = int(u[stop]), int(v[stop])
        if a == b:
            raise SelfLoopError(f"self loop at vertex {a}")
        raise BadParameterError(f"edge ({a}, {b}) out of range for n={n}")
    return np.stack((lo, hi), axis=1)


class UnderlyingGraph:
    """A simple undirected graph on vertices 0..n-1.

    `edge_array` holds the canonical pairs u < v, sorted.  The CSR adjacency
    (row pointers and ascending neighbor lists), the BFS forest over it and
    the edge keys are built on first use; dense spectra never read them.
    """

    __slots__ = ("n", "edge_array", "_csr", "_forest", "_edges", "_keys")

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 0:
            raise BadParameterError("vertex count must be nonnegative")
        rings.check_vertex_count(n)
        self.n = n
        self.edge_array = _canonical_edges(n, edges)
        self.edge_array.flags.writeable = False
        self._csr = self._forest = self._edges = self._keys = None

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @property
    def edges(self) -> tuple:
        """The canonical edges as a sorted tuple of (u, v) pairs."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self.edge_array.tolist()))
        return self._edges

    def _adjacency_lists(self):
        """CSR (indptr, indices) as Python lists: the neighbors of v,
        ascending, are indices[indptr[v]:indptr[v + 1]]."""
        if self._csr is None:
            u, v = self.edge_array.T
            heads, tails = np.concatenate((u, v)), np.concatenate((v, u))
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(heads, minlength=self.n), out=indptr[1:])
            self._csr = (indptr.tolist(), tails[np.lexsort((tails, heads))].tolist())
        return self._csr

    def _edge_index(self, u, v):
        """(index, found) for the vertex pairs (u[i], v[i]) of two integer
        arrays, in either orientation: found[i] when the pair is an edge, and
        then index[i] is its row of `edge_array`.  Pairs are keyed lo n + hi
        against the sorted keys of the edges, closed by the sentinel n^2;
        vertices outside 0..n-1 are refused before keying, since (0, n + 2)
        would take the key of (1, 2)."""
        if self._keys is None:
            lo, hi = self.edge_array.T
            self._keys = np.append(lo * self.n + hi, self.n * self.n)
        u, v = np.asarray(u), np.asarray(v)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        inside = (lo >= 0) & (hi < self.n)
        key = (np.where(inside, lo, 0).astype(np.int64) * self.n
               + np.where(inside, hi, 0).astype(np.int64))
        index = np.searchsorted(self._keys, key)
        return index, inside & (self._keys[index] == key)

    def has_edge(self, u, v) -> bool:
        return bool(self._edge_index([u], [v])[1][0])

    def neighbors(self, v):
        if not 0 <= v < self.n:
            return []
        indptr, indices = self._adjacency_lists()
        return indices[indptr[v]:indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        u, v = self.edge_array.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a

    def _bfs_forest(self):
        """(parent, depth, trees) of the breadth-first spanning forest, built
        once: searches start from each unvisited vertex in increasing order
        and visit neighbors ascending.  parent[v] is None at roots, depth is
        a read-only int64 array, and trees holds each tree's vertices in
        visiting order, one list per root."""
        if self._forest is None:
            indptr, indices = self._adjacency_lists()
            parent = [None] * self.n
            depth = [-1] * self.n
            trees = []
            for root in range(self.n):
                if depth[root] >= 0:
                    continue
                depth[root] = 0
                tree = [root]
                for v in tree:      # breadth first: the list grows while it is read
                    for w in indices[indptr[v]:indptr[v + 1]]:
                        if depth[w] < 0:
                            depth[w] = depth[v] + 1
                            parent[w] = v
                            tree.append(w)
                trees.append(tree)
            depth = np.array(depth, dtype=np.int64)
            depth.flags.writeable = False
            self._forest = (parent, depth, trees)
        return self._forest

    def components(self) -> list[list[int]]:
        """Vertex sets of the components, each ascending, ordered by their
        smallest vertex."""
        return [sorted(tree) for tree in self._bfs_forest()[2]]

    def is_connected(self) -> bool:
        return len(self._bfs_forest()[2]) <= 1

    def __eq__(self, other):
        if not isinstance(other, UnderlyingGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

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


class _BalancePass(NamedTuple):
    """What one balance pass finds: the BFS parent of every vertex (None at
    roots), the potentials as split-layout arrays, and masks over
    `edge_array` marking the edges that break balance and antibalance, of
    the dual gains and of their standard parts alone."""

    parent: list
    theta_std: np.ndarray
    theta_dual: np.ndarray
    unbalanced: np.ndarray
    unantibalanced: np.ndarray
    std_unbalanced: np.ndarray
    std_unantibalanced: np.ndarray


def _dual_inverse(ring, s, d):
    """Elementwise (s + d eps)^-1 of split-layout arrays, as
    DualScalar.inverse computes it: conj(s) / |s|^2 + (conj(d) / |s|^2 -
    conj(s) 2 Re(conj(s) d) / |s|^4) eps."""
    ns = rings.entry_abs(ring, s) ** 2
    nd = 2.0 * (s.real * d.real + s.imag * d.imag)
    if ring == RING_QUATERNION:
        ns, nd = ns[:, None], nd.sum(axis=-1, keepdims=True)
    cs = rings.conj(ring, s)
    return cs * (1.0 / ns), rings.conj(ring, d) * (1.0 / ns) - cs * (nd / (ns * ns))


def _vertex_subset(n, vertices):
    """The distinct vertices in increasing order; BadParameterError unless
    each lies in 0..n-1."""
    vs = sorted(set(int(v) for v in vertices))
    bad = [v for v in vs if not 0 <= v < n]
    if bad:
        raise BadParameterError(f"vertex {bad[0]} out of range for n={n}")
    return vs


def _non_units(ring, std, dual, tol):
    """Mask of the gains that fail | |s| - 1 | <= tol and |2<s, d>| <= tol;
    NaN fails."""
    inner = std.real * dual.real + std.imag * dual.imag
    if ring == RING_QUATERNION:
        inner = inner.sum(axis=-1)
    return ~((np.abs(rings.entry_abs(ring, std) - 1.0) <= tol)
             & (np.abs(2.0 * inner) <= tol))


class GainGraph:
    """An underlying graph together with one unit dual gain per edge.

    `std` and `dual` are read-only arrays aligned with `graph.edge_array`,
    shape (m,) for real and complex gains and (m, 2) for quaternions (the
    `_rings` split layout).  `gains` may be a mapping from canonical edges to
    `DualScalar`s or a pair (std, dual) of such arrays; either way the unit
    condition is checked here, for all edges at once, within `tol`, which
    must be a number >= 0.  The graph keeps `tol` for switching, balance and
    the graphs it derives.
    """

    __slots__ = ("graph", "ring", "std", "dual", "_tol")

    def __init__(self, graph: UnderlyingGraph, ring, gains, tol: float = UNIT_TOL):
        if ring not in RINGS:
            raise RingMismatchError(f"unknown ring tag {ring!r}")
        check_unit_tol(tol)
        failure = None
        if isinstance(gains, Mapping):
            std, dual, failure = self._from_mapping(graph, ring, gains)
        else:
            std, dual = (np.asarray(part) for part in gains)
            shape = (graph.m, 2) if ring == RING_QUATERNION else (graph.m,)
            if (std.shape != shape or dual.shape != shape
                    or ring == RING_REAL and (np.iscomplexobj(std) or np.iscomplexobj(dual))):
                raise RingMismatchError(
                    f"{ring} gains of {graph.m} edges take {rings.zeros(ring, ()).dtype} "
                    f"arrays of shape {shape}")
            std, dual = (rings.asarray(ring, part).copy() for part in (std, dual))
        # a non-unit gain raises before a later missing or mismatched one
        bad = np.flatnonzero(_non_units(ring, std, dual, tol))
        if bad.size:
            raise NotUnitGainError(tuple(graph.edge_array[bad[0]].tolist()))
        if failure is not None:
            raise failure
        std.flags.writeable = dual.flags.writeable = False
        self.graph = graph
        self.ring = ring
        self.std = std
        self.dual = dual
        self._tol = tol

    @staticmethod
    def _from_mapping(graph, ring, gains):
        """Arrays of the gains of a {(u, v): DualScalar} mapping, up to the
        first edge whose gain is missing or of another ring; that failure is
        returned, to be raised after the unit check."""
        gains = dict(gains)
        scalars = []
        failure = None
        for u, v in graph.edges:
            if (u, v) not in gains:
                failure = BadParameterError(f"missing gain for edge ({u}, {v})")
                break
            g = gains.pop((u, v))
            if not isinstance(g, DualScalar) or g.ring != ring:
                failure = RingMismatchError(
                    f"gain on ({u}, {v}) is not a {ring}-ring dual scalar")
                break
            scalars.append(g)
        if failure is None and gains:
            failure = BadParameterError(f"gains given for non-edges: {sorted(gains)}")
        std = rings.from_values(ring, [g.std for g in scalars])
        dual = rings.from_values(ring, [g.dual for g in scalars])
        return std, dual, failure

    @property
    def n(self) -> int:
        return self.graph.n

    tol = property(lambda self: self._tol, doc="The unit/balance tolerance of the graph.")

    def gain(self, u, v) -> DualScalar:
        """The gain of the oriented edge u -> v."""
        return self.gain_of_walk([u, v])

    def gains(self):
        """Iterate (u, v, gain) over canonical edges, each gain built from
        the arrays as it is reached."""
        for (u, v), s, d in zip(self.graph.edges, rings.to_values(self.ring, self.std),
                                rings.to_values(self.ring, self.dual)):
            yield u, v, DualScalar(self.ring, s, d)

    def gain_of_walk(self, walk) -> DualScalar:
        """Ordered product of oriented gains along a vertex sequence."""
        walk = [int(v) for v in walk]
        if len(walk) < 2:
            raise NotAWalkError("a walk needs at least two vertices")
        s, d = self._walk_gains(np.array([walk]))
        return DualScalar(self.ring, rings.get(self.ring, s, (0,)), rings.get(self.ring, d, (0,)))

    def _walk_gains(self, walks):
        """The ordered gain products of the walks in the rows of a (k, l + 1)
        integer vertex array, as split-layout (std, dual) arrays of k values.

        Each step u -> v takes the stored gain of its edge, conjugated where
        u > v, so a one-step walk gives that gain bit for bit; the steps
        multiply left to right with `_rings.dual_mul`.  NotAWalkError names
        the first step, in row order, that is not an edge.
        """
        heads, tails = walks[:, :-1], walks[:, 1:]
        index, found = self.graph._edge_index(heads, tails)
        if not found.all():
            k, t = np.argwhere(~found)[0]
            raise NotAWalkError(f"({int(heads[k, t])}, {int(tails[k, t])}) is not an edge")
        back = (heads > tails).reshape(index.shape + (1,) * (self.std.ndim - 1))
        gs, gd = (np.where(back, rings.conj(self.ring, part[index]), part[index])
                  for part in (self.std, self.dual))
        ps, pd = gs[:, 0], gd[:, 0]
        for t in range(1, index.shape[1]):
            ps, pd = rings.dual_mul(self.ring, ps, pd, gs[:, t], gd[:, t])
        return ps, pd

    def switch(self, zeta) -> "GainGraph":
        """Switched graph with gains zeta(u)^-1 gain(u, v) zeta(v)."""
        zeta = list(zeta)
        if len(zeta) != self.n:
            raise BadParameterError("switching function needs one value per vertex")
        for i, z in enumerate(zeta):
            if not isinstance(z, DualScalar) or z.ring != self.ring:
                raise RingMismatchError(f"switching value at vertex {i} has the wrong ring")
            if not z.is_unit(self.tol):
                raise NotUnitError(f"switching value at vertex {i} is not a unit")
        ring = self.ring
        zs = rings.from_values(ring, [z.std for z in zeta])
        zd = rings.from_values(ring, [z.dual for z in zeta])
        u, v = self.graph.edge_array.T
        left = rings.dual_mul(ring, *_dual_inverse(ring, zs[u], zd[u]), self.std, self.dual)
        return GainGraph(self.graph, ring, rings.dual_mul(ring, *left, zs[v], zd[v]), self.tol)

    def negate(self) -> "GainGraph":
        return GainGraph(self.graph, self.ring, (-self.std, -self.dual), self.tol)

    def balance_certificate(self) -> PotentialCertificate:
        """Decide balance through a BFS spanning forest.

        Searches start from each unvisited vertex in increasing order; tree
        edges define theta (roots fixed at 1).  The graph is balanced exactly
        when every edge satisfies the potential equation within `tol`; the
        first violated edge in `edge_array` order yields its fundamental
        cycle as a witness.  The work is one _balance_pass.
        """
        verdicts = self._balance_pass()
        bad = np.flatnonzero(verdicts.unbalanced)
        if bad.size:
            u, v = self.graph.edge_array[bad[0]].tolist()
            return PotentialCertificate(False, None, self._fundamental_cycle(verdicts.parent, u, v))
        theta = zip(rings.to_values(self.ring, verdicts.theta_std),
                    rings.to_values(self.ring, verdicts.theta_dual))
        return PotentialCertificate(True, tuple(DualScalar(self.ring, s, d) for s, d in theta))

    def _balance_pass(self) -> "_BalancePass":
        """Balance and antibalance of the graph from one traversal.

        The graph's BFS forest (UnderlyingGraph._bfs_forest) fixes each
        vertex's parent and depth.  The potentials follow one level at a
        time, theta[w] = theta[v] gain(v -> w) for all tree edges of a level
        at once, with roots at 1.  Every edge is then tested at once against
        theta[u]^-1 theta[v], within `tol` in both parts.  The potentials of
        -phi on the same forest are theta (-1)^depth, so phi is antibalanced
        exactly when every edge carries -(-1)^(depth u + depth v)
        theta[u]^-1 theta[v].  The standard parts of the potentials are the
        potentials of the standard gains alone, so the standard-part test
        decides balance and antibalance of those.
        """
        ring, n = self.ring, self.n
        parent, depth, _ = self.graph._bfs_forest()
        child = np.flatnonzero(depth > 0)
        child = child[np.argsort(depth[child], kind="stable")]
        up = np.array([parent[w] for w in child.tolist()], dtype=np.int64)
        # the gain of each tree edge, oriented parent -> child
        gs, gd = self._walk_gains(np.stack((up, child), axis=1))
        theta_s = rings.widen(RING_REAL, np.ones(n), ring)
        theta_d = rings.zeros(ring, (n,))
        cuts = [0, *(np.flatnonzero(np.diff(depth[child])) + 1).tolist(), len(child)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            p = up[a:b]
            theta_s[child[a:b]], theta_d[child[a:b]] = rings.dual_mul(
                ring, theta_s[p], theta_d[p], gs[a:b], gd[a:b])

        u, v = self.graph.edge_array.T
        inv_s, inv_d = _dual_inverse(ring, theta_s[u], theta_d[u])
        rs, rd = rings.dual_mul(ring, inv_s, inv_d, theta_s[v], theta_d[v])
        # -(-1)^(depth u + depth v): the edge gain of -phi's potentials, negated
        sign = (2 * ((depth[u] + depth[v]) % 2) - 1).reshape((-1,) + (1,) * (rs.ndim - 1))
        tol = self.tol

        def violated(ts, td):
            """(standard part off, either part off) per edge."""
            std_off = ~(rings.entry_abs(ring, self.std - ts) <= tol)
            return std_off, std_off | ~(rings.entry_abs(ring, self.dual - td) <= tol)

        std_unbalanced, unbalanced = violated(rs, rd)
        std_unantibalanced, unantibalanced = violated(sign * rs, sign * rd)
        return _BalancePass(parent, theta_s, theta_d, unbalanced, unantibalanced,
                            std_unbalanced, std_unantibalanced)

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

    def is_balanced(self) -> bool:
        return not self._balance_pass().unbalanced.any()

    def is_antibalanced(self) -> bool:
        return not self._balance_pass().unantibalanced.any()

    def induced_subgraph(self, vertices) -> "GainGraph":
        """Restriction to a vertex subset, relabeled in increasing order."""
        vs = _vertex_subset(self.n, vertices)
        index = np.full(self.n, -1, dtype=np.int64)
        index[vs] = np.arange(len(vs))
        # the relabeling is increasing, so kept edges stay canonical and sorted
        relabeled = index[self.graph.edge_array]
        keep = (relabeled >= 0).all(axis=1)
        return GainGraph(UnderlyingGraph(len(vs), relabeled[keep]), self.ring,
                         (self.std[keep], self.dual[keep]), self.tol)

    def __repr__(self):
        return f"GainGraph(ring={self.ring!r}, n={self.n}, m={self.graph.m})"
