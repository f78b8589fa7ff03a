"""Seeded gain-graph inputs for the benchmark, built with numpy alone.

Nothing here imports `dualgain`: the inputs, and the truth about them,
must not move when the library changes.  Every gain is written as

    g(u, v) = theta(u)^-1 * sigma(u, v) * theta(v)

with a random unit potential theta and a unit "twist" sigma.  Tree edges of
a spanning tree the generator draws itself carry sigma = 1 or -1, so the
balance verdicts follow from the twists on the non-tree edges alone:

* balanced      <=> every fundamental cycle gain is 1,
* antibalanced  <=> every fundamental cycle gain is (-1)**(cycle length).

Dual scalars are (std, dual) pairs of quaternion component arrays of shape
(..., 4) in the order (w, x, y, z); the real ring uses w alone and the
complex ring w + x i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

RINGS = ("real", "complex", "quaternion")
WIDTH = {"real": 1, "complex": 2, "quaternion": 4}


# ---------------------------------------------------------------------------
# dual quaternion arithmetic on (..., 4) component arrays


def qmul(a, b):
    """Hamilton product of component arrays of shape (..., 4)."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack((aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw), axis=-1)


def qconj(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def dmul(a, b):
    """Dual product (a_s + a_d eps)(b_s + b_d eps), truncated at first order."""
    return qmul(a[0], b[0]), qmul(a[0], b[1]) + qmul(a[1], b[0])


def dconj(a):
    return qconj(a[0]), qconj(a[1])


def random_units(rng, ring, count):
    """`count` unit dual elements of `ring`.

    Real units are +-1 with zero dual part; complex ones e^{i a}(1 + i b eps);
    quaternion ones q (1 + p eps) with q a unit and p pure imaginary.  Each
    satisfies a_s a_s* = 1 and a_s a_d* + a_d a_s* = 0 exactly in exact
    arithmetic.
    """
    std = np.zeros((count, 4))
    dual = np.zeros((count, 4))
    if ring == "real":
        std[:, 0] = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        return std, dual
    if ring == "complex":
        a = rng.uniform(-np.pi, np.pi, count)
        b = rng.normal(size=count)
        std[:, 0], std[:, 1] = np.cos(a), np.sin(a)
        pure = np.zeros((count, 4))
        pure[:, 1] = b
    else:
        q = rng.normal(size=(count, 4))
        std = q / np.linalg.norm(q, axis=1, keepdims=True)
        pure = np.zeros((count, 4))
        pure[:, 1:] = rng.normal(size=(count, 3))
    return std, qmul(std, pure)


def twist_units(rng, ring, count):
    """Units whose standard part is 1 and whose dual part is not zero: the
    standard matrix stays balanced while the dual part breaks balance.
    The real ring has no such units; it gets 1."""
    std = np.zeros((count, 4))
    std[:, 0] = 1.0
    dual = np.zeros((count, 4))
    if ring == "complex":
        dual[:, 1] = rng.normal(size=count)
    elif ring == "quaternion":
        dual[:, 1:] = rng.normal(size=(count, 3))
    return std, dual


# ---------------------------------------------------------------------------
# graphs


@dataclass
class Graph:
    """One generated input with the verdicts known from its construction."""

    name: str
    family: str
    ring: str
    n: int
    edges: np.ndarray       # (m, 2) int, u < v, sorted
    std: np.ndarray         # (m, 4) gain std parts on the orientation u -> v
    dual: np.ndarray        # (m, 4) gain dual parts
    balanced: bool
    antibalanced: bool

    @property
    def m(self) -> int:
        return len(self.edges)

    def ggf(self) -> str:
        """The graph as a format-v1 `.ggf` document; floats are written with
        repr, so the library reads back exactly these values."""
        w = WIDTH[self.ring]
        records = [{"u": int(u), "v": int(v),
                    "gain_std": [float(c) for c in s[:w]],
                    "gain_dual": [float(c) for c in d[:w]]}
                   for (u, v), s, d in zip(self.edges, self.std, self.dual)]
        doc = {"format": "dual-gain-graph", "version": 1, "ring": self.ring,
               "n": self.n, "edges": records}
        return json.dumps(doc) + "\n"


def read_ggf(path) -> Graph:
    """Read a format-v1 `.ggf` file into component arrays (no verdicts)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ring, recs = doc["ring"], doc["edges"]
    w = WIDTH[ring]
    std = np.zeros((len(recs), 4))
    dual = np.zeros((len(recs), 4))
    for i, rec in enumerate(recs):
        std[i, :w] = rec["gain_std"]
        dual[i, :w] = rec["gain_dual"]
    edges = np.array([(rec["u"], rec["v"]) for rec in recs], dtype=int).reshape(-1, 2)
    return Graph(str(path), "file", ring, int(doc["n"]), edges, std, dual, False, False)


def random_tree(rng, n):
    """Random recursive tree on a random vertex order: (edges, depth)."""
    order = rng.permutation(n)
    depth = np.zeros(n, dtype=int)
    edges = []
    for i in range(1, n):
        v = int(order[i])
        u = int(order[rng.integers(0, i)])
        depth[v] = depth[u] + 1
        edges.append((u, v))
    return edges, depth


def path_tree(n):
    return [(i, i + 1) for i in range(n - 1)], np.arange(n)


def extra_edges(rng, n, tree, count):
    """`count` distinct non-tree edges drawn uniformly."""
    have = {(min(u, v), max(u, v)) for u, v in tree}
    out = []
    while len(out) < count:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        e = (min(u, v), max(u, v))
        if u != v and e not in have:
            have.add(e)
            out.append(e)
    return out


def all_pairs(n, tree):
    have = {(min(u, v), max(u, v)) for u, v in tree}
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have]


def build(name, family, ring, n, tree, depth, others, twist, rng):
    """Assemble gains from a potential, tree edges and twisted other edges.

    twist: "none" (sigma = 1 everywhere), "negate" (sigma = -1 everywhere),
    "random" (random units on non-tree edges) or "dual_only" (standard part 1,
    random dual part on non-tree edges).
    """
    edges = [(min(u, v), max(u, v)) for u, v in tree + others]
    is_tree = np.array([True] * len(tree) + [False] * len(others))
    k = len(others)
    sigma = (np.zeros((len(edges), 4)), np.zeros((len(edges), 4)))
    sigma[0][:, 0] = -1.0 if twist == "negate" else 1.0
    if twist == "random":
        s, d = random_units(rng, ring, k)
        sigma[0][~is_tree], sigma[1][~is_tree] = s, d
    elif twist == "dual_only":
        s, d = twist_units(rng, ring, k)
        sigma[0][~is_tree], sigma[1][~is_tree] = s, d
    theta = random_units(rng, ring, n)
    eu = np.array([e[0] for e in edges], dtype=int)
    ev = np.array([e[1] for e in edges], dtype=int)
    left = dconj((theta[0][eu], theta[1][eu]))
    std, dual = dmul(dmul(left, sigma), (theta[0][ev], theta[1][ev]))

    # Fundamental cycle of a non-tree edge (u, v) has length
    # depth[u] + depth[v] - 2 depth[lca] + 1, whose parity needs no lca.
    odd = np.array([(depth[u] + depth[v] + 1) % 2 == 1 for u, v in edges])[~is_tree]
    tau_s, tau_d = sigma[0][~is_tree], sigma[1][~is_tree]
    if twist == "negate":
        # sigma = -1 on every edge: cycle gain (-1)^length
        balanced = not odd.any()
        antibalanced = True
    else:
        one = np.array([1.0, 0.0, 0.0, 0.0])
        is_one = np.all(tau_s == one, axis=1) & np.all(tau_d == 0.0, axis=1)
        is_minus = np.all(tau_s == -one, axis=1) & np.all(tau_d == 0.0, axis=1)
        balanced = bool(is_one.all())
        antibalanced = bool(np.where(odd, is_minus, is_one).all())

    order = np.lexsort((ev, eu))
    return Graph(name, family, ring, n, np.stack((eu, ev), axis=1)[order],
                 std[order], dual[order], balanced, antibalanced)


def make_graph(rng, name, family, ring, n, avg_degree=3.0):
    """A named family on n vertices; every graph is connected."""
    if family in ("cycle", "twisted_cycle", "path"):
        tree, depth = path_tree(n)
        others = [] if family == "path" else [(0, n - 1)]
        twist = {"cycle": "random", "twisted_cycle": "dual_only", "path": "none"}[family]
        return build(name, family, ring, n, tree, depth, others, twist, rng)
    if family == "circulant":
        # C_n(1, 2) on its natural labels: 2n edges and many cycles.  The seed
        # moves only the gains, so every seed costs the same enumeration.
        tree, depth = path_tree(n)
        others = ([(0, n - 1)] + [(i, i + 2) for i in range(n - 2)]
                  + [(0, n - 2), (1, n - 1)])
        return build(name, family, ring, n, tree, depth, others, "random", rng)
    tree, depth = random_tree(rng, n)
    if family == "balanced_complete":
        return build(name, family, ring, n, tree, depth, all_pairs(n, tree), "none", rng)
    count = max(0, int(round(avg_degree * n / 2)) - (n - 1))
    others = extra_edges(rng, n, tree, count)
    twist = {"random": "random", "balanced": "none", "antibalanced": "negate"}[family]
    return build(name, family, ring, n, tree, depth, others, twist, rng)


def render_scalar(ring, std, dual):
    """A dual scalar in the CLI's text grammar, "(a_s) + (a_d)*eps"."""
    def base(c):
        if ring == "real":
            return repr(float(c[0]))
        terms = [repr(float(c[0]))]
        for value, unit in zip(c[1:WIDTH[ring]], "ijk"):
            terms.append(("+" if value >= 0 else "-") + repr(abs(float(value))) + unit)
        return "".join(terms)
    return f"({base(std)}) + ({base(dual)})*eps"
