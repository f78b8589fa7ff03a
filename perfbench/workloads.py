"""The four workloads: their seeded inputs, their queries and the expected
answers the correctness gate compares against.

A query is a dict: {"label", "op", ..., "expect"}.  op "cli" runs
`dualgain.cli.run(argv)` in process; ops "spectrum" and "interlace" are
library call chains starting from `graph_io.load(path)`.  Sizes are fixed
per workload and the seed moves only edges and gains, so two seeds cost the
same work.  Each list is one round; a run is made of whole rounds.
"""

from __future__ import annotations

import os

import numpy as np

import reference as ref
from gen import RINGS, Graph, make_graph, random_units, render_scalar

KINDS = ("adjacency", "laplacian")

def _spectrum_expect(g, kind, vertices=None):
    std, dual = ref.dual_eigenvalues(g, kind, vertices)
    return {"std": std.tolist(), "dual": dual.tolist(), "tols": list(ref.scales(g))}


class Builder:
    """Collects graphs (written as .ggf files) and queries for one run."""

    def __init__(self, rng, out_dir):
        self.rng = rng
        self.out_dir = out_dir
        self.graphs: list[Graph] = []
        self.paths: list[str] = []
        self.queries: list[dict] = []
        self._expect = {}

    def expect(self, gi, kind, vertices=None):
        """Reference spectrum of graph `gi`, computed once per run."""
        key = (gi, kind, None if vertices is None else tuple(vertices))
        if key not in self._expect:
            self._expect[key] = _spectrum_expect(self.graphs[gi], kind, vertices)
        return self._expect[key]

    def graph(self, family, ring, n, avg_degree=3.0):
        g = make_graph(self.rng, f"g{len(self.graphs)}", family, ring, n, avg_degree)
        path = os.path.join(self.out_dir, f"{g.name}-{family}-{ring}-{n}.ggf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(g.ggf())
        self.graphs.append(g)
        self.paths.append(path)
        return len(self.graphs) - 1

    def cli(self, sub, argv, expect):
        self.queries.append({"label": f"cli.{sub}", "op": "cli", "argv": [sub] + argv,
                             "expect": expect})

    # --- the queries, each with the reference answer it must match -------

    def cli_spectrum(self, gi, kind):
        self.cli("spectrum", [self.paths[gi], "--matrix", kind, "--format", "json"],
                 {"type": "spectrum", **self.expect(gi, kind)})

    def cli_balance(self, gi):
        self.cli("balance", [self.paths[gi], "--format", "json"],
                 {"type": "balance", "balanced": self.graphs[gi].balanced})

    def cli_radius(self, gi, kind):
        g = self.graphs[gi]
        self.cli("radius", [self.paths[gi], "--matrix", kind, "--format", "json"],
                 {"type": "radius", **self.expect(gi, kind),
                  "rho_graph": ref.underlying_radius(g, kind),
                  "balanced": g.balanced, "antibalanced": g.antibalanced})

    def cli_interlace(self, gi, kind, drop):
        g = self.graphs[gi]
        keep = [v for v in range(g.n) if v != drop]
        self.cli("interlace", [self.paths[gi], "--drop", str(drop), "--matrix", kind,
                               "--format", "json"],
                 {"type": "interlace", "full": self.expect(gi, kind),
                  "sub": self.expect(gi, kind, keep)})

    def cli_convert(self, gi):
        out = self.paths[gi][:-4] + ".quaternion.ggf"
        self.cli("convert", [self.paths[gi], "--ring", "quaternion", "--out", out],
                 {"type": "convert", "graph": gi, "out": out})

    def cli_cycle(self, ring, n, kind):
        s, d = random_units(self.rng, ring, 1)
        g = closed_cycle(ring, n, s[0], d[0])
        self.cli("cycle", ["--n", str(n), "--ring", ring, "--gain",
                           render_scalar(ring, s[0], d[0]), "--matrix", kind,
                           "--format", "json"],
                 {"type": "spectrum", **_spectrum_expect(g, kind)})

    def cli_path(self, n, kind):
        g = make_graph(self.rng, "path", "path", "real", n)
        self.cli("path", ["--n", str(n), "--matrix", kind, "--format", "json"],
                 {"type": "spectrum", **_spectrum_expect(g, kind)})

    def cli_check(self, suite, trials, seed):
        """A property suite; it draws its own graph sizes from --seed, so a
        fixed seed keeps its cost the same for every workload seed."""
        self.cli("check", [suite, "--trials", str(trials), "--seed", str(seed),
                           "--format", "json"],
                 {"type": "check", "trials": trials})

    def cli_charpoly(self, gi):
        g = self.graphs[gi]
        self.cli("charpoly", [self.paths[gi], "--format", "json"],
                 {"type": "charpoly", **charpoly_expect(g)})

    def cli_mdet(self, gi):
        g = self.graphs[gi]
        self.cli("mdet", [self.paths[gi], "--format", "json"],
                 {"type": "mdet", **mdet_expect(g)})

    def lib_spectrum(self, gi, kind):
        g = self.graphs[gi]
        self.queries.append({
            "label": f"lib.spectrum.{g.ring}.{g.n}", "op": "spectrum",
            "path": self.paths[gi], "graph": gi, "matrix": kind,
            "expect": {"type": "spectrum", **self.expect(gi, kind)}})

    def lib_interlace(self, gi, kind):
        g = self.graphs[gi]
        subset = sorted(self.rng.choice(g.n, size=g.n - g.n // 8, replace=False).tolist())
        self.queries.append({
            "label": f"lib.interlace.{g.ring}.{g.n}", "op": "interlace",
            "path": self.paths[gi], "matrix": kind, "subset": subset,
            "expect": {"type": "interlace", "full": self.expect(gi, kind),
                       "sub": self.expect(gi, kind, subset)}})


def closed_cycle(ring, n, std, dual):
    """The n-cycle whose walk 0 -> 1 -> ... -> n-1 -> 0 has gain (std, dual):
    identity gains on the path and the conjugate on the closing edge (0, n-1)."""
    edges = np.array([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    s = np.zeros((n, 4))
    d = np.zeros((n, 4))
    s[:, 0] = 1.0
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    s[-1], d[-1] = std * conj, dual * conj
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return Graph("cycle", "closed_cycle", ring, n, edges[order], s[order], d[order],
                 False, False)


def _dual_poly(std, dual):
    """Coefficients c_1..c_n of prod (x - lambda) over dual numbers."""
    cs, cd = np.array([1.0]), np.array([0.0])
    for s, d in zip(std, dual):
        cs, cd = (np.convolve(cs, [1.0, -s]),
                  np.convolve(cd, [1.0, -s]) + np.convolve(cs, [0.0, -d]))
    return cs[1:], cd[1:]


def charpoly_expect(g):
    """Coefficients from the reference eigenvalues.  The tolerance follows
    the size of each coefficient and its sensitivity to an error in each
    eigenvalue's dual part: the same expansion over |lambda_s| with unit
    dual parts."""
    std, dual = ref.dual_eigenvalues(g, "adjacency")
    cs, cd = _dual_poly(std, dual)
    size, sensitivity = _dual_poly(np.abs(std), np.ones_like(dual))
    tol = 1e-9 * np.maximum(1.0, np.abs(size)) + \
        1e-6 * (1.0 + np.abs(dual).max(initial=0.0)) * np.abs(sensitivity)
    return {"std": cs.tolist(), "dual": cd.tolist(), "tol": tol.tolist()}


def mdet_expect(g):
    """Mdet is the product of the eigenvalues, (-1)**n c_n."""
    c = charpoly_expect(g)
    sign = (-1.0) ** g.n
    return {"std": sign * c["std"][-1], "dual": sign * c["dual"][-1], "tol": c["tol"][-1]}


# ---------------------------------------------------------------------------
# workloads


def small_cli(b: Builder):
    """15 graphs (3 rings x 5 families, n = 4..12), seven CLI reads and one
    write per graph, closed forms and the property suites at two trials."""
    families = ("random", "balanced", "antibalanced", "cycle", "path")
    for r, ring in enumerate(RINGS):
        for f, family in enumerate(families):
            gi = b.graph(family, ring, 4 + (5 * r + 2 * f) % 9)
            kind = KINDS[(r + f) % 2]
            b.cli_spectrum(gi, "adjacency")
            b.cli_spectrum(gi, "laplacian")
            b.cli_balance(gi)
            b.cli_radius(gi, "adjacency")
            b.cli_radius(gi, "laplacian")
            b.cli_interlace(gi, kind, int(b.rng.integers(0, b.graphs[gi].n)))
            b.cli_convert(gi)
        for kind in KINDS:
            b.cli_cycle(ring, 5 + 3 * r, kind)
    for n in (7, 12):
        for kind in KINDS:
            b.cli_path(n, kind)
    for i, suite in enumerate(("interlacing", "switching-invariance", "radius-bounds",
                               "mdet-product", "coefficient", "dq2dc", "closed-forms")):
        b.cli_check(suite, 2, seed=i)
    # The mdet-product suite, ~10x the cost of any other query here, runs
    # three times a round: with ~2.4% of the samples it holds the whole top
    # percentile, so query_s.tail measures that one query and not whichever
    # cheap queries a slow moment of the machine pushed into the top 1%.
    for _ in range(2):
        b.cli_check("mdet-product", 2, seed=3)


def dense_spectra(b: Builder):
    """Per ring: a sparse n = 400 graph, a balanced complete graph (one
    standard eigenvalue of multiplicity n - 1) and an n = 200 cycle whose
    standard part is balanced and whose dual part is not (repeated standard
    pairs, split by the supplement).  The complete graph has n = 200, except
    n = 100 for quaternions: the quaternion solver separates a repeated
    eigenvalue one SVD per copy, so at n = 200 that one query takes ~12 s.
    The quaternion n = 400 graph gets one query per round: it alone costs as
    much as the other two rings together."""
    per_ring = []
    for ring in RINGS:
        per_ring.append((b.graph("random", ring, 400, avg_degree=6.0),
                         b.graph("balanced_complete", ring,
                                 100 if ring == "quaternion" else 200),
                         b.graph("twisted_cycle", ring, 200)))
    (r4, rk, rc), (c4, ck, cc), (q4, qk, qc) = per_ring
    b.lib_spectrum(r4, "adjacency")
    b.lib_spectrum(ck, "laplacian")
    b.lib_interlace(qc, "adjacency")
    b.lib_spectrum(c4, "adjacency")
    b.lib_spectrum(rk, "adjacency")
    b.lib_spectrum(qk, "laplacian")
    b.lib_interlace(r4, "adjacency")
    b.lib_spectrum(cc, "adjacency")
    b.lib_spectrum(q4, "adjacency")
    b.lib_spectrum(rc, "laplacian")
    b.lib_spectrum(c4, "laplacian")
    b.lib_spectrum(qc, "laplacian")
    b.lib_spectrum(r4, "laplacian")
    b.lib_interlace(c4, "laplacian")
    b.lib_spectrum(rk, "laplacian")
    b.lib_spectrum(ck, "adjacency")
    b.lib_interlace(rc, "laplacian")


def exact_poly(b: Builder):
    """charpoly on circulants C_n(1, 2) (2n edges; the seed moves only the
    gains), n = 10, 11 twice and n = 12 once per ring; Mdet on the same family,
    n = 7 twice and n = 8 once per ring."""
    for ring in RINGS:
        for n in (10, 11, 10, 11, 12):
            b.cli_charpoly(b.graph("circulant", ring, n))
        for n in (7, 8, 7):
            b.cli_mdet(b.graph("circulant", ring, n))


def large_radius(b: Builder):
    """One sparse degree-6 graph per ring, radius report of both kinds.  The
    sizes give each ring about the same cost per query."""
    for ring, n in (("real", 540), ("complex", 450), ("quaternion", 210)):
        gi = b.graph("random", ring, n, avg_degree=6.0)
        for kind in KINDS:
            b.cli_radius(gi, kind)


# workload -> (builder, times its query list repeats in one round).  The
# repeats make one round of a heavy workload take about one 20 s run on a
# 2-core x86-64 box, so a run is one whole round and its mix of queries,
# hence its percentiles, do not move with the machine's speed.
WORKLOADS = {
    "small-cli": (small_cli, 1),
    "dense-spectra": (dense_spectra, 2),
    "exact-poly": (exact_poly, 2),
    "large-radius": (large_radius, 7),
}


def build(workload, seed, out_dir) -> Builder:
    b = Builder(np.random.default_rng([seed, list(WORKLOADS).index(workload)]), out_dir)
    fill, repeats = WORKLOADS[workload]
    fill(b)
    b.queries *= repeats
    return b


def input_shares(b: Builder) -> dict:
    """Share of the workload's graph inputs that are balanced, antibalanced,
    or have a repeated standard eigenvalue (adjacency matrix)."""
    def repeated(gi):
        w = np.array(b.expect(gi, "adjacency")["std"])
        return bool(np.any(np.abs(np.diff(w)) <= ref.CLUSTER_TOL * max(1.0, np.abs(w).max())))

    k = len(b.graphs)
    return {"inputs": k,
            "balanced": sum(g.balanced for g in b.graphs) / k,
            "antibalanced": sum(g.antibalanced for g in b.graphs) / k,
            "repeated_std_eigenvalue": sum(repeated(gi) for gi in range(k)) / k}
