import json
from collections import deque

import numpy as np
import pytest

from dualgain import (
    BadParameterError,
    DualScalar,
    DuplicateEdgeError,
    GainGraph,
    NotAWalkError,
    NotUnitGainError,
    Quaternion,
    RINGS,
    RingMismatchError,
    SelfLoopError,
    SizeCapExceededError,
    UnderlyingGraph,
    coefficients,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    mdet_via_subgraphs,
    parse,
    serialize,
)
from dualgain import _rings as rings
from dualgain.char_poly import _real_gains
from dualgain.scalars import RING_WIDTH
from dualgain.sampling import (
    random_balanced_gain_graph,
    random_connected_graph,
    random_gain_graph,
    random_switching,
    random_unbalanced_connected,
    random_unit_scalar,
)


class TestUnderlyingGraph:
    def test_degrees_and_delta(self):
        g = UnderlyingGraph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        assert list(g.degrees()) == [3, 1, 2, 2]
        assert g.max_degree() == 3
        assert g.neighbors(0) == [1, 2, 3]

    def test_validation(self):
        with pytest.raises(SelfLoopError):
            UnderlyingGraph(3, [(1, 1)])
        with pytest.raises(DuplicateEdgeError):
            UnderlyingGraph(3, [(0, 1), (1, 0)])

    def test_components(self):
        g = UnderlyingGraph(5, [(0, 1), (2, 3)])
        assert g.components() == [[0, 1], [2, 3], [4]]
        assert not g.is_connected()


class TestBuild:
    def test_non_unit_gain_rejected(self):
        g = UnderlyingGraph(2, [(0, 1)])
        with pytest.raises(NotUnitGainError) as exc:
            GainGraph(g, "real", {(0, 1): DualScalar.real(1, 1)})
        assert exc.value.edge == (0, 1)

    def test_all_ones(self):
        g = UnderlyingGraph(4, [(0, 1), (1, 2), (2, 3)])
        phi = GainGraph(g, "complex", {e: DualScalar.one("complex") for e in g.edges})
        assert phi.is_balanced()

    def test_reverse_gain_is_conjugate(self, balanced_triangle):
        g01 = balanced_triangle.gain(0, 1)
        g10 = balanced_triangle.gain(1, 0)
        assert g10 == g01.conjugate()
        assert (g01 * g10).allclose(DualScalar.one("complex"), 1e-12)


class TestWalkGain:
    def test_balanced_triangle_is_neutral(self, balanced_triangle):
        w = balanced_triangle.gain_of_walk([0, 1, 2, 0])
        assert w.allclose(DualScalar.one("complex"), 1e-12)

    def test_reversed_walk_is_conjugate(self, dual_spectrum_triangle):
        fwd = dual_spectrum_triangle.gain_of_walk([0, 1, 2, 0])
        rev = dual_spectrum_triangle.gain_of_walk([0, 2, 1, 0])
        assert rev.allclose(fwd.conjugate(), 1e-12)

    def test_single_edge(self, balanced_triangle):
        assert balanced_triangle.gain_of_walk([0, 1]) == balanced_triangle.gain(0, 1)

    def test_concatenation(self):
        rng = np.random.default_rng(2)
        phi = random_gain_graph(rng, random_connected_graph(rng, 6, 3), "quaternion")
        # random walk split at an interior point
        walk = [0]
        for _ in range(6):
            walk.append(int(rng.choice(phi.graph.neighbors(walk[-1]))))
        w = phi.gain_of_walk(walk)
        w1 = phi.gain_of_walk(walk[:4])
        w2 = phi.gain_of_walk(walk[3:])
        assert w.allclose(w1 * w2, 1e-12)

    def test_not_a_walk(self, balanced_triangle):
        with pytest.raises(NotAWalkError):
            balanced_triangle.gain_of_walk([0])
        g = UnderlyingGraph(4, [(0, 1), (2, 3)])
        phi = GainGraph(g, "real", {e: DualScalar.one("real") for e in g.edges})
        with pytest.raises(NotAWalkError):
            phi.gain_of_walk([0, 2])
        # the first missing step in walk order is named
        with pytest.raises(NotAWalkError, match=r"^\(1, 3\) is not an edge$"):
            phi.gain_of_walk([0, 1, 3, 2, 0])

    def test_gain_of_a_non_edge(self):
        g = UnderlyingGraph(6, [(0, 1), (1, 2)])
        phi = GainGraph(g, "complex", {e: DualScalar.one("complex") for e in g.edges})
        for u, v in ((0, 5), (5, 0), (1, 1), (0, 6), (-1, 0)):
            with pytest.raises(NotAWalkError, match=rf"^\({u}, {v}\) is not an edge$"):
                phi.gain(u, v)

    def test_out_of_range_vertices_are_not_edges(self):
        # the key u n + v of (0, n + 2) is the key of (1, 2)
        n = 4
        g = UnderlyingGraph(n, [(1, 2)])
        phi = GainGraph(g, "real", {(1, 2): DualScalar.real(-1)})
        with pytest.raises(NotAWalkError, match=rf"\(0, {n + 2}\)"):
            phi.gain_of_walk([0, n + 2])
        with pytest.raises(NotAWalkError, match=rf"\({n + 2}, 0\)"):
            phi.gain_of_walk([n + 2, 0, 1])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        outside = [-n - 3, -n, -1, n, n + 1, n + 2, 2 * n, 10**30, -10**30]
        for a in outside:
            for b in list(range(n)) + outside:
                assert not g.has_edge(a, b) and not g.has_edge(b, a)


class TestSwitching:
    def test_identity_fixes_gains(self, dual_spectrum_triangle):
        phi = dual_spectrum_triangle
        same = phi.switch([DualScalar.one("complex")] * phi.n)
        for u, v, g in phi.gains():
            assert same.gain(u, v).allclose(g, 1e-12)

    def test_composition(self):
        rng = np.random.default_rng(3)
        phi = random_gain_graph(rng, random_connected_graph(rng, 5, 2), "complex")
        z1 = random_switching(rng, "complex", 5)
        z2 = random_switching(rng, "complex", 5)
        once = phi.switch(z1).switch(z2)
        combined = phi.switch([a * b for a, b in zip(z1, z2)])
        for u, v, g in once.gains():
            assert combined.gain(u, v).allclose(g, 1e-10)

    def test_cycle_gains_collapse_to_closing_edge(self):
        # switching with the cumulative-prefix function moves the whole cycle
        # gain onto the closing edge
        rng = np.random.default_rng(4)
        n = 6
        graph = UnderlyingGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        phi = random_gain_graph(rng, graph, "quaternion")
        total = phi.gain_of_walk(list(range(n)) + [0])
        zeta = [DualScalar.one("quaternion")]
        prefix = DualScalar.one("quaternion")
        for i in range(1, n):
            prefix = prefix * phi.gain(i - 1, i)
            zeta.append(prefix.inverse())
        switched = phi.switch(zeta)
        one = DualScalar.one("quaternion")
        for i in range(n - 1):
            assert switched.gain(i, i + 1).allclose(one, 1e-10)
        assert switched.gain(n - 1, 0).allclose(total, 1e-10)

    def test_switching_preserves_balance(self):
        rng = np.random.default_rng(5)
        for ring in RINGS:
            graph = random_connected_graph(rng, 7, 3)
            for phi in (random_balanced_gain_graph(rng, graph, ring),
                        random_gain_graph(rng, graph, ring)):
                zeta = random_switching(rng, ring, 7)
                assert phi.switch(zeta).is_balanced() == phi.is_balanced()


class TestNegate:
    def test_involution(self, dual_spectrum_triangle):
        phi = dual_spectrum_triangle
        back = phi.negate().negate()
        for u, v, g in phi.gains():
            assert back.gain(u, v).allclose(g, 1e-15)

    def test_all_ones_to_all_minus_ones(self):
        g = UnderlyingGraph(3, [(0, 1), (1, 2)])
        phi = GainGraph(g, "real", {e: DualScalar.one("real") for e in g.edges})
        neg = phi.negate()
        assert all(gn == DualScalar.real(-1) for _, _, gn in neg.gains())

    def test_antibalance_definition(self):
        g = UnderlyingGraph(3, [(0, 1), (0, 2), (1, 2)])
        minus = GainGraph(g, "real", {e: DualScalar.real(-1) for e in g.edges})
        # odd cycle with all -1 gains: unbalanced but antibalanced
        assert not minus.is_balanced()
        assert minus.is_antibalanced()


class TestBalanceCertificate:
    def test_balanced_triangle_with_potential(self, balanced_triangle):
        cert = balanced_triangle.balance_certificate()
        assert cert.balanced
        for u, v, g in balanced_triangle.gains():
            predicted = cert.theta[u].inverse() * cert.theta[v]
            assert g.allclose(predicted, 1e-9)

    def test_unbalanced_triangle_witness(self, real_spectrum_triangle):
        cert = real_spectrum_triangle.balance_certificate()
        assert not cert.balanced
        w = cert.witness_cycle
        assert w[0] == w[-1] and len(set(w[:-1])) == len(w) - 1
        gain = real_spectrum_triangle.gain_of_walk(w)
        assert not gain.allclose(DualScalar.one("complex"), 1e-6)

    def test_trees_are_balanced(self):
        rng = np.random.default_rng(6)
        for ring in RINGS:
            tree = random_connected_graph(rng, 8, 0)
            phi = random_gain_graph(rng, tree, ring)
            assert phi.balance_certificate().balanced

    def test_potential_generated_graphs_are_balanced(self):
        rng = np.random.default_rng(7)
        for ring in RINGS:
            graph = random_connected_graph(rng, 8, 4)
            phi = random_balanced_gain_graph(rng, graph, ring)
            cert = phi.balance_certificate()
            assert cert.balanced
            for u, v, g in phi.gains():
                assert g.allclose(cert.theta[u].inverse() * cert.theta[v], 1e-9)

    def test_unbalanced_sampler_certifies(self):
        rng = np.random.default_rng(8)
        phi = random_unbalanced_connected(rng, 7, "complex")
        assert not phi.balance_certificate().balanced

    def test_disconnected_graph_per_component(self):
        rng = np.random.default_rng(9)
        # two triangles: one balanced (all ones), one unbalanced
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = UnderlyingGraph(6, edges)
        one = DualScalar.one("complex")
        gains = {e: one for e in g.edges}
        phi = GainGraph(g, "complex", gains)
        assert phi.balance_certificate().balanced
        gains[(3, 4)] = DualScalar.complex(1j)
        phi2 = GainGraph(g, "complex", gains)
        cert = phi2.balance_certificate()
        assert not cert.balanced
        assert set(cert.witness_cycle) <= {3, 4, 5}


class TestGraphTolerance:
    """A graph keeps the unit/balance tolerance it was validated under."""

    @pytest.fixture
    def loose(self):
        # one gain 1e-5 off the unit circle: a unit within 1e-3, not within 1e-9
        one = DualScalar.one("complex")
        g = UnderlyingGraph(3, [(0, 1), (0, 2), (1, 2)])
        return GainGraph(g, "complex", {(0, 1): DualScalar.complex(1.00001),
                                        (0, 2): one, (1, 2): one}, tol=1e-3)

    def test_derived_graphs_keep_it(self, loose):
        with pytest.raises(NotUnitGainError):
            GainGraph(loose.graph, "complex", (loose.std, loose.dual))
        derived = (loose.negate(), loose.induced_subgraph([0, 1]),
                   loose.switch([DualScalar.complex(1j)] * loose.n))
        assert [d.tol for d in derived] == [1e-3] * 3
        assert loose.is_balanced() and not loose.is_antibalanced()

    def test_read_only(self, loose):
        with pytest.raises(AttributeError):
            loose.tol = 1e-9

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
    def test_nan_or_negative_refused(self, tol):
        g = UnderlyingGraph(2, [(0, 1)])
        with pytest.raises(BadParameterError, match="tolerance"):
            GainGraph(g, "real", {(0, 1): DualScalar.one("real")}, tol=tol)
        with pytest.raises(BadParameterError, match="tolerance"):
            GainGraph(UnderlyingGraph(0), "real", {}, tol=tol)

    def test_zero_accepted(self):
        g = UnderlyingGraph(2, [(0, 1)])
        assert GainGraph(g, "real", {(0, 1): DualScalar.one("real")}, tol=0.0).is_balanced()

    def test_balance_decided_under_it(self):
        # the cycle gain e^(1e-5 i) is 1 within 1e-3 but not within 1e-9
        g = UnderlyingGraph(3, [(0, 1), (0, 2), (1, 2)])
        one = DualScalar.one("complex")
        gains = {(0, 1): DualScalar.complex(np.exp(1e-5j)), (0, 2): one, (1, 2): one}
        assert GainGraph(g, "complex", gains, tol=1e-3).is_balanced()
        assert not GainGraph(g, "complex", gains).is_balanced()


class TestInducedSubgraph:
    def test_full_subset_is_identity(self, balanced_triangle):
        sub = balanced_triangle.induced_subgraph(range(3))
        for u, v, g in balanced_triangle.gains():
            assert sub.gain(u, v) == g

    def test_drop_last_vertex(self, balanced_triangle):
        sub = balanced_triangle.induced_subgraph([0, 1])
        assert sub.graph.edges == ((0, 1),)
        assert sub.gain(0, 1) == DualScalar.complex(1, -1j)

    def test_empty_subset(self, balanced_triangle):
        sub = balanced_triangle.induced_subgraph([])
        assert sub.n == 0 and sub.graph.m == 0

    def test_relabeling(self):
        rng = np.random.default_rng(10)
        phi = random_gain_graph(rng, random_connected_graph(rng, 6, 3), "complex")
        sub = phi.induced_subgraph([1, 3, 5])
        for (u, v) in sub.graph.edges:
            orig = ([1, 3, 5][u], [1, 3, 5][v])
            assert sub.gain(u, v) == phi.gain(*orig)


# ---------------------------------------------------------------------------
# array storage against the per-edge routines it replaced


def scan_neighbors(edges, v):
    return sorted([b for a, b in edges if a == v] + [a for a, b in edges if b == v])


def bfs_components(n, edges):
    adj = {v: scan_neighbors(edges, v) for v in range(n)}
    seen, comps = set(), []
    for root in range(n):
        if root in seen:
            continue
        comp, queue = [], deque([root])
        seen.add(root)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def component_bfs_certificate(phi):
    """(balanced, theta, witness) by the per-edge DualScalar loop: a
    components() pass, a deque search per component, one scalar product per
    tree edge and one inverse per edge.  The reference for the array
    balance pass."""
    edges = list(phi.graph.edges)
    adj = {v: scan_neighbors(edges, v) for v in range(phi.n)}
    theta, parent = [None] * phi.n, [None] * phi.n
    for comp in bfs_components(phi.n, edges):
        theta[comp[0]] = DualScalar.one(phi.ring)
        queue = deque([comp[0]])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if theta[w] is None:
                    theta[w] = theta[v] * phi.gain(v, w)
                    parent[w] = v
                    queue.append(w)
    for u, v, g in sorted(phi.gains()):
        if not g.allclose(theta[u].inverse() * theta[v], phi.tol):
            return False, None, phi._fundamental_cycle(parent, u, v)
    return True, tuple(theta), None


def assert_same_potentials(ring, got, expected):
    """Real potentials agree bit for bit (repr keeps every digit and signed
    zeros); complex and quaternion products round differently in numpy than
    in Python scalars, so they agree to 1e-12."""
    if got is None or expected is None or ring == "real":
        assert repr(got) == repr(expected)
        return
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert abs(a.std - b.std) <= 1e-12 and abs(a.dual - b.dual) <= 1e-12


def per_edge_refusal(n, edges):
    """The exception class the edge-by-edge constructor raised, or None."""
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            return SelfLoopError
        if not (0 <= u < n and 0 <= v < n):
            return BadParameterError
        e = (min(u, v), max(u, v))
        if e in seen:
            return DuplicateEdgeError
        seen.add(e)
    return None


def per_edge_serialize(phi):
    edges = []
    for u, v, g in sorted(phi.gains()):
        std, dual = g.components()
        edges.append({"u": u, "v": v, "gain_std": std, "gain_dual": dual})
    doc = {"format": "dual-gain-graph", "version": 1, "ring": phi.ring, "n": phi.n,
           "edges": edges}
    return json.dumps(doc, indent=2) + "\n"


def oracle_graphs(rng, ring):
    """Random, complete, cycle and twisted-cycle gain graphs of one ring."""
    n = int(rng.integers(3, 9))
    yield random_gain_graph(rng, random_connected_graph(rng, n, int(rng.integers(0, 5))), ring)
    yield random_gain_graph(rng, complete_graph(n, ring).graph, ring)
    yield cycle_graph(n, DualScalar.one(ring))
    yield cycle_graph(n, random_unit_scalar(rng, ring))


def scalar_gain(phi, u, v):
    """The gain of u -> v from a per-edge DualScalar view of the arrays."""
    view = {(a, b): g for a, b, g in phi.gains()}
    return view[(u, v)] if u < v else view[(v, u)].conjugate()


def per_edge_walk_gain(phi, walk):
    """The walk gain as one DualScalar product per step."""
    out = DualScalar.one(phi.ring)
    for u, v in zip(walk, walk[1:]):
        out = out * scalar_gain(phi, u, v)
    return out


def per_edge_switch(phi, zeta):
    gains = {(u, v): zeta[u].inverse() * g * zeta[v] for u, v, g in phi.gains()}
    return GainGraph(phi.graph, phi.ring, gains, phi.tol)


def per_edge_balanced(rng, graph, ring):
    """The potential -> gain sampler: theta[u]^-1 theta[v] per edge."""
    theta = [random_unit_scalar(rng, ring) for _ in range(graph.n)]
    gains = {(u, v): theta[u].inverse() * theta[v] for u, v in graph.edges}
    return GainGraph(graph, ring, gains)


def assert_same_scalars(ring, got, expected):
    """Real results agree bit for bit; complex and quaternion ones, whose
    numpy products round differently from Python scalar products, to 1e-14."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if ring == "real":
            assert (a.std, a.dual) == (b.std, b.dual)
        else:
            assert abs(a.std - b.std) <= 1e-14 and abs(a.dual - b.dual) <= 1e-14


def gain_list(phi):
    return [g for _, _, g in phi.gains()]


class TestArrayRoutes:
    """The walk fold, switching, the balanced sampler and the batched R(C)
    against the per-edge DualScalar loops they replaced."""

    @pytest.mark.parametrize("ring", RINGS)
    def test_walk_gains_match_the_scalar_product(self, ring):
        rng = np.random.default_rng(29)
        for _ in range(3):
            for phi in oracle_graphs(rng, ring):
                for u, v, g in phi.gains():
                    # one step is the stored gain or its conjugate, bit for bit
                    assert phi.gain_of_walk([u, v]) == g
                    assert phi.gain(v, u) == g.conjugate()
                walks = []
                for _ in range(10):
                    walk = [int(rng.integers(phi.n))]
                    for _ in range(int(rng.integers(1, 12))):
                        walk.append(int(rng.choice(phi.graph.neighbors(walk[-1]))))
                    walks.append(walk)
                assert_same_scalars(ring, [phi.gain_of_walk(w) for w in walks],
                                    [per_edge_walk_gain(phi, w) for w in walks])

    @pytest.mark.parametrize("ring", RINGS)
    def test_real_gains_match_the_per_cycle_loop(self, ring):
        rng = np.random.default_rng(30)
        for _ in range(3):
            for phi in oracle_graphs(rng, ring):
                cycles = enumerate_cycles(phi.graph)
                batched = _real_gains(phi, cycles)
                assert sorted(batched) == cycles
                expected = [per_edge_walk_gain(phi, cyc + cyc[:1]).real_part()
                            for cyc in cycles]
                assert_same_scalars(ring, [batched[cyc] for cyc in cycles], expected)

    @pytest.mark.parametrize("ring", RINGS)
    def test_switch_matches_the_scalar_product(self, ring):
        rng = np.random.default_rng(31)
        for _ in range(3):
            for phi in oracle_graphs(rng, ring):
                zeta = random_switching(rng, ring, phi.n)
                switched = phi.switch(zeta)
                assert switched.graph is phi.graph and switched.tol == phi.tol
                assert_same_scalars(ring, gain_list(switched),
                                    gain_list(per_edge_switch(phi, zeta)))

    @pytest.mark.parametrize("ring", RINGS)
    def test_balanced_sampler_matches_the_potential_loop(self, ring):
        rng = np.random.default_rng(32)
        for _ in range(3):
            for phi in oracle_graphs(rng, ring):
                seed = int(rng.integers(2**32))
                got = random_balanced_gain_graph(np.random.default_rng(seed), phi.graph, ring)
                expected = per_edge_balanced(np.random.default_rng(seed), phi.graph, ring)
                assert got.graph is phi.graph and got.is_balanced()
                assert_same_scalars(ring, gain_list(got), gain_list(expected))

    @pytest.mark.parametrize("ring", RINGS)
    def test_scalar_counts(self, ring, scalar_count):
        n = 6
        rng = np.random.default_rng(33)
        phi = random_gain_graph(rng, complete_graph(n, ring).graph, ring)
        zeta = random_switching(rng, ring, n)
        gain = random_unit_scalar(rng, ring)
        counts = {}
        for name, call in (("coefficients", lambda: coefficients(phi)),
                           ("mdet_via_subgraphs", lambda: mdet_via_subgraphs(phi)),
                           ("gain_of_walk", lambda: phi.gain_of_walk([0, 1, 2, 3, 4, 5, 0])),
                           ("switch", lambda: phi.switch(zeta)),
                           ("cycle_graph", lambda: cycle_graph(n, gain)),
                           ("random_balanced_gain_graph",
                            lambda: random_balanced_gain_graph(rng, phi.graph, ring))):
            scalar_count.clear()
            call()
            counts[name] = len(scalar_count)
        assert counts == {"coefficients": 0, "mdet_via_subgraphs": 1, "gain_of_walk": 1,
                          "switch": 0, "cycle_graph": 0, "random_balanced_gain_graph": n}


class TestArrayStorage:
    def test_queries_match_per_edge_scans(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            n = int(rng.integers(0, 12))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.6)
            edges = [pairs[i] for i in rng.permutation(len(pairs)) if keep[i]]
            g = UnderlyingGraph(n, [e[::-1] if rng.random() < 0.5 else e for e in edges])
            ref = sorted(edges)
            assert g.edges == tuple(ref) and g.m == len(ref)
            assert g.edge_array.tolist() == [list(e) for e in ref]
            assert all(g.neighbors(v) == scan_neighbors(ref, v) for v in range(n))
            assert g.degrees().tolist() == [len(scan_neighbors(ref, v)) for v in range(n)]
            assert g.components() == bfs_components(n, ref)
            assert all(g.has_edge(u, v) == ((min(u, v), max(u, v)) in ref)
                       for u in range(n) for v in range(n) if u != v)
            dense = np.zeros((n, n))
            for u, v in ref:
                dense[u, v] = dense[v, u] = 1.0
            assert np.array_equal(g.adjacency(), dense)

    def test_long_path_components(self):
        n = 500
        order = np.random.default_rng(21).permutation(n)
        g = UnderlyingGraph(n + 1, list(zip(order[:-1].tolist(), order[1:].tolist())))
        assert g.components() == [sorted(order.tolist()), [n]]

    @pytest.mark.parametrize("seed", range(6))
    def test_refusals_follow_input_order(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            edges = []
            for _ in range(int(rng.integers(1, 8))):
                kind = rng.integers(0, 10)
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if kind == 0:
                    v = u
                elif kind == 1:
                    v = int(rng.choice([-1, n, 10**30]))
                elif kind == 2 and edges:
                    u, v = edges[int(rng.integers(0, len(edges)))][::-1]
                edges.append((u, v))
            expected = per_edge_refusal(n, edges)
            if expected is None:
                assert UnderlyingGraph(n, edges).edges == tuple(
                    sorted((min(e), max(e)) for e in edges))
            else:
                with pytest.raises(expected):
                    UnderlyingGraph(n, edges)

    def test_mapping_failures_keep_edge_order(self):
        g = UnderlyingGraph(3, [(0, 1), (1, 2)])
        bad, one = DualScalar.real(1, 1), DualScalar.one("real")
        with pytest.raises(NotUnitGainError):
            GainGraph(g, "real", {(0, 1): bad})
        with pytest.raises(BadParameterError):
            GainGraph(g, "real", {(1, 2): bad})
        with pytest.raises(NotUnitGainError):
            GainGraph(g, "real", {(0, 1): bad, (1, 2): one, (0, 2): one})
        with pytest.raises(RingMismatchError):
            GainGraph(g, "real", {(0, 1): one, (1, 2): DualScalar.one("complex")})

    def test_array_gains(self):
        g = UnderlyingGraph(3, [(0, 1), (1, 2)])
        std = np.array([[1, 0], [0, 1j]])
        dual = np.array([[0.5j, 0], [0, 0]])
        phi = GainGraph(g, "quaternion", (std, dual))
        assert phi.gain(1, 2) == DualScalar.quaternion(Quaternion(0, 0, 0, 1), Quaternion())
        assert phi.gain(1, 0) == DualScalar.quaternion(Quaternion(1), Quaternion(0, -0.5))
        assert std.flags.writeable and not phi.std.flags.writeable
        with pytest.raises(RingMismatchError):
            GainGraph(g, "quaternion", (std[:, 0], dual[:, 0]))
        with pytest.raises(RingMismatchError):
            GainGraph(g, "real", (std[:, 0], dual[:, 0]))
        with pytest.raises(NotUnitGainError) as exc:
            GainGraph(g, "quaternion", (std, dual + np.array([[0, 0], [0, 1j]])))
        assert exc.value.edge == (1, 2)
        with pytest.raises(NotUnitGainError):
            GainGraph(g, "complex", (np.array([1, np.nan]), np.zeros(2)))

    @pytest.mark.parametrize("ring", RINGS)
    def test_scalar_view_matches_the_arrays(self, ring):
        rng = np.random.default_rng(22)
        for phi in oracle_graphs(rng, ring):
            rebuilt = GainGraph(phi.graph, ring, (phi.std, phi.dual))
            assert list(rebuilt.gains()) == list(phi.gains())
            assert np.array_equal(rebuilt.negate().std, -phi.std)
            assert [g for _, _, g in rebuilt.negate().gains()] == [-g for _, _, g in phi.gains()]

    @pytest.mark.parametrize("ring", RINGS)
    def test_balance_certificate_matches_component_search(self, ring):
        rng = np.random.default_rng(25)
        verdicts = set()
        for _ in range(60):
            n = int(rng.integers(0, 11))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.7)
            g = UnderlyingGraph(n, [e for e, k in zip(pairs, keep) if k])
            sample = random_balanced_gain_graph if rng.random() < 0.5 else random_gain_graph
            for phi in (sample(rng, g, ring), sample(rng, g, ring).negate()):
                cert = phi.balance_certificate()
                balanced, theta, witness = component_bfs_certificate(phi)
                assert cert.balanced == balanced and cert.witness_cycle == witness
                assert_same_potentials(ring, cert.theta, theta)
                verdicts.add((balanced, g.is_connected()))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("ring", RINGS)
    def test_induced_subgraph_matches_per_edge_restriction(self, ring):
        rng = np.random.default_rng(23)
        for phi in oracle_graphs(rng, ring):
            keep = sorted(rng.choice(phi.n, size=int(rng.integers(0, phi.n + 1)),
                                     replace=False).tolist())
            sub = phi.induced_subgraph(keep)
            index = {v: i for i, v in enumerate(keep)}
            expected = {(index[u], index[v]): g for u, v, g in phi.gains()
                        if u in index and v in index}
            assert sub.n == len(keep) and dict(((u, v), g) for u, v, g in sub.gains()) == expected
            assert sub.graph.edges == tuple(sorted(expected))

    @pytest.mark.parametrize("ring", RINGS)
    def test_serialize_matches_per_edge_serializer(self, ring):
        rng = np.random.default_rng(24)
        for phi in oracle_graphs(rng, ring):
            text = per_edge_serialize(phi)
            assert serialize(phi) == text
            # parse -> serialize reproduces the document byte for byte, also
            # when it lists the records in another order
            assert serialize(parse(text)) == text
            doc = json.loads(text)
            doc["edges"].reverse()
            assert serialize(parse(json.dumps(doc))) == text
        neutral = complete_graph(5, ring)
        assert all(g == DualScalar.one(ring) for _, _, g in neutral.gains())
        assert serialize(neutral) == per_edge_serialize(neutral)

    def test_huge_vertex_count_refused_before_allocation(self):
        with pytest.raises(SizeCapExceededError, match="physical memory"):
            UnderlyingGraph(10**30)


def disjoint_union(parts, bridge=False):
    """The gain graphs side by side, relabeled in order; with `bridge`, the
    first two are joined by an edge (0, n_0) of gain 1, which closes no
    cycle."""
    gains, shift = {}, 0
    for phi in parts:
        gains.update({(u + shift, v + shift): g for u, v, g in phi.gains()})
        shift += phi.n
    if bridge:
        gains[(0, parts[0].n)] = DualScalar.one(parts[0].ring)
    return GainGraph(UnderlyingGraph(shift, list(gains)), parts[0].ring, gains)


def verdict_families(rng, ring):
    """(name, graph) pairs covering every pair of balance / antibalance
    verdicts, connected and not."""
    n = int(rng.integers(4, 9))
    tree = random_connected_graph(rng, n, int(rng.integers(0, 5)))
    odd = UnderlyingGraph(n, sorted(set(tree.edges) | {(0, 1), (1, 2), (0, 2)}))
    even = UnderlyingGraph(2 * n, [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
                           + [(0, 3), (2, 5)])
    balanced = random_balanced_gain_graph(rng, odd, ring)
    both = random_balanced_gain_graph(rng, even, ring)
    yield "balanced", balanced
    yield "antibalanced", balanced.negate()
    yield "both", both
    yield "neither", disjoint_union([balanced, balanced.negate()], bridge=True)
    yield "disconnected neither", disjoint_union([balanced, balanced.negate()])
    yield "disconnected balanced", disjoint_union([balanced, both])
    yield "disconnected both", disjoint_union([both, GainGraph(UnderlyingGraph(1), ring, {}),
                                               both])


class TestBalancePass:
    """The array pass against the per-edge DualScalar certificate."""

    @pytest.mark.parametrize("ring", RINGS)
    def test_matches_per_edge_loop(self, ring):
        rng = np.random.default_rng(26)
        seen = {}
        for _ in range(6):
            for name, phi in verdict_families(rng, ring):
                balanced, theta, witness = component_bfs_certificate(phi)
                anti = component_bfs_certificate(phi.negate())[0]
                cert = phi.balance_certificate()
                assert (cert.balanced, cert.witness_cycle) == (balanced, witness)
                assert_same_potentials(ring, cert.theta, theta)
                assert phi.is_balanced() is balanced and phi.is_antibalanced() is anti
                seen.setdefault(name, set()).add((balanced, anti))
        assert seen == {"balanced": {(True, False)}, "antibalanced": {(False, True)},
                        "both": {(True, True)}, "neither": {(False, False)},
                        "disconnected neither": {(False, False)},
                        "disconnected balanced": {(True, False)},
                        "disconnected both": {(True, True)}}

    @pytest.mark.parametrize("ring", RINGS)
    def test_potentials_of_the_negated_graph(self, ring):
        # on the same forest the pass on -phi finds theta (-1)^depth
        rng = np.random.default_rng(27)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            phi = random_gain_graph(rng, random_connected_graph(rng, n, 3), ring)
            plus, minus = phi._balance_pass(), phi.negate()._balance_pass()
            depth = []
            for v in range(n):
                d = 0
                while plus.parent[v] is not None:
                    v, d = plus.parent[v], d + 1
                depth.append(d)
            sign = ((-1.0) ** np.array(depth)).reshape((-1,) + (1,) * (phi.std.ndim - 1))
            assert minus.parent == plus.parent
            assert np.array_equal(minus.theta_std, sign * plus.theta_std)
            assert np.array_equal(minus.theta_dual, sign * plus.theta_dual)
            assert np.array_equal(minus.unbalanced, plus.unantibalanced)
            assert np.array_equal(minus.unantibalanced, plus.unbalanced)

    @pytest.mark.parametrize("ring", RINGS)
    def test_standard_part_verdicts(self, ring):
        # the standard masks are the verdicts of the standard gains alone: a
        # purely imaginary dual twist s p (a unit for every s) moves the dual
        # verdicts but not them
        rng = np.random.default_rng(29)
        width = RING_WIDTH[ring]
        broken = 0
        for _ in range(4):
            for name, phi in verdict_families(rng, ring):
                comps = np.zeros((phi.graph.m, width))
                comps[:, 1:] = rng.normal(size=(phi.graph.m, width - 1))
                twist = rings.mul(ring, phi.std, rings.from_components(ring, comps))
                bare = GainGraph(phi.graph, ring, (phi.std, np.zeros_like(phi.std)))
                plain = bare._balance_pass()
                for psi in (phi, GainGraph(phi.graph, ring, (phi.std, twist))):
                    verdicts = psi._balance_pass()
                    assert np.array_equal(verdicts.std_unbalanced, plain.unbalanced), name
                    assert np.array_equal(verdicts.std_unantibalanced, plain.unantibalanced), name
                    broken += bool(verdicts.unbalanced.any()) and not plain.unbalanced.any()
        assert (broken > 0) is (ring != "real")

    @pytest.mark.parametrize("ring", RINGS)
    def test_verdicts_build_no_scalars_and_no_graphs(self, ring, scalar_count, monkeypatch):
        rng = np.random.default_rng(28)
        unbalanced = parse(serialize(random_gain_graph(rng, complete_graph(30, ring).graph, ring)))
        balanced = parse(serialize(random_balanced_gain_graph(
            rng, complete_graph(30, ring).graph, ring)))
        built = []
        original = GainGraph.__init__
        monkeypatch.setattr(GainGraph, "__init__",
                            lambda self, *a, **k: built.append(1) or original(self, *a, **k))
        scalar_count.clear()
        for phi in (unbalanced, balanced):
            phi.is_balanced()
            phi.is_antibalanced()
        assert not unbalanced.balance_certificate().balanced
        assert len(scalar_count) == 0 and built == []
        # a balanced certificate builds its n potentials and nothing per edge
        assert balanced.balance_certificate().balanced
        assert len(scalar_count) == 30
