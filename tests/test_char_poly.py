import itertools
import math

import numpy as np
import pytest

from dualgain import (
    DualNumber,
    DualScalar,
    GainGraph,
    NotACycleError,
    RINGS,
    SizeCapExceededError,
    UnderlyingGraph,
    adjacency_matrix,
    char_poly_from_eigenvalues,
    coefficients,
    cycle_graph,
    enumerate_basic_subgraphs,
    enumerate_cycles,
    mdet_via_subgraphs,
    moore_determinant,
    real_gain_of_cycle,
    spectrum,
)
from dualgain.sampling import random_connected_graph, random_gain_graph

S2 = math.sqrt(2.0)


def brute_force_basic_subgraphs(graph, i):
    """Oracle: scan all edge subsets; keep those whose components are all
    single edges or cycles and that cover exactly i vertices."""
    found = set()
    edges = list(graph.edges)
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            deg = {}
            for u, v in subset:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if len(deg) != i:
                continue
            # classify components
            adj = {v: [] for v in deg}
            for u, v in subset:
                adj[u].append(v)
                adj[v].append(u)
            seen = set()
            ok = True
            for start in deg:
                if start in seen:
                    continue
                comp, stack = set(), [start]
                while stack:
                    x = stack.pop()
                    if x in comp:
                        continue
                    comp.add(x)
                    stack.extend(adj[x])
                seen |= comp
                n_edges = sum(1 for u, v in subset if u in comp and v in comp)
                degs = sorted(len(adj[x]) for x in comp)
                is_edge = len(comp) == 2 and n_edges == 1
                is_cycle = len(comp) >= 3 and n_edges == len(comp) and all(d == 2 for d in degs)
                if not (is_edge or is_cycle):
                    ok = False
                    break
            if ok:
                found.add(frozenset(subset))
    return found


def circulant(n, jumps):
    return UnderlyingGraph(n, [(i, (i + k) % n) for i in range(n) for k in jumps])


def basic_to_edge_set(basic):
    out = set(basic.edges)
    for cyc in basic.cycles:
        for u, v in zip(cyc, cyc[1:] + (cyc[0],)):
            out.add((min(u, v), max(u, v)))
    return frozenset(out)


class TestRealGainOfCycle:
    def test_balanced_triangle(self, balanced_triangle):
        r = real_gain_of_cycle(balanced_triangle, (0, 1, 2))
        assert r.value.allclose(DualNumber.one(), 1e-12)

    def test_dual_triangle_oracle(self, dual_spectrum_triangle):
        r = real_gain_of_cycle(dual_spectrum_triangle, (0, 1, 2))
        oracle = dual_spectrum_triangle.gain_of_walk([0, 1, 2, 0]).real_part()
        assert r.value.allclose(oracle, 1e-15)
        assert r.value.allclose(DualNumber(S2 / 2, S2 / 2), 1e-12)

    def test_rotation_and_reversal_invariance(self):
        rng = np.random.default_rng(1)
        phi = random_gain_graph(rng, cycle_graph(6, DualScalar.one("quaternion")).graph,
                                "quaternion")
        base = real_gain_of_cycle(phi, (0, 1, 2, 3, 4, 5)).value
        for cyc in [(2, 3, 4, 5, 0, 1), (0, 5, 4, 3, 2, 1), (4, 3, 2, 1, 0, 5)]:
            assert real_gain_of_cycle(phi, cyc).value.allclose(base, 1e-14)

    def test_not_a_cycle(self, balanced_triangle):
        with pytest.raises(NotACycleError):
            real_gain_of_cycle(balanced_triangle, (0, 1))
        with pytest.raises(NotACycleError):
            real_gain_of_cycle(balanced_triangle, (0, 1, 1))


class TestEnumeration:
    def test_triangle_cases(self):
        g = UnderlyingGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert enumerate_basic_subgraphs(g, 1) == []
        two = enumerate_basic_subgraphs(g, 2)
        assert sorted(b.edges for b in two) == [((0, 1),), ((0, 2),), ((1, 2),)]
        three = enumerate_basic_subgraphs(g, 3)
        assert len(three) == 1
        assert three[0].cycles == ((0, 1, 2),)
        assert three[0].component_count == 1 and three[0].cycle_count == 1

    def test_cycle_listing(self):
        g = UnderlyingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        cycles = enumerate_cycles(g)
        assert cycles == [(0, 1, 2), (0, 1, 2, 3), (0, 2, 3)]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 6, int(rng.integers(1, 5)))
        for i in range(7):
            got = {basic_to_edge_set(b) for b in enumerate_basic_subgraphs(g, i)}
            assert got == brute_force_basic_subgraphs(g, i)
            assert len(got) == len(enumerate_basic_subgraphs(g, i))

    def test_size_cap(self):
        g = UnderlyingGraph(13, [])
        with pytest.raises(SizeCapExceededError):
            enumerate_basic_subgraphs(g, 0)


class TestCoefficients:
    def test_balanced_triangle_polynomial(self, balanced_triangle):
        cs = coefficients(balanced_triangle)
        # x**3 - 3x - 2 = (x - 2)(x + 1)**2, from the spectrum {2, -1, -1}
        oracle = char_poly_from_eigenvalues(
            [DualNumber(2), DualNumber(-1), DualNumber(-1)])
        assert all(c.allclose(o, 1e-12) for c, o in zip(cs, oracle))
        assert cs[0].allclose(DualNumber(0), 1e-12)
        assert cs[1].allclose(DualNumber(-3), 1e-12)
        assert cs[2].allclose(DualNumber(-2), 1e-12)

    def test_first_coefficient_always_zero(self):
        rng = np.random.default_rng(5)
        phi = random_gain_graph(rng, random_connected_graph(rng, 6, 3), "complex")
        assert coefficients(phi)[0] == DualNumber(0)

    def test_forest_matching_counts(self):
        # star K_{1,3}: one center, three leaves; i-matchings: 1, 3
        g = UnderlyingGraph(4, [(0, 1), (0, 2), (0, 3)])
        phi = GainGraph(g, "real", {e: DualScalar.real(1) for e in g.edges})
        cs = coefficients(phi)
        assert cs[0] == DualNumber(0)
        assert cs[1].allclose(DualNumber(-3), 1e-12)   # (-1)^1 * #1-matchings
        assert cs[2] == DualNumber(0)
        assert cs[3] == DualNumber(0)                  # no 2-matching in a star

    @pytest.mark.parametrize("ring", RINGS)
    def test_matches_eigenvalues(self, ring):
        rng = np.random.default_rng(6)
        graphs = []
        for _ in range(8):
            n = int(rng.integers(2, 8))
            graphs.append(random_gain_graph(rng, random_connected_graph(
                rng, n, int(rng.integers(0, 3))), ring))
        # circulants C_n(1, 2) take the check past n = 7
        graphs += [random_gain_graph(rng, circulant(n, (1, 2)), ring) for n in (9, 10)]
        for phi in graphs:
            cs = coefficients(phi)
            eig = spectrum(phi, with_vectors=False).values
            expected = char_poly_from_eigenvalues(eig)
            assert all(c.allclose(e, 1e-8) for c, e in zip(cs, expected))
            signed_cn = -cs[-1] if phi.n % 2 else cs[-1]
            assert mdet_via_subgraphs(phi).real_part().allclose(signed_cn, 1e-9)


class TestMdetViaSubgraphs:
    def test_balanced_triangle(self, balanced_triangle):
        via = mdet_via_subgraphs(balanced_triangle)
        assert via.allclose(DualScalar.complex(2), 1e-12)
        direct = moore_determinant(adjacency_matrix(balanced_triangle))
        assert via.allclose(direct, 1e-12)

    def test_single_edge(self):
        g = UnderlyingGraph(2, [(0, 1)])
        phi = GainGraph(g, "complex", {(0, 1): DualScalar.complex(1j, 0.5)})
        assert mdet_via_subgraphs(phi).allclose(DualScalar.complex(-1), 1e-12)
        assert moore_determinant(adjacency_matrix(phi)).allclose(
            DualScalar.complex(-1), 1e-12)

    def test_star_has_no_spanning_basic_subgraph(self):
        g = UnderlyingGraph(4, [(0, 1), (0, 2), (0, 3)])
        phi = GainGraph(g, "real", {e: DualScalar.real(1) for e in g.edges})
        assert mdet_via_subgraphs(phi) == DualScalar.zero("real")

    @pytest.mark.parametrize("ring", RINGS)
    def test_three_routes_agree(self, ring):
        rng = np.random.default_rng(9)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            phi = random_gain_graph(rng, random_connected_graph(
                rng, n, int(rng.integers(0, 3))), ring)
            a = adjacency_matrix(phi)
            via = mdet_via_subgraphs(phi).real_part()
            direct = moore_determinant(a).real_part()
            prod = DualNumber.one()
            for v in spectrum(phi, with_vectors=False).values:
                prod = prod * v
            assert via.allclose(direct, 1e-8)
            assert via.allclose(prod, 1e-8)
