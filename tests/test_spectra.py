import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualgain._rings as rings
import dualgain.linalg as linalg_module
import dualgain.spectra as spectra_module
import dualgain.transcendental as transcendental
from dualgain import (
    BadParameterError,
    DualNumber,
    DualScalar,
    GainGraph,
    KIND_ADJACENCY,
    KIND_LAPLACIAN,
    Quaternion,
    RINGS,
    SizeCapExceededError,
    UnderlyingGraph,
    adjacency_matrix,
    check_interlacing,
    complete_graph,
    cycle_graph,
    cycle_spectrum_closed_form,
    gain_matrix,
    hermitian_eigendecomposition,
    laplacian_matrix,
    parse,
    path_graph,
    path_spectrum_closed_form,
    radius_report,
    serialize,
    spectral_radius,
    spectrum,
    underlying_radius,
)
from dualgain.sampling import (
    random_balanced_gain_graph,
    random_connected_graph,
    random_gain_graph,
    random_switching,
    random_unbalanced_connected,
    random_unit_scalar,
)
from dualgain.transcendental import DualAngle, dual_cos, reduce_to_complex, unit_to_angle

S2 = math.sqrt(2.0)


def spectra_close(a, b, tol=1e-9):
    return len(a) == len(b) and all(
        abs(x.std - y.std) <= tol and abs(x.dual - y.dual) <= tol
        for x, y in zip(a, b))


class TestMatrices:
    def test_balanced_triangle_entries(self, balanced_triangle):
        a = adjacency_matrix(balanced_triangle)
        assert a.entry(0, 1) == DualScalar.complex(1, -1j)
        assert a.entry(1, 0) == DualScalar.complex(1, 1j)
        assert a.entry(0, 2) == DualScalar.complex(-1j)
        assert a.entry(2, 0) == DualScalar.complex(1j)
        assert a.entry(1, 2) == DualScalar.complex(-1j, 1)
        assert a.entry(2, 1) == DualScalar.complex(1j, 1)
        assert a.entry(0, 0) == DualScalar.zero("complex")
        assert a.is_hermitian(0.0)

    def test_edgeless_graph(self):
        g = UnderlyingGraph(3, [])
        phi = GainGraph(g, "real", {})
        for mat in (adjacency_matrix(phi), laplacian_matrix(phi)):
            assert rings.max_abs(mat.ring, mat.s) == rings.max_abs(mat.ring, mat.d) == 0.0

    def test_neutral_gains_give_01_adjacency(self):
        g = UnderlyingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        phi = GainGraph(g, "real", {e: DualScalar.one("real") for e in g.edges})
        assert np.array_equal(adjacency_matrix(phi).s, g.adjacency())

    def test_laplacian_of_neutral_cycle(self):
        phi = cycle_graph(3, DualScalar.one("real"))
        lap = laplacian_matrix(phi)
        expected = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert np.allclose(lap.s, expected)
        assert np.allclose(lap.s.sum(axis=1), 0.0)


class TestGoldenSpectra:
    def test_balanced_triangle(self, balanced_triangle):
        vals = spectrum(balanced_triangle).values
        assert spectra_close(vals, [DualNumber(2), DualNumber(-1), DualNumber(-1)], 1e-9)

    def test_real_spectrum_triangle(self, real_spectrum_triangle):
        vals = spectrum(real_spectrum_triangle).values
        expected = [DualNumber(2 * math.cos((-math.pi / 4 + 2 * math.pi * j) / 3))
                    for j in (0, 1, 2)]
        expected.sort(reverse=True)
        assert spectra_close(vals, expected, 1e-12)

    def test_dual_spectrum_triangle(self, dual_spectrum_triangle):
        vals = spectrum(dual_spectrum_triangle).values
        # frozen from the closed form with theta = -pi/4 + eps
        expected = [DualNumber(1.9318516525781366, 0.17254603006834716),
                    DualNumber(-0.5176380902050415, -0.6439505508593789),
                    DualNumber(-1.4142135623730951, 0.4714045207910317)]
        assert spectra_close(vals, expected, 1e-12)

    def test_balanced_laplacian(self, balanced_triangle):
        vals = spectrum(balanced_triangle, KIND_LAPLACIAN).values
        assert spectra_close(vals, [DualNumber(3), DualNumber(3), DualNumber(0)], 1e-9)


class TestClosedForms:
    def test_path_three_adjacency(self):
        vals = path_spectrum_closed_form(3).values
        assert spectra_close(vals, [DualNumber(S2), DualNumber(0), DualNumber(-S2)], 1e-12)

    def test_path_two_laplacian(self):
        vals = path_spectrum_closed_form(2, KIND_LAPLACIAN).values
        assert spectra_close(vals, [DualNumber(2), DualNumber(0)], 1e-12)

    def test_neutral_cycle(self):
        vals = cycle_spectrum_closed_form(3, DualScalar.one("complex")).values
        assert spectra_close(vals, [DualNumber(2), DualNumber(-1), DualNumber(-1)], 1e-12)

    def test_dual_triangle_gain(self, dual_spectrum_triangle):
        q = dual_spectrum_triangle.gain_of_walk([0, 1, 2, 0])
        vals = cycle_spectrum_closed_form(3, q).values
        assert spectra_close(vals, spectrum(dual_spectrum_triangle).values, 1e-12)

    def test_laplacian_is_two_minus_adjacency(self):
        rng = np.random.default_rng(0)
        q = random_unit_scalar(rng, "complex")
        adj = cycle_spectrum_closed_form(7, q, KIND_ADJACENCY).values
        lap = cycle_spectrum_closed_form(7, q, KIND_LAPLACIAN).values
        flipped = sorted((DualNumber(2) - v for v in adj),
                         key=lambda v: (-v.std, -v.dual))
        assert spectra_close(lap, flipped, 1e-12)

    @pytest.mark.parametrize("ring", RINGS)
    def test_cycle_matches_eigensolver(self, ring):
        rng = np.random.default_rng(1)
        tol = 1e-8 if ring == "quaternion" else 1e-9
        for n in (3, 5, 8):
            phi = random_gain_graph(rng, cycle_graph(n, DualScalar.one(ring)).graph, ring)
            q = phi.gain_of_walk(list(range(n)) + [0])
            closed = cycle_spectrum_closed_form(n, q).values
            dense = spectrum(phi, with_vectors=False).values
            assert spectra_close(closed, dense, tol)

    def test_degenerate_standard_parts_with_split_dual_parts(self):
        # cycle gain 1 + i t eps has angle 0 + t eps: standard eigenvalues
        # 2cos(2 pi j / n) collide in pairs (j, n - j) while their dual
        # parts -(t/n) sin(...) differ in sign, so the supplement path must
        # resolve every cluster and the sort must agree with the closed form
        t = 0.8
        q = DualScalar.complex(1, 1j * t)
        n = 6
        phi = cycle_graph(n, q)
        dense = spectrum(phi, with_vectors=False).values
        closed = cycle_spectrum_closed_form(n, q).values
        assert spectra_close(dense, closed, 1e-12)
        stds = [round(v.std, 9) for v in dense]
        assert stds == [2.0, 1.0, 1.0, -1.0, -1.0, -2.0]
        assert dense[1].dual == pytest.approx(2 * t / n * math.sin(2 * math.pi / 6),
                                              abs=1e-12)
        assert dense[2].dual == pytest.approx(-dense[1].dual, abs=1e-12)

    @pytest.mark.parametrize("ring", RINGS)
    def test_path_matches_eigensolver(self, ring):
        rng = np.random.default_rng(2)
        for n in (2, 5, 9):
            phi = random_gain_graph(rng, path_graph(n, ring).graph, ring)
            closed = path_spectrum_closed_form(n).values
            dense = spectrum(phi, with_vectors=False).values
            assert spectra_close(closed, dense, 1e-9)


# ---------------------------------------------------------------------------
# scalar oracle of the closed forms: one DualAngle, one dual_cos and two
# DualNumbers per vertex, then a merge loop over the sorted values


def oracle_path(n, kind):
    if kind == KIND_ADJACENCY:
        vals = [DualNumber(2.0 * math.cos(math.pi * j / (n + 1)), 0.0)
                for j in range(1, n + 1)]
    else:
        vals = [DualNumber(2.0 - 2.0 * math.cos(math.pi * j / n), 0.0)
                for j in range(n)]
    vals.sort(key=lambda v: (-v.std, -v.dual))
    return vals


def oracle_cycle(n, gain, kind):
    q = gain
    if q.ring == "quaternion":
        q, _ = reduce_to_complex(q)
    elif q.ring == "real":
        q = q.widen("complex")
    theta = unit_to_angle(q)
    vals = []
    for j in range(n):
        angle = DualAngle((theta.std + 2.0 * math.pi * j) / n, theta.dual / n)
        c = dual_cos(angle)
        if kind == KIND_ADJACENCY:
            vals.append(DualNumber(2.0 * c.std, 2.0 * c.dual))
        else:
            vals.append(DualNumber(2.0 - 2.0 * c.std, -2.0 * c.dual))
    return oracle_merge(vals)


def oracle_merge(vals):
    vals = sorted(vals, key=lambda v: -v.std)
    out = []
    i = 0
    while i < len(vals):
        j = i
        while (j + 1 < len(vals)
               and vals[i].std - vals[j + 1].std <= 1e-12 * max(1.0, abs(vals[i].std))):
            j += 1
        group = vals[i:j + 1]
        mean_std = sum(v.std for v in group) / len(group)
        out.extend(sorted((DualNumber(mean_std, v.dual) for v in group),
                          key=lambda v: -v.dual))
        i = j + 1
    return out


def bits(values):
    """repr of every (std, dual): equal only when every bit, signed zeros
    included, is equal."""
    return repr([(v.std, v.dual) for v in values])


def array_bits(std, dual):
    """bits() of the spectrum held as two float arrays."""
    return repr(list(zip(std.tolist(), dual.tolist())))


def _unit(angle, dual_angle):
    """The unit dual complex number e^(i (angle + dual_angle eps))."""
    s = complex(math.cos(angle), math.sin(angle))
    return DualScalar.complex(s, 1j * dual_angle * s)


ORACLE_GAINS = {
    "real+1": DualScalar.real(1.0, 0.0),
    "real-1": DualScalar.real(-1.0, 0.0),
    "complex+1": DualScalar.complex(1, 0.5j),
    "complex-1": DualScalar.complex(-1, -0.3j),
    "complex+i": DualScalar.complex(1j, 0.5),
    "complex-i": DualScalar.complex(-1j, 0.25),
    "complex-generic": _unit(0.7, 0.4),
    "quaternion-real-std": DualScalar.quaternion(Quaternion(-1.0), Quaternion(0, 0.2, 0, 0)),
    "quaternion-i": DualScalar.quaternion(Quaternion(0, 1, 0, 0), Quaternion(0.5, 0, 0.25, 0)),
    "quaternion-generic": DualScalar.quaternion(
        Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(-0.1, 0.1, 0.3, -0.3)),
    **{f"random-{ring}-{k}": random_unit_scalar(np.random.default_rng([7, k]), ring)
       for ring in RINGS for k in range(2)},
}


class TestClosedFormOracle:
    """The array closed forms reproduce the scalar loops bit for bit."""

    @pytest.mark.parametrize("sizes, gains", [
        (range(3, 81), ORACLE_GAINS),
        ([997, 1000, 4096], ORACLE_GAINS),
        # the scalar oracle takes ~0.2 s per spectrum here: one gain per family
        ([30000], ["real-1", "complex+1", "complex+i", "quaternion-real-std",
                   "quaternion-generic", "random-complex-0"]),
    ], ids=["3-80", "997-4096", "30000"])
    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_cycle_bits(self, sizes, gains, kind):
        for n in sizes:
            for name in gains:
                gain = ORACLE_GAINS[name]
                got = cycle_spectrum_closed_form(n, gain, kind).values
                assert bits(got) == bits(oracle_cycle(n, gain, kind)), (n, name)

    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_path_bits(self, kind):
        for n in [*range(1, 81), 997, 1000, 4096, 30000]:
            got = path_spectrum_closed_form(n, kind).values
            assert bits(got) == bits(oracle_path(n, kind)), n

    def test_real_minus_one_laplacian_keeps_signed_zeros(self):
        # the hexagon with gain -1 has Laplacian eigenvalues 1, 3 and 4 in
        # degenerate pairs whose dual parts are 0.0 and -0.0; a sort that is
        # not stable on -dual swaps them
        got = cycle_spectrum_closed_form(6, DualScalar.real(-1.0, 0.0), KIND_LAPLACIAN).values
        assert bits(got) == bits(oracle_cycle(6, DualScalar.real(-1.0, 0.0), KIND_LAPLACIAN))
        assert "-0.0" in bits(got)

    def test_merge_bits_on_near_ties(self):
        # groups longer than two, chains that an anchored group must cut,
        # both signs of zero in both parts, and magnitudes on both sides of 1
        rng = np.random.default_rng(11)
        for _ in range(1500):
            n = int(rng.integers(1, 40))
            base = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1e3, -1e3])
            step = rng.choice([0.0, 3e-13, 7e-13, 1e-12, 2e-12, 1e-10]) * (1 + abs(base))
            std = base + step * rng.integers(0, 8, n) * rng.choice([1, -1], n)
            if rng.random() < 0.2:
                std = np.where(rng.random(n) < 0.5, 0.0, -0.0)
            dual = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n)
            got = spectra_module._merge_degenerate_and_sort(std, dual)
            want = oracle_merge(list(map(DualNumber, std.tolist(), dual.tolist())))
            assert array_bits(*got) == bits(want), (std.tolist(), dual.tolist())

    def test_merge_groups_are_anchored_not_chained(self):
        # each neighbour is within 1e-12 of the next, but the third is not
        # within 1e-12 of the first: two groups, not one
        std = np.array([1.0, 1.0 - 0.8e-12, 1.0 - 1.6e-12])
        got = spectra_module._merge_degenerate_and_sort(std, np.zeros(3))[0].tolist()
        assert got[0] == got[1] != got[2]
        assert got[2] == std[2]

    @pytest.mark.parametrize("gain", [DualScalar.complex(1j, 0.5),
                                      DualScalar.quaternion(Quaternion(0, 1, 0, 0),
                                                            Quaternion(0.5, 0, 0.25, 0))])
    def test_no_dual_angle_or_dual_cos_per_vertex(self, gain, monkeypatch):
        angles, cosines = [], []
        original_init = transcendental.DualAngle.__init__

        def counting_init(self, *args):
            angles.append(1)
            original_init(self, *args)

        def counting_cos(theta):
            cosines.append(1)
            return dual_cos(theta)

        monkeypatch.setattr(transcendental.DualAngle, "__init__", counting_init)
        monkeypatch.setattr(transcendental, "dual_cos", counting_cos)
        monkeypatch.setattr(spectra_module, "dual_cos", counting_cos, raising=False)
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            angles.clear()
            cycle_spectrum_closed_form(50, gain, kind)
            assert len(angles) <= 1      # the one unit_to_angle returns
            path_spectrum_closed_form(50, kind)
            assert len(angles) <= 1
        assert cosines == []


class TestSpectralRadius:
    def test_balanced_triangle(self, balanced_triangle):
        rho = spectral_radius(spectrum(balanced_triangle))
        assert rho.allclose(DualNumber(2), 1e-9)

    def test_dual_order_of_magnitudes(self, dual_spectrum_triangle):
        rho = spectral_radius(spectrum(dual_spectrum_triangle))
        assert rho.allclose(DualNumber(1.9318516525781366, 0.17254603006834716), 1e-12)

    def test_empty_raises(self):
        with pytest.raises(BadParameterError):
            spectral_radius([])


class TestInterlacing:
    def test_triangle_drop_vertex(self, balanced_triangle):
        report = check_interlacing(balanced_triangle, [0, 1])
        assert report.holds
        assert spectra_close(report.values_sub, [DualNumber(1), DualNumber(-1)], 1e-9)

    def test_full_subset_trivial(self, dual_spectrum_triangle):
        report = check_interlacing(dual_spectrum_triangle, range(3))
        assert report.holds
        assert spectra_close(report.values_full, report.values_sub, 1e-12)

    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_random_instances(self, kind):
        rng = np.random.default_rng(3)
        for trial in range(60):
            ring = RINGS[trial % 3]
            n = int(rng.integers(3, 9))
            phi = random_gain_graph(
                rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
            k = int(rng.integers(1, n))
            subset = sorted(rng.choice(n, size=k, replace=False).tolist())
            assert check_interlacing(phi, subset, kind).holds

    @pytest.mark.parametrize("subset", [[0, 3], [-1, 2], [0, 999]])
    def test_vertices_outside_the_graph_are_refused(self, dual_spectrum_triangle, subset):
        with pytest.raises(BadParameterError, match="out of range for n=3"):
            check_interlacing(dual_spectrum_triangle, subset)

    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_one_assembly_per_check(self, kind, dual_spectrum_triangle, monkeypatch):
        assembled = []
        for name in ("adjacency_matrix", "laplacian_matrix"):
            original = getattr(spectra_module, name)

            def counting(phi, original=original):
                assembled.append(phi)
                return original(phi)

            monkeypatch.setattr(spectra_module, name, counting)
        report = check_interlacing(dual_spectrum_triangle, [0, 2], kind)
        assert len(assembled) == 1
        assert report.values_full == spectrum(dual_spectrum_triangle, kind).values


class TestRadiusReports:
    def test_unbalanced_is_strict(self, real_spectrum_triangle):
        report = radius_report(real_spectrum_triangle)
        assert report.bound_holds and not report.equality
        assert report.rho_gain.std < report.rho_graph - 1e-10
        assert report.consistent

    def test_balanced_equality(self, balanced_triangle):
        report = radius_report(balanced_triangle)
        assert report.equality and report.balanced and report.consistent
        assert report.rho_graph == pytest.approx(2.0)
        assert report.delta_bound == 2.0

    def test_all_minus_cycle_laplacian_equality(self):
        # C4 with every gain -1: switching-equivalent to itself as the
        # all-(-1) graph, so the Laplacian radius meets rho_Q = 2 Delta
        g = UnderlyingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        phi = GainGraph(g, "real", {e: DualScalar.real(-1) for e in g.edges})
        report = radius_report(phi, KIND_LAPLACIAN)
        assert report.rho_graph == pytest.approx(4.0)
        assert report.delta_bound == 4.0
        assert report.equality and report.antibalanced and report.consistent
        assert report.rho_gain.allclose(DualNumber(4), 1e-9)
        # its cycle gain is (+1)**4 = 1; the closed form then gives {4,2,2,0}
        q = phi.gain_of_walk([0, 1, 2, 3, 0])
        closed = cycle_spectrum_closed_form(4, q, KIND_LAPLACIAN)
        assert spectral_radius(closed).allclose(DualNumber(4), 1e-12)

    def test_cycle_gain_minus_one_is_not_extremal(self):
        # a C4 whose total cycle gain is -1 (theta = pi) is neither balanced
        # nor antibalanced; its Laplacian radius 2 + sqrt(2) stays below 4
        phi = cycle_graph(4, DualScalar.real(-1))
        report = radius_report(phi, KIND_LAPLACIAN)
        assert not report.equality and report.consistent
        assert report.rho_gain.allclose(DualNumber(2 + S2), 1e-9)

    def test_dual_twisted_cycle_meets_the_bound(self):
        # standard part balanced, dual part not: the graph is unbalanced, yet
        # rho = 2 + 0 eps = rho(G), because x^H A_d x = 0 for the real Perron
        # vector when the dual gains are purely imaginary; the standard-part
        # rule predicts that, the paper's "iff balanced" does not
        gain = DualScalar.complex(1, 0.3j)
        phi = cycle_graph(8, gain)
        report = radius_report(phi)
        assert report.equality and not report.balanced and not report.antibalanced
        assert report.equality_predicted is True and report.consistent is True
        assert report.paper_rule_holds is False
        closed = spectral_radius(cycle_spectrum_closed_form(8, gain))
        dense = spectral_radius(spectrum(phi))
        for rho in (closed, dense, report.rho_gain):
            assert rho.allclose(DualNumber(underlying_radius(phi), 0.0), 1e-12)

    def test_random_bounds(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            ring = RINGS[trial % 3]
            n = int(rng.integers(3, 9))
            phi = random_gain_graph(
                rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
            for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                report = radius_report(phi, kind)
                assert report.bound_holds
                assert report.delta_bound_holds
                assert report.rho_graph <= report.delta_bound + 1e-12
                assert report.consistent is not False


class TestSpectralInvariants:
    def test_switching_invariance(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            ring = RINGS[trial % 3]
            n = int(rng.integers(3, 8))
            phi = random_gain_graph(
                rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
            switched = phi.switch(random_switching(rng, ring, n))
            for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                assert spectra_close(spectrum(phi, kind, with_vectors=False).values,
                                     spectrum(switched, kind, with_vectors=False).values,
                                     1e-9)

    def test_balanced_matches_underlying(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            ring = RINGS[trial % 3]
            n = int(rng.integers(3, 9))
            graph = random_connected_graph(rng, n, int(rng.integers(0, 4)))
            phi = random_balanced_gain_graph(rng, graph, ring)
            for kind, mat in ((KIND_ADJACENCY, graph.adjacency()),
                              (KIND_LAPLACIAN, np.diag(graph.degrees().astype(float))
                               - graph.adjacency())):
                vals = spectrum(phi, kind, with_vectors=False).values
                w = np.sort(np.linalg.eigvalsh(mat))[::-1]
                assert all(abs(v.dual) <= 1e-9 for v in vals)
                assert np.allclose([v.std for v in vals], w, atol=1e-9)

    def test_unbalanced_radius_strictly_smaller(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            ring = RINGS[trial % 3]
            phi = random_unbalanced_connected(rng, int(rng.integers(4, 9)), ring)
            rho = spectral_radius(spectrum(phi, with_vectors=False))
            assert rho.std < underlying_radius(phi) - 1e-10

    def test_rayleigh_identity(self):
        rng = np.random.default_rng(8)
        for ring in RINGS:
            n = 6
            phi = random_gain_graph(rng, random_connected_graph(rng, n, 3), ring)
            a = adjacency_matrix(phi)
            spec = spectrum(phi)
            for lam, x in zip(spec.values, spec.vectors):
                quad = x.dot(a @ x)
                assert quad.real_part().allclose(lam, 1e-9)
                # and the edge-sum form of the same quadratic form
                acc = DualNumber.zero()
                for u, v, g in phi.gains():
                    term = x.entry(u).conjugate() * g * x.entry(v)
                    acc = acc + DualNumber(2, 0) * term.real_part()
                assert acc.allclose(lam, 1e-9)

    def test_laplacian_standard_parts_nonnegative(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            ring = RINGS[trial % 3]
            phi = random_gain_graph(
                rng, random_connected_graph(rng, int(rng.integers(2, 9)), 2), ring)
            vals = spectrum(phi, KIND_LAPLACIAN, with_vectors=False).values
            assert all(v.std >= -1e-10 for v in vals)

    def test_balanced_connected_laplacian_one_zero(self):
        rng = np.random.default_rng(10)
        for ring in RINGS:
            graph = random_connected_graph(rng, 7, 3)
            phi = random_balanced_gain_graph(rng, graph, ring)
            vals = spectrum(phi, KIND_LAPLACIAN, with_vectors=False).values
            zeros = [v for v in vals if abs(v.std) <= 1e-9]
            assert len(zeros) == 1 and abs(zeros[0].dual) <= 1e-9
            assert sum(1 for v in vals if v.std > 1e-9) == len(vals) - 1

    def test_disconnected_laplacian_zero_multiplicity(self):
        rng = np.random.default_rng(12)
        # two balanced components: one Laplacian zero per component
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = UnderlyingGraph(6, edges)
        phi = random_balanced_gain_graph(rng, g, "complex")
        vals = spectrum(phi, KIND_LAPLACIAN, with_vectors=False).values
        zeros = [v for v in vals if abs(v.std) <= 1e-9 and abs(v.dual) <= 1e-9]
        assert len(zeros) == 2

    def test_negation_reverses_spectrum(self):
        rng = np.random.default_rng(11)
        for ring in RINGS:
            phi = random_gain_graph(rng, random_connected_graph(rng, 6, 2), ring)
            vals = spectrum(phi, with_vectors=False).values
            neg = spectrum(phi.negate(), with_vectors=False).values
            flipped = sorted((-v for v in vals), key=lambda v: (-v.std, -v.dual))
            assert spectra_close(neg, flipped, 1e-9)
            # the antibalance identity -lambda_n(phi) = lambda_1(-phi)
            assert (-vals[-1]).allclose(neg[0], 1e-9)


# ---------------------------------------------------------------------------
# whole-array assembly against the per-edge assembler it replaced


def per_edge_gain_matrix(phi, kind):
    n, ring = phi.n, phi.ring
    s, d = rings.zeros(ring, (n, n)), rings.zeros(ring, (n, n))
    for u, v, g in phi.gains():
        rings.put(ring, s, (u, v), g.std)
        rings.put(ring, d, (u, v), g.dual)
        gc = g.conjugate()
        rings.put(ring, s, (v, u), gc.std)
        rings.put(ring, d, (v, u), gc.dual)
    if kind == KIND_LAPLACIAN:
        s, d = -s, -d
        for v, deg in enumerate(phi.graph.degrees()):
            if ring == "quaternion":
                s[v, v, 0] += deg
            else:
                s[v, v] += deg
    return s, d


class TestArrayAssembly:
    @pytest.mark.parametrize("ring", RINGS)
    def test_bit_identical_to_per_edge_assembly(self, ring):
        rng = np.random.default_rng(30)
        for _ in range(4):
            n = int(rng.integers(3, 10))
            graphs = [
                random_gain_graph(rng, random_connected_graph(rng, n, int(rng.integers(0, 6))), ring),
                random_gain_graph(rng, complete_graph(n, ring).graph, ring),
                cycle_graph(n, DualScalar.one(ring)),
                cycle_graph(n, random_unit_scalar(rng, ring)),
                GainGraph(UnderlyingGraph(n, []), ring, {}),
            ]
            for phi in graphs:
                for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                    mat = gain_matrix(phi, kind)
                    s, d = per_edge_gain_matrix(phi, kind)
                    # bytes, so signed zeros count as well
                    assert mat.s.tobytes() == s.tobytes() and mat.d.tobytes() == d.tobytes()

    def test_assembly_hands_its_arrays_over_without_a_copy(self, monkeypatch):
        phi = cycle_graph(6, DualScalar.complex(1j, 0.5))
        expected = [(m.s.copy(), m.d.copy())
                    for m in (adjacency_matrix(phi), laplacian_matrix(phi))]

        def refuse(*args, **kwargs):
            raise AssertionError("assembled parts were copied")

        monkeypatch.setattr(linalg_module, "_as_part", refuse)
        for mat, (s, d) in zip((adjacency_matrix(phi), laplacian_matrix(phi)), expected):
            assert np.array_equal(mat.s, s) and np.array_equal(mat.d, d)
            assert not mat.s.flags.writeable and not mat.d.flags.writeable
        # the public constructor still copies what its caller passes
        monkeypatch.undo()
        s = np.eye(3)
        mat = spectra_module.DualMatrix("real", s)
        s[0, 0] = 7.0
        assert mat.s[0, 0] == 1.0

    @pytest.mark.parametrize("ring", RINGS)
    def test_load_and_assembly_build_no_scalars(self, ring, scalar_count):
        rng = np.random.default_rng(31)
        text = serialize(random_gain_graph(rng, complete_graph(60, ring).graph, ring))
        scalar_count.clear()
        phi = parse(text)
        adjacency_matrix(phi)
        laplacian_matrix(phi)
        assert phi.graph.m == 1770 and len(scalar_count) == 0
        # scalars are built from the arrays only where a caller asks for them
        phi.gain(0, 1)
        assert len(scalar_count) == 1
        scalar_count.clear()
        list(phi.gains())
        assert len(scalar_count) == 1770


class TestRadiusReportRoute:
    """radius_report takes the extremal route: no full eigendecomposition,
    no per-edge scalars, and nothing beyond numpy."""

    @staticmethod
    def graphs(ring):
        rng = np.random.default_rng(32)
        yield random_gain_graph(rng, random_connected_graph(rng, 30, 40), ring)
        yield random_balanced_gain_graph(rng, complete_graph(12, ring).graph, ring)
        yield cycle_graph(10, DualScalar.one(ring))
        yield GainGraph(UnderlyingGraph(4), ring, {})

    @pytest.mark.parametrize("ring", RINGS)
    def test_no_eigendecomposition(self, ring, monkeypatch):
        cases = [(phi, kind) for phi in self.graphs(ring)
                 for kind in (KIND_ADJACENCY, KIND_LAPLACIAN)]
        dense = [spectral_radius(spectrum(phi, kind, with_vectors=False)) for phi, kind in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("radius_report ran a full eigendecomposition")

        monkeypatch.setattr(linalg_module, "_eigensystem", refuse)
        monkeypatch.setattr(rings, "eigh", refuse)
        for (phi, kind), rho in zip(cases, dense):
            assert radius_report(phi, kind).rho_gain.allclose(rho, 1e-9)

    @pytest.mark.parametrize("ring", RINGS)
    def test_builds_no_scalar_per_edge(self, ring, scalar_count):
        rng = np.random.default_rng(33)
        for make in (random_gain_graph, random_balanced_gain_graph):
            phi = parse(serialize(make(rng, complete_graph(40, ring).graph, ring)))
            scalar_count.clear()
            for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                radius_report(phi, kind)
            assert len(scalar_count) == 0

    @pytest.mark.parametrize("ring", RINGS)
    def test_matches_the_dense_route(self, ring):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(1, 16))
            extra = int(rng.integers(0, 2 * n))
            phi = random_gain_graph(rng, random_connected_graph(rng, n, extra), ring)
            for graph in (phi, phi.negate(), random_balanced_gain_graph(rng, phi.graph, ring)):
                for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                    report = radius_report(graph, kind)
                    dense = spectral_radius(spectrum(graph, kind, with_vectors=False))
                    assert abs(report.rho_gain.std - dense.std) <= 1e-12 * max(1.0, dense.std)
                    assert abs(report.rho_gain.dual - dense.dual) <= 1e-9
                    assert report.balanced is graph.balance_certificate().balanced
                    assert report.antibalanced is graph.negate().balance_certificate().balanced

    @pytest.mark.parametrize("ring", RINGS)
    def test_traverses_the_graph_once(self, ring, monkeypatch):
        # connectivity and both balance verdicts of both kinds share one BFS forest
        reads = []
        csr = UnderlyingGraph._adjacency_lists

        def counted(graph):
            reads.append(graph)
            return csr(graph)

        monkeypatch.setattr(UnderlyingGraph, "_adjacency_lists", counted)
        rng = np.random.default_rng(35)
        phi = parse(serialize(random_gain_graph(rng, random_connected_graph(rng, 20, 10), ring)))
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            radius_report(phi, kind)
        assert reads == [phi.graph]

    def test_imports_no_scipy_and_no_numpy_random(self):
        code = ("import sys; from dualgain import cycle_graph, DualScalar, radius_report; "
                "radius_report(cycle_graph(9, DualScalar.complex(1j))); "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


class TestArraySpectrum:
    """A spectrum holds two read-only float arrays; dual numbers are built
    only when a caller reads `values`."""

    @staticmethod
    def spectra(ring):
        rng = np.random.default_rng(36)
        phi = random_gain_graph(rng, random_connected_graph(rng, 12, 8), ring)
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            yield spectrum(phi, kind, with_vectors=False)
            yield spectrum(phi, kind)
            yield path_spectrum_closed_form(9, kind)
            yield cycle_spectrum_closed_form(8, random_unit_scalar(rng, ring), kind)

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_values_only_spectra_build_no_dual_number(self, ring, kind, dual_number_count):
        rng = np.random.default_rng(37)
        phi = random_gain_graph(rng, random_connected_graph(rng, 30, 40), ring)
        gain = random_unit_scalar(rng, ring)
        for spec in (spectrum(phi, kind, with_vectors=False),
                     spectrum(GainGraph(UnderlyingGraph(0), ring, {}), kind, with_vectors=False),
                     path_spectrum_closed_form(1000, kind),
                     cycle_spectrum_closed_form(1000, gain, kind)):
            spec.to_dict()
        assert len(dual_number_count) == 0

    @pytest.mark.parametrize("ring", RINGS)
    def test_parts_refuse_writes_and_values_match_them(self, ring):
        for spec in self.spectra(ring):
            for part in (spec.std, spec.dual):
                assert part.dtype == np.float64 and part.shape == (len(spec),)
                with pytest.raises(ValueError):
                    part[0] = 1.0
            assert bits(spec.values) == array_bits(spec.std, spec.dual)
            assert spec.values is spec.values
            assert repr(spec.to_dict()) == repr({"kind": spec.kind, "values": [
                {"std": v.std, "dual": v.dual} for v in spec.values]})

    @pytest.mark.parametrize("ring", RINGS)
    def test_vectors_follow_the_values(self, ring):
        rng = np.random.default_rng(38)
        phi = random_gain_graph(rng, random_connected_graph(rng, 10, 6), ring)
        spec = spectrum(phi)
        pairs = hermitian_eigendecomposition(adjacency_matrix(phi))
        assert bits(spec.values) == bits([p.value for p in pairs])
        for x, pair in zip(spec.vectors, pairs):
            assert x.s.tobytes() == pair.vector.s.tobytes()
            assert x.d.tobytes() == pair.vector.d.tobytes()


class TestRealFormRoute:
    """The dtype of the standard solve: float64 where a complex or quaternion
    graph at or above the floor switches to real standard gains, complex
    everywhere else."""

    @staticmethod
    def eigh_dtypes(monkeypatch, call):
        """The dtypes np.linalg.eigh receives while `call` runs."""
        seen, eigh = [], np.linalg.eigh

        def recording(a, *args, **kwargs):
            seen.append(a.dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        call()
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return seen

    @staticmethod
    def off_balance(rng, ring, angle, tol):
        """A balanced graph whose standard gains are each turned by up to
        `angle` radians, kept under the unit tolerance `tol`."""
        phi = random_balanced_gain_graph(rng, random_connected_graph(rng, 70, 100), ring)
        turn = np.exp(1j * angle * rng.uniform(-1, 1, phi.graph.m))
        if ring == "quaternion":
            turn = np.stack((turn, np.zeros_like(turn)), axis=-1)
        return GainGraph(phi.graph, ring, (rings.mul(ring, phi.std, turn), phi.dual), tol)

    @pytest.mark.parametrize("ring", ["complex", "quaternion"])
    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_real_solve_above_the_floor(self, ring, kind, monkeypatch):
        rng = np.random.default_rng(40)
        n = spectra_module._REAL_FORM_FLOOR
        balanced = random_balanced_gain_graph(rng, random_connected_graph(rng, n, n), ring)
        for phi in (balanced, balanced.negate()):     # balanced, then antibalanced
            for with_vectors in (False, True):
                seen = self.eigh_dtypes(
                    monkeypatch, lambda: spectrum(phi, kind, with_vectors=with_vectors))
                assert seen[0] == np.float64 and seen.count(np.float64) == 1
            seen = self.eigh_dtypes(monkeypatch, lambda: check_interlacing(phi, range(9), kind))
            assert seen.count(np.float64) == 2

    @pytest.mark.parametrize("ring", ["complex", "quaternion"])
    def test_complex_solve_elsewhere(self, ring, monkeypatch):
        rng = np.random.default_rng(41)
        unbalanced = random_gain_graph(rng, random_connected_graph(rng, 70, 100), ring)
        small = random_balanced_gain_graph(rng, random_connected_graph(rng, 20, 20), ring)
        loose = self.off_balance(rng, ring, 1e-6, 1e-3)
        assert loose.is_balanced()
        big = random_balanced_gain_graph(rng, random_connected_graph(rng, 70, 100), ring)
        calls = [lambda phi=phi, kind=kind: spectrum(phi, kind)
                 for phi in (unbalanced, small, loose) for kind in (KIND_ADJACENCY,
                                                                   KIND_LAPLACIAN)]
        calls.append(lambda: check_interlacing(loose, range(30)))
        calls.append(lambda: hermitian_eigendecomposition(adjacency_matrix(big)))
        for call in calls:
            seen = self.eigh_dtypes(monkeypatch, call)
            assert seen and np.float64 not in seen

    @pytest.mark.parametrize("ring", ["complex", "quaternion"])
    def test_loose_balance_keeps_the_general_spectrum(self, ring, monkeypatch):
        # balanced within tol = 1e-3 only: the spectrum is the general
        # route's to the bit, not moved by up to that tolerance
        phi = self.off_balance(np.random.default_rng(42), ring, 1e-6, 1e-3)
        got = spectrum(phi)
        monkeypatch.setattr(spectra_module, "_REAL_FORM_FLOOR", phi.n + 1)
        want = spectrum(phi)
        assert array_bits(got.std, got.dual) == array_bits(want.std, want.dual)


class TestSupplementRoute:
    """The dense solves behind a spectrum: one per cluster size for the
    supplements that are not scalar, none for zero dual parts."""

    @staticmethod
    def solves(monkeypatch, call):
        """The names of the np.linalg solvers called while `call` runs."""
        seen = []
        for name in ("eigh", "eigvalsh"):
            def recording(a, *args, _solver=getattr(np.linalg, name), _name=name, **kwargs):
                seen.append(_name)
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        call()
        monkeypatch.undo()
        return seen

    @pytest.mark.parametrize("ring", ["complex", "quaternion"])
    def test_twisted_cycle_solves_its_pairs_in_one_stack(self, ring, monkeypatch):
        # 99 degenerate standard pairs whose dual parts split: the standard
        # solve, then one stacked solve of all 99 supplements
        rng = np.random.default_rng(43)
        gain = (DualScalar.complex(1, 0.5j) if ring == "complex" else
                DualScalar.quaternion(Quaternion(1), Quaternion(0, 0.3, 0.5, 0.2)))
        phi = cycle_graph(200, gain).switch(random_switching(rng, ring, 200))
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            assert self.solves(monkeypatch, lambda: spectrum(phi, kind)) == ["eigh", "eigh"]

    @pytest.mark.parametrize("ring", ["complex", "quaternion"])
    def test_balanced_complete_supplement_is_scalar(self, ring, monkeypatch):
        # one standard eigenvalue of multiplicity n - 1 whose supplement is
        # zero to rounding: the standard solve alone
        phi = random_balanced_gain_graph(np.random.default_rng(44),
                                         complete_graph(64, ring).graph, ring)
        assert phi.dual.any()
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            assert self.solves(monkeypatch, lambda: spectrum(phi, kind)) == ["eigh"]

    def test_real_values_only_take_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(45)
        phi = random_gain_graph(rng, random_connected_graph(rng, 70, 100), "real")
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            seen = self.solves(monkeypatch, lambda: spectrum(phi, kind, with_vectors=False))
            assert seen == ["eigvalsh"]
            assert self.solves(monkeypatch, lambda: spectrum(phi, kind)) == ["eigh"]


def real_graph(n, edges):
    """A real gain graph with neutral gains on the given edges."""
    graph = UnderlyingGraph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return GainGraph(graph, "real", (np.ones(graph.m), np.zeros(graph.m)))


def dense_root(phi, kind):
    """rho(A) or rho(D + A) from a dense eigvalsh."""
    a = phi.graph.adjacency()
    if kind == KIND_LAPLACIAN:
        a += np.diag(phi.graph.degrees().astype(float))
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def path_edges(n, start=0):
    return [(start + i, start + i + 1) for i in range(n - 1)]


def complete_edges(n, start=0):
    return [(start + i, start + j) for i in range(n) for j in range(i + 1, n)]


class TestPerronRoute:
    """underlying_radius from _PERRON_FLOOR vertices on: certified Lanczos over
    the edge arrays, or the dense eigvalsh where it certifies nothing."""

    FLOOR = spectra_module._PERRON_FLOOR

    @staticmethod
    def routes(monkeypatch, phi, kind):
        """underlying_radius(phi, kind) and what _perron_root returned on the
        way (nothing when it did not run)."""
        seen, perron = [], spectra_module._perron_root

        def recording(*args):
            seen.append(perron(*args))
            return seen[-1]

        monkeypatch.setattr(spectra_module, "_perron_root", recording)
        rho = underlying_radius(phi, kind)
        monkeypatch.undo()
        return rho, seen

    @staticmethod
    def eigh_sizes(monkeypatch):
        """The orders of the matrices np.linalg.eigh receives from now on:
        the tridiagonal T_k of each convergence test of the Perron route."""
        sizes, eigh = [], np.linalg.eigh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        return sizes

    def assert_agrees(self, monkeypatch, phi, certified=True):
        """Both kinds agree with the dense root; from the floor on the route
        ran once and certified, or did not (False), or either (None)."""
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            rho, seen = self.routes(monkeypatch, phi, kind)
            want = dense_root(phi, kind)
            assert abs(rho - want) <= 1e-12 * max(1.0, want), (kind, rho, want)
            if phi.n < self.FLOOR:
                assert seen == []
            else:
                assert len(seen) == 1, kind
                assert certified is None or (seen[0] is not None) is certified, kind

    @pytest.mark.parametrize("n", [FLOOR, 3 * FLOOR, 4 * spectra_module._PERRON_STEPS + 100])
    def test_paths_use_up_the_budget(self, n, monkeypatch):
        # the Krylov space of the all-ones vector on a path is its n / 2
        # mirror-symmetric vectors, more than the budget of min(300, n / 4)
        # steps: the run ends there uncertified and the dense route answers
        phi = real_graph(n, path_edges(n))
        budget = min(spectra_module._PERRON_STEPS, n // spectra_module._PERRON_SHARE)
        sizes = self.eigh_sizes(monkeypatch)
        for signless in (False, True):
            sizes.clear()
            assert spectra_module._perron_root(phi.graph, signless) is None
            assert max(sizes) == budget
        monkeypatch.undo()
        self.assert_agrees(monkeypatch, phi, certified=False)

    def test_path_within_the_budget_ends_at_its_krylov_dimension(self, monkeypatch):
        # with every vector orthogonalised against the whole basis, the run
        # breaks down exactly at the n / 2 mirror-symmetric dimensions
        n = 2 * self.FLOOR + 40
        phi = real_graph(n, path_edges(n))
        monkeypatch.setattr(spectra_module, "_PERRON_SHARE", 1)
        sizes = self.eigh_sizes(monkeypatch)
        for signless in (False, True):
            sizes.clear()
            assert spectra_module._perron_root(phi.graph, signless) is not None
            assert sizes[-1] == n // 2
        monkeypatch.undo()
        self.assert_agrees(monkeypatch, phi, certified=False)

    def test_budget_is_a_share_of_n(self, monkeypatch):
        # a sparse graph at the floor needs more than its n / 4 steps: the
        # dense route answers; with n steps allowed the route certifies
        rng = np.random.default_rng(46)
        n = self.FLOOR
        phi = real_graph(n, random_connected_graph(rng, n, n // 2).edge_array)
        sizes = self.eigh_sizes(monkeypatch)
        assert spectra_module._perron_root(phi.graph, False) is None
        assert max(sizes) == n // spectra_module._PERRON_SHARE
        monkeypatch.setattr(spectra_module, "_PERRON_SHARE", 1)
        sizes.clear()
        rho = spectra_module._perron_root(phi.graph, False)
        assert max(sizes) > n // 4 and abs(rho - dense_root(phi, KIND_ADJACENCY)) <= 1e-12 * rho

    @pytest.mark.parametrize("n", [FLOOR, FLOOR + 57])
    def test_regular_graphs_take_one_step(self, n, monkeypatch):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        circulant = [(i, (i + s) % n) for i in range(n) for s in (1, 2, 5)]
        for edges in (cycle, circulant):
            phi = real_graph(n, edges)
            sizes = self.eigh_sizes(monkeypatch)
            for signless in (False, True):
                sizes.clear()
                degree = len(edges) // n * 2
                assert spectra_module._perron_root(phi.graph, signless) == pytest.approx(
                    degree * (2 if signless else 1), rel=1e-14)
                assert sizes == [1]
            monkeypatch.undo()
            self.assert_agrees(monkeypatch, phi)

    def test_stars_complete_and_complete_bipartite(self, monkeypatch):
        n = self.FLOOR + 3
        a = 37
        bipartite = [(i, j) for i in range(a) for j in range(a, n)]
        for edges in ([(0, i) for i in range(1, n)], complete_edges(n), bipartite):
            self.assert_agrees(monkeypatch, real_graph(n, edges))

    def test_random_graphs_at_and_below_the_floor(self, monkeypatch):
        # average degree about 3 and 6; the sparser graphs at the floor may
        # need more steps than the budget (test_budget_is_a_share_of_n)
        rng = np.random.default_rng(46)
        for n in (self.FLOOR - 1, self.FLOOR, 2 * self.FLOOR):
            for extra in (n // 2, 2 * n):
                graph = random_connected_graph(rng, n, extra)
                certified = None if extra < n and n < 2 * self.FLOOR else True
                self.assert_agrees(monkeypatch, real_graph(n, graph.edge_array), certified)

    def test_disconnected_unions(self, monkeypatch):
        rng = np.random.default_rng(47)
        n = self.FLOOR
        # a later component holds rho; the path's Ritz entries vanish and
        # its row sums (at most 2) bound its root
        self.assert_agrees(monkeypatch, real_graph(n + 30, path_edges(n) + complete_edges(30, n)))
        # two copies of one graph: x > 0 on both, each bracketed on its own
        tree = random_connected_graph(rng, n, n).edge_array
        self.assert_agrees(monkeypatch, real_graph(2 * n, np.concatenate((tree, tree + n))))
        # the star's largest row sum (n - 1, or 2 (n - 1) signless) exceeds
        # the root of the later K_100, its own root does not: not
        # certified, so the dense route answers
        star = [(0, i) for i in range(1, n)]
        self.assert_agrees(monkeypatch, real_graph(n + 100, star + complete_edges(100, n)),
                           certified=False)

    def test_isolated_vertices_edgeless_graphs_and_one_vertex(self, monkeypatch):
        rng = np.random.default_rng(48)
        graph = random_connected_graph(rng, self.FLOOR, self.FLOOR)
        self.assert_agrees(monkeypatch, real_graph(self.FLOOR + 15, graph.edge_array))
        for n in (1, self.FLOOR - 1, self.FLOOR):
            phi = real_graph(n, [])
            self.assert_agrees(monkeypatch, phi)
            assert underlying_radius(phi, KIND_LAPLACIAN) == 0.0

    def test_basis_stays_within_its_memory_share(self, monkeypatch):
        # with memory for 20 rows the run stops there uncertified, and the
        # dense route is refused before it allocates
        rng = np.random.default_rng(52)
        n = 2 * self.FLOOR
        phi = real_graph(n, random_connected_graph(rng, n, n).edge_array)
        monkeypatch.setattr(rings, "_physical_memory", lambda: 20 * 8 * n * rings._DENSE_ARRAYS)
        sizes = self.eigh_sizes(monkeypatch)
        assert spectra_module._perron_root(phi.graph, False) is None and max(sizes) == 20
        with pytest.raises(SizeCapExceededError):
            underlying_radius(phi)

    @pytest.mark.parametrize("shift", [1e-4, -1e-4, 1e-9, -1e-9])
    def test_bracket_refuses_a_wrong_ritz_value(self, shift, monkeypatch):
        # a top Ritz value moved off the Perron root, with the residual test
        # still passing, must not be returned: the dense route answers.  A
        # move of 1e-9 theta (theta 5.5 and 17.4 here) is past _PERRON_WIDTH
        rng = np.random.default_rng(49)
        phi = real_graph(2 * self.FLOOR, random_connected_graph(rng, 2 * self.FLOOR, 400).edge_array)
        eigh = np.linalg.eigh

        def moved(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            w[-1] *= 1.0 + shift
            return w, v

        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            want = dense_root(phi, kind)
            monkeypatch.setattr(np.linalg, "eigh", moved)
            rho, seen = self.routes(monkeypatch, phi, kind)
            assert seen == [None] and abs(rho - want) <= 1e-12 * want

    @pytest.mark.parametrize("ring", RINGS)
    def test_radius_report_takes_one_dense_solve(self, ring, monkeypatch):
        # the gain matrix's eigvalsh (its 2n embedding for quaternions) and
        # nothing dense for rho(G)
        rng = np.random.default_rng(50)
        n = self.FLOOR
        phi = random_gain_graph(rng, random_connected_graph(rng, n, 2 * n), ring)
        width = 2 * n if ring == "quaternion" else n
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            want = dense_root(phi, kind)
            seen, eigvalsh = [], np.linalg.eigvalsh

            def recording(a, *args, **kwargs):
                seen.append(a.shape)
                return eigvalsh(a, *args, **kwargs)

            def refuse(graph):
                raise AssertionError("a dense A(G) was built")

            monkeypatch.setattr(np.linalg, "eigvalsh", recording)
            monkeypatch.setattr(UnderlyingGraph, "adjacency", refuse)
            report = radius_report(phi, kind)
            monkeypatch.undo()
            assert [s for s in seen if s[0] >= n] == [(width, width)]
            assert abs(report.rho_graph - want) <= 1e-12 * want
            # below the floor rho(G) takes its own dense solve
            monkeypatch.setattr(spectra_module, "_PERRON_FLOOR", n + 1)
            monkeypatch.setattr(np.linalg, "eigvalsh", recording)
            seen.clear()
            radius_report(phi, kind)
            monkeypatch.undo()
            assert [s for s in seen if s[0] >= n] == [(width, width), (n, n)]


class TestAssembledMatrices:
    """Matrices that _assemble builds are Hermitian to the bit, so spectra,
    interlacing checks and radius reports neither scan nor symmetrize them;
    a caller's matrix keeps both."""

    @staticmethod
    def graphs(ring):
        rng = np.random.default_rng(51)
        yield random_gain_graph(rng, random_connected_graph(rng, 30, 40), ring)
        yield cycle_graph(7, random_unit_scalar(rng, ring))
        yield GainGraph(UnderlyingGraph(5), ring, {})
        n = spectra_module._REAL_FORM_FLOOR
        balanced = random_balanced_gain_graph(rng, random_connected_graph(rng, n, n), ring)
        yield balanced
        yield balanced.negate()

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("kind", [KIND_ADJACENCY, KIND_LAPLACIAN])
    def test_assembled_defect_is_exactly_zero(self, ring, kind):
        forms = 0
        for phi in self.graphs(ring):
            matrix, theta = spectra_module._real_form(phi, kind)
            forms += theta is not None
            for m in (matrix, gain_matrix(phi, kind)):
                assert m.hermitian_defect() == 0.0
        assert forms == (0 if ring == "real" else 2)

    @pytest.mark.parametrize("ring", RINGS)
    def test_no_scan_and_no_symmetrize(self, ring, monkeypatch):
        parts, scans, touched = [], [], []
        makers = ((spectra_module, "_assemble"), (linalg_module, "principal_submatrix"))

        def keeping(make):
            def wrapper(*args):
                matrix = make(*args)
                parts.extend((matrix.s, matrix.d))
                return matrix
            return wrapper

        def scan(matrix):
            scans.append(matrix.shape)
            return 0.0

        def symmetrize(r, arr, _sym=rings.symmetrize):
            touched.extend(arr.shape[:2] for part in parts if arr is part)
            return _sym(r, arr)

        for phi in self.graphs(ring):
            n = phi.n
            for module, name in makers:
                monkeypatch.setattr(module, name, keeping(getattr(module, name)))
            monkeypatch.setattr(linalg_module.DualMatrix, "hermitian_defect", scan)
            monkeypatch.setattr(rings, "symmetrize", symmetrize)
            for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                spectrum(phi, kind)
                spectrum(phi, kind, with_vectors=False)
                check_interlacing(phi, range(n - 1), kind)
                radius_report(phi, kind)
            # five matrices per kind, each part of each seen
            assert scans == [] and touched == [] and len(parts) == 2 * 2 * 5
            marked = adjacency_matrix(phi)
            hermitian_eigendecomposition(marked)
            assert scans == [] and touched == []
            # a caller's matrix and the result of arithmetic are unmarked:
            # one scan and one symmetrize of each part per solve
            for caller in (linalg_module.DualMatrix(ring, marked.s, marked.d), -marked):
                parts.extend((caller.s, caller.d))
                hermitian_eigendecomposition(caller)
                linalg_module._radius(caller)
            assert scans == [(n, n)] * 4 and touched == [(n, n)] * 8
            monkeypatch.undo()
            for seen in (parts, scans, touched):
                seen.clear()
