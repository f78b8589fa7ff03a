"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every test prints PASS with a summary statistic once its
assertions clear.
"""

import math
import time

import numpy as np

from dualgain import _rings as rings
from dualgain import spectra as spectra_module
from dualgain import (
    DualNumber,
    DualScalar,
    GainGraph,
    KIND_ADJACENCY,
    KIND_LAPLACIAN,
    Quaternion,
    RINGS,
    UnderlyingGraph,
    adjacency_matrix,
    char_poly_from_eigenvalues,
    check_interlacing,
    coefficients,
    complete_graph,
    cycle_graph,
    cycle_spectrum_closed_form,
    dual_geq,
    gain_matrix,
    mdet_via_subgraphs,
    moore_determinant,
    path_graph,
    path_spectrum_closed_form,
    radius_report,
    reduce_to_complex,
    spectral_radius,
    spectrum,
    underlying_radius,
)
from dualgain.sampling import (
    random_balanced_gain_graph,
    random_connected_graph,
    random_dual_quaternion,
    random_gain_graph,
    random_scalar,
    random_switching,
    random_unbalanced_connected,
)

S2 = math.sqrt(2.0)


def max_spectrum_error(a, b):
    assert len(a) == len(b)
    return max(max(abs(x.std - y.std), abs(x.dual - y.dual)) for x, y in zip(a, b))


def complex_triangle(g01, g02, g12):
    graph = UnderlyingGraph(3, [(0, 1), (0, 2), (1, 2)])
    return GainGraph(graph, "complex", {(0, 1): g01, (0, 2): g02, (1, 2): g12})


def test_criterion_1_example_reproduction():
    """Printed spectra of the three reference triangles, |delta| <= 5e-4."""
    t0 = time.perf_counter()
    phi1 = complex_triangle(DualScalar.complex(1, -1j), DualScalar.complex(-1j),
                            DualScalar.complex(-1j, 1))
    phi2 = complex_triangle(DualScalar.complex(1, -1j),
                            DualScalar.complex((1 - 1j) / S2),
                            DualScalar.complex(-1j, 1))
    phi3 = complex_triangle(DualScalar.complex(1, -1j),
                            DualScalar.complex((1 - 1j) / S2),
                            DualScalar.complex(-1j, 2))
    printed = {
        "phi1": [(2.0, 0.0), (-1.0, 0.0), (-1.0, 0.0)],
        "phi2": [(1.9319, 0.0), (-0.5176, 0.0), (-1.4142, 0.0)],
        "phi3": [(1.9319, 0.1725), (-0.5176, -0.6440), (-1.4142, 0.4714)],
    }
    worst = 0.0
    for name, phi in (("phi1", phi1), ("phi2", phi2), ("phi3", phi3)):
        vals = spectrum(phi, with_vectors=False).values
        for got, (std, dual) in zip(vals, printed[name]):
            worst = max(worst, abs(got.std - std), abs(got.dual - dual))
    elapsed = time.perf_counter() - t0
    assert worst <= 5e-4
    assert elapsed < 1.0
    print(f"criterion 1 PASS: example spectra reproduced, "
          f"max deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_closed_forms_match_eigensolver():
    """Cycles and paths, n in 3..12, 20 random complex gains per n, 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(3, 13):
        for _ in range(20):
            cyc = random_gain_graph(rng, cycle_graph(n, DualScalar.one("complex")).graph,
                                    "complex")
            q = cyc.gain_of_walk(list(range(n)) + [0])
            pat = random_gain_graph(rng, path_graph(n, "complex").graph, "complex")
            for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                worst = max(worst, max_spectrum_error(
                    cycle_spectrum_closed_form(n, q, kind).values,
                    spectrum(cyc, kind, with_vectors=False).values))
                worst = max(worst, max_spectrum_error(
                    path_spectrum_closed_form(n, kind).values,
                    spectrum(pat, kind, with_vectors=False).values))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"criterion 2 PASS: 400 cycle + 400 path spectra, "
          f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_quaternion_cycles():
    """Quaternion cycle closed form (through the complex reduction) against
    the embedding eigensolver, 1e-8."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        cyc = random_gain_graph(rng, cycle_graph(n, DualScalar.one("quaternion")).graph,
                                "quaternion")
        q = cyc.gain_of_walk(list(range(n)) + [0])
        assert q.is_unit(1e-9)
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            worst = max(worst, max_spectrum_error(
                cycle_spectrum_closed_form(n, q, kind).values,
                spectrum(cyc, kind, with_vectors=False).values))
    assert worst <= 1e-8
    print(f"criterion 3 PASS: 20 quaternion cycles, max error {worst:.2e}")


def test_criterion_4_balance_theorem():
    """Balanced graphs reproduce the underlying spectra (1e-9, vanishing
    dual parts); unbalanced connected graphs have strictly smaller radius."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(100):
        ring = RINGS[trial % 3]
        n = int(rng.integers(3, 11))
        graph = random_connected_graph(rng, n, int(rng.integers(0, 4)))
        phi = random_balanced_gain_graph(rng, graph, ring)
        for kind, mat in ((KIND_ADJACENCY, graph.adjacency()),
                          (KIND_LAPLACIAN,
                           np.diag(graph.degrees().astype(float)) - graph.adjacency())):
            vals = spectrum(phi, kind, with_vectors=False).values
            w = np.sort(np.linalg.eigvalsh(mat))[::-1]
            worst = max(worst, max(abs(v.std - s) for v, s in zip(vals, w)))
            worst = max(worst, max(abs(v.dual) for v in vals))
    assert worst <= 1e-9
    margin = math.inf
    for trial in range(100):
        ring = RINGS[trial % 3]
        n = int(rng.integers(4, 11))
        phi = random_unbalanced_connected(rng, n, ring)
        gap = underlying_radius(phi) - spectral_radius(
            spectrum(phi, with_vectors=False)).std
        margin = min(margin, gap)
    assert margin > 1e-10
    print(f"criterion 4 PASS: 100 balanced (max error {worst:.2e}), "
          f"100 unbalanced (min radius gap {margin:.2e})")


def test_criterion_5_interlacing():
    """200 random (graph, subset) pairs, both kinds, zero violations."""
    rng = np.random.default_rng(505)
    checked = 0
    for trial in range(200):
        ring = RINGS[trial % 3]
        n = int(rng.integers(2, 9))
        phi = random_gain_graph(
            rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
        k = int(rng.integers(1, n)) if n > 1 else 1
        subset = sorted(rng.choice(n, size=k, replace=False).tolist())
        for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
            report = check_interlacing(phi, subset, kind)
            assert report.holds, (ring, n, subset, kind)
            checked += len(report.upper_ok) + len(report.lower_ok)
    print(f"criterion 5 PASS: 200 pairs, {checked} inequalities, zero violations")


def test_criterion_6_radius_bounds():
    """Bounds on 200 random instances plus constructed equality cases."""
    rng = np.random.default_rng(606)
    for trial in range(200):
        ring = RINGS[trial % 3]
        n = int(rng.integers(2, 9))
        phi = random_gain_graph(
            rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
        adj = radius_report(phi, KIND_ADJACENCY)
        lap = radius_report(phi, KIND_LAPLACIAN)
        assert adj.rho_gain.std <= adj.rho_graph + 1e-12 <= adj.delta_bound + 1e-9
        assert lap.rho_gain.std <= lap.rho_graph + 1e-12 <= lap.delta_bound + 1e-9
    # equality cases: balanced regular (adjacency), and its negation,
    # which is switching-equivalent to the all-(-1) graph (Laplacian)
    flagged = 0
    for n in (4, 6, 8):
        graph = cycle_graph(n, DualScalar.one("complex")).graph
        balanced = random_balanced_gain_graph(rng, graph, "complex")
        adj = radius_report(balanced, KIND_ADJACENCY)
        assert adj.equality and adj.consistent, n
        lap = radius_report(balanced.negate(), KIND_LAPLACIAN)
        assert lap.equality and lap.consistent, n
        flagged += 2
    print(f"criterion 6 PASS: 200 bound instances, {flagged} equality cases flagged")


def dual_twisted(rng, graph, ring, sign):
    """Standard gains all `sign`, dual gains random and purely imaginary (so
    every gain is a unit), then a random switching: the standard part is
    balanced (sign 1) or antibalanced (sign -1), the dual part generically
    neither."""
    def gain():
        if ring == "real":
            return DualScalar.real(sign, 0.0)
        if ring == "complex":
            return DualScalar.complex(sign, 1j * rng.normal())
        return DualScalar.quaternion(Quaternion(sign), Quaternion(0.0, *rng.normal(size=3)))

    phi = GainGraph(graph, ring, {e: gain() for e in graph.edges})
    return phi.switch(random_switching(rng, ring, graph.n))


def test_criterion_6_standard_part_rule():
    """Radius equality follows the standard part on dual-twisted graphs:
    adjacency equality iff it is balanced or antibalanced, Laplacian
    equality iff it is antibalanced, with rho = rho(G) + 0 eps."""
    rng = np.random.default_rng(616)
    reports = paper_fails = 0
    for ring in RINGS:
        for n in range(4, 14):
            graphs = {"complete": complete_graph(n, ring).graph,
                      "cycle": cycle_graph(n, DualScalar.one(ring)).graph,
                      "random": random_connected_graph(rng, n, int(rng.integers(1, n)))}
            for name, graph in graphs.items():
                # connected G is bipartite iff its adjacency spectrum is symmetric
                w = np.linalg.eigvalsh(graph.adjacency())
                bipartite = bool(abs(w[0] + w[-1]) <= 1e-9)
                for sign in (1.0, -1.0):
                    phi = dual_twisted(rng, graph, ring, sign)
                    for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                        report = radius_report(phi, kind)
                        expected = (kind == KIND_ADJACENCY or sign < 0 or bipartite)
                        assert report.consistent is True, (ring, n, name, sign, kind)
                        assert report.equality is expected, (ring, n, name, sign, kind)
                        if expected:
                            assert abs(report.rho_gain.dual) <= 1e-9
                        reports += 1
                        paper_fails += report.paper_rule_holds is False
    assert paper_fails > 0
    print(f"criterion 6 PASS: {reports} dual-twisted reports consistent, "
          f"the paper's balance rule fails on {paper_fails}")


def dual_twist(rng, phi):
    """phi with every dual gain d moved to d + s p, p random and purely
    imaginary: the gains stay units and the standard part stays as it is,
    while the dual part of a balanced phi becomes generically unbalanced."""
    m = phi.graph.m
    if phi.ring == "complex":
        p = 1j * rng.normal(size=m)
    else:
        x, y, z = rng.normal(size=(3, m))
        p = np.stack((1j * x, y + 1j * z), axis=-1)
    return GainGraph(phi.graph, phi.ring,
                     (phi.std, phi.dual + rings.mul(phi.ring, phi.std, p)))


def standard_part_families(rng, ring):
    """(family, graph) pairs whose standard part switches to real gains, and
    last a disconnected union of a standard-balanced and a
    standard-unbalanced component, which does not."""
    cycle_gain = (DualScalar.complex(1, 0.5j) if ring == "complex" else
                  DualScalar.quaternion(Quaternion(1), Quaternion(0, 0.3, 0.5, 0.2)))
    for n in (7, 12, 20):
        graph = random_connected_graph(rng, n, int(rng.integers(n // 2, 2 * n)))
        yield "twisted balanced", dual_twist(rng, random_balanced_gain_graph(rng, graph, ring))
        yield "antibalanced", dual_twisted(rng, graph, ring, -1.0)
        yield "balanced complete", random_balanced_gain_graph(
            rng, complete_graph(n, ring).graph, ring)
        yield "twisted cycle", cycle_graph(n, cycle_gain).switch(random_switching(rng, ring, n))
        yield "tree", random_gain_graph(rng, random_connected_graph(rng, n, 0), ring)
    left = dual_twist(rng, random_balanced_gain_graph(rng, random_connected_graph(rng, 6, 4),
                                                      ring))
    right = random_unbalanced_connected(rng, 8, ring)
    edges = np.concatenate((left.graph.edge_array, right.graph.edge_array + 6))
    yield "union", GainGraph(UnderlyingGraph(14, edges), ring,
                             tuple(np.concatenate(parts) for parts in
                                   ((left.std, right.std), (left.dual, right.dual))))


def eigen_residuals(a, spec):
    """Max |A x - x lambda| over the eigenpairs of `spec`, standard and dual
    parts."""
    ring = a.ring
    xs, xd = (np.stack([getattr(x, part) for x in spec.vectors], axis=1) for part in "sd")
    ls, ld = ((v[:, None] if ring == "quaternion" else v) for v in (spec.std, spec.dual))
    rs = rings.matmul(ring, a.s, xs) - xs * ls
    rd = rings.matmul(ring, a.s, xd) + rings.matmul(ring, a.d, xs) - xd * ls - xs * ld
    return rings.max_abs(ring, rs), rings.max_abs(ring, rd)


def test_criterion_6_standard_part_real_form(monkeypatch):
    """Complex and quaternion graphs whose standard part switches to real
    gains, solved in real arithmetic (floor at 1) against the general route
    (floor above n): values within 1e-12 max(1, rho(G)), residual maxima at
    most 10x the general route's or 1e-14 max(1, rho(G)), vectors equal
    where the eigenvalue is simple, and equal interlacing verdicts."""
    rng = np.random.default_rng(626)

    def both_routes(phi, solve):
        monkeypatch.setattr(spectra_module, "_REAL_FORM_FLOOR", 1)
        real = solve()
        monkeypatch.setattr(spectra_module, "_REAL_FORM_FLOOR", phi.n + 1)
        return real, solve()

    cases, worst_value, worst_vector = 0, 0.0, 0.0
    for ring in ("complex", "quaternion"):
        for family, phi in standard_part_families(rng, ring):
            for kind in (KIND_ADJACENCY, KIND_LAPLACIAN):
                monkeypatch.setattr(spectra_module, "_REAL_FORM_FLOOR", 1)
                theta = spectra_module._real_form(phi, kind)[1]
                assert (theta is None) == (family == "union"), (ring, family, kind)
                scale = max(1.0, underlying_radius(phi, kind))
                real, general = both_routes(phi, lambda: spectrum(phi, kind))
                value = max(np.abs(real.std - general.std).max(),
                            np.abs(real.dual - general.dual).max())
                assert value <= 1e-12 * scale, (ring, family, kind, value)
                a = gain_matrix(phi, kind)
                for r, g in zip(eigen_residuals(a, real), eigen_residuals(a, general)):
                    assert r <= max(10 * g, 1e-14 * scale), (ring, family, kind, r, g)
                for i, (x, y) in enumerate(zip(real.vectors, general.vectors)):
                    near = ((np.abs(general.std - general.std[i]) <= 1e-6)
                            & (np.abs(general.dual - general.dual[i]) <= 1e-6))
                    if near.sum() == 1:
                        gap = max(rings.max_abs(ring, x.s - y.s), rings.max_abs(ring, x.d - y.d))
                        worst_vector = max(worst_vector, gap)
                        assert gap <= 1e-8, (ring, family, kind, i, gap)
                subset = sorted(rng.choice(phi.n, size=int(rng.integers(1, phi.n)),
                                           replace=False).tolist())
                reports = both_routes(phi, lambda: check_interlacing(phi, subset, kind))
                assert len({(r.upper_ok, r.lower_ok, r.holds) for r in reports}) == 1
                assert reports[0].holds
                worst_value = max(worst_value, value / scale)
                cases += theta is not None
    print(f"criterion 6 PASS: {cases} real-form spectra, values within "
          f"{worst_value:.1e} max(1, rho(G)), simple vectors within {worst_vector:.1e}")


def test_criterion_7_determinant_and_coefficients():
    """Moore determinant three-way agreement (n <= 6) and coefficient
    theorem against elementary symmetric functions (n <= 7), 1e-8."""
    rng = np.random.default_rng(707)
    worst_det = 0.0
    for trial in range(50):
        ring = RINGS[trial % 3]
        n = int(rng.integers(2, 7))
        phi = random_gain_graph(
            rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
        direct = moore_determinant(adjacency_matrix(phi)).real_part()
        via = mdet_via_subgraphs(phi).real_part()
        prod = DualNumber.one()
        for v in spectrum(phi, with_vectors=False).values:
            prod = prod * v
        for x, y in ((direct, via), (direct, prod), (via, prod)):
            worst_det = max(worst_det, abs(x.std - y.std), abs(x.dual - y.dual))
    assert worst_det <= 1e-8
    worst_coeff = 0.0
    for trial in range(30):
        ring = RINGS[trial % 3]
        n = int(rng.integers(2, 8))
        phi = random_gain_graph(
            rng, random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)
        cs = coefficients(phi)
        expected = char_poly_from_eigenvalues(spectrum(phi, with_vectors=False).values)
        worst_coeff = max(worst_coeff,
                          max(max(abs(c.std - e.std), abs(c.dual - e.dual))
                              for c, e in zip(cs, expected)))
    assert worst_coeff <= 1e-8
    print(f"criterion 7 PASS: determinants agree to {worst_det:.2e}, "
          f"coefficients to {worst_coeff:.2e}")


def test_criterion_8_quaternion_reduction():
    """500 dual quaternions, degenerate branches included, 1e-12."""
    rng = np.random.default_rng(808)
    kinds = ("generic", "generic", "real_std", "complex_form", "dual_real",
             "negative_i_axis")
    worst = 0.0
    for trial in range(500):
        q = random_dual_quaternion(rng, kinds[trial % len(kinds)])
        a, u = reduce_to_complex(q)
        assert u.is_unit(1e-12)
        residual = a.widen("quaternion") - u.conjugate() * q * u
        worst = max(worst, max(abs(c) for part in residual.components() for c in part))
        re_gap = a.real_part() - q.real_part()
        worst = max(worst, abs(re_gap.std), abs(re_gap.dual))
        im_a = (a - a.real_part().to_scalar("complex")).magnitude()
        im_q = (q - q.real_part().to_scalar("quaternion")).magnitude()
        worst = max(worst, abs(im_a.std - im_q.std), abs(im_a.dual - im_q.dual))
    assert worst <= 1e-12
    print(f"criterion 8 PASS: 500 reductions, worst deviation {worst:.2e}")


def test_criterion_9_scalar_laws():
    """1000 randomized checks of each ring law at 1e-12."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(1000):
        ring = RINGS[trial % 3]
        a = random_scalar(rng, ring)
        b = random_scalar(rng, ring)
        prod_mag = (a * b).magnitude()
        mag_prod = a.magnitude() * b.magnitude()
        worst = max(worst, abs(prod_mag.std - mag_prod.std),
                    abs(prod_mag.dual - mag_prod.dual))
        lhs = (a + b).magnitude()
        rhs = a.magnitude() + b.magnitude()
        assert dual_geq(rhs, lhs, 1e-12)
        re_ab = (a * b).real_part()
        re_ba = (b * a).real_part()
        worst = max(worst, abs(re_ab.std - re_ba.std), abs(re_ab.dual - re_ba.dual))
        # inverse law on a well-scaled appreciable draw
        c = random_scalar(rng, ring)
        while not c.is_appreciable(1e-3):
            c = random_scalar(rng, ring)
        unit_gap = c * c.inverse() - DualScalar.one(ring)
        worst = max(worst, max(abs(x) for part in unit_gap.components() for x in part))
    assert worst <= 1e-12
    print(f"criterion 9 PASS: 1000 checks per law, worst deviation {worst:.2e}")
