import itertools
import math
from collections import Counter

import numpy as np
import pytest

import dualgain._rings as rings
import dualgain.linalg as linalg_module
from dualgain import (
    BadParameterError,
    DualMatrix,
    DualNumber,
    DualScalar,
    DualVector,
    NotHermitianError,
    Quaternion,
    RINGS,
    RingMismatchError,
    ShapeMismatchError,
    SingularStandardPartError,
    SizeCapExceededError,
    hermitian_eigendecomposition,
    moore_determinant,
)
from dualgain._rings import _CLUSTER_GAP
from dualgain.gain_graph import GainGraph, UnderlyingGraph
from dualgain.graph_io import complete_graph, cycle_graph
from dualgain.linalg import _eigensystem, _moore_terms, _radius, principal_submatrix
from dualgain.sampling import (
    random_balanced_gain_graph,
    random_connected_graph,
    random_gain_graph,
    random_hermitian_matrix,
    random_scalar,
    random_unit_scalar,
)
from dualgain.spectra import adjacency_matrix, gain_matrix, spectral_radius, spectrum

I, J, K = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)


def random_matrix(rng, ring, n):
    return DualMatrix.from_scalars(
        [[random_scalar(rng, ring) for _ in range(n)] for _ in range(n)])


class TestMatmulInverse:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        for ring in RINGS:
            a = random_matrix(rng, ring, 4)
            eye = DualMatrix(ring, rings.eye(ring, 4))
            assert (eye @ a).allclose(a, 1e-12)
            assert (a @ eye).allclose(a, 1e-12)

    def test_nilpotent_dual_block(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        plus = DualMatrix("real", np.eye(2), n)
        minus = DualMatrix("real", np.eye(2), -n)
        assert (plus @ minus).allclose(DualMatrix("real", rings.eye("real", 2)), 1e-15)
        # inverse of I + N eps is I - N eps
        assert plus.inverse().allclose(minus, 1e-15)

    def test_quaternion_one_by_one(self):
        a = DualMatrix.from_scalars([[DualScalar.quaternion(I)]])
        b = DualMatrix.from_scalars([[DualScalar.quaternion(J)]])
        assert (a @ b).entry(0, 0) == DualScalar.quaternion(K)

    def test_diagonal_inverse(self):
        d = DualMatrix("real", np.diag([2.0, 4.0]))
        assert d.inverse().allclose(DualMatrix("real", np.diag([0.5, 0.25])), 1e-15)

    def test_singular_standard_part_raises(self):
        a = DualMatrix("real", np.zeros((2, 2)), np.eye(2))
        with pytest.raises(SingularStandardPartError):
            a.inverse()

    @pytest.mark.parametrize("ring", RINGS)
    def test_inverse_round_trip(self, ring):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_matrix(rng, ring, 4)
            eye = DualMatrix(ring, rings.eye(ring, 4))
            assert (a @ a.inverse()).allclose(eye, 1e-9)
            assert (a.inverse() @ a).allclose(eye, 1e-9)

    def test_similarity_transports_eigenpairs(self):
        rng = np.random.default_rng(20)
        for ring in RINGS:
            a = random_hermitian_matrix(rng, ring, 5)
            p = random_matrix(rng, ring, 5)
            b = (p @ a) @ p.inverse()
            for pair in hermitian_eigendecomposition(a):
                px = p @ pair.vector
                resid = (b @ px) - px.scale_right(pair.value.to_scalar(ring))
                assert rings.max_abs(ring, resid.s) <= 1e-8
                assert rings.max_abs(ring, resid.d) <= 1e-7


def assert_valid_eigensystem(a, pairs, tol_s=1e-9, tol_d=1e-8):
    ring = a.ring
    n = a.n_rows
    assert len(pairs) == n
    # standard parts sorted descending under the dual order
    values = [p.value for p in pairs]
    assert all(values[i] >= values[i + 1] for i in range(n - 1))
    for p in pairs:
        resid = (a @ p.vector) - p.vector.scale_right(p.value.to_scalar(ring))
        assert rings.max_abs(ring, resid.s) <= tol_s
        assert rings.max_abs(ring, resid.d) <= tol_d
        # unit norm including the dual part
        assert p.vector.norm().allclose(DualNumber.one(), 1e-9)
        # eigenvalues are dual numbers: the quadratic form has no imaginary
        # or vector residue beyond rounding
        quad = p.vector.dot(a @ p.vector)
        off = (quad - quad.real_part().to_scalar(ring)).magnitude()
        assert off.std <= 1e-10 and abs(off.dual) <= 1e-9
    # orthonormal standard parts
    for i in range(n):
        for j in range(i + 1, n):
            dot = pairs[i].vector.dot(pairs[j].vector)
            assert abs(dot.std) <= 1e-9
            assert abs(dot.dual) <= 1e-8


def test_parts_are_frozen():
    a = DualMatrix("complex", rings.eye("complex", 3))
    with pytest.raises(ValueError):
        a.s[0, 0] = 5.0
    x = DualVector("real", np.ones(3))
    with pytest.raises(ValueError):
        x.d[1] = 2.0


class TestDualVector:
    def test_appreciable_norm_branch(self):
        x = DualVector.from_scalars([DualScalar.complex(3), DualScalar.complex(4j, 1)])
        # sum |x_i|^2 = 25 + 2 Re(conj(4j) * 1) eps = 25 + 0 eps
        assert x.norm().allclose(DualNumber(5.0, 0.0), 1e-12)
        y = DualVector.from_scalars([DualScalar.complex(3, 1), DualScalar.complex(4, 0)])
        assert y.norm().allclose(DualNumber(5.0, 3.0 / 5.0), 1e-12)

    def test_infinitesimal_norm_branch(self):
        x = DualVector.from_scalars([DualScalar.complex(0, 3), DualScalar.complex(0, 4j)])
        assert not x.is_appreciable()
        assert x.norm() == DualNumber(0.0, 5.0)

    def test_dot_conjugates_left(self):
        x = DualVector.from_scalars([DualScalar.quaternion(I)])
        y = DualVector.from_scalars([DualScalar.quaternion(J)])
        assert x.dot(y) == DualScalar.quaternion(-I * J)


def random_parts(rng, ring, shape):
    """Random standard and dual parts of the given value shape."""
    def part():
        if ring == "real":
            return rng.normal(size=shape)
        full = shape + ((2,) if ring == "quaternion" else ())
        return rng.normal(size=full) + 1j * rng.normal(size=full)
    return part(), part()


def random_container(rng, cls, ring, n=3):
    return cls(ring, *random_parts(rng, ring, (n,) * (1 if cls is DualVector else 2)))


def assert_read_only(x):
    assert not x.s.flags.writeable and not x.d.flags.writeable


CONTAINERS = [DualVector, DualMatrix]


class TestDualContainer:
    """The construction, scalar bridges and elementwise algebra that
    DualVector and DualMatrix share."""

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("cls", CONTAINERS)
    def test_elementwise_algebra(self, cls, ring):
        rng = np.random.default_rng(41)
        x, y = random_container(rng, cls, ring), random_container(rng, cls, ring)
        for got, s, d in ((x + y, x.s + y.s, x.d + y.d), (x - y, x.s - y.s, x.d - y.d),
                          (-x, -x.s, -x.d)):
            assert type(got) is cls and got.ring == ring
            assert np.array_equal(got.s, s) and np.array_equal(got.d, d)
            assert_read_only(got)
        # a - b = -(b - a) and a - b = a + (-b)
        assert (x - y).allclose(-(y - x), 0.0)
        assert (x - y).allclose(x + (-y), 1e-15)

    def test_len_and_repr(self):
        x = DualVector("complex", np.ones(3))
        assert len(x) == x.n == 3
        assert repr(x) == "DualVector('complex', n=3)"
        a = DualMatrix("quaternion", np.zeros((2, 3, 2)))
        assert a.shape == (2, 3) and a.n_rows == 2 and a.n_cols == 3
        assert repr(a) == "DualMatrix('quaternion', shape=(2, 3))"

    @pytest.mark.parametrize("cls", CONTAINERS)
    def test_allclose(self, cls):
        rng = np.random.default_rng(42)
        x = random_container(rng, cls, "complex")
        assert x.allclose(cls("complex", x.s, x.d), 0.0)
        shift = np.full(x.s.shape, 1e-6)
        assert x.allclose(cls("complex", x.s + shift, x.d), 1e-5)
        assert not x.allclose(cls("complex", x.s + shift, x.d), 1e-7)
        assert not x.allclose(cls("complex", x.s, x.d + shift), 1e-7)
        assert not x.allclose(cls("real", x.s.real, x.d.real))
        assert not x.allclose(random_container(rng, cls, "complex", n=4))

    @pytest.mark.parametrize("ring", RINGS)
    def test_entry_inverts_from_scalars(self, ring):
        rng = np.random.default_rng(43)
        entries = [random_scalar(rng, ring) for _ in range(6)]
        x = DualVector.from_scalars(entries)
        assert x.n == 6 and [x.entry(i) for i in range(6)] == entries
        grid = [entries[:3], entries[3:]]
        a = DualMatrix.from_scalars(grid)
        assert a.shape == (2, 3)
        assert [[a.entry(i, j) for j in range(3)] for i in range(2)] == grid
        assert_read_only(x)
        assert_read_only(a)

    def test_from_scalars_refusals(self):
        one, other = DualScalar.real(1.0), DualScalar.complex(1.0)
        with pytest.raises(ShapeMismatchError, match="empty vector needs an explicit ring"):
            DualVector.from_scalars([])
        with pytest.raises(RingMismatchError, match="mixed rings in vector entries"):
            DualVector.from_scalars([one, other])
        for empty in ([], [[]]):
            with pytest.raises(ShapeMismatchError, match="empty matrix needs an explicit ring"):
                DualMatrix.from_scalars(empty)
        with pytest.raises(ShapeMismatchError, match="ragged rows"):
            DualMatrix.from_scalars([[one, one], [one]])
        with pytest.raises(RingMismatchError, match="mixed rings in matrix entries"):
            DualMatrix.from_scalars([[one, one], [one, other]])

    @pytest.mark.parametrize("cls", CONTAINERS)
    def test_operand_refusals(self, cls):
        rng = np.random.default_rng(44)
        x = random_container(rng, cls, "complex")
        wrong_type = DualMatrix if cls is DualVector else DualVector
        for other in (random_container(rng, wrong_type, "complex"), x.s):
            with pytest.raises(ShapeMismatchError, match=f"expected {cls.__name__}"):
                x + other
        with pytest.raises(RingMismatchError, match="ring mismatch: complex vs quaternion"):
            x - random_container(rng, cls, "quaternion")
        with pytest.raises(ShapeMismatchError, match="shape mismatch"):
            x + random_container(rng, cls, "complex", n=4)

    def test_dot_refusals(self):
        x = DualVector("real", np.ones(3))
        with pytest.raises(RingMismatchError):
            x.dot(DualVector("complex", np.ones(3)))
        with pytest.raises(ShapeMismatchError, match=r"shape mismatch: \(3,\) vs \(4,\)"):
            x.dot(DualVector("real", np.ones(4)))

    @pytest.mark.parametrize("cls", CONTAINERS)
    def test_constructor_refusals(self, cls):
        value_shape = (3,) * (1 if cls is DualVector else 2)
        with pytest.raises(ShapeMismatchError, match="split shape"):
            cls("quaternion", np.zeros(value_shape))
        with pytest.raises(ShapeMismatchError, match="split shape"):
            cls("quaternion", np.zeros(value_shape + (4,)))
        for ring in ("real", "complex"):
            with pytest.raises(ShapeMismatchError, match=f"expected a {len(value_shape)}-d array"):
                cls(ring, np.zeros(value_shape + (1,)))
        with pytest.raises(RingMismatchError, match="complex data in a real-ring part"):
            cls("real", np.full(value_shape, 1j))
        with pytest.raises(RingMismatchError, match="complex data in a real-ring part"):
            cls("real", np.zeros(value_shape), np.full(value_shape, 1j))
        with pytest.raises(ShapeMismatchError, match="standard and dual parts differ in shape"):
            cls("complex", np.zeros(value_shape), np.zeros((2,) * len(value_shape)))

    def test_matmul_refusals(self):
        a = DualMatrix("complex", np.ones((2, 3)))
        with pytest.raises(RingMismatchError):
            a @ DualVector("real", np.ones(3))
        with pytest.raises(ShapeMismatchError, match=r"cannot apply \(2, 3\) to length 2"):
            a @ DualVector("complex", np.ones(2))
        with pytest.raises(RingMismatchError):
            a @ DualMatrix("real", np.ones((3, 2)))
        with pytest.raises(ShapeMismatchError, match=r"cannot multiply \(2, 3\) by \(2, 3\)"):
            a @ a
        with pytest.raises(ShapeMismatchError, match="expected DualMatrix, got ndarray"):
            a @ np.ones(3)

    def test_scale_right_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            DualVector("real", np.ones(2)).scale_right(DualScalar.complex(1j))

    def test_inverse_needs_a_square_matrix(self):
        with pytest.raises(ShapeMismatchError, match="inverse needs a square matrix"):
            DualMatrix("real", np.ones((2, 3))).inverse()

    def test_constructor_copies_caller_data(self):
        s, d = np.ones(3), np.zeros(3)
        x = DualVector("real", s, d)
        s[0] = d[0] = 7.0
        assert x.s[0] == 1.0 and x.d[0] == 0.0
        assert_read_only(x)
        assert s.flags.writeable

    @pytest.mark.parametrize("ring", RINGS)
    def test_fresh_results_are_adopted_read_only(self, ring, monkeypatch):
        rng = np.random.default_rng(45)
        a = random_matrix(rng, ring, 4)
        x = random_container(rng, DualVector, ring, n=4)
        phi = complete_graph(5, ring)

        def refuse(*args, **kwargs):
            raise AssertionError("a fresh result was copied")

        # no result below goes through the validating copy of caller data
        monkeypatch.setattr(linalg_module, "_as_part", refuse)
        results = [a + a, a - a, -a, a @ a, a @ x, a.conj_transpose(), a.inverse(),
                   principal_submatrix(a, [0, 2]), x + x, x - x, -x,
                   x.scale_right(random_scalar(rng, ring))]
        results += spectrum(phi).vectors
        results += [p.vector for p in hermitian_eigendecomposition(a @ a.conj_transpose())]
        for r in results:
            assert_read_only(r)

    @pytest.mark.parametrize("ring", RINGS)
    def test_eigenvectors_are_views_of_one_block(self, ring):
        rng = np.random.default_rng(46)
        spec = spectrum(random_gain_graph(rng, random_connected_graph(rng, 7, 4), ring))
        block = spec.vectors[0].s.base
        assert block is not None and not block.flags.writeable
        for x in spec.vectors:
            assert_read_only(x)
            assert x.s.base is block and not x.s.flags.owndata
            assert x.d.base is spec.vectors[0].d.base and not x.d.flags.owndata
            assert np.shares_memory(x.s, block)


class TestEigendecomposition:
    def test_skew_one_by_one_quaternion_rejected(self):
        # a 1x1 quaternion Hermitian matrix must be real
        a = DualMatrix.from_scalars([[DualScalar.quaternion(I)]])
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(a)

    def test_identity_matrix(self):
        a = DualMatrix("complex", rings.eye("complex", 4))
        pairs = hermitian_eigendecomposition(a)
        for p in pairs:
            assert p.value.allclose(DualNumber.one(), 1e-12)
        assert_valid_eigensystem(a, pairs)

    def test_two_by_two_zero_dual_parts(self):
        a = DualMatrix.from_scalars([
            [DualScalar.complex(0), DualScalar.complex(1, -1j)],
            [DualScalar.complex(1, 1j), DualScalar.complex(0)],
        ])
        pairs = hermitian_eigendecomposition(a)
        assert pairs[0].value.allclose(DualNumber(1, 0), 1e-12)
        assert pairs[1].value.allclose(DualNumber(-1, 0), 1e-12)
        assert_valid_eigensystem(a, pairs)

    def test_not_hermitian_raises(self):
        a = DualMatrix("real", np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(a)

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_random_hermitian(self, ring, n):
        rng = np.random.default_rng(100 + n)
        a = random_hermitian_matrix(rng, ring, n)
        assert_valid_eigensystem(a, hermitian_eigendecomposition(a))

    @pytest.mark.parametrize("ring", RINGS)
    def test_repeated_standard_eigenvalues(self, ring):
        # standard part is the identity: one big cluster, dual parts are the
        # supplement-matrix (= A_d) eigenvalues
        rng = np.random.default_rng(55)
        n = 4
        d = random_hermitian_matrix(rng, ring, n)
        a = DualMatrix(ring, rings.eye(ring, n), d.s)
        pairs = hermitian_eigendecomposition(a)
        assert_valid_eigensystem(a, pairs)
        supp = sorted(float(p.value.dual) for p in pairs)
        direct = sorted(p.value.std for p in hermitian_eigendecomposition(
            DualMatrix(ring, d.s)))
        assert np.allclose(supp, direct, atol=1e-9)

    @pytest.mark.parametrize("ring", RINGS)
    def test_engineered_multiplicities(self, ring):
        # A_s = Q diag(2,2,2,-1,-1,0.5) Q* for a random unitary Q: true
        # clusters with nontrivial eigenvectors, random dual part on top
        rng = np.random.default_rng(321)
        d_vals = [2.0, 2.0, 2.0, -1.0, -1.0, 0.5]
        h = random_hermitian_matrix(rng, ring, 6)
        _, q = rings.eigh(ring, h.s)
        diag = rings.zeros(ring, (6, 6))
        for i, val in enumerate(d_vals):
            if ring == "quaternion":
                diag[i, i, 0] = val
            else:
                diag[i, i] = val
        s = rings.matmul(ring, q, rings.matmul(ring, diag, rings.conj_transpose(ring, q)))
        s = rings.symmetrize(ring, s)
        a = DualMatrix(ring, s, random_hermitian_matrix(rng, ring, 6).s)
        pairs = hermitian_eigendecomposition(a)
        assert_valid_eigensystem(a, pairs)
        got = sorted(round(p.value.std, 8) for p in pairs)
        assert got == sorted(d_vals)

    @pytest.mark.parametrize("ring", RINGS)
    def test_finite_difference_oracle(self, ring):
        # independent check of the dual parts: eigenvalues of A_s + t A_d
        # move linearly in t with slopes equal to the dual parts (for
        # degenerate standard eigenvalues the slopes are the supplement
        # spectrum), so a small-t difference quotient must reproduce them
        rng = np.random.default_rng(99)
        t = 1e-6
        for n in (3, 6):
            a = random_hermitian_matrix(rng, ring, n)
            pairs = hermitian_eigendecomposition(a)
            got = sorted((p.value.std, p.value.dual) for p in pairs)
            base, _ = rings.eigh(ring, np.array(a.s))
            moved, _ = rings.eigh(ring, np.array(a.s) + t * np.array(a.d))
            slopes = (np.sort(moved) - np.sort(base)) / t
            for (std, dual), b, s in zip(got, np.sort(base), slopes):
                assert std == pytest.approx(b, abs=1e-9)
                assert dual == pytest.approx(s, abs=1e-4)

    def test_finite_difference_oracle_with_degeneracy(self):
        # exact double eigenvalue of the standard part; the two difference
        # quotients are the supplement eigenvalues in ascending order
        rng = np.random.default_rng(100)
        d = random_hermitian_matrix(rng, "complex", 3)
        a = DualMatrix("complex", np.diag([1.0, 1.0, -2.0]).astype(complex), d.s)
        pairs = hermitian_eigendecomposition(a)
        cluster = sorted(p.value.dual for p in pairs if abs(p.value.std - 1.0) < 1e-9)
        t = 1e-7
        moved = np.linalg.eigvalsh(np.array(a.s) + t * np.array(a.d))
        base = np.array([-2.0, 1.0, 1.0])
        slopes = sorted(((np.sort(moved) - base) / t)[1:])
        assert cluster == pytest.approx(slopes, abs=1e-5)

    def test_gauge_and_determinism(self):
        rng = np.random.default_rng(77)
        a = random_hermitian_matrix(rng, "complex", 6)
        p1 = hermitian_eigendecomposition(a)
        p2 = hermitian_eigendecomposition(a)
        for x, y in zip(p1, p2):
            assert x.value == y.value
            assert np.array_equal(x.vector.s, y.vector.s)
            assert np.array_equal(x.vector.d, y.vector.d)
            # first appreciable entry of the standard part is positive real
            lead = next(x.vector.entry(i).std for i in range(x.vector.n)
                        if abs(x.vector.entry(i).std) > 1e-8)
            assert abs(complex(lead).imag) <= 1e-12 if not isinstance(lead, Quaternion) \
                else lead.vector_norm() <= 1e-12
            assert (complex(lead).real if not isinstance(lead, Quaternion)
                    else lead.w) > 0

    def test_principal_submatrix(self):
        rng = np.random.default_rng(8)
        a = random_hermitian_matrix(rng, "quaternion", 5)
        sub = principal_submatrix(a, [0, 2, 4])
        for ii, oi in enumerate([0, 2, 4]):
            for jj, oj in enumerate([0, 2, 4]):
                assert sub.entry(ii, jj) == a.entry(oi, oj)


# ---------------------------------------------------------------------------
# reference oracle: the per-column eigendecomposition the array core replaced


def _oracle_eigh(ring, arr):
    """Standard solve with one SVD per copy of a repeated quaternion
    eigenvalue."""
    if ring != "quaternion":
        return np.linalg.eigh(arr)
    n = arr.shape[0]
    m = rings.embed_quaternion(arr)
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    gap_tol = 1e-10 * max(1.0, float(np.abs(w).max()))
    groups, start = [], 0
    for i in range(1, 2 * n):
        if w[i] - w[i - 1] > gap_tol and (i - start) % 2 == 0:
            groups.append((start, i))
            start = i
    groups.append((start, 2 * n))
    values, vectors, out = np.empty(n), rings.zeros("quaternion", (n, n)), 0
    for g0, g1 in groups:
        k, cols = (g1 - g0) // 2, u[:, g0:g1]
        for t in range(k):
            x1, x2 = cols[:n, 0], -cols[n:, 0].conj()
            nrm = np.sqrt((np.abs(x1) ** 2).sum() + (np.abs(x2) ** 2).sum())
            values[out] = np.mean(w[g0:g1])
            vectors[:, out, 0], vectors[:, out, 1] = x1 / nrm, x2 / nrm
            out += 1
            if t < k - 1:
                p1 = np.concatenate((x1, -x2.conj())) / nrm
                p2 = np.concatenate((-p1[n:].conj(), p1[:n].conj()))
                rest = cols[:, 1:]
                rest = rest - np.outer(p1, p1.conj() @ rest) - np.outer(p2, p2.conj() @ rest)
                cols = np.linalg.svd(rest, full_matrices=False)[0][:, : 2 * (k - t - 1)]
    return values, vectors


def _oracle_gauge(ring, s, d):
    mags = rings.entry_abs(ring, s)
    idx = int(np.argmax(mags > 1e-8)) if (mags > 1e-8).any() else int(np.argmax(mags))
    lead = rings.get(ring, s, (idx,))
    u = lead.conjugate() * (1.0 / abs(lead))
    return rings.scale_right(ring, s, u), rings.scale_right(ring, d, u)


def oracle_eigendecomposition(a, cluster_tol=1e-8):
    """(std, dual, clustered, vectors): one supplement per cluster, one
    correction product per column, one gauge per vector, then a stable
    sort on (-std, -dual)."""
    ring, n = a.ring, a.n_rows
    s_part = rings.symmetrize(ring, np.array(a.s))
    d_part = rings.symmetrize(ring, np.array(a.d))
    w, v = _oracle_eigh(ring, s_part)
    v = np.array(v)
    clusters, start = [], 0
    for i in range(1, n):
        if w[i] - w[i - 1] > cluster_tol * max(1.0, abs(w[i]), abs(w[i - 1])):
            clusters.append(np.arange(start, i))
            start = i
    clusters.append(np.arange(start, n))
    lam_d = np.zeros(n)
    label = np.empty(n, dtype=int)
    for ci, cl in enumerate(clusters):
        label[cl] = ci
        block = v[:, cl]
        supp = rings.symmetrize(ring, rings.matmul(
            ring, rings.conj_transpose(ring, block), rings.matmul(ring, d_part, block)))
        if len(cl) == 1:
            lam_d[cl[0]] = (supp[0, 0, 0] if ring == "quaternion" else supp[0, 0]).real
        else:
            lam_d[cl], z = _oracle_eigh(ring, supp)
            v[:, cl] = rings.matmul(ring, block, z)
    gram = rings.matmul(ring, rings.conj_transpose(ring, v), rings.matmul(ring, d_part, v))
    x_d = rings.zeros(ring, (n, n))
    for i in range(n):
        outside = np.flatnonzero(label != label[i])
        if outside.size:
            coeffs = gram[outside, i] / (w[i] - w[outside]).reshape(
                (-1, 1) if ring == "quaternion" else -1)
            x_d[:, i] = rings.matmul(ring, v[:, outside], coeffs[:, None])[:, 0]
    clustered = np.bincount(label)[label] > 1
    pairs = sorted(((w[i], lam_d[i], clustered[i], _oracle_gauge(ring, v[:, i], x_d[:, i]))
                    for i in range(n)), key=lambda p: (-p[0], -p[1]))
    return pairs


def random_unitary(rng, ring, n):
    return rings.eigh(ring, random_hermitian_matrix(rng, ring, n).s)[1]


def rotated(ring, q, m):
    """Q M Q*, symmetrized."""
    return rings.symmetrize(ring, rings.matmul(
        ring, q, rings.matmul(ring, m, rings.conj_transpose(ring, q))))


def conjugated(ring, q, diag_values):
    """Q diag(values) Q*, symmetrized."""
    n = len(diag_values)
    diag = rings.zeros(ring, (n, n))
    for i, val in enumerate(diag_values):
        diag[(i, i, 0) if ring == "quaternion" else (i, i)] = val
    return rotated(ring, q, diag)


def engineered_matrix(rng, ring, diag_values):
    """A_s = Q diag(values) Q* for a random unitary Q, random Hermitian A_d."""
    q = random_unitary(rng, ring, len(diag_values))
    return DualMatrix(ring, conjugated(ring, q, diag_values),
                      random_hermitian_matrix(rng, ring, len(diag_values)).s)


# standard values in clusters of sizes 5, 3, 2, 2, 1 and 1; the two
# clusters of size 2 share one stacked supplement solve
MIXED_STD = [4.0] * 5 + [2.0] * 3 + [-1.0] * 2 + [-3.0] * 2 + [0.5, 1.5]


def mixed_supplements(rng, ring, q):
    """A_s = Q diag(MIXED_STD) Q* and A_d = Q M Q*, M random Hermitian except
    on two cluster blocks: 0.3 I on the -3 block (a scalar supplement beside
    the random -1 block) and eigenvalues 0.7, 0.7, -0.2, 0.1, 0.3 on the 4
    block (a supplement with an inner cluster).  With Q = I every product is
    exact, so the -3 supplement is scalar to the bit."""
    m = np.array(random_hermitian_matrix(rng, ring, len(MIXED_STD)).s)
    m[10:12, 10:12] = 0.3 * rings.eye(ring, 2)
    m[:5, :5] = conjugated(ring, random_unitary(rng, ring, 5), [0.7, 0.7, -0.2, 0.1, 0.3])
    return DualMatrix(ring, conjugated(ring, q, MIXED_STD), rotated(ring, q, m))


def scalar_threshold_pair(rng, ring, factor):
    """Diagonal A_s with the cluster 1, 1, 1 and a supplement mu I + t E
    (E symmetric, zero diagonal, max entry 1) whose t is `factor` times the
    scalar threshold k eps max(1, max|G|) = 3 eps: with diagonal A_s and
    max|A_d| <= 1 the Gram matrix is A_d permuted, to the bit."""
    m = 0.05 * np.array(random_hermitian_matrix(rng, ring, 5).s)
    t = factor * 3 * np.finfo(np.float64).eps
    m[:3, :3] = rings.widen("real", 0.25 * np.eye(3) + t * (1.0 - np.eye(3)), ring)
    return DualMatrix(ring, conjugated(ring, rings.eye(ring, 5), [1.0, 1.0, 1.0, 3.0, -2.0]), m)


class TestArrayCoreAgainstOracle:
    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("case", ["random", "repeated", "identity", "mixed",
                                      "scalar below", "scalar above"])
    def test_matches_per_column_loop(self, ring, case):
        rng = np.random.default_rng(404)
        for trial in range(3):
            if case == "random":
                a = random_hermitian_matrix(rng, ring, 9)
            elif case == "repeated":
                a = engineered_matrix(rng, ring, [2.0, 2.0, 2.0, -1.0, -1.0, 0.5, 0.0, 3.0])
            elif case == "identity":
                a = DualMatrix(ring, rings.eye(ring, 5), random_hermitian_matrix(rng, ring, 5).s)
            elif case == "mixed":
                n = len(MIXED_STD)
                q = rings.eye(ring, n) if trial == 0 else random_unitary(rng, ring, n)
                a = mixed_supplements(rng, ring, q)
            else:
                a = scalar_threshold_pair(rng, ring, 0.9 if case == "scalar below" else 1.1)
            got = hermitian_eigendecomposition(a)
            want = oracle_eigendecomposition(a)
            std_only, dual_only, _ = _eigensystem(a, with_vectors=False)
            for i, (pair, (std, dual, clustered, (vs, vd))) in enumerate(zip(got, want)):
                assert abs(pair.value.std - std) <= 1e-12
                assert abs(pair.value.dual - dual) <= 1e-12
                assert abs(std_only[i] - std) <= 1e-12
                assert abs(dual_only[i] - dual) <= 1e-12
                if not clustered:
                    assert rings.max_abs(ring, pair.vector.s - vs) <= 1e-10
                    assert rings.max_abs(ring, pair.vector.d - vd) <= 1e-10
            assert_valid_eigensystem(a, got)

    @pytest.mark.parametrize("ring", RINGS)
    def test_scalar_supplements_take_no_solve(self, ring, monkeypatch):
        # the stacks rings.eigh receives: the standard solve, then one stack
        # per cluster size of the supplements that are not scalar
        rng = np.random.default_rng(408)
        n = len(MIXED_STD)
        mixed = mixed_supplements(rng, ring, rings.eye(ring, n))
        below, above = (scalar_threshold_pair(rng, ring, factor) for factor in (0.9, 1.1))
        stacks, eigh = [], rings.eigh

        def recording(r, arr):
            stacks.append(arr.shape[:-1] if r == "quaternion" else arr.shape)
            return eigh(r, arr)

        monkeypatch.setattr(rings, "eigh", recording)
        for a, want in ((mixed, [(n, n), (1, 2, 2), (1, 3, 3), (1, 5, 5)]),
                        (below, [(5, 5)]), (above, [(5, 5), (1, 3, 3)])):
            # in the mixed matrix the -3 cluster is scalar and takes W = I,
            # while the other cluster of size 2, -1, is solved
            for with_vectors in (False, True):
                _eigensystem(a, with_vectors=with_vectors)
                assert stacks == want
                stacks.clear()

    @pytest.mark.parametrize("ring", RINGS)
    def test_zero_dual_part_values(self, ring):
        # no Gram matrix: values only come from eigvalsh, within rounding of
        # the eigh route, and every dual part is +0.0 on both routes
        rng = np.random.default_rng(409)
        for diag_values in ([2.0, 2.0, 2.0, -1.0, -1.0, 0.5, 0.0, 3.0], rng.normal(size=9) * 40):
            q = random_unitary(rng, ring, len(diag_values))
            a = DualMatrix(ring, conjugated(ring, q, diag_values))
            std, dual, _ = _eigensystem(a, with_vectors=False)
            full_std, full_dual, vectors = _eigensystem(a, with_vectors=True)
            rho = max(1.0, float(np.abs(full_std).max()))
            assert np.abs(std - full_std).max() <= 1e-13 * rho
            zero = np.zeros(len(diag_values)).tobytes()
            assert dual.tobytes() == full_dual.tobytes() == zero
            assert all(not x.d.any() for x in vectors)

    def test_values_only_route_matches_full_route(self):
        rng = np.random.default_rng(405)
        for ring in RINGS:
            for a in (random_hermitian_matrix(rng, ring, 7),
                      engineered_matrix(rng, ring, [1.0, 1.0, -2.0, -2.0, -2.0, 0.25])):
                std, dual, vectors = _eigensystem(a, with_vectors=False)
                assert vectors is None
                full = hermitian_eigendecomposition(a)
                # repr: every bit, signed zeros included
                assert repr(list(zip(std.tolist(), dual.tolist()))) == repr(
                    [(p.value.std, p.value.dual) for p in full])

    def test_matmul_count_is_one_gram_and_one_correction_product(self, monkeypatch):
        calls = []
        matmul = rings.matmul

        def counting(ring, x, y):
            calls.append(ring)
            return matmul(ring, x, y)

        monkeypatch.setattr(rings, "matmul", counting)
        a = random_hermitian_matrix(np.random.default_rng(406), "quaternion", 12)
        hermitian_eigendecomposition(a)
        assert len(calls) == 3                  # V* (A_d V), then V C
        calls.clear()
        _eigensystem(a, with_vectors=False)
        assert len(calls) == 2

    def test_balanced_complete_quaternion_graph(self):
        # one standard eigenvalue of multiplicity n - 1: the de-duplicated
        # quaternion eigenvectors must stay orthonormal, and the first-order
        # residuals of the dual eigenpairs small
        n = 64
        phi = random_balanced_gain_graph(np.random.default_rng(407),
                                         complete_graph(n, "quaternion").graph, "quaternion")
        a = adjacency_matrix(phi)
        w, v = rings.eigh("quaternion", a.s)
        assert np.allclose(w, [-1.0] * (n - 1) + [n - 1.0], atol=1e-12)
        gram = rings.matmul("quaternion", rings.conj_transpose("quaternion", v), v)
        assert rings.max_abs("quaternion", gram - rings.eye("quaternion", n)) <= 1e-12
        for pair in hermitian_eigendecomposition(a):
            x = pair.vector
            resid = (a @ x) - x.scale_right(pair.value.to_scalar("quaternion"))
            assert rings.max_abs("quaternion", resid.s) <= 1e-11
            assert rings.max_abs("quaternion", resid.d) <= 1e-11


class TestQuaternionClusters:
    """The quaternion solver groups its doubled spectrum by the one cluster
    rule, so distinct eigenvalues inside a cluster keep their values and a
    quaternion-orthonormal basis."""

    @pytest.mark.parametrize("ring", RINGS)
    def test_radius_of_a_cluster_with_distinct_members(self, ring):
        # 4 and 4 - 3.6e-8 share a supplement; its top eigenvalue, formed
        # from the known columns of Q, is the dual part of the radius
        rng = np.random.default_rng(414)
        values = [4.0, 4.0 - 3.6e-8, 4.0 - 0.04, 1.5, 0.25, -1.0, -2.5, 2.0]
        for _ in range(4):
            q = random_unitary(rng, ring, 8)
            d = random_hermitian_matrix(rng, ring, 8).s
            top = q[:, :2]
            supp = rings.matmul(ring, rings.conj_transpose(ring, top), rings.matmul(ring, d, top))
            if ring == "quaternion":
                supp = rings.embed_quaternion(supp)
            want = np.linalg.eigvalsh(rings.symmetrize("complex", supp))[-1]
            got = dense_radius(DualMatrix(ring, conjugated(ring, q, values), d))
            assert abs(got.std - 4.0) <= 1e-12
            assert abs(got.dual - want) <= 1e-12

    @pytest.mark.parametrize("tie", [1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
    def test_values_of_near_ties(self, tie):
        rng = np.random.default_rng(415)
        for _ in range(20):
            n = int(rng.integers(3, 14))
            values = rng.uniform(-4.0, 4.0, n)
            k = int(rng.integers(1, n))
            values[k] = values[k - 1] + tie * max(1.0, abs(values[k - 1]))
            q = random_unitary(rng, "quaternion", n)
            w, _ = rings.eigh("quaternion", conjugated("quaternion", q, values))
            assert np.abs(w - np.sort(values)).max() <= 1e-14 * np.abs(values).max()

    @pytest.mark.parametrize("std_values, dual_values", [
        ([3.0, 3.0 + 3e-9, 1.0, -0.5, -2.0, 0.7], None),
        ([3.0, 3.0, 3.0, -0.5, -2.0, 0.7], [0.5, 0.5 + 2e-10, -0.8, 0.3, 0.1, -0.4]),
    ], ids=["standard tie", "supplement tie"])
    def test_eigenvectors_stay_quaternion_orthonormal(self, std_values, dual_values):
        rng = np.random.default_rng(416)
        for _ in range(4):
            q = random_unitary(rng, "quaternion", 6)
            d = (random_hermitian_matrix(rng, "quaternion", 6).s if dual_values is None
                 else conjugated("quaternion", q, dual_values))
            a = DualMatrix("quaternion", conjugated("quaternion", q, std_values), d)
            v = np.stack([pair.vector.s for pair in hermitian_eigendecomposition(a)], axis=1)
            gram = rings.matmul("quaternion", rings.conj_transpose("quaternion", v), v)
            assert rings.max_abs("quaternion", gram - rings.eye("quaternion", 6)) <= 1e-12


def canonical_cycles(perm):
    """Moore's cycle form: the minimal index first inside every cycle and the
    cycles by decreasing leading index."""
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cyc))
    cycles.sort(key=lambda c: -c[0])
    return cycles


def oracle_moore_determinant(a):
    """The permutation loop: one DualScalar product per cycle, in Moore's
    order, over itertools.permutations."""
    n = a.n_rows
    entries = [[a.entry(i, j) for j in range(n)] for i in range(n)]
    cycle_products = {}

    def product_of(cyc):
        cached = cycle_products.get(cyc)
        if cached is None:
            cached = DualScalar.one(a.ring)
            for u, v in zip(cyc, cyc[1:] + (cyc[0],)):
                cached = cached * entries[u][v]
            cycle_products[cyc] = cached
        return cached

    total = DualScalar.zero(a.ring)
    for perm in itertools.permutations(range(n)):
        cycles = canonical_cycles(perm)
        prod = DualScalar.one(a.ring)
        for cyc in cycles:
            prod = prod * product_of(cyc)
        total = total + (-prod if (n - len(cycles)) % 2 else prod)
    return total


def diagonal_matrix(rng, ring, n):
    s, d = rings.zeros(ring, (n, n)), rings.zeros(ring, (n, n))
    diag = np.arange(n)
    (s[..., 0] if ring == "quaternion" else s)[diag, diag] = rng.normal(size=n)
    (d[..., 0] if ring == "quaternion" else d)[diag, diag] = rng.normal(size=n)
    return DualMatrix(ring, s, d)


def antidiagonal_matrix(rng, ring, n):
    """Unit gains g_i at (i, n-1-i) and their conjugates at the mirror; the
    middle entry of an odd size is a real dual number."""
    grid = [[DualScalar.zero(ring)] * n for _ in range(n)]
    for i in range(n // 2):
        g = random_unit_scalar(rng, ring)
        grid[i][n - 1 - i], grid[n - 1 - i][i] = g, g.conjugate()
    if n % 2:
        grid[n // 2][n // 2] = DualScalar(ring, rng.normal(), rng.normal())
    return DualMatrix.from_scalars(grid)


def side_by_side(phi, copies=2):
    """`copies` disjoint copies of a gain graph, relabeled in order."""
    n, edges = phi.n, phi.graph.edge_array
    graph = UnderlyingGraph(n * copies, np.concatenate([edges + i * n for i in range(copies)]))
    return GainGraph(graph, phi.ring, (np.concatenate([phi.std] * copies),
                                       np.concatenate([phi.dual] * copies)))


def dual_twist(ring):
    """A cycle gain that twists the dual part and keeps the standard part
    balanced; the only real units are +-1, so the real ring takes -1."""
    if ring == "real":
        return DualScalar.real(-1)
    if ring == "complex":
        return DualScalar.complex(1, 0.3j)
    return DualScalar.quaternion(Quaternion(1), Quaternion(0, 0.3, -0.2, 0.1))


def radius_families(rng, ring):
    """(name, gain graph) pairs: every shape of end cluster the radius
    route meets."""
    n = int(rng.integers(3, 14))
    extra = int(rng.integers(0, 2 * n))
    yield "random", random_gain_graph(rng, random_connected_graph(rng, n, extra), ring)
    yield "edgeless", GainGraph(UnderlyingGraph(n), ring, {})
    yield "single vertex", GainGraph(UnderlyingGraph(1), ring, {})
    yield "balanced complete", random_balanced_gain_graph(rng, complete_graph(n, ring).graph, ring)
    yield "twisted cycle", cycle_graph(n, dual_twist(ring))
    yield "random cycle", cycle_graph(n, random_unit_scalar(rng, ring))
    m = int(rng.integers(1, 6))
    bipartite = UnderlyingGraph(n + m, [(u, n + v) for u in range(n) for v in range(m)
                                        if rng.random() < 0.6])
    yield "bipartite", random_gain_graph(rng, bipartite, ring)
    yield "two copies", side_by_side(
        random_gain_graph(rng, random_connected_graph(rng, n, 2), ring))


def dense_radius(a):
    """The spectral radius over the whole values-only dual spectrum of a."""
    std, dual, _ = _eigensystem(a, with_vectors=False)
    return spectral_radius(map(DualNumber, std.tolist(), dual.tolist()))


def assert_radius_matches(a, tol_dual=1e-9):
    got = _radius(a)
    want = dense_radius(a)
    assert abs(got.std - want.std) <= 1e-12 * max(1.0, want.std)
    assert abs(got.dual - want.dual) <= tol_dual * max(1.0, rings.max_abs(a.ring, a.d))


class TestRadiusRoute:
    """linalg._radius against the spectral radius of the whole dual spectrum."""

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
    def test_matches_the_dense_spectrum(self, ring, kind):
        rng = np.random.default_rng(410)
        names = set()
        for _ in range(4):
            for name, phi in radius_families(rng, ring):
                got = _radius(gain_matrix(phi, kind))
                want = spectral_radius(spectrum(phi, kind, with_vectors=False))
                assert abs(got.std - want.std) <= 1e-12 * max(1.0, want.std), name
                assert abs(got.dual - want.dual) <= 1e-9, name
                names.add(name)
        assert len(names) == 8

    @pytest.mark.parametrize("ring", RINGS)
    def test_large_end_cluster(self, ring):
        # the balanced complete Laplacian: one top cluster of n - 1 members
        n = 120 if ring == "quaternion" else 200
        phi = random_balanced_gain_graph(np.random.default_rng(411),
                                         complete_graph(n, ring).graph, ring)
        got = _radius(gain_matrix(phi, "laplacian"))
        assert abs(got.std - n) <= 1e-12 * n and abs(got.dual) <= 1e-9

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("beyond", [50.0, 1.1])
    def test_cluster_spread_near_the_gap(self, ring, beyond):
        # two top eigenvalues 0.9 gap apart share a supplement; the next one
        # lies `beyond` gaps further.  The rounding of A_s alone moves the
        # cluster's subspace by about eps |A_s| / distance.
        rng = np.random.default_rng(412)
        gap = _CLUSTER_GAP * 4.0
        third = 4.0 - 0.9 * gap - beyond * gap
        for _ in range(3):
            values = [4.0, 4.0 - 0.9 * gap, third, 1.5, 0.25, -1.0, -2.5, 3.0 - 1.0]
            a = engineered_matrix(rng, ring, values)
            assert_radius_matches(a, 10 * np.finfo(float).eps * 4.0 / (4.0 - third))

    @pytest.mark.parametrize("ring", RINGS)
    def test_random_hermitian_and_tied_ends(self, ring):
        rng = np.random.default_rng(413)
        for _ in range(5):
            assert_radius_matches(random_hermitian_matrix(rng, ring, int(rng.integers(1, 12))))
            # zero diagonal blocks: D A D = -A for D = diag(I, -I), so the
            # dual spectrum is symmetric and its two ends tie; twice on the
            # diagonal, both end clusters are repeated as well
            n = int(rng.integers(1, 6))
            a = random_hermitian_matrix(rng, ring, 2 * n)
            s, d = np.array(a.s), np.array(a.d)
            for part in (s, d):
                part[:n, :n] = part[n:, n:] = 0
            assert_radius_matches(DualMatrix(ring, s, d))
            twice = [np.zeros((4 * n, 4 * n) + s.shape[2:], dtype=s.dtype) for _ in range(2)]
            for out, part in zip(twice, (s, d)):
                out[:2 * n, :2 * n] = out[2 * n:, 2 * n:] = part
            assert_radius_matches(DualMatrix(ring, *twice))

    def test_exactly_singular_shift_moves_outward(self, monkeypatch):
        # eigvalsh returns the top eigenvalue 3 of an integer diagonal matrix
        # exactly, so the first LU meets an exact zero pivot
        singular = []
        solve = np.linalg.solve

        def recording(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(1)
                raise

        monkeypatch.setattr(np.linalg, "solve", recording)
        d = np.array([[0.0, 1.0, 0.5], [1.0, 2.0, -1.0], [0.5, -1.0, -0.75]])
        got = _radius(DualMatrix("real", np.diag([1.0, 2.0, 3.0]), d))
        assert singular and got.std == 3.0 and abs(got.dual + 0.75) <= 1e-12

    def test_refusals(self):
        with pytest.raises(NotHermitianError):
            _radius(DualMatrix("real", np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(NotHermitianError):
            _radius(DualMatrix("real", np.zeros((2, 3))))
        with pytest.raises(BadParameterError):
            _radius(DualMatrix("real", np.zeros((0, 0))))


class TestMooreDeterminant:
    @pytest.mark.parametrize("n", range(7))
    def test_terms_are_the_permutation_loop_terms(self, n):
        words = Counter()
        for flat, sign in _moore_terms(n):
            for row, sgn in zip(flat.tolist(), sign.tolist()):
                words[tuple(divmod(f, n) for f in row), sgn] += 1
        loop = Counter()
        for perm in itertools.permutations(range(n)):
            cycles = canonical_cycles(perm)
            factors = tuple((u, v) for cyc in cycles for u, v in zip(cyc, cyc[1:] + cyc[:1]))
            loop[factors, -1.0 if (n - len(cycles)) % 2 else 1.0] += 1
        assert words == loop and sum(words.values()) == math.factorial(n)

    @pytest.mark.parametrize("ring", RINGS)
    def test_matches_the_permutation_loop(self, ring):
        rng = np.random.default_rng(62)
        cases = [DualMatrix(ring, rings.zeros(ring, (0, 0)))]
        for n in range(1, 8):
            cases += [random_hermitian_matrix(rng, ring, n), diagonal_matrix(rng, ring, n),
                      antidiagonal_matrix(rng, ring, n)]
        for a in cases:
            got, want = moore_determinant(a), oracle_moore_determinant(a)
            want_parts = [c for part in want.components() for c in part]
            got_parts = [c for part in got.components() for c in part]
            scale = max(1.0, *(abs(c) for c in want_parts))
            assert max(abs(g - w) for g, w in zip(got_parts, want_parts)) <= 1e-12 * scale

    @pytest.mark.parametrize("ring", RINGS)
    def test_builds_no_scalar_per_term(self, ring, scalar_count):
        a = random_hermitian_matrix(np.random.default_rng(63), ring, 8)
        scalar_count.clear()
        moore_determinant(a)
        assert len(scalar_count) <= 2

    def test_unit_antidiagonal(self):
        g = DualScalar.complex(complex(math.cos(0.3), math.sin(0.3)))
        a = DualMatrix.from_scalars([[DualScalar.complex(0), g],
                                     [g.conjugate(), DualScalar.complex(0)]])
        det = moore_determinant(a)
        assert det.allclose(DualScalar.complex(-1), 1e-12)

    def test_diagonal(self):
        a = DualMatrix("real", np.diag([2.0, 3.0, -1.5]))
        assert moore_determinant(a).allclose(DualScalar.real(-9.0), 1e-12)

    @pytest.mark.parametrize("ring", RINGS)
    def test_matches_eigenvalue_product(self, ring):
        rng = np.random.default_rng(61)
        for n in (2, 3, 4, 5):
            a = random_hermitian_matrix(rng, ring, n)
            det = moore_determinant(a)
            prod = DualNumber.one()
            for p in hermitian_eigendecomposition(a):
                prod = prod * p.value
            assert det.real_part().allclose(prod, 1e-8)
            # the determinant of a Hermitian matrix is a dual number
            off = (det - det.real_part().to_scalar(ring)).magnitude()
            assert off.std <= 1e-10 and abs(off.dual) <= 1e-9

    def test_size_cap(self):
        a = DualMatrix("real", rings.eye("real", 10))
        with pytest.raises(SizeCapExceededError):
            moore_determinant(a)

    def test_not_hermitian_raises(self):
        a = DualMatrix("real", np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            moore_determinant(a)


class TestAdjointEmbedding:
    def test_identity_embeds_to_double_identity(self):
        q = rings.eye("quaternion", 3)
        m = rings.embed_quaternion(q)
        assert np.allclose(m, np.eye(6))
        assert np.allclose(rings.unembed_quaternion(m), q)

    def test_skew_pair_spectrum(self):
        # [[0, j], [-j, 0]] has embedding spectrum {1, 1, -1, -1}
        a = DualMatrix.from_scalars([
            [DualScalar.quaternion(Quaternion(0)), DualScalar.quaternion(J)],
            [DualScalar.quaternion(-J), DualScalar.quaternion(Quaternion(0))],
        ])
        w = np.linalg.eigvalsh(rings.embed_quaternion(a.s))
        assert np.allclose(w, [-1, -1, 1, 1])
        vals, vecs = rings.eigh("quaternion", a.s)
        assert np.allclose(vals, [-1, 1])
        # oracle: direct quaternion eigen equation A x = x lambda
        for idx in range(2):
            x = DualVector("quaternion", vecs[:, idx])
            resid = (a @ x) - x.scale_right(DualScalar.quaternion(Quaternion(vals[idx])))
            assert rings.max_abs("quaternion", resid.s) <= 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        q = np.stack([rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                      for _ in range(2)], axis=-1)
        assert np.allclose(rings.unembed_quaternion(rings.embed_quaternion(q)), q)

    def test_embedding_is_multiplicative(self):
        rng = np.random.default_rng(14)
        x = np.stack([rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(2)], axis=-1)
        y = np.stack([rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(2)], axis=-1)
        lhs = rings.embed_quaternion(rings.matmul("quaternion", x, y))
        rhs = rings.embed_quaternion(x) @ rings.embed_quaternion(y)
        assert np.allclose(lhs, rhs)
