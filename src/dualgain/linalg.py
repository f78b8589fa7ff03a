"""Dual vectors and matrices, the dual Hermitian eigendecomposition, and the
Moore determinant.

A dual matrix A = A_s + A_d*eps is stored as two read-only base-ring numpy
arrays (see _rings for the quaternion split layout).  DualVector and
DualMatrix are one container, _DualArray: it copies and checks the data a
caller hands in, and adopts, without a copy, the results it builds from
fresh arrays; the eigenvectors of the solver are column views of one gauged
block.

The eigendecomposition works at first order: standard parts come from a
dense Hermitian solve of A_s, repeated standard eigenvalues are refined
through the supplement matrix W* A_d W of their eigenvector block, and
eigenvector dual parts come from the first-order sum over the remaining
eigendirections.  The spectral radius alone needs less: the standard
eigenvalues and a basis of one end cluster, found by block inverse
iteration (_radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rings as rings
from .errors import (
    BadParameterError,
    NotHermitianError,
    RingMismatchError,
    ShapeMismatchError,
    SizeCapExceededError,
)
from .scalars import (DEFAULT_TOL, DualNumber, DualScalar, RING_COMPLEX, RING_QUATERNION,
                      RING_REAL, _re_part)


class _DualArray:
    """A dense array of dual scalars with a uniform ring tag: the standard
    and dual parts s and d are read-only base-ring arrays with _NDIM value
    axes (and the split axis for quaternions)."""

    __slots__ = ("ring", "s", "d")
    _NDIM = 0
    _NOUN = ""

    def __init__(self, ring, s, d=None):
        rings.check_ring(ring)
        self.ring = ring
        self.s = _freeze(_as_part(ring, s, self._NDIM))
        if d is None:
            d = np.zeros_like(self.s)
        self.d = _freeze(_as_part(ring, d, self._NDIM))
        if self.s.shape != self.d.shape:
            raise ShapeMismatchError("standard and dual parts differ in shape")

    @classmethod
    def _adopt(cls, ring, s, d):
        """One that takes over freshly built parts of the right dtype and
        shape without copying them; the parts are frozen in place."""
        out = cls.__new__(cls)
        out.ring, out.s, out.d = ring, _freeze(s), _freeze(d)
        return out

    @classmethod
    def from_scalars(cls, entries):
        """From DualScalars of one ring: a sequence for a vector, a sequence
        of equally long rows for a matrix."""
        rows = [list(row) for row in entries] if cls._NDIM == 2 else [list(entries)]
        if not rows or not rows[0]:
            raise ShapeMismatchError(f"empty {cls._NOUN} needs an explicit ring")
        ring = rows[0][0].ring
        for row in rows:
            if len(row) != len(rows[0]):
                raise ShapeMismatchError("ragged rows")
            if any(e.ring != ring for e in row):
                raise RingMismatchError(f"mixed rings in {cls._NOUN} entries")
        flat = [e for row in rows for e in row]
        s = rings.from_values(ring, [e.std for e in flat])
        d = rings.from_values(ring, [e.dual for e in flat])
        shape = (len(rows), len(rows[0])) if cls._NDIM == 2 else (len(rows[0]),)
        shape += s.shape[1:]
        return cls(ring, s.reshape(shape), d.reshape(shape))

    def entry(self, *index) -> DualScalar:
        return DualScalar(self.ring, rings.get(self.ring, self.s, index),
                          rings.get(self.ring, self.d, index))

    def _check(self, other, same_shape=True):
        if not isinstance(other, type(self)):
            raise ShapeMismatchError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")
        if same_shape and other.s.shape != self.s.shape:
            raise ShapeMismatchError(f"shape mismatch: {self.s.shape[:self._NDIM]} "
                                     f"vs {other.s.shape[:self._NDIM]}")

    def __add__(self, other):
        self._check(other)
        return self._adopt(self.ring, self.s + other.s, self.d + other.d)

    def __sub__(self, other):
        self._check(other)
        return self._adopt(self.ring, self.s - other.s, self.d - other.d)

    def __neg__(self):
        return self._adopt(self.ring, -self.s, -self.d)

    def allclose(self, other, tol: float = DEFAULT_TOL) -> bool:
        return (self.ring == other.ring and self.s.shape == other.s.shape
                and rings.max_abs(self.ring, self.s - other.s) <= tol
                and rings.max_abs(self.ring, self.d - other.d) <= tol)


class DualVector(_DualArray):
    """A dense vector of dual scalars with a uniform ring tag."""

    __slots__ = ()
    _NDIM = 1
    _NOUN = "vector"

    @property
    def n(self) -> int:
        return self.s.shape[0]

    def __len__(self):
        return self.n

    def dot(self, other: "DualVector") -> DualScalar:
        """x^H y (conjugation on self)."""
        self._check(other)
        std = rings.vdot(self.ring, self.s, other.s)
        dual = rings.vdot(self.ring, self.s, other.d) + rings.vdot(self.ring, self.d, other.s)
        return DualScalar(self.ring, std, dual)

    def is_appreciable(self, tol: float = DEFAULT_TOL) -> bool:
        return rings.max_abs(self.ring, self.s) > tol

    def norm(self) -> DualNumber:
        """Two-branch 2-norm: infinitesimal vectors get norm |x_d| eps."""
        ns = float((rings.entry_abs(self.ring, self.s) ** 2).sum())
        if ns > DEFAULT_TOL * DEFAULT_TOL:
            cross = rings.vdot(self.ring, self.s, self.d)
            sq = DualNumber(ns, 2.0 * _re_part(cross))
            return sq.sqrt()
        nd = float(np.sqrt((rings.entry_abs(self.ring, self.d) ** 2).sum()))
        return DualNumber(0.0, nd)

    def scale_right(self, scalar) -> "DualVector":
        """Right multiplication x * a by a dual scalar (order matters for
        quaternions)."""
        a = scalar if isinstance(scalar, DualScalar) else DualScalar(self.ring, scalar)
        if a.ring != self.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {a.ring}")
        s = rings.scale_right(self.ring, self.s, a.std)
        d = (rings.scale_right(self.ring, self.s, a.dual)
             + rings.scale_right(self.ring, self.d, a.std))
        return DualVector._adopt(self.ring, s, d)

    def __repr__(self):
        return f"DualVector({self.ring!r}, n={self.n})"


class DualMatrix(_DualArray):
    """A dense matrix of dual scalars with a uniform ring tag.

    `_hermitian` marks a matrix built Hermitian to the bit (the gain
    matrices of spectra._assemble and their principal submatrices): the
    solvers neither scan nor symmetrize it.  Every other matrix, a caller's
    or the result of arithmetic, is unmarked.
    """

    __slots__ = ("_hermitian",)
    _NDIM = 2
    _NOUN = "matrix"

    def __init__(self, ring, s, d=None):
        super().__init__(ring, s, d)
        self._hermitian = False

    @classmethod
    def _adopt(cls, ring, s, d, hermitian=False):
        out = super()._adopt(ring, s, d)
        out._hermitian = hermitian
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.s.shape[0], self.s.shape[1]

    @property
    def n_rows(self) -> int:
        return self.s.shape[0]

    @property
    def n_cols(self) -> int:
        return self.s.shape[1]

    def __matmul__(self, other):
        if isinstance(other, DualVector):
            if other.ring != self.ring:
                raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")
            if self.n_cols != other.n:
                raise ShapeMismatchError(f"cannot apply {self.shape} to length {other.n}")
        else:
            self._check(other, same_shape=False)
            if self.n_cols != other.n_rows:
                raise ShapeMismatchError(f"cannot multiply {self.shape} by {other.shape}")
        s = rings.matmul(self.ring, self.s, other.s)
        d = (rings.matmul(self.ring, self.s, other.d)
             + rings.matmul(self.ring, self.d, other.s))
        return other._adopt(self.ring, s, d)

    def conj_transpose(self) -> "DualMatrix":
        return DualMatrix._adopt(self.ring, rings.conj_transpose(self.ring, self.s),
                                 rings.conj_transpose(self.ring, self.d))

    def hermitian_defect(self) -> float:
        return max(rings.hermitian_defect(self.ring, self.s),
                   rings.hermitian_defect(self.ring, self.d))

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        return self.n_rows == self.n_cols and self.hermitian_defect() <= tol

    def inverse(self) -> "DualMatrix":
        """B with B_s = A_s^-1 and B_d = -A_s^-1 A_d A_s^-1."""
        if self.n_rows != self.n_cols:
            raise ShapeMismatchError("inverse needs a square matrix")
        s_inv = rings.inv(self.ring, self.s)
        d_inv = -rings.matmul(self.ring, s_inv, rings.matmul(self.ring, self.d, s_inv))
        return DualMatrix._adopt(self.ring, s_inv, d_inv)

    def __repr__(self):
        return f"DualMatrix({self.ring!r}, shape={self.shape})"


def _as_part(ring, data, ndim):
    arr = np.array(data, copy=True)
    if ring == RING_QUATERNION:
        if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
            raise ShapeMismatchError("quaternion parts use split shape (..., 2)")
        return arr.astype(np.complex128, copy=False)
    if arr.ndim != ndim:
        raise ShapeMismatchError(f"expected a {ndim}-d array")
    if ring == "real":
        if np.iscomplexobj(arr):
            raise RingMismatchError("complex data in a real-ring part")
        return arr.astype(np.float64, copy=False)
    return arr.astype(np.complex128, copy=False)


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def principal_submatrix(a: DualMatrix, subset) -> DualMatrix:
    """Rows and columns restricted to a vertex subset (in sorted order)."""
    keep = sorted(set(int(i) for i in subset))
    idx = np.ix_(keep, keep)
    return DualMatrix._adopt(a.ring, a.s[idx], a.d[idx], hermitian=a._hermitian)


# ---------------------------------------------------------------------------
# dual Hermitian eigendecomposition


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue (a dual number) with its unit eigenvector."""

    value: DualNumber
    vector: DualVector


def hermitian_eigendecomposition(a: DualMatrix) -> list[EigenPair]:
    """All n eigenpairs of a dual Hermitian matrix, sorted descending under
    the dual-number order.

    Standard parts are the eigenvalues of A_s.  Standard eigenvalues whose
    relative gap is at most rings._CLUSTER_GAP are treated as one cluster:
    their dual parts are the eigenvalues of the supplement W* A_d W, one
    stacked solve per cluster size, and W is rotated into the basis that
    diagonalizes it (a supplement scalar to rounding keeps W and its
    diagonal).  For quaternions W is one quaternion-orthonormal basis per
    cluster, built by rings.eigh under the same rule, so distinct members
    of a cluster share a supplement as they do in the other rings.
    Eigenvector dual parts are the first-order sums over the out-of-cluster
    directions.  Output is deterministic: each eigenvector is gauged so its
    first appreciable standard entry is positive real.
    """
    std, dual, vectors = _eigensystem(a, with_vectors=True)
    return list(map(EigenPair, map(DualNumber, std.tolist(), dual.tolist()), vectors))


_GAUGE_THRESHOLD = 1e-8     # standard entries this small are passed over by the gauge
_HERMITIAN_TOL = 1e-9       # largest hermitian defect the solvers and Mdet accept
_INVERSE_STEPS = 8          # solves an end-cluster basis may take in _radius
_END_RATIO = 1e-3           # largest contraction per solve that the end block accepts
_MOORE_SIZE_CAP = 9         # the permutation sum takes n! terms
_MOORE_TAIL = 7             # Moore words come in chunks of at most 7! = 5,040 rows


def _eigensystem(a: DualMatrix, *, with_vectors: bool, potentials=None):
    """The read-only std and dual arrays of the eigenvalues, sorted descending
    under the dual order, and their gauged eigenvectors (None without vectors).

    With `potentials` theta, `a` is a matrix switched to theta A theta* whose
    standard part is real to rounding (spectra._real_form): its real part
    takes one real symmetric solve, G below is one real product per float
    component of sym(A_d), and the eigenvectors are lifted into the ring and
    mapped back to x = conj(theta) x' before the gauge.

    After the Hermitian solve A_s V = V diag(w), every step works on the
    Gram matrix G = V* sym(A_d) V, and the dual parts are Re diag(G).  A
    cluster of size k keeps them, with W = I, when its supplement S =
    G[cl, cl] is within k eps max(1, max|G|) of mu I, mu the mean of its
    diagonal: by Weyl's bound they are then within k times that of the
    eigenvalues of S.  The other supplements take one stacked rings.eigh
    per cluster size, and with vectors their columns of V and G and rows of
    G are rotated by stacked products.  X_d = V C with C_ji = G_ji / (w_i -
    w_j) off the clusters and 0 on them, in G's buffer.  A zero sym(A_d)
    forms no G: the dual parts are 0.0, X_d is zero, and without vectors
    the standard solve is rings.eigvalsh.  The eigenvectors are read-only
    column views of the gauged V and X_d.

    sym(A_s) and sym(A_d) come from _hermitian_parts; sym(A_s) is dropped
    once the solve holds it.
    """
    s, d = _hermitian_parts(a)
    ring = a.ring
    n = a.n_rows
    if n == 0:
        return _freeze(np.zeros(0)), _freeze(np.zeros(0)), (() if with_vectors else None)

    if potentials is None:
        solve_ring = ring
    else:
        # the switched A_s is real to rounding: one real solve of its real part
        solve_ring, s = RING_REAL, (s[..., 0] if ring == RING_QUATERNION else s).real
    has_dual = bool(d.any())
    lam_d = np.zeros(n)
    if has_dual or with_vectors:
        w, v = rings.eigh(solve_ring, s)
    else:
        w = rings.eigvalsh(solve_ring, s)
    del s
    if has_dual:
        if potentials is None:
            g = rings.matmul(ring, rings.conj_transpose(ring, v), rings.matmul(ring, d, v))
        else:
            # V is real: one real product per float component of sym(A_d)
            comps = np.ascontiguousarray(np.moveaxis(d.view(np.float64).reshape(n, n, -1), -1, 0))
            g = np.moveaxis(v.T @ (comps @ v), 0, -1).copy().view(np.complex128).reshape(d.shape)
        lam_d = np.diagonal(g[..., 0] if ring == RING_QUATERNION else g).real.copy()
    if with_vectors:
        v = rings.widen(solve_ring, v, ring)
    splits = rings._splits(w)
    if has_dual and not splits.all():
        bounds = np.flatnonzero(np.r_[True, splits, True])
        sizes = np.diff(bounds)
        tol = np.finfo(np.float64).eps * max(1.0, rings.max_abs(ring, g))
        for k in np.unique(sizes[sizes > 1]).tolist():
            cols = bounds[:-1][sizes == k, None] + np.arange(k)
            blocks = rings.symmetrize(ring, g[cols[:, :, None], cols[:, None, :]])
            # a supplement within k tol of mu I keeps W = I and its diagonal in lam_d
            mu = rings.widen(RING_REAL, lam_d[cols].mean(axis=1)[:, None, None] * np.eye(k), ring)
            solve = rings.entry_abs(ring, blocks - mu).max(axis=(1, 2)) > k * tol
            if not solve.any():
                continue
            cols = cols[solve]
            lam_d[cols], z = rings.eigh(ring, blocks[solve])
            if with_vectors:
                for m in (v, g):        # the columns of V and G, then the rows of G
                    block = rings.matmul(ring, np.moveaxis(m[:, cols], 1, 0), z)
                    m[:, cols] = np.moveaxis(block, 0, 1)
                g[cols] = rings.matmul(ring, rings.conj_transpose(ring, z), g[cols])
    order = np.lexsort((-lam_d, -w))
    std, dual = _freeze(w[order]), _freeze(lam_d[order])
    if not with_vectors:
        return std, dual, None

    if has_dual:
        label = np.concatenate(([0], np.cumsum(splits)))    # cluster of each eigenvalue
        delta = np.where(label[:, None] == label, np.inf, w - w[:, None])   # w_i - w_j
        g /= delta[..., None] if ring == RING_QUATERNION else delta
        x_d = rings.matmul(ring, v, g)
    else:
        x_d = rings.zeros(ring, (n, n))
    if potentials is not None:
        back = rings.conj(ring, potentials)[:, None]
        v, x_d = rings.mul(ring, back, v), rings.mul(ring, back, x_d)
    _gauge(ring, v, x_d)
    v, x_d = _freeze(v), _freeze(x_d)
    return std, dual, tuple(DualVector._adopt(ring, v[:, i], x_d[:, i]) for i in order)


def _check_hermitian(a: DualMatrix):
    """Refuse a matrix that is not square or not Hermitian within
    _HERMITIAN_TOL; a matrix built Hermitian to the bit is not scanned."""
    if a._hermitian:
        return
    if a.n_rows != a.n_cols:
        raise NotHermitianError("matrix is not square")
    defect = a.hermitian_defect()
    if defect > _HERMITIAN_TOL:
        raise NotHermitianError(f"hermitian defect {defect:.3e} exceeds {_HERMITIAN_TOL:.3e}")


def _hermitian_parts(a: DualMatrix):
    """The parts of a dual Hermitian matrix as the solvers take them: its
    own parts when it is built Hermitian to the bit, otherwise sym(A_s) and
    sym(A_d) after the defect check."""
    _check_hermitian(a)
    if a._hermitian:
        return a.s, a.d
    return rings.symmetrize(a.ring, a.s), rings.symmetrize(a.ring, a.d)


def _radius(a: DualMatrix) -> DualNumber:
    """The spectral radius of a dual Hermitian matrix: the largest
    |lambda| under the dual-number order, as spectral_radius takes it over
    the whole spectrum, from the standard eigenvalues and one end cluster.

    The standard parts are w = eigvalsh(A_s) (over the 2n complex embedding
    for quaternions, which repeats every eigenvalue), split into clusters by
    rings._clusters, the one rule that rings.eigh and _eigensystem also
    follow.  Only an end cluster whose |w| ties max |w|
    under that rule can hold the radius.  The dual parts of such a cluster
    are the eigenvalues of its supplement W* A_d W, with W from
    _end_basis; at the top end the radius candidate is (max w, max dual),
    at the bottom end (min w, min dual).  The parts come from
    _hermitian_parts.
    """
    s, d = _hermitian_parts(a)
    if a.n_rows == 0:
        raise BadParameterError("spectral radius of an empty spectrum")
    if a.ring == RING_QUATERNION:
        s, d = rings.embed_quaternion(s), rings.embed_quaternion(d)
    w = np.linalg.eigvalsh(s)
    clusters = list(rings._clusters(w))
    reach = max(-w[0], w[-1])       # max |w|
    cap = rings._CLUSTER_GAP * max(1.0, reach)
    candidates = []
    # the top and the bottom cluster, once when they are the same
    for c0, c1 in dict.fromkeys((clusters[-1], clusters[0])):
        at_top = c1 == len(w) and reach - w[-1] <= cap
        at_bottom = c0 == 0 and reach + w[0] <= cap
        if not (at_top or at_bottom):
            continue
        basis = _end_basis(s, w, c0, c1)
        # W* sym(A_d) W, symmetrized after the product: k x k, not n x n
        dvals = np.linalg.eigvalsh(rings.symmetrize(RING_COMPLEX, basis.conj().T @ d @ basis))
        if at_top:
            candidates.append(DualNumber(w[-1], dvals[-1]).magnitude())
        if at_bottom:
            candidates.append(DualNumber(w[0], dvals[0]).magnitude())
    return max(candidates)


def _end_basis(s, w, c0, c1):
    """An orthonormal basis of the invariant subspace of the Hermitian s
    that belongs to its end cluster w[c0:c1] (w ascending, the whole
    spectrum of s).

    Block inverse iteration: solve (s - sigma) X = B with sigma the end
    eigenvalue and B the fixed _start_block, take the Q of X, and repeat from Q
    until the residual |s Q - Q (Q* s Q)| is at rounding level or
    _INVERSE_STEPS solves are spent.  Each solve shrinks the directions
    outside the block by the ratio of the farthest block eigenvalue's
    distance from sigma to the nearest outside one's, so the block widens
    past the cluster, nearest eigenvalues first, until that ratio is at most
    _END_RATIO; a Rayleigh-Ritz step then keeps the cluster's k directions.
    Where LU meets an exactly singular matrix (an integer matrix whose end
    eigenvalue is exact), sigma moves outward, away from the spectrum, by
    n eps max |w|.
    """
    n, k = len(w), c1 - c0
    at_top = c1 == n
    sigma = w[-1] if at_top else w[0]
    dist = np.abs(w - sigma)
    if at_top:
        dist = dist[::-1]
    fast = np.flatnonzero(dist[k - 1:-1] <= _END_RATIO * dist[k:])
    width = k + int(fast[0]) if fast.size else n
    if width == n:
        q = np.eye(n, dtype=s.dtype)
    else:
        eps_n = n * np.finfo(np.float64).eps * max(1.0, -w[0], w[-1])
        outward = eps_n if at_top else -eps_n
        q = _start_block(n, width, s.dtype)
        shifted, diag = s.copy(), np.diag_indices(n)
        for _ in range(_INVERSE_STEPS):
            shifted[diag] = s[diag] - sigma
            try:
                x = np.linalg.solve(shifted, q)
            except np.linalg.LinAlgError:
                sigma += outward
                continue
            q = np.linalg.qr(x)[0]
            sq = s @ q
            if np.abs(sq - q @ (q.conj().T @ sq)).max() <= eps_n:
                break
    if width == k:
        return q
    ritz = np.linalg.eigh(rings.symmetrize(RING_COMPLEX, q.conj().T @ s @ q))[1]
    return q @ (ritz[:, -k:] if at_top else ritz[:, :k])


def _start_block(n, width, dtype):
    """An n x width block of fixed pseudo-random entries in [-1, 1), real
    or complex as `dtype` is: splitmix64 of the entry index.  Inverse
    iteration starts from the same generic block on every call, and loading
    numpy.random (about 6 MB of resident memory) is not needed for it."""
    size = n * width * (2 if np.dtype(dtype).kind == "c" else 1)
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -52 - 1.0
    return x.view(dtype).reshape(n, width)


def _gauge(ring, v, x_d):
    """Right-multiply column i of v and x_d by the unit that makes the lead
    entry of v[:, i] positive real, in place.  The lead entry is the first
    one above _GAUGE_THRESHOLD in magnitude, or the largest if none is."""
    mags = rings.entry_abs(ring, v)
    above = mags > _GAUGE_THRESHOLD
    cols = np.arange(v.shape[1])
    rows = np.where(above.any(axis=0), above.argmax(axis=0), mags.argmax(axis=0))
    inv = 1.0 / mags[rows, cols]
    lead = v[rows, cols]
    if ring == RING_QUATERNION:
        unit = np.stack((lead[:, 0].conj() * inv, -lead[:, 1] * inv), axis=-1)
    else:
        unit = lead.conj() * inv
    rings.scale_columns(ring, v, unit)
    rings.scale_columns(ring, x_d, unit)


# ---------------------------------------------------------------------------
# Moore determinant


def moore_determinant(a: DualMatrix) -> DualScalar:
    """Permutation-sum determinant for dual Hermitian matrices.

    Moore's order writes each permutation as disjoint cycles, the minimal
    index first inside every cycle and the cycles by decreasing leading
    index; the entry products follow that order, which makes the sum well
    defined over the quaternions.  Written one after another, the cycles
    form a word w of all n indices, and every such word is the canonical
    form of exactly one permutation (Foata's bijection): its cycles start at
    the left-to-right minima of w.  So the sum runs over all n! words, in
    numpy chunks of at most _MOORE_TAIL! rows.  With lead_t = min(w_0..w_t),
    factor t is a[w_t, w_{t+1}], or a[w_t, lead_t] when w_{t+1} starts a new
    cycle or t is the last position, and the sign of the term is
    (-1)^(n - number of minima).  Equals the product of the eigenvalues.
    """
    _check_hermitian(a)
    n = a.n_rows
    if n > _MOORE_SIZE_CAP:
        raise SizeCapExceededError(f"n={n} exceeds the size cap {_MOORE_SIZE_CAP}")
    ring = a.ring
    if n == 0:
        return DualScalar.one(ring)

    s = a.s.reshape((n * n,) + a.s.shape[2:])
    d = a.d.reshape(s.shape)
    total_s, total_d = rings.zeros(ring, ()), rings.zeros(ring, ())
    for flat, sign in _moore_terms(n):
        ps, pd = s[flat[:, 0]], d[flat[:, 0]]
        for t in range(1, n):
            ps, pd = rings.dual_mul(ring, ps, pd, s[flat[:, t]], d[flat[:, t]])
        total_s += sign @ ps
        total_d += sign @ pd
    return DualScalar(ring, rings.get(ring, total_s, ()), rings.get(ring, total_d, ()))


def _moore_terms(n):
    """The n! terms of the Moore sum, in chunks (flat, sign): row r of flat
    holds the flat indices i * n + j of its n factors a[i, j] in Moore's
    order, and sign[r] is +1.0 or -1.0.

    A chunk is one head of n - k leading word positions, k = min(n,
    _MOORE_TAIL), followed by every arrangement of the k indices the head
    leaves out.
    """
    k = min(n, _MOORE_TAIL)
    tails = _arrangements(k, k)
    for head in _arrangements(n, n - k):
        rest = np.delete(np.arange(n), head)
        w = np.column_stack((np.broadcast_to(head, (len(tails), n - k)), rest[tails]))
        lead = np.minimum.accumulate(w, axis=1)
        starts = w == lead
        closes = np.ones_like(starts)
        closes[:, :-1] = starts[:, 1:]
        flat = w * n + np.where(closes, lead, np.roll(w, -1, axis=1))
        yield flat, 1.0 - 2.0 * ((n - starts.sum(axis=1)) % 2)


def _arrangements(n, length):
    """Every sequence of `length` distinct indices from range(n), one per
    row, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(length):
        used = (rows[:, :, None] == np.arange(n)).any(axis=1)
        parent, value = np.nonzero(~used)
        rows = np.column_stack((rows[parent], value))
    return rows
