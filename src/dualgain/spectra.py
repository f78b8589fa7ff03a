"""Adjacency and Laplacian spectra of dual unit gain graphs, closed forms
for paths and cycles, spectral radii, interlacing checks and radius bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import _rings as rings
from . import linalg
from .errors import BadParameterError, RingMismatchError
from .gain_graph import GainGraph, _vertex_subset
from .linalg import DualMatrix
from .scalars import (
    DEFAULT_TOL,
    DualNumber,
    DualScalar,
    RING_COMPLEX,
    RING_QUATERNION,
    RING_REAL,
    UNIT_TOL,
    dual_geq,
)
from .transcendental import reduce_to_complex, unit_to_angle

KIND_ADJACENCY = "adjacency"
KIND_LAPLACIAN = "laplacian"
_KINDS = (KIND_ADJACENCY, KIND_LAPLACIAN)

_INTERLACING_SLACK = 1e-9   # dual-order slack of the interlacing inequalities
_BOUND_TOL = 1e-12          # excess of rho over a radius bound still counted as holding
_EQUALITY_TOL = 1e-8        # rho(gain graph) = rho(G) when both parts agree this far


def _check_kind(kind):
    if kind not in _KINDS:
        raise BadParameterError(f"matrix kind must be one of {_KINDS}, got {kind!r}")


def _plain(value):
    """A field value as JSON data: a dual number as {"std", "dual"}, a tuple
    as a list."""
    if isinstance(value, DualNumber):
        return {"std": value.std, "dual": value.dual}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class _Record:
    """Base of the result dataclasses: `to_dict` gives every field in
    declaration order."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted descending under the dual order as two read-only
    float arrays, std and dual parts, with optional eigenvectors."""

    kind: str
    std: np.ndarray
    dual: np.ndarray
    vectors: tuple | None = None

    def __post_init__(self):
        self.std.flags.writeable = self.dual.flags.writeable = False

    def __len__(self):
        return len(self.std)

    @cached_property
    def values(self) -> tuple:
        """The eigenvalues as dual numbers, built on first use."""
        return tuple(map(DualNumber, self.std.tolist(), self.dual.tolist()))

    def to_dict(self) -> dict:
        pairs = zip(self.std.tolist(), self.dual.tolist())
        return {"kind": self.kind, "values": [{"std": s, "dual": d} for s, d in pairs]}


def _assemble(phi: GainGraph, kind, std, dual) -> DualMatrix:
    """The matrix of `kind` with the gain arrays std and dual on phi's edges,
    filled by fancy indexing: a_ij = gain(i -> j) on edges, and for the
    Laplacian D - A with D the (real) degree diagonal.  a_ji is the exact
    conjugate of a_ij, so the matrix is Hermitian to the bit and marked so."""
    n, ring = phi.n, phi.ring
    rings.check_dense_size(ring, n)
    u, v = phi.graph.edge_array.T
    parts = []
    for gains in (std, dual):
        part = rings.zeros(ring, (n, n))
        part[u, v] = gains
        part[v, u] = rings.conj(ring, gains)
        if kind == KIND_LAPLACIAN:
            np.negative(part, out=part)
        parts.append(part)
    if kind == KIND_LAPLACIAN:
        diag = np.arange(n)
        index = (diag, diag, 0) if ring == RING_QUATERNION else (diag, diag)
        parts[0][index] += phi.graph.degrees()
    return DualMatrix._adopt(ring, *parts, hermitian=True)


def adjacency_matrix(phi: GainGraph) -> DualMatrix:
    """a_ij = gain(i -> j) on edges, zero elsewhere; Hermitian by construction."""
    return _assemble(phi, KIND_ADJACENCY, phi.std, phi.dual)


def laplacian_matrix(phi: GainGraph) -> DualMatrix:
    """L = D - A with D the (real) degree diagonal."""
    return _assemble(phi, KIND_LAPLACIAN, phi.std, phi.dual)


def gain_matrix(phi: GainGraph, kind: str) -> DualMatrix:
    _check_kind(kind)
    return adjacency_matrix(phi) if kind == KIND_ADJACENCY else laplacian_matrix(phi)


# least n at which complex and quaternion graphs try the real form (a wrong
# value costs time, not accuracy).  Values only, medians of 31, fresh degree-6
# standard-balanced graphs, 2-vCPU x86-64, general route -> real form: complex
# n = 50 835 -> 1000 us, n = 64 1258 -> 1267 us, n = 100 4.16 -> 2.75 ms;
# quaternion n = 24 940 -> 1040 us, n = 32 1.41 -> 1.22 ms
_REAL_FORM_FLOOR = 64


def _real_form(phi: GainGraph, kind):
    """The matrix of `kind` and the potentials for linalg._eigensystem.

    Switched by the standard potentials theta of the balance pass, to
    theta(u) gain(u, v) conj(theta(v)), a graph has standard gains 1 where
    its standard part is balanced and +-1 where it is antibalanced.  When
    every switched standard gain is +-1 within DEFAULT_TOL, the switched
    matrix comes with theta; otherwise, and for the real ring or below
    _REAL_FORM_FLOOR vertices, phi's own matrix comes with None.
    """
    _check_kind(kind)
    ring = phi.ring
    if ring == RING_REAL or phi.n < _REAL_FORM_FLOOR:
        return gain_matrix(phi, kind), None
    rings.check_dense_size(ring, phi.n)
    theta = phi._balance_pass().theta_std
    u, v = phi.graph.edge_array.T
    left, right = theta[u], rings.conj(ring, theta[v])
    std, dual = (rings.mul(ring, rings.mul(ring, left, part), right)
                 for part in (phi.std, phi.dual))
    sign = np.sign((std[:, 0] if ring == RING_QUATERNION else std).real)
    off = rings.entry_abs(ring, std - rings.widen(RING_REAL, sign, ring))
    if not (off <= DEFAULT_TOL).all():
        return gain_matrix(phi, kind), None
    return _assemble(phi, kind, std, dual), theta


def spectrum(phi: GainGraph, kind: str = KIND_ADJACENCY, *,
             with_vectors: bool = True) -> Spectrum:
    """Eigendecompose the chosen matrix, sorted descending under the dual
    order.  Without vectors the solve stops once the eigenvalues are known.
    A graph whose standard part switches to real gains is solved in real
    arithmetic (_real_form)."""
    matrix, theta = _real_form(phi, kind)
    return Spectrum(kind, *linalg._eigensystem(matrix, with_vectors=with_vectors,
                                               potentials=theta))


# ---------------------------------------------------------------------------
# closed forms


def path_spectrum_closed_form(n: int, kind: str = KIND_ADJACENCY) -> Spectrum:
    """Paths are balanced, so gains are irrelevant: 2 cos(pi j / (n + 1)) for
    the adjacency matrix, 2 - 2 cos(pi j / n) for the Laplacian."""
    _check_kind(kind)
    if n < 1:
        raise BadParameterError("a path needs at least one vertex")
    rings.check_vertex_count(n)
    if kind == KIND_ADJACENCY:
        std = 2.0 * np.cos(math.pi * np.arange(1.0, n + 1) / (n + 1))
    else:
        std = 2.0 - 2.0 * np.cos(math.pi * np.arange(float(n)) / n)
    # descending; equal values have equal bits (no -0.0), so stability is moot
    return Spectrum(kind, np.sort(std)[::-1], np.zeros(n))


def cycle_spectrum_closed_form(n: int, gain: DualScalar, kind: str = KIND_ADJACENCY,
                               tol: float = UNIT_TOL) -> Spectrum:
    """Closed-form cycle spectrum from the total cycle gain.

    For a dual complex unit gain with angle theta the adjacency eigenvalues
    are 2 cos((theta + 2 pi j) / n) and the Laplacian ones 2 minus that,
    j = 0..n-1, with the dual cosine cos(a) = cos(a_s) - a_d sin(a_s) eps and
    a_s wrapped to (-pi, pi] as DualAngle wraps it.  Dual quaternion gains
    are reduced to a similar dual complex number first; dual real gains
    embed into the complex ring.
    """
    _check_kind(kind)
    if n < 3:
        raise BadParameterError("a cycle needs at least three vertices")
    rings.check_vertex_count(n)
    if not isinstance(gain, DualScalar):
        raise RingMismatchError("gain must be a dual scalar")
    if gain.ring == RING_QUATERNION:
        gain, _ = reduce_to_complex(gain)
    theta = unit_to_angle(gain.widen(RING_COMPLEX), tol)
    angle = (theta.std + 2.0 * math.pi * np.arange(float(n))) / n % (2.0 * math.pi)
    angle[angle > math.pi] -= 2.0 * math.pi
    std, dual = 2.0 * np.cos(angle), 2.0 * (-(theta.dual / n) * np.sin(angle))
    if kind == KIND_LAPLACIAN:
        std, dual = 2.0 - std, -dual
    return Spectrum(kind, *_merge_degenerate_and_sort(std, dual))


def _merge_degenerate_and_sort(std, dual):
    """The (std, dual) arrays sorted descending, ignoring the last-bit noise
    in the standard parts that would otherwise order the degenerate pairs of
    angles theta and -theta.  After a stable sort on std, value v joins the
    group of the value before it when the group's first member a has
    a - v <= 1e-12 max(1, |a|); a group takes the mean std of its members,
    and its duals sort stably descending."""
    order = np.argsort(-std, kind="stable")
    std, dual, n = std[order], dual[order], len(std)
    reach = 1e-12 * np.maximum(1.0, np.abs(std))
    anchor = np.arange(n)
    while True:     # until no anchor moves; one pass when no two values are close
        prev = anchor[:-1]
        new = np.where(std[prev] - std[1:] <= reach[prev], prev, np.arange(1, n))
        if (new == anchor[1:]).all():
            break
        anchor[1:] = new
    # the last two steps write into dual and std, not into fresh arrays that
    # would sit above the freed temporaries the heap of a large closed form
    # keeps resident
    np.take(dual, np.lexsort((-dual, anchor)), out=dual)
    # bincount adds each group's members in order, from 0.0, as sum() does
    np.take(np.bincount(anchor, weights=std), anchor, out=std)
    std /= np.bincount(anchor)[anchor]
    return std, dual


# ---------------------------------------------------------------------------
# radii, interlacing, bound reports


def spectral_radius(spec) -> DualNumber:
    """Largest |eigenvalue| under the dual-number order."""
    values = spec.values if isinstance(spec, Spectrum) else tuple(spec)
    if not values:
        raise BadParameterError("spectral radius of an empty spectrum")
    return max(v.magnitude() for v in values)


@dataclass(frozen=True)
class InterlacingReport(_Record):
    """Per-inequality verdicts for one induced-subgraph interlacing check."""

    kind: str
    subset: tuple
    values_full: tuple
    values_sub: tuple
    upper_ok: tuple      # lambda_i >= mu_i
    lower_ok: tuple      # mu_i >= lambda_{n + i - k}
    holds: bool


def check_interlacing(phi: GainGraph, subset, kind: str = KIND_ADJACENCY) -> InterlacingReport:
    """Verify lambda_i >= mu_i >= lambda_{n+i-k} on a vertex subset.

    Both theorems compare against the principal submatrix on S.  For the
    adjacency matrix that is exactly A of the induced subgraph; for the
    Laplacian the diagonal keeps the degrees of the full graph (the induced
    subgraph's own Laplacian does not interlace in general).  Comparisons
    use the tolerance-aware dual order: standard parts within
    _INTERLACING_SLACK defer to dual parts with the same slack.
    """
    subset = tuple(_vertex_subset(phi.n, subset))
    if not subset:
        raise BadParameterError("subset must be nonempty")
    matrix, theta = _real_form(phi, kind)
    lam = Spectrum(kind, *linalg._eigensystem(matrix, with_vectors=False,
                                              potentials=theta)).values
    # the principal submatrix of the switched matrix is the switched one;
    # rebinding frees the full matrix before the second solve
    matrix = linalg.principal_submatrix(matrix, subset)
    theta = None if theta is None else theta[list(subset)]
    mu = Spectrum(kind, *linalg._eigensystem(matrix, with_vectors=False,
                                             potentials=theta)).values
    n, k = len(lam), len(mu)
    upper = tuple(dual_geq(lam[i], mu[i], _INTERLACING_SLACK) for i in range(k))
    lower = tuple(dual_geq(mu[i], lam[n - k + i], _INTERLACING_SLACK) for i in range(k))
    return InterlacingReport(kind, subset, lam, mu, upper, lower,
                             all(upper) and all(lower))


@dataclass(frozen=True)
class RadiusReport(_Record):
    """Spectral radius of a gain graph against its underlying-graph bounds.

    For the adjacency kind the comparison radius is rho_A(G) and the degree
    bound is Delta; for the Laplacian kind they are rho_Q(G) (signless
    Laplacian) and 2 Delta.  For connected graphs the equality flag is
    cross-checked against the standard gains alone: adjacency equality
    holds exactly when they are balanced or antibalanced, Laplacian
    equality exactly when they are antibalanced (`equality_predicted`,
    `consistent`).  Switched so its standard gains are all 1 (or all -1), a
    graph has purely imaginary dual gains (the unit condition), so
    x^T A_d x = 0 for the real Perron vector x of A(G) (or Q(G)), and
    rho = rho(G) + 0 eps.

    `balanced` and `antibalanced` are the verdicts on the dual gains.  The
    paper reads equality from those; `paper_rule_holds` is False where
    that rule fails.  The 8-cycle with gain 1 + 0.3i eps meets the bound
    although it is unbalanced.  Both checks are None for disconnected
    graphs.
    """

    kind: str
    rho_gain: DualNumber
    rho_graph: float
    delta_bound: float
    bound_holds: bool
    delta_bound_holds: bool
    equality: bool
    connected: bool
    balanced: bool
    antibalanced: bool
    equality_predicted: bool | None
    consistent: bool | None
    paper_rule_holds: bool | None


# The Perron route of underlying_radius (a wrong floor or budget costs time,
# not accuracy).  Degree-6 random graphs, both kinds, medians of 60 over 4
# graphs per n, 2-vCPU x86-64, Lanczos against dense eigvalsh: n = 150 1.39
# against 1.07 ms, n = 175 1.52 against 1.58 ms, n = 200 2.02 against 2.18 ms,
# n = 256 1.77 against 3.70 ms.  Least steps to a certified root on degree-6
# random graphs of n = 210, 450 and 540, 80 each: at most 47, 57 and 58.  The
# cost of k steps that certify nothing grows as k^3, the convergence tests on
# T_k dominating.  Paths spend their whole budget; medians against dense
# eigvalsh at n = 176-1,200: n / 3 steps take 0.9-1.7 times the dense time,
# n / 4 steps 0.54-0.74 times.  300 steps take 0.2 times at n = 2,000, and
# 0.6 s at n = 20,000, where the dense route is refused.
_PERRON_FLOOR = 176     # least n that tries the Lanczos route
_PERRON_STEPS = 300     # most Lanczos steps before the dense route takes over,
_PERRON_SHARE = 4       # and at most n / _PERRON_SHARE of them
_PERRON_WIDTH = _EQUALITY_TOL / 10      # how far the bracket of rho may reach from theta


def underlying_radius(phi: GainGraph, kind: str = KIND_ADJACENCY) -> float:
    """rho_A(G) for the adjacency kind, rho_Q(G) = rho(D + A) for the
    Laplacian kind: the Perron root of a nonnegative matrix.

    From _PERRON_FLOOR vertices on it is the Lanczos root of _perron_root,
    certified within _PERRON_WIDTH, with no dense matrix.  Below the floor,
    or when that route certifies nothing within its step budget, it is
    max |w| of a dense eigvalsh, which rings.check_dense_size may refuse.
    """
    _check_kind(kind)
    graph, n = phi.graph, phi.n
    if n == 0:
        raise BadParameterError("radius of an empty graph")
    signless = kind == KIND_LAPLACIAN
    if n >= _PERRON_FLOOR:
        rho = _perron_root(graph, signless)
        if rho is not None:
            return rho
    rings.check_dense_size(RING_REAL, n)
    a = graph.adjacency()
    if signless:
        a[np.diag_indices(n)] = graph.degrees()
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def _perron_root(graph, signless):
    """The Perron root of M = A(G), or of M = D + A(G) when `signless`, by
    Lanczos with full reorthogonalisation; None when no root is certified.

    M x is one bincount over both orientations of the edge array, and the
    start is the all-ones vector.  Each Lanczos vector is orthogonalised
    against the whole basis so far, which grows only with the steps taken.
    The run stops when the top Ritz residual |beta_k s_k| of the
    tridiagonal T_k is at rounding level, eps max(1, theta), tested after
    steps 8, 10, 12, 15, ..., each about k / 4 after the last, and where
    beta breaks down.  It gives up after min(_PERRON_STEPS, n /
    _PERRON_SHARE) steps, so that a run which certifies nothing costs less
    than the dense solve that follows it, or where the basis would take
    more memory than one of the rings._DENSE_ARRAYS arrays of a dense
    solve may.

    The Ritz value theta is accepted only inside a bracket of the root rho
    that its Ritz vector x gives.  The lower end is the Rayleigh quotient
    x^T M x / x^T x: at most rho for every x, and where x > 0 at least the
    Collatz-Wielandt lower end min (M x)_i / x_i.  The upper end is
    Collatz-Wielandt, per component of the BFS forest: where x > 0 on the
    whole component, its root is at most max (M x)_i / x_i over it;
    elsewhere (a component whose root is below theta, where x vanishes to
    rounding) at most its largest row sum.  rho is the largest component
    root, so theta is accepted when the lower end is at least theta - tol
    and every upper end at most theta + tol, tol = _PERRON_WIDTH, a tenth
    of the equality tolerance of radius_report: an accepted theta is within
    tol of rho.  Perron vectors whose entries fall to rounding level leave
    the upper end open wider than that (random recursive trees, the
    signless kind of sparse random graphs of many thousand vertices); those
    graphs take the dense route.
    """
    n = graph.n
    if graph.m == 0:
        return 0.0      # M = 0 (and bincount over no edges gives integers)
    u, v = graph.edge_array.T
    heads, tails = np.concatenate((u, v)), np.concatenate((v, u))
    degrees = graph.degrees().astype(float)

    def apply(x):
        y = np.bincount(heads, weights=x[tails], minlength=n)
        return y + degrees * x if signless else y

    steps = min(_PERRON_STEPS, n // _PERRON_SHARE)
    physical = rings._physical_memory()
    if physical is not None:
        steps = min(steps, physical // (rings._DENSE_ARRAYS * 8 * n))
    eps = np.finfo(np.float64).eps
    basis = np.empty((min(16, steps), n))
    basis[0] = 1.0 / math.sqrt(n)
    t = np.zeros((steps, steps))
    check = 8
    for k in range(steps):
        w = apply(basis[k])
        t[k, k] = alpha = basis[k] @ w
        w -= alpha * basis[k]
        if k:
            w -= t[k - 1, k] * basis[k - 1]
        done = basis[:k + 1]
        w -= (done @ w) @ done
        beta = math.sqrt(w @ w)
        broke = beta <= eps * max(1.0, abs(alpha))
        if k + 1 >= check or k + 1 == steps or broke:
            theta, s = np.linalg.eigh(t[:k + 1, :k + 1])
            theta, s = float(theta[-1]), s[:, -1]
            if beta * abs(s[-1]) <= eps * max(1.0, theta):
                rows = 2.0 * degrees if signless else degrees     # the row sums of M
                return theta if _bracketed(graph, apply, theta, s @ done, rows) else None
            if broke:
                return None
            check = k + 1 + (k + 1) // 4
        if k + 1 == steps:
            return None
        if k + 1 == len(basis):
            grown = np.empty((min(2 * len(basis), steps), n))
            grown[:k + 1] = basis
            basis = grown
        basis[k + 1] = w / beta
        t[k, k + 1] = t[k + 1, k] = beta


def _bracketed(graph, apply, theta, x, rows):
    """Whether the Ritz vector x brackets the Perron root of M (x -> M x
    is `apply`, `rows` its row sums) within _PERRON_WIDTH of theta (see
    _perron_root)."""
    x = x if x.sum() > 0 else -x
    y = apply(x)
    if (x @ y) / (x @ x) < theta - _PERRON_WIDTH:
        return False
    trees = graph._bfs_forest()[2]
    order = np.fromiter(itertools.chain.from_iterable(trees), np.int64, graph.n)
    sizes = np.fromiter(map(len, trees), np.int64, len(trees))
    on = np.empty(graph.n, dtype=bool)
    on[order] = np.repeat(np.minimum.reduceat(x[order], np.cumsum(sizes) - sizes) > 0, sizes)
    # (M x)_i / x_i where x > 0 on i's whole component, the row sum of M elsewhere
    upper = np.divide(y, x, out=rows.copy(), where=on)
    return upper.max() <= theta + _PERRON_WIDTH


def radius_report(phi: GainGraph, kind: str = KIND_ADJACENCY) -> RadiusReport:
    """Radius, bounds and equality of `phi`; balance is decided under `phi.tol`.

    The radius takes the standard eigenvalues and the supplement of one end
    cluster (linalg._radius), not the whole dual spectrum; rho(G) needs no
    dense matrix from _PERRON_FLOOR vertices on (underlying_radius);
    balance and antibalance come from one pass over the graph.
    """
    _check_kind(kind)
    rho_gain = linalg._radius(gain_matrix(phi, kind))
    rho_graph = underlying_radius(phi, kind)
    delta = float(phi.graph.max_degree())
    delta_bound = delta if kind == KIND_ADJACENCY else 2.0 * delta
    bound_holds = rho_gain.std <= rho_graph + _BOUND_TOL
    delta_bound_holds = rho_gain.std <= delta_bound + _BOUND_TOL
    equality = (abs(rho_gain.std - rho_graph) <= _EQUALITY_TOL
                and abs(rho_gain.dual) <= _EQUALITY_TOL)
    connected = phi.graph.is_connected()
    verdicts = phi._balance_pass()
    balanced = not verdicts.unbalanced.any()
    antibalanced = not verdicts.unantibalanced.any()
    predicted = consistent = paper_rule_holds = None
    if connected:
        std_balanced = not verdicts.std_unbalanced.any()
        std_antibalanced = not verdicts.std_unantibalanced.any()
        if kind == KIND_ADJACENCY:
            predicted, paper_predicted = std_balanced or std_antibalanced, balanced or antibalanced
        else:
            predicted, paper_predicted = std_antibalanced, antibalanced
        consistent = predicted == equality
        paper_rule_holds = paper_predicted == equality
    return RadiusReport(kind, rho_gain, rho_graph, delta_bound, bound_holds,
                        delta_bound_holds, equality, connected, balanced,
                        antibalanced, predicted, consistent, paper_rule_holds)
