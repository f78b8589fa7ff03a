"""Independent numpy references, and the comparisons the gate makes.

Standard parts of every spectrum come from `eigvalsh` of A_s (of its
complex-adjoint embedding for quaternions).  Dual parts are the one-sided
derivative of the same sorted eigenvalues along A_s + t A_d as t -> 0+,
taken by Richardson extrapolation of two difference quotients; inside a
cluster of equal standard eigenvalues that limit is exactly the sorted
spectrum of the supplement matrix, so the reference needs no cluster logic.
"""

from __future__ import annotations

import numpy as np

from gen import WIDTH

STEP = 1e-3          # t times the row-sum norm of A_d
STD_TOL = 1e-8       # relative to max(1, |A_s|)
DUAL_TOL = 1e-5      # relative to max(1, |A_d| + |A_s|)
CLUSTER_TOL = 1e-6   # standard parts closer than this are compared as a set


def embed(a):
    """Complex matrix of a split quaternion matrix (n, n, 4 components)."""
    a1 = a[..., 0] + 1j * a[..., 1]
    a2 = a[..., 2] + 1j * a[..., 3]
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]])


def dense_parts(graph, kind, vertices=None):
    """(A_s, A_d) as plain real/complex matrices; quaternions embedded.

    For the Laplacian, L = D - A with the degree diagonal of the full graph;
    `vertices` restricts rows and columns to a principal submatrix.
    """
    n = graph.n
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    parts = []
    for gains in (graph.std, graph.dual):
        a = np.zeros((n, n, 4))
        a[u, v] = gains
        a[v, u] = gains * np.array([1.0, -1.0, -1.0, -1.0])
        if kind == "laplacian":
            a = -a
            if gains is graph.std:
                a[np.arange(n), np.arange(n), 0] += np.bincount(
                    graph.edges.ravel(), minlength=n)
        if vertices is not None:
            a = a[np.ix_(vertices, vertices)]
        if graph.ring == "quaternion":
            parts.append(embed(a))
        elif graph.ring == "complex":
            parts.append(a[..., 0] + 1j * a[..., 1])
        else:
            parts.append(a[..., 0])
    return parts


def dual_eigenvalues(graph, kind, vertices=None):
    """Reference dual eigenvalues, sorted descending by standard part:
    (std, dual) float arrays."""
    s, d = dense_parts(graph, kind, vertices)
    step = STEP / max(1.0, np.abs(d).sum(axis=1).max(initial=0.0))
    w0 = np.linalg.eigvalsh(s)
    w1 = np.linalg.eigvalsh(s + step * d)
    w2 = np.linalg.eigvalsh(s + 2.0 * step * d)
    dual = (4.0 * (w1 - w0) - (w2 - w0)) / (2.0 * step)
    if graph.ring == "quaternion":
        w0, dual = w0[::2], dual[::2]
    return w0[::-1].copy(), dual[::-1].copy()


def scales(graph):
    s, d = dense_parts(graph, "laplacian")
    ns = float(np.abs(s).sum(axis=1).max(initial=0.0))
    nd = float(np.abs(d).sum(axis=1).max(initial=0.0))
    return STD_TOL * max(1.0, ns), DUAL_TOL * max(1.0, ns + nd)


def underlying_radius(graph, kind):
    n = graph.n
    a = np.zeros((n, n))
    a[graph.edges[:, 0], graph.edges[:, 1]] = 1.0
    a += a.T
    if kind == "laplacian":
        a += np.diag(a.sum(axis=1))
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def eigen_residuals(graph_parts, ring, values, vectors):
    """Max first-order residual |A x - x lambda| over eigenpairs, both parts.

    graph_parts are the benchmark's own (A_s, A_d), embedded for quaternions;
    vectors come from the library in its split layout.
    """
    s, d = graph_parts
    lam_s = np.array([v.std for v in values])
    lam_d = np.array([v.dual for v in values])

    def cols(part):
        x = np.stack([getattr(vec, part) for vec in vectors], axis=1)
        if ring == "quaternion":
            return np.concatenate((x[..., 0], -x[..., 1].conj()), axis=0)
        return x

    xs, xd = cols("s"), cols("d")
    r_std = s @ xs - xs * lam_s
    r_dual = s @ xd + d @ xs - xs * lam_d - xd * lam_s
    return float(np.abs(r_std).max(initial=0.0)), float(np.abs(r_dual).max(initial=0.0))


# ---------------------------------------------------------------------------
# comparisons: each returns None when the answer matches, else a reason


def spectrum_mismatch(got_std, got_dual, ref, tols):
    """Compare a descending dual spectrum with the reference.  Standard parts
    are compared position by position; dual parts as a multiset inside each
    run of (numerically) equal standard parts, whose order is arbitrary."""
    ref_std, ref_dual = ref
    std_tol, dual_tol = tols
    got_std = np.asarray(got_std, dtype=float)
    got_dual = np.asarray(got_dual, dtype=float)
    if got_std.shape != ref_std.shape or got_dual.shape != ref_dual.shape:
        return f"length {got_std.size} != {ref_std.size}"
    if not np.all(np.isfinite(got_std)) or not np.all(np.isfinite(got_dual)):
        return "non-finite eigenvalue"
    err = np.abs(got_std - ref_std)
    if err.max(initial=0.0) > std_tol:
        return f"standard part off by {err.max():.3e}"
    breaks = np.flatnonzero(np.abs(np.diff(ref_std)) > CLUSTER_TOL) + 1
    for lo, hi in zip(np.r_[0, breaks], np.r_[breaks, ref_std.size]):
        diff = np.abs(np.sort(got_dual[lo:hi]) - np.sort(ref_dual[lo:hi]))
        if diff.max(initial=0.0) > dual_tol:
            return f"dual part off by {diff.max():.3e} at eigenvalues {lo}..{hi - 1}"
    return None


def radius_mismatch(got_std, got_dual, ref, tols):
    """The dual spectral radius: the largest |lambda| in the dual order.
    Eigenvalues whose |std| ties with the largest within tolerance may each
    decide the dual part, so any of them is accepted."""
    ref_std, ref_dual = ref
    std_tol, dual_tol = tols
    mag_std = np.abs(ref_std)
    mag_dual = np.sign(ref_std) * ref_dual
    top = mag_std.max()
    if abs(got_std - top) > std_tol:
        return f"radius {got_std!r} != {top!r}"
    near = np.abs(mag_std - top) <= 10 * std_tol + CLUSTER_TOL
    if not np.any(np.abs(mag_dual[near] - got_dual) <= dual_tol):
        return f"radius dual part {got_dual!r} matches no top eigenvalue"
    return None


def as_arrays(values):
    """[{"std":..,"dual":..}, ...] -> (std array, dual array)."""
    return (np.array([v["std"] for v in values], dtype=float),
            np.array([v["dual"] for v in values], dtype=float))


def ggf_widened_mismatch(text, graph):
    """`convert --ring quaternion` output must hold the same edges with each
    gain widened by zero components."""
    import json

    doc = json.loads(text)
    if doc.get("ring") != "quaternion" or doc.get("n") != graph.n:
        return "wrong ring or vertex count"
    recs = doc.get("edges", [])
    if len(recs) != graph.m:
        return f"{len(recs)} edges, expected {graph.m}"
    w = WIDTH[graph.ring]
    for rec, (u, v), s, d in zip(recs, graph.edges, graph.std, graph.dual):
        want_s = [float(c) for c in s[:w]] + [0.0] * (4 - w)
        want_d = [float(c) for c in d[:w]] + [0.0] * (4 - w)
        if (rec["u"], rec["v"]) != (int(u), int(v)) or rec["gain_std"] != want_s \
                or rec["gain_dual"] != want_d:
            return f"edge ({u}, {v}) not widened exactly"
    return None
