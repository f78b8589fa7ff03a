"""Numpy kernels for base-ring matrices.

Real and complex matrices are plain (n, m) float64 / complex128 arrays.
Quaternion matrices are stored in split form as (n, m, 2) complex128 arrays
Q[..., 0] + Q[..., 1] * j; the split makes the complex-adjoint embedding and
all products one-liners.  Vectors use the same layout with one axis less.
"""

from __future__ import annotations

import numpy as np

from .errors import BadRingError, SingularStandardPartError
from .quaternion import Quaternion
from .scalars import RING_COMPLEX, RING_QUATERNION, RING_REAL, RINGS


def check_ring(ring):
    if ring not in RINGS:
        raise BadRingError(f"unknown ring tag {ring!r}")


def zeros(ring, shape):
    if ring == RING_REAL:
        return np.zeros(shape, dtype=np.float64)
    if ring == RING_COMPLEX:
        return np.zeros(shape, dtype=np.complex128)
    return np.zeros(tuple(shape) + (2,), dtype=np.complex128)


def eye(ring, n):
    out = zeros(ring, (n, n))
    if ring == RING_QUATERNION:
        out[..., 0] = np.eye(n)
    else:
        out += np.eye(n)
    return out


def asarray(ring, data):
    if ring == RING_REAL:
        return np.asarray(data, dtype=np.float64)
    return np.asarray(data, dtype=np.complex128)


def get(ring, arr, index):
    if ring == RING_REAL:
        return float(arr[index])
    if ring == RING_COMPLEX:
        return complex(arr[index])
    return Quaternion.from_complex_pair(arr[index + (0,)], arr[index + (1,)])


def put(ring, arr, index, value):
    if ring == RING_QUATERNION:
        a1, a2 = value.complex_pair()
        arr[index + (0,)] = a1
        arr[index + (1,)] = a2
    else:
        arr[index] = value


def conj(ring, arr):
    if ring == RING_REAL:
        return arr.copy()
    if ring == RING_COMPLEX:
        return arr.conj()
    out = np.empty_like(arr)
    out[..., 0] = arr[..., 0].conj()
    out[..., 1] = -arr[..., 1]
    return out


def conj_transpose(ring, arr):
    return conj(ring, arr).swapaxes(0, 1)


def matmul(ring, x, y):
    if ring != RING_QUATERNION:
        return x @ y
    x1, x2 = x[..., 0], x[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    return np.stack((x1 @ y1 - x2 @ y2.conj(), x1 @ y2 + x2 @ y1.conj()), axis=-1)


def vdot(ring, x, y):
    """x^H y with the conjugation on the left operand."""
    if ring == RING_REAL:
        return float(np.dot(x, y))
    if ring == RING_COMPLEX:
        return complex(np.vdot(x, y))
    x1, x2 = x[..., 0], x[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    a = np.vdot(x1, y1) + np.conj(np.vdot(x2, y2))
    b = np.vdot(x1, y2) - np.conj(np.vdot(x2, y1))
    return Quaternion.from_complex_pair(a, b)


def scale_right(ring, v, s):
    """v * s for a base-ring scalar s acting on the right."""
    if ring == RING_REAL:
        return v * float(s)
    if ring == RING_COMPLEX:
        return v * complex(s)
    s1, s2 = s.complex_pair()
    out = np.empty_like(v)
    out[..., 0] = v[..., 0] * s1 - v[..., 1] * np.conj(s2)
    out[..., 1] = v[..., 0] * s2 + v[..., 1] * np.conj(s1)
    return out


def entry_abs(ring, arr):
    if ring == RING_REAL:
        return np.abs(arr)
    if ring == RING_COMPLEX:
        return np.abs(arr)
    return np.sqrt(np.abs(arr[..., 0]) ** 2 + np.abs(arr[..., 1]) ** 2)


def frobenius(ring, arr):
    return float(np.sqrt((entry_abs(ring, arr) ** 2).sum()))


def max_abs(ring, arr):
    mags = entry_abs(ring, arr)
    return float(mags.max()) if mags.size else 0.0


def hermitian_defect(ring, arr):
    return max_abs(ring, arr - conj_transpose(ring, arr))


def symmetrize(ring, arr):
    return 0.5 * (arr + conj_transpose(ring, arr))


def embed_quaternion(arr):
    """Complex-adjoint embedding [[A1, A2], [-conj(A2), conj(A1)]]."""
    a1, a2 = arr[..., 0], arr[..., 1]
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]])


def unembed_quaternion(m):
    """Inverse of embed_quaternion (reads the top block row)."""
    n = m.shape[0] // 2
    return np.stack((m[:n, :n], m[:n, n:]), axis=-1)


def inv(ring, arr):
    try:
        if ring != RING_QUATERNION:
            return np.linalg.inv(arr)
        return unembed_quaternion(np.linalg.inv(embed_quaternion(arr)))
    except np.linalg.LinAlgError as exc:
        raise SingularStandardPartError(str(exc)) from exc


# ---------------------------------------------------------------------------
# standard-part Hermitian eigensolver


def eigh(ring, arr):
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a
    Hermitian base-ring matrix.  Quaternion matrices are solved through the
    complex-adjoint embedding, whose spectrum repeats every eigenvalue
    twice; de-duplication recovers one quaternion eigenvector per copy."""
    if ring != RING_QUATERNION:
        w, v = np.linalg.eigh(arr)
        return w, v
    return _eigh_quaternion(arr)


def _quaternion_partner(u, n):
    """The j-partner of an embedded vector; spans, with u, one quaternion line."""
    return np.concatenate((-u[n:].conj(), u[:n].conj()))


def _eigh_quaternion(arr):
    n = arr.shape[0]
    if n == 0:
        return np.zeros(0), zeros(RING_QUATERNION, (0, 0))
    m = embed_quaternion(arr)
    m = 0.5 * (m + m.conj().T)
    w, u = np.linalg.eigh(m)

    # group the doubled spectrum into even-sized clusters
    scale = max(1.0, float(np.abs(w).max()))
    gap_tol = 1e-10 * scale
    groups = []
    start = 0
    for i in range(1, 2 * n):
        if w[i] - w[i - 1] > gap_tol and (i - start) % 2 == 0:
            groups.append((start, i))
            start = i
    groups.append((start, 2 * n))

    values = np.empty(n)
    vectors = zeros(RING_QUATERNION, (n, n))
    out = 0
    for g0, g1 in groups:
        k = (g1 - g0) // 2
        val = float(np.mean(w[g0:g1]))
        cols = u[:, g0:g1]
        for t in range(k):
            vec = cols[:, 0]
            x1 = vec[:n]
            x2 = -vec[n:].conj()
            nrm = np.sqrt((np.abs(x1) ** 2).sum() + (np.abs(x2) ** 2).sum())
            x1 = x1 / nrm
            x2 = x2 / nrm
            values[out] = val
            vectors[:, out, 0] = x1
            vectors[:, out, 1] = x2
            out += 1
            if t < k - 1:
                p1 = np.concatenate((x1, -x2.conj()))
                p2 = _quaternion_partner(p1, n)
                rest = cols[:, 1:]
                rest = rest - np.outer(p1, p1.conj() @ rest) - np.outer(p2, p2.conj() @ rest)
                q, s, _ = np.linalg.svd(rest, full_matrices=False)
                cols = q[:, : 2 * (k - t - 1)]
    return values, vectors
