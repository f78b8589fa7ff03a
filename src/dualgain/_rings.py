"""Numpy kernels for base-ring matrices.

Real and complex matrices are plain (n, m) float64 / complex128 arrays.
Quaternion matrices are stored in split form as (n, m, 2) complex128 arrays
Q[..., 0] + Q[..., 1] * j; the split makes the complex-adjoint embedding and
all products one-liners.  Vectors use the same layout with one axis less.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import BadRingError, SingularStandardPartError, SizeCapExceededError
from .quaternion import Quaternion
from .scalars import RING_COMPLEX, RING_QUATERNION, RING_REAL, RING_WIDTH, RINGS


def check_ring(ring):
    if ring not in RINGS:
        raise BadRingError(f"unknown ring tag {ring!r}")


def zeros(ring, shape):
    if ring == RING_REAL:
        return np.zeros(shape, dtype=np.float64)
    if ring == RING_COMPLEX:
        return np.zeros(shape, dtype=np.complex128)
    return np.zeros(tuple(shape) + (2,), dtype=np.complex128)


# dense n x n arrays of the matrix's ring alive at the peak of a dual
# eigendecomposition (the quaternion n = 400 adjacency spectrum peaks at
# about 9 x 5.1 MB)
_DENSE_ARRAYS = 10

# bytes per vertex of the O(n) state of a graph pass, a graph file written
# out or a closed form, as peak resident size over the import baseline at
# n = 2e5: a quaternion path written out (one edge record per vertex)
# 835, converted to quaternion 923, `balance` of an edgeless quaternion
# file 732-789, a closed form in JSON 291-356
_VERTEX_BYTES = 1536


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_dense_size(ring, n):
    """Raise SizeCapExceededError, before anything is allocated, when the
    dense n x n working set of `ring` would exceed physical memory.  Where
    the platform does not report physical memory nothing is checked."""
    physical = _physical_memory()
    need = _DENSE_ARRAYS * zeros(ring, (1, 1)).nbytes * n * n
    if physical is not None and need > physical:
        raise SizeCapExceededError(
            f"a dense {ring} solve at n={n} needs about {need / 2**30:.3g} GiB, more "
            f"than the {physical / 2**30:.3g} GiB of physical memory")


def check_vertex_count(n):
    """The same refusal for the O(n) arrays of a graph on n vertices."""
    physical = _physical_memory()
    if physical is not None and _VERTEX_BYTES * n > physical:
        raise SizeCapExceededError(
            f"a graph on n={n} vertices needs more than the {physical / 2**30:.3g} GiB "
            f"of physical memory, which holds at most {physical // _VERTEX_BYTES} vertices")


# bytes per edge of a graph file document, its graph included: `generate complete`
# at n = 1,000 peaks at 541-646 / 638-750 / 814-990 (real / complex / quaternion)
_EDGE_BYTES = 1280


def check_edge_count(m):
    """The same refusal for a graph file document of m edge records."""
    physical = _physical_memory()
    if physical is not None and _EDGE_BYTES * m > physical:
        raise SizeCapExceededError(f"a graph file of m={m} edges needs more than the "
                                   f"{physical / 2**30:.3g} GiB of physical memory")


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


def from_values(ring, values):
    """An array of base-ring values (float, complex or Quaternion) in the
    split layout: shape (m,), or (m, 2) for quaternions."""
    if ring != RING_QUATERNION:
        return asarray(ring, values)
    return np.array([q.complex_pair() for q in values],
                    dtype=np.complex128).reshape(len(values), 2)


def to_values(ring, arr):
    """Inverse of from_values: the entries of a split-layout array as a list
    of Python base-ring values."""
    if ring != RING_QUATERNION:
        return arr.tolist()
    return [Quaternion.from_complex_pair(a1, a2) for a1, a2 in arr.tolist()]


def to_components(ring, arr):
    """The (m, width) float components of m split-layout values, in file
    order (real; real, imaginary; w, x, y, z)."""
    return np.ascontiguousarray(arr).view(np.float64).reshape(len(arr), RING_WIDTH[ring])


def from_components(ring, comps):
    """Inverse of to_components for an (m, width) float64 array."""
    if ring == RING_REAL:
        return comps[:, 0]
    out = np.ascontiguousarray(comps, dtype=np.float64).view(np.complex128)
    return out[:, 0] if ring == RING_COMPLEX else out


def widen(ring, arr, to):
    """Split-layout values of `ring` embedded in the wider ring `to`."""
    if to == ring:
        return arr
    if to == RING_COMPLEX:
        return arr.astype(np.complex128)
    out = zeros(to, arr.shape)
    out[..., 0] = arr
    return out


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


def mul(ring, x, y):
    """The elementwise product x * y of split-layout arrays (quaternions do
    not commute, so the order of the operands is the order of the factors)."""
    if ring != RING_QUATERNION:
        return x * y
    x1, x2 = x[..., 0], x[..., 1]
    y1, y2 = y[..., 0], y[..., 1]
    return np.stack((x1 * y1 - x2 * y2.conj(), x1 * y2 + x2 * y1.conj()), axis=-1)


def dual_mul(ring, xs, xd, ys, yd):
    """The elementwise dual product (xs + xd eps)(ys + yd eps) as its
    standard and dual parts (xs ys, xs yd + xd ys)."""
    return mul(ring, xs, ys), mul(ring, xs, yd) + mul(ring, xd, ys)


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
    return mul(ring, v, np.array(s.complex_pair()))


def scale_columns(ring, arr, units):
    """arr[:, i] * units[i] for every column i, in place, with the scalars
    acting on the right (split pairs of shape (m, 2) for quaternions)."""
    if ring != RING_QUATERNION:
        arr *= units
        return
    s1, s2 = units[:, 0], units[:, 1]
    a1, a2 = arr[..., 0], arr[..., 1]
    carry = a1 * s2
    a1 *= s1
    a1 -= a2 * s2.conj()
    a2 *= s1.conj()
    a2 += carry


def entry_abs(ring, arr):
    if ring != RING_QUATERNION:
        return np.abs(arr)
    return np.sqrt(np.abs(arr[..., 0]) ** 2 + np.abs(arr[..., 1]) ** 2)


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


_CLUSTER_GAP = 1e-8     # relative gap within which standard eigenvalues share a supplement


def eigh(ring, arr):
    """Eigenvalues (ascending, real) and orthonormal eigenvectors of a
    Hermitian base-ring matrix.  Quaternion matrices are solved through the
    complex-adjoint embedding, whose spectrum repeats every eigenvalue
    twice: each eigenvalue is the mean of its two copies, and each cluster
    of _clusters gets one quaternion basis of its embedded eigenvectors."""
    if ring != RING_QUATERNION:
        w, v = np.linalg.eigh(arr)
        return w, v
    return _eigh_quaternion(arr)


def _eigh_quaternion(arr):
    n = arr.shape[0]
    if n == 0:
        return np.zeros(0), zeros(RING_QUATERNION, (0, 0))
    w, u = np.linalg.eigh(symmetrize(RING_COMPLEX, embed_quaternion(arr)))
    # the embedding repeats every eigenvalue exactly, so in ascending order
    # its two copies are adjacent
    values = (w[0::2] + w[1::2]) / 2
    emb = u[:, 0::2].copy()
    for c0, c1 in _clusters(values):
        if c1 - c0 > 1:
            emb[:, c0:c1] = _quaternion_basis(u[:, 2 * c0:2 * c1], c1 - c0)
    return values, np.stack((emb[:n], -emb[n:].conj()), axis=-1)


def _clusters(w):
    """(start, stop) index ranges of ascending eigenvalues whose neighbour
    gaps stay within _CLUSTER_GAP relative to the larger magnitude (at least
    1)."""
    caps = _CLUSTER_GAP * np.maximum(1.0, np.maximum(np.abs(w[1:]), np.abs(w[:-1])))
    bounds = [0, *(np.flatnonzero(np.diff(w) > caps) + 1).tolist(), len(w)]
    return zip(bounds[:-1], bounds[1:])


def _quaternion_partner(p, n):
    """The j-partner of an embedded vector; spans, with p, one quaternion line."""
    return np.concatenate((-p[n:].conj(), p[:n].conj()))


def _quaternion_basis(cols, k):
    """k embedded vectors that, with their j-partners, form an orthonormal
    basis of the 2k-dimensional span of the orthonormal columns `cols`.

    One Gram-Schmidt pass, O(n k^2): each step takes the column with the
    largest remaining norm, re-orthogonalises it once against the vectors
    and partners chosen so far, and projects it and its partner out of
    every column.
    """
    n = cols.shape[0] // 2
    cols = cols.copy()
    basis = np.empty_like(cols)          # p_1, J p_1, p_2, J p_2, ...
    for t in range(k):
        p = cols[:, np.argmax((np.abs(cols) ** 2).sum(axis=0))]
        chosen = basis[:, :2 * t]
        p = p - chosen @ (chosen.conj().T @ p)
        p /= np.linalg.norm(p)
        basis[:, 2 * t] = p
        basis[:, 2 * t + 1] = _quaternion_partner(p, n)
        pair = basis[:, 2 * t:2 * t + 2]
        cols -= pair @ (pair.conj().T @ cols)
    return basis[:, 0::2]
