"""Exponential, logarithm and cosine on dual complex numbers, n-th roots of
unit dual complex numbers, and the similarity reduction of a dual quaternion
to a dual complex number.

The reduction is the workhorse behind quaternion gain cycles: every dual
quaternion q is similar to a dual complex number a = u* q u with u a unit
dual quaternion, and the pair (a, u) is constructed explicitly here.
"""

from __future__ import annotations

import cmath
import math

from .errors import InfinitesimalNotInvertibleError, NotUnitError, RingMismatchError
from .quaternion import Quaternion
from .scalars import (
    DEFAULT_TOL,
    DualNumber,
    DualScalar,
    RING_COMPLEX,
    RING_QUATERNION,
    UNIT_TOL,
    check_unit_tol,
)

_TAU = 2.0 * math.pi


class DualAngle:
    """A dual angle std + dual*eps with the standard part wrapped to (-pi, pi]."""

    __slots__ = ("std", "dual")

    def __init__(self, std=0.0, dual=0.0):
        std = float(std) % _TAU
        if std > math.pi:
            std -= _TAU
        self.std = std
        self.dual = float(dual)

    def __eq__(self, other):
        if not isinstance(other, DualAngle):
            return NotImplemented
        return self.std == other.std and self.dual == other.dual

    def __repr__(self):
        return f"DualAngle({self.std!r}, {self.dual!r})"


def _require_complex(a: DualScalar, who: str) -> DualScalar:
    if not isinstance(a, DualScalar) or a.ring != RING_COMPLEX:
        raise RingMismatchError(f"{who} expects a dual complex scalar")
    return a


def dual_exp(a: DualScalar) -> DualScalar:
    """e**a = e**a_s + a_d e**a_s eps for dual complex a."""
    _require_complex(a, "dual_exp")
    es = cmath.exp(a.std)
    return DualScalar.complex(es, a.dual * es)


def dual_log(a: DualScalar) -> DualScalar:
    """Principal-branch log(a) = log(a_s) + a_s**-1 a_d eps; needs a appreciable."""
    _require_complex(a, "dual_log")
    if abs(a.std) <= DEFAULT_TOL:
        raise InfinitesimalNotInvertibleError("log of an infinitesimal dual complex number")
    return DualScalar.complex(cmath.log(a.std), a.dual / a.std)


def unit_to_angle(a: DualScalar, tol: float = UNIT_TOL) -> DualAngle:
    """The dual angle theta with e**(i theta) = a, for unit dual complex a.

    theta_s is the principal argument of a_s and theta_d = -i a_d a_s*; the
    unit condition, checked within `tol` (a number >= 0), makes theta_d real
    (the imaginary residue is dropped).
    """
    check_unit_tol(tol)
    _require_complex(a, "unit_to_angle")
    if not a.is_unit(tol):
        raise NotUnitError(f"{a} is not a unit dual complex number")
    theta_s = cmath.phase(a.std)
    theta_d = (-1j * a.dual * a.std.conjugate()).real
    return DualAngle(theta_s, theta_d)


def dual_cos(theta: DualAngle) -> DualNumber:
    """cos(theta) = cos(theta_s) - theta_d sin(theta_s) eps."""
    return DualNumber(math.cos(theta.std), -theta.dual * math.sin(theta.std))


def _exp_i(theta_s: float, theta_d: float) -> DualScalar:
    es = cmath.exp(1j * theta_s)
    return DualScalar.complex(es, 1j * theta_d * es)


def unit_nth_roots(a: DualScalar, n: int) -> list[DualScalar]:
    """The n distinct roots e**(i (theta + 2 pi j)/n), j = 0..n-1, of a unit a."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    theta = unit_to_angle(a)
    return [_exp_i((theta.std + _TAU * j) / n, theta.dual / n) for j in range(n)]


# ---------------------------------------------------------------------------
# dual quaternion -> dual complex similarity


def _align_vector_to_i(q: Quaternion) -> Quaternion:
    """Unit quaternion u with u* q u = Re(q) + |vec(q)| i.

    Stable for every vector direction: when the i-component is negative the
    input is pre-rotated by j (which flips the i and k axes), so the
    half-angle construction below never cancels.
    """
    flip = q.x < 0.0
    if flip:
        q = Quaternion(q.w, -q.x, q.y, -q.z)
    nv = q.vector_norm()
    x = Quaternion(q.x + nv, 0.0, -q.z, q.y)
    ax = abs(x)
    u = x * (1.0 / ax) if ax > 0.0 else Quaternion(1.0)
    if flip:
        u = Quaternion(0.0, 0.0, 1.0, 0.0) * u
    return u


def reduce_to_complex(q: DualScalar) -> tuple[DualScalar, DualScalar]:
    """Return (a, u) with a dual complex, u a unit dual quaternion, a = u* q u.

    The construction preserves Re(q) and |Im(q)| and splits on whether the
    standard part is real:

    * q already of complex form (j and k components of both parts within
      DEFAULT_TOL): (q, 1) after projection.
    * q_s real: rotate the vector part of q_d onto the i axis; u has no dual
      part.
    * otherwise: rotate the vector part of q_s onto the i axis, then cancel
      the dual j, k components with an infinitesimal correction
      u_d = u_s t / 2, t = (-r_k / |vec(q_s)|) j + (r_j / |vec(q_s)|) k,
      where r = u_s* q_d u_s.
    """
    if not isinstance(q, DualScalar) or q.ring != RING_QUATERNION:
        raise RingMismatchError("reduce_to_complex expects a dual quaternion scalar")
    qs, qd = q.std, q.dual

    if max(abs(qs.y), abs(qs.z), abs(qd.y), abs(qd.z)) <= DEFAULT_TOL:
        a = DualScalar.complex(complex(qs.w, qs.x), complex(qd.w, qd.x))
        return a, DualScalar.one(RING_QUATERNION)

    nq1 = qs.vector_norm()
    if nq1 <= DEFAULT_TOL:
        u = DualScalar.quaternion(_align_vector_to_i(qd))
    else:
        us = _align_vector_to_i(qs)
        r = us.conjugate() * qd * us
        t = Quaternion(0.0, 0.0, -r.z / nq1, r.y / nq1)
        u = DualScalar.quaternion(us, (us * t) * 0.5)

    w = u.conjugate() * q * u
    a = DualScalar.complex(complex(w.std.w, w.std.x), complex(w.dual.w, w.dual.x))
    return a, u
