"""Hamilton quaternions with float components."""

from __future__ import annotations

import math


class Quaternion:
    """A quaternion q = w + x*i + y*j + z*k.

    Values are treated as immutable; arithmetic returns new instances.
    The complex split q = a1 + a2*j with a1 = w + x*i, a2 = y + z*i is the
    bridge to the complex-adjoint matrix representation used in linalg.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_components(cls, comps) -> "Quaternion":
        w, x, y, z = comps
        return cls(w, x, y, z)

    @classmethod
    def from_complex_pair(cls, a1, a2) -> "Quaternion":
        a1 = complex(a1)
        a2 = complex(a2)
        return cls(a1.real, a1.imag, a2.real, a2.imag)

    def complex_pair(self) -> tuple[complex, complex]:
        return complex(self.w, self.x), complex(self.y, self.z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    # arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    # structure -------------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisionError("inverse of the zero quaternion")
        return self.conjugate() * (1.0 / n)

    def vector_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    # comparison ------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def allclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return abs(self - other) <= tol

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __str__(self):
        def term(v, suffix):
            sign = "+" if v >= 0 else "-"
            return f"{sign}{abs(v)!r}{suffix}"

        return f"{self.w!r}{term(self.x, 'i')}{term(self.y, 'j')}{term(self.z, 'k')}"


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    return None


I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
