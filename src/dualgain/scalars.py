"""Dual scalars over the real, complex and quaternion base rings.

A dual element a = a_s + a_d*eps keeps a standard part a_s and a dual part
a_d from one base ring, with eps != 0 and eps**2 = 0.  Products truncate at
first order: a*b = a_s*b_s + (a_s*b_d + a_d*b_s)*eps, which makes the dual
reals and dual complex numbers commutative rings and the dual quaternions a
noncommutative one.  Dual numbers (real parts on both slots) additionally
carry the lexicographic total order used everywhere spectra are sorted or
radii compared.

Zero tests are never exact: every routine that branches on "standard part
vanishes" compares against the absolute tolerance DEFAULT_TOL; the scalar
tests `allclose`, `is_unit` and `is_appreciable` take it as a default.
"""

from __future__ import annotations

import math
import numbers
import re as _re
from functools import total_ordering

from .errors import BadParameterError, InfinitesimalNotInvertibleError, RingMismatchError
from .quaternion import Quaternion

RING_REAL = "real"
RING_COMPLEX = "complex"
RING_QUATERNION = "quaternion"
RINGS = (RING_REAL, RING_COMPLEX, RING_QUATERNION)

#: Components per base-ring value, in the order used by files and parsers.
RING_WIDTH = {RING_REAL: 1, RING_COMPLEX: 2, RING_QUATERNION: 4}

DEFAULT_TOL = 1e-12

#: Default tolerance of the unit condition and of balance: gain graphs,
#: graph files, closed-form cycle gains and the CLI's --tol.
UNIT_TOL = 1e-9


def check_unit_tol(tol) -> None:
    """BadParameterError unless a unit/balance tolerance is a number >= 0."""
    if not tol >= 0:
        raise BadParameterError(f"unit/balance tolerance must be a number >= 0, got {tol!r}")


# ---------------------------------------------------------------------------
# base-ring value helpers


def _coerce_base(ring, value):
    if ring == RING_REAL:
        if isinstance(value, Quaternion) or isinstance(value, complex):
            raise RingMismatchError(f"cannot place {value!r} in the real ring")
        if isinstance(value, numbers.Real):
            return float(value)
    elif ring == RING_COMPLEX:
        if isinstance(value, Quaternion):
            raise RingMismatchError(f"cannot place {value!r} in the complex ring")
        if isinstance(value, numbers.Complex):
            return complex(value)
    elif ring == RING_QUATERNION:
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, numbers.Real):
            return Quaternion(float(value))
        # complex values are not widened silently; go through Quaternion
        raise RingMismatchError(f"cannot place {value!r} in the quaternion ring implicitly")
    else:
        raise RingMismatchError(f"unknown ring tag {ring!r}")
    raise RingMismatchError(f"cannot place {value!r} in the {ring} ring")


def _conj(value):
    if isinstance(value, float):
        return value
    return value.conjugate()


def _re_part(value):
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return value.real
    return value.w


def _base_components(ring, value):
    if ring == RING_REAL:
        return [value]
    if ring == RING_COMPLEX:
        return [value.real, value.imag]
    return list(value.components())


def _base_from_components(ring, comps):
    comps = [float(c) for c in comps]
    if len(comps) != RING_WIDTH[ring]:
        raise RingMismatchError(
            f"{ring} values take {RING_WIDTH[ring]} components, got {len(comps)}"
        )
    if ring == RING_REAL:
        return comps[0]
    if ring == RING_COMPLEX:
        return complex(comps[0], comps[1])
    return Quaternion.from_components(comps)


# ---------------------------------------------------------------------------
# dual numbers (the totally ordered dual reals)


@total_ordering
class DualNumber:
    """A dual number std + dual*eps with the lexicographic total order."""

    __slots__ = ("std", "dual")

    def __init__(self, std=0.0, dual=0.0):
        self.std = float(std)
        self.dual = float(dual)

    @classmethod
    def zero(cls) -> "DualNumber":
        return cls(0.0, 0.0)

    @classmethod
    def one(cls) -> "DualNumber":
        return cls(1.0, 0.0)

    # arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, DualNumber):
            return other
        if isinstance(other, numbers.Real):
            return DualNumber(float(other), 0.0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.std + o.std, self.dual + o.dual)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.std - o.std, self.dual - o.dual)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualNumber(self.std * o.std, self.std * o.dual + self.dual * o.std)

    __rmul__ = __mul__

    def __neg__(self):
        return DualNumber(-self.std, -self.dual)

    def inverse(self) -> "DualNumber":
        if abs(self.std) <= DEFAULT_TOL:
            raise InfinitesimalNotInvertibleError(f"{self} has no inverse")
        inv = 1.0 / self.std
        return DualNumber(inv, -self.dual * inv * inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def magnitude(self) -> "DualNumber":
        if abs(self.std) > DEFAULT_TOL:
            sign = 1.0 if self.std > 0 else -1.0
            return DualNumber(abs(self.std), sign * self.dual)
        return DualNumber(0.0, abs(self.dual))

    def __abs__(self):
        return self.magnitude()

    def sqrt(self) -> "DualNumber":
        if abs(self.std) <= DEFAULT_TOL and abs(self.dual) <= DEFAULT_TOL:
            return DualNumber(0.0, 0.0)
        if self.std <= DEFAULT_TOL:
            raise ValueError(f"sqrt undefined for {self}")
        r = math.sqrt(self.std)
        return DualNumber(r, self.dual / (2.0 * r))

    # order -----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.std == o.std and self.dual == o.dual

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.std, self.dual) < (o.std, o.dual)

    def __hash__(self):
        return hash((self.std, self.dual))

    def allclose(self, other: "DualNumber", tol: float = DEFAULT_TOL) -> bool:
        return abs(self.std - other.std) <= tol and abs(self.dual - other.dual) <= tol

    def to_scalar(self, ring: str = RING_REAL) -> "DualScalar":
        return DualScalar(ring, _coerce_base(ring, self.std), _coerce_base(ring, self.dual))

    def __repr__(self):
        return f"DualNumber({self.std!r}, {self.dual!r})"

    def __str__(self):
        return f"({self.std!r}) + ({self.dual!r})·eps"


def compare(a: DualNumber, b: DualNumber) -> int:
    """Lexicographic ordering: -1, 0 or +1 as a <, ==, > b."""
    if a == b:
        return 0
    return -1 if a < b else 1


def dual_geq(a: DualNumber, b: DualNumber, tol: float = 0.0) -> bool:
    """Tolerance-aware a >= b: standard parts within tol defer to dual parts."""
    if abs(a.std - b.std) <= tol:
        return a.dual >= b.dual - tol
    return a.std > b.std


# ---------------------------------------------------------------------------
# generic dual scalars


class DualScalar:
    """A dual element over one of the three base rings.

    The ring tag fixes the type of both parts (float, complex or
    Quaternion).  Real numbers and dual numbers are central in all three
    rings, so they coerce freely; any other cross-ring mixing raises
    RingMismatchError.  Complex values are never widened to quaternions
    implicitly.
    """

    __slots__ = ("ring", "std", "dual")

    def __init__(self, ring, std=0.0, dual=0.0):
        if ring not in RINGS:
            raise RingMismatchError(f"unknown ring tag {ring!r}")
        self.ring = ring
        self.std = _coerce_base(ring, std)
        self.dual = _coerce_base(ring, dual)

    # constructors ----------------------------------------------------

    @classmethod
    def real(cls, std=0.0, dual=0.0) -> "DualScalar":
        return cls(RING_REAL, std, dual)

    @classmethod
    def complex(cls, std=0j, dual=0j) -> "DualScalar":
        return cls(RING_COMPLEX, std, dual)

    @classmethod
    def quaternion(cls, std=None, dual=None) -> "DualScalar":
        return cls(RING_QUATERNION, Quaternion() if std is None else std,
                   Quaternion() if dual is None else dual)

    @classmethod
    def zero(cls, ring) -> "DualScalar":
        return cls(ring, 0.0, 0.0)

    @classmethod
    def one(cls, ring) -> "DualScalar":
        return cls(ring, 1.0, 0.0)

    @classmethod
    def from_components(cls, ring, std_components, dual_components) -> "DualScalar":
        return cls(ring, _base_from_components(ring, std_components),
                   _base_from_components(ring, dual_components))

    def components(self):
        return (_base_components(self.ring, self.std),
                _base_components(self.ring, self.dual))

    # arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DualScalar):
            if other.ring != self.ring:
                raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, DualNumber):
            return other.to_scalar(self.ring)
        try:
            return DualScalar(self.ring, other, 0.0)
        except RingMismatchError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.ring, self.std + o.std, self.dual + o.dual)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.ring, self.std - o.std, self.dual - o.dual)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return DualScalar(self.ring, -self.std, -self.dual)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.ring, self.std * o.std,
                          self.std * o.dual + self.dual * o.std)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return DualScalar(self.ring, o.std * self.std,
                          o.std * self.dual + o.dual * self.std)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # structure -------------------------------------------------------

    def conjugate(self) -> "DualScalar":
        return DualScalar(self.ring, _conj(self.std), _conj(self.dual))

    def real_part(self) -> DualNumber:
        return DualNumber(_re_part(self.std), _re_part(self.dual))

    def magnitude(self) -> DualNumber:
        s = abs(self.std)
        if s > DEFAULT_TOL:
            return DualNumber(s, _re_part(_conj(self.std) * self.dual) / s)
        return DualNumber(0.0, abs(self.dual))

    def inverse(self) -> "DualScalar":
        ns = abs(self.std) ** 2
        if ns <= DEFAULT_TOL * DEFAULT_TOL:
            raise InfinitesimalNotInvertibleError(
                "infinitesimal dual elements are not invertible")
        nd = 2.0 * _re_part(_conj(self.std) * self.dual)
        std_inv = _conj(self.std) * (1.0 / ns)
        dual_inv = _conj(self.dual) * (1.0 / ns) - _conj(self.std) * (nd / (ns * ns))
        return DualScalar(self.ring, std_inv, dual_inv)

    def is_appreciable(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.std) > tol

    def is_unit(self, tol: float = DEFAULT_TOL) -> bool:
        cross = self.std * _conj(self.dual) + self.dual * _conj(self.std)
        return abs(abs(self.std) - 1.0) <= tol and abs(cross) <= tol

    def widen(self, ring) -> "DualScalar":
        """Explicit embedding into a wider ring (real -> complex/quaternion,
        complex -> quaternion)."""
        if ring == self.ring:
            return self
        if ring not in RINGS or RINGS.index(ring) < RINGS.index(self.ring):
            raise RingMismatchError(f"cannot widen {self.ring} to {ring}")
        if self.ring == RING_REAL:
            if ring == RING_COMPLEX:
                return DualScalar(ring, complex(self.std), complex(self.dual))
            return DualScalar(ring, Quaternion(self.std), Quaternion(self.dual))
        # complex -> quaternion
        return DualScalar(ring, Quaternion(self.std.real, self.std.imag),
                          Quaternion(self.dual.real, self.dual.imag))

    # comparison / text -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DualScalar):
            return NotImplemented
        return (self.ring == other.ring and self.std == other.std
                and self.dual == other.dual)

    def __hash__(self):
        return hash((self.ring, str(self.std), str(self.dual)))

    def allclose(self, other: "DualScalar", tol: float = DEFAULT_TOL) -> bool:
        if self.ring != other.ring:
            return False
        return (abs(self.std - other.std) <= tol
                and abs(self.dual - other.dual) <= tol)

    def __repr__(self):
        return f"DualScalar({self.ring!r}, {self.std!r}, {self.dual!r})"

    def __str__(self):
        return render_dual_scalar(self)


# ---------------------------------------------------------------------------
# textual rendering: "(a_s) + (a_d)·eps" with full-precision decimal components


def render_base(ring, value) -> str:
    if ring == RING_REAL:
        return repr(value)
    if ring == RING_COMPLEX:
        sign = "+" if value.imag >= 0 else "-"
        return f"{value.real!r}{sign}{abs(value.imag)!r}i"
    return str(value)


def render_dual_scalar(a: DualScalar) -> str:
    return f"({render_base(a.ring, a.std)}) + ({render_base(a.ring, a.dual)})·eps"


def _split_signed_terms(text: str):
    terms = []
    start = 0
    for idx in range(1, len(text)):
        if text[idx] in "+-" and text[idx - 1] not in "eE":
            terms.append(text[start:idx])
            start = idx
    terms.append(text[start:])
    return [t for t in terms if t]


def parse_base(text: str, ring: str):
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty base-ring value")
    if ring == RING_REAL:
        return float(text)
    if ring == RING_COMPLEX:
        return complex(text.replace("i", "j"))
    comps = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
    for term in _split_signed_terms(text):
        suffix = term[-1] if term[-1] in "ijk" else ""
        num = term[:-1] if suffix else term
        if num in ("", "+"):
            val = 1.0
        elif num == "-":
            val = -1.0
        else:
            val = float(num)
        comps[suffix] += val
    return Quaternion(comps[""], comps["i"], comps["j"], comps["k"])


_DUAL_RE = _re.compile(r"^\s*\(([^()]*)\)\s*\+\s*\(([^()]*)\)\s*[·*]\s*eps\s*$")
_STD_ONLY_RE = _re.compile(r"^\s*\(([^()]*)\)\s*$")


def parse_dual_scalar(text: str, ring: str) -> DualScalar:
    """Parse the rendering grammar; a bare "(a_s)" means zero dual part."""
    m = _DUAL_RE.match(text)
    if m:
        return DualScalar(ring, parse_base(m.group(1), ring), parse_base(m.group(2), ring))
    m = _STD_ONLY_RE.match(text)
    if m:
        return DualScalar(ring, parse_base(m.group(1), ring), 0.0)
    raise ValueError(f"not a dual scalar: {text!r}")
