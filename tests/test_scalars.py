import math

import numpy as np
import pytest

from dualgain import (
    DualNumber,
    DualScalar,
    InfinitesimalNotInvertibleError,
    Quaternion,
    RingMismatchError,
    RINGS,
    compare,
    dual_geq,
    parse_dual_scalar,
    render_dual_scalar,
)
from dualgain.sampling import random_scalar, random_unit_scalar

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def dual_sqrt(x: DualNumber) -> DualNumber:
    # independent oracle for magnitudes: sqrt in dual arithmetic
    r = math.sqrt(x.std)
    return DualNumber(r, x.dual / (2.0 * r))


class TestQuaternion:
    def test_multiplication_table(self):
        assert I * J == K
        assert J * I == -K
        assert J * K == I and K * J == -I
        assert K * I == J and I * K == -J
        assert I * I == Quaternion(-1) and J * J == Quaternion(-1) and K * K == Quaternion(-1)
        assert (I * J) * K == Quaternion(-1)

    def test_conjugate_and_norm(self):
        q = Quaternion(1, 2, 3, 4)
        assert q.conjugate() == Quaternion(1, -2, -3, -4)
        assert abs(q) == pytest.approx(math.sqrt(30))
        assert (q * q.conjugate()).allclose(Quaternion(30), 1e-12)

    def test_complex_pair_round_trip(self):
        q = Quaternion(1.5, -2.25, 0.5, 3.0)
        a1, a2 = q.complex_pair()
        assert Quaternion.from_complex_pair(a1, a2) == q
        # the split respects multiplication
        p = Quaternion(-0.5, 1.0, 2.0, -1.0)
        b1, b2 = p.complex_pair()
        prod = q * p
        c1 = a1 * b1 - a2 * b2.conjugate()
        c2 = a1 * b2 + a2 * b1.conjugate()
        assert prod.allclose(Quaternion.from_complex_pair(c1, c2), 1e-12)


class TestAddMul:
    def test_add_componentwise(self):
        a = DualScalar.real(1, 2)
        b = DualScalar.real(3, 4)
        assert a + b == DualScalar.real(4, 6)

    def test_add_identity(self):
        a = DualScalar.complex(1 + 2j, 3 - 1j)
        assert a + DualScalar.zero("complex") == a
        assert a + 0 == a

    def test_add_inverse_quaternion(self):
        a = DualScalar.quaternion(I, J)
        assert (a + (-a)) == DualScalar.zero("quaternion")

    def test_eps_squared_is_zero(self):
        one_plus = DualScalar.real(1, 1)
        one_minus = DualScalar.real(1, -1)
        assert one_plus * one_minus == DualScalar.one("real")

    def test_quaternion_order_preserved(self):
        qi = DualScalar.quaternion(I)
        qj = DualScalar.quaternion(J)
        assert (qi * qj).std == K
        assert (qj * qi).std == -K

    def test_anticommuting_dual_parts(self):
        a = DualScalar.quaternion(I, J)
        assert a * a == DualScalar.quaternion(Quaternion(-1), Quaternion(0))

    def test_ring_mismatch_raises(self):
        with pytest.raises(RingMismatchError):
            DualScalar.real(1) + DualScalar.complex(1)
        with pytest.raises(RingMismatchError):
            DualScalar.complex(1) * DualScalar.quaternion(I)


class TestConjugate:
    def test_complex_example(self):
        a = DualScalar.complex(1 + 2j, 3 - 1j)
        assert a.conjugate() == DualScalar.complex(1 - 2j, 3 + 1j)

    def test_real_fixed(self):
        a = DualScalar.real(1.5, -2.5)
        assert a.conjugate() == a

    def test_quaternion(self):
        assert DualScalar.quaternion(J).conjugate() == DualScalar.quaternion(-J)


class TestMagnitude:
    def test_complex_example_against_sqrt_oracle(self):
        a = DualScalar.complex(3 + 4j, 1 + 2j)
        m = a.magnitude()
        oracle = dual_sqrt((a.conjugate() * a).real_part())
        assert m.allclose(oracle, 1e-12)
        assert m.allclose(DualNumber(5.0, 2.2), 1e-12)

    def test_infinitesimal_branch(self):
        assert DualScalar.complex(0, 3j).magnitude() == DualNumber(0.0, 3.0)

    def test_unit_magnitude_is_one(self):
        rng = np.random.default_rng(11)
        for ring in RINGS:
            for _ in range(20):
                u = random_unit_scalar(rng, ring)
                assert u.magnitude().allclose(DualNumber.one(), 1e-12)


class TestInverse:
    def test_real(self):
        assert DualScalar.real(2).inverse() == DualScalar.real(0.5)

    def test_complex_example(self):
        a = DualScalar.complex(1j, 0.5)
        inv = a.inverse()
        assert inv.allclose(DualScalar.complex(-1j, 0.5), 1e-12)
        assert (a * inv).allclose(DualScalar.one("complex"), 1e-12)

    def test_infinitesimal_raises(self):
        with pytest.raises(InfinitesimalNotInvertibleError):
            DualScalar.real(0, 1).inverse()

    def test_involution(self):
        rng = np.random.default_rng(5)
        for ring in RINGS:
            for _ in range(50):
                a = random_scalar(rng, ring)
                if not a.is_appreciable(1e-6):
                    continue
                back = a.inverse().inverse()
                assert back.allclose(a, 1e-10 * max(1.0, abs(a.std)))


class TestIsUnit:
    def test_examples(self):
        assert DualScalar.complex(1j, 0.5).is_unit(1e-12)
        assert not DualScalar.real(1, 1).is_unit(1e-12)
        assert DualScalar.real(-1).is_unit(1e-12)

    def test_unit_group_closure(self):
        rng = np.random.default_rng(23)
        for ring in RINGS:
            for _ in range(50):
                u = random_unit_scalar(rng, ring)
                v = random_unit_scalar(rng, ring)
                assert (u * v).is_unit(1e-12)


class TestOrder:
    def test_standard_part_dominates(self):
        assert DualNumber(1, 5) < DualNumber(2, 0)

    def test_dual_part_breaks_ties(self):
        assert DualNumber(1, 1) > DualNumber(1, 0)

    def test_equality(self):
        assert compare(DualNumber(1, 1), DualNumber(1, 1)) == 0
        assert compare(DualNumber(1, 5), DualNumber(2, 0)) == -1
        assert compare(DualNumber(1, 1), DualNumber(1, 0)) == 1

    def test_sorting_uses_lexicographic_order(self):
        vals = [DualNumber(1, 2), DualNumber(0, 9), DualNumber(1, -3)]
        assert sorted(vals) == [DualNumber(0, 9), DualNumber(1, -3), DualNumber(1, 2)]

    def test_dual_geq_slack(self):
        assert dual_geq(DualNumber(1.0, 0.0), DualNumber(1.0 + 1e-12, 5.0), 1e-9) is False
        assert dual_geq(DualNumber(1.0, 5.0), DualNumber(1.0 + 1e-12, 4.0), 1e-9) is True


class TestRealPart:
    def test_complex(self):
        a = DualScalar.complex(1 + 2j, 3 + 4j)
        assert a.real_part() == DualNumber(1, 3)

    def test_quaternion(self):
        assert DualScalar.quaternion(J).real_part() == DualNumber(0, 0)

    def test_real_part_bounded_by_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = random_scalar(rng, "quaternion")
            assert q.real_part() <= q.magnitude() + DualNumber(1e-12, 1e-12)


class TestScalarLaws:
    """Randomized ring laws; the acceptance suite reruns these at volume."""

    @pytest.mark.parametrize("ring", RINGS)
    def test_multiplicativity_of_magnitude(self, ring):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = random_scalar(rng, ring)
            b = random_scalar(rng, ring)
            assert (a * b).magnitude().allclose(a.magnitude() * b.magnitude(), 1e-11)

    @pytest.mark.parametrize("ring", RINGS)
    def test_triangle_inequality(self, ring):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a = random_scalar(rng, ring)
            b = random_scalar(rng, ring)
            lhs = (a + b).magnitude()
            rhs = a.magnitude() + b.magnitude()
            assert dual_geq(rhs, lhs, 1e-12)

    def test_trace_property(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            a = random_scalar(rng, "quaternion")
            b = random_scalar(rng, "quaternion")
            assert (a * b).real_part().allclose((b * a).real_part(), 1e-11)
            assert a.real_part() == a.conjugate().real_part()


class TestTextRoundTrip:
    @pytest.mark.parametrize("ring", RINGS)
    def test_random_round_trip_is_exact(self, ring):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_scalar(rng, ring)
            assert parse_dual_scalar(render_dual_scalar(a), ring) == a

    def test_grammar_variants(self):
        a = parse_dual_scalar("(1.5) + (-2.0)*eps", "real")
        assert a == DualScalar.real(1.5, -2.0)
        assert parse_dual_scalar("(0+1i)", "complex") == DualScalar.complex(1j)
        q = parse_dual_scalar("(1+2i+3j+4k) + (0-1i+0j+0k)·eps", "quaternion")
        assert q == DualScalar.quaternion(Quaternion(1, 2, 3, 4), -I)

    def test_bad_text_raises(self):
        with pytest.raises(ValueError):
            parse_dual_scalar("not a scalar", "real")


class TestReflectedArithmetic:
    """Division, reflected operators, abs, inverses and widening, each
    against an identity that does not use the operator under test."""

    def test_dual_number_inverse_and_division(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            x = DualNumber(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]), rng.normal())
            y = DualNumber(rng.uniform(0.5, 2.0), rng.normal())
            inv = x.inverse()
            assert (x * inv).allclose(DualNumber.one(), 1e-14)
            # d(1/x) = -x_d / x_s^2
            assert inv.allclose(DualNumber(1.0 / x.std, -x.dual / x.std ** 2), 1e-14)
            # y / x solves q * x = y
            assert ((y / x) * x).allclose(y, 1e-13)
            # reflected: 3 / x = 3 * x^-1, and a float over x
            assert (3.0 / x).allclose(DualNumber(3.0) * inv, 1e-14)
            assert (x / 2.0).allclose(DualNumber(x.std / 2.0, x.dual / 2.0), 0.0)
        with pytest.raises(InfinitesimalNotInvertibleError):
            DualNumber(0.0, 1.0).inverse()
        with pytest.raises(InfinitesimalNotInvertibleError):
            1.0 / DualNumber(0.0, 1.0)

    def test_dual_number_reflected_sub_and_abs(self):
        x = DualNumber(-2.0, 3.0)
        assert 5.0 - x == DualNumber(7.0, -3.0) == -(x - 5.0)
        assert 1 - x == DualNumber(3.0, -3.0)
        # |x| flips the dual part with the sign of the standard part
        assert abs(x) == DualNumber(2.0, -3.0) == x.magnitude()
        assert abs(DualNumber(2.0, 3.0)) == DualNumber(2.0, 3.0)
        assert abs(DualNumber(0.0, -3.0)) == DualNumber(0.0, 3.0)

    @pytest.mark.parametrize("ring", RINGS)
    def test_dual_scalar_reflected_mul_keeps_factor_order(self, ring):
        rng = np.random.default_rng(62)
        for _ in range(20):
            a, b = random_scalar(rng, ring), random_scalar(rng, ring)
            # a base-ring value on the left acts as the scalar (b_s, 0)
            got = b.std * a
            want = DualScalar(ring, b.std * a.std, b.std * a.dual)
            assert got.allclose(want, 1e-13)
            # a DualNumber on the left acts as the real scalar (x_s, x_d)
            x = DualNumber(rng.normal(), rng.normal())
            got = x * a
            want = DualScalar(ring, x.std * a.std, x.std * a.dual + x.dual * a.std)
            assert got.allclose(want, 1e-13)
        if ring == "quaternion":
            # I on the left, J on the right: I J = K, where J I = -K
            assert I * DualScalar.quaternion(J, J) == DualScalar.quaternion(K, K)

    @pytest.mark.parametrize("ring", RINGS)
    def test_dual_scalar_reflected_sub_and_division(self, ring):
        rng = np.random.default_rng(63)
        for _ in range(20):
            a, b = random_scalar(rng, ring), random_scalar(rng, ring)
            # 1 - a = -(a - 1), component by component
            assert (1.0 - a).allclose(-(a - 1.0), 0.0)
            assert (1.0 - a).allclose(DualScalar(ring, 1.0 - a.std, -a.dual), 0.0)
            if not b.is_appreciable(0.1):
                continue
            # (a / b) b = a
            assert ((a / b) * b).allclose(a, 1e-10 * max(1.0, abs(a.std), abs(a.dual)))
            assert (a / 2.0).allclose(DualScalar(ring, a.std * 0.5, a.dual * 0.5), 1e-15)

    def test_widen(self):
        a = DualScalar.real(1.5, -2.0)
        assert a.widen("real") is a
        z = DualScalar.complex(1 + 2j, 3 - 4j)
        assert z.widen("complex") is z
        assert a.widen("complex") == DualScalar.complex(1.5 + 0j, -2.0 + 0j)
        wide = a.widen("quaternion")
        assert wide.ring == "quaternion"
        assert wide.std.components() == (1.5, 0.0, 0.0, 0.0)
        assert wide.dual.components() == (-2.0, 0.0, 0.0, 0.0)
        zq = z.widen("quaternion")
        assert zq.ring == "quaternion"
        assert zq.std.components() == (1.0, 2.0, 0.0, 0.0)
        assert zq.dual.components() == (3.0, -4.0, 0.0, 0.0)
        for narrow, wide_scalar in (("real", z), ("complex", wide), ("real", wide)):
            with pytest.raises(RingMismatchError, match="cannot widen"):
                wide_scalar.widen(narrow)
        with pytest.raises(RingMismatchError, match="cannot widen"):
            a.widen("octonion")

    def test_quaternion_inverse(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            q = Quaternion.from_components(rng.normal(size=4))
            inv = q.inverse()
            assert (q * inv).allclose(Quaternion(1.0), 1e-14)
            assert (inv * q).allclose(Quaternion(1.0), 1e-14)
            # q^-1 = conj(q) / |q|^2, component by component
            n = sum(c * c for c in q.components())
            want = (q.w / n, -q.x / n, -q.y / n, -q.z / n)
            assert np.allclose(inv.components(), want, rtol=1e-14, atol=0.0)
        with pytest.raises(ZeroDivisionError, match="zero quaternion"):
            Quaternion().inverse()

    def test_quaternion_reflected_sub_and_mul(self):
        q = Quaternion(1.0, -2.0, 3.0, 0.5)
        assert 2.0 - q == Quaternion(1.0, 2.0, -3.0, -0.5) == -(q - 2.0)
        assert 2.0 * q == Quaternion(2.0, -4.0, 6.0, 1.0) == q * 2.0
        assert 3 * q == q + q + q
