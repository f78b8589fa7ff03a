import cmath
import math

import numpy as np
import pytest

from dualgain import (
    BadParameterError,
    DualAngle,
    DualNumber,
    DualScalar,
    InfinitesimalNotInvertibleError,
    NotUnitError,
    Quaternion,
    dual_cos,
    dual_exp,
    dual_log,
    reduce_to_complex,
    unit_nth_roots,
    unit_to_angle,
)
from dualgain.sampling import random_dual_quaternion, random_scalar, random_unit_scalar

S2 = math.sqrt(2.0)
I, J, K = Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)

# the running example: a unit dual complex number with angle -pi/4 + eps
UNIT_A = DualScalar.complex(cmath.exp(-1j * math.pi / 4), (1 + 1j) / S2)


class TestExpLog:
    def test_exp_of_imaginary(self):
        assert dual_exp(DualScalar.complex(1j * math.pi / 2)).allclose(
            DualScalar.complex(1j), 1e-14)

    def test_exp_with_dual_part(self):
        assert dual_exp(DualScalar.complex(0, 1)).allclose(
            DualScalar.complex(1, 1), 1e-14)
        # a_d e^{a_s} = i * i = -1
        assert dual_exp(DualScalar.complex(1j * math.pi / 2, 1j)).allclose(
            DualScalar.complex(1j, -1), 1e-14)

    def test_log_examples(self):
        assert dual_log(DualScalar.complex(1j)).allclose(
            DualScalar.complex(1j * math.pi / 2), 1e-14)
        assert dual_log(DualScalar.one("complex")).allclose(
            DualScalar.zero("complex"), 1e-14)

    def test_log_of_unit_example_with_exp_oracle(self):
        got = dual_log(UNIT_A)
        assert dual_exp(got).allclose(UNIT_A, 1e-14)
        assert got.allclose(DualScalar.complex(-1j * math.pi / 4, 1j), 1e-14)

    def test_log_of_infinitesimal_raises(self):
        with pytest.raises(InfinitesimalNotInvertibleError):
            dual_log(DualScalar.complex(0, 1))

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = random_scalar(rng, "complex")
            if not a.is_appreciable(1e-6):
                continue
            assert dual_exp(dual_log(a)).allclose(a, 1e-12 * max(1.0, abs(a.std)))


class TestAngles:
    def test_unit_to_angle_examples(self):
        assert unit_to_angle(DualScalar.complex(1j)).std == pytest.approx(math.pi / 2)
        assert unit_to_angle(DualScalar.one("complex")).std == 0.0
        theta = unit_to_angle(UNIT_A)
        assert theta.std == pytest.approx(-math.pi / 4)
        assert theta.dual == pytest.approx(1.0)

    def test_angle_equality(self):
        t = DualAngle(0.5, -1.0)
        assert t == DualAngle(0.5, -1.0)
        assert t != DualAngle(0.5, 1.0) and t != DualAngle(-0.5, -1.0)
        # the standard part is wrapped into (-pi, pi] before it is compared
        assert DualAngle(-math.pi, 2.0) == DualAngle(math.pi, 2.0)
        assert DualAngle(3 * math.pi / 2) == DualAngle(-math.pi / 2)
        assert t != (0.5, -1.0) and t != DualNumber(0.5, -1.0)

    def test_angle_exponentiates_back(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_unit_scalar(rng, "complex")
            t = unit_to_angle(a)
            assert dual_exp(DualScalar.complex(1j * t.std, 1j * t.dual)).allclose(a, 1e-12)

    def test_not_unit_raises(self):
        with pytest.raises(NotUnitError):
            unit_to_angle(DualScalar.complex(2.0))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_tolerance_refused_before_the_gain(self, tol):
        # the gain i is a unit: only the tolerance is wrong
        with pytest.raises(BadParameterError, match="unit/balance tolerance must be a number >= 0"):
            unit_to_angle(DualScalar.complex(1j), tol)

    def test_zero_tolerance_accepted(self):
        assert unit_to_angle(DualScalar.complex(1j), 0.0).std == math.pi / 2

    def test_canonicalization(self):
        assert DualAngle(3 * math.pi).std == pytest.approx(math.pi)
        assert DualAngle(math.pi).std == pytest.approx(math.pi)
        assert DualAngle(-math.pi).std == pytest.approx(math.pi)

    def test_dual_cos_examples(self):
        assert dual_cos(DualAngle(math.pi / 2, 1)).allclose(DualNumber(0, -1), 1e-14)
        assert dual_cos(DualAngle(0)).allclose(DualNumber(1, 0), 1e-14)
        # 2 cos((-pi/4 + eps)/3) = 1.9319 + 0.1725 eps
        c = dual_cos(DualAngle(-math.pi / 12, 1.0 / 3.0))
        assert 2 * c.std == pytest.approx(1.9319, abs=5e-5)
        assert 2 * c.dual == pytest.approx(0.1725, abs=5e-5)

    def test_cosine_exponential_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            t = DualAngle(rng.uniform(-math.pi, math.pi), rng.normal())
            lhs = dual_cos(t)
            e_plus = dual_exp(DualScalar.complex(1j * t.std, 1j * t.dual))
            e_minus = dual_exp(DualScalar.complex(-1j * t.std, -1j * t.dual))
            rhs = DualScalar.complex(0.5) * (e_plus + e_minus)
            assert abs(rhs.std.imag) <= 1e-12 and abs(rhs.dual.imag) <= 1e-12
            assert lhs.allclose(DualNumber(rhs.std.real, rhs.dual.real), 1e-12)


class TestNthRoots:
    def test_cube_roots_of_one(self):
        roots = unit_nth_roots(DualScalar.one("complex"), 3)
        expected = [cmath.exp(2j * math.pi * j / 3) for j in range(3)]
        for r, e in zip(roots, expected):
            assert r.allclose(DualScalar.complex(e), 1e-14)

    def test_square_roots_of_minus_one(self):
        roots = unit_nth_roots(DualScalar.complex(-1), 2)
        got = sorted((round(r.std.real, 12), round(r.std.imag, 12)) for r in roots)
        assert got == [(-0.0, -1.0), (-0.0, 1.0)] or got == [(0.0, -1.0), (0.0, 1.0)]

    def test_cube_roots_cube_back(self):
        roots = unit_nth_roots(UNIT_A, 3)
        assert len(roots) == 3
        for r in roots:
            assert (r * r * r).allclose(UNIT_A, 1e-13)
            assert r.is_unit(1e-12)
        # distinct
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(roots[i].std - roots[j].std) > 0.1

    def test_not_unit_raises(self):
        with pytest.raises(NotUnitError):
            unit_nth_roots(DualScalar.complex(1, 1), 3)


def _assert_reduction_ok(q, tol=1e-12):
    a, u = reduce_to_complex(q)
    assert u.is_unit(tol)
    residual = a.widen("quaternion") - u.conjugate() * q * u
    worst = max(abs(c) for part in residual.components() for c in part)
    assert worst <= tol
    assert a.real_part().allclose(q.real_part(), tol)
    im_a = (a - a.real_part().to_scalar("complex")).magnitude()
    im_q = (q - q.real_part().to_scalar("quaternion")).magnitude()
    assert im_a.allclose(im_q, tol)
    return a, u


class TestReduceToComplex:
    def test_pure_j(self):
        a, u = _assert_reduction_ok(DualScalar.quaternion(J))
        assert a.allclose(DualScalar.complex(1j), 1e-12)

    def test_hand_checked_dual_case(self):
        q = DualScalar.quaternion(I, K)
        a, u = _assert_reduction_ok(q)
        assert a.allclose(DualScalar.complex(1j, 0), 1e-12)
        assert u.allclose(DualScalar.quaternion(Quaternion(1), J * -0.5), 1e-12)

    def test_dual_real_passthrough(self):
        q = DualScalar.quaternion(Quaternion(1), Quaternion(2))
        a, u = _assert_reduction_ok(q)
        assert a == DualScalar.complex(1, 2)
        assert u == DualScalar.one("quaternion")

    def test_real_standard_part_branch(self):
        q = DualScalar.quaternion(Quaternion(0.5), Quaternion(2, 0.25, -1.5, 3))
        a, u = _assert_reduction_ok(q)
        assert u.dual == Quaternion(0)
        assert a.std.imag == pytest.approx(0.0)
        assert a.dual.imag == pytest.approx(Quaternion(0, 0.25, -1.5, 3).vector_norm())

    def test_negative_i_axis_stability(self):
        # vector part along -i defeats the naive half-angle construction
        q = DualScalar.quaternion(Quaternion(0.3, -2.0), Quaternion(1, 2, 3, 4))
        _assert_reduction_ok(q)

    def test_random_mix(self):
        rng = np.random.default_rng(31)
        kinds = ("generic", "real_std", "complex_form", "dual_real", "negative_i_axis")
        for trial in range(200):
            q = random_dual_quaternion(rng, kinds[trial % len(kinds)])
            _assert_reduction_ok(q)

    def test_unit_input_gives_unit_output(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            q = random_unit_scalar(rng, "quaternion")
            a, _ = _assert_reduction_ok(q)
            assert a.is_unit(1e-12)
