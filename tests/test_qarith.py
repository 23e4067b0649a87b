import math

import numpy as np
import pytest

from qlorentz.qarith import Deformation, HalfInt, half_range, q_number, sqrt_principal


# ---------------------------------------------------------------- half-integers


def test_halfint_parse_and_str():
    assert HalfInt.parse("3/2").twice == 3
    assert HalfInt.parse("2").twice == 4
    assert HalfInt.parse("-3/2").twice == -3
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt.parse(str(HalfInt(-7)))) == "-7/2"


def test_halfint_parse_rejects_garbage():
    for bad in ("3/4", "x", "1.5", ""):
        with pytest.raises(ValueError):
            HalfInt.parse(bad)


def test_halfint_arithmetic_is_exact():
    j = HalfInt.parse("7/2")
    assert (j + 1).twice == 9
    assert (j - HalfInt(1)).twice == 6
    assert (-j).twice == -7
    assert abs(HalfInt(-5)) == HalfInt(5)
    assert j > HalfInt(6)
    assert float(HalfInt(3)) == 1.5
    assert HalfInt(4) == 2 and 2 == HalfInt(4)


def test_halfint_accepts_only_integers():
    for bad in (True, 3.0, "3"):
        with pytest.raises(TypeError):
            HalfInt(bad)
    j = HalfInt(np.int64(3))
    assert type(j.twice) is int and j == HalfInt(3) and hash(j) == hash(HalfInt(3))


def test_half_range():
    got = half_range(HalfInt(1), HalfInt(7))
    assert [g.twice for g in got] == [1, 3, 5, 7]
    assert half_range(HalfInt(4), HalfInt(2)) == []


# ---------------------------------------------------------------- deformation


def test_deformation_validation():
    d = Deformation(1.3)
    assert d.delta == pytest.approx(math.sqrt(1.3) - 1 / math.sqrt(1.3))
    assert d.alpha == d.delta / 2
    for bad in (0.0, -1.0, 1.0, 1.0 + 1e-13, float("nan")):
        with pytest.raises(ValueError):
            Deformation(bad)


def test_delta_sign_follows_q():
    assert Deformation(2.0).delta > 0
    assert Deformation(0.5).delta < 0


# ---------------------------------------------------------------- q-numbers


def test_q_number_base_cases():
    d = Deformation(1.7)
    assert q_number(0, d) == 0
    assert q_number(1, d) == pytest.approx(1.0, abs=1e-15)
    # independent evaluation: [2] = q^(1/2) + q^(-1/2) = 2 + 0.5 at q = 4
    assert q_number(2, Deformation(4.0)) == pytest.approx(2.5, abs=1e-14)


def test_q_number_pure_imaginary_argument():
    val = q_number(2.7j, Deformation(1.3))
    assert abs(val.real) < 1e-15
    assert abs(val.imag) > 0


def test_q_number_odd():
    d = Deformation(0.8)
    rng = np.random.default_rng(7)
    for a in rng.uniform(-10, 10, size=50):
        assert q_number(-a, d) == pytest.approx(-q_number(a, d), abs=1e-12)


def test_q_number_symmetry_under_q_inversion():
    # 1000 random (A, q) pairs; brackets are invariant under q -> 1/q.
    # q is sampled away from 1: forming 1/q loses one ulp of ln q, and the
    # induced error grows like 1/ln q toward the classical point.
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        a = rng.uniform(-15, 15)
        q = rng.uniform(1.05, 2.0) if rng.random() < 0.5 else rng.uniform(0.5, 0.95)
        x = q_number(a, Deformation(q))
        y = q_number(a, Deformation(1 / q))
        assert abs(x - y) < 1e-13 * max(1.0, abs(x))


@pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
def test_product_identity(q):
    # [j+m][j-m+1] = [j][j+1] - [m][m-1] on the full grid |m| <= j <= 10
    d = Deformation(q)
    for j in half_range(HalfInt(0), HalfInt(20)):
        for m in half_range(-j, j):
            lhs = q_number(j + m, d) * q_number(j - m + 1, d)
            rhs = q_number(j, d) * q_number(j + 1, d) - q_number(m, d) * q_number(m - 1, d)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
def test_telescoping_identity(q):
    # [j+1]^2 - [j]^2 = [2j+1]
    d = Deformation(q)
    for j in half_range(HalfInt(0), HalfInt(20)):
        lhs = q_number(j + 1, d) ** 2 - q_number(j, d) ** 2
        rhs = q_number(j + j + 1, d)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_classical_limit_of_brackets():
    d = Deformation(1 + 1e-6)
    for a in range(21):
        assert abs(q_number(a, d) - a) <= 1e2 * 1e-6


# ---------------------------------------------------------------- square root


def test_sqrt_principal_branch():
    assert sqrt_principal(4.0) == 2.0 + 0j
    assert sqrt_principal(-1.0) == 1j
    assert sqrt_principal(-9.0) == 3j
    z = sqrt_principal(3 + 4j)
    assert z.real >= 0
    assert z * z == pytest.approx(3 + 4j)


def test_sqrt_principal_nonnegative_real_part():
    rng = np.random.default_rng(99)
    for _ in range(200):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        w = sqrt_principal(z)
        assert w.real >= 0
        assert abs(w * w - z) < 1e-12 * max(1.0, abs(z))
