import pytest

from qlorentz.qarith import Deformation, HalfInt, half_range, q_number
from qlorentz.repcore import (
    RepLabel,
    SingularCoefficientError,
    casimir_eigenvalue,
    check_recurrences,
    classify,
    coeff_a,
    coeff_c,
    coeff_window,
    conjugate_partner,
)


def lab(l0: str, l1, q: float) -> RepLabel:
    return RepLabel(HalfInt.parse(l0), l1, Deformation(q))


# ---------------------------------------------------------------- classification


def test_classify_two_dimensional_spinor():
    c = classify(lab("1/2", 1.5, 1.3))
    assert c.kind == "finite"
    assert c.n == 0
    assert c.spins == (HalfInt(1),)
    assert c.dim == 2
    assert c.unitary == "non_unitary"


def test_classify_principal():
    c = classify(lab("0", 2.7j, 1.3))
    assert c.kind == "infinite"
    assert c.unitary == "principal"
    assert c.rho == pytest.approx(2.7)


def test_classify_complementary():
    c = classify(lab("0", 0.5, 0.7))
    assert c.kind == "infinite"
    assert c.unitary == "complementary"


def test_classify_non_unitary_infinite():
    c = classify(lab("1", 0.5, 1.3))
    assert c.kind == "infinite"
    assert c.unitary == "non_unitary"


def test_classify_finite_four_dimensional():
    c = classify(lab("0", 2.0, 2.0))
    assert c.kind == "finite"
    assert c.n == 1
    assert c.spins == (HalfInt(0), HalfInt(2))
    # dimension from independent enumeration of 2j+1
    assert c.dim == sum(2 * j + 1 for j in (0, 1)) == 4


def test_classify_negative_real_l1_is_finite():
    c = classify(lab("1/2", -1.5, 1.3))
    assert c.kind == "finite" and c.dim == 2


@pytest.mark.parametrize(
    "l0,l1",
    [("0", 1.0), ("0", 2.0), ("1/2", 1.5), ("1", 3.0), ("3/2", 2.5)],
)
def test_finite_dimension_equals_l1sq_minus_l0sq(l0, l1):
    c = classify(lab(l0, l1, 1.3))
    assert c.kind == "finite"
    l0f = float(HalfInt.parse(l0))
    assert c.dim == pytest.approx(l1 * l1 - l0f * l0f)


def test_classify_involution_stable():
    for l0, l1 in [("0", 0.5), ("1", 2.7j), ("1/2", 1.5), ("2", 0.3 + 0.4j)]:
        a = classify(lab(l0, l1, 1.3))
        b = classify(lab(l0, l1, 1 / 1.3))
        assert a == b


@pytest.mark.parametrize("l0", ["0", "1/2", "1", "5/2"])
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_finite_spin_content_and_dim_from_n(l0, n):
    # dim in closed form, spins listed only on request, as the listing gives them
    j0 = HalfInt.parse(l0)
    c = classify(lab(l0, float(j0) + n + 1, 1.3))
    assert c.kind == "finite" and c.n == n and c.top == j0 + n
    assert c.spins == tuple(half_range(j0, j0 + n))
    assert c.dim == sum(j.twice + 1 for j in c.spins)


def test_classify_lists_no_spin_of_a_large_finite_label(monkeypatch):
    import qlorentz.repcore as repcore

    def no_listing(lo, hi):
        raise AssertionError("spins listed")

    monkeypatch.setattr(repcore, "half_range", no_listing)
    q = 1 + 2e-12  # spins up to 1.5e14 are in range here
    c = classify(lab("1/2", 4e8 + 0.5, q))
    assert c.kind == "finite" and c.n == 4 * 10**8 - 1 and c.dim == 4 * 10**8 * (4 * 10**8 + 1)


@pytest.mark.parametrize(
    "l0,l1,q,message",
    [
        ("0", 1e7, 1.3, "spin 9999999 overflows at q = 1.3: spins above 1143 are out of range"),
        ("1/2", 200.5, 10.0, "spin 399/2 overflows at q = 10"),
        ("1/2", 1e7, 1.3, "|Re l1| = 1e+07 overflows at q = 1.3: above 2287 is out of range"),
        ("1", 3000 + 1j, 1.3, "|Re l1| = 3000 overflows"),
        ("0", 5e8, 1 + 2e-12, "|l1| = 5e+08 is too large to tell"),
        ("1/2", 1e300, 1.3, "|l1| = 1e+300 is too large to tell"),
        ("1/2", -1e300, 1.3, "|l1| = 1e+300 is too large to tell"),
    ],
)
def test_classify_refuses_labels_it_cannot_bound(l0, l1, q, message):
    with pytest.raises(ValueError) as err:
        classify(lab(l0, l1, q))
    assert message in str(err.value)


def test_classify_degenerate_boundary():
    c = classify(lab("1", 1.0, 1.3))
    assert c.kind == "infinite"
    assert c.degenerate


def test_label_record_round_trip():
    label = lab("3/2", 0.5 - 2j, 0.7)
    rec = label.to_record()
    back = RepLabel.from_record(rec)
    assert back.l0 == label.l0 and back.l1 == label.l1 and back.d.q == label.d.q


def test_label_rejects_negative_l0():
    with pytest.raises(ValueError):
        lab("-1/2", 1.0, 1.3)


# ---------------------------------------------------------------- coefficients


def test_coeff_a_vanishes_for_l0_zero():
    label = lab("0", 0.5, 1.3)
    for j in half_range(HalfInt(2), HalfInt(10)):
        assert coeff_a(j, label) == 0


def test_coeff_a_spinor_cancellation():
    # a_{1/2} = i [1/2][3/2] / ([1/2][3/2]) = i exactly
    assert coeff_a(HalfInt(1), lab("1/2", 1.5, 2.0)) == pytest.approx(1j, abs=1e-14)


def test_coeff_a_real_for_principal():
    label = lab("1", 2.7j, 1.3)
    a = coeff_a(HalfInt(2), label)
    assert abs(a.imag) < 1e-13 * max(1.0, abs(a))
    assert abs(a.real) > 0


def test_coeff_a_zero_at_origin_by_convention():
    assert coeff_a(HalfInt(0), lab("0", 2.7j, 1.3)) == 0


def test_coeff_a_singular_when_l0_positive_at_j_zero():
    with pytest.raises(SingularCoefficientError):
        coeff_a(HalfInt(0), lab("1", 2.7j, 1.3))


def test_coeff_c_zero_at_bottom():
    for l0, l1 in [("0", 0.5), ("1/2", 1.5), ("1", 2.7j), ("3/2", 2.5)]:
        label = lab(l0, l1, 1.3)
        assert coeff_c(label.l0, label) == 0


@pytest.mark.parametrize("l0,l1", [("0", 1.0), ("0", 2.0), ("1/2", 1.5), ("1", 3.0)])
def test_coeff_c_terminates_finite_ladder(l0, l1):
    label = lab(l0, l1, 1.3)
    top = HalfInt(int(round(2 * abs(l1))))
    assert abs(coeff_c(top, label)) <= 1e-14


def test_coeff_c_pure_imaginary_for_principal():
    label = lab("0", 2.7j, 1.3)
    for j in half_range(HalfInt(2), HalfInt(12)):
        c = coeff_c(j, label)
        assert abs(c.real) < 1e-13 * max(1.0, abs(c))
        assert abs(c.imag) > 0


def test_coeff_c_singular_at_half_for_integer_l0():
    with pytest.raises(SingularCoefficientError):
        coeff_c(HalfInt(1), lab("0", 0.5, 1.3))


def test_conjugate_partner():
    assert conjugate_partner(lab("1/2", 1.5, 1.3)).l1 == -1.5
    assert conjugate_partner(lab("1", 2.7j, 1.3)).l1 == 2.7j  # principal self-partnered
    assert conjugate_partner(lab("0", 0.5, 1.3)).l1 == -0.5


# ---------------------------------------------------------------- recurrences


@pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
@pytest.mark.parametrize("l0,l1", [("0", 0.5), ("1/2", 1.5), ("1", 2.7j), ("3/2", 2.5)])
def test_recurrences_by_brute_force_substitution(q, l0, l1):
    label = lab(l0, l1, q)
    rows = check_recurrences(label, label.l0 + 20)
    for row in rows:
        assert row["residual_ladder"] < 1e-10, row
        assert row["residual_norm"] < 1e-10, row


def test_recurrences_near_classical_point():
    label = lab("1", 2.5j, 1 + 1e-6)
    for row in check_recurrences(label, label.l0 + 10):
        assert row["residual_ladder"] < 1e-8
        assert row["residual_norm"] < 1e-8


def test_recurrences_relative_bound_deep_ladder():
    # the norm equation stays at unit scale out to j = 30 across the q range
    for q in (0.5, 2.0):
        label = lab("0", 0.5, q)
        for row in check_recurrences(label, HalfInt.parse("30")):
            assert row["residual_norm"] < 1e-10


def _reference_recurrences(label, j_max):
    # each row derived on its own: a_{j+1} and c_{j+1} again as the next
    # row's a_j and c_j, every bracket by a fresh q_number call
    d, out = label.d, []
    for j in half_range(label.l0, j_max):
        a_j = 1j * q_number(label.l1, d) if j.twice == 0 and label.l0.twice == 0 else coeff_a(j, label)
        a_next, c_j, c_next = coeff_a(j + 1, label), coeff_c(j, label), coeff_c(j + 1, label)
        up, down = a_next * q_number(j + 2, d), a_j * q_number(j, d)
        inner, outer = c_j * c_j * q_number(j + j - 1, d), c_next * c_next * q_number(j + j + 3, d)
        out.append(
            {
                "j": str(j),
                "residual_ladder": abs((up - down) * c_next),
                "residual_norm": abs(inner - a_j * a_j - outer - 1.0),
                "scale_ladder": (abs(up) + abs(down)) * abs(c_next),
                "scale_norm": abs(inner) + abs(a_j * a_j) + abs(outer) + 1.0,
            }
        )
    return out


@pytest.mark.parametrize("q", [0.5, 1.3, 1 + 1e-6])
@pytest.mark.parametrize("l0,l1", [("0", 0.5), ("1/2", 1.5), ("1", 2.7j), ("2", 1.3 + 0.4j)])
def test_recurrences_equal_per_row_reference_bitwise(q, l0, l1):
    # each coefficient derived once and each bracket read from one table
    # must not move a bit (== on floats)
    label = lab(l0, l1, q)
    assert check_recurrences(label, label.l0 + 12) == _reference_recurrences(label, label.l0 + 12)


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
def test_coefficient_window_equals_per_j_coefficients_bitwise(monkeypatch, q):
    # the window's a_j, c_j are coeff_a's and coeff_c's (repr: bits and the
    # sign of zero), a_0 = 0 and a finite label's top coupling c_|l1| = 0
    # included, from one q_number call per distinct bracket
    import qlorentz.repcore as repcore

    labels = [
        lab("0", 3, q),
        lab("0", 0.5, q),
        lab("0", 2.7j, q),
        lab("1/2", 2.5, q),
        lab("1/2", 1.3 + 0.4j, q),
        lab("1", 2.7j, q),
        lab("1", 1 - 0.5j, q),
        lab("3/2", 3.5, q),
        lab("3/2", 0.3j, q),
    ]
    classes = set()
    for label in labels:
        cls = classify(label)
        classes.add(cls.kind if cls.kind == "finite" else cls.unitary)
        top = cls.top + 1 if cls.kind == "finite" else label.l0 + 6
        spins = half_range(label.l0, top)
        calls = []

        def counting(x, d):
            calls.append(x)
            return q_number(x, d)

        with monkeypatch.context() as m:
            m.setattr(repcore, "q_number", counting)
            a, c, brackets, l1b = coeff_window(label, top)
        assert repr((a, c)) == repr(([coeff_a(j, label) for j in spins], [coeff_c(j, label) for j in spins]))
        assert len(calls) == len(set(calls)) == len(brackets) + 1  # [l1] and each [x], keyed by 2x
        assert set(brackets) == {x.twice for x in calls if isinstance(x, HalfInt)}
        assert all(brackets[x.twice] == q_number(x, label.d) for x in calls if isinstance(x, HalfInt))
        assert l1b == q_number(label.l1, label.d)
        if label.l0.twice == 0:
            assert repr(a[0]) == "0j"
        if cls.kind == "finite":
            assert repr(c[-1]) == "0j"
    assert classes == {"finite", "principal", "complementary", "non_unitary"}


def test_recurrences_reject_bad_jmax():
    with pytest.raises(ValueError):
        check_recurrences(lab("2", 1.0, 1.3), HalfInt(2))


# ---------------------------------------------------------------- invariant scalar


def test_casimir_eigenvalue_zero_for_l0_zero():
    assert casimir_eigenvalue(lab("0", 0.5, 1.3)) == 0


def test_casimir_eigenvalue_spinor():
    d = Deformation(1.3)
    expected = 1j * q_number(HalfInt(1), d) * q_number(1.5, d)
    assert casimir_eigenvalue(lab("1/2", 1.5, 1.3)) == pytest.approx(expected)


def test_casimir_eigenvalue_classical_limit():
    val = casimir_eigenvalue(lab("1", 2.0, 1 + 1e-6))
    assert val == pytest.approx(2j, abs=1e-4)


def test_recurrences_evaluate_each_bracket_once(monkeypatch):
    import qlorentz.repcore as repcore

    calls = []

    def counting(x, d):
        calls.append(x.twice if isinstance(x, HalfInt) else x)
        return q_number(x, d)

    monkeypatch.setattr(repcore, "q_number", counting)
    for label in (lab("0", 0.5, 1.3), lab("3/2", 2.5, 0.5), lab("1", 2.7j, 2.0)):
        calls.clear()
        check_recurrences(label, label.l0 + 20)
        assert len(calls) == len(set(calls))
        assert label.l1 in calls and label.l0.twice in calls
