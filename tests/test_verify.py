import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from qlorentz.qarith import Deformation, HalfInt, half_range, q_number, sqrt_principal
from qlorentz.repcore import RepLabel, check_recurrences
from qlorentz.chiral import build_chiral, check_chiral_relations, coproduct, spinor_labels
from qlorentz.matrep import (
    ConstructionInconsistencyError,
    ConventionId,
    DEFAULT_CONVENTION,
    GENERATOR_PATTERNS,
    OperatorMatrix,
    RESOLVED_CONVENTION,
    build_basis,
    build_N,
    build_from_suq2,
    build_generator_set,
    build_ST_vectors,
    diag_from_m,
    suq2_matrices,
    _check_boost_steps,
)
from qlorentz.verify import (
    check_casimir,
    check_lorentz_relations,
    check_q_adjoint,
    check_recurrence_suite,
    check_tensor_operator,
    check_unitary_coeffs,
    classical_limit_compare,
    classical_oracle,
    resolve_conventions,
    Tolerances,
)


def lab(l0: str, l1, q: float) -> RepLabel:
    return RepLabel(HalfInt.parse(l0), l1, Deformation(q))


def by_id(report, rid):
    return next(r for r in report.residuals if r.relation_id == rid)


# ---------------------------------------------------------------- relation suite


@pytest.mark.parametrize("q", [0.7, 1.3])
@pytest.mark.parametrize("two_j", [1, 2, 3])
def test_realization_satisfies_all_relations(two_j, q):
    g = build_from_suq2(two_j, Deformation(q))
    rep = check_lorentz_relations(g)
    for r in rep.residuals:
        assert r.residual <= 1e-13 * r.scale, r.relation_id


@pytest.mark.parametrize(
    "l0,l1,q",
    [
        ("0", 0.5, 1.3),
        ("0", 2.0, 2.0),
        ("1/2", 1.5, 0.7),
        ("1", 2.7j, 1.3),
        ("3/2", 2.5, 0.7),
        ("1", 0.5, 1.3),
    ],
)
def test_general_label_suite_is_numerically_exact(l0, l1, q):
    # the construction closes at generic q for every label class; tier-2
    # status is about provability, not about the measured numbers
    label = lab(l0, l1, q)
    g = build_generator_set(label, label.l0 + 6)
    rep = check_lorentz_relations(g)
    assert rep.all_pass, [r.relation_id for r in rep.failed()]


def test_classical_consistency_of_suite_near_q_one():
    g = build_generator_set(lab("1/2", 1.5, 1 + 1e-6), HalfInt(1))
    rep = check_lorentz_relations(g)
    for r in rep.residuals:
        assert r.residual <= 1e-4 * r.scale


def test_zeroed_boosts_fail_boost_commutator():
    g = build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("4"))
    zero = OperatorMatrix.diagonal(g.basis, 0.0)
    from dataclasses import replace

    broken = replace(g, n_plus=0.0 * g.n_plus, n_minus=0.0 * g.n_minus, n3=zero, n3_tilde=zero)
    rep = check_lorentz_relations(broken)
    line3 = by_id(rep, "eq4.line03")
    assert not line3.passed
    # residual equals the norm of the weight matrix [2 M3] on checked columns
    d = g.d
    two_m3 = diag_from_m(g.basis, lambda m: q_number(m + m, d))
    mask = g.basis.interior_columns(2)
    assert line3.residual == pytest.approx(float(np.max(np.abs(two_m3.toarray()[:, mask]))))


def test_single_entry_perturbation_is_detected():
    # bumping any one entry by 1e-3 * scale must break the relations at 1e-6
    # (the eq4 records alone: an off-pattern bump also trips struct.*)
    label = lab("1/2", 1.5, 1.3)
    rng = np.random.default_rng(21)
    from dataclasses import replace

    for name in ("m_plus", "m3", "n_plus", "n3", "n3_tilde"):
        g = build_generator_set(label, HalfInt(1))
        arr = g.matrices()[name].toarray()
        r, c = rng.integers(0, arr.shape[0]), rng.integers(0, arr.shape[1])
        scale = max(1.0, float(np.max(np.abs(arr))))
        arr[r, c] += 1e-3 * scale
        rows, cols = np.nonzero(arr)
        broken = replace(g, **{name: OperatorMatrix.from_entries(g.basis, rows, cols, arr[rows, cols])})
        rep = check_lorentz_relations(broken, tols=Tolerances(1e-6, 1e-6))
        eq4 = [x for x in rep.residuals if x.relation_id.startswith("eq4.")]
        assert not all(x.passed for x in eq4), f"perturbation of {name}[{r},{c}] went unnoticed"


def test_interior_restriction_is_vacuous_for_finite_labels():
    # a finite representation has no truncation boundary: every column is
    # interior and the masks change nothing
    g = build_generator_set(lab("0", 2.0, 1.3), HalfInt(0))
    assert g.basis.interior_columns(1).all()
    assert g.basis.interior_columns(3).all()
    rep = check_lorentz_relations(g)
    assert all(r.columns == "all columns" for r in rep.residuals if r.relation_id.startswith("eq4"))


def test_diagonal_boosts_converge_to_each_other_classically():
    # the two diagonal boosts collapse onto one another as q -> 1
    g = build_generator_set(lab("1", 2.5j, 1 + 1e-7), HalfInt.parse("4"))
    assert (g.n3_tilde - g.n3).max_norm < 1e-5


def test_report_is_deterministic_and_sorted():
    g = build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("4"))
    a = check_lorentz_relations(g).to_json()
    b = check_lorentz_relations(g).to_json()
    assert a == b
    rec = check_lorentz_relations(g).to_record()
    ids = [r["id"] for r in rec["relations"]]
    assert ids == sorted(ids)


# ---------------------------------------------------------------- invariant


def test_casimir_scalar_and_central_on_spinor():
    g = build_generator_set(lab("1/2", 1.5, 1.3), HalfInt(1))
    rep = check_casimir(g)
    for r in rep.residuals:
        assert r.residual <= 1e-10 * r.scale, r.relation_id


def test_casimir_eigenvalue_classical():
    g = build_generator_set(lab("1", 2.5j, 1 + 1e-6), HalfInt.parse("5"))
    rep = check_casimir(g)
    scalar = by_id(rep, "eq5.scalar")
    assert scalar.residual <= 1e-4 * scalar.scale
    # classical value i l0 l1
    assert abs(g.c_scalar - 1j * 1.0 * 2.5j) < 1e-4


def test_casimir_zero_eigenvalue_for_l0_zero():
    g = build_generator_set(lab("0", 0.5, 1.3), HalfInt.parse("4"))
    assert g.c_scalar == 0
    rep = check_casimir(g)
    assert by_id(rep, "eq5.scalar").passed


# ---------------------------------------------------------------- tensor operators


def test_identity_is_a_trivial_scalar_operator():
    # the rank-0 singlet whose only component is the identity satisfies the
    # relations trivially (it commutes with everything and has no ladder)
    from qlorentz.matrep import TensorOperator

    d = Deformation(1.3)
    tri = suq2_matrices(2, d)
    singlet = TensorOperator(
        l=HalfInt.from_int(0), components={0: OperatorMatrix.diagonal(tri.basis, 1.0)}
    )
    rep = check_tensor_operator(tri, singlet, d, "singlet")
    assert rep.all_pass


def test_zero_rank_one_operator_is_trivial():
    from qlorentz.matrep import TensorOperator

    d = Deformation(1.3)
    tri = suq2_matrices(2, d)
    zeros = {m: OperatorMatrix.diagonal(tri.basis, 0.0) for m in (-1, 0, 1)}
    rep = check_tensor_operator(tri, TensorOperator(l=HalfInt.from_int(1), components=zeros), d)
    assert rep.all_pass


@pytest.mark.parametrize("two_j", [1, 2])
def test_resolved_vector_operators_are_exact(two_j):
    d = Deformation(1.3)
    tri = suq2_matrices(two_j, d)
    s, t = build_ST_vectors(two_j, d, ConventionId(st_quarters=2))
    rep_s = check_tensor_operator(tri, s, d, "S")
    rep_t = check_tensor_operator(tri, t, d, "T")
    assert rep_s.subject["satisfies"] == "alternative"
    assert rep_t.subject["satisfies"] == "primary"
    for rep in (rep_s, rep_t):
        for r in rep.residuals:
            if r.tier == 1:
                assert r.residual <= 1e-10 * r.scale, r.relation_id


def test_default_prefactor_fails_tensor_relations():
    d = Deformation(1.3)
    tri = suq2_matrices(2, d)
    s, _ = build_ST_vectors(2, d, DEFAULT_CONVENTION)
    rep = check_tensor_operator(tri, s, d, "S")
    assert not rep.tier1_pass


def test_variants_coincide_near_q_one():
    d = Deformation(1 + 1e-6)
    tri = suq2_matrices(2, d)
    s, t = build_ST_vectors(2, d, ConventionId(st_quarters=2))
    np.testing.assert_allclose(
        s.component(1).toarray(), t.component(1).toarray(), atol=1e-4
    )
    np.testing.assert_allclose(
        s.component(0).toarray(), t.component(0).toarray(), atol=1e-4
    )


# ---------------------------------------------------------------- the commutator-record evaluator

# the two operators whose largest |entry| sets each eq4 line's scale (lines
# 04/05 read N3 and N3~ the other way round under line45_swap)
_EQ4_OPERANDS = {
    "line01": ("m_plus", "m_minus"),
    "line02": ("m3", "m_plus"),
    "line03": ("n_plus", "n_minus"),
    "line04": ("n3", "n_plus"),
    "line05": ("n3_tilde", "n_minus"),
    "line06": ("m3", "n_plus"),
    "line07": ("m_plus", "n_minus"),
    "line08": ("m_minus", "n_plus"),
    "line09": ("m_plus", "n3_tilde"),
    "line10": ("m_minus", "n3"),
    "other1": ("n3", "n3_tilde"),
    "other2": ("m3", "n3"),
    "other3": ("m3", "n3_tilde"),
}
_EQ27_OPERANDS = {"1": ("I_plus", "I_minus"), "2": ("I3", "I_plus"), "3": ("I3_tilde", "I_minus"),
                  "4": ("I3_tilde", "I_plus"), "5": ("I3", "I_minus")}


def _chiral_scales(cs) -> tuple[dict, dict]:
    """Each eq27 record's scale from its operands, and as reported; the
    reported eq27.cross_LR scale is checked here to be one of the 16 pairs'
    (or 1 when every cross commutator is exactly zero)."""
    want = {}
    for side in "LR":
        t = cs.triple(side)
        want.update({f"eq27.{side}{n}": max(1.0, t[a].max_norm * t[b].max_norm) for n, (a, b) in _EQ27_OPERANDS.items()})
    pairs = {max(1.0, a.max_norm * b.max_norm) for a in cs.triple("L").values() for b in cs.triple("R").values()}
    rep = check_chiral_relations(cs)
    cross = by_id(rep, "eq27.cross_LR")
    assert cross.scale in pairs or cross.residual == 0.0 and cross.scale == 1.0
    return want, {r.relation_id: r.scale for r in rep.residuals if r.relation_id != "eq27.cross_LR"}


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
def test_commutator_scales_are_the_floored_operand_norm_products(q):
    # eq4, eq5, eq27 and eq1 scales: max(1, |a| |b|), or max(1, |a|) for one
    # operand, on the four label classes, the spin-2 realization and a
    # coproduct set
    d = Deformation(q)
    labels = [("0", 2.7j), ("0", 0.5), ("1", 1 - 0.5j), ("1/2", 3.5)]
    sets = [build_generator_set(lab(l0, l1, q), HalfInt.parse(l0) + 3) for l0, l1 in labels]
    for gens in sets + [build_from_suq2(2, d)]:
        ops, cas = gens.matrices(), gens.casimir
        d4, d5 = ("n3_tilde", "n3") if gens.convention.line45_swap else ("n3", "n3_tilde")
        operands = {**_EQ4_OPERANDS, "line04": (d4, "n_plus"), "line05": (d5, "n_minus")}
        want = {f"eq4.{line}": max(1.0, ops[a].max_norm * ops[b].max_norm) for line, (a, b) in operands.items()}
        want["eq5.scalar"] = max(1.0, cas.max_norm)
        want.update({f"eq5.central.{n}": max(1.0, cas.max_norm * op.max_norm) for n, op in gens.generators().items()})
        got = {r.relation_id: r.scale for rep in (check_lorentz_relations(gens), check_casimir(gens))
               for r in rep.residuals if not r.relation_id.startswith("struct.")}
        assert got == want
        want, got = _chiral_scales(build_chiral(gens))
        assert got == want
    tau = build_chiral(build_generator_set(spinor_labels(d)[0], HalfInt(1)))
    want, got = _chiral_scales(coproduct(tau, tau))
    assert got == want

    tri = suq2_matrices(2, d)
    for tensor in build_ST_vectors(2, d, RESOLVED_CONVENTION):
        want = {}
        for mu in (-1, 0, 1):
            t_mu = tensor.component(mu)
            for variant in ("primary", "alternative"):
                want[f"eq1.{variant}.weight.m{mu:+d}"] = max(1.0, t_mu.max_norm)
                want[f"eq1.{variant}.raise.m{mu:+d}"] = max(1.0, tri.m_plus.max_norm * t_mu.max_norm)
                want[f"eq1.{variant}.lower.m{mu:+d}"] = max(1.0, tri.m_minus.max_norm * t_mu.max_norm)
        assert {r.relation_id: r.scale for r in check_tensor_operator(tri, tensor, d).residuals} == want


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
@pytest.mark.parametrize("l0,l1", [("0", 2.7j), ("0", 0.5), ("1", 1 - 0.5j), ("1/2", 3.5), ("1/2", 1.5)])
def test_rows_on_a_stack_of_both_chiralities_give_each_side_bitwise(l0, l1, q):
    # `_rows` over the L and R triples as two copies of one grid gives, copy
    # by copy, the eq27 records `check_chiral_relations` gives per side
    from qlorentz.chiral import _triple_rows
    from qlorentz.matrep import StackedBasis
    from qlorentz.verify import _rows

    cs = build_chiral(build_generator_set(lab(l0, l1, q), HalfInt.parse(l0) + 3))
    left, right = cs.triple("L"), cs.triple("R")
    grid = StackedBasis(cs.basis, 2)
    both = {}
    for key in left:
        assert left[key].steps == right[key].steps
        both[key] = OperatorMatrix(grid, left[key].steps, np.hstack([left[key].data, right[key].data]))
    ids, res, scales = _rows(_triple_rows(both, math.sqrt(q), ""), grid.interior_columns(2))
    records = {r.relation_id: r for r in check_chiral_relations(cs).residuals}
    for k, side in enumerate("LR"):
        for n, residual, scale in zip(ids, res[:, k].tolist(), scales[:, k].tolist()):
            r = records[f"eq27.{side}{n}"]
            assert (residual.hex(), scale.hex()) == (r.residual.hex(), r.scale.hex())


# ---------------------------------------------------------------- adjoints


@pytest.mark.parametrize("l0,l1", [("0", 0.5), ("1/2", 1.5), ("1", 2.7j), ("0", 2.0)])
def test_rotation_dagger_identity_all_labels(l0, l1):
    rep = check_q_adjoint(build_generator_set(lab(l0, l1, 1.3), HalfInt.parse(l0) + 5))
    for rid in ("eq6.m_plus_dagger", "eq6.m_minus_dagger", "eq6.m3_dagger"):
        r = by_id(rep, rid)
        assert r.residual <= 1e-13, rid


def test_boost_dagger_identity_principal():
    rep = check_q_adjoint(build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("6")))
    assert rep.tier1_pass
    for rid in ("eq6.n_plus_dagger", "eq6.n_minus_dagger", "eq6.n3_hermitian"):
        r = by_id(rep, rid)
        assert r.residual <= 1e-12 * r.scale, rid


def test_diagonal_boost_role_swap_all_labels():
    for l0, l1 in [("0", 0.5), ("1/2", 1.5), ("1", 2.7j), ("2", 0.75)]:
        rep = check_q_adjoint(build_generator_set(lab(l0, l1, 1.3), HalfInt.parse(l0) + 4))
        assert by_id(rep, "eq6.n3_swap").residual <= 1e-12
        assert by_id(rep, "eq6.n3_tilde_swap").residual <= 1e-12


def test_non_unitary_label_boost_dagger_is_informational():
    rep = check_q_adjoint(build_generator_set(lab("0", 2.0, 1.3), HalfInt.parse("2")))
    assert rep.tier1_pass  # rotation pairs and role swaps still exact
    assert by_id(rep, "eq6.n_plus_dagger").tier == 2


def test_adjoint_mirror_between_q_and_inverse_q():
    # exchanging q with 1/q exchanges which side carries the dagger;
    # the residual tables must agree
    q = 1.3
    rep_a = check_q_adjoint(build_generator_set(lab("1", 2.7j, q), HalfInt.parse("5")))
    rep_b = check_q_adjoint(build_generator_set(lab("1", 2.7j, 1 / q), HalfInt.parse("5")))
    for rid in ("eq6.m_plus_dagger", "eq6.n_plus_dagger", "eq6.n3_hermitian"):
        assert abs(by_id(rep_a, rid).residual - by_id(rep_b, rid).residual) < 1e-12


def test_adjoint_near_classical_point():
    rep = check_q_adjoint(build_generator_set(lab("0", 2.7j, 1 + 1e-6), HalfInt.parse("4")))
    for r in rep.residuals:
        assert r.residual <= 1e-4 * r.scale, r.relation_id


# ---------------------------------------------------------------- unitarity


def test_unitary_coeffs_complementary():
    rep = check_unitary_coeffs(lab("0", 0.5, 0.7), HalfInt.parse("8"))
    assert rep.tier1_pass and rep.all_pass
    assert by_id(rep, "unit.matches_classification").residual == 0.0


def test_unitary_coeffs_principal():
    rep = check_unitary_coeffs(lab("1", 2.7j, 1.3), HalfInt.parse("8"))
    assert rep.tier1_pass and rep.all_pass


def test_unitary_coeffs_non_unitary_detected():
    rep = check_unitary_coeffs(lab("1", 0.5, 1.3), HalfInt.parse("6"))
    assert by_id(rep, "unit.matches_classification").residual == 0.0
    assert any(r.tier == 2 and not r.passed for r in rep.residuals)


def test_unitary_coeffs_real_l1_without_l0_fails_reality():
    # a_j pure imaginary nonzero violates self-adjointness of the diagonal boost
    rep = check_unitary_coeffs(lab("1", 0.5, 1.3), HalfInt.parse("4"))
    a_checks = [r for r in rep.residuals if r.relation_id.startswith("unit.a_real")]
    assert any(not r.passed for r in a_checks)


# ---------------------------------------------------------------- recurrence report


def test_recurrence_suite_report():
    label = lab("1/2", 1.5, 2.0)
    rep = check_recurrence_suite(label, HalfInt.parse("5/2"))
    assert rep.tier1_pass
    assert len(rep.residuals) == 2 * 3
    rows = {row["j"]: row for row in check_recurrences(label, HalfInt.parse("5/2"))}
    for r in rep.residuals:
        kind, j = r.relation_id.split(".")[1], r.relation_id.split("j=")[1]
        assert (r.residual, r.scale) == (rows[j][f"residual_{kind}"], rows[j][f"scale_{kind}"])


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
def test_recurrence_suite_catches_a_planted_relative_error(monkeypatch, q):
    # the records are scaled by their terms' magnitudes, yet a relative error
    # of 1e-8 in one a_j or c_j still fails a tier-1 record at every q
    import qlorentz.repcore as repcore

    window = repcore.coeff_window
    for l0, l1 in (("1/2", 1.5), ("1", 2.7j), ("2", 1.3 + 0.4j), ("1", 50 + 50j), ("0", 10.2)):
        label = lab(l0, l1, q)
        assert check_recurrence_suite(label, label.l0 + 8).tier1_pass
        for which in ("c",) if l0 == "0" else ("a", "c"):  # every a_j of l0 = 0 is zero

            def planted(label, top):
                a, c, brackets, l1b = window(label, top)
                (a if which == "a" else c)[3] *= 1 + 1e-8
                return a, c, brackets, l1b

            with monkeypatch.context() as m:
                m.setattr(repcore, "coeff_window", planted)
                assert not check_recurrence_suite(label, label.l0 + 8).tier1_pass, (l0, l1, which)


# ---------------------------------------------------------------- classical oracle


def _oracle(l0, l1, j_max):
    # the oracle on the basis a limit build at q = 1 + 1e-6 has
    basis = build_basis(RepLabel(l0, l1, Deformation(1.0 + 1e-6)), j_max)
    return classical_oracle(basis, l0, l1)


def test_oracle_satisfies_classical_lorentz_relations():
    # independent construction; brute-force commutators against the
    # classical structure constants
    for l0s, l1, jm in [("0", 2.7j, "6"), ("1/2", 1.5, "1/2"), ("1", 2.5j, "8")]:
        o = _oracle(HalfInt.parse(l0s), l1, HalfInt.parse(jm))
        names = ("m_plus", "m_minus", "m3", "n_plus", "n_minus", "n3")
        mp, mm, m3, npl, nm, n3 = (o[name].toarray() for name in names)
        mask = o["m3"].basis.interior_columns(2)

        def res(x):
            sub = x[:, mask]
            return float(np.max(np.abs(sub))) if sub.size else 0.0

        scale = max(1.0, float(np.max(np.abs(npl))) ** 2)
        assert res(mp @ mm - mm @ mp - 2 * m3) < 1e-10 * scale
        assert res(npl @ nm - nm @ npl + 2 * m3) < 1e-10 * scale
        assert res(m3 @ npl - npl @ m3 - npl) < 1e-10 * scale
        assert res(mp @ nm - nm @ mp - 2 * n3) < 1e-10 * scale
        assert res(mm @ npl - npl @ mm + 2 * n3) < 1e-10 * scale
        assert res(mp @ n3 - n3 @ mp + npl) < 1e-10 * scale
        assert res(n3 @ npl - npl @ n3 + mp) < 1e-10 * scale


def test_oracle_principal_diagonal_boost_is_hermitian():
    n3 = _oracle(HalfInt(0), 2.7j, HalfInt.parse("5"))["n3"].toarray()
    np.testing.assert_allclose(n3, n3.conj().T, atol=1e-12)


def test_oracle_spinor_is_classical_su2():
    # basis order (m = -1/2, +1/2): raising hits the (2,1) entry
    o = _oracle(HalfInt(1), 1.5, HalfInt(1))
    assert o["m3"].dim == 2
    np.testing.assert_allclose(o["m_plus"].toarray(), [[0, 0], [1, 0]], atol=1e-14)
    np.testing.assert_allclose(o["n_plus"].toarray(), -1j * o["m_plus"].toarray(), atol=1e-14)


def _reference_oracle(l0, l1, j_max):
    # the per-(j, m) loop the vectorized oracle replaced: one scalar entry at
    # a time into dense arrays, targets looked up with Basis.has/index
    basis = build_basis(RepLabel(l0, l1, Deformation(1.0 + 1e-6)), j_max)
    fl0, l1 = float(l0), complex(l1)
    mats = {k: np.zeros((basis.dim, basis.dim), dtype=np.complex128)
            for k in ("m_plus", "m_minus", "m3", "n_plus", "n_minus", "n3")}

    def c_of(j):
        if j == l0 or float(j) <= 0.0:
            return 0j
        fj = float(j)
        rad = (fj * fj - fl0 * fl0) * (fj * fj - l1 * l1) / ((2 * fj - 1.0) * (2 * fj + 1.0))
        return 1j / fj * sqrt_principal(rad)

    for j in basis.spins:
        fj = float(j)
        aj = 0j if fj == 0.0 else 1j * fl0 * l1 / (fj * (fj + 1.0))
        cj, cj1 = c_of(j), c_of(j + 1)
        for m in half_range(-j, j):
            col, fm = basis.index(j, m), float(m)

            def put(name, tj, tm, val):
                if basis.has(tj, tm):
                    mats[name][basis.index(tj, tm), col] += val

            mats["m3"][col, col] = fm
            if m < j:
                mats["m_plus"][basis.index(j, m + 1), col] = math.sqrt((fj - fm) * (fj + fm + 1))
            if -j < m:
                mats["m_minus"][basis.index(j, m - 1), col] = math.sqrt((fj + fm) * (fj - fm + 1))
            if basis.has(j - 1, m + 1):
                put("n_plus", j - 1, m + 1, cj * math.sqrt((fj - fm) * (fj - fm - 1)))
            put("n_plus", j, m + 1, -aj * math.sqrt((fj - fm) * (fj + fm + 1)))
            put("n_plus", j + 1, m + 1, cj1 * math.sqrt((fj + fm + 1) * (fj + fm + 2)))
            if basis.has(j - 1, m - 1):
                put("n_minus", j - 1, m - 1, -cj * math.sqrt((fj + fm) * (fj + fm - 1)))
            put("n_minus", j, m - 1, -aj * math.sqrt((fj + fm) * (fj - fm + 1)))
            put("n_minus", j + 1, m - 1, -cj1 * math.sqrt((fj - fm + 1) * (fj - fm + 2)))
            if basis.has(j - 1, m):
                put("n3", j - 1, m, cj * math.sqrt((fj - fm) * (fj + fm)))
            mats["n3"][col, col] += -aj * fm
            put("n3", j + 1, m, -cj1 * math.sqrt((fj + fm + 1) * (fj - fm + 1)))
    return mats


_ORACLE_LABELS = [
    ("0", 2.7j), ("0", 0.5), ("0", -0.3), ("1", 2.5j), ("1/2", 1.5), ("1/2", -1.5), ("1/2", 3.5),
    ("1", 3.0), ("2", 1 - 0.5j), ("3/2", 2 + 1j), ("5/2", 0.7j), ("1", 50 + 50j),
]


@pytest.mark.parametrize("l0,l1", _ORACLE_LABELS)
def test_oracle_equals_per_entry_reference_bitwise(l0, l1):
    # the vectorized fill takes the same float operations per entry as the
    # loop, so every byte matches (signed zeros included)
    for offset in (0, 1, 2, 5, 6, 8):
        l0h = HalfInt.parse(l0)
        o = _oracle(l0h, l1, l0h + offset)
        ref = _reference_oracle(l0h, l1, l0h + offset)
        for name, mat in ref.items():
            assert o[name].toarray().tobytes() == mat.tobytes(), (l0, l1, offset, name)
        assert o["n3_tilde"] is o["n3"]
        assert list(o) == [name for name in GENERATOR_PATTERNS if name != "casimir"]


# ---------------------------------------------------------------- limit compare


def test_limit_compare_principal():
    rep = classical_limit_compare(HalfInt.parse("1"), 2.5j, HalfInt.parse("5"), 1e-6)
    assert rep.all_pass
    worst = max(r.residual for r in rep.residuals if r.relation_id.startswith("limit.dev"))
    assert worst < 1e-4


def test_limit_compare_spinor_tight():
    rep = classical_limit_compare(HalfInt.parse("1/2"), 1.5, HalfInt.parse("1/2"), 1e-8)
    worst = max(r.residual for r in rep.residuals if r.relation_id.startswith("limit.dev"))
    assert worst < 1e-6
    assert rep.all_pass


def test_limit_compare_shrinks_linearly():
    rep = classical_limit_compare(HalfInt.parse("1"), 2.5j, HalfInt.parse("4"), 1e-6)
    shrink = next(r for r in rep.residuals if r.relation_id == "limit.shrink")
    assert shrink.passed  # at least 3x smaller at eps/10


def test_limit_compare_rejects_large_eps():
    with pytest.raises(ValueError):
        classical_limit_compare(HalfInt(0), 0.5, HalfInt(4), 0.5)


def test_limit_compare_checks_both_eps_before_any_build(monkeypatch):
    # eps/10 = 5e-13 is inside the q = 1 guard of Deformation: the call is
    # refused before the oracle or the first set is built
    import qlorentz.verify as verify

    def no_build(*a, **kw):
        raise AssertionError("built before the eps check")

    monkeypatch.setattr(verify, "build_generator_set", no_build)
    monkeypatch.setattr(verify, "classical_oracle", no_build)
    for eps in (5e-12, 0.0, -1e-6, 2e-3, math.nan):
        with pytest.raises(ValueError, match=r"eps must be in \[1e-11, 0.001\]"):
            classical_limit_compare(HalfInt(0), 2.7j, HalfInt(4), eps)
    monkeypatch.undo()
    # the lower end of the range takes both builds
    rep = classical_limit_compare(HalfInt(0), 2.7j, HalfInt(2), 1e-11)
    assert rep.environment["eps"] == 1e-11 and len(rep.residuals) == 9


# ---------------------------------------------------------------- resolver


def test_resolver_picks_exact_readings():
    win, _ = resolve_conventions(label=lab("1", 0.5, 1.3), two_j=2, d=Deformation(1.3))
    assert win.n_mid_exp == 0
    assert win.n_down_dm == 0
    assert win.n_first_shift == 0
    assert win.n_third_shift == 0
    assert win.line45_swap == 0
    assert win.st_quarters == 2
    assert win.cop_r_grouplike == 1


def test_resolver_stable_across_q():
    winners = set()
    for q in (0.8, 1.1, 1.3):
        win, _ = resolve_conventions(label=lab("1", 0.5, q), two_j=2, d=Deformation(q))
        winners.add(str(win))
    assert len(winners) == 1


def test_resolver_classical_gate():
    # near q = 1 the winner's suite residual is far below the coarse gate
    d = Deformation(1 + 1e-6)
    win, table = resolve_conventions(label=lab("1", 0.5, 1 + 1e-6), d=d)
    best = min(r["score"] for r in table if r["valid"])
    assert best < 1e-4


def test_resolver_marks_inconsistent_variants():
    _, table = resolve_conventions(label=lab("0", 0.5, 1.3))
    bad = [r for r in table if not r["valid"]]
    assert bad, "the degenerate row reading must be flagged as inconsistent"
    assert all(r["score"] is None for r in bad)


def _reference_pick(table, chosen, axis, scored, fields):
    for s, conv in scored:
        score = None if math.isinf(s) else s
        table.append({"axis": axis, "convention": str(conv), "score": score, "valid": score is not None})
    win = min(scored, key=lambda t: (t[0], t[1].to_list()))[1]
    chosen.update((f, getattr(win, f)) for f in fields)


def _reference_boost_axis(label, j_max):
    # a full generator set per exponent reading, the whole relation suite
    # per reading and pairing
    options = ConventionId._RANGES
    exponents = ("n_mid_exp", "n_down_dm", "n_first_shift", "n_third_shift")
    scored = []
    for values in itertools.product(*(options[f] for f in exponents)):
        reading = ConventionId(**dict(zip(exponents, values)))
        try:
            g = build_generator_set(label, j_max, reading)
        except ConstructionInconsistencyError:
            g = None
        for sw in options["line45_swap"]:
            conv = replace(reading, line45_swap=sw)
            score = math.inf
            if g is not None:
                rep = check_lorentz_relations(replace(g, convention=conv))
                score = sum(r.residual / r.scale for r in rep.residuals if r.relation_id.startswith("eq4."))
            scored.append((score, conv))
    table, chosen = [], {}
    _reference_pick(table, chosen, "boost_exponents", scored, exponents + ("line45_swap",))
    return table, chosen


def _reference_other_axes(two_j, d):
    # the spin-j triple rebuilt per prefactor option, one coproduct at a time
    table, chosen, scored = [], {}, []
    for k in ConventionId._RANGES["st_quarters"]:
        conv = ConventionId(st_quarters=k)
        s, t = build_ST_vectors(two_j, d, conv)
        tri = suq2_matrices(two_j, d)
        total = 0.0
        for tensor, name in ((s, "S"), (t, "T")):
            rep = check_tensor_operator(tri, tensor, d, name)
            total += sum(r.residual / r.scale for r in rep.residuals if r.tier == 1)
        scored.append((total, conv))
    _reference_pick(table, chosen, "st_prefactor", scored, ("st_quarters",))
    cs_tau, cs_taut = (build_chiral(build_generator_set(t, t.l0)) for t in spinor_labels(d))
    scored = []
    for rg in ConventionId._RANGES["cop_r_grouplike"]:
        conv = ConventionId(cop_r_grouplike=rg)
        rep = check_chiral_relations(coproduct(cs_tau, cs_taut, conv))
        scored.append((sum(r.residual / r.scale for r in rep.residuals), conv))
    _reference_pick(table, chosen, "cop_r_grouplike", scored, ("cop_r_grouplike",))
    return table, chosen


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0538, 1.3, 2.0, 10.0])
def test_resolver_matches_per_reading_reference(q):
    # scores are compared with ==: sharing one basis, evaluating each line
    # once per reading and each pairing's lines 04/05 once must not move a bit
    d = Deformation(q)
    others = {two_j: _reference_other_axes(two_j, d) for two_j in (1, 2, 3)}
    boosts = {}  # the reference per distinct basis: offset 4 is the default, a finite label ignores j_max
    labels = [("1", 2.1j), ("0", 0.5), ("2", 1.5 - 0.7j), ("1/2", 3.5)]  # the four label classes
    for k, ((l0, l1), offset) in enumerate(itertools.product(labels, (0, 1, 4, None))):
        label, two_j = lab(l0, l1, q), 1 + k % 3
        jm = label.l0 + (4 if offset is None else offset)
        key = (l0, build_basis(label, jm))
        if key not in boosts:
            boosts[key] = _reference_boost_axis(label, jm)
        table = boosts[key][0] + others[two_j][0]
        chosen = {**boosts[key][1], **others[two_j][1]}
        j_max = None if offset is None else jm
        assert resolve_conventions(label, two_j, d, j_max) == (ConventionId(**chosen), table)


@pytest.mark.parametrize("q", [0.5, 1.3, 3.0])
@pytest.mark.parametrize(
    "l0,l1", [("1", 2.1j), ("0", 0.5), ("2", 1.5 - 0.7j), ("1", 3), ("1/2", 1.5)]
)  # the four label classes, and a single block whose j+-1 terms reach no row
def test_stacked_boost_readings_equal_build_N_bitwise(monkeypatch, l0, l1, q):
    # the stacked N+, N- and N3 copies the resolver scores are, reading by
    # reading, the steps and value rows `build_N` makes for that reading
    import qlorentz.verify as verify

    label = lab(l0, l1, q)
    basis = build_basis(label, label.l0 + 4)
    readings = []
    for values in itertools.product((0, 1), (0, 1), (0, 1, 2), (0, 1, 2)):
        try:
            _check_boost_steps(ConventionId(*values))
        except ConstructionInconsistencyError:
            continue
        readings.append(ConventionId(*values))
    stacks = []
    real = verify._eq4_lines

    def recording(ops, *args, **kwargs):
        if "n_plus" in ops:
            stacks.append([ops[name] for name in ("n_plus", "n_minus", "n3")])
        return real(ops, *args, **kwargs)

    monkeypatch.setattr(verify, "_STACK_COLUMNS", 4 * basis.dim)  # 4 readings per stack
    monkeypatch.setattr(verify, "_eq4_lines", recording)
    verify._boost_scores(label, basis, readings)
    got = []
    for stack in stacks[::2]:  # each stack's printed pairing; the swapped pairing reads the same stack
        blocks = [np.hsplit(op.data, op.basis.copies) for op in stack]
        for i in range(stack[0].basis.copies):
            got.append(tuple((op.steps, block[i].tobytes()) for op, block in zip(stack, blocks)))
    want = [tuple((op.steps, op.data.tobytes()) for op in build_N(basis, label, conv)) for conv in readings]
    assert len(readings) == 18 and len(stacks) == 10 and got == want


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
@pytest.mark.parametrize(
    "conv", [DEFAULT_CONVENTION, RESOLVED_CONVENTION, ConventionId(line45_swap=1)], ids=["printed", "resolved", "swap"]
)
@pytest.mark.parametrize("l0,l1", [("0", 2.7j), ("0", 0.5), ("1", 1 - 0.5j), ("1/2", 3.5)])
def test_every_struct_record_of_a_built_set_is_exactly_zero(l0, l1, conv, q):
    # the selection rules hold exactly, so q_adjoint's eq6.suite_at_inverse_q,
    # read off the eq4 lines of the 1/q set alone, is the worst ratio of that
    # set's whole relation suite, to the bit (the CLI's two conventions and
    # the swapped line 04/05 pairing)
    label = lab(l0, l1, q)
    gens = build_generator_set(label, label.l0 + 3, conv)
    struct = [r for r in check_lorentz_relations(gens).residuals if r.relation_id.startswith("struct.")]
    assert len(struct) == 8 and all(r.residual == 0.0 for r in struct)
    gi = build_generator_set(RepLabel(label.l0, label.l1, label.d.inverse()), label.l0 + 3, conv)
    worst = max(r.residual / r.scale for r in check_lorentz_relations(gi).residuals)
    record = next(r for r in check_q_adjoint(gens).residuals if r.relation_id == "eq6.suite_at_inverse_q")
    assert record.residual.hex() == worst.hex()
