import math
from dataclasses import replace

import numpy as np
import pytest

from qlorentz.qarith import Deformation, HalfInt, q_number
from qlorentz.repcore import RepLabel
from qlorentz.matrep import (
    ConventionId,
    DEFAULT_CONVENTION,
    OperatorMatrix,
    RESOLVED_CONVENTION,
    build_basis,
    build_from_suq2,
    build_generator_set,
    diag_from_m,
    tensor_embed,
)
from qlorentz.chiral import (
    ChiralSet,
    build_chiral,
    check_chiral_adjoint,
    check_chiral_relations,
    check_coproduct_homomorphism,
    check_reduction_identities,
    check_spinor_annihilation,
    coproduct,
    spinor_labels,
)
from qlorentz.verify import TIER1_TOL


def lab(l0: str, l1, q: float) -> RepLabel:
    return RepLabel(HalfInt.parse(l0), l1, Deformation(q))


def by_id(report, rid):
    return next(r for r in report.residuals if r.relation_id == rid)


CHIRAL_FIELDS = tuple(
    f"{base}_{side}{tilde}" for side in "LR" for base, tilde in
    (("I_plus", ""), ("I_minus", ""), ("I3", ""), ("I3", "_tilde"), ("T3", ""), ("T3", "_tilde"))
)


def chiral_for(l0, l1, q, extra=4):
    label = lab(l0, l1, q)
    return build_chiral(build_generator_set(label, label.l0 + extra))


# ---------------------------------------------------------------- construction


def test_chirality_death_on_realization():
    # boosts proportional to rotations make the right family vanish identically
    cs = build_chiral(build_from_suq2(1, Deformation(1.3)))
    for op in cs.triple("R").values():
        assert op.max_norm == 0.0
    assert cs.triple("L")["I_plus"].max_norm > 0
    np.testing.assert_allclose(
        cs.I_plus_L.toarray(), 2 * build_from_suq2(1, Deformation(1.3)).m_plus.toarray()
    )


def test_chiral_classical_limit_of_definitions():
    d = Deformation(1 + 1e-7)
    g = build_generator_set(lab("1", 2.5j, 1 + 1e-7), HalfInt.parse("3"))
    cs = build_chiral(g)
    np.testing.assert_allclose(
        cs.I_plus_L.toarray(), g.m_plus.toarray() + 1j * g.n_plus.toarray(), atol=1e-14
    )
    np.testing.assert_allclose(
        cs.I3_L.toarray() + cs.I3_R.toarray(), 2 * g.m3.toarray(), atol=1e-5
    )


def test_shifted_generators_by_construction():
    cs = chiral_for("1", 2.7j, 1.3)
    eye = np.eye(cs.dim)
    delta = cs.d.delta
    np.testing.assert_allclose(cs.T3_L.toarray(), 2 * eye - delta * cs.I3_L.toarray(), atol=1e-15)
    np.testing.assert_allclose(
        cs.T3_R_tilde.toarray(), 2 * eye + delta * cs.I3_R_tilde.toarray(), atol=1e-15
    )


# ---------------------------------------------------------------- chiral algebra


@pytest.mark.parametrize("two_j", [1, 2, 3])
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_chiral_algebra_exact_on_realization(two_j, q):
    cs = build_chiral(build_from_suq2(two_j, Deformation(q)))
    rep = check_chiral_relations(cs)
    assert cs.tier1
    for r in rep.residuals:
        assert r.residual <= 1e-12 * r.scale, r.relation_id


def test_chiral_algebra_exact_on_spinor_label():
    cs = chiral_for("1/2", 1.5, 1 + 1e-6, extra=0)
    rep = check_chiral_relations(cs)
    for r in rep.residuals:
        assert r.residual <= 1e-4 * r.scale


def test_chiral_algebra_classical_gate_on_general_label():
    # multi-block representations close the chiral algebra only classically;
    # the deviation is O(q - 1)
    res = {}
    for eps in (1e-5, 1e-6):
        cs = chiral_for("1", 2.7j, 1 + eps)
        rep = check_chiral_relations(cs)
        res[eps] = max(r.residual / r.scale for r in rep.residuals)
    assert res[1e-6] < 1e-4
    assert res[1e-6] < res[1e-5] / 3


def test_chiral_algebra_measured_at_generic_q():
    cs = chiral_for("1", 2.7j, 1.3)
    rep = check_chiral_relations(cs)
    assert rep.tier1_pass  # nothing tier-1 on a general label
    assert not rep.all_pass  # the measured identities genuinely deviate
    assert all(r.tier == 2 for r in rep.failed())


def test_left_right_commute_on_spinor():
    cs = chiral_for("1/2", 1.5, 1.3, extra=0)
    r = by_id(check_chiral_relations(cs), "eq27.cross_LR")
    assert r.residual <= 1e-12 * r.scale


# ---------------------------------------------------------------- reduction identities


@pytest.mark.parametrize(
    "l0,l1,q", [("0", 0.5, 0.7), ("1", 2.7j, 1.3), ("2", 0.75, 1.4), ("1/2", 1.5, 2.0)]
)
def test_reduction_identities_exact_everywhere(l0, l1, q):
    rep = check_reduction_identities(chiral_for(l0, l1, q))
    assert by_id(rep, "eq28.inverse").residual < 1e-13
    assert by_id(rep, "eq28.difference").residual < 1e-13


def test_reduction_identity_is_weight_spectral():
    # 1 - alpha(I3^L + I3^R) equals q^(-M3) on the diagonal
    cs = chiral_for("1", 2.7j, 1.3)
    g = build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("5"))
    eye = np.eye(cs.dim)
    lhs = eye - cs.d.alpha * (cs.I3_L.toarray() + cs.I3_R.toarray())
    qm = np.diag([cs.d.q ** (-int(m2) / 2) for m2 in g.basis.m2])
    np.testing.assert_allclose(lhs, qm, atol=1e-13)


def test_reduction_identities_near_classical_point():
    rep = check_reduction_identities(chiral_for("1", 2.5j, 1 + 1e-6))
    assert rep.all_pass


def dense_inverse_passes(cs):
    """The dense eq28.inverse record the step check replaced: 1 + alpha(I3t^L + I3t^R)
    against the inverse of 1 - alpha I3^L - alpha I3^R, scaled by max(1, |inverse|max)."""
    a = cs.d.alpha
    eye = OperatorMatrix.diagonal(cs.I3_L.basis, 1.0)
    lhs1 = (eye + a * (cs.I3_L_tilde + cs.I3_R_tilde)).toarray()
    inv = np.linalg.inv((eye - a * cs.I3_L - a * cs.I3_R).toarray())
    return float(np.max(np.abs(lhs1 - inv))) <= TIER1_TOL * max(1.0, float(np.max(np.abs(inv))))


def inverse_plants(cs, rel=1e-8):
    """Copies of cs with a relative error in one nonzero diagonal entry of
    I3_L_tilde, I3_R or I3_L each."""
    for name in ("I3_L_tilde", "I3_R", "I3_L"):
        op = getattr(cs, name)
        s0 = op.steps.index(op.basis.zero_step)
        for k in np.nonzero(op.data[s0])[0]:
            data = op.data.copy()
            data[s0, k] *= 1 + rel
            yield replace(cs, **{name: OperatorMatrix(op.basis, op.steps, data)})


@pytest.mark.parametrize("q", [0.5, 1.3, 2.0])
@pytest.mark.parametrize("l0,l1", [("0", 2.7j), ("1", 1 - 0.5j), ("2", 5)])
def test_reduction_inverse_catches_at_least_the_dense_record_plants(l0, l1, q):
    cs = chiral_for(l0, l1, q, extra=8)
    assert by_id(check_reduction_identities(cs), "eq28.inverse").passed
    assert dense_inverse_passes(cs)
    caught = dense = 0
    for planted in inverse_plants(cs):
        caught += not by_id(check_reduction_identities(planted), "eq28.inverse").passed
        dense += not dense_inverse_passes(planted)
    assert caught >= dense > 0


def max_norm_difference_passes(cs):
    """The eq28.difference record the componentwise check replaced: the max-norm
    residual against max(1, |lhs1|max) * max(1, |I3^L - I3^R|max)."""
    eye = OperatorMatrix.diagonal(cs.I3_L.basis, 1.0)
    lhs1 = eye + cs.d.alpha * (cs.I3_L_tilde + cs.I3_R_tilde)
    d3 = cs.I3_L - cs.I3_R
    residual = (cs.I3_L_tilde - cs.I3_R_tilde - lhs1 @ d3).max_norm
    return residual <= TIER1_TOL * max(1.0, lhs1.max_norm) * max(1.0, d3.max_norm)


def entry_plants(cs, rel=1e-8):
    """(step, copy of cs) with a relative error in one nonzero entry of one of
    the four diagonal generators each."""
    for name in ("I3_L", "I3_R", "I3_L_tilde", "I3_R_tilde"):
        op = getattr(cs, name)
        for s, k in zip(*np.nonzero(op.data)):
            data = op.data.copy()
            data[s, k] *= 1 + rel
            yield op.steps[s], replace(cs, **{name: OperatorMatrix(op.basis, op.steps, data)})


@pytest.mark.parametrize("q,rel", [(0.1, 1e-4), (0.5, 1e-8), (1.3, 1e-8), (2.0, 1e-8)])
@pytest.mark.parametrize("l0,l1", [("0", 2.7j), ("1", 1 - 0.5j), ("2", 5)])
def test_reduction_difference_catches_every_max_norm_record_plant(l0, l1, q, rel):
    # at q = 0.1 the max-norm record catches no 1e-8 plant
    cs = chiral_for(l0, l1, q, extra=8)
    assert by_id(check_reduction_identities(cs), "eq28.difference").passed
    assert max_norm_difference_passes(cs)
    caught = old = 0
    for _, planted in entry_plants(cs, rel):
        new_caught = not by_id(check_reduction_identities(planted), "eq28.difference").passed
        old_caught = not max_norm_difference_passes(planted)
        assert new_caught or not old_caught
        caught, old = caught + new_caught, old + old_caught
    assert caught > old > 0


def sum_bound_inverse_ratio(cs):
    """Worst |R|/bound of the eq28.inverse record whose bound took the
    magnitudes of the sums, (1 + |alpha||I3t^L + I3t^R|)(1 + |alpha||I3^L + I3^R|)."""
    a = cs.d.alpha
    eye = OperatorMatrix.diagonal(cs.I3_L.basis, 1.0)
    sum3, sum3t = cs.I3_L + cs.I3_R, cs.I3_L_tilde + cs.I3_R_tilde
    resid = (eye + a * sum3t) @ (eye - a * sum3) - eye
    bound = (eye + abs(a) * sum3t.abs()) @ (eye + abs(a) * sum3.abs())
    assert resid.steps == bound.steps
    r, b = np.abs(resid.data), bound.data.real
    return float(np.max(np.divide(r, b, out=np.where(r > 0, np.inf, 0.0), where=b > 0)))


@pytest.mark.parametrize("q,rel", [(0.1, 1e-4), (0.5, 1e-8), (1.3, 1e-8), (2.0, 1e-8)])
@pytest.mark.parametrize("l0,l1", [("0", 2.7j), ("1", 1 - 0.5j), ("2", 5)])
def test_reduction_inverse_misses_only_cancelling_or_marginal_sum_bound_plants(l0, l1, q, rel):
    # The operand-magnitude bound is no smaller than the sum-magnitude one, so
    # it cannot catch every plant that one catches.  What it gives up: plants
    # in the boost steps (+-1, 0), where I3^L and I3^R (and I3t^L, I3t^R)
    # cancel in the sums, so the old bound left their stored rounding
    # uncovered; and diagonal plants the old record caught by less than 2x.
    cs = chiral_for(l0, l1, q, extra=8)
    assert by_id(check_reduction_identities(cs), "eq28.inverse").passed
    assert sum_bound_inverse_ratio(cs) <= TIER1_TOL
    caught = old = 0
    for step, planted in entry_plants(cs, rel):
        new_caught = not by_id(check_reduction_identities(planted), "eq28.inverse").passed
        old_ratio = sum_bound_inverse_ratio(planted)
        if old_ratio > TIER1_TOL and not new_caught:
            assert step in ((-1, 0), (1, 0)) or old_ratio < 2 * TIER1_TOL, (step, old_ratio)
        caught, old = caught + new_caught, old + (old_ratio > TIER1_TOL)
    assert caught > 0 and old > 0


def test_reduction_inverse_passes_with_large_coefficients():
    # the boost parts of I3 and I3t reach about 1e11 here and cancel in the
    # sums; their rounding is covered only by the operand magnitudes
    for q, j_max in ((3.0, "1"), (3.0, "4"), (3.0, "11"), (0.1, "11")):
        cs = build_chiral(build_generator_set(lab("1", 50 + 50j, q), HalfInt.parse(j_max)))
        assert sum_bound_inverse_ratio(cs) > 1e4 * TIER1_TOL
        r = by_id(check_reduction_identities(cs), "eq28.inverse")
        assert r.passed and r.residual <= 1e-7 * 2.0**-53 * r.scale


# ---------------------------------------------------------------- adjoint


def test_chiral_adjoint_principal_exact():
    rep = check_chiral_adjoint(build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("5")))
    assert rep.tier1_pass
    for r in rep.residuals:
        assert r.residual <= 1e-11 * r.scale, r.relation_id


def test_chiral_adjoint_spinor_diagonal_pairs_exact():
    rep = check_chiral_adjoint(build_generator_set(lab("1/2", 1.5, 1.3), HalfInt(1)))
    for rid in ("eq29.diag_I3_L", "eq29.diag_I3t_L", "eq29.diag_I3_R", "eq29.diag_I3t_R"):
        assert by_id(rep, rid).residual < 1e-13, rid
    # ladder pairs across q -> 1/q are exact too on the spinor pair
    assert rep.all_pass


def test_chiral_adjoint_classical_limit():
    rep = check_chiral_adjoint(build_generator_set(lab("0", 2.7j, 1 + 1e-6), HalfInt.parse("4")))
    for r in rep.residuals:
        assert r.residual <= 1e-4 * r.scale


def test_chiral_adjoint_general_finite_measured():
    rep = check_chiral_adjoint(build_generator_set(lab("0", 2.0, 1.3), HalfInt(0)))
    assert all(r.tier == 2 for r in rep.residuals)


# ---------------------------------------------------------------- spinor annihilation


@pytest.mark.parametrize("q", [0.7, 1.3, 1 + 1e-6])
def test_spinor_annihilation(q):
    rep = check_spinor_annihilation(Deformation(q))
    assert rep.all_pass
    assert by_id(rep, "eq30.right_on_tau").residual < 1e-12
    assert by_id(rep, "eq30.left_on_tau_tilde").residual < 1e-12


def test_spinor_labels():
    tau, tau_tilde = spinor_labels(Deformation(1.3))
    assert (tau.l1, tau_tilde.l1) == (1.5 + 0j, -1.5 + 0j)
    assert tau.l0 == HalfInt(1)


# ---------------------------------------------------------------- coproduct


def tau_chiral(q, conv=RESOLVED_CONVENTION):
    tau, tau_tilde = spinor_labels(Deformation(q))
    a = build_chiral(build_generator_set(tau, tau.l0, conv))
    b = build_chiral(build_generator_set(tau_tilde, tau_tilde.l0, conv))
    return a, b


def test_coproduct_grouplike_exact():
    a, _ = tau_chiral(1.3)
    dc = coproduct(a, a, RESOLVED_CONVENTION)
    rep = check_coproduct_homomorphism(dc)
    for name in ("T3_L", "T3_L_tilde", "T3_R", "T3_R_tilde"):
        assert by_id(rep, f"eq32.grouplike.{name}").residual == 0.0
    np.testing.assert_array_equal(dc.T3_L.toarray(), tensor_embed(a.T3_L, a.T3_L).toarray())


@pytest.mark.parametrize("conv", [RESOLVED_CONVENTION, ConventionId()])
def test_spinor_sets_and_their_coproducts_store_only_live_steps(conv):
    # on one spin block the j+-1 boost steps reach no row: the generators
    # leave them out, and so do the step pairs of every coproduct image
    a, b = tau_chiral(1.3, conv)
    sets = [a, b] + [coproduct(x, y, conv) for x, y in ((a, a), (a, b), (b, a))]
    for cs in sets:
        for name in CHIRAL_FIELDS:
            op = getattr(cs, name)
            assert (op.basis._row_stack(op.steps) >= 0).any(axis=1).all(), (cs.tag, name)
    assert a.I_plus_L.steps == ((0, 1),)


def test_coproduct_homomorphism_on_spinor_square():
    for q in (1.3, 1 + 1e-6):
        a, _ = tau_chiral(q)
        rep = check_coproduct_homomorphism(coproduct(a, a, RESOLVED_CONVENTION))
        for r in rep.residuals:
            if r.relation_id.startswith("eq32.hom"):
                assert r.residual <= 1e-4 * r.scale, (q, r.relation_id)
        assert rep.tier1_pass


def test_coproduct_weight_lines_exact_at_generic_q():
    a, _ = tau_chiral(1.3)
    rep = check_coproduct_homomorphism(coproduct(a, a, RESOLVED_CONVENTION))
    for rid in ("eq32.hom.L2", "eq32.hom.L3", "eq32.hom.L4", "eq32.hom.L5"):
        assert by_id(rep, rid).residual <= 1e-10 * by_id(rep, rid).scale


def test_coproduct_grouplike_choice_resolved_on_mixed_product():
    # on the mixed spinor product the printed reading fails and the
    # mirror reading closes exactly
    a, b = tau_chiral(1.3)
    bad = check_chiral_relations(coproduct(a, b, ConventionId(cop_r_grouplike=0)))
    good = check_chiral_relations(coproduct(a, b, ConventionId(cop_r_grouplike=1)))
    worst_bad = max(r.residual / r.scale for r in bad.residuals)
    worst_good = max(r.residual / r.scale for r in good.residuals)
    assert worst_good < 1e-12
    assert worst_bad > 1e-3


def test_coproduct_noncocommutative_witness():
    # the spinor tau, the spin-1 realization (dim 3) and the unequal spins
    # (4, 5) x (0, 2.7i) at l0 + 2 (dim 9 each); the witness equals the one of
    # the factor swap as an explicit permutation matrix
    tau = tau_chiral(1.3)[0]
    spin1 = build_chiral(build_from_suq2(2, Deformation(1.3)))
    fin, pri = (
        build_chiral(build_generator_set(x, x.l0 + 2, RESOLVED_CONVENTION))
        for x in (lab("4", 5, 1.3), lab("0", 2.7j, 1.3))
    )
    for a, b in ((tau, tau), (spin1, spin1), (fin, pri)):
        dc = coproduct(a, b, RESOLVED_CONVENTION)
        rec = by_id(check_coproduct_homomorphism(dc), "eq32.noncocommutative")
        assert rec.residual == 0.0  # witness present
        n = a.dim
        p = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                p[j * n + i, i * n + j] = 1.0
        img = dc.I_plus_L.toarray()
        assert f"witness {float(np.max(np.abs(img - p @ img @ p))):.6g}," in rec.note


def _entry_list_witness(x: OperatorMatrix, n: int) -> float:
    # the former computation: each sorted nonzero entry against its partner
    # under the factor swap, looked up by searchsorted (0 if it has none)
    rows, cols, vals = x.entries()
    keys = rows * x.dim + cols
    swapped = ((rows % n) * n + rows // n) * x.dim + (cols % n) * n + cols // n
    pos = np.minimum(np.searchsorted(keys, swapped), len(keys) - 1)
    partner = np.where(keys[pos] == swapped, vals[pos], 0)
    return float(np.max(np.abs(vals - partner), initial=0.0))


def test_swap_witness_equals_the_entry_list_reference_bitwise():
    # same factors, mixed factors on one grid, factors whose grids differ only
    # in truncation or in their spins (stored again by entry), and at q < 1
    from qlorentz.chiral import _swap_witness

    def chiral(l0, l1, q):
        label = lab(l0, l1, q)
        return build_chiral(build_generator_set(label, label.l0 + 2, RESOLVED_CONVENTION))

    tau, tau_t = tau_chiral(1.3)
    pairs = [
        (tau, tau),
        (tau, tau_t),
        (chiral("1", 2.7j, 1.3),) * 2,
        (chiral("1", 2.7j, 0.7), chiral("1", 1 - 0.5j, 0.7)),
        (chiral("1/2", 1.5, 1.3), chiral("1/2", -1.5, 1.3)),
        (chiral("0", 3, 1.3), chiral("0", 2.7j, 1.3)),
        (chiral("4", 5, 1.3), chiral("0", 2.7j, 1.3)),
    ]
    for a, b in pairs:
        for conv in (DEFAULT_CONVENTION, RESOLVED_CONVENTION):
            x = coproduct(a, b, conv).I_plus_L
            want = _entry_list_witness(x, a.dim)
            assert want > 0 and _swap_witness(x).hex() == want.hex()


def test_swap_witness_of_a_swap_symmetric_operator_is_zero():
    # A x 1 + 1 x A is its own factor swap: the step-storage witness and the
    # reference both read 0, with both factors on one grid and with the
    # second on a grid of the same spins that only its truncation tells apart
    from qlorentz.chiral import _swap_witness

    a = chiral_for("0", 3, 1.3).I_plus_L  # spins 0..2, no truncation
    for grid in (a.basis, build_basis(lab("0", 2.7j, 1.3), HalfInt(4))):
        b = OperatorMatrix(grid, a.steps, a.data)
        one_a, one_b = (OperatorMatrix.diagonal(g, 1.0) for g in (a.basis, grid))
        x = tensor_embed(a, one_b) + tensor_embed(one_a, b)
        assert x.max_norm > 0 and _entry_list_witness(x, a.dim) == _swap_witness(x) == 0.0


@pytest.mark.parametrize("l1", [1.0, -1.0])
def test_coproduct_of_the_trivial_representation_passes(l1):
    # every generator of (0, +-1) is 0, so its coproduct is cocommutative: the
    # witness record is left out, as for factors of unequal dim
    trivial = build_chiral(build_generator_set(lab("0", l1, 1.3), conv=RESOLVED_CONVENTION))
    assert trivial.dim == 1
    for other in (trivial, tau_chiral(1.3)[0]):
        rep = check_coproduct_homomorphism(coproduct(trivial, other, RESOLVED_CONVENTION))
        assert rep.tier1_pass
        assert "eq32.noncocommutative" not in {r.relation_id for r in rep.residuals}


def test_coproduct_deformation_mismatch_rejected():
    a, _ = tau_chiral(1.3)
    c, _ = tau_chiral(0.7)
    with pytest.raises(ValueError):
        coproduct(a, c)


def test_coproduct_requires_factors_for_homomorphism_check():
    a, _ = tau_chiral(1.3)
    with pytest.raises(ValueError):
        check_coproduct_homomorphism(a)


def test_degenerate_identity_only_set_is_trivial():
    # a set whose chiral families all vanish (shifted generators = 2) makes
    # every homomorphism relation 0 = 0
    from qlorentz.chiral import ChiralSet
    from qlorentz.matrep import Basis, OperatorMatrix

    d = Deformation(1.3)
    spinor = Basis(spins=(HalfInt(1),))
    z = OperatorMatrix.diagonal(spinor, 0.0)
    two = OperatorMatrix.diagonal(spinor, 2.0)
    degenerate = ChiralSet(
        d=d,
        I_plus_L=z, I_minus_L=z, I3_L=z, I3_L_tilde=z,
        I_plus_R=z, I_minus_R=z, I3_R=z, I3_R_tilde=z,
        T3_L=two, T3_L_tilde=two, T3_R=two, T3_R_tilde=two,
        tag="degenerate", tier1=True,
    )
    dc = coproduct(degenerate, degenerate)
    rep = check_coproduct_homomorphism(dc)
    hom = [r for r in rep.residuals if r.relation_id.startswith("eq32.hom")]
    assert all(r.passed for r in hom)


# ---------------------------------------------------------------- fields made on first read


def eager_chiral(gens):
    """Every chiral generator by the closed formulas, all given to the
    constructor: the reference for the fields a built set makes on first read."""
    d, b = gens.d, gens.basis
    mdn = diag_from_m(b, lambda m: q_number(m, d) * math.pow(d.q, -float(m) / 2))
    mup = diag_from_m(b, lambda m: q_number(m, d) * math.pow(d.q, float(m) / 2))
    two = OperatorMatrix.diagonal(b, 2.0)
    i3l, i3r = mdn + 1j * gens.n3, mdn - 1j * gens.n3
    i3tl, i3tr = mup + 1j * gens.n3_tilde, mup - 1j * gens.n3_tilde
    return ChiralSet(
        d=d,
        I_plus_L=gens.m_plus + 1j * gens.n_plus, I_minus_L=gens.m_minus + 1j * gens.n_minus,
        I3_L=i3l, I3_L_tilde=i3tl,
        I_plus_R=gens.m_plus - 1j * gens.n_plus, I_minus_R=gens.m_minus - 1j * gens.n_minus,
        I3_R=i3r, I3_R_tilde=i3tr,
        T3_L=two - d.delta * i3l, T3_L_tilde=two + d.delta * i3tl,
        T3_R=two - d.delta * i3r, T3_R_tilde=two + d.delta * i3tr,
        tag=gens.tag, convention=gens.convention, basis=b, tier1=len(b.spins) == 1,
    )


def assert_same_bits(a, b):
    # uint64 views: the same steps and every value bit, signed zeros included
    for name in CHIRAL_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.steps == y.steps, name
        assert np.array_equal(x.data.view(np.uint64), y.data.view(np.uint64)), name


# one label of each class and the spin-1 realization
MADE_SOURCES = [("0", 2.7j), ("0", 0.5), ("1", 1 - 0.5j), ("1/2", 3.5), "spin 2"]


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
@pytest.mark.parametrize("source", MADE_SOURCES, ids=str)
def test_fields_made_on_first_read_equal_the_eager_formulas_bitwise(source, q):
    if source == "spin 2":
        gens = build_from_suq2(2, Deformation(q))
    else:
        label = lab(*source, q)
        gens = build_generator_set(label, label.l0 + 3, RESOLVED_CONVENTION)
    made = build_chiral(gens)
    # read the T3 fields first: each makes its I3 field on the way
    for name in CHIRAL_FIELDS[::-1]:
        getattr(made, name)
    assert_same_bits(made, eager_chiral(gens))
    assert made.dim == gens.basis.dim and made.tier1 == (len(gens.basis.spins) == 1)
    if source != "spin 2":  # the 1/q sibling on the same basis reads its own diagonals
        inv = build_generator_set(RepLabel(label.l0, label.l1, label.d.inverse()), label.l0 + 3, gens.convention, gens.basis)
        assert_same_bits(build_chiral(inv), eager_chiral(inv))


@pytest.mark.parametrize("q", [0.1, 1.3, 10.0])
@pytest.mark.parametrize("pair", ["(1, 2.7i) twice", "spinors"])
def test_coproduct_of_made_sets_equals_that_of_eager_sets_bitwise(pair, q):
    labels = [lab("1", 2.7j, q)] * 2 if pair != "spinors" else list(spinor_labels(Deformation(q)))
    gens = [build_generator_set(x, x.l0 + 2, RESOLVED_CONVENTION) for x in labels]
    made = coproduct(*(build_chiral(g) for g in gens), RESOLVED_CONVENTION)
    assert_same_bits(made, coproduct(*(eager_chiral(g) for g in gens), RESOLVED_CONVENTION))


def test_a_chiral_set_needs_its_generators_or_all_twelve_fields():
    tau = build_generator_set(spinor_labels(Deformation(1.3))[0])
    given = {name: getattr(build_chiral(tau), name) for name in CHIRAL_FIELDS}
    assert ChiralSet(d=tau.d, **given).I3_L is given["I3_L"]
    with pytest.raises(TypeError):
        ChiralSet(d=tau.d, **{**given, "T3_R": None})


def test_a_label_chiral_op_makes_only_what_its_records_read(monkeypatch, tmp_path):
    # the label's set makes its eight I fields and no T3; the 1/q partner only
    # the raising/lowering fields eq29 compares, the same-q partner only the
    # diagonal ones, whose [m] q^(-+m/2) values it takes from the label's basis
    import qlorentz.chiral as chiral
    from qlorentz.cli import main

    sets, made, diagonals = [], [], []
    real_build, real_make, real_diag = chiral.build_chiral, chiral.ChiralSet._make, chiral.diag_from_m

    def build(gens):
        sets.append(real_build(gens))
        return sets[-1]

    def make(cs, name):
        made.append((next(i for i, x in enumerate(sets) if x is cs), name))
        return real_make(cs, name)

    def diag(*a):
        diagonals.append(a)
        return real_diag(*a)

    monkeypatch.setattr(chiral, "build_chiral", build)
    monkeypatch.setattr(chiral.ChiralSet, "_make", make)
    monkeypatch.setattr(chiral, "diag_from_m", diag)
    assert main(["chiral", "--l0", "1", "--l1", "0.3+1.2i", "--q", "1.3", "--output", str(tmp_path / "c.json")]) == 0
    assert len(made) == len(set(made))  # each field made once
    by_set = [{name for k, name in made if k == i} for i in range(len(sets))]
    raising = {"I_plus_L", "I_minus_L", "I_plus_R", "I_minus_R"}
    diagonal = {"I3_L", "I3_L_tilde", "I3_R", "I3_R_tilde"}
    assert by_set == [raising | diagonal, raising, diagonal]
    assert [set(cs._parts) for cs in sets] == [
        {"n_plus", "n_minus", "n3", "n3_tilde"}, {"n_plus", "n_minus"}, {"n3", "n3_tilde"}
    ]
    assert len(diagonals) == 2
