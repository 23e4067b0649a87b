"""Chiral decomposition, its algebra, the q-adjoint, and the coproduct.

The left/right chiral generators combine rotations and boosts,

    I+-^L = M+- + i N+-          I+-^R = M+- - i N+-
    I3^L/R  = [M3] q^(-M3/2) +- i N3
    I3t^L/R = [M3] q^(+M3/2) +- i N3t

and the shifted diagonal generators T3 = 2 - delta*I3, T3t = 2 + delta*I3t
are grouplike under the coproduct.  On a single-block representation one
whole chirality vanishes identically (which of the two is decided by the
sign of l1; the measured assignment is recorded, not hard-coded).

The chiral algebra closes exactly on single-block representations; on
general multi-block representations it is a measured tier-2 statement with
a classical-limit gate.  The two reduction identities relating the diagonal
generators are exact on every generator-built set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qarith import Deformation, HalfInt, q_number
from .repcore import RepLabel, classify, conjugate_partner
from .matrep import (
    Basis,
    ConventionId,
    DEFAULT_CONVENTION,
    GeneratorSet,
    OperatorMatrix,
    build_generator_set,
    diag_from_m,
    tensor_embed,
)
from .verify import (
    RelationResidual,
    Tolerances,
    VerificationReport,
    _pair_scale,
)

__all__ = [
    "ChiralSet",
    "build_chiral",
    "check_chiral_relations",
    "check_reduction_identities",
    "check_chiral_adjoint",
    "check_spinor_annihilation",
    "coproduct",
    "check_coproduct_homomorphism",
    "spinor_labels",
]

_SPINOR_ANNIHILATION_TOL = 1e-12
_WITNESS_THRESHOLD = 1e-3


@dataclass(frozen=True)
class ChiralSet:
    """The twelve chiral matrices plus bookkeeping.

    basis is None for tensor-product sets: their matrices live on the
    `ProductBasis` of the factors, which has no truncation mask.  tier1 marks
    sets on which the chiral algebra is analytically exact (single-block
    sources and their identical-factor products).  convention is the reading
    the source set was built with; on a coproduct set, the coproduct's.
    """

    d: Deformation
    I_plus_L: OperatorMatrix
    I_minus_L: OperatorMatrix
    I3_L: OperatorMatrix
    I3_L_tilde: OperatorMatrix
    I_plus_R: OperatorMatrix
    I_minus_R: OperatorMatrix
    I3_R: OperatorMatrix
    I3_R_tilde: OperatorMatrix
    T3_L: OperatorMatrix
    T3_L_tilde: OperatorMatrix
    T3_R: OperatorMatrix
    T3_R_tilde: OperatorMatrix
    tag: str = "chiral"
    convention: ConventionId = DEFAULT_CONVENTION
    basis: Optional[Basis] = None
    tier1: bool = False
    factors: Optional[tuple["ChiralSet", "ChiralSet"]] = None

    @property
    def dim(self) -> int:
        return self.I_plus_L.dim

    def triple(self, side: str) -> dict[str, OperatorMatrix]:
        if side == "L":
            return {
                "I_plus": self.I_plus_L,
                "I_minus": self.I_minus_L,
                "I3": self.I3_L,
                "I3_tilde": self.I3_L_tilde,
            }
        return {
            "I_plus": self.I_plus_R,
            "I_minus": self.I_minus_R,
            "I3": self.I3_R,
            "I3_tilde": self.I3_R_tilde,
        }

    def _mask(self, order: int) -> np.ndarray:
        if self.basis is None:
            return np.ones(self.dim, dtype=bool)
        return self.basis.interior_columns(order)

    def _cols(self) -> str:
        if self.basis is not None and self.basis.truncated:
            return "interior (quadratic)"
        return "all columns"


def build_chiral(gens: GeneratorSet) -> ChiralSet:
    """Chiral generators from a built generator set; diagonals spectrally."""
    d = gens.d
    b = gens.basis
    mdn = diag_from_m(b, lambda m: q_number(m, d) * math.pow(d.q, -float(m) / 2))
    mup = diag_from_m(b, lambda m: q_number(m, d) * math.pow(d.q, float(m) / 2))
    two = OperatorMatrix.diagonal(b, 2.0)
    delta = d.delta

    i3l = mdn + 1j * gens.n3
    i3r = mdn - 1j * gens.n3
    i3tl = mup + 1j * gens.n3_tilde
    i3tr = mup - 1j * gens.n3_tilde

    return ChiralSet(
        d=d,
        I_plus_L=gens.m_plus + 1j * gens.n_plus,
        I_minus_L=gens.m_minus + 1j * gens.n_minus,
        I3_L=i3l,
        I3_L_tilde=i3tl,
        I_plus_R=gens.m_plus - 1j * gens.n_plus,
        I_minus_R=gens.m_minus - 1j * gens.n_minus,
        I3_R=i3r,
        I3_R_tilde=i3tr,
        T3_L=two - delta * i3l,
        T3_L_tilde=two + delta * i3tl,
        T3_R=two - delta * i3r,
        T3_R_tilde=two + delta * i3tr,
        tag=gens.tag,
        convention=gens.convention,
        basis=b,
        tier1=len(b.spins) == 1,
    )


def check_chiral_relations(
    cs: ChiralSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """The ten chiral relation lines plus the left-right commutativity block."""
    q = cs.d.q
    rq = math.sqrt(q)
    mask = cs._mask(2)
    cols = cs._cols()
    tier = 1 if cs.tier1 else 2
    tol = tols.of(tier)

    rep = VerificationReport(
        suite="chiral_relations",
        subject={"tag": cs.tag, "dim": cs.dim},
        convention=cs.convention,
        environment={"q": q, "tier1_tol": tols.tier1, "tier2_tol": tols.tier2},
    )
    for side in ("L", "R"):
        t = cs.triple(side)
        ip, im, i3, i3t = t["I_plus"], t["I_minus"], t["I3"], t["I3_tilde"]
        rows = [
            (f"eq27.{side}1", ip @ im - im @ ip - 2.0 * (i3 + i3t), t["I_plus"], t["I_minus"]),
            (f"eq27.{side}2", i3 @ ip * rq - ip @ i3 / rq - 2.0 * ip, t["I3"], t["I_plus"]),
            (f"eq27.{side}3", i3t @ im * rq - im @ i3t / rq + 2.0 * im, t["I3_tilde"], t["I_minus"]),
            (f"eq27.{side}4", i3t @ ip / rq - rq * ip @ i3t - 2.0 * ip, t["I3_tilde"], t["I_plus"]),
            (f"eq27.{side}5", i3 @ im / rq - rq * im @ i3 + 2.0 * im, t["I3"], t["I_minus"]),
        ]
        for rid, diff, a, b in rows:
            rep.add(
                RelationResidual(rid, diff.masked_max(mask), _pair_scale(a, b), tol, tier, cols)
            )

    left = cs.triple("L")
    right = cs.triple("R")
    worst, wscale = 0.0, 1.0
    for a in left.values():
        for b in right.values():
            r = (a @ b - b @ a).masked_max(mask)
            s = _pair_scale(a, b)
            if r / s > worst / wscale:
                worst, wscale = r, s
    rep.add(
        RelationResidual(
            "eq27.cross_LR", worst, wscale, tol, tier, cols, "worst pair of the 16"
        )
    )
    return rep


def check_reduction_identities(
    cs: ChiralSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """The two identities eliminating the redundant diagonal generators:

        1 + alpha(I3t^L + I3t^R) = (1 - alpha I3^L - alpha I3^R)^(-1)
        I3t^L - I3t^R = (1 + alpha(I3t^L + I3t^R)) (I3^L - I3^R)

    Both reduce spectrally to q^(+-M3) statements and hold exactly on any
    generator-built set (the boost parts cancel in the sums).  A singular
    inversion is reported as a degenerate-input failure, not raised.
    """
    a = cs.d.alpha
    eye = OperatorMatrix.diagonal(cs.I3_L.basis, 1.0)
    lhs1 = eye + a * (cs.I3_L_tilde + cs.I3_R_tilde)
    # cond and inv need the dense matrix; the chiral suites run at small dims
    base = (eye - a * cs.I3_L - a * cs.I3_R).toarray()
    tier = 1 if cs.factors is None else 2
    tol = tols.of(tier)

    rep = VerificationReport(
        suite="reduction_identities",
        subject={"tag": cs.tag, "dim": cs.dim},
        convention=cs.convention,
        environment={"q": cs.d.q, "tier1_tol": tols.tier1},
    )
    cond = float(np.linalg.cond(base))
    if not math.isfinite(cond) or cond > 1e14:
        rep.add(
            RelationResidual(
                "eq28.inverse", 1.0, 1.0, 0.0, tier, "all entries",
                f"degenerate input: condition number {cond:.3e}",
            )
        )
        return rep
    inv = np.linalg.inv(base)
    rep.add(
        RelationResidual(
            "eq28.inverse",
            float(np.max(np.abs(lhs1.toarray() - inv))),
            max(1.0, float(np.max(np.abs(inv)))),
            tol,
            tier,
            "all entries",
            f"condition number {cond:.6g}",
        )
    )
    d3 = cs.I3_L - cs.I3_R
    d3t = cs.I3_L_tilde - cs.I3_R_tilde
    rep.add(
        RelationResidual(
            "eq28.difference",
            (d3t - lhs1 @ d3).max_norm,
            max(1.0, lhs1.max_norm) * max(1.0, d3.max_norm),
            tol,
            tier,
            "all entries",
        )
    )
    return rep


def check_chiral_adjoint(gens: GeneratorSet, tols: Tolerances = Tolerances()) -> VerificationReport:
    """Adjoint involution on the chiral generators of a built set.

    The involution maps a representation to its conjugate partner
    (l0, -conj(l1)): principal-series labels are self-partnered, the two
    spinor representations exchange.  Raising/lowering pairs compare the
    dagger at q against the partner at 1/q; diagonal pairs against the
    partner at the same q.  Exact for unitary-series labels and for
    single-block representations; measured (tier 2) otherwise.
    """
    label, j_max, conv = gens.label, gens.basis.j_max, gens.convention
    partner = conjugate_partner(label)
    gp_inv = build_generator_set(
        RepLabel(partner.l0, partner.l1, label.d.inverse()), j_max, conv
    )
    gp_same = build_generator_set(partner, j_max, conv)
    cs = build_chiral(gens)
    cp_inv = build_chiral(gp_inv)
    cp_same = build_chiral(gp_same)

    cls = classify(label)
    exact = cls.unitary != "non_unitary" or len(gens.basis.spins) == 1
    tier = 1 if exact else 2
    tol = tols.of(tier)

    rep = VerificationReport(
        suite="chiral_adjoint",
        subject={
            "label": label.to_record(),
            "partner": partner.to_record(),
            "dim": gens.basis.dim,
        },
        convention=conv,
        environment={
            "q": label.d.q,
            "j_max": str(j_max) if j_max is not None else None,
            "tier1_tol": tols.tier1,
        },
    )

    pairs = [
        ("eq29.plus_L", cs.I_plus_L, cp_inv.I_minus_R),
        ("eq29.minus_L", cs.I_minus_L, cp_inv.I_plus_R),
        ("eq29.plus_R", cs.I_plus_R, cp_inv.I_minus_L),
        ("eq29.minus_R", cs.I_minus_R, cp_inv.I_plus_L),
        ("eq29.diag_I3_L", cs.I3_L, cp_same.I3_R),
        ("eq29.diag_I3t_L", cs.I3_L_tilde, cp_same.I3_R_tilde),
        ("eq29.diag_I3_R", cs.I3_R, cp_same.I3_L),
        ("eq29.diag_I3t_R", cs.I3_R_tilde, cp_same.I3_L_tilde),
    ]
    for rid, op, rhs in pairs:
        rep.add(
            RelationResidual(
                rid,
                (op.dagger() - rhs).max_norm,
                max(1.0, rhs.max_norm),
                tol,
                tier,
                "all entries",
                "elementwise",
            )
        )
    return rep


def spinor_labels(d: Deformation) -> tuple[RepLabel, RepLabel]:
    """The two 2-dimensional representations: (1/2, +3/2) and (1/2, -3/2)."""
    half = HalfInt(1)
    return RepLabel(half, 1.5, d), RepLabel(half, -1.5, d)


def check_spinor_annihilation(d: Deformation) -> VerificationReport:
    """One full chirality vanishes on each 2-dimensional representation.

    Builds both spinor representations, measures the norm of each chirality
    family (raising, lowering, both diagonals), asserts the dead/alive split
    and records which sign of l1 kills which side.
    """
    tau, tau_tilde = spinor_labels(d)
    cs = build_chiral(build_generator_set(tau, tau.l0))
    cst = build_chiral(build_generator_set(tau_tilde, tau_tilde.l0))

    def family_norm(c: ChiralSet, side: str) -> float:
        return max(op.max_norm for op in c.triple(side).values())

    dead_r_tau = family_norm(cs, "R")
    dead_l_tt = family_norm(cst, "L")
    alive_l_tau = family_norm(cs, "L")
    alive_r_tt = family_norm(cst, "R")

    rep = VerificationReport(
        suite="spinor_annihilation",
        subject={
            "tau": tau.to_record(),
            "tau_tilde": tau_tilde.to_record(),
            "assignment": "l1=+3/2 kills the right chirality; l1=-3/2 the left",
        },
        convention=DEFAULT_CONVENTION,
        environment={"q": d.q, "tol": _SPINOR_ANNIHILATION_TOL},
    )
    rep.add(
        RelationResidual(
            "eq30.right_on_tau", dead_r_tau, 1.0, _SPINOR_ANNIHILATION_TOL, 1, "all entries"
        )
    )
    rep.add(
        RelationResidual(
            "eq30.left_on_tau_tilde", dead_l_tt, 1.0, _SPINOR_ANNIHILATION_TOL, 1, "all entries"
        )
    )
    rep.add(
        RelationResidual(
            "eq30.opposite_alive",
            0.0 if (alive_l_tau > 1e-6 and alive_r_tt > 1e-6) else 1.0,
            1.0,
            0.5,
            1,
            "summary",
            f"alive norms {alive_l_tau:.6g} (tau L), {alive_r_tt:.6g} (tau~ R)",
        )
    )
    return rep


# --------------------------------------------------------------------------
# coproduct


def _same_set(a: ChiralSet, b: ChiralSet) -> bool:
    """True when the eight chiral generators of a and b are equal entrywise."""
    if a is b:
        return True
    pairs = [
        (getattr(a, f), getattr(b, f))
        for f in ("I_plus_L", "I_minus_L", "I3_L", "I3_L_tilde", "I_plus_R", "I_minus_R", "I3_R", "I3_R_tilde")
    ]
    return all(x.basis == y.basis for x, y in pairs) and not any((x - y).max_norm for x, y in pairs)


def coproduct(
    cs_a: ChiralSet, cs_b: ChiralSet, conv: ConventionId = DEFAULT_CONVENTION
) -> ChiralSet:
    """Coproduct images on the tensor-product space (the `ProductBasis` of
    the factor bases, built with `tensor_embed`).

    Raising/lowering generators follow the twisted rule with the grouplike
    shifted generators as dressing; the shifted generators themselves are
    grouplike by construction, and the diagonal generators are recovered by
    inverting the shift:  D(I3) = (2*1 - D(T3))/delta, D(I3t) = (D(T3t) - 2*1)/delta.

    The dressing of the lowering right-chiral generator is catalogued
    (conv.cop_r_grouplike): the printed left grouplike, or the mirror-form
    right one under which the homomorphism closes on mixed products.
    """
    if cs_a.d != cs_b.d:
        raise ValueError(f"deformation mismatch: {cs_a.d} vs {cs_b.d}")
    d = cs_a.d
    delta = d.delta
    ia = OperatorMatrix.diagonal(cs_a.I_plus_L.basis, 1.0)
    ib = OperatorMatrix.diagonal(cs_b.I_plus_L.basis, 1.0)
    kron = tensor_embed

    x_dressing = cs_a.T3_R if conv.cop_r_grouplike else cs_a.T3_L

    t3l = kron(cs_a.T3_L, cs_b.T3_L)
    t3tl = kron(cs_a.T3_L_tilde, cs_b.T3_L_tilde)
    t3r = kron(cs_a.T3_R, cs_b.T3_R)
    t3tr = kron(cs_a.T3_R_tilde, cs_b.T3_R_tilde)
    two = OperatorMatrix.diagonal(t3l.basis, 2.0)

    return ChiralSet(
        d=d,
        I_plus_L=kron(cs_a.I_plus_L, ib) + kron(cs_a.T3_L, cs_b.I_plus_L),
        I_minus_L=kron(cs_a.I_minus_L, cs_b.T3_L_tilde) + kron(ia, cs_b.I_minus_L),
        I_plus_R=kron(cs_a.I_plus_R, cs_b.T3_R_tilde) + kron(ia, cs_b.I_plus_R),
        I_minus_R=kron(cs_a.I_minus_R, ib) + kron(x_dressing, cs_b.I_minus_R),
        I3_L=(two - t3l) / delta,
        I3_L_tilde=(t3tl - two) / delta,
        I3_R=(two - t3r) / delta,
        I3_R_tilde=(t3tr - two) / delta,
        T3_L=t3l,
        T3_L_tilde=t3tl,
        T3_R=t3r,
        T3_R_tilde=t3tr,
        tag=f"coproduct({cs_a.tag}, {cs_b.tag})",
        convention=conv,
        basis=None,
        tier1=cs_a.tier1 and cs_b.tier1 and _same_set(cs_a, cs_b),
        factors=(cs_a, cs_b),
    )


def check_coproduct_homomorphism(
    dcs: ChiralSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """Verify the coproduct respects the chiral algebra and is not cocommutative.

    Runs the full chiral relation suite on the coproduct images, re-asserts
    the grouplike property of the shifted generators against the stored
    factors (exact by construction), and checks that swapping the tensor
    factors changes the raising left image by more than 1e-3 * scale.
    """
    if dcs.factors is None:
        raise ValueError("not a coproduct set")
    cs_a, cs_b = dcs.factors
    rep = VerificationReport(
        suite="coproduct_homomorphism",
        subject={"tag": dcs.tag, "dim": dcs.dim},
        convention=dcs.convention,
        environment={"q": dcs.d.q, "tier1_tol": tols.tier1, "tier2_tol": tols.tier2},
    )
    inner = check_chiral_relations(dcs, tols)
    for rr in inner.residuals:
        rep.add(
            RelationResidual(
                "eq32.hom." + rr.relation_id.removeprefix("eq27."),
                rr.residual,
                rr.scale,
                rr.tolerance,
                rr.tier,
                rr.columns,
                rr.note,
            )
        )
    for name, da, fa in (
        ("T3_L", dcs.T3_L, cs_a.T3_L),
        ("T3_L_tilde", dcs.T3_L_tilde, cs_a.T3_L_tilde),
        ("T3_R", dcs.T3_R, cs_a.T3_R),
        ("T3_R_tilde", dcs.T3_R_tilde, cs_a.T3_R_tilde),
    ):
        fb = getattr(cs_b, name)
        rep.add(
            RelationResidual(
                f"eq32.grouplike.{name}",
                (da - tensor_embed(fa, fb)).max_norm,
                1.0,
                0.0,
                1,
                "all entries",
                "exact by construction",
            )
        )
    if cs_a.dim == cs_b.dim:
        n = cs_a.dim
        img = dcs.I_plus_L.toarray()
        # the factor swap |a>|b> -> |b>|a> on both sides: exact, no products
        swapped = img.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
        witness = float(np.max(np.abs(img - swapped)))
        scale = max(1.0, dcs.I_plus_L.max_norm)
        rep.add(
            RelationResidual(
                "eq32.noncocommutative",
                0.0 if witness > _WITNESS_THRESHOLD * scale else 1.0,
                1.0,
                0.5,
                1,
                "all entries",
                f"cocommutator witness {witness:.6g}, scale {scale:.6g}",
            )
        )
    return rep
