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

import itertools
import math
from dataclasses import dataclass, field, fields, replace
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
    ProductBasis,
    build_generator_set,
    diag_from_m,
    tensor_embed,
)
from .verify import RelationResidual, Tolerances, VerificationReport, _rows, _worst_ratio

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


class _Made:
    """A `ChiralSet` field that a set built from generators makes on first
    read (`ChiralSet._make`); a field given to the constructor is kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, cs, owner=None):
        if cs is None:
            return None  # the dataclass default: made on first read
        val = cs.__dict__[self.name]
        if val is None:
            val = cs.__dict__[self.name] = cs._make(self.name)
        return val

    def __set__(self, cs, val):
        cs.__dict__[self.name] = val


# each chiral generator's rotation part (a generator, or the sign of the
# diagonal [m] q^(sign m/2)) and boost: I^L = rot + i*boost, I^R = rot - i*boost
_PARTS = {"I_plus": ("m_plus", "n_plus"), "I_minus": ("m_minus", "n_minus"), "I3": (-1, "n3"), "I3_tilde": (1, "n3_tilde")}


@dataclass(frozen=True)
class ChiralSet:
    """The twelve chiral matrices plus bookkeeping.

    A field not given (`build_chiral` gives none, a coproduct all twelve) is
    made from the generator set `_gens` on first read.  basis is None for
    tensor-product sets: their matrices live on the `ProductBasis` of the
    factors, which has no truncation mask.  tier1 marks sets on which the
    chiral algebra is analytically exact (single-block sources and their
    identical-factor products).  convention is the reading the source set
    was built with; on a coproduct set, the coproduct's.
    """

    d: Deformation
    I_plus_L: OperatorMatrix = _Made()
    I_minus_L: OperatorMatrix = _Made()
    I3_L: OperatorMatrix = _Made()
    I3_L_tilde: OperatorMatrix = _Made()
    I_plus_R: OperatorMatrix = _Made()
    I_minus_R: OperatorMatrix = _Made()
    I3_R: OperatorMatrix = _Made()
    I3_R_tilde: OperatorMatrix = _Made()
    T3_L: OperatorMatrix = _Made()
    T3_L_tilde: OperatorMatrix = _Made()
    T3_R: OperatorMatrix = _Made()
    T3_R_tilde: OperatorMatrix = _Made()
    tag: str = "chiral"
    convention: ConventionId = DEFAULT_CONVENTION
    basis: Optional[Basis] = None
    tier1: bool = False
    factors: Optional[tuple["ChiralSet", "ChiralSet"]] = None
    _gens: Optional[GeneratorSet] = field(default=None, repr=False, compare=False)
    _parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self._gens is None and None in (self.__dict__[f.name] for f in fields(self)[1:13]):
            raise TypeError("a ChiralSet needs all twelve chiral generators or the generator set to make them")

    def _make(self, name: str) -> OperatorMatrix:
        """One chiral generator from the generator set: T3 = 2 - delta I3 and
        T3~ = 2 + delta I3~, and I^L/R = rot +- i*boost, where each i*boost
        is made once for both sides and the [m] q^(-+m/2) diagonals once per
        (basis, q) (`_weight_diagonal`)."""
        if name.startswith("T3"):
            shift = self.d.delta * getattr(self, "I" + name[1:])
            two = OperatorMatrix.diagonal(self.basis, 2.0)
            return two + shift if name.endswith("tilde") else two - shift
        side = "L" if "_L" in name else "R"
        rot, boost = _PARTS[name.replace("_" + side, "")]
        gens, parts = self._gens, self._parts
        if boost not in parts:
            parts[boost] = 1j * getattr(gens, boost)
        rot = getattr(gens, rot) if isinstance(rot, str) else _weight_diagonal(gens.basis, self.d, rot)
        return rot + parts[boost] if side == "L" else rot - parts[boost]

    @property
    def dim(self) -> int:
        return self.I_plus_L.dim

    def triple(self, side: str) -> dict[str, OperatorMatrix]:
        """The four generators of one chirality ("L" or "R")."""
        names = {"I_plus": f"I_plus_{side}", "I_minus": f"I_minus_{side}", "I3": f"I3_{side}"}
        return {key: getattr(self, name) for key, name in {**names, "I3_tilde": f"I3_{side}_tilde"}.items()}

    def _mask(self, order: int) -> Optional[np.ndarray]:
        """Columns exact under truncation for an `order`-fold product; None
        (every column) on a product set."""
        return None if self.basis is None else self.basis.interior_columns(order)

    def _cols(self) -> str:
        if self.basis is not None and self.basis.truncated:
            return "interior (quadratic)"
        return "all columns"


def _weight_diagonal(b: Basis, d: Deformation, sign: int) -> OperatorMatrix:
    """The diagonal [m] q^(sign m/2) on b, its values kept in the basis's cache
    once per (basis, q): a label and its same-q partner share them."""
    key = ("weight", d, sign)
    vals = b._cached(key, lambda: diag_from_m(b, lambda m: q_number(m, d) * math.pow(d.q, sign * float(m) / 2)).data)
    return OperatorMatrix._result(b, (b.zero_step,), vals)


def build_chiral(gens: GeneratorSet) -> ChiralSet:
    """The chiral set of a built generator set; each chiral generator is made
    on first read (`ChiralSet._make`), diagonals spectrally."""
    b = gens.basis
    return ChiralSet(d=gens.d, tag=gens.tag, convention=gens.convention, basis=b, tier1=len(b.spins) == 1, _gens=gens)


def _triple_rows(t: dict[str, OperatorMatrix], rq: float, prefix: str):
    """The five relation rows (id, differences, operators) of the generators
    of one chirality, ids `prefix` + 1..5, for `_rows`, made one at a time."""
    ip, im, i3, i3t = t["I_plus"], t["I_minus"], t["I3"], t["I3_tilde"]
    yield prefix + "1", (ip @ im - im @ ip - 2.0 * (i3 + i3t),), ip, im
    yield prefix + "2", (i3 @ ip * rq - ip @ i3 / rq - 2.0 * ip,), i3, ip
    yield prefix + "3", (i3t @ im * rq - im @ i3t / rq + 2.0 * im,), i3t, im
    yield prefix + "4", (i3t @ ip / rq - rq * ip @ i3t - 2.0 * ip,), i3t, ip
    yield prefix + "5", (i3 @ im / rq - rq * im @ i3 + 2.0 * im,), i3, im


def check_chiral_relations(
    cs: ChiralSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """The ten chiral relation lines plus the left-right commutativity block."""
    q = cs.d.q
    rq = math.sqrt(q)
    cols = cs._cols()
    tier = 1 if cs.tier1 else 2
    tol = tols.of(tier)

    rep = VerificationReport(
        suite="chiral_relations",
        subject={"tag": cs.tag, "dim": cs.dim},
        convention=cs.convention,
        environment={"q": q, "tier1_tol": tols.tier1, "tier2_tol": tols.tier2},
    )
    left, right = cs.triple("L"), cs.triple("R")
    cross = (("cross", (a @ b - b @ a,), a, b) for a in left.values() for b in right.values())
    rows = itertools.chain(_triple_rows(left, rq, "eq27.L"), _triple_rows(right, rq, "eq27.R"), cross)
    ids, res, scales = _rows(rows, cs._mask(2))
    records = list(zip(ids, res[:, 0].tolist(), scales[:, 0].tolist()))
    for rid, residual, scale in records[:10]:
        rep.add(RelationResidual(rid, residual, scale, tol, tier, cols))
    worst, wscale = _worst_ratio((r, s) for _i, r, s in records[10:])
    rep.add(
        RelationResidual(
            "eq27.cross_LR", worst, wscale, tol, tier, cols, "worst pair of the 16"
        )
    )
    return rep


def _worst_entry(resid: OperatorMatrix, bound: OperatorMatrix) -> tuple[float, float]:
    """|R| and bound at the entry with the worst ratio |R|/bound; among equal
    ratios the largest bound, so an exact R reports 0 against its largest
    bound (or against 1 if every bound is 0, so no record has scale 0).  A
    zero bound under a nonzero residual is an infinite ratio.  R and its bound
    come from the same sequence of step operations, so their value rows line
    up."""
    if resid.steps != bound.steps:
        raise ValueError("residual and bound on different steps")
    r, b = np.abs(resid.data), bound.data.real
    ratio = np.divide(r, b, out=np.where(r > 0, np.inf, 0.0), where=b > 0)
    worst = np.lexsort((b.ravel(), ratio.ravel()))[-1]
    residual, scale = float(r.flat[worst]), float(b.flat[worst])
    return residual, 1.0 if residual == scale == 0.0 else scale


def check_reduction_identities(
    cs: ChiralSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """The two identities eliminating the redundant diagonal generators:

        (1 + alpha(I3t^L + I3t^R)) (1 - alpha I3^L - alpha I3^R) = 1
        I3t^L - I3t^R = (1 + alpha(I3t^L + I3t^R)) (I3^L - I3^R)

    Both reduce spectrally to q^(+-M3) statements and hold exactly on any
    generator-built set (the boost parts cancel in the sums).  Each is checked
    entry by entry against its componentwise rounding bound (Higham 2002,
    3.5), the first as a product with bound
    (1 + |alpha|(|I3t^L| + |I3t^R|))(1 + |alpha|(|I3^L| + |I3^R|)), the second
    with bound |I3t^L| + |I3t^R| + (1 + |alpha|(|I3t^L| + |I3t^R|))(|I3^L| + |I3^R|).
    Both take the operands' magnitudes, not those of their sums, so they also
    cover the rounding of the stored boost parts that cancel in the sums; a
    record holds the residual and bound of the entry with the worst ratio.
    """
    a = cs.d.alpha
    eye = OperatorMatrix.diagonal(cs.I3_L.basis, 1.0)
    lhs1 = eye + a * (cs.I3_L_tilde + cs.I3_R_tilde)
    abs3, abs3t = cs.I3_L.abs() + cs.I3_R.abs(), cs.I3_L_tilde.abs() + cs.I3_R_tilde.abs()
    abs_lhs1 = eye + abs(a) * abs3t
    inverse = _worst_entry(lhs1 @ (eye - a * (cs.I3_L + cs.I3_R)) - eye, abs_lhs1 @ (eye + abs(a) * abs3))
    difference = _worst_entry(
        (cs.I3_L_tilde - cs.I3_R_tilde) - lhs1 @ (cs.I3_L - cs.I3_R), abs3t + abs_lhs1 @ abs3
    )
    tier = 1 if cs.factors is None else 2
    tol = tols.of(tier)

    rep = VerificationReport(
        suite="reduction_identities",
        subject={"tag": cs.tag, "dim": cs.dim},
        convention=cs.convention,
        environment={"q": cs.d.q, "tier1_tol": tols.tier1},
    )
    note = "scale is the componentwise rounding bound of the worst entry"
    for rid, (residual, bound), form in (
        ("eq28.inverse", inverse, "product form; "),
        ("eq28.difference", difference, ""),
    ):
        rep.add(RelationResidual(rid, residual, bound, tol, tier, "all entries", form + note))
    return rep


def check_chiral_adjoint(
    gens: GeneratorSet, tols: Tolerances = Tolerances(), cs: Optional[ChiralSet] = None
) -> VerificationReport:
    """Adjoint involution on the chiral generators of a built set.

    The involution maps a representation to its conjugate partner
    (l0, -conj(l1)): principal-series labels are self-partnered, the two
    spinor representations exchange.  Raising/lowering pairs compare the
    dagger at q against the partner at 1/q; diagonal pairs against the
    partner at the same q.  Exact for unitary-series labels and for
    single-block representations; measured (tier 2) otherwise.

    cs is `build_chiral(gens)` when the caller has it already (built here
    otherwise); the two partner sets are built on the set's own basis.
    """
    label, j_max, conv = gens.label, gens.basis.j_max, gens.convention
    partner = conjugate_partner(label)
    gp_inv = build_generator_set(RepLabel(partner.l0, partner.l1, label.d.inverse()), j_max, conv, gens.basis)
    gp_same = build_generator_set(partner, j_max, conv, gens.basis)
    cs = cs if cs is not None else build_chiral(gens)
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


def _spinor_chiral_sets(d: Deformation) -> tuple[ChiralSet, ChiralSet]:
    """Chiral sets of the two spinor representations, built on one basis."""
    tau, tau_tilde = spinor_labels(d)
    g = build_generator_set(tau, tau.l0)
    return build_chiral(g), build_chiral(build_generator_set(tau_tilde, tau_tilde.l0, basis=g.basis))


def check_spinor_annihilation(d: Deformation) -> VerificationReport:
    """One full chirality vanishes on each 2-dimensional representation.

    Builds both spinor representations, measures the norm of each chirality
    family (raising, lowering, both diagonals), asserts the dead/alive split
    and records which sign of l1 kills which side.
    """
    tau, tau_tilde = spinor_labels(d)
    cs, cst = _spinor_chiral_sets(d)

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


def _swap_witness(x: OperatorMatrix) -> float:
    """max|x - S x S| for the factor swap S|a>|b> = |b>|a> (factors of one dim):
    step (sa, sb) of x is read as (sb, sa) at the swapped column."""
    (ka, kb), cols = (x.basis.a, x.basis.b), np.arange(x.dim)
    k, n = len(ka.zero_step), ka.dim
    steps = tuple(s[k:] + s[:k] for s in x.steps)
    swapped = OperatorMatrix(ProductBasis(kb, ka), steps, x.data[:, (cols % n) * n + cols // n])
    if swapped.basis != x.basis:  # factors on two grids: stored again by entry (slower)
        swapped = OperatorMatrix.from_entries(x.basis, *swapped.entries())
    return (x - swapped).max_norm


def check_coproduct_homomorphism(
    dcs: ChiralSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """Verify the coproduct respects the chiral algebra and is not cocommutative.

    Runs the full chiral relation suite on the coproduct images, re-asserts
    the grouplike property of the shifted generators against the stored
    factors (exact by construction), and checks that swapping the tensor
    factors changes the raising left image by more than 1e-3 * scale.  The
    swap needs factors of one dim, and a 1-dimensional factor (every
    generator 0, as on (0, +-1)) has a cocommutative coproduct, so that
    record is left out there.
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
    for rr in check_chiral_relations(dcs, tols).residuals:
        rep.add(replace(rr, relation_id="eq32.hom." + rr.relation_id.removeprefix("eq27.")))
    for name in ("T3_L", "T3_L_tilde", "T3_R", "T3_R_tilde"):
        da, fa, fb = (getattr(cs, name) for cs in (dcs, cs_a, cs_b))
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
    if cs_a.dim == cs_b.dim > 1:
        witness = _swap_witness(dcs.I_plus_L)
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
