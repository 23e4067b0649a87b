"""Relation-checking engine: every algebraic claim becomes a quantified residual.

Each check produces `RelationResidual` records collected into deterministic
`VerificationReport`s.  Two tiers of checks are distinguished:

* tier 1: analytically guaranteed by the construction (rotation subalgebra,
  weight relations, selection rules, the mixed rotation-boost relation of
  line 07 that the closed-form second diagonal boost satisfies, elementwise
  adjoint identities, recurrences, termination).
  These gate exit codes at tight tolerance.
* tier 2: the remaining relations on general two-constant representations at
  generic q, whose status the source text leaves open.  They are measured
  and reported at the same tolerance, and additionally gated through the
  classical limit q -> 1 by the acceptance suite.  (Numerically they hold to
  machine precision as well.)

Residual norm: max|entry| of (LHS - RHS) over interior columns; scale is the
product of the max-norms of the operators on the commutator side, floored
at 1 (`_rows`, for every commutator record: eq1, eq4, eq5, eq27).  A record
passes iff residual <= tolerance * scale.  Both sides are evaluated with the
step-operator algebra of `matrep`; the classical oracle fills its step rows
from its own formulas, on the basis the deformed build has.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _jsonfmt
from .qarith import Deformation, HalfInt, half_range, q_number, sqrt_principal
from .repcore import (
    RepLabel,
    classify,
    casimir_eigenvalue,
    check_recurrences,
    coeff_window,
)
from .matrep import (
    Basis,
    ConstructionInconsistencyError,
    ConventionId,
    DEFAULT_CONVENTION,
    GENERATOR_PATTERNS,
    GeneratorSet,
    OperatorMatrix,
    StackedBasis,
    SuQ2Triple,
    TensorOperator,
    _boost_coeffs,
    _boost_terms,
    _check_boost_steps,
    _ladders,
    _st_readings,
    build_basis,
    build_generator_set,
    build_M,
    build_N3_tilde,
    diag_from_m,
    pattern_violation,
    suq2_matrices,
)

__all__ = [
    "RelationResidual",
    "Tolerances",
    "VerificationReport",
    "TIER1_TOL",
    "TIER2_TOL",
    "LIMIT_EPS",
    "check_lorentz_relations",
    "check_casimir",
    "check_tensor_operator",
    "check_q_adjoint",
    "check_unitary_coeffs",
    "check_recurrence_suite",
    "classical_oracle",
    "classical_limit_compare",
    "resolve_conventions",
]

TIER1_TOL = 1e-10
TIER2_TOL = 1e-10
ADJOINT_ELEMENTWISE_TOL = 1e-13
# eps range of the classical-limit comparison: its eps/10 rebuild must stay
# clear of the q = 1 guard of `Deformation` (|q - 1| > 1e-12)
LIMIT_EPS = (1e-11, 1e-3)


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances of the tier-1 and tier-2 records of a check."""

    tier1: float = TIER1_TOL
    tier2: float = TIER2_TOL

    def of(self, tier: int) -> float:
        return self.tier1 if tier == 1 else self.tier2


# Relation lines whose generic-q validity on general labels is analytically
# guaranteed (tier 1); the rest of the defining relations are tier 2 there.
_TIER1_LINES = {"line01", "line02", "line06", "line07", "other1", "other2", "other3"}


@dataclass(frozen=True)
class RelationResidual:
    relation_id: str
    residual: float
    scale: float
    tolerance: float
    tier: int
    columns: str = "all columns"
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance * self.scale)

    def to_record(self) -> dict:
        rec = {
            "id": self.relation_id,
            "residual": float(self.residual),
            "scale": float(self.scale),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "tier": self.tier,
            "columns": self.columns,
        }
        if self.note:
            rec["note"] = self.note
        return rec


@dataclass
class VerificationReport:
    """Residual records for one suite, with deterministic serialized form."""

    suite: str
    subject: dict
    convention: ConventionId
    environment: dict
    residuals: list[RelationResidual] = field(default_factory=list)

    def add(self, rr: RelationResidual) -> None:
        self.residuals.append(rr)

    @property
    def tier1_pass(self) -> bool:
        return all(r.passed for r in self.residuals if r.tier == 1)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.residuals)

    def failed(self) -> list[RelationResidual]:
        return [r for r in self.residuals if not r.passed]

    def to_record(self) -> dict:
        ordered = sorted(self.residuals, key=lambda r: r.relation_id)
        return {
            "suite": self.suite,
            "input": self.subject,
            "convention": self.convention.to_list(),
            "environment": self.environment,
            "relations": [r.to_record() for r in ordered],
            "verdict": {
                "tier1_pass": self.tier1_pass,
                "all_pass": self.all_pass,
                "n_relations": len(self.residuals),
                "n_failed": len(self.failed()),
            },
        }

    def to_json(self, indent: bool = False) -> str:
        return _jsonfmt.dumps(self.to_record(), indent=indent)


# --------------------------------------------------------------------------
# helpers


def _subject(gens: GeneratorSet) -> dict:
    return {
        "tag": gens.tag,
        "label": gens.label.to_record(),
        "dim": gens.basis.dim,
        "truncated": gens.basis.truncated,
    }


def _rows(rows, mask: Optional[np.ndarray] = None) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Ids, residuals and scales of commutator-type rows (id, differences,
    operators...), residuals and scales one row per record and one column
    per copy of the grid: the residual is the largest |entry| of the
    differences over the columns where `mask` is true, the scale max(1,
    product of the operators' largest |entry|).  Rows are read one at a time
    (a generator keeps one row's differences alive); scales are made at once."""
    ids, res, maxima, starts = [], [], [], []
    for rid, diffs, *ops in rows:
        ids.append(rid)
        res.append(functools.reduce(np.maximum, [x.block_max(mask) for x in diffs]))
        starts.append(len(maxima))
        maxima += [op.block_max() for op in ops]
    with np.errstate(over="ignore"):  # an overflowing product is inf, as in float arithmetic
        prods = np.multiply.reduceat(np.array(maxima), starts)
    return ids, np.array(res), np.fmax(1.0, prods)  # fmax: max(1.0, nan) is 1.0


def _worst_ratio(pairs) -> tuple[float, float]:
    """The (residual, scale) pair of the worst ratio residual/scale: the first
    strictly worse than every pair before it, from (0.0, 1.0)."""
    worst, wscale = 0.0, 1.0
    for r, s in pairs:
        if r / s > worst / wscale:
            worst, wscale = r, s
    return worst, wscale


def _env(gens: GeneratorSet, tols: Tolerances, **extra) -> dict:
    env = {
        "q": gens.d.q,
        "j_max": str(gens.basis.j_max) if gens.basis.j_max is not None else None,
        "tier1_tol": tols.tier1,
        "tier2_tol": tols.tier2,
    }
    env.update(extra)
    return env


def _is_realization(gens: GeneratorSet) -> bool:
    return len(gens.basis.spins) == 1


def _line_tier(line: str, gens: GeneratorSet) -> int:
    if _is_realization(gens):
        return 1
    return 1 if line in _TIER1_LINES else 2


# --------------------------------------------------------------------------
# defining-relation suite


_EQ4_LINES = ("line01", "line02", "line03", "line04", "line05", "line06", "line07",
              "line08", "line09", "line10", "other1", "other2", "other3")


def _eq4_lines(
    ops: dict[str, OperatorMatrix], d: Deformation, c_scalar: complex, swap: int = 0, lines=_EQ4_LINES
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(residual, scale) of each defining-relation line in `lines`, in that order,
    from the generators in `ops` (only those the lines read), by `_rows`.
    swap pairs lines 04/05 with N3~/N3 instead of N3/N3~; lines 02/06 take
    their worse sign."""
    mp, mm, m3 = ops["m_plus"], ops["m_minus"], ops["m3"]
    np_, nm, n3, n3t = (ops.get(name) for name in ("n_plus", "n_minus", "n3", "n3_tilde"))
    basis = mp.basis
    rq = math.sqrt(d.q)
    central = d.delta * c_scalar * OperatorMatrix.diagonal(basis, 1.0)
    two = q_number(HalfInt.from_int(2), d)
    d4, d5 = (n3t, n3) if swap else (n3, n3t)
    two_m3 = diag_from_m(basis, lambda m: q_number(m + m, d)) if {"line01", "line03"} & set(lines) else None
    # each line: its difference(s) and the pair of operators that sets its scale
    forms = {
        "line01": lambda: ((mp @ mm - mm @ mp - two_m3,), mp, mm),
        "line02": lambda: ((m3 @ mp - mp @ m3 - mp, m3 @ mm - mm @ m3 + mm), m3, mp),
        "line03": lambda: ((np_ @ nm - nm @ np_ + two_m3,), np_, nm),
        "line04": lambda: ((d4 @ np_ * rq - np_ @ d4 / rq + mp,), d4, np_),
        "line05": lambda: ((d5 @ nm * rq - nm @ d5 / rq - mm,), d5, nm),
        "line06": lambda: ((m3 @ np_ - np_ @ m3 - np_, m3 @ nm - nm @ m3 + nm), m3, np_),
        "line07": lambda: ((mp @ nm / rq - rq * nm @ mp - (two * n3t + central),), mp, nm),
        "line08": lambda: ((mm @ np_ / rq - rq * np_ @ mm - (-two * n3 + central),), mm, np_),
        "line09": lambda: ((mp @ n3t * rq - n3t @ mp / rq + np_,), mp, n3t),
        "line10": lambda: ((mm @ n3 * rq - n3 @ mm / rq - nm,), mm, n3),
        # "all other (usual) commutators vanish"
        "other1": lambda: ((n3 @ n3t - n3t @ n3,), n3, n3t),
        "other2": lambda: ((m3 @ n3 - n3 @ m3,), m3, n3),
        "other3": lambda: ((m3 @ n3t - n3t @ m3,), m3, n3t),
    }
    ids, res, scales = _rows(((line, *forms[line]()) for line in lines), basis.interior_columns(2))
    return dict(zip(ids, zip(res, scales)))


def check_lorentz_relations(
    gens: GeneratorSet, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """Residuals for all ten defining relation lines, the vanishing
    commutators among the remaining pairs, and the selection-rule patterns."""
    basis = gens.basis
    col_quad = "interior (quadratic)" if basis.truncated else "all columns"
    rep = VerificationReport(
        suite="lorentz_relations",
        subject=_subject(gens),
        convention=gens.convention,
        environment=_env(gens, tols),
    )
    swap = gens.convention.line45_swap
    for line, (residual, scale) in _eq4_lines(gens.matrices(), gens.d, gens.c_scalar, swap).items():
        tier = _line_tier(line, gens)
        note = "both signs" if line in ("line02", "line06") else ""
        residual, scale = float(residual[0]), float(scale[0])
        rep.add(RelationResidual(f"eq4.{line}", residual, scale, tols.of(tier), tier, col_quad, note))

    # selection rules of GENERATOR_PATTERNS: exact zeros outside, tolerance 0
    for name, op in gens.matrices().items():
        rep.add(
            RelationResidual(
                f"struct.{name}",
                pattern_violation(op, GENERATOR_PATTERNS[name], basis),
                1.0,
                0.0,
                1,
                "all entries",
                "selection rule, exact",
            )
        )
    return rep


def check_casimir(gens: GeneratorSet, tols: Tolerances = Tolerances()) -> VerificationReport:
    """Scalar action and centrality of the quadratic invariant matrix."""
    c_scalar = gens.c_scalar
    basis = gens.basis
    cas = gens.casimir
    tier = 1 if _is_realization(gens) else 2

    rep = VerificationReport(
        suite="casimir",
        subject=_subject(gens),
        convention=gens.convention,
        environment=_env(gens, tols, c_scalar={"re": c_scalar.real, "im": c_scalar.imag}),
    )
    scalar = [("eq5.scalar", (cas - OperatorMatrix.diagonal(basis, c_scalar),), cas)]
    central = ((f"eq5.central.{name}", (cas @ op - op @ cas,), cas, op) for name, op in gens.generators().items())
    for rows, order, kind in ((scalar, 2, "quadratic"), (central, 3, "cubic")):
        cols = f"interior ({kind})" if basis.truncated else "all columns"
        ids, res, scales = _rows(rows, basis.interior_columns(order))
        for rid, residual, scale in zip(ids, res[:, 0].tolist(), scales[:, 0].tolist()):
            rep.add(RelationResidual(rid, residual, scale, tols.of(tier), tier, cols))
    return rep


# --------------------------------------------------------------------------
# tensor-operator suite


def _tensor_rows(tri: SuQ2Triple, tensor: TensorOperator, d: Deformation, sign: float):
    """The relation rows (id, differences, operators) of the primary (sign +1)
    or alternative (-1) tensor-operator relations, for `_rows`, made one at a
    time."""
    rank = tensor.l.twice // 2
    mp, mm, m3 = tri.m_plus, tri.m_minus, tri.m3
    dress = diag_from_m(tri.basis, lambda m: math.pow(d.q, sign * float(m) / 2))
    for mu in range(-rank, rank + 1):
        t_mu = tensor.component(mu)
        yield f"weight.m{mu:+d}", (m3 @ t_mu - t_mu @ m3 - mu * t_mu,), t_mu
        for pm, mat, tagc in ((1, mp, "raise"), (-1, mm, "lower")):
            lhs = mat @ t_mu - math.pow(d.q, -sign * mu / 2.0) * (t_mu @ mat)
            tgt = mu + pm
            if abs(tgt) <= rank:
                amp = math.sqrt(
                    q_number(HalfInt.from_int(rank - pm * mu), d)
                    * q_number(HalfInt.from_int(rank + pm * mu + 1), d)
                )
                lhs = lhs - amp * tensor.component(tgt) @ dress
            yield f"{tagc}.m{mu:+d}", (lhs,), mat, t_mu


def check_tensor_operator(
    tri: SuQ2Triple,
    tensor: TensorOperator,
    d: Deformation,
    name: str = "T",
    tols: Tolerances = Tolerances(),
) -> VerificationReport:
    """Check the deformed tensor-operator relations in both variants.

    The primary variant dresses the right side with q^(+M3/2) and weights the
    commutator by q^(-mu/2); the alternative is the same with q -> 1/q.  Both
    are evaluated; which one the operator satisfies is recorded, and only the
    matching variant's records are tier 1.
    """
    if tensor.l.twice % 2 != 0 or tensor.l.twice < 0:
        raise ValueError("only integer-rank tensor operators are checked")
    primary, alternative = (_rows(_tensor_rows(tri, tensor, d, sign)) for sign in (1.0, -1.0))
    tot_p, tot_a = (sum(res / scales) for _ids, res, scales in (primary, alternative))
    satisfied = "primary" if tot_p[0] <= tot_a[0] else "alternative"

    rep = VerificationReport(
        suite="tensor_operator",
        subject={"tag": f"vector operator {name}", "dim": tri.basis.dim, "satisfies": satisfied},
        convention=DEFAULT_CONVENTION,
        environment={"q": d.q, "tier1_tol": tols.tier1, "tier2_tol": tols.tier2},
    )
    for variant, (ids, res, scales) in (("primary", primary), ("alternative", alternative)):
        tier = 1 if variant == satisfied else 2
        for rid, residual, scale in zip(ids, res[:, 0].tolist(), scales[:, 0].tolist()):
            rep.add(RelationResidual(f"eq1.{variant}.{rid}", residual, scale, tols.of(tier), tier))
    return rep


# --------------------------------------------------------------------------
# q-adjoint suite


def check_q_adjoint(gens: GeneratorSet, tols: Tolerances = Tolerances()) -> VerificationReport:
    """Adjoint involution checks between a built set and its build at 1/q
    (same label, truncation and convention).

    Elementwise identities: the rotation pair is dagger-related across
    q -> 1/q for every label; the boost pair and the Hermiticity of the
    diagonal boost additionally need real a_j / imaginary c_j, i.e. a
    unitary-series label (tier 2 otherwise).  The role swap of the two
    diagonal boosts under q -> 1/q is exact for every label, and the
    inverse-q build must satisfy the whole defining suite.
    """
    label = gens.label
    label_inv = RepLabel(label.l0, label.l1, label.d.inverse())
    gi = build_generator_set(label_inv, gens.basis.j_max, gens.convention, gens.basis)
    unitary = classify(label).unitary != "non_unitary"
    n_tier = 1 if unitary else 2

    rep = VerificationReport(
        suite="q_adjoint",
        subject=_subject(gens),
        convention=gens.convention,
        environment=_env(gens, tols, q_inverse=label_inv.d.q, unitary_series=unitary),
    )

    pairs = [
        ("eq6.m_plus_dagger", gens.m_plus.dagger(), gi.m_minus, gens.m_plus, 1),
        ("eq6.m_minus_dagger", gens.m_minus.dagger(), gi.m_plus, gens.m_minus, 1),
        ("eq6.m3_dagger", gens.m3.dagger(), gens.m3, gens.m3, 1),
        ("eq6.n_plus_dagger", gens.n_plus.dagger(), gi.n_minus, gens.n_plus, n_tier),
        ("eq6.n_minus_dagger", gens.n_minus.dagger(), gi.n_plus, gens.n_minus, n_tier),
        ("eq6.n3_hermitian", gens.n3.dagger(), gens.n3, gens.n3, n_tier),
        ("eq6.n3_swap", gi.n3, gens.n3_tilde, gens.n3_tilde, 1),
        ("eq6.n3_tilde_swap", gi.n3_tilde, gens.n3, gens.n3, 1),
    ]
    for rid, lhs, rhs, op, tier in pairs:
        rep.add(
            RelationResidual(
                rid,
                (lhs - rhs).max_norm,
                max(1.0, op.max_norm),
                ADJOINT_ELEMENTWISE_TOL if tier == 1 else tols.tier2,
                tier,
                "all entries",
                "elementwise",
            )
        )

    # the worst residual/scale of `check_lorentz_relations(gi)`, whose struct.*
    # records are exactly 0 and would build the Casimir: its eq4 lines in order
    lines = _eq4_lines(gi.generators(), gi.d, gi.c_scalar, gi.convention.line45_swap).values()
    worst, wscale = _worst_ratio((float(r[0]), float(s[0])) for r, s in lines)
    rep.add(
        RelationResidual(
            "eq6.suite_at_inverse_q",
            worst / wscale,
            1.0,
            tols.tier2,
            2,
            "interior (quadratic)",
            "worst relative residual of the defining suite at 1/q",
        )
    )
    return rep


# --------------------------------------------------------------------------
# unitarity conditions on the coefficients


def check_unitary_coeffs(
    label: RepLabel, j_max: HalfInt, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """Reality of a_j and anti-reality of c_j versus the series classification.

    For principal/complementary labels every coefficient condition must hold
    (tier 1); for non-unitary labels the per-j conditions are informational
    and the tier-1 statement is that at least one of them fails, agreeing
    with the classification.  A window whose coefficients all vanish (only
    j = l0 = 0) can witness nothing, and the summary passes with a note.
    """
    cls = classify(label)
    unitary = cls.unitary != "non_unitary"
    rep = VerificationReport(
        suite="unitary_coeffs",
        subject={"label": label.to_record(), "classification": cls.to_record()},
        convention=DEFAULT_CONVENTION,
        environment={"q": label.d.q, "j_max": str(j_max), "tier1_tol": tols.tier1},
    )
    any_fail = informative = False
    for j, a, c in zip(half_range(label.l0, j_max), *coeff_window(label, j_max)[:2]):
        ra = RelationResidual(
            f"unit.a_real.j={j}",
            abs(a.imag),
            max(1.0, abs(a)),
            tols.tier1,
            1 if unitary else 2,
            "coefficient",
        )
        rc = RelationResidual(
            f"unit.c_imag.j={j}",
            abs(c.real),
            max(1.0, abs(c)),
            tols.tier1,
            1 if unitary else 2,
            "coefficient",
        )
        any_fail = any_fail or not ra.passed or not rc.passed
        informative = informative or a != 0 or c != 0
        rep.add(ra)
        rep.add(rc)
    consistent = (not any_fail) if unitary else (any_fail or not informative)
    note = f"classified {cls.unitary}"
    if not informative:
        note += "; every coefficient in the window is zero"
    rep.add(
        RelationResidual(
            "unit.matches_classification",
            0.0 if consistent else 1.0,
            1.0,
            0.5,
            1,
            "summary",
            note,
        )
    )
    return rep


def check_recurrence_suite(
    label: RepLabel, j_max: HalfInt, tols: Tolerances = Tolerances()
) -> VerificationReport:
    """Difference-equation residuals as a report (the coefficient oracle),
    each scaled by the magnitudes of its terms."""
    rep = VerificationReport(
        suite="recurrences",
        subject={"label": label.to_record()},
        convention=DEFAULT_CONVENTION,
        environment={"q": label.d.q, "j_max": str(j_max), "tier1_tol": tols.tier1},
    )
    for row in check_recurrences(label, j_max):
        for kind in ("ladder", "norm"):
            residual, scale = row[f"residual_{kind}"], row[f"scale_{kind}"]
            rep.add(RelationResidual(f"rec.{kind}.j={row['j']}", residual, scale, tols.tier1, 1, "coefficient"))
    return rep


# --------------------------------------------------------------------------
# classical oracle and limit comparison


def classical_oracle(basis: Basis, l0: HalfInt, l1: complex) -> dict[str, OperatorMatrix]:
    """The seven classical (undeformed) generators on `basis`, keyed by their
    `GENERATOR_PATTERNS` names (the invariant left out): the closed-form
    elements with every bracket [x] replaced by x and every q-power by 1, so
    a_j = i l0 l1 / (j(j+1)), c_j from the classical square root, rotation
    elements sqrt((j-+m)(j+-m+1)).  Independent of the deformed formulas, but
    stored by step on the basis the deformed build has, so the spin content
    is `classify`'s (through `build_basis`).

    a_j, c_j and c_{j+1} are scalars per spin; each term of a generator is
    then filled for every column (j, m) at once from the basis's j and m
    arrays, with the same float operations per entry as a loop over (j, m).
    No `_ladder`, q table or q-number is used: the oracle stays independent.
    """
    l1 = complex(l1)
    fl0 = float(l0)

    def a_of(j: float) -> complex:
        if j == 0.0:
            return 0j
        return 1j * fl0 * l1 / (j * (j + 1.0))

    def c_of(j: HalfInt) -> complex:
        fj = float(j)
        if j == l0 or fj <= 0.0:
            return 0j
        rad = (fj * fj - fl0 * fl0) * (fj * fj - l1 * l1) / ((2 * fj - 1.0) * (2 * fj + 1.0))
        return 1j / fj * sqrt_principal(rad)

    block = (basis.j2 - basis.j2[0]) // 2
    a = np.array([a_of(float(j)) for j in basis.spins])[block]
    c = np.array([c_of(j) for j in basis.spins])[block]
    c1 = np.array([c_of(j + 1) for j in basis.spins])[block]
    j, m = basis.j2 / 2, basis.m2 / 2

    def root(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # sqrt(x y); the clip only reaches entries whose target leaves the basis
        return np.sqrt(np.maximum(x * y, 0.0))

    # (generator, (delta_j, delta_m) step, value per column) of each term
    terms = [
        ("m_plus", (0, 1), root(j - m, j + m + 1)),
        ("m_minus", (0, -1), root(j + m, j - m + 1)),
        ("m3", (0, 0), m),
        ("n_plus", (-1, 1), c * root(j - m, j - m - 1)),
        ("n_plus", (0, 1), -a * root(j - m, j + m + 1)),
        ("n_plus", (1, 1), c1 * root(j + m + 1, j + m + 2)),
        ("n_minus", (-1, -1), -c * root(j + m, j + m - 1)),
        ("n_minus", (0, -1), -a * root(j + m, j - m + 1)),
        ("n_minus", (1, -1), -c1 * root(j - m + 1, j - m + 2)),
        ("n3", (-1, 0), c * root(j - m, j + m)),
        ("n3", (0, 0), -a * m),
        ("n3", (1, 0), -c1 * root(j + m + 1, j - m + 1)),
    ]
    ops = {}
    for name in dict.fromkeys(name for name, _step, _vals in terms):
        mine = [(step, vals) for n, step, vals in terms if n == name]
        # 0 off the basis; the sum into zeros turns -0.0 into +0.0, as a
        # dense fill does
        data = [np.where(basis.rows(step) >= 0, vals, 0) + 0.0 for step, vals in mine]
        ops[name] = OperatorMatrix(basis, tuple(step for step, _vals in mine), np.stack(data))
    ops["n3_tilde"] = ops["n3"]
    return ops


def classical_limit_compare(
    label_l0: HalfInt,
    label_l1: complex,
    j_max: HalfInt,
    eps: float,
    conv: ConventionId = DEFAULT_CONVENTION,
) -> VerificationReport:
    """Entrywise deviation of the q = 1 + eps build from the classical oracle.

    Deviations scale linearly in eps; the shrink check rebuilds at eps/10 and
    requires at least a 3x reduction.  Tolerance for the deviation records is
    100 * eps (smooth first-order dependence on q across the whole grid).
    eps must lie in `LIMIT_EPS`, checked before anything is built.
    """
    if not LIMIT_EPS[0] <= eps <= LIMIT_EPS[1]:
        raise ValueError(f"eps must be in [{LIMIT_EPS[0]:g}, {LIMIT_EPS[1]:g}], got {eps}")
    d1, d2 = Deformation(1.0 + eps), Deformation(1.0 + eps / 10.0)

    # Entrywise comparison covers the seven generators (`generators()`): the
    # invariant matrix is left out (and so never built).  Its assembly divides
    # by q^(1/2) - q^(-1/2), which amplifies roundoff as 1/eps near the
    # classical point; its limit is checked through the well-conditioned
    # scalar i[l0][l1] instead.

    def build(d: Deformation, basis: Optional[Basis] = None) -> GeneratorSet:
        return build_generator_set(RepLabel(label_l0, label_l1, d), j_max, conv, basis)

    def deviations(g: GeneratorSet) -> dict[str, float]:
        # entries off the steps are exact zeros on both sides, so this is the
        # max over all dim x dim entries
        out = {name: (op - oracle[name]).max_norm for name, op in g.generators().items()}
        out["casimir_scalar"] = abs(
            casimir_eigenvalue(g.label) - 1j * float(label_l0) * complex(label_l1)
        )
        return out

    g1 = build(d1)
    oracle = classical_oracle(g1.basis, label_l0, label_l1)
    dev1 = deviations(g1)
    dev2 = deviations(build(d2, g1.basis))  # the eps/10 build shares the basis
    tol = 100.0 * eps

    rep = VerificationReport(
        suite="classical_limit",
        subject={
            "label": {"l0": str(label_l0), "l1": {"re": label_l1.real, "im": label_l1.imag}},
            "dim": g1.basis.dim,
        },
        convention=conv,
        # None for a finite label's full basis, as `_env` writes it
        environment={
            "eps": eps,
            "j_max": str(g1.basis.j_max) if g1.basis.j_max is not None else None,
            "deviation_tol": tol,
        },
    )
    for name in sorted(dev1):
        rep.add(
            RelationResidual(f"limit.dev.{name}", dev1[name], 1.0, tol, 1, "all entries")
        )
    worst1 = max(dev1.values())
    worst2 = max(dev2.values())
    rep.add(
        RelationResidual(
            "limit.shrink",
            worst2,
            max(worst1, 1e-300),
            1.0 / 3.0,
            1,
            "all entries",
            f"deviation at eps/10 vs eps ({worst1:.6g} -> {worst2:.6g})",
        )
    )
    return rep


# --------------------------------------------------------------------------
# convention resolution


# Column cap of one stack of boost readings.  All 18 readings fit one stack at
# the default truncation up to l0 = 20.  Measured on (0, 2.7i) at q = 1.3:
# past about 4k columns numpy work per column dominates, so wider stacks save
# no time and only raise peak memory (j_max 60: 38 MB at this cap, 54 MB at
# 16k columns, 127 MB with all 18 copies in one stack).
_STACK_COLUMNS = 4096


def _boost_scores(
    label: RepLabel, basis: Basis, readings: list[ConventionId]
) -> list[tuple[float, float]]:
    """Summed relative residual of the defining lines for each exponent
    reading, under the printed and the swapped line-04/05 pairing.

    Each N+/N- term depends on one exponent axis, so N3 and the N+/N-
    tables of all readings come from one `_ladders` pass, which evaluates
    each distinct term once; N3, N3~ and the rotations read no exponent.
    Lines 03-10 run on stacks of readings side by side, with the same
    arithmetic per column as on one reading, so the scores are bitwise those
    of one set per reading.
    """
    d, c_scalar = label.d, casimir_eigenvalue(label)
    tables = _boost_terms(readings[0])[2:] + sum((_boost_terms(r)[:2] for r in readings), ())
    n3, *boosts = _ladders(basis, tables, d, _boost_coeffs(basis, label))
    ops = dict(zip(("m_plus", "m_minus", "m3"), build_M(basis, d)))
    ops["n3"], ops["n3_tilde"] = n3, build_N3_tilde(n3, basis, d)
    shared = _eq4_lines(ops, d, c_scalar, lines=("line01", "line02", "other1", "other2", "other3"))

    per_stack = max(1, _STACK_COLUMNS // basis.dim)
    scores = []
    for start in range(0, len(readings), per_stack):
        group = readings[start : start + per_stack]
        grid = StackedBasis(basis, len(group))
        stacked = {
            name: OperatorMatrix(grid, op.steps, np.tile(op.data, len(group))) for name, op in ops.items()
        }
        for name, k in (("n_plus", 0), ("n_minus", 1)):
            # the consistent readings share their N+/N- steps
            mine = boosts[2 * start + k : 2 * (start + len(group)) : 2]
            stacked[name] = OperatorMatrix(grid, mine[0].steps, np.hstack([op.data for op in mine]))
        lines = {**shared, **_eq4_lines(stacked, d, c_scalar, lines=_EQ4_LINES[2:10])}
        swapped = {**lines, **_eq4_lines(stacked, d, c_scalar, 1, ("line04", "line05"))}
        # summed in the suite's record order, so each float sum is the suite's
        sums = [sum(r / s for r, s in (pairs[line] for line in _EQ4_LINES)) for pairs in (lines, swapped)]
        scores += zip(sums[0].tolist(), sums[1].tolist())
    return scores


def _st_scores(tri: SuQ2Triple, d: Deformation, convs: list[ConventionId]) -> list[float]:
    """Summed relative residual of the tier-1 tensor-operator records of S
    and T for each prefactor reading.  The readings are the copies of one
    stacked grid, so the relations run once for all of them with the same
    arithmetic per column as on one reading: the scores are bitwise those of
    `check_tensor_operator` per reading."""
    triple, *tensors = _st_readings(tri, d, convs)
    total = 0.0
    for tensor in tensors:
        # the satisfied variant's records are the tier-1 ones
        variants = (_rows(_tensor_rows(triple, tensor, d, sign)) for sign in (1.0, -1.0))
        tot_p, tot_a = (sum(res / scales) for _ids, res, scales in variants)
        total = total + np.where(tot_p <= tot_a, tot_p, tot_a)
    return total.tolist()


def resolve_conventions(
    label: Optional[RepLabel] = None,
    two_j: Optional[int] = None,
    d: Optional[Deformation] = None,
    j_max: Optional[HalfInt] = None,
) -> tuple[ConventionId, list[dict]]:
    """Pick the reading of every catalogued ambiguity that minimizes residuals.

    Generator-construction axes are scored by the summed relative residual of
    the defining relation lines on the given label; the vector-operator
    prefactor by the tensor-relation suite at the given spin; the coproduct
    grouplike choice by the homomorphism residual on the mixed two-dimensional
    product (where the two readings differ).  Deterministic tie-break: the
    lexicographically smallest convention list.  Returns the winner and the
    full score table.

    Built once per call: the label's basis, a_j and c_j, rotations, N3 and
    N3~, each distinct boost term, and the lines that read no N+/N- (01, 02,
    other1-3); one spin-j triple; the two spinor chiral sets.  The 18
    consistent exponent readings differ only in N+ and N-: they are scored
    side by side as copies of one `StackedBasis`, one pass of lines 03-10
    for them all plus lines 04/05 for the swapped pairing (no invariant, no
    generator set).
    """
    if d is None:
        d = label.d if label is not None else Deformation(1.3)
    table: list[dict] = []
    chosen = {}
    options = ConventionId._RANGES

    def pick(axis: str, scored: list[tuple[float, ConventionId]], fields: tuple[str, ...]) -> None:
        for s, conv in scored:
            score = None if math.isinf(s) else s
            table.append({"axis": axis, "convention": str(conv), "score": score, "valid": score is not None})
        win = min(scored, key=lambda t: (t[0], t[1].to_list()))[1]
        chosen.update((f, getattr(win, f)) for f in fields)

    # axis group 1: boost-matrix exponents and the relation pairing; the
    # pairing only decides which diagonal boost lines 04/05 read.  A reading
    # whose N+/N- steps break their selection rule scores inf.
    if label is not None:
        basis = build_basis(label, j_max if j_max is not None else label.l0 + 4)
        exponents = ("n_mid_exp", "n_down_dm", "n_first_shift", "n_third_shift")
        readings = [
            ConventionId(**dict(zip(exponents, values)))
            for values in itertools.product(*(options[f] for f in exponents))
        ]
        consistent = []
        for reading in readings:
            try:
                _check_boost_steps(reading)
            except ConstructionInconsistencyError:
                continue
            consistent.append(reading)
        scores = dict(zip(consistent, _boost_scores(label, basis, consistent)))
        scored = [
            (scores[reading][sw] if reading in scores else math.inf, replace(reading, line45_swap=sw))
            for reading in readings
            for sw in options["line45_swap"]
        ]
        pick("boost_exponents", scored, exponents + ("line45_swap",))

    # axis group 2: vector-operator scalar prefactor
    if two_j is not None:
        tri = suq2_matrices(two_j, d)
        convs = [ConventionId(st_quarters=k) for k in options["st_quarters"]]
        pick("st_prefactor", list(zip(_st_scores(tri, d, convs), convs)), ("st_quarters",))

    # axis group 3: coproduct grouplike for the lowering right generator,
    # scored on the mixed spinor product where the readings differ
    from .chiral import _spinor_chiral_sets, check_chiral_relations, coproduct

    cs_tau, cs_taut = _spinor_chiral_sets(d)
    scored = []
    for rg in options["cop_r_grouplike"]:
        dc = coproduct(cs_tau, cs_taut, ConventionId(cop_r_grouplike=rg))
        rep = check_chiral_relations(dc)
        scored.append((sum(r.residual / r.scale for r in rep.residuals), dc.convention))
    pick("cop_r_grouplike", scored, ("cop_r_grouplike",))

    return ConventionId(**chosen), table
