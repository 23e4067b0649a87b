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
at 1.  A record passes iff residual <= tolerance * scale.  Both sides are
evaluated with the step-operator algebra of `matrep`; only the classical
oracle is a separate path, filled entry by entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import _jsonfmt
from .qarith import Deformation, HalfInt, half_range, q_number
from .repcore import (
    RepLabel,
    classify,
    casimir_eigenvalue,
    check_recurrences,
)
from .matrep import (
    Basis,
    ConstructionInconsistencyError,
    ConventionId,
    DEFAULT_CONVENTION,
    GENERATOR_PATTERNS,
    GeneratorSet,
    OperatorMatrix,
    SuQ2Triple,
    TensorOperator,
    _check_boost_steps,
    _st_vectors,
    build_basis,
    build_generator_set,
    build_M,
    build_N,
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
    "check_lorentz_relations",
    "check_casimir",
    "check_tensor_operator",
    "check_q_adjoint",
    "check_unitary_coeffs",
    "check_recurrence_suite",
    "ClassicalGeneratorSet",
    "classical_oracle",
    "classical_limit_compare",
    "resolve_conventions",
]

TIER1_TOL = 1e-10
TIER2_TOL = 1e-10
ADJOINT_ELEMENTWISE_TOL = 1e-13


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

    def worst_relative(self) -> float:
        return max((r.residual / r.scale for r in self.residuals), default=0.0)

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


def _pair_scale(a: OperatorMatrix, b: OperatorMatrix) -> float:
    return max(1.0, a.max_norm * b.max_norm)


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
) -> dict[str, tuple[float, float]]:
    """(residual, scale) of each defining-relation line in `lines`, in that order,
    from the generators in `ops` (only those the lines read).  swap pairs lines
    04/05 with N3~/N3 instead of N3/N3~; lines 02/06 take their worse sign."""
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
    quad = basis.interior_columns(2)
    out = {}
    for line in lines:
        diffs, a, b = forms[line]()
        out[line] = (max(x.masked_max(quad) for x in diffs), _pair_scale(a, b))
    return out


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
    quad = basis.interior_columns(2)
    cubic = basis.interior_columns(3)
    col_quad = "interior (quadratic)" if basis.truncated else "all columns"
    col_cubic = "interior (cubic)" if basis.truncated else "all columns"
    tier = 1 if _is_realization(gens) else 2

    rep = VerificationReport(
        suite="casimir",
        subject=_subject(gens),
        convention=gens.convention,
        environment=_env(gens, tols, c_scalar={"re": c_scalar.real, "im": c_scalar.imag}),
    )
    rep.add(
        RelationResidual(
            "eq5.scalar",
            (cas - OperatorMatrix.diagonal(basis, c_scalar)).masked_max(quad),
            max(1.0, cas.max_norm),
            tols.of(tier),
            tier,
            col_quad,
        )
    )
    for name, op in gens.matrices().items():
        if name == "casimir":
            continue
        rep.add(
            RelationResidual(
                f"eq5.central.{name}",
                (cas @ op - op @ cas).masked_max(cubic),
                _pair_scale(cas, op),
                tols.of(tier),
                tier,
                col_cubic,
            )
        )
    return rep


# --------------------------------------------------------------------------
# tensor-operator suite


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
    rank = tensor.l.twice // 2
    mp, mm, m3 = tri.m_plus, tri.m_minus, tri.m3
    basis = tri.basis

    def variant_rows(sign: float) -> list[tuple[str, float, float]]:
        dress = diag_from_m(basis, lambda m: math.pow(d.q, sign * float(m) / 2))
        rows = []
        for mu in range(-rank, rank + 1):
            t_mu = tensor.component(mu)
            res = (m3 @ t_mu - t_mu @ m3 - mu * t_mu).max_norm
            rows.append((f"weight.m{mu:+d}", res, max(1.0, t_mu.max_norm)))
            for pm, mat, tagc in ((1, mp, "raise"), (-1, mm, "lower")):
                lhs = mat @ t_mu - math.pow(d.q, -sign * mu / 2.0) * (t_mu @ mat)
                tgt = mu + pm
                if abs(tgt) <= rank:
                    amp = math.sqrt(
                        q_number(HalfInt.from_int(rank - pm * mu), d)
                        * q_number(HalfInt.from_int(rank + pm * mu + 1), d)
                    )
                    lhs = lhs - amp * tensor.component(tgt) @ dress
                scale = max(1.0, mat.max_norm * t_mu.max_norm)
                rows.append((f"{tagc}.m{mu:+d}", lhs.max_norm, scale))
        return rows

    primary = variant_rows(+1.0)
    alternative = variant_rows(-1.0)
    tot_p = sum(r / s for _i, r, s in primary)
    tot_a = sum(r / s for _i, r, s in alternative)
    satisfied = "primary" if tot_p <= tot_a else "alternative"

    rep = VerificationReport(
        suite="tensor_operator",
        subject={"tag": f"vector operator {name}", "dim": basis.dim, "satisfies": satisfied},
        convention=DEFAULT_CONVENTION,
        environment={"q": d.q, "tier1_tol": tols.tier1, "tier2_tol": tols.tier2},
    )
    for variant, rows in (("primary", primary), ("alternative", alternative)):
        tier = 1 if variant == satisfied else 2
        for rid, res, scale in rows:
            rep.add(
                RelationResidual(
                    f"eq1.{variant}.{rid}",
                    res,
                    scale,
                    tols.of(tier),
                    tier,
                    "all columns",
                )
            )
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
    gi = build_generator_set(label_inv, gens.basis.j_max, gens.convention)
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

    inv_suite = check_lorentz_relations(gi)
    rep.add(
        RelationResidual(
            "eq6.suite_at_inverse_q",
            inv_suite.worst_relative(),
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
    from .repcore import coeff_a, coeff_c

    cls = classify(label)
    unitary = cls.unitary != "non_unitary"
    rep = VerificationReport(
        suite="unitary_coeffs",
        subject={"label": label.to_record(), "classification": cls.to_record()},
        convention=DEFAULT_CONVENTION,
        environment={"q": label.d.q, "j_max": str(j_max), "tier1_tol": tols.tier1},
    )
    any_fail = informative = False
    for j in half_range(label.l0, j_max):
        a = coeff_a(j, label)
        c = coeff_c(j, label)
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
    """Difference-equation residuals as a report (the coefficient oracle)."""
    rep = VerificationReport(
        suite="recurrences",
        subject={"label": label.to_record()},
        convention=DEFAULT_CONVENTION,
        environment={"q": label.d.q, "j_max": str(j_max), "tier1_tol": tols.tier1},
    )
    for row in check_recurrences(label, j_max):
        j = row["j"]
        rep.add(
            RelationResidual(
                f"rec.ladder.j={j}", row["residual_ladder"], 1.0, tols.tier1, 1, "coefficient"
            )
        )
        rep.add(
            RelationResidual(
                f"rec.norm.j={j}", row["residual_norm"], 1.0, tols.tier1, 1, "coefficient"
            )
        )
    return rep


# --------------------------------------------------------------------------
# classical oracle and limit comparison


@dataclass(frozen=True)
class ClassicalGeneratorSet:
    """Classical (undeformed) generator matrices built from the closed-form
    matrix elements with every bracket [x] replaced by x and every q-power
    by 1.  Completely independent of the deformed code paths: plain dense
    arrays, filled entry by entry."""

    basis: Basis
    l0: float
    l1: complex
    m_plus: np.ndarray
    m_minus: np.ndarray
    m3: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    n3: np.ndarray
    n3_tilde: np.ndarray
    casimir: np.ndarray

    def matrices(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in GENERATOR_PATTERNS}


def _classical_c(j: float, l0: float, l1: complex) -> complex:
    if j <= 0.0:
        return 0j
    rad = (j * j - l0 * l0) * (j * j - l1 * l1) / ((2 * j - 1.0) * (2 * j + 1.0))
    from .qarith import sqrt_principal

    return 1j / j * sqrt_principal(rad)


def classical_oracle(l0: HalfInt, l1: complex, j_max: HalfInt) -> ClassicalGeneratorSet:
    """Classical matrices: a_j = i l0 l1 / (j(j+1)), c_j from the classical
    square root, rotation elements sqrt((j-+m)(j+-m+1)).  Spin content mirrors
    the deformed case: full ladder for real l1 with |l1| - l0 a positive
    integer, truncated at j_max otherwise."""
    l1 = complex(l1)
    fl0 = float(l0)
    spins: Sequence[HalfInt]
    finite = False
    if abs(l1.imag) < 1e-12:
        span = abs(l1.real) - fl0
        n = round(span) - 1
        if n >= 0 and abs(span - (n + 1)) < 1e-9:
            finite = True
            spins = half_range(l0, l0 + n)
    if not finite:
        spins = half_range(l0, j_max)
    basis = Basis(spins=tuple(spins), j_max=None if finite else j_max)

    dim = basis.dim
    mats = {k: np.zeros((dim, dim), dtype=np.complex128) for k in
            ("m_plus", "m_minus", "m3", "n_plus", "n_minus", "n3")}

    def a_of(j: float) -> complex:
        if j == 0.0:
            return 0j
        return 1j * fl0 * l1 / (j * (j + 1.0))

    def c_of(j: HalfInt) -> complex:
        if j == l0:
            return 0j
        return _classical_c(float(j), fl0, l1)

    for j in basis.spins:
        fj = float(j)
        aj, cj, cj1 = a_of(fj), c_of(j), c_of(j + 1)
        for m in half_range(-j, j):
            col = basis.index(j, m)
            fm = float(m)
            mats["m3"][col, col] = fm
            if m < j:
                mats["m_plus"][basis.index(j, m + 1), col] = math.sqrt((fj - fm) * (fj + fm + 1))
            if -j < m:
                mats["m_minus"][basis.index(j, m - 1), col] = math.sqrt((fj + fm) * (fj - fm + 1))
            # raising boost
            if basis.has(j - 1, m + 1):
                mats["n_plus"][basis.index(j - 1, m + 1), col] += cj * math.sqrt(
                    (fj - fm) * (fj - fm - 1)
                )
            if basis.has(j, m + 1):
                mats["n_plus"][basis.index(j, m + 1), col] += -aj * math.sqrt(
                    (fj - fm) * (fj + fm + 1)
                )
            if basis.has(j + 1, m + 1):
                mats["n_plus"][basis.index(j + 1, m + 1), col] += cj1 * math.sqrt(
                    (fj + fm + 1) * (fj + fm + 2)
                )
            # lowering boost
            if basis.has(j - 1, m - 1):
                mats["n_minus"][basis.index(j - 1, m - 1), col] += -cj * math.sqrt(
                    (fj + fm) * (fj + fm - 1)
                )
            if basis.has(j, m - 1):
                mats["n_minus"][basis.index(j, m - 1), col] += -aj * math.sqrt(
                    (fj + fm) * (fj - fm + 1)
                )
            if basis.has(j + 1, m - 1):
                mats["n_minus"][basis.index(j + 1, m - 1), col] += -cj1 * math.sqrt(
                    (fj - fm + 1) * (fj - fm + 2)
                )
            # diagonal boost
            if basis.has(j - 1, m):
                mats["n3"][basis.index(j - 1, m), col] += cj * math.sqrt(
                    (fj - fm) * (fj + fm)
                )
            mats["n3"][col, col] += -aj * fm
            if basis.has(j + 1, m):
                mats["n3"][basis.index(j + 1, m), col] += -cj1 * math.sqrt(
                    (fj + fm + 1) * (fj - fm + 1)
                )

    # quadratic invariant, normalized to the deformed one: brute-force
    # evaluation shows the plain rotation-boost contraction M.N is scalar
    # with eigenvalue i l0 l1 / 2 in this coefficient normalization, so the
    # counterpart of the deformed invariant (eigenvalue i l0 l1) is -2 M.N
    cas = -(
        2.0 * mats["m3"] @ mats["n3"]
        + mats["m_plus"] @ mats["n_minus"]
        + mats["m_minus"] @ mats["n_plus"]
    )
    return ClassicalGeneratorSet(
        basis=basis,
        l0=fl0,
        l1=l1,
        n3_tilde=mats["n3"],
        casimir=cas,
        **mats,
    )


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
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError(f"eps must be in (0, 1e-3], got {eps}")
    oracle = classical_oracle(label_l0, label_l1, j_max)

    # Entrywise comparison covers the seven generators.  The invariant
    # matrix is left out: its assembly divides by q^(1/2) - q^(-1/2), which
    # amplifies roundoff as 1/eps near the classical point; its limit is
    # checked through the well-conditioned scalar i[l0][l1] instead.
    def deviations(e: float) -> dict[str, float]:
        lab = RepLabel(label_l0, label_l1, Deformation(1.0 + e))
        g = build_generator_set(lab, j_max, conv)
        out = {}
        for name, op in g.matrices().items():
            if name == "casimir":
                continue
            out[name] = float(np.max(np.abs(op.toarray() - oracle.matrices()[name])))
        out["casimir_scalar"] = abs(
            casimir_eigenvalue(lab) - 1j * float(label_l0) * complex(label_l1)
        )
        return out

    dev1 = deviations(eps)
    dev2 = deviations(eps / 10.0)
    tol = 100.0 * eps

    rep = VerificationReport(
        suite="classical_limit",
        subject={
            "label": {"l0": str(label_l0), "l1": {"re": label_l1.real, "im": label_l1.imag}},
            "dim": oracle.basis.dim,
        },
        convention=conv,
        environment={"eps": eps, "j_max": str(j_max), "deviation_tol": tol},
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


def _eq1_score(tri: SuQ2Triple, d: Deformation, conv: ConventionId) -> float:
    total = 0.0
    for tensor, name in zip(_st_vectors(tri, d, conv), "ST"):
        rep = check_tensor_operator(tri, tensor, d, name)
        total += sum(r.residual / r.scale for r in rep.residuals if r.tier == 1)
    return total


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

    Built once per call: the label's basis, rotations and lines 01/02; per
    consistent exponent reading only N+, N-, N3, N3~ and lines 03-10 and
    other1-3 (no invariant, no generator set), plus lines 04/05 for the
    swapped pairing; one spin-j triple; the two spinor chiral sets.
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
        c_scalar = casimir_eigenvalue(label)
        basis = build_basis(label, j_max if j_max is not None else label.l0 + 4)
        ops = dict(zip(("m_plus", "m_minus", "m3"), build_M(basis, label.d)))
        rotation_lines = _eq4_lines(ops, label.d, c_scalar, lines=_EQ4_LINES[:2])
        exponents = ("n_mid_exp", "n_down_dm", "n_first_shift", "n_third_shift")
        scored = []
        for values in itertools.product(*(options[f] for f in exponents)):
            reading = ConventionId(**dict(zip(exponents, values)))
            convs = [replace(reading, line45_swap=sw) for sw in options["line45_swap"]]
            try:
                _check_boost_steps(reading)
            except ConstructionInconsistencyError:
                scored += [(math.inf, conv) for conv in convs]
                continue
            ops.update(zip(("n_plus", "n_minus", "n3"), build_N(basis, label, reading)))
            ops["n3_tilde"] = build_N3_tilde(ops["n3"], basis, label.d)
            lines = {**rotation_lines, **_eq4_lines(ops, label.d, c_scalar, lines=_EQ4_LINES[2:])}
            for conv in convs:
                if conv.line45_swap:
                    lines.update(_eq4_lines(ops, label.d, c_scalar, 1, ("line04", "line05")))
                # summed in the suite's record order, so the float sum is the suite's
                scored.append((sum(r / s for r, s in lines.values()), conv))
        pick("boost_exponents", scored, exponents + ("line45_swap",))

    # axis group 2: vector-operator scalar prefactor
    if two_j is not None:
        tri = suq2_matrices(two_j, d)
        convs = [ConventionId(st_quarters=k) for k in options["st_quarters"]]
        pick("st_prefactor", [(_eq1_score(tri, d, c), c) for c in convs], ("st_quarters",))

    # axis group 3: coproduct grouplike for the lowering right generator,
    # scored on the mixed spinor product where the readings differ
    from .chiral import build_chiral, check_chiral_relations, coproduct, spinor_labels

    cs_tau, cs_taut = (build_chiral(build_generator_set(t, t.l0)) for t in spinor_labels(d))
    # both alive at once, so they share one weakly held ProductBasis and its index plans
    products = [
        coproduct(cs_tau, cs_taut, ConventionId(cop_r_grouplike=rg)) for rg in options["cop_r_grouplike"]
    ]
    scored = []
    for dc in products:
        rep = check_chiral_relations(dc)
        scored.append((sum(r.residual / r.scale for r in rep.residuals), dc.convention))
    pick("cop_r_grouplike", scored, ("cop_r_grouplike",))

    return ConventionId(**chosen), table
