"""Representation labels, series classification, and the coefficient engine.

A representation is labelled by (l0, l1, q): l0 a non-negative half-integer
(minimal spin), l1 a complex parameter, q the deformation.  The label decides

* finite vs infinite: finite exactly when l1 is real and |l1| - l0 is a
  positive integer, with spin content j = l0, l0+1, ..., |l1|-1 and dimension
  l1^2 - l0^2;
* the unitary series: principal (l1 pure imaginary, any l0) or complementary
  (l0 = 0, l1 real, 0 < |l1| <= 1), else non-unitary.

The off/on-diagonal coupling coefficients are

    a_j = i [l0][l1] / ([j][j+1])
    c_j = (i/[j]) sqrt( ([j]^2 - [l0]^2)([j]^2 - [l1]^2) / ([2j-1][2j+1]) )

and satisfy, identically in j for every label,

    (a_{j+1}[j+2] - a_j[j]) c_{j+1} = 0
    c_j^2 [2j-1] - a_j^2 - c_{j+1}^2 [2j+3] = 1

which `check_recurrences` evaluates as a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .qarith import Deformation, HalfInt, QNumbers, half_range, q_number, sqrt_principal

__all__ = [
    "RepLabel",
    "Classification",
    "SingularCoefficientError",
    "classify",
    "coeff_a",
    "coeff_c",
    "check_recurrences",
    "casimir_eigenvalue",
    "conjugate_partner",
]

# Relative tolerance for "is real / pure imaginary / integer" detection,
# measured against |l1|; absolute 1e-12 when |l1| < 1e-3.
REAL_DETECT_RTOL = 1e-9
REAL_DETECT_ATOL = 1e-12
_SMALL_L1 = 1e-3


class SingularCoefficientError(ValueError):
    """A coupling coefficient hit a genuine 0/0-free pole ([2j-1] = 0 with
    non-vanishing numerator)."""


@dataclass(frozen=True)
class RepLabel:
    """The pair (l0, l1) plus deformation q identifying a representation."""

    l0: HalfInt
    l1: complex
    d: Deformation

    def __post_init__(self):
        if self.l0.twice < 0:
            raise ValueError(f"l0 must be >= 0, got {self.l0}")
        object.__setattr__(self, "l1", complex(self.l1))

    def to_record(self) -> dict:
        return {
            "l0": str(self.l0),
            "l1": {"re": self.l1.real, "im": self.l1.imag},
            "q": self.d.q,
        }

    @staticmethod
    def from_record(rec: dict) -> "RepLabel":
        return RepLabel(
            HalfInt.parse(rec["l0"]),
            complex(rec["l1"]["re"], rec["l1"]["im"]),
            Deformation(rec["q"]),
        )

    def __str__(self) -> str:
        return f"(l0={self.l0}, l1={self.l1}, {self.d})"


def _detect_tol(l1: complex) -> float:
    mag = abs(l1)
    if mag < _SMALL_L1:
        return REAL_DETECT_ATOL
    return REAL_DETECT_RTOL * mag


def _is_real(l1: complex) -> bool:
    return abs(l1.imag) <= _detect_tol(l1)


def _is_imaginary(l1: complex) -> bool:
    return abs(l1.real) <= _detect_tol(l1)


@dataclass(frozen=True)
class Classification:
    """Series classification of a label.

    kind is "finite" or "infinite"; finite classifications carry the spin
    content and dimension.  unitary is "principal", "complementary" or
    "non_unitary"; principal carries rho = Im l1.  degenerate flags the
    |l1| = l0 boundary (empty spin range), which is reported as infinite
    with a warning rather than rejected.
    """

    kind: str
    unitary: str
    n: Optional[int] = None
    spins: tuple[HalfInt, ...] = field(default_factory=tuple)
    dim: Optional[int] = None
    rho: Optional[float] = None
    degenerate: bool = False

    def to_record(self) -> dict:
        rec: dict = {"kind": self.kind, "unitary": self.unitary}
        if self.kind == "finite":
            rec["n"] = self.n
            rec["spins"] = [str(j) for j in self.spins]
            rec["dim"] = self.dim
        if self.unitary == "principal":
            rec["rho"] = self.rho
        if self.degenerate:
            rec["degenerate"] = True
        return rec


def classify(label: RepLabel) -> Classification:
    """Classify a label into finite/infinite and its unitary series.

    The finiteness test uses the real form |l1| = l0 + n + 1 (for real q > 0
    the q-number is injective on the reals, so the q-squared form reduces to
    it).  The classification never depends on q, so it is stable under
    q -> 1/q by construction.
    """
    l0, l1 = label.l0, label.l1
    tol = _detect_tol(l1)

    unitary = "non_unitary"
    rho: Optional[float] = None
    if _is_imaginary(l1):
        unitary = "principal"
        rho = l1.imag
    elif _is_real(l1) and l0.twice == 0 and 0.0 < abs(l1.real) <= 1.0 + tol:
        unitary = "complementary"

    if _is_real(l1):
        mag = abs(l1.real)
        span = mag - float(l0)  # = n + 1 for finite labels
        if abs(mag - float(l0)) <= max(tol, REAL_DETECT_ATOL):
            # |l1| = l0: empty spin range, untreated boundary.
            return Classification(kind="infinite", unitary=unitary, rho=rho, degenerate=True)
        n = round(span) - 1
        if n >= 0 and abs(span - (n + 1)) <= max(tol, REAL_DETECT_ATOL):
            top = l0 + n  # highest spin |l1| - 1
            spins = tuple(half_range(l0, top))
            dim = sum(j.twice + 1 for j in spins)
            return Classification(
                kind="finite", unitary=unitary, n=n, spins=spins, dim=dim, rho=rho
            )
    return Classification(kind="infinite", unitary=unitary, rho=rho)


def _brackets(label: RepLabel, qn: Optional[QNumbers]) -> QNumbers:
    if qn is None:
        return QNumbers(label.d)
    if qn.d != label.d:
        raise ValueError(f"q-numbers at {qn.d}, label at {label.d}")
    return qn


def coeff_a(j: HalfInt, label: RepLabel, qn: Optional[QNumbers] = None) -> complex:
    """Diagonal coupling a_j = i [l0][l1] / ([j][j+1]).

    At j = 0 (reachable only for l0 = 0) the closed form is 0/0; the value is
    fixed to 0, which is unobservable because every matrix element carrying
    a_0 also carries [m] = 0.  Callers that need many coefficients at one q
    pass one `QNumbers`, so each bracket is evaluated once.
    """
    if j.twice == 0:
        if label.l0.twice == 0:
            return 0j
        raise SingularCoefficientError(f"a_0 undefined for l0 = {label.l0} > 0")
    qn = _brackets(label, qn)
    num = 1j * qn[label.l0] * qn[label.l1]
    return num / (qn[j] * qn[j + 1])


def coeff_c(j: HalfInt, label: RepLabel, qn: Optional[QNumbers] = None) -> complex:
    """Off-diagonal coupling c_j, with the principal branch on the full radicand.

    c_{l0} = 0 exactly (the [j]^2 - [l0]^2 factor vanishes), and for finite
    labels c_{|l1|} = 0 exactly, which is what terminates the spin ladder.
    j = 1/2 with l0 = 0 would divide by [2j-1] = 0 with a non-vanishing
    numerator and raises `SingularCoefficientError`; it labels no state of
    an l0 = 0 representation (integer spins only).  qn as for `coeff_a`.
    """
    if j == label.l0:
        return 0j
    if j.twice == 1:  # [2j-1] = [0] = 0; numerator vanishes only via j = l0
        raise SingularCoefficientError(
            f"c_{{1/2}} singular for l0 = {label.l0}: [2j-1] = 0 with nonzero numerator"
        )
    qn = _brackets(label, qn)
    jj = qn[j]
    sq_j = jj * jj
    sq_l0 = qn[label.l0] ** 2
    sq_l1 = qn[label.l1] ** 2
    radicand = (sq_j - sq_l0) * (sq_j - sq_l1) / (qn[j + j - 1] * qn[j + j + 1])
    return 1j / jj * sqrt_principal(radicand)


def _boundary_a(j: HalfInt, label: RepLabel, qn: QNumbers) -> complex:
    """a_j with the j = l0 = 0 case taken as its closed-form limit i[l1].

    The matrix builders never observe a_0, but the second difference equation
    at j = 0 does; the limit [l0]/[j] -> 1 as both tend to [0] is the value
    under which the closed form satisfies it identically.
    """
    if j.twice == 0 and label.l0.twice == 0:
        return 1j * qn[label.l1]
    return coeff_a(j, label, qn)


def check_recurrences(label: RepLabel, j_max: HalfInt) -> list[dict]:
    """Evaluate both difference equations for j = l0 .. j_max by substitution.

    Returns one record per j with the absolute residuals of
    (a_{j+1}[j+2] - a_j[j]) c_{j+1}  and  c_j^2[2j-1] - a_j^2 - c_{j+1}^2[2j+3] - 1.
    This is a direct oracle for the closed-form coefficients: both residuals
    vanish identically in exact arithmetic, for every label.
    """
    if j_max < label.l0:
        raise ValueError(f"j_max = {j_max} below l0 = {label.l0}")
    qn = QNumbers(label.d)
    # each coefficient once: a_j and a_{j+1}, c_j and c_{j+1} of the window
    spins = half_range(label.l0, j_max + 1)
    a = [_boundary_a(spins[0], label, qn)] + [coeff_a(j, label, qn) for j in spins[1:]]
    c = [coeff_c(j, label, qn) for j in spins]
    out = []
    for k, j in enumerate(spins[:-1]):
        a_j, a_next, c_j, c_next = a[k], a[k + 1], c[k], c[k + 1]
        lhs1 = (a_next * qn[j + 2] - a_j * qn[j]) * c_next
        lhs2 = c_j * c_j * qn[j + j - 1] - a_j * a_j - c_next * c_next * qn[j + j + 3]
        out.append(
            {
                "j": str(j),
                "residual_ladder": abs(lhs1),
                "residual_norm": abs(lhs2 - 1.0),
            }
        )
    return out


def casimir_eigenvalue(label: RepLabel) -> complex:
    """Scalar i [l0][l1] by which the quadratic invariant acts on the representation."""
    return 1j * q_number(label.l0, label.d) * q_number(label.l1, label.d)


def conjugate_partner(label: RepLabel) -> RepLabel:
    """The adjoint-partner label (l0, -conj(l1)) at the same q.

    Principal-series labels are their own partner; real-l1 labels pair with
    the sign-flipped l1 (the two 2-dimensional spinor representations pair
    with each other).
    """
    return RepLabel(label.l0, -label.l1.conjugate(), label.d)
