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

import math
from dataclasses import dataclass
from typing import Optional

from .qarith import Deformation, HalfInt, half_range, q_number, sqrt_principal

__all__ = [
    "RepLabel",
    "Classification",
    "SingularCoefficientError",
    "classify",
    "coeff_a",
    "coeff_c",
    "coeff_window",
    "check_recurrences",
    "casimir_eigenvalue",
    "conjugate_partner",
]

# Relative tolerance for "is real / pure imaginary / integer" detection,
# measured against |l1|; absolute 1e-12 when |l1| < 1e-3.
REAL_DETECT_RTOL = 1e-9
REAL_DETECT_ATOL = 1e-12
_SMALL_L1 = 1e-3
# Past this |l1| the integer test's tolerance reaches 1/2 and accepts any span.
_MAX_REAL_L1 = 0.5 / REAL_DETECT_RTOL

# Entries reach [2 j] ~ q^(+-j) at spin j; products of two, and of the invariant
# (rounding noise near u q^(3j/2)) with one, overflow in the suites past ln q^(+-j) = 300.
_MAX_LOG_ENTRY = 300.0


def spin_limit(d: Deformation) -> float:
    """Largest spin whose matrix entries stay finite in the suites at q."""
    return _MAX_LOG_ENTRY / abs(math.log(d.q))


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

    kind is "finite" or "infinite"; finite classifications carry n, the top
    spin l0 + n and the dimension, and list their spin content on request.
    unitary is "principal", "complementary" or "non_unitary"; principal
    carries rho = Im l1.  degenerate flags the |l1| = l0 boundary (empty
    spin range), which is reported as infinite with a warning rather than
    rejected.
    """

    kind: str
    unitary: str
    n: Optional[int] = None
    top: Optional[HalfInt] = None
    dim: Optional[int] = None
    rho: Optional[float] = None
    degenerate: bool = False

    @property
    def spins(self) -> tuple[HalfInt, ...]:
        if self.kind != "finite":
            return ()
        return tuple(half_range(self.top - self.n, self.top))

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
    q -> 1/q by construction; only its range checks read |ln q|.

    Raises ValueError, before any spin is listed, for a real l1 too large
    for the test to tell an integer span from a half-integer one, for a
    finite label whose top spin is past `spin_limit` at its q, and for an
    infinite one whose |Re l1| is past twice that (its bracket [l1] would
    pass the largest [2j]).
    """
    l0, l1 = label.l0, label.l1
    tol = _detect_tol(l1)

    unitary = "non_unitary"
    rho: Optional[float] = None
    degenerate = False
    if _is_imaginary(l1):
        unitary = "principal"
        rho = l1.imag
    elif _is_real(l1) and l0.twice == 0 and 0.0 < abs(l1.real) <= 1.0 + tol:
        unitary = "complementary"

    if _is_real(l1):
        mag = abs(l1.real)
        if mag >= _MAX_REAL_L1:
            raise ValueError(
                f"|l1| = {mag:g} is too large to tell an integer |l1| - l0 from a half-integer one"
                f" (|l1| must be below {_MAX_REAL_L1:g})"
            )
        span = mag - float(l0)  # = n + 1 for finite labels
        n = round(span) - 1
        if abs(mag - float(l0)) <= max(tol, REAL_DETECT_ATOL):
            # |l1| = l0: empty spin range, untreated boundary.
            degenerate = True
        elif n >= 0 and abs(span - (n + 1)) <= max(tol, REAL_DETECT_ATOL):
            top = l0 + n  # highest spin |l1| - 1
            limit = spin_limit(label.d)
            if float(top) > limit:
                raise ValueError(f"spin {top} overflows at q = {label.d.q:g}: spins above {limit:.4g} are out of range")
            # blocks of 2 l0 + 1, 2 l0 + 3, ..., 2 l0 + 2 n + 1 states
            dim = (n + 1) * (l0.twice + n + 1)
            return Classification(kind="finite", unitary=unitary, n=n, top=top, dim=dim, rho=rho)
    # the boost entries of an infinite label grow as [l1] ~ q^(|Re l1| / 2)
    limit = 2 * spin_limit(label.d)
    if abs(l1.real) > limit:
        raise ValueError(f"|Re l1| = {abs(l1.real):g} overflows at q = {label.d.q:g}: above {limit:.4g} is out of range")
    return Classification(kind="infinite", unitary=unitary, rho=rho, degenerate=degenerate)


def coeff_a(j: HalfInt, label: RepLabel) -> complex:
    """Diagonal coupling a_j = i [l0][l1] / ([j][j+1]).

    At j = 0 (reachable only for l0 = 0) the closed form is 0/0; the value is
    fixed to 0, which is unobservable because every matrix element carrying
    a_0 also carries [m] = 0.  Callers that need many coefficients read them
    from `coeff_window`, which evaluates each bracket once.
    """
    if j.twice == 0:
        if label.l0.twice == 0:
            return 0j
        raise SingularCoefficientError(f"a_0 undefined for l0 = {label.l0} > 0")
    d = label.d
    return _a_value(q_number(label.l0, d), q_number(label.l1, d), q_number(j, d), q_number(j + 1, d))


def _a_value(l0b, l1b, jb, j1b) -> complex:
    """a_j from the brackets [l0], [l1], [j], [j+1]."""
    return 1j * l0b * l1b / (jb * j1b)


def coeff_c(j: HalfInt, label: RepLabel) -> complex:
    """Off-diagonal coupling c_j, with the principal branch on the full radicand.

    c_{l0} = 0 exactly (the [j]^2 - [l0]^2 factor vanishes), and for finite
    labels c_{|l1|} = 0 exactly, which is what terminates the spin ladder.
    j = 1/2 with l0 = 0 would divide by [2j-1] = 0 with a non-vanishing
    numerator and raises `SingularCoefficientError`; it labels no state of
    an l0 = 0 representation (integer spins only).
    """
    if j == label.l0:
        return 0j
    if j.twice == 1:  # [2j-1] = [0] = 0; numerator vanishes only via j = l0
        raise SingularCoefficientError(
            f"c_{{1/2}} singular for l0 = {label.l0}: [2j-1] = 0 with nonzero numerator"
        )
    d = label.d
    sq_l0, sq_l1 = q_number(label.l0, d) ** 2, q_number(label.l1, d) ** 2
    return _c_value(q_number(j, d), q_number(j + j - 1, d), q_number(j + j + 1, d), sq_l0, sq_l1)


def _c_value(jb, lo, hi, sq_l0, sq_l1) -> complex:
    """c_j from the brackets [j], [2j-1], [2j+1] and the squares [l0]^2, [l1]^2."""
    sq_j = jb * jb
    radicand = (sq_j - sq_l0) * (sq_j - sq_l1) / (lo * hi)
    return 1j / jb * sqrt_principal(radicand)


def coeff_window(label: RepLabel, top: HalfInt) -> tuple[list[complex], list[complex], dict[int, float], complex]:
    """a_j and c_j for j = l0 .. top, bitwise as `coeff_a`/`coeff_c` give
    them (a_0 = 0, c_l0 = 0), the brackets [x] they read, keyed by 2x, and
    [l1]: each bracket is evaluated by `q_number` once for the whole window."""
    d, t0 = label.d, label.l0.twice
    brackets: dict[int, float] = {}

    def br(k: int) -> float:
        if k not in brackets:
            brackets[k] = q_number(HalfInt(k), d)
        return brackets[k]

    twice = range(t0, top.twice + 1, 2)
    l0b, l1b = br(t0), q_number(label.l1, d)
    sq_l0, sq_l1 = l0b**2, l1b**2
    a = [0j if t == 0 else _a_value(l0b, l1b, br(t), br(t + 2)) for t in twice]
    c = [0j if t == t0 else _c_value(br(t), br(2 * t - 2), br(2 * t + 2), sq_l0, sq_l1) for t in twice]
    return a, c, brackets, l1b


def check_recurrences(label: RepLabel, j_max: HalfInt) -> list[dict]:
    """Evaluate both difference equations for j = l0 .. j_max by substitution.

    Returns one record per j with the absolute residuals of
    (a_{j+1}[j+2] - a_j[j]) c_{j+1}  and  c_j^2[2j-1] - a_j^2 - c_{j+1}^2[2j+3] - 1.
    This is a direct oracle for the closed-form coefficients: both residuals
    vanish identically in exact arithmetic, for every label.  Each record
    also carries the scale its rounding error grows with, the sum of its
    terms' magnitudes: (|a_{j+1}[j+2]| + |a_j[j]|) |c_{j+1}|  and
    |c_j^2[2j-1]| + |a_j^2| + |c_{j+1}^2[2j+3]| + 1.

    The coefficients and brackets come from one `coeff_window` up to
    j_max + 1.  At j = l0 = 0, a_0 is its closed-form limit i[l1]: the
    builders never observe a_0, but the second equation at j = 0 does, and
    [l0]/[j] -> 1 as both tend to [0].
    """
    if j_max < label.l0:
        raise ValueError(f"j_max = {j_max} below l0 = {label.l0}")
    d, t0 = label.d, label.l0.twice
    a, c, br, l1b = coeff_window(label, j_max + 1)
    if t0 == 0:
        a[0] = 1j * l1b
    if 2 * t0 - 2 not in br:  # [2 l0 - 1], read times c_l0 = 0 only
        br[2 * t0 - 2] = q_number(HalfInt(2 * t0 - 2), d)
    out = []
    for k, t in enumerate(range(t0, j_max.twice + 1, 2)):
        a_j, a_next, c_j, c_next = a[k], a[k + 1], c[k], c[k + 1]
        up, down = a_next * br[t + 4], a_j * br[t]
        inner, aa, outer = c_j * c_j * br[2 * t - 2], a_j * a_j, c_next * c_next * br[2 * t + 6]
        out.append(
            {
                "j": str(HalfInt(t)),
                "residual_ladder": abs((up - down) * c_next),
                "residual_norm": abs(inner - aa - outer - 1.0),
                "scale_ladder": (abs(up) + abs(down)) * abs(c_next),
                "scale_norm": abs(inner) + abs(aa) + abs(outer) + 1.0,
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
