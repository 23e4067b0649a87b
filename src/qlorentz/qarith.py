"""Scalar foundation: exact half-integers, symmetric q-numbers, branch-controlled roots.

All spin bookkeeping (j, m, l0, truncation bounds) is done with exact
half-integer arithmetic; floating point enters only through the deformation
parameter q and the q-number evaluation.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import total_ordering

__all__ = [
    "HalfInt",
    "Deformation",
    "q_number",
    "sqrt_principal",
    "half_range",
]

_Q_ONE_GAP = 1e-12


@total_ordering
@dataclass(frozen=True)
class HalfInt:
    """An exact integer or half-integer, stored as twice its value.

    HalfInt(3) is 3/2, HalfInt.from_int(2) is 2.  Supports the arithmetic the
    index logic needs (add/sub with HalfInt or int, comparisons, hashing);
    nothing here ever rounds through a float.
    """

    twice: int

    def __post_init__(self):
        if type(self.twice) is int:  # the common case, without the ABC check
            return
        if isinstance(self.twice, bool) or not isinstance(self.twice, numbers.Integral):
            raise TypeError(f"HalfInt.twice must be an integer, got {type(self.twice).__name__}")
        object.__setattr__(self, "twice", int(self.twice))

    @staticmethod
    def from_int(n: int) -> "HalfInt":
        return HalfInt(2 * n)

    @staticmethod
    def parse(s: str) -> "HalfInt":
        """Parse "k" (integer) or "k/2" (odd half-integer), e.g. "3/2", "-2"."""
        text = s.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                if den.strip() != "2":
                    raise ValueError
                return HalfInt(int(num))
            return HalfInt(2 * int(text))
        except ValueError:
            raise ValueError(f"not a half-integer: {s!r} (expected 'k' or 'k/2')") from None

    # -- arithmetic ---------------------------------------------------------

    def _twice_of(self, other) -> int:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return NotImplemented

    def __add__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else HalfInt(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else HalfInt(self.twice - t)

    def __rsub__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else HalfInt(t - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __eq__(self, other) -> bool:
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else self.twice == t

    def __lt__(self, other) -> bool:
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else self.twice < t

    def __hash__(self) -> int:
        return hash(("HalfInt", self.twice))

    # -- views --------------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def half_range(lo: HalfInt, hi: HalfInt) -> list[HalfInt]:
    """Inclusive list lo, lo+1, ..., hi (unit steps; empty if hi < lo)."""
    return [HalfInt(t) for t in range(lo.twice, hi.twice + 1, 2)]


@dataclass(frozen=True)
class Deformation:
    """Deformation parameter q > 0, q != 1, with the derived scalars used everywhere.

    delta = q^(1/2) - q^(-1/2) carries the sign of q - 1; alpha = delta / 2.
    q = 1 is rejected: the classical point is served by the dedicated
    classical oracle, not by a removable-singularity evaluation.
    """

    q: float

    def __post_init__(self):
        q = self.q
        if not (isinstance(q, (int, float)) and math.isfinite(q)):
            raise ValueError(f"q must be a finite real number, got {q!r}")
        if q <= 0.0:
            raise ValueError(f"q must be positive, got {q}")
        if abs(q - 1.0) <= _Q_ONE_GAP:
            raise ValueError(f"q too close to 1 (|q-1| <= {_Q_ONE_GAP}); use the classical oracle")
        object.__setattr__(self, "q", float(q))

    @property
    def delta(self) -> float:
        # equal to sqrt(q) - 1/sqrt(q); the sinh form avoids cancellation
        # near q = 1
        return 2.0 * math.sinh(0.5 * math.log(self.q))

    @property
    def alpha(self) -> float:
        return self.delta / 2.0

    def inverse(self) -> "Deformation":
        return Deformation(1.0 / self.q)

    def __str__(self) -> str:
        return f"q={self.q:.17g}"


def q_number(a, d: Deformation):
    """Symmetric q-number [a] = (q^(a/2) - q^(-a/2)) / (q^(1/2) - q^(-1/2)).

    Accepts HalfInt, real, or complex a; complex arguments are evaluated by
    analytic continuation q^(a/2) = exp((a/2) ln q), which keeps [i*rho] pure
    imaginary for real rho.  Returns float for real input, complex otherwise.
    Odd in a, invariant under q -> 1/q, and [a] -> a as q -> 1.

    Evaluated as sinh(a u/2) / sinh(u/2) with u = ln q: the explicit
    power-difference form cancels catastrophically near q = 1, where this
    form stays accurate to machine precision.
    """
    if isinstance(a, HalfInt):
        a = a.twice / 2.0
    half_log_q = 0.5 * math.log(d.q)
    den = math.sinh(half_log_q)
    if isinstance(a, complex):
        return cmath.sinh(a * half_log_q) / den
    return math.sinh(a * half_log_q) / den


def sqrt_principal(z) -> complex:
    """Principal complex square root: Re >= 0, negative reals map to +i*sqrt|z|.

    Accepts real or complex input, always returns complex.  Using one branch
    for every radicand makes the per-j phase of derived coefficients a fixed,
    reportable convention.
    """
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if x >= 0.0:
            return complex(math.sqrt(x), 0.0)
        return complex(0.0, math.sqrt(-x))
    return cmath.sqrt(z)
