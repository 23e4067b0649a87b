"""Explicit generator matrices on the (j, m) ladder basis.

Builds the matrices of the seven generators: the rotation triple M+, M-,
M3 (a deformed su(2) subalgebra, block-diagonal in j), the boosts N+, N-, N3
and the second diagonal boost N3-tilde (block-tridiagonal in j), and the
quadratic invariant.  Also builds the deformed-rotation realization (boosts
proportional to rotations on a single spin block), the two rank-1 tensor
operators S and T, and Kronecker embeddings for tensor products.

Every column of a generator couples to at most three (delta_j, delta_m)
steps, so an `OperatorMatrix` stores one value row of length dim per step
and runs products, sums and adjoints in O(dim * steps^2) numpy work; a
dim x dim array exists only where a caller asks for `toarray()`.

Matrix actions, column (j, m) -> rows:

  M+ : sqrt([j-m][j+m+1]) q^(-1/4) q^(-m/2)              -> (j, m+1)
  M- : sqrt([j+m][j-m+1]) q^(-1/4) q^(+m/2)              -> (j, m-1)
  M3 : m                                                  -> (j, m)
  N+ : +c_j    sqrt([j-m][j-m-1])   q^(-1/4) q^(-(j+m)/2) -> (j-1, m+1)
       -a_j    sqrt([j-m][j+m+1])   q^(-1/4) q^(-m/2)     -> (j,   m+1)
       +c_{j+1} sqrt([j+m+1][j+m+2]) q^(+1/4) q^(+(j-m)/2) -> (j+1, m+1)
  N- : -c_j    sqrt([j+m][j+m-1])   q^(-1/4) q^(-(j-m)/2) -> (j-1, m-1)
       -a_j    sqrt([j+m][j-m+1])   q^(-1/4) q^(+m/2)     -> (j,   m-1)
       -c_{j+1} sqrt([j-m+1][j-m+2]) q^(+1/4) q^(+(j+m)/2) -> (j+1, m-1)
  N3 : +c_j    sqrt([j-m][j+m])     q^(-m/2)              -> (j-1, m)
       -a_j    [m]                  q^(-m/2)              -> (j,   m)
       -c_{j+1} sqrt([j+m+1][j-m+1]) q^(-m/2)              -> (j+1, m)
  N3~: the N3 terms with q^(+m/2) in place of q^(-m/2), i.e. q^(M3) N3

Ambiguous readings of the source exponents (the sign of the diagonal-term
m/2 power, the quarter-power shifts on the j+-1 terms, and the m-shift of
the j-1 target) are catalogued in `ConventionId`; the defaults above are the
readings under which every defining relation closes to machine precision.
"""

from __future__ import annotations

import math
import os
import re
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .qarith import Deformation, HalfInt, half_range, q_number
from .repcore import RepLabel, casimir_eigenvalue, classify, coeff_a, coeff_c

__all__ = [
    "Basis",
    "ProductBasis",
    "OperatorMatrix",
    "ConventionId",
    "GeneratorSet",
    "SuQ2Triple",
    "TensorOperator",
    "ConstructionInconsistencyError",
    "build_basis",
    "build_M",
    "build_N",
    "build_N3_tilde",
    "build_casimir_matrix",
    "build_generator_set",
    "suq2_matrices",
    "build_from_suq2",
    "build_ST_vectors",
    "tensor_embed",
    "diag_from_m",
    "pattern_violation",
    "export_matrix",
    "import_matrix",
    "export_generator_set",
    "import_generator_set",
    "GENERATOR_PATTERNS",
]


class ConstructionInconsistencyError(RuntimeError):
    """The chosen convention's boost terms break their selection rule, so it
    is inconsistent with the algebra."""


# --------------------------------------------------------------------------
# bases and their steps


class _Grid:
    """Step bookkeeping shared by `Basis` and `ProductBasis`.

    A step is a tuple of ints that moves every state to another one (or out
    of the basis).  The rows a step reaches and the index plans of the
    operator algebra are computed once per instance and kept in its `_cache`.
    """

    def _cached(self, key, make):
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = make()
        return val

    def rows(self, step: tuple) -> np.ndarray:
        """Row reached from each column by `step`; -1 where it leaves the basis."""

        def make():
            rows = self._target(step)
            rows.setflags(write=False)
            return rows

        return self._cached(("rows", step), make)

    def _row_stack(self, steps: tuple) -> np.ndarray:
        return self._cached(("stack", steps), lambda: np.stack([self.rows(s) for s in steps]))

    def product(self, other: "_Grid") -> "ProductBasis":
        """The tensor product basis self x other, one instance per pair while in
        use.  Held weakly: it refers back to self, and a strong entry would be
        a cycle keeping both bases and their plans until the cyclic gc runs."""
        ref = self._cache.get(("x", id(other)))
        prod = ref() if ref is not None else None
        if prod is None:
            prod = ProductBasis(self, other)
            self._cache[("x", id(other))] = weakref.ref(prod)
        return prod

    def _sum_plan(self, sa: tuple, sb: tuple) -> tuple[tuple, np.ndarray]:
        """Steps of a sum (those of `sa`, then the new ones of `sb`) and the
        positions of `sb` among them."""

        def make():
            steps = sa + tuple(s for s in sb if s not in sa)
            return steps, np.array([steps.index(s) for s in sb])

        return self._cached(("+", sa, sb), make)

    def _product_plan(self, sa: tuple, sb: tuple):
        """Index plan of a product A @ B: pair (ia, ib) lands on step
        sa[ia] + sb[ib]; pairs are ordered by that step for `reduceat`."""

        def make():
            sums = [tuple(x + y for x, y in zip(a, b)) for a in sa for b in sb]
            steps = tuple(sorted(set(sums)))
            group = np.array([steps.index(s) for s in sums])
            order = np.argsort(group, kind="stable")
            starts = np.searchsorted(group[order], np.arange(len(steps)))
            gather = np.maximum(self._row_stack(sb), 0)  # B's values are 0 where its rows are -1
            return steps, order, starts, gather

        return self._cached(("@", sa, sb), make)


@dataclass(frozen=True)
class Basis(_Grid):
    """Ordered (j, m) index set: ascending j blocks, m = -j..j inside each.

    j2[i], m2[i] are twice the j and m of state i; starts[k] is the index of
    the first state of block spins[k].  Steps are (delta_j, delta_m).
    """

    spins: tuple[HalfInt, ...]
    j_max: Optional[HalfInt] = None
    j2: np.ndarray = field(init=False, repr=False, compare=False)
    m2: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    zero_step = (0, 0)

    def __post_init__(self):
        if not self.spins:
            raise ValueError("basis needs at least one spin block")
        for a, b in zip(self.spins, self.spins[1:]):
            if b.twice - a.twice != 2:
                raise ValueError("spin blocks must ascend in unit steps")
        sizes = np.array([j.twice + 1 for j in self.spins], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        j2 = np.repeat(sizes - 1, sizes)
        m2 = 2 * (np.arange(int(sizes.sum())) - np.repeat(starts, sizes)) - j2
        for name, arr in (("j2", j2), ("m2", m2), ("starts", starts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return len(self.j2)

    @property
    def truncated(self) -> bool:
        return self.j_max is not None

    def has(self, j: HalfInt, m: HalfInt) -> bool:
        k2 = j.twice - self.spins[0].twice
        return 0 <= k2 < 2 * len(self.spins) and k2 % 2 == 0 and abs(m.twice) <= j.twice

    def index(self, j: HalfInt, m: HalfInt) -> int:
        if not self.has(j, m):
            raise KeyError(f"no state (j, m) = ({j}, {m})")
        return int(self.starts[(j.twice - self.spins[0].twice) // 2]) + (m.twice + j.twice) // 2

    def locate(self, tj2: np.ndarray, tm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized `has`/`index` on twice-(j, m) arrays: (valid, rows),
        with rows = -1 where the state is not in the basis."""
        k2 = tj2 - self.spins[0].twice
        valid = (k2 >= 0) & (k2 < 2 * len(self.spins)) & (k2 % 2 == 0) & (np.abs(tm2) <= tj2)
        rows = self.starts[np.where(valid, k2 // 2, 0)] + (tm2 + tj2) // 2
        return valid, np.where(valid, rows, -1)

    def _target(self, step: tuple) -> np.ndarray:
        dj, dm = step
        return self.locate(self.j2 + 2 * dj, self.m2 + 2 * dm)[1]

    def step_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(n, 2) steps leading from cols to rows."""
        return np.stack(((self.j2[rows] - self.j2[cols]) // 2, (self.m2[rows] - self.m2[cols]) // 2), axis=1)

    def interior_columns(self, order: int) -> np.ndarray:
        """Boolean column mask exact under truncation for an `order`-fold
        generator product (each factor moves j by at most one block)."""
        if self.truncated:
            return self.j2 <= self.j_max.twice - 2 * order
        return np.ones(self.dim, dtype=bool)


@dataclass(frozen=True)
class ProductBasis(_Grid):
    """Tensor product of two bases: state (ra, rb) is row ra * b.dim + rb, and
    a step is a step of `a` followed by a step of `b`."""

    a: _Grid
    b: _Grid

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return self.a.dim * self.b.dim

    @property
    def zero_step(self) -> tuple:
        return self.a.zero_step + self.b.zero_step

    def _target(self, step: tuple) -> np.ndarray:
        k = len(self.a.zero_step)
        ra, rb = self.a.rows(step[:k])[:, None], self.b.rows(step[k:])[None, :]
        return np.where((ra >= 0) & (rb >= 0), ra * self.b.dim + rb, -1).ravel()

    def step_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        n = self.b.dim
        return np.hstack((self.a.step_of(rows // n, cols // n), self.b.step_of(rows % n, cols % n)))


# Entries reach [2 j] ~ q^(+-j) at spin j; products of two, and of the invariant
# (rounding noise near u q^(3j/2)) with one, overflow in the suites past ln q^(+-j) = 300.
_MAX_LOG_ENTRY = 300.0


def build_basis(label: RepLabel, j_max: HalfInt) -> Basis:
    """Basis for a label: full spin content if finite, l0..j_max if infinite;
    spins whose entries would overflow in the suites raise before any allocation."""
    if j_max < label.l0:
        raise ValueError(f"j_max = {j_max} below l0 = {label.l0}")
    cls = classify(label)
    top = cls.spins[-1] if cls.kind == "finite" else j_max
    q = label.d.q
    limit = _MAX_LOG_ENTRY / abs(math.log(q))
    if float(top) > limit:
        if cls.kind == "finite" or limit < float(label.l0):
            raise ValueError(f"spin {top} overflows at q = {q:g}: spins above {limit:.4g} are out of range")
        largest = label.l0 + math.floor(limit - float(label.l0))
        raise ValueError(f"j_max = {j_max} overflows at q = {q:g}: the largest valid j_max is {largest}")
    if cls.kind == "finite":
        return Basis(spins=cls.spins)
    return Basis(spins=tuple(half_range(label.l0, j_max)), j_max=j_max)


# --------------------------------------------------------------------------
# generator names and their (delta_j, delta_m) selection rules

GENERATOR_PATTERNS: dict[str, frozenset[tuple[int, int]]] = {
    "m_plus": frozenset({(0, 1)}),
    "m_minus": frozenset({(0, -1)}),
    "m3": frozenset({(0, 0)}),
    "n_plus": frozenset({(-1, 1), (0, 1), (1, 1)}),
    "n_minus": frozenset({(-1, -1), (0, -1), (1, -1)}),
    "n3": frozenset({(-1, 0), (0, 0), (1, 0)}),
    "n3_tilde": frozenset({(-1, 0), (0, 0), (1, 0)}),
    "casimir": frozenset({(-1, 0), (0, 0), (1, 0)}),
}


# --------------------------------------------------------------------------
# operators stored by step


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Read-only matrix stored as one complex128 value row per step.

    data[s, c] is the entry in column c at row basis.rows(steps[s])[c]; it is
    exactly 0 where that row lies outside the basis.  Distinct steps reach
    distinct rows, so every entry of the matrix is one stored value, and the
    algebra below costs O(dim * steps^2) with no dim x dim array.
    """

    basis: _Grid
    steps: tuple
    data: np.ndarray

    def __post_init__(self):
        steps = tuple(self.steps)
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if not steps:
            steps, arr = (self.basis.zero_step,), np.zeros((1, self.basis.dim), dtype=np.complex128)
        if arr.shape != (len(steps), self.basis.dim) or len(set(steps)) != len(steps):
            raise ValueError(f"{arr.shape} values for {len(steps)} steps on dim {self.basis.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "data", arr)

    @staticmethod
    def diagonal(basis: _Grid, values) -> "OperatorMatrix":
        """The diagonal matrix with the given entries (a scalar fills it)."""
        return OperatorMatrix(basis, (basis.zero_step,), np.full((1, basis.dim), values, dtype=np.complex128))

    @staticmethod
    def from_entries(basis: _Grid, rows, cols, vals) -> "OperatorMatrix":
        """Matrix with entry vals[i] at (rows[i], cols[i]); each distinct step
        of the entries gets a value row (a later duplicate entry wins)."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        uniq, inverse = np.unique(basis.step_of(rows, cols), axis=0, return_inverse=True)
        data = np.zeros((len(uniq), basis.dim), dtype=np.complex128)
        data[inverse.ravel(), cols] = vals
        return OperatorMatrix(basis, tuple(map(tuple, uniq.tolist())), data)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.data)))

    def masked_max(self, mask: np.ndarray) -> float:
        """Largest |entry| in the columns where `mask` is true."""
        sub = self.data[:, mask]
        return float(np.max(np.abs(sub))) if sub.size else 0.0

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the nonzero entries in row-major order."""
        nz = self.data != 0
        rows, cols = self.basis._row_stack(self.steps)[nz], np.nonzero(nz)[1]
        order = np.argsort(rows * self.dim + cols)
        return rows[order], cols[order], self.data[nz][order]

    def toarray(self) -> np.ndarray:
        """The dense dim x dim array (O(dim^2) memory: small operands only)."""
        rows = self.basis._row_stack(self.steps)
        valid = rows >= 0
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[rows[valid], np.nonzero(valid)[1]] = self.data[valid]
        return out

    def dagger(self) -> "OperatorMatrix":
        """Conjugate transpose: step s becomes -s, read back along -s."""
        steps = tuple(tuple(-x for x in s) for s in self.steps)
        rows = self.basis._row_stack(steps)
        vals = np.take_along_axis(self.data, np.maximum(rows, 0), axis=1)
        return OperatorMatrix(self.basis, steps, np.where(rows >= 0, vals.conj(), 0))

    def _basis_with(self, other: "OperatorMatrix") -> _Grid:
        if other.basis is not self.basis and other.basis != self.basis:
            raise ValueError("operators on different bases")
        return self.basis

    def _combine(self, other, ufunc) -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        basis = self._basis_with(other)
        if self.steps == other.steps:
            return OperatorMatrix(basis, self.steps, ufunc(self.data, other.data))
        steps, pos = basis._sum_plan(self.steps, other.steps)
        # entries missing from one operand are its exact zeros, as in a dense sum
        a, b = np.zeros((2, len(steps), basis.dim), dtype=np.complex128)
        a[: len(self.steps)] = self.data
        b[pos] = other.data
        return OperatorMatrix(basis, steps, ufunc(a, b))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        if isinstance(scalar, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix(self.basis, self.steps, self.data * scalar)

    def __rmul__(self, scalar):
        if isinstance(scalar, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix(self.basis, self.steps, scalar * self.data)

    def __truediv__(self, scalar):
        if isinstance(scalar, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix(self.basis, self.steps, self.data / scalar)

    def __matmul__(self, other):
        """(A @ B)[:, c] sums A's column at each row B reaches from c, so the
        pair (sa, sb) contributes A[sa, rows_sb] * B[sb] to step sa + sb."""
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        basis = self._basis_with(other)
        steps, order, starts, gather = basis._product_plan(self.steps, other.steps)
        terms = (self.data[:, gather] * other.data).reshape(-1, basis.dim)[order]
        if len(starts) < len(order):
            terms = np.add.reduceat(terms, starts, axis=0)
        return OperatorMatrix(basis, steps, terms)


def pattern_violation(op: OperatorMatrix, pattern: frozenset, basis: Basis) -> float:
    """Largest |entry| outside the (delta_j, delta_m) steps of `pattern` on
    `basis` (0.0 for clean matrices); O(nnz)."""
    if op.basis != basis:
        raise ValueError("operator is not on the given basis")
    off = [s not in pattern for s in op.steps]
    if not any(off):
        return 0.0
    vals = op.data[off]
    worst = int(np.argmax(np.abs(vals)))
    # np.abs and the scalar abs of a complex may differ in the last bit;
    # the reported magnitude is the scalar one
    return abs(complex(vals.flat[worst]))


def _gather(f: Callable[[int], complex], keys: np.ndarray, dtype=np.float64) -> np.ndarray:
    """f(k) for every entry of a small-int array, called once per k of the
    arithmetic progression from keys.min() to keys.max() that holds them all
    (keys of one parity, such as twice-m, step by 2)."""
    if not keys.size:
        return np.zeros(0, dtype=dtype)
    lo = int(keys.min())
    stride = int(np.gcd.reduce(keys - lo)) or 1
    table = np.array([f(k) for k in range(lo, int(keys.max()) + 1, stride)], dtype=dtype)
    return table[(keys - lo) // stride]


def diag_from_m(basis: Basis, f: Callable[[HalfInt], complex]) -> OperatorMatrix:
    """Diagonal matrix with entry f(m) on state (j, m), evaluated spectrally."""
    return OperatorMatrix.diagonal(basis, _gather(lambda t: f(HalfInt(t)), basis.m2, np.complex128))


# --------------------------------------------------------------------------
# conventions

@dataclass(frozen=True)
class ConventionId:
    """Enumerated readings of the ambiguous exponents and pairings.

    n_mid_exp      0: diagonal boost term carries q^(-+ m/2)   1: q^(+- m/2)
    n_down_dm      0: the j-1 boost term shifts m by +-1       1: leaves m fixed
    n_first_shift  quarter-power on the j-1 term: 0: -1/4, 1: 0, 2: +1/4
    n_third_shift  quarter-power on the j+1 term: 0: +1/4, 1: 0, 2: -1/4
    st_quarters    scalar prefactor exponent of S/T in quarter units (default 1)
    line45_swap    0: diagonal boosts pair as printed in the algebra's two
                      single-boost lines, 1: swapped pairing
    cop_r_grouplike 0: the coproduct of the lowering right-chiral generator
                      uses the left grouplike (as printed), 1: the right one
    """

    n_mid_exp: int = 0
    n_down_dm: int = 0
    n_first_shift: int = 0
    n_third_shift: int = 0
    st_quarters: int = 1
    line45_swap: int = 0
    cop_r_grouplike: int = 0

    _RANGES = {
        "n_mid_exp": (0, 1),
        "n_down_dm": (0, 1),
        "n_first_shift": (0, 1, 2),
        "n_third_shift": (0, 1, 2),
        "st_quarters": (1, 2, 0, 4),  # exponent in quarter units: 1/4, 1/2, 0, 1
        "line45_swap": (0, 1),
        "cop_r_grouplike": (0, 1),
    }
    _FIELDS = tuple(_RANGES)

    def __post_init__(self):
        for name in self._FIELDS:
            if getattr(self, name) not in self._RANGES[name]:
                raise ValueError(f"{name} = {getattr(self, name)} outside catalogued options")

    def to_list(self) -> list[int]:
        return [getattr(self, name) for name in self._FIELDS]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.to_list())

    @staticmethod
    def parse(s: str) -> "ConventionId":
        return ConventionId(**dict(zip(ConventionId._FIELDS, map(int, s.split(",")))))


DEFAULT_CONVENTION = ConventionId()

# The readings under which the whole relation suite closes to machine
# precision (found by resolve_conventions; kept as a named constant so the
# builders and the resolver agree on what "resolved" means).
RESOLVED_CONVENTION = ConventionId(st_quarters=2, cop_r_grouplike=1)


# --------------------------------------------------------------------------
# generator construction on a labelled basis


class _Term(NamedTuple):
    """One ladder term: column (j, m) -> row (j + dj, m + dm) with amplitude

        coef_j * sqrt([x1][x2]) * q^e     (or coef_j * [x1] for one bracket)

    coef is None (1), "a" (a_j), "c" (c_j) or "c1" (c_{j+1}), "-" negates it;
    each bracket (sj, sm, k) is [sj*j + sm*m + k]; qexp (sj, sm, quarters) is
    e = quarters/4 + (sj*j + sm*m)/2, None for no q-power.
    """

    dj: int
    dm: int
    coef: Optional[str]
    brackets: tuple[tuple[int, int, int], ...]
    qexp: Optional[tuple[int, int, int]]


_ROTATION_TERMS = {
    "m_plus": (_Term(0, 1, None, ((1, -1, 0), (1, 1, 1)), (0, -1, -1)),),
    "m_minus": (_Term(0, -1, None, ((1, 1, 0), (1, -1, 1)), (0, 1, -1)),),
}


def _boost_terms(conv: ConventionId) -> tuple[tuple[_Term, ...], ...]:
    down = 0 if conv.n_down_dm else 1
    q1 = (-1, 0, 1)[conv.n_first_shift]
    q3 = (1, 0, -1)[conv.n_third_shift]
    mid = -1 if conv.n_mid_exp == 0 else 1
    return (  # N+, N-, N3
        (
            _Term(-1, down, "c", ((1, -1, 0), (1, -1, -1)), (-1, -1, q1)),
            _Term(0, 1, "-a", ((1, -1, 0), (1, 1, 1)), (0, mid, -1)),
            _Term(1, 1, "c1", ((1, 1, 1), (1, 1, 2)), (1, -1, q3)),
        ),
        (
            _Term(-1, -down, "-c", ((1, 1, 0), (1, 1, -1)), (-1, 1, q1)),
            _Term(0, -1, "-a", ((1, 1, 0), (1, -1, 1)), (0, -mid, -1)),
            _Term(1, -1, "-c1", ((1, -1, 1), (1, -1, 2)), (1, 1, q3)),
        ),
        (
            _Term(-1, 0, "c", ((1, -1, 0), (1, 1, 0)), (0, -1, 0)),
            _Term(0, 0, "-a", ((0, 1, 0),), (0, -1, 0)),
            _Term(1, 0, "-c1", ((1, 1, 1), (1, -1, 1)), (0, -1, 0)),
        ),
    )


def _ladder(
    basis: Basis, terms: tuple[_Term, ...], d: Deformation, coeffs: Optional[dict] = None
) -> OperatorMatrix:
    """Matrix of a term table, one value row per term.

    Targets outside the basis are dropped.  Brackets and q-powers come from
    the scalar code, once per distinct argument; numpy only negates,
    multiplies and takes square roots, which round exactly as the scalar
    operations do, so entries are independent of how they are batched.
    coeffs maps "a", "c", "c1" to per-block values.
    """
    lnq = math.log(d.q)
    data = np.zeros((len(terms), basis.dim), dtype=np.complex128)
    for s, (dj, dm, coef, brackets, qexp) in enumerate(terms):
        cols = np.flatnonzero(basis.rows((dj, dm)) >= 0)
        j2, m2 = basis.j2[cols], basis.m2[cols]
        qn = [
            _gather(lambda t: q_number(t / 2, d), sj * j2 + sm * m2 + 2 * k)
            for sj, sm, k in brackets
        ]
        val = np.sqrt(qn[0] * qn[1]) if len(qn) == 2 else qn[0]
        if coef is not None:
            c = coeffs[coef.lstrip("-")][(j2 - basis.j2[0]) // 2]
            val = (-c if coef.startswith("-") else c) * val
        if qexp is not None:
            sj, sm, quarters = qexp
            val = val * _gather(lambda e: math.exp(e / 4 * lnq), quarters + sj * j2 + sm * m2)
        data[s, cols] += val
    return OperatorMatrix(basis, tuple((t.dj, t.dm) for t in terms), data)


def build_M(basis: Basis, d: Deformation) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Rotation generators: raising/lowering within each spin block, weight on
    the diagonal.  Entries are real; M3 is exact (half-integers are binary)."""
    return (
        _ladder(basis, _ROTATION_TERMS["m_plus"], d),
        _ladder(basis, _ROTATION_TERMS["m_minus"], d),
        OperatorMatrix.diagonal(basis, basis.m2 / 2 + 0j),
    )


def build_N(
    basis: Basis, label: RepLabel, conv: ConventionId = DEFAULT_CONVENTION
) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Boost generators from the coupling coefficients a_j, c_j.

    Each column (j, m) couples to blocks j-1, j, j+1 with m shifted by the
    boost's charge (except under the catalogued degenerate reading of the
    j-1 term).  Couplings to absent blocks are dropped: for finite labels
    the top coupling is exactly zero anyway, for truncated bases this is the
    truncation boundary.
    """
    a = np.array([coeff_a(j, label) for j in basis.spins])
    c = np.array([coeff_c(j, label) for j in basis.spins + (basis.spins[-1] + 1,)])
    coeffs = {"a": a, "c": c[:-1], "c1": c[1:]}
    return tuple(_ladder(basis, terms, label.d, coeffs) for terms in _boost_terms(conv))


def build_N3_tilde(n3: OperatorMatrix, basis: Basis, d: Deformation) -> OperatorMatrix:
    """Second diagonal boost in closed form, N3~ = q^(M3) N3: the brackets and
    a_j, c_j are invariant under q -> 1/q, so flipping the q^(-m/2) dressing
    of N3 multiplies each row of weight m by q^m."""
    return OperatorMatrix.diagonal(basis, _gather(lambda t: math.pow(d.q, t / 2), basis.m2)) @ n3


def build_casimir_matrix(
    m_plus: OperatorMatrix,
    m_minus: OperatorMatrix,
    n_plus: OperatorMatrix,
    n_minus: OperatorMatrix,
    n3: OperatorMatrix,
    n3_tilde: OperatorMatrix,
    d: Deformation,
) -> OperatorMatrix:
    """Quadratic invariant assembled from the two mixed rotation-boost relations.

    Averaging those relations solved for the central term gives

        C = [ (M+N- + M-N+) q^(-1/2) - (N-M+ + N+M-) q^(1/2)
              - [2](N3t - N3) ] / (2 delta).

    The raising/lowering part alone (the printed form of the invariant) is
    provably not scalar on any block with two distinct |m|; the diagonal
    correction restores centrality and the i[l0][l1] eigenvalue.

    The division by delta amplifies roundoff as 1/(q-1): near the classical
    point, compare eigenvalues, not this matrix entrywise.
    """
    rq = math.sqrt(d.q)
    two = q_number(HalfInt.from_int(2), d)
    num = (m_plus @ n_minus + m_minus @ n_plus) / rq
    num = num - rq * (n_minus @ m_plus + n_plus @ m_minus)
    num = num - two * (n3_tilde - n3)
    return num / (2.0 * d.delta)


@dataclass(frozen=True)
class GeneratorSet:
    """The seven generator matrices plus the invariant, frozen after build."""

    basis: Basis
    label: RepLabel
    convention: ConventionId
    tag: str
    m_plus: OperatorMatrix
    m_minus: OperatorMatrix
    m3: OperatorMatrix
    n_plus: OperatorMatrix
    n_minus: OperatorMatrix
    n3: OperatorMatrix
    n3_tilde: OperatorMatrix
    casimir: OperatorMatrix

    def matrices(self) -> dict[str, OperatorMatrix]:
        return {name: getattr(self, name) for name in GENERATOR_PATTERNS}

    @property
    def d(self) -> Deformation:
        return self.label.d

    @property
    def c_scalar(self) -> complex:
        return casimir_eigenvalue(self.label)


def _check_boost_steps(conv: ConventionId) -> None:
    """Raise `ConstructionInconsistencyError` if the N+/N- steps break their selection rule."""
    for name, terms in zip(("n_plus", "n_minus"), _boost_terms(conv)):
        if frozenset((t.dj, t.dm) for t in terms) != GENERATOR_PATTERNS[name]:
            raise ConstructionInconsistencyError(
                f"convention {conv}: the {name} steps break its selection rule"
            )


def build_generator_set(
    label: RepLabel,
    j_max: Optional[HalfInt] = None,
    conv: ConventionId = DEFAULT_CONVENTION,
) -> GeneratorSet:
    """Full generator set for a label (j_max defaults to l0 + 8 when needed); a
    convention whose boost terms break their selection rules cannot satisfy
    the algebra and raises `ConstructionInconsistencyError`."""
    if j_max is None:
        j_max = label.l0 + 8
    _check_boost_steps(conv)
    basis = build_basis(label, j_max)
    mp, mm, m3 = build_M(basis, label.d)
    np_, nm, n3 = build_N(basis, label, conv)
    n3t = build_N3_tilde(n3, basis, label.d)
    cas = build_casimir_matrix(mp, mm, np_, nm, n3, n3t, label.d)
    return GeneratorSet(
        basis=basis,
        label=label,
        convention=conv,
        tag="label",
        m_plus=mp,
        m_minus=mm,
        m3=m3,
        n_plus=np_,
        n_minus=nm,
        n3=n3,
        n3_tilde=n3t,
        casimir=cas,
    )


# --------------------------------------------------------------------------
# deformed-rotation realization and tensor operators


@dataclass(frozen=True)
class SuQ2Triple:
    """Standard deformed spin-j rotation matrices (no q-tensor dressing)."""

    basis: Basis
    m_plus: OperatorMatrix
    m_minus: OperatorMatrix
    m3: OperatorMatrix


def suq2_matrices(two_j: int, d: Deformation) -> SuQ2Triple:
    """Spin-j matrices with [m+, m-] = [2 m3]: entries sqrt([j-+m][j+-m+1])."""
    if two_j < 1:
        raise ValueError(f"need two_j >= 1, got {two_j}")
    basis = Basis(spins=(HalfInt(two_j),))
    # the rotation ladder without its q-tensor dressing (no q-power)
    mp, mm = (
        _ladder(basis, tuple(t._replace(qexp=None) for t in _ROTATION_TERMS[name]), d)
        for name in ("m_plus", "m_minus")
    )
    m3 = OperatorMatrix.diagonal(basis, basis.m2 / 2 + 0j)
    return SuQ2Triple(basis=basis, m_plus=mp, m_minus=mm, m3=m3)


def build_from_suq2(two_j: int, d: Deformation) -> GeneratorSet:
    """Lorentz generators realized inside a single deformed spin-j block.

    The rotations are the q-tensor dressing of the standard spin-j matrices,
    the boosts are -i times them, and the diagonal boosts are -i[m3]q^(-+m3/2).
    This set coincides with the (l0 = j, l1 = j+1) two-constant representation
    and satisfies the whole relation suite identically.
    """
    tri = suq2_matrices(two_j, d)
    basis, j = tri.basis, HalfInt(two_j)
    q14 = math.pow(d.q, -0.25)
    qm = diag_from_m(basis, lambda m: math.pow(d.q, -float(m) / 2))
    qp = diag_from_m(basis, lambda m: math.pow(d.q, float(m) / 2))
    mp = q14 * tri.m_plus @ qm
    mm = q14 * tri.m_minus @ qp
    np_ = -1j * mp
    nm = -1j * mm
    n3 = diag_from_m(basis, lambda m: -1j * q_number(m, d) * math.pow(d.q, -float(m) / 2))
    n3t = diag_from_m(basis, lambda m: -1j * q_number(m, d) * math.pow(d.q, float(m) / 2))
    label = RepLabel(j, complex(float(j) + 1.0), d)
    cas = build_casimir_matrix(mp, mm, np_, nm, n3, n3t, d)
    return GeneratorSet(
        basis=basis,
        label=label,
        convention=DEFAULT_CONVENTION,
        tag=f"suq2-realization spin {j}",
        m_plus=mp,
        m_minus=mm,
        m3=tri.m3,
        n_plus=np_,
        n_minus=nm,
        n3=n3,
        n3_tilde=n3t,
        casimir=cas,
    )


@dataclass(frozen=True)
class TensorOperator:
    """2l+1 components, keyed by the weight m; component m shifts weights by m."""

    l: HalfInt
    components: dict[int, OperatorMatrix]

    def component(self, m: int) -> OperatorMatrix:
        return self.components[m]


def build_ST_vectors(
    two_j: int, d: Deformation, conv: ConventionId = DEFAULT_CONVENTION
) -> tuple[TensorOperator, TensorOperator]:
    """The two rank-1 vector operators built from the standard spin-j matrices.

        S_+- = +- q^(-+e) m_+- q^(-m3/2)   S_0 = [2]^(-1/2)(q^(-1/2) m- m+ - q^(1/2) m+ m-)
        T_+- = +- q^(+-e) m_+- q^(+m3/2)   T_0 = [2]^(-1/2)(q^(1/2) m- m+ - q^(-1/2) m+ m-)

    The scalar prefactor exponent e is catalogued (conv.st_quarters quarter
    units); e = 1/2 is the reading under which S satisfies the q -> 1/q
    variant and T the primary variant of the tensor-operator relations
    exactly.
    """
    return _st_vectors(suq2_matrices(two_j, d), d, conv)


def _st_vectors(tri: SuQ2Triple, d: Deformation, conv: ConventionId) -> tuple[TensorOperator, TensorOperator]:
    basis = tri.basis
    e = conv.st_quarters / 4.0
    qe = math.pow(d.q, e)
    qdn = diag_from_m(basis, lambda m: math.pow(d.q, -float(m) / 2))
    qup = diag_from_m(basis, lambda m: math.pow(d.q, float(m) / 2))
    mp, mm = tri.m_plus, tri.m_minus
    inv_sqrt2 = 1.0 / math.sqrt(q_number(HalfInt.from_int(2), d))
    rq = math.sqrt(d.q)

    s_plus = (1.0 / qe) * mp @ qdn
    s_minus = -qe * mm @ qdn
    s_zero = inv_sqrt2 * (mm @ mp / rq - rq * mp @ mm)
    t_plus = qe * mp @ qup
    t_minus = -(1.0 / qe) * mm @ qup
    t_zero = inv_sqrt2 * (rq * mm @ mp - mp @ mm / rq)

    one = HalfInt.from_int(1)
    return tuple(
        TensorOperator(one, comps)
        for comps in ({1: s_plus, 0: s_zero, -1: s_minus}, {1: t_plus, 0: t_zero, -1: t_minus})
    )


def tensor_embed(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two operators, on the product basis: step pair
    (sa, sb) holds a[sa, ca] * b[sb, cb] in column ca * b.dim + cb."""
    basis = a.basis.product(b.basis)
    steps = tuple(sa + sb for sa in a.steps for sb in b.steps)
    vals = a.data[:, None, :, None] * b.data[None, :, None, :]
    return OperatorMatrix(basis, steps, vals.reshape(len(steps), basis.dim))


# --------------------------------------------------------------------------
# coordinate-format export / import

_HEADER_RE = re.compile(r"^# dim=(\d+) label=(\S+) convention=(\S+)$")


def _label_token(label: RepLabel) -> str:
    return "l0:%s;l1:%.17g,%.17g;q:%.17g" % (
        label.l0,
        label.l1.real,
        label.l1.imag,
        label.d.q,
    )


def _parse_label_token(tok: str) -> RepLabel:
    parts = dict(p.split(":", 1) for p in tok.split(";"))
    try:
        re_, im_ = parts["l1"].split(",")
        l0, q = parts["l0"], parts["q"]
    except KeyError as exc:
        raise ValueError(f"label token {tok!r} lacks {exc}") from None
    return RepLabel(HalfInt.parse(l0), complex(float(re_), float(im_)), Deformation(float(q)))


def export_matrix(op: OperatorMatrix, label: RepLabel, conv: ConventionId, path) -> None:
    """Coordinate text format: header then one "row col re im" line per
    nonzero entry (0-based indices, %.17g, row-major order)."""
    lines = [f"# dim={op.dim} label={_label_token(label)} convention={conv}"]
    for r, c, z in zip(*(x.tolist() for x in op.entries())):
        lines.append("%d %d %.17g %.17g" % (r, c, z.real, z.imag))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_matrix(path) -> tuple[int, RepLabel, ConventionId, tuple]:
    """Header fields and (rows, cols, vals) of one coordinate-format file;
    malformed content raises ValueError."""
    rows, cols, vals = [], [], []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"bad matrix header in {path}: {header!r}")
        dim = int(m.group(1))
        label = _parse_label_token(m.group(2))
        conv = ConventionId.parse(m.group(3))
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            r, c, re_, im_ = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(complex(float(re_), float(im_)))
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    bad = np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))
    if bad.size:
        r, c = rows[bad[0]], cols[bad[0]]
        raise ValueError(f"entry ({r}, {c}) outside the {dim}x{dim} matrix in {path}")
    return dim, label, conv, (rows, cols, np.array(vals, dtype=np.complex128))


def _import_basis(label: RepLabel, dim: int) -> Basis:
    """The basis of `label` with `dim` states (ValueError if there is none)."""
    # n blocks from l0 on hold n * (n + 2 l0) states; a finite label ignores j_max
    t = label.l0.twice
    n_blocks = (math.isqrt(t * t + 4 * dim) - t) // 2
    basis = build_basis(label, label.l0 + max(n_blocks - 1, 0))
    if basis.dim != dim:
        raise ValueError(f"dim {dim} is not the dim of a basis of {label}")
    return basis


def import_matrix(path) -> tuple[OperatorMatrix, RepLabel, ConventionId]:
    """Read one coordinate-format file into steps of the basis its header
    names; an entry off every generator pattern gets a step of its own."""
    dim, label, conv, entries = _read_matrix(path)
    return OperatorMatrix.from_entries(_import_basis(label, dim), *entries), label, conv


def export_generator_set(gens: GeneratorSet, directory) -> list[str]:
    """Write every generator to <directory>/<name>.txt; returns the file names."""
    os.makedirs(directory, exist_ok=True)
    names = [f"{name}.txt" for name in GENERATOR_PATTERNS]
    for fname, op in zip(names, gens.matrices().values()):
        export_matrix(op, gens.label, gens.convention, os.path.join(directory, fname))
    return names


def import_generator_set(directory) -> GeneratorSet:
    """Rebuild a GeneratorSet from an export directory.

    Imported entries are taken as data and validated by the relation suites
    (selection rules included), not at load time (a perturbed
    import must surface as relation failures, not a parse error).  Files that
    disagree on dim, label or convention, or a dim that no basis of the label
    has, raise ValueError.
    """
    files = {n: _read_matrix(os.path.join(directory, f"{n}.txt")) for n in GENERATOR_PATTERNS}
    first, (dim, label, conv, _) = next(iter(files.items()))
    for name, (dm, lab, cv, _) in files.items():
        if dm != dim or lab != label or cv != conv:
            raise ValueError(f"{name}.txt disagrees with {first}.txt on dim, label or convention")
    basis = _import_basis(label, dim)
    ops = {name: OperatorMatrix.from_entries(basis, *f[3]) for name, f in files.items()}
    return GeneratorSet(basis=basis, label=label, convention=conv, tag="imported", **ops)
