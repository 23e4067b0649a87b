"""Explicit generator matrices on the (j, m) ladder basis.

Builds the matrices of the seven generators: the rotation triple M+, M-,
M3 (a deformed su(2) subalgebra, block-diagonal in j), the boosts N+, N-, N3
and the second diagonal boost N3-tilde (block-tridiagonal in j), and the
quadratic invariant.  Also builds the deformed-rotation realization (boosts
proportional to rotations on a single spin block), the two rank-1 tensor
operators S and T, and Kronecker embeddings for tensor products.

Every column of a generator couples to at most three (delta_j, delta_m)
steps, so an `OperatorMatrix` stores one value row of length dim per step
and runs products, sums and adjoints in O(dim * steps^2) numpy work; only
`toarray()` makes a dim x dim array, and no command calls it.

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

import itertools
import math
import os
import re
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .qarith import Deformation, HalfInt, half_range, q_number
from .repcore import RepLabel, casimir_eigenvalue, classify, coeff_window, spin_limit

__all__ = [
    "Basis",
    "ProductBasis",
    "StackedBasis",
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
    """Step bookkeeping shared by `Basis`, `ProductBasis` and `StackedBasis`.

    A step is a tuple of ints that moves every state to another one (or out
    of the basis).  What depends on the grid's shape alone (`_shape`: a
    basis's spins and j_max, a product's factor shapes, a stack's base shape
    and copy count) is kept once per process in `_SHAPES`: a basis's `j2`,
    `m2` and `starts`, the rows each step reaches (a product's or stack's
    from its factors' or base's), the rows products gather at and the
    builders' term plans.  What a sum or product plan takes from the two
    step tuples alone is kept there too, under keys with no shape, so every
    grid shares it.  Each grid keeps in its `_cache` the values it has read
    (a product's whole `_ProductPlan` too), so a value too large for the
    memo lives as long as the grid, and a basis also its per-(basis, q)
    tables and chiral diagonals; nothing else.  The module-level state is two
    bounded memos: `_SHAPES` and the parser `cli._build_parser` builds once.
    A grid is `copies` independent copies of one basis side by side (1 but
    for a `StackedBasis`).
    """

    copies = 1
    _copy_starts = 0  # first row of each column's copy

    def _cached(self, key, make):
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = make()
        return val

    def _shared(self, key, make, shaped=True):
        """`_cached` for a value made once per process: shared with every grid
        of the same shape, or with every grid if it is not `shaped`."""
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = _SHAPES.get((self._shape, *key) if shaped else key, make)
        return val

    def rows(self, step: tuple) -> np.ndarray:
        """Row reached from each column by `step`; -1 where it leaves the basis."""
        return self._shared(("rows", step), lambda: self._target(step))

    def _row_stack(self, steps: tuple) -> np.ndarray:
        return np.stack(self._rows(steps))

    def _rows(self, steps: tuple) -> list[np.ndarray]:
        return [self.rows(s) for s in steps]

    def _sum_plan(self, sa: tuple, sb: tuple) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
        return self._shared(("sum", sa, sb), lambda: _plan_sum(sa, sb), shaped=False)

    def _product_plan(self, sa: tuple, sb: tuple) -> "_ProductPlan":
        """Index plan of a product A @ B on this grid: the steps, pair order
        and group starts of `_plan_product(sa, sb)` (made once per process for
        every grid), the rows at which A is read for each step of B (once per
        shape), and its `_RankSum` if the pair array has `_RANKED_MIN`
        entries or more: such a product multiplies in place and sums
        rank-major, and smaller ones, which the extra numpy calls would slow,
        keep the plain path."""

        def make():
            steps, ranked = _SHAPES.get(("product", sa, sb), lambda: _plan_product(sa, sb))
            # B's values are 0 where its rows are -1; A is read in the first
            # row of the column's copy there, as take(mode="clip") reads at -1
            gather = self._shared(("gather", sb), lambda: np.maximum(self._row_stack(sb), self._copy_starts))
            large = len(ranked.order) * self.dim >= _RANKED_MIN
            return _ProductPlan(steps, ranked.order, ranked.starts, gather, ranked if large else None)

        return self._cached(("product", sa, sb), make)


class _ShapeMemo:
    """Index arrays that depend on a grid's shape or on step tuples alone,
    kept once per process.

    Keys hold shapes, step tuples and term tables, values only step tuples
    and read-only index arrays (in tuples, a `_RankSum` among them), so no
    grid, label, q or operator is kept alive.  The memo keeps at most
    `budget` bytes of array data, the least recently used value out first;
    a value larger than the budget is handed back but not kept (the grid
    that asked for it keeps it in its own cache).
    """

    def __init__(self, budget: int):
        self.budget, self.nbytes = budget, 0
        self._items: dict = {}  # key -> (value, bytes), least recently used first
        self._lock = threading.Lock()

    def get(self, key, make):
        with self._lock:
            item = self._items.pop(key, None)
            if item is not None:
                self._items[key] = item
                return item[0]
        val = make()
        arrays = list(_arrays(val))
        for arr in arrays:
            arr.setflags(write=False)  # shared by every grid of the shape
        size = sum(arr.nbytes for arr in arrays)
        with self._lock:
            item = self._items.get(key)
            if item is not None:  # made by another thread meanwhile
                return item[0]
            if size <= self.budget:
                self._items[key] = (val, size)
                self.nbytes += size
                while self.nbytes > self.budget:
                    self.nbytes -= self._items.pop(next(iter(self._items)))[1]
        return val

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self.nbytes = 0


def _arrays(val):
    """The arrays in a memo value: an array or nested tuples of them."""
    if isinstance(val, np.ndarray):
        yield val
    elif isinstance(val, tuple):
        for v in val:
            yield from _arrays(v)


# Bytes of index arrays the shape memo keeps.  10 small_sweep batches of the
# benchmark fill 1.1 MB (51 shapes), 3 deep_verify batches 1.2 MB (5 shapes up
# to dim 1089), those and 20 resolve_chiral batches together 2.7 MB; the boost
# term plan of `verify --j-max 480` alone is larger, so it is not kept.
_SHAPE_BYTES = 16 << 20

# The index arrays of each grid shape and step pair, made once per process.
_SHAPES = _ShapeMemo(_SHAPE_BYTES)


# Pair-array entries (128 KB) from which a product multiplies its pair array
# in place and sums it with its `_RankSum`.
_RANKED_MIN = 8192


class _RankSum(NamedTuple):
    """Sums the rows of a pair array by group, bitwise as
    `np.add.reduceat(terms[order], starts, axis=0)` does.

    On a group of k <= 4 rows t0..t(k-1), reduceat takes
    t0 + ((t1 + t2) + t3) (the first row plus the inner loop's sum from
    -0.0, which adds no bit); from 5 rows on it takes numpy's blocked
    pairwise sum.  So the groups of 2 to 4 rows are laid out rank-major,
    longest first, and each rank is added for all of them at once; the
    larger groups go through one `reduceat` of their own.  Each addition
    is one IEEE operation on finite values, so a finite result does not
    depend on how they are batched.  A NaN's sign does (numpy's SIMD and
    scalar loops keep different operands), and so does the text of an
    overflow warning, so a result that is not finite is made again, with
    its warnings, by `reduceat` over the whole pair array.  Its arrays are
    fields, so the shape memo freezes and counts them.
    """

    order: np.ndarray
    starts: np.ndarray
    first: np.ndarray
    ranks: tuple  # rank k = 1, 2, 3 of the groups that have it
    small: np.ndarray
    large: np.ndarray
    large_terms: np.ndarray
    large_starts: np.ndarray
    rows: int  # rows of scratch a sum needs, one array for both of its parts

    @staticmethod
    def of(order: np.ndarray, starts: np.ndarray) -> "_RankSum":
        pairs, bounds = order.tolist(), starts.tolist() + [len(order)]
        groups = [pairs[i:j] for i, j in zip(bounds, bounds[1:])]
        small = [i for i, g in enumerate(groups) if 1 < len(g) < 5]
        small.sort(key=lambda i: len(groups[i]), reverse=True)  # stable
        # rank k of the groups that have it: a prefix of the longest-first layout
        ranks = tuple(np.array([groups[i][k] for i in small if len(groups[i]) > k], dtype=np.intp) for k in (1, 2, 3))
        large = [i for i, g in enumerate(groups) if len(g) > 4]
        large_terms = [p for i in large for p in groups[i]]
        large_starts = np.cumsum([0] + [len(groups[i]) for i in large[:-1]])
        rows = max(2 * len(small), len(large_terms) + len(large))
        first, small, large, large_terms = (
            np.array(x, dtype=np.intp) for x in ([g[0] for g in groups], small, large, large_terms)
        )
        return _RankSum(order, starts, first, ranks, small, large, large_terms, large_starts, rows)

    def __call__(self, terms: np.ndarray) -> np.ndarray:
        """The group sums of `terms` as a new array."""
        dim = terms.shape[1]
        out = terms.take(self.first, axis=0)
        if len(self.first) == len(self.order):
            return out
        work = np.empty(self.rows * dim, dtype=np.complex128)
        with np.errstate(all="ignore"):
            n = len(self.small)
            if n:
                acc, tmp = work[: 2 * n * dim].reshape(2, n, dim)
                terms.take(self.ranks[0], axis=0, out=acc, mode="clip")
                for rank in self.ranks[1:]:
                    k = len(rank)
                    if not k:
                        break
                    terms.take(rank, axis=0, out=tmp[:k], mode="clip")
                    np.add(acc[:k], tmp[:k], out=acc[:k])
                out.take(self.small, axis=0, out=tmp, mode="clip")
                out[self.small] = np.add(tmp, acc, out=acc)
            if len(self.large):
                k = len(self.large_terms)
                block = work[: (k + len(self.large)) * dim].reshape(-1, dim)
                terms.take(self.large_terms, axis=0, out=block[:k], mode="clip")
                out[self.large] = np.add.reduceat(block[:k], self.large_starts, axis=0, out=block[k:])
            finite = np.isfinite(out.sum())
        if not finite:
            # a NaN's sign and numpy's overflow warnings follow its loop order
            out = np.add.reduceat(terms[self.order], self.starts, axis=0)
        return out


def _plan_sum(sa: tuple, sb: tuple) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The steps of A + B (those of `sa`, then the new ones of `sb`), the rows
    of A (ascending) and of B at the steps both have, and the rows of B at
    its new steps."""
    pos = {s: i for i, s in enumerate(sb)}
    ia = [i for i, s in enumerate(sa) if s in pos]
    ib = [pos[sa[i]] for i in ia]
    new = [i for i, s in enumerate(sb) if s not in sa]
    return sa + tuple(sb[i] for i in new), *(np.array(x, dtype=np.intp) for x in (ia, ib, new))


def _plan_product(sa: tuple, sb: tuple) -> tuple[tuple, _RankSum]:
    """Pair p = ia * len(sb) + ib of A @ B lands on step sa[ia] + sb[ib]: the
    product's steps and the `_RankSum` of `order`, which sorts the pairs by
    that step (stably), and `starts`, which marks each step's first pair, as
    `reduceat` reads them."""
    sums = (np.array(sa)[:, None] + np.array(sb)).reshape(len(sa) * len(sb), -1).tolist()
    order = sorted(range(len(sums)), key=sums.__getitem__)  # stable
    steps, starts = [], []
    for i, p in enumerate(order):
        if not steps or sums[p] != steps[-1]:
            steps.append(sums[p])
            starts.append(i)
    return tuple(map(tuple, steps)), _RankSum.of(np.array(order), np.array(starts))


class _ProductPlan(NamedTuple):
    steps: tuple
    order: np.ndarray
    starts: np.ndarray
    gather: np.ndarray
    ranked: Optional[_RankSum]


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
        top = None if self.j_max is None else self.j_max.twice
        object.__setattr__(self, "_shape", ("basis", self.spins[0].twice, len(self.spins), top))
        object.__setattr__(self, "_cache", {})
        for name, arr in zip(("j2", "m2", "starts"), self._shared(("index",), self._index)):
            object.__setattr__(self, name, arr)

    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sizes = np.array([j.twice + 1 for j in self.spins], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        j2 = np.repeat(sizes - 1, sizes)
        return j2, 2 * (np.arange(int(sizes.sum())) - np.repeat(starts, sizes)) - j2, starts

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
        return self.locate(self.j2 + 2 * step[0], self.m2 + 2 * step[1])[1]

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
        object.__setattr__(self, "_shape", ("x", self.a._shape, self.b._shape))
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


@dataclass(frozen=True)
class StackedBasis(_Grid):
    """`copies` copies of a basis side by side: state r of copy k is row
    r + k * base.dim, and a step of the base moves every copy alike.  An
    operator on it is one operator per copy, each a block of columns, so one
    pass of the algebra serves them all."""

    base: Basis
    copies: int

    def __post_init__(self):
        object.__setattr__(self, "_shape", ("stack", self.base._shape, self.copies))
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return self.base.dim * self.copies

    @property
    def zero_step(self) -> tuple:
        return self.base.zero_step

    @property
    def m2(self) -> np.ndarray:
        return np.tile(self.base.m2, self.copies)

    @property
    def _copy_starts(self) -> np.ndarray:
        return np.repeat(self.base.dim * np.arange(self.copies), self.base.dim)

    def _target(self, step: tuple) -> np.ndarray:
        rows = self.base.rows(step)
        offsets = self.base.dim * np.arange(self.copies)[:, None]
        return np.where(rows >= 0, rows + offsets, -1).ravel()

    def interior_columns(self, order: int) -> np.ndarray:
        return np.tile(self.base.interior_columns(order), self.copies)


def build_basis(label: RepLabel, j_max: HalfInt) -> Basis:
    """Basis for a label: full spin content if finite, l0..j_max if infinite;
    spins whose entries would overflow in the suites raise before any
    allocation (`classify` refuses a finite label's, this a j_max)."""
    if j_max < label.l0:
        raise ValueError(f"j_max = {j_max} below l0 = {label.l0}")
    cls = classify(label)
    if cls.kind == "finite":
        # its index arrays, sized by the closed-form dim, first: a label too
        # large for memory fails here, before its spins are listed
        np.empty((2, cls.dim), dtype=np.int64)
        return Basis(spins=cls.spins)
    q, limit = label.d.q, spin_limit(label.d)
    if float(j_max) > limit:
        if limit < float(label.l0):
            raise ValueError(f"spin {j_max} overflows at q = {q:g}: spins above {limit:.4g} are out of range")
        largest = label.l0 + math.floor(limit - float(label.l0))
        raise ValueError(f"j_max = {j_max} overflows at q = {q:g}: the largest valid j_max is {largest}")
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

    @classmethod
    def _result(cls, basis: _Grid, steps: tuple, data: np.ndarray) -> "OperatorMatrix":
        """An algebra result, not checked again: its steps are distinct by
        construction and data is a new complex128 array of their shape."""
        op = object.__new__(cls)
        data.setflags(write=False)
        op.__dict__.update(basis=basis, steps=steps, data=data)
        return op

    @staticmethod
    def diagonal(basis: _Grid, values) -> "OperatorMatrix":
        """The diagonal matrix with the given entries (a scalar fills it)."""
        data = np.full((1, basis.dim), values, dtype=np.complex128)
        return OperatorMatrix._result(basis, (basis.zero_step,), data)

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
        """Largest |entry|: the largest of `block_max()` (read by `item()` on
        one copy, which is cheaper than a numpy reduction)."""
        vals = self.block_max()
        return vals.item() if vals.size == 1 else float(vals.max())

    def block_max(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Largest |entry| of each copy of the grid (one value unless it is a
        `StackedBasis`), over the columns where `mask` is true (0 if none).
        Unmasked, kept on the instance (its data is read-only) in __dict__:
        a cached_property's lock costs more than a small operator's maximum."""
        if mask is None and "_copy_max" in self.__dict__:
            return self.__dict__["_copy_max"]
        vals = np.abs(self.data) if mask is None else np.where(mask, np.abs(self.data), 0.0)
        vals = vals.reshape(len(self.steps), self.basis.copies, -1).max(axis=(0, 2))
        if mask is None:
            vals.setflags(write=False)
            self.__dict__["_copy_max"] = vals
        return vals

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
        return OperatorMatrix._result(self.basis, steps, np.where(rows >= 0, vals.conj(), 0))

    def abs(self) -> "OperatorMatrix":
        """Entrywise |.|, for componentwise rounding bounds."""
        return OperatorMatrix(self.basis, self.steps, np.abs(self.data))

    def _basis_with(self, other: "OperatorMatrix") -> _Grid:
        if other.basis is not self.basis and other.basis != self.basis:
            raise ValueError("operators on different bases")
        return self.basis

    def _combine(self, other, ufunc) -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        basis = self._basis_with(other)
        if self.steps == other.steps:
            return OperatorMatrix._result(basis, self.steps, ufunc(self.data, other.data))
        steps, ia, ib, new = basis._sum_plan(self.steps, other.steps)
        # an entry missing from one operand is its exact zero, as in a dense
        # sum: ufunc(a, 0.0) and ufunc(0.0, b) keep the bits of -0.0 and NaN
        n = len(self.steps)
        out = np.empty((len(steps), basis.dim), dtype=np.complex128)
        if len(ia) == n:
            ufunc(self.data, other.data[ib], out=out[:n])
        else:
            ufunc(self.data, 0.0, out=out[:n])
            if len(ia):
                out[ia] = ufunc(self.data[ia], other.data[ib])
        if len(new):
            ufunc(0.0, other.data[new], out=out[n:])
        return OperatorMatrix._result(basis, steps, out)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        if isinstance(scalar, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix._result(self.basis, self.steps, self.data * scalar)

    def __rmul__(self, scalar):
        if isinstance(scalar, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix._result(self.basis, self.steps, scalar * self.data)

    def __truediv__(self, scalar):
        if isinstance(scalar, OperatorMatrix):
            return NotImplemented
        return OperatorMatrix._result(self.basis, self.steps, self.data / scalar)

    def __matmul__(self, other):
        """(A @ B)[:, c] sums A's column at each row B reaches from c, so the
        pair (sa, sb) contributes A[sa, rows_sb] * B[sb] to step sa + sb.

        A small product makes its pair array, reorders it by step and sums it
        with `np.add.reduceat`.  A large one (its plan has a `_RankSum`)
        multiplies its gathered pair array in place and sums it rank-major
        with no reordered copy; both give the same bits."""
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        basis = self._basis_with(other)
        plan = basis._product_plan(self.steps, other.steps)
        dim, n = basis.dim, len(plan.order)
        if plan.ranked is None:
            terms = (self.data.take(plan.gather, axis=1, mode="clip") * other.data).reshape(n, dim)[plan.order]
            if len(plan.starts) < n:
                terms = np.add.reduceat(terms, plan.starts, axis=0)
            return OperatorMatrix._result(basis, plan.steps, terms)
        pairs = self.data.take(plan.gather, axis=1, mode="clip")
        np.multiply(pairs, other.data, out=pairs)
        return OperatorMatrix._result(basis, plan.steps, plan.ranked(pairs.reshape(n, dim)))


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


_ROTATION_TERMS = (  # M+, M-
    (_Term(0, 1, None, ((1, -1, 0), (1, 1, 1)), (0, -1, -1)),),
    (_Term(0, -1, None, ((1, 1, 0), (1, -1, 1)), (0, 1, -1)),),
)


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


# rows of the coefficient table `_ladder` reads, as `_Term.coef` names them
_COEF_ROWS = (None, "a", "-a", "c", "-c", "c1", "-c1")


def _reach(basis: Basis) -> tuple[int, int]:
    """(reach, stride) of the keys a term table can read on `basis`: twice a
    bracket argument and a q-power in quarters both lie in [-reach, reach]
    (|sj|, |sm| <= 1 and a shift of at most 2 units), and a bracket key is
    even on a basis of integer spins."""
    top = basis.spins[-1].twice
    return 2 * top + 4, 1 if top % 2 else 2


def _q_tables(basis: Basis, d: Deformation) -> tuple[np.ndarray, np.ndarray]:
    """[t/2] and q^(e/4) at every key of `_reach`, made once per (basis, q) by
    the scalar `q_number` and `math.exp`, one call per key, and kept in the
    basis's own cache (they depend on q, not only on the basis's shape)."""

    def make():
        reach, stride = _reach(basis)
        lnq = math.log(d.q)
        brackets = np.array([q_number(t / 2, d) for t in range(-reach, reach + 1, stride)])
        powers = np.array([math.exp(e / 4 * lnq) for e in range(-reach, reach + 1)])
        return brackets, powers

    return basis._cached(("q", d), make)


def _term_plan(basis: Basis, terms: tuple[_Term, ...]):
    """Where a term table reads its tables on `basis`, for the entries whose
    target lies in the basis: the mask of those entries in the (term, column)
    value rows, each entry's two bracket keys (a one-bracket term reads its
    bracket twice), whether it has one bracket, its coefficient's place in
    the flat (`_COEF_ROWS`, block) table and its q-power key.  Made once per
    basis shape."""

    def make():
        reach, stride = _reach(basis)
        valid = np.stack(basis._rows(tuple((t.dj, t.dm) for t in terms))) >= 0
        # per term: (sj, sm, k) of the first and last bracket, (sj, sm,
        # quarters) of the q-power, the bracket count and the coefficient row
        p = np.array(
            [
                (*t.brackets[0], *t.brackets[-1], *(t.qexp or (0, 0, 0)), len(t.brackets), _COEF_ROWS.index(t.coef))
                for t in terms
            ]
        ).T[..., None]
        j2, m2 = basis.j2, basis.m2
        keys = np.stack([(p[i] * j2 + p[i + 1] * m2 + 2 * p[i + 2])[valid] for i in (0, 3)], axis=1)
        power = (p[6] * j2 + p[7] * m2 + p[8])[valid]
        single = np.broadcast_to(p[9] == 1, valid.shape)[valid]
        coef = (p[10] * len(basis.spins) + (j2 - j2[0]) // 2)[valid]
        return valid, (keys + reach) // stride, single, coef, power + reach

    return basis._shared(("terms", terms), make)


def _ladder(
    basis: Basis, terms: tuple[_Term, ...], d: Deformation, coeffs: Optional[dict] = None
) -> np.ndarray:
    """Value rows of a term table on `basis`, one row per term.

    The whole table is evaluated in one pass over the entries whose target
    lies in the basis (the others are 0): brackets and q-powers are looked up
    in the basis's tables at q (`_q_tables`), which hold the scalar code's
    values; numpy then takes one square root per two-bracket entry and
    multiplies by the coefficient and the q-power, which round exactly as
    the scalar operations do, so entries do not depend on how terms are
    batched.  The sum into zeros turns -0.0 into +0.0, as the per-entry
    reference does.  coeffs maps "a", "c", "c1" to per-block values.
    """
    valid, keys, single, coef, power = _term_plan(basis, terms)
    brackets, powers = _q_tables(basis, d)
    x = brackets[keys]
    val = np.where(single, x[:, 0], np.sqrt(x[:, 0] * x[:, 1]))
    table = [np.ones(len(basis.spins), dtype=np.complex128)]
    if coeffs is not None:
        table += [v for k in ("a", "c", "c1") for v in (coeffs[k], -coeffs[k])]
    val = np.concatenate(table)[coef] * val * powers[power]
    data = np.zeros((len(terms), basis.dim), dtype=np.complex128)
    data[valid] += val
    return data


def _ladders(
    basis: Basis, tables: tuple[tuple[_Term, ...], ...], d: Deformation, coeffs: Optional[dict] = None
) -> list[OperatorMatrix]:
    """One operator per term table, all tables evaluated in one `_ladder` pass
    that evaluates each distinct term once (tables may share terms).  A term
    whose step reaches no row of the basis (the j+-1 terms on a single
    block) holds only zeros and is left out; a table left with no term is
    the zero operator.  Where each table's rows lie is planned once per
    basis shape."""
    terms = tuple(dict.fromkeys(sum(tables, ())))

    def layout():
        # per table, the steps it keeps and the span of their rows once
        # `order` has gathered them from the rows of the distinct terms
        live = _term_plan(basis, terms)[0].any(axis=1)
        order, spans = [], []
        for table in tables:
            keep = [k for k in map(terms.index, table) if live[k]]
            spans.append((tuple((terms[k].dj, terms[k].dm) for k in keep), len(order), len(order) + len(keep)))
            order += keep
        return np.array(order, dtype=np.intp), tuple(spans)

    order, spans = basis._shared(("tables", tables), layout)
    rows = _ladder(basis, terms, d, coeffs)[order]
    return [
        OperatorMatrix._result(basis, steps, rows[i:k]) if steps else OperatorMatrix(basis, (), rows[:0])
        for steps, i, k in spans
    ]


def build_M(basis: Basis, d: Deformation) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Rotation generators: raising/lowering within each spin block, weight on
    the diagonal.  Entries are real; M3 is exact (half-integers are binary)."""
    mp, mm = _ladders(basis, _ROTATION_TERMS, d)
    return mp, mm, OperatorMatrix.diagonal(basis, basis.m2 / 2 + 0j)


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
    return tuple(_ladders(basis, _boost_terms(conv), label.d, _boost_coeffs(basis, label)))


def _boost_coeffs(basis: Basis, label: RepLabel) -> dict[str, np.ndarray]:
    """a_j, c_j and c_{j+1} per block of `basis` (the label's: its spins
    start at l0), keyed as `_Term.coef` names them, from one window."""
    a, c, _, _ = coeff_window(label, basis.spins[-1] + 1)
    return {"a": np.array(a[:-1]), "c": np.array(c[:-1]), "c1": np.array(c[1:])}


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
    """The seven generator matrices, frozen after build, plus the invariant
    `casimir`: few checks read it, so it is assembled on first read (an
    imported set passes its file's matrix as `_casimir`).  `matrices()` reads
    it too; a check that needs only the generators reads `generators()`."""

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
    _casimir: Optional[OperatorMatrix] = field(default=None, repr=False, compare=False)

    @property
    def casimir(self) -> OperatorMatrix:
        if self._casimir is None:
            ops = (self.m_plus, self.m_minus, self.n_plus, self.n_minus, self.n3, self.n3_tilde)
            object.__setattr__(self, "_casimir", build_casimir_matrix(*ops, self.d))
        return self._casimir

    def generators(self) -> dict[str, OperatorMatrix]:
        """The seven generators by name, without the invariant."""
        return {name: getattr(self, name) for name in GENERATOR_PATTERNS if name != "casimir"}

    def matrices(self) -> dict[str, OperatorMatrix]:
        return {**self.generators(), "casimir": self.casimir}

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
    basis: Optional[Basis] = None,
) -> GeneratorSet:
    """Full generator set for a label (j_max defaults to l0 + 8 when needed); a
    convention whose boost terms break their selection rules cannot satisfy
    the algebra and raises `ConstructionInconsistencyError`.

    A sibling of a set already built (the same label at 1/q, its conjugate
    partner, another q) passes that set's `basis` to be built on it, so the
    q tables and brackets the basis keeps serve both; it must equal
    the label's own basis, else ValueError.
    """
    if j_max is None:
        j_max = label.l0 + 8
    _check_boost_steps(conv)
    own = build_basis(label, j_max)
    if basis is None:
        basis = own
    elif basis != own:
        raise ValueError(f"{label} has the basis {own}, not the shared {basis}")
    mp, mm, m3 = build_M(basis, label.d)
    np_, nm, n3 = build_N(basis, label, conv)
    n3t = build_N3_tilde(n3, basis, label.d)
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
    mp, mm = _ladders(basis, tuple(tuple(t._replace(qexp=None) for t in ts) for ts in _ROTATION_TERMS), d)
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
    return _st_vectors(suq2_matrices(two_j, d), d, math.pow(d.q, conv.st_quarters / 4.0))


def _st_vectors(tri: SuQ2Triple, d: Deformation, qe) -> tuple[TensorOperator, TensorOperator]:
    """S and T with the prefactor qe = q^e: one number, or one per column of
    a stacked triple (`_st_readings`)."""
    basis = tri.basis
    qdn = diag_from_m(basis, lambda m: math.pow(d.q, -float(m) / 2))
    qup = diag_from_m(basis, lambda m: math.pow(d.q, float(m) / 2))
    mp, mm = tri.m_plus, tri.m_minus
    inv_sqrt2 = 1.0 / math.sqrt(q_number(HalfInt.from_int(2), d))
    rq = math.sqrt(d.q)

    s_plus = mp * (1.0 / qe) @ qdn
    s_minus = mm * -qe @ qdn
    s_zero = inv_sqrt2 * (mm @ mp / rq - rq * mp @ mm)
    t_plus = mp * qe @ qup
    t_minus = mm * -(1.0 / qe) @ qup
    t_zero = inv_sqrt2 * (rq * mm @ mp - mp @ mm / rq)

    one = HalfInt.from_int(1)
    return tuple(
        TensorOperator(one, comps)
        for comps in ({1: s_plus, 0: s_zero, -1: s_minus}, {1: t_plus, 0: t_zero, -1: t_minus})
    )


def _st_readings(
    tri: SuQ2Triple, d: Deformation, convs: list[ConventionId]
) -> tuple[SuQ2Triple, TensorOperator, TensorOperator]:
    """The triple and S, T under every prefactor reading of `convs` side by
    side, reading k in copy k of one `StackedBasis`: the dressings and the
    zero components are built once, and one pass of a check serves all."""
    grid = StackedBasis(tri.basis, len(convs))
    tri_ops = (tri.m_plus, tri.m_minus, tri.m3)
    triple = SuQ2Triple(grid, *(OperatorMatrix(grid, op.steps, np.tile(op.data, len(convs))) for op in tri_ops))
    qe = np.repeat([math.pow(d.q, conv.st_quarters / 4.0) for conv in convs], tri.basis.dim)
    return (triple, *_st_vectors(triple, d, qe))


def tensor_embed(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two operators, on the product basis: step pair
    (sa, sb) holds a[sa, ca] * b[sb, cb] in column ca * b.dim + cb.  Only the
    pairs that reach a row are kept: both steps must reach a row of their
    factor, else the pair holds only zeros."""
    basis = ProductBasis(a.basis, b.basis)
    ia, ib = (np.flatnonzero((op.basis._row_stack(op.steps) >= 0).any(axis=1)) for op in (a, b))
    steps = tuple(a.steps[i] + b.steps[j] for i in ia.tolist() for j in ib.tolist())
    vals = a.data[ia, None, :, None] * b.data[None, ib, None, :]
    return OperatorMatrix(basis, steps, vals.reshape(len(steps), basis.dim))


# --------------------------------------------------------------------------
# coordinate-format export / import

_HEADER_RE = re.compile(r"^# dim=(\d+) label=(\S+) convention=(\S+)$")
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("re", np.float64), ("im", np.float64)])


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
    rows, cols, vals = op.entries()
    cells = zip(rows.tolist(), cols.tolist(), vals.real.tolist(), vals.imag.tolist())
    with open(path, "w") as fh:
        fh.write(f"# dim={op.dim} label={_label_token(label)} convention={conv}\n")
        fh.write(("%d %d %.17g %.17g\n" * len(vals)) % tuple(itertools.chain.from_iterable(cells)))


def _read_matrix(path) -> tuple[int, RepLabel, ConventionId, tuple]:
    """Header fields and (rows, cols, vals) of one coordinate-format file;
    malformed content raises ValueError."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"bad matrix header in {path}: {header!r}")
        dim = int(m.group(1))
        label = _parse_label_token(m.group(2))
        conv = ConventionId.parse(m.group(3))
        with warnings.catch_warnings():  # a header-only file is an all-zero matrix
            warnings.simplefilter("ignore", UserWarning)
            try:
                body = np.loadtxt(fh, dtype=_ENTRY, ndmin=1)
            except ValueError as exc:  # numpy counts body rows its own way
                raise ValueError(_bad_line(path) or f"{path}: {exc}") from None
    rows, cols = body["row"], body["col"]
    bad = np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))
    if bad.size:
        r, c = rows[bad[0]], cols[bad[0]]
        raise ValueError(f"entry ({r}, {c}) outside the {dim}x{dim} matrix in {path}")
    vals = np.empty(len(body), dtype=np.complex128)
    vals.real, vals.imag = body["re"], body["im"]  # re + 1j * im would turn an imaginary -0.0 into +0.0
    return dim, label, conv, (rows, cols, vals)


def _bad_line(path) -> Optional[str]:
    """The first body line of a matrix file that is not "row col re im",
    named by its 1-based number in the file (None if every line is)."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split("#")[0].split()
            if number == 1 or not fields:  # the header, a comment or a blank line
                continue
            try:
                for parse, text in zip((int, int, float, float), fields, strict=True):
                    parse(text)
            except ValueError:
                return f"line {number} of {path} is not 'row col re im': {line.strip()!r}"
    return None


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
    cas = ops.pop("casimir")
    return GeneratorSet(basis=basis, label=label, convention=conv, tag="imported", _casimir=cas, **ops)
