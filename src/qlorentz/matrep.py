"""Explicit generator matrices on the (j, m) ladder basis.

Builds dense complex matrices for the seven generators: the rotation triple
M+, M-, M3 (a deformed su(2) subalgebra, block-diagonal in j), the boosts
N+, N-, N3 and the second diagonal boost N3-tilde (block-tridiagonal in j),
and the quadratic invariant.  Also builds the deformed-rotation realization
(boosts proportional to rotations on a single spin block), the two rank-1
tensor operators S and T, and Kronecker embeddings for tensor products.

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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .qarith import Deformation, HalfInt, half_range, q_number
from .repcore import RepLabel, casimir_eigenvalue, classify, coeff_a, coeff_c

__all__ = [
    "Basis",
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
# basis


@dataclass(frozen=True)
class Basis:
    """Ordered (j, m) index set: ascending j blocks, m = -j..j inside each.

    j2[i], m2[i] are twice the j and m of state i; starts[k] is the index of
    the first state of block spins[k].
    """

    spins: tuple[HalfInt, ...]
    j_max: Optional[HalfInt] = None
    j2: np.ndarray = field(init=False, repr=False, compare=False)
    m2: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)

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

    def interior_columns(self, order: int) -> np.ndarray:
        """Boolean column mask exact under truncation for an `order`-fold
        generator product (each factor moves j by at most one block)."""
        if self.truncated:
            return self.j2 <= self.j_max.twice - 2 * order
        return np.ones(self.dim, dtype=bool)


def build_basis(label: RepLabel, j_max: HalfInt) -> Basis:
    """Basis for a label: full spin content if finite, l0..j_max if infinite."""
    if j_max < label.l0:
        raise ValueError(f"j_max = {j_max} below l0 = {label.l0}")
    cls = classify(label)
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Read-only dense complex128 matrix."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


def pattern_violation(op: OperatorMatrix, pattern: frozenset, basis: Basis) -> float:
    """Largest |entry| outside the (delta_j, delta_m) steps of `pattern` (0.0
    for clean matrices)."""
    mag = np.abs(op.data)
    for dj, dm in pattern:
        valid, rows = basis.locate(basis.j2 + 2 * dj, basis.m2 + 2 * dm)
        mag[rows[valid], np.flatnonzero(valid)] = 0.0
    worst = int(np.argmax(mag))
    # np.abs and the scalar abs of a complex may differ in the last bit;
    # the reported magnitude is the scalar one
    return abs(complex(op.data.flat[worst])) if mag.flat[worst] else 0.0


def _gather(f: Callable[[int], complex], keys: np.ndarray, dtype=np.float64) -> np.ndarray:
    """f(k) for every entry of an integer array, called once per distinct k."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    return np.array([f(int(k)) for k in uniq], dtype=dtype)[inverse]


def diag_from_m(basis: Basis, f: Callable[[HalfInt], complex]) -> np.ndarray:
    """Diagonal matrix with entry f(m) on state (j, m), evaluated spectrally."""
    return np.diag(_gather(lambda t: f(HalfInt(t)), basis.m2, np.complex128))


# --------------------------------------------------------------------------
# conventions

_ST_QUARTER_OPTIONS = (1, 2, 0, 4)  # exponent in quarter units: 1/4, 1/2, 0, 1


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
        "st_quarters": _ST_QUARTER_OPTIONS,
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
    """Matrix of a term table.

    Targets outside the basis are dropped.  Brackets and q-powers come from
    the scalar code, once per distinct argument; numpy only negates,
    multiplies and takes square roots, which round exactly as the scalar
    operations do, so entries are independent of how they are batched.
    coeffs maps "a", "c", "c1" to per-block values.
    """
    lnq = math.log(d.q)
    out = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for dj, dm, coef, brackets, qexp in terms:
        valid, rows = basis.locate(basis.j2 + 2 * dj, basis.m2 + 2 * dm)
        cols = np.flatnonzero(valid)
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
        out[rows[cols], cols] += val
    return OperatorMatrix(out)


def build_M(basis: Basis, d: Deformation) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Rotation generators: raising/lowering within each spin block, weight on
    the diagonal.  Entries are real; M3 is exact (half-integers are binary)."""
    return (
        _ladder(basis, _ROTATION_TERMS["m_plus"], d),
        _ladder(basis, _ROTATION_TERMS["m_minus"], d),
        # complex from the start: a real dim x dim temporary fragments the heap
        OperatorMatrix(np.diag(basis.m2 / 2 + 0j)),
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
    qm = _gather(lambda t: math.pow(d.q, t / 2), basis.m2)
    return OperatorMatrix(qm[:, None] * n3.data)


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
    num = (m_plus.data @ n_minus.data + m_minus.data @ n_plus.data) / rq
    num = num - rq * (n_minus.data @ m_plus.data + n_plus.data @ m_minus.data)
    num = num - two * (n3_tilde.data - n3.data)
    return OperatorMatrix(num / (2.0 * d.delta))


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
    for name, terms in zip(("n_plus", "n_minus"), _boost_terms(conv)):
        if frozenset((t.dj, t.dm) for t in terms) != GENERATOR_PATTERNS[name]:
            raise ConstructionInconsistencyError(
                f"convention {conv}: the {name} steps break its selection rule"
            )
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
    m3 = OperatorMatrix(np.diag(basis.m2 / 2 + 0j))
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
    mp = OperatorMatrix(q14 * tri.m_plus.data @ qm)
    mm = OperatorMatrix(q14 * tri.m_minus.data @ qp)
    np_ = OperatorMatrix(-1j * mp.data)
    nm = OperatorMatrix(-1j * mm.data)
    n3 = OperatorMatrix(
        diag_from_m(basis, lambda m: -1j * q_number(m, d) * math.pow(d.q, -float(m) / 2))
    )
    n3t = OperatorMatrix(
        diag_from_m(basis, lambda m: -1j * q_number(m, d) * math.pow(d.q, float(m) / 2))
    )
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
    tri = suq2_matrices(two_j, d)
    basis = tri.basis
    e = conv.st_quarters / 4.0
    qe = math.pow(d.q, e)
    qdn = diag_from_m(basis, lambda m: math.pow(d.q, -float(m) / 2))
    qup = diag_from_m(basis, lambda m: math.pow(d.q, float(m) / 2))
    mp, mm = tri.m_plus.data, tri.m_minus.data
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
        TensorOperator(one, {mu: OperatorMatrix(arr) for mu, arr in comps.items()})
        for comps in ({1: s_plus, 0: s_zero, -1: s_minus}, {1: t_plus, 0: t_zero, -1: t_minus})
    )


def tensor_embed(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two operators."""
    return OperatorMatrix(np.kron(a.data, b.data))


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
    rows, cols = np.nonzero(op.data)
    for r, c, z in zip(rows.tolist(), cols.tolist(), op.data[rows, cols].tolist()):
        lines.append("%d %d %.17g %.17g" % (r, c, z.real, z.imag))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_matrix(path) -> tuple[np.ndarray, RepLabel, ConventionId]:
    """Read one coordinate-format file; malformed content raises ValueError."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError(f"bad matrix header in {path}: {header!r}")
        dim = int(m.group(1))
        label = _parse_label_token(m.group(2))
        conv = ConventionId.parse(m.group(3))
        arr = np.zeros((dim, dim), dtype=np.complex128)
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            r, c, re_, im_ = line.split()
            r, c = int(r), int(c)
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) outside the {dim}x{dim} matrix in {path}")
            arr[r, c] = complex(float(re_), float(im_))
    return arr, label, conv


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
    files = {n: import_matrix(os.path.join(directory, f"{n}.txt")) for n in GENERATOR_PATTERNS}
    first, (arr0, label, conv) = next(iter(files.items()))
    for name, (arr, lab, cv) in files.items():
        if arr.shape != arr0.shape or lab != label or cv != conv:
            raise ValueError(f"{name}.txt disagrees with {first}.txt on dim, label or convention")
    dim = arr0.shape[0]
    # n blocks from l0 on hold n * (n + 2 l0) states; a finite label ignores j_max
    t = label.l0.twice
    n_blocks = (math.isqrt(t * t + 4 * dim) - t) // 2
    basis = build_basis(label, label.l0 + max(n_blocks - 1, 0))
    if basis.dim != dim:
        raise ValueError(f"dim {dim} is not the dim of a basis of {label}")
    ops = {name: OperatorMatrix(f[0]) for name, f in files.items()}
    return GeneratorSet(basis=basis, label=label, convention=conv, tag="imported", **ops)
