"""The benchmark's workloads: seeded batches of CLI invocations.

`batches(workload, seed, tmp)` returns a function that yields the
workload's next batch of ops, drawn from one `random.Random` seeded by
(workload, seed), so the same seed gives the same inputs.  A batch has a fixed composition
(which commands, label classes and truncations it holds); the seed draws the
values inside it (q, the label constants, the order).  That keeps the work
per batch, and the set of ops expected to fail, the same from seed to seed.

Every label drawn is a valid representation, so any exit code other than 0
is a failure of the program.  The expectations an op carries (spin content,
series) are derived here from the label, independently of the program.

Workloads (closed loop, one client, each op waits for the previous one):

deep_verify    few large ops; dense storage, the O(dim^2) pattern scan and
               O(dim^3) products dominate.  Stands for `verify --j-max 20`.
small_sweep    many small ops over all four label classes; parsing,
               per-entry Python and JSON emission dominate.  Every label is
               distinct, so a memo cache gets no hits.  No op fails.
resolve_chiral the same label built many times inside one op (convention
               scoring, the chiral adjoint suite, the coproduct kron, the
               classical limit); the only workload on the chiral paths.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

Q_DEEP = ("0.5", "1.3", "2")

# the three infinite label classes of deep_verify
PRINCIPAL = (Fraction(0), "2.7i")
COMPLEMENTARY = (Fraction(0), "0.5")
NON_UNITARY = (Fraction(2), "1-0.5i")


@dataclass
class Op:
    """One CLI invocation plus what the harness expects of its report."""

    argv: list[str]
    command: str
    kind: Optional[str] = None  # expected classification kind
    series: Optional[str] = None  # expected unitary series
    spins: Optional[list[Fraction]] = None  # expected basis spins (build)
    j_max: Optional[Fraction] = None  # expected config j_max (verify)
    table_rows: Optional[int] = None  # expected score-table length (conventions)


def half(x: Fraction) -> str:
    """HalfInt syntax: '2', '3/2'."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def spins_of(l0: Fraction, l1: str, j_max: Fraction, finite: bool) -> list[Fraction]:
    """Spin content: l0..|l1|-1 for a finite label, l0..j_max otherwise."""
    top = Fraction(abs(float(l1))) - 1 if finite else j_max
    out, j = [], l0
    while j <= top:
        out.append(j)
        j += 1
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _q(rng: random.Random) -> str:
    while True:
        q = "%.6g" % _log_uniform(rng, 0.5, 2.0)
        if abs(float(q) - 1.0) > 1e-3:
            return q


def _num(x: float) -> str:
    return "%.4g" % x


# --------------------------------------------------------------------------
# label classes drawn by small_sweep and resolve_chiral


def draw_label(rng: random.Random, cls: str, l0: Optional[Fraction] = None) -> tuple[Fraction, str, str, str]:
    """(l0, l1, expected kind, expected series) for one label class."""
    if cls == "principal":
        l0 = l0 if l0 is not None else Fraction(rng.randint(0, 4), 2)
        return l0, _num(rng.uniform(0.3, 4.0)) + "i", "infinite", "principal"
    if cls == "complementary":
        return Fraction(0), _num(rng.uniform(0.1, 0.95)), "infinite", "complementary"
    if cls == "non_unitary":
        l0 = l0 if l0 is not None else Fraction(rng.randint(0, 4), 2)
        re_, im_ = rng.uniform(0.3, 2.5), rng.uniform(0.2, 1.5)
        sign = rng.choice("+-")
        return l0, f"{_num(re_)}{sign}{_num(im_)}i", "infinite", "non_unitary"
    if cls == "finite":
        l0 = l0 if l0 is not None else Fraction(rng.randint(1, 4), 2)
        n = rng.randint(0, 3)
        return l0, _num(float(l0 + n + 1)), "finite", "non_unitary"
    raise ValueError(cls)


CLASSES = ("principal", "complementary", "non_unitary", "finite")


# --------------------------------------------------------------------------
# workloads


def _verify(l0: Fraction, l1: str, q: str, k: int) -> Op:
    jm = l0 + k
    return Op(["verify", "--l0", half(l0), "--l1", l1, "--q", q, "--j-max", half(jm)], "verify", j_max=jm)


def _build(l0: Fraction, l1: str, q: str, k: int, export: Optional[str] = None, finite: bool = False) -> Op:
    jm = l0 + k
    argv = ["build", "--l0", half(l0), "--l1", l1, "--q", q, "--j-max", half(jm)]
    if export:
        argv += ["--export", export]
    return Op(argv, "build", spins=spins_of(l0, l1, jm, finite))


def deep_verify(rng: random.Random, tmp: str) -> list[Op]:
    """Twelve ops, 11-17 s of work on one core.

    - six verifies, two per infinite class, dims 221-225; their q values are
      a shuffle of 0.5, 0.5, 1.3, 1.3, 2, 2, so exactly the four at q != 1.3
      fail tier 1 whatever the seed;
    - the ROADMAP's `verify --j-max 20` on (0, 2.7i) (dim 441), which fails
      at every q;
    - a build --export / verify --import round trip of (0, 0.5) at l0+20, q
      drawn from 0.5/1.3 where the import passes (at q = 2 it fails, and a
      free draw would make the failure count depend on the seed);
    - a build of (0, 2.7i) at l0+32 (dim 1089, the peak of resident memory)
      and builds of both l0 = 0 classes at l0+16 (dim 289).

    Half the ops are the dim-225 verifies.  As many ops take less time than
    they do as take more, so the median op falls in the middle of that
    cluster, where op-to-op noise moves it least.  `verify` at l0+24
    (about 9 s) and at l0+32 is left out: one such op would take most of a
    run.
    """
    qs = list(Q_DEEP) * 2
    rng.shuffle(qs)
    classes = [(PRINCIPAL, 14), (COMPLEMENTARY, 14), (NON_UNITARY, 12)] * 2
    units = [[_verify(*label, q, k)] for (label, k), q in zip(classes, qs)]
    units.append([_verify(*PRINCIPAL, rng.choice(Q_DEEP), 20)])
    units.append([_build(*PRINCIPAL, rng.choice(Q_DEEP), 32)])
    units += [[_build(*label, rng.choice(Q_DEEP), 16)] for label in (PRINCIPAL, COMPLEMENTARY)]
    export = os.path.join(tmp, "export")
    imp = Op(["verify", "--import", export], "verify", j_max=COMPLEMENTARY[0] + 20)
    units.append([_build(*COMPLEMENTARY, rng.choice(("0.5", "1.3")), 20, export=export), imp])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


# j_max offsets of small_sweep's verify ops.  From offset 6 on, the eq6
# swap records' elementwise residual (ROADMAP item 1) crosses its tolerance
# for some drawn labels and not for others, so the number of failing ops
# would depend on the draw; up to 4 it stays below a quarter of the
# tolerance.  deep_verify carries that failure at a fixed count per batch.
VERIFY_OFFSETS = (2, 3, 4)


def small_sweep(rng: random.Random, seen: set) -> list[Op]:
    """140 small ops: {classify, build, verify, chiral, limit} x the four
    label classes x seven j_max offsets (2..8; for verify 2..4 cycled),
    shuffled; q log-uniform in [0.5, 2].  No argv repeats within a run
    (`seen` holds the ones drawn so far)."""
    ops = []
    for command in ("classify", "build", "verify", "chiral", "limit"):
        for cls in CLASSES:
            for i, k in enumerate(range(2, 9)):
                if command == "verify":
                    k = VERIFY_OFFSETS[i % len(VERIFY_OFFSETS)]
                while True:
                    l0, l1, kind, series = draw_label(rng, cls)
                    eps = "%.4g" % _log_uniform(rng, 1e-7, 1e-5)
                    op = _small_op(command, l0, l1, _q(rng), eps, k, kind, series)
                    if tuple(op.argv) not in seen:
                        seen.add(tuple(op.argv))
                        break
                ops.append(op)
    rng.shuffle(ops)
    return ops


def _small_op(command, l0, l1, q, eps, k, kind, series) -> Op:
    finite = kind == "finite"
    jm = l0 + k
    label = ["--l0", half(l0), "--l1", l1]
    if command == "classify":
        return Op(["classify", *label, "--q", q], command, kind=kind, series=series)
    if command == "build":
        return _build(l0, l1, q, k, finite=finite)
    if command == "verify":
        return Op(["verify", *label, "--q", q, "--j-max", half(jm)], command, j_max=jm)
    if command == "chiral":
        return Op(["chiral", *label, "--q", q, "--j-max", half(jm)], command)
    return Op(["limit", *label, "--eps", eps, "--j-max", half(jm)], command)


def resolve_chiral(rng: random.Random) -> list[Op]:
    """Ten ops, about 2.5 s: two convention resolutions on a label (72
    boost-variant builds each), four chiral suites, two coproducts of
    (1, 2.7i) with itself (kron of dim 15 factors), two classical limits.
    The l0 of every slot is fixed so the work per batch is too."""
    ops = []
    for cls, l0 in (("principal", Fraction(1)), ("non_unitary", Fraction(1, 2))):
        l0, l1, _k, _s = draw_label(rng, cls, l0)
        ops.append(
            Op(["conventions", "--l0", half(l0), "--l1", l1, "--q", _q(rng)], "conventions", table_rows=78)
        )
    for cls, l0 in (
        ("principal", Fraction(0)),
        ("complementary", Fraction(0)),
        ("non_unitary", Fraction(1)),
        ("finite", Fraction(1, 2)),
    ):
        l0, l1, _k, _s = draw_label(rng, cls, l0)
        ops.append(Op(["chiral", "--l0", half(l0), "--l1", l1, "--q", _q(rng)], "chiral"))
    for _ in range(2):
        ops.append(Op(["coproduct", "--l0", "1", "--l1", "2.7i", "--q", _q(rng)], "coproduct"))
    for cls, l0 in (("principal", Fraction(1)), ("non_unitary", Fraction(1, 2))):
        l0, l1, _k, _s = draw_label(rng, cls, l0)
        eps = "%.4g" % _log_uniform(rng, 1e-7, 1e-5)
        ops.append(Op(["limit", "--l0", half(l0), "--l1", l1, "--eps", eps, "--j-max", half(l0 + 6)], "limit"))
    rng.shuffle(ops)
    return ops


# Nominal seconds of one batch (about its shortest time measured), for the
# workloads whose batch count is fixed from --seconds rather than read off
# the clock.  A deep_verify batch takes 11-17 s, a third of a run or more,
# so a time budget gives two batches on one run and three on the next, and
# with them a different number of ops and of item-1 failures; a fixed count
# keeps both the same on every run.
FIXED_BATCH_SECONDS = {"deep_verify": 11.0}


def batches(workload: str, seed: int, tmp: str) -> Callable[[], list[Op]]:
    """Return a function that yields the workload's next batch."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep_verify":
        return lambda: deep_verify(rng, tmp)
    if workload == "small_sweep":
        seen: set = set()
        return lambda: small_sweep(rng, seen)
    if workload == "resolve_chiral":
        return lambda: resolve_chiral(rng)
    raise ValueError(f"unknown workload {workload!r}")

