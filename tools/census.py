"""A seeded census of the domain `classify` accepts, run in-process.

    PYTHONPATH=src python3 tools/census.py --output CENSUS.json

draws 300 argv from `random.Random(20261020)` over every
subcommand: l0 <= 3, |Re l1| <= 40, 0 <= Im l1 <= 20, q log-uniform in
[0.1, 10] and j_max <= l0 + 24, with a stratum of finite labels
(l1 = +-(l0 + n)) among them.  Three strata follow, the first two from
their own seeded draw:

* 20 finite labels whose top spin lies within 1 of `spin_limit`, just inside
  the overflow bound (they must build) or just past it (they must exit 2),
  at q in [0.1, 0.15] or [7, 10], where that bound is a spin of 130-158;
* q-periodic partners of 12 drawn labels: l1 + 4i pi/ln q, 2i pi/ln q - l1
  and, at l0 = 0, -l1, which build the label's own matrices, each next to
  the label itself under the same subcommand;
* `verify` of the principal labels (0, i rho) at large rho, 1e3 to 1e5, at
  q = 0.5, 1.3 and 8 (no draw).

Each argv runs through `cli.main`.  The JSON written holds the exit tallies
per subcommand and stratum, the failing record ids (a `=<value>` suffix
folded to `=*`) counted per tier, every argv that exits 1 or 2, raises or
warns, and the environment.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import platform
import random
import re
import sys
import tempfile
import time
import warnings

SEED = 20261020
COMMANDS = ("classify", "build", "verify", "chiral", "coproduct", "limit", "conventions")


def _spin(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _l1_text(re_: float, im: float, digits: str = "g") -> str:
    return f"{re_:{digits}}" if im == 0 else f"{re_:{digits}}{im:+{digits}}i"


def _label(rng: random.Random) -> tuple[int, str]:
    """(twice l0, l1 text) of one label: finite, real, imaginary or complex l1."""
    t0 = rng.randint(0, 6)
    kind = rng.choice(("finite", "real", "imaginary", "complex"))
    if kind == "finite":
        re_, im = rng.choice((1, -1)) * (t0 / 2 + rng.randint(1, 6)), 0.0
    else:
        re_ = 0.0 if kind == "imaginary" else round(rng.uniform(-40, 40), 3)
        im = 0.0 if kind == "real" else round(rng.uniform(0, 20), 3)
    return t0, _l1_text(re_, im)


def _q(rng: random.Random) -> str:
    return f"{math.exp(rng.uniform(math.log(0.1), math.log(10))):.6g}"


def _argv(rng: random.Random) -> list[str]:
    cmd = rng.choice(COMMANDS)
    t0, l1 = _label(rng)
    q = _q(rng)
    j_max = ["--j-max", _spin(t0 + 2 * rng.randint(0, 24))]
    label = ["--l0", _spin(t0), "--l1", l1]
    if cmd == "limit":
        return [cmd, *label, *j_max, "--eps", f"{10 ** rng.uniform(-9, -4):.3g}"]
    if cmd in ("chiral", "conventions") and rng.random() < 0.2:
        return [cmd, "--spin", str(rng.randint(1, 6)), "--q", q]
    if cmd == "coproduct":
        t0_b, l1_b = _label(rng)
        return [cmd, *label, "--q", q, "--l0-b", _spin(t0_b), "--l1-b", l1_b]
    return [cmd, *label, "--q", q, *([] if cmd == "classify" else j_max)]


def draw(n: int) -> list[list[str]]:
    """The first n argv of the census's random draw (a longer draw starts
    with the same argv)."""
    rng = random.Random(SEED)
    return [_argv(rng) for _ in range(n)]


def near_limit(n: int) -> list[list[str]]:
    """n finite labels whose top spin is the last one in range at their q
    (even draws) or the first one past it (odd draws)."""
    from qlorentz.qarith import Deformation
    from qlorentz.repcore import spin_limit

    rng = random.Random(f"{SEED}:near_limit")
    out = []
    for k in range(n):
        t0, x = rng.randint(0, 6), math.exp(rng.uniform(math.log(0.1), math.log(0.15)))
        q = f"{rng.choice((x, 1 / x)):.6g}"
        top2 = t0 + 2 * math.floor(spin_limit(Deformation(float(q))) - t0 / 2) + 2 * (k % 2)
        l1 = f"{rng.choice((1, -1)) * (top2 + 2) / 2:g}"  # |l1| = top + 1
        cmd = rng.choice(("classify", "build", "verify", "chiral"))
        out.append([cmd, "--l0", _spin(t0), "--l1", l1, "--q", q])
    return out


def partners(n: int) -> list[list[str]]:
    """n drawn labels, each followed by its q-periodic partners, all under
    one drawn subcommand."""
    rng = random.Random(f"{SEED}:partners")
    out = []
    for _ in range(n):
        t0, l1 = _label(rng)
        q = _q(rng)
        cmd = rng.choice(tuple(c for c in COMMANDS if c != "limit"))
        z = complex(l1.replace("i", "j"))
        period = 2 * math.pi / math.log(float(q))
        shifted = [z, z + 2j * period, 1j * period - z] + ([-z] if t0 == 0 else [])
        texts = [l1] + [_l1_text(w.real, w.imag, ".17g") for w in shifted[1:]]
        out += [[cmd, "--l0", _spin(t0), "--l1", text, "--q", q] for text in texts]
    return out


def large_rho() -> list[list[str]]:
    """`verify` of (0, i rho) for rho in 1e3, 1e4, 3e4, 1e5 at q = 0.5, 1.3, 8."""
    rhos = (1e3, 1e4, 3e4, 1e5)
    return [["verify", "--l0", "0", "--l1", f"{rho:g}i", "--q", q] for q in ("0.5", "1.3", "8") for rho in rhos]


def run_one(argv: list[str], out: str) -> dict:
    """Exit code (or the exception raised), stderr, warnings and failing
    records of one argv run through `cli.main`, its report written to `out`."""
    from qlorentz.cli import main

    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    rec = {"argv": argv}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stderr(err):
                rec["exit"] = main([*argv, "--output", out])
        except Exception as exc:  # noqa: BLE001 - every escape is a fault to list
            rec["raised"] = repr(exc)
    rec["stderr"] = err.getvalue()
    rec["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    rec["failed"] = []
    if rec.get("exit") == 1:
        with open(out) as fh:
            doc = json.load(fh)
        records = [r for rep in doc.get("reports", []) for r in rep["relations"]]
        rec["failed"] = [(r["id"], r["tier"]) for r in records if not r["pass"]]
    return rec


def census(strata: dict[str, list[list[str]]]) -> dict:
    """Run every argv of each stratum; the census document."""
    import numpy as np

    tallies = collections.defaultdict(collections.Counter)
    failed = {1: collections.Counter(), 2: collections.Counter()}
    listed = []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for stratum, argvs in strata.items():
            for argv in argvs:
                rec = run_one(argv, out)
                code = rec.get("exit", "raised")
                tallies[f"{stratum}/{argv[0]}"][str(code)] += 1
                for rid, tier in rec["failed"]:
                    failed[tier][re.sub(r"=[^.=]*$", "=*", rid)] += 1
                if code != 0 or rec["warnings"]:
                    listed.append({"stratum": stratum, **{k: v for k, v in rec.items() if k != "failed"},
                                   "failed": sorted({rid for rid, _tier in rec["failed"]})})
    return {
        "exits": {key: dict(sorted(c.items())) for key, c in sorted(tallies.items())},
        "failed_records": {f"tier{t}": dict(sorted(c.items())) for t, c in failed.items()},
        "nonzero_exits": listed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "seed": SEED,
            "n_argv": {stratum: len(argvs) for stratum, argvs in strata.items()},
            "seconds": round(time.perf_counter() - t0, 2),
        },
    }


def main(argv=None) -> int:
    os.environ.setdefault("OMP_NUM_THREADS", "1")  # before numpy loads: one BLAS thread
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--output", required=True, help="census JSON to write")
    args = ap.parse_args(argv)
    strata = {"random": draw(300), "near_limit": near_limit(20), "partners": partners(12), "large_rho": large_rho()}
    doc = census(strata)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for key, counts in doc["exits"].items():
        print(f"{key:<24} {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
