"""A seeded census of the accepted domain, run in-process.

60 argv drawn over every subcommand with l0 <= 3, |Re l1| <= 40,
0 <= Im l1 <= 20, q log-uniform in [0.1, 10] and j_max <= l0 + 24, with a
stratum of finite labels (l1 = +-(l0 + n)).  No argv may raise out of
`cli.main`, every exit 2 must print an `error: ` line, and no `verify` may
fail a `rec.*` record (the recurrence residuals are tier 1 and scaled by
their terms, so roundoff alone never fails them).  `limit` may still exit
1 on its deviation records; the exit tallies are printed.
"""

import collections
import json
import math
import random

from qlorentz.cli import main

SEED = 20261020
N_ARGV = 60
COMMANDS = ("classify", "build", "verify", "chiral", "coproduct", "limit", "conventions")


def _spin(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _label(rng: random.Random) -> tuple[int, str]:
    """(twice l0, l1 text) of one label: finite, real, imaginary or complex l1."""
    t0 = rng.randint(0, 6)
    kind = rng.choice(("finite", "real", "imaginary", "complex"))
    if kind == "finite":
        re_, im = rng.choice((1, -1)) * (t0 / 2 + rng.randint(1, 6)), 0.0
    else:
        re_ = 0.0 if kind == "imaginary" else round(rng.uniform(-40, 40), 3)
        im = 0.0 if kind == "real" else round(rng.uniform(0, 20), 3)
    l1 = f"{re_:g}" if im == 0 else f"{re_:g}{im:+g}i"
    return t0, l1


def _argv(rng: random.Random) -> list[str]:
    cmd = rng.choice(COMMANDS)
    t0, l1 = _label(rng)
    q = f"{math.exp(rng.uniform(math.log(0.1), math.log(10))):.6g}"
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


def test_census_of_the_accepted_domain(tmp_path, capsys):
    rng = random.Random(SEED)
    out = tmp_path / "out.json"
    tally = collections.defaultdict(collections.Counter)
    faults = []
    for _ in range(N_ARGV):
        argv = _argv(rng)
        out.unlink(missing_ok=True)
        try:
            code = main([*argv, "--output", str(out)])
        except Exception as exc:  # noqa: BLE001 - every escape is a fault to list
            faults.append((argv, f"raised {exc!r}"))
            continue
        tally[argv[0]][code] += 1
        err = capsys.readouterr().err
        if code == 2 and not err.startswith("error: "):
            faults.append((argv, f"exit 2 without a message: {err!r}"))
        if code == 1 and argv[0] == "verify":
            failed = [
                r["id"]
                for rep in json.loads(out.read_text())["reports"]
                for r in rep["relations"]
                if r["tier"] == 1 and not r["pass"] and r["id"].startswith("rec.")
            ]
            if failed:
                faults.append((argv, f"failed {failed}"))
    with capsys.disabled():
        print("\ncensus exits:", {cmd: dict(sorted(c.items())) for cmd, c in sorted(tally.items())})
    assert not faults, faults
