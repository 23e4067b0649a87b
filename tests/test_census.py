"""A seeded census of the accepted domain, run in-process.

The first 60 argv of the random draw of `tools/census.py`: every subcommand
with l0 <= 3, |Re l1| <= 40, 0 <= Im l1 <= 20, q log-uniform in [0.1, 10]
and j_max <= l0 + 24, with a stratum of finite labels (l1 = +-(l0 + n)).
No argv may raise out of `cli.main` or warn, every exit 2 must print an
`error: ` line, and no `verify` may fail a `rec.*` record (the recurrence
residuals are tier 1 and scaled by their terms, so roundoff alone never
fails them).
`limit` may still exit 1 on its deviation records; the exit tallies are
printed.
"""

import collections
import importlib.util
from pathlib import Path

N_ARGV = 60


def _census():
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_of_the_accepted_domain(tmp_path, capsys):
    census = _census()
    tally = collections.defaultdict(collections.Counter)
    faults = []
    for argv in census.draw(N_ARGV):
        rec = census.run_one(argv, str(tmp_path / "out.json"))
        if "raised" in rec or rec["warnings"]:
            faults.append((argv, rec.get("raised"), rec["warnings"]))
            continue
        code = rec["exit"]
        tally[argv[0]][code] += 1
        if code == 2 and not rec["stderr"].startswith("error: "):
            faults.append((argv, f"exit 2 without a message: {rec['stderr']!r}"))
        failed = [rid for rid, tier in rec["failed"] if tier == 1 and rid.startswith("rec.")]
        if argv[0] == "verify" and failed:
            faults.append((argv, f"failed {failed}"))
    with capsys.disabled():
        print("\ncensus exits:", {cmd: dict(sorted(c.items())) for cmd, c in sorted(tally.items())})
    assert not faults, faults


def test_census_draw_is_a_prefix_of_the_longer_draw():
    census = _census()
    assert census.draw(300)[:N_ARGV] == census.draw(N_ARGV)
