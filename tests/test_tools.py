import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inprocess_runs_a_tree_against_itself():
    # A/A on one resolve_chiral batch: every command of the batch gets a row,
    # and no op gives a different exit code or report on the two sides
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "src", "src", "--workload", "resolve_chiral",
         "--seed", "0", "--batches", "1", "--reps", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rows = {line.split()[0]: line.split() for line in out.stdout.splitlines()[1:]}
    assert set(rows) == {"chiral", "conventions", "coproduct", "limit", "all"}
    assert rows["all"][1] == "10" and all(row[-1] == "0" for row in rows.values())
