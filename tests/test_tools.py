import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inprocess_runs_a_tree_against_itself():
    # A/A on one resolve_chiral batch: every command of the batch gets a row
    # with the same-run control A'/A beside B/A, and no op gives a different
    # exit code or report on A, A' and B
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "src", "src", "--workload", "resolve_chiral",
         "--seed", "0", "--batches", "1", "--reps", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    head, *lines = out.stdout.splitlines()
    assert "A'/A B/A" in " ".join(head.split())
    rows = {line.split()[0]: line.split() for line in lines}
    assert set(rows) == {"chiral", "conventions", "coproduct", "limit", "all"}
    assert rows["all"][1] == "10" and all(row[-1] == "0" for row in rows.values())
    assert all(float(row[8]) > 0 and float(row[9]) > 0 for row in rows.values())  # A'/A and B/A


def test_argv_file_mode_checks_report_identity(tmp_path):
    # a tree against itself: every argv identical, exports and imports
    # included; against a copy whose witness note reads differently: exit 1,
    # and only the coproduct argv is listed
    argvs = [
        ["classify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"],
        ["coproduct", "--q", "1.3"],
        ["build", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--export", "{tmp}/exp"],
        ["verify", "--import", "{tmp}/exp"],
        ["verify", "--import", "{tmp}/missing"],
    ]
    argv_file = tmp_path / "argv.json"
    argv_file.write_text(json.dumps(argvs))
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "qlorentz", copy / "qlorentz", ignore=shutil.ignore_patterns("__pycache__"))
    chiral = copy / "qlorentz" / "chiral.py"
    chiral.write_text(chiral.read_text().replace("cocommutator witness", "swap witness"))

    def run(b):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "src", str(b), "--argv-file", str(argv_file)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True, timeout=120,
        )

    same = run("src")
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == ["5 of 5 argv identical"]
    other = run(copy)
    assert other.returncode == 1, other.stderr
    assert other.stdout.splitlines() == ["differs: coproduct --q 1.3", "4 of 5 argv identical"]
