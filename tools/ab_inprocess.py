"""Interleaved in-process A/B of two qlorentz source trees on benchmark ops.

    python3 tools/ab_inprocess.py PARENT/src src --workload resolve_chiral --seed 0 --batches 2 --reps 5

Both trees are imported into one process, tree A twice: A and A' are two
independent module sets of the same source, so A'/A is the A/A control of
the run, under the same host load as B/A.  Each module set (every
submodule, so a handler's lazy import finds its own set's module) is loaded
once and set aside; before each op its modules are put back into
`sys.modules`, so `qlorentz.cli.main(argv)` and every import it makes run
that set's code.  The ops come from `perfbench/workloads.py` (the batches
`perfbench/run.py` draws for the same workload and seed), and each op runs
on A, A' and B back to back, the order rotating from op to op and from rep
to rep, so a drift of the host's speed falls on every side alike.  BLAS is
pinned to one thread before numpy loads, as in `run.py`.

For each command (`build --export` and `verify --import` ops apart) it
prints the op count, the sum over its ops of each op's best time (of
`--reps`) on A, A' and B, the ratios A'/A and B/A side by side, the median
over its ops of each op's best time on A and B, and how many ops gave
outcomes that are not all equal on the three (exit code, stderr, report or
files, as in the identity mode below, compared on the first rep).

    python3 tools/ab_inprocess.py PARENT/src src --argv-file tools/identity_argv.json

checks report identity instead: it runs each argv of a JSON list of argv
once per tree, `{tmp}` standing for the tree's own scratch directory (so a
`build --export {tmp}/x` and a later `verify --import {tmp}/x` pair up),
compares the exit code, stderr, report bytes and every file under `{tmp}`,
lists each argv that differs and exits 1 if any does.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _drop_qlorentz() -> None:
    for name in [n for n in sys.modules if n == "qlorentz" or n.startswith("qlorentz.")]:
        del sys.modules[name]


def load_tree(src: str) -> dict:
    """Every `qlorentz` module of the source tree `src`, imported afresh."""
    _drop_qlorentz()
    sys.path.insert(0, os.path.abspath(src))
    try:
        pkg = importlib.import_module("qlorentz")
        if Path(pkg.__file__).resolve().parent != (Path(src) / "qlorentz").resolve():
            raise SystemExit(f"error: no qlorentz package under {src}")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"qlorentz.{info.name}")
    finally:
        sys.path.pop(0)
    return {n: m for n, m in sys.modules.items() if n == "qlorentz" or n.startswith("qlorentz.")}


def run_op(tree: dict, argv: list[str], files: str, out: str) -> tuple[float, tuple]:
    """(wall seconds, outcome) of one op on a tree, `{tmp}` in its argv standing
    for `files` and its report written to `out`.  The outcome is the exit code,
    stderr, report bytes and every file under `files`, with `files` written
    back as `{tmp}`, so the outcomes of two trees compare equal when they agree."""
    _drop_qlorentz()
    sys.modules.update(tree)
    main = tree["qlorentz.cli"].main
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main([a.replace("{tmp}", files) for a in argv] + ["--output", out])
        wall = time.perf_counter() - t0
    raw = Path(out).read_bytes() if os.path.exists(out) else b""
    written = {str(p.relative_to(files)): p.read_bytes() for p in Path(files).rglob("*") if p.is_file()}
    return wall, (code, err.getvalue().replace(files, "{tmp}"), raw.replace(files.encode(), b"{tmp}"), written)


def _sides(tmp: str, n: int) -> list[tuple[str, str]]:
    """(files directory, report path) of each of n module sets under `tmp`."""
    sides = [(os.path.join(tmp, str(k), "files"), os.path.join(tmp, str(k), "report.json")) for k in range(n)]
    for files, _out in sides:
        os.makedirs(files)
    return sides


def identity(trees: list, argv_file: str) -> int:
    """Run each argv of the JSON list in `argv_file` once per tree and print
    those whose outcomes differ; 1 if any does."""
    with open(argv_file) as fh:
        argvs = json.load(fh)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = _sides(tmp, 2)
        for argv in argvs:
            if run_op(trees[0], argv, *sides[0])[1] != run_op(trees[1], argv, *sides[1])[1]:
                differ.append(argv)
                print("differs:", " ".join(argv))
    _drop_qlorentz()
    print(f"{len(argvs) - len(differ)} of {len(argvs)} argv identical")
    return 1 if differ else 0


def _kind(op) -> str:
    """The op's command, with `--import` or `--export` when it reads or writes matrix files."""
    return " ".join([op.command, *(a for a in op.argv if a in ("--import", "--export"))])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="source tree A (the directory holding qlorentz/)")
    ap.add_argument("b", help="source tree B")
    ap.add_argument("--workload", default="resolve_chiral")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--argv-file", help="check report identity on the argv of this JSON list instead of timing")
    args = ap.parse_args(argv)

    if args.argv_file:
        return identity([load_tree(args.a), load_tree(args.b)], args.argv_file)
    trees = [load_tree(args.a), load_tree(args.a), load_tree(args.b)]  # A, A', B
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "ops")
        os.makedirs(base)
        sides = _sides(tmp, len(trees))
        next_batch = workloads.batches(args.workload, args.seed, base)
        ops = [op for _ in range(args.batches) for op in next_batch()]
        best = [[float("inf")] * len(ops) for _ in trees]
        differ = defaultdict(int)
        for rep in range(args.reps):
            for i, op in enumerate(ops):
                argv = [a.replace(base, "{tmp}") for a in op.argv]
                outcomes = [None] * len(trees)
                for j in range(len(trees)):
                    k = (i + rep + j) % len(trees)
                    wall, outcomes[k] = run_op(trees[k], argv, *sides[k])
                    best[k][i] = min(best[k][i], wall)
                if rep == 0 and outcomes.count(outcomes[0]) != len(outcomes):
                    differ[_kind(op)] += 1
    _drop_qlorentz()

    heads = ("A sum-of-best", "A' sum-of-best", "B sum-of-best", "A'/A", "B/A", "A median", "B median", "differ")
    print(f"{'command':<18} {'ops':>4} " + " ".join(f"{h:>{w}}" for h, w in zip(heads, (14, 15, 14, 6, 6, 9, 9, 6))))
    by_cmd = defaultdict(list)
    for i, op in enumerate(ops):
        by_cmd[_kind(op)].append(i)
    rows = sorted(by_cmd.items()) + [("all", list(range(len(ops))))]
    for cmd, idx in rows:
        sa, sa2, sb = (sum(best[k][i] for i in idx) * 1e3 for k in (0, 1, 2))
        ma, mb = (statistics.median(best[k][i] for i in idx) * 1e3 for k in (0, 2))
        n_diff = sum(differ.values()) if cmd == "all" else differ[cmd]
        print(f"{cmd:<18} {len(idx):>4} {sa:>11.2f} ms {sa2:>12.2f} ms {sb:>11.2f} ms {sa2 / sa:>6.3f} "
              f"{sb / sa:>6.3f} {ma:>6.2f} ms {mb:>6.2f} ms {n_diff:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
