"""qlorentz benchmark: one command runs a workload, checks every report and
prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload deep_verify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each operation is one in-process
`qlorentz.cli.main(argv)` call that writes its report into a temporary
directory under `.perfbench/`.  BLAS is pinned to one thread before numpy
loads, so the workload process is single-threaded.

--trace 0  one untraced pass of --seconds; prints the end-to-end metrics.
           (deep_verify runs a fixed number of batches sized to --seconds,
           see workloads.FIXED_BATCH_SECONDS.)
--trace 1  an untraced pass of half of --seconds, then a traced replay of
           the same ops; prints the per-layer metrics.  Every report byte of
           the replay must equal the untraced one.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
environment, per-op records and (traced) spans go to `.perfbench/`.
"""

from __future__ import annotations

import os

_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 15
TAIL_BEYOND = 10

# a fresh interpreter pays this on every CLI invocation
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qlorentz; from qlorentz.cli import main; "
    "sys.exit(main(['classify', '--l0', '0', '--l1', '2.7i', '--q', '1.3', '--output', sys.argv[2]]))"
)


# --------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        **{var: os.environ.get(var) for var in _PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# set-up time


def setup_once(tmp: str) -> float:
    """Wall time of one fresh interpreter importing qlorentz and running
    one classify."""
    out = os.path.join(tmp, "setup.json")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), out],
        cwd=ROOT,
        capture_output=True,
        timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    with open(out) as fh:
        if json.load(fh)["classification"]["unitary"] != "principal":
            raise RuntimeError("set-up classify returned a wrong series")
    return wall


# --------------------------------------------------------------------------
# report checks, independent of the program


def check_report(op, rc, raw: bytes) -> tuple[str, list[str], dict]:
    """Classify one op as ok / tier1 / error / check, with its problems and
    the record counts of its report."""
    half = workloads.half
    counts = {"relations": 0, "tier1_fail": 0}
    if rc is None or rc == 2:
        return "error", [f"exit {rc}"], counts
    try:
        doc = json.loads(raw)
    except ValueError:
        return "error", ["report does not parse"], counts
    problems = []
    try:
        verdict = doc.get("verdict")
        if verdict is not None:
            rels = [rel for rep in doc["reports"] for rel in rep["relations"]]
            counts["relations"] = len(rels)
            counts["tier1_fail"] = sum(1 for rel in rels if rel["tier"] == 1 and not rel["pass"])
            if verdict["tier1_pass"] != (counts["tier1_fail"] == 0):
                problems.append("verdict disagrees with the tier-1 records")
            if rc != (0 if verdict["tier1_pass"] else 1):
                problems.append(f"exit {rc} disagrees with tier1_pass={verdict['tier1_pass']}")
        elif rc != 0:
            problems.append(f"exit {rc} on a command without a verdict")
        if op.spins is not None:
            basis = doc["basis"]
            if basis["spins"] != [half(j) for j in op.spins]:
                problems.append(f"basis spins {basis['spins']}")
            if basis["dim"] != sum(2 * j + 1 for j in op.spins):
                problems.append(f"basis dim {basis['dim']}")
        if op.kind is not None:
            cls = doc["classification"]
            if (cls["kind"], cls["unitary"]) != (op.kind, op.series):
                problems.append(f"classified {cls['kind']}/{cls['unitary']}, drawn {op.kind}/{op.series}")
        if op.j_max is not None and doc["config"]["j_max"] != half(op.j_max):
            problems.append(f"j_max {doc['config']['j_max']}")
        if op.table_rows is not None and len(doc["table"]) != op.table_rows:
            problems.append(f"{len(doc['table'])} score rows")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks {exc}")
    if problems:
        return "check", problems, counts
    return ("tier1" if rc == 1 else "ok"), [], counts


# --------------------------------------------------------------------------
# passes


def run_batch(cli, ops, tmp: str, clock) -> tuple[list[dict], float]:
    """Run one batch closed-loop; reports are read and hashed after it."""
    out_dir = os.path.join(tmp, "reports")
    os.makedirs(out_dir, exist_ok=True)
    recs = []
    b0 = clock()
    for i, op in enumerate(ops):
        path = os.path.join(out_dir, f"{i}.json")
        if os.path.exists(path):  # an op that writes no report must not inherit one
            os.remove(path)
        err = None
        c0 = time.process_time()
        t0 = clock()
        try:
            rc = cli.main(op.argv + ["--output", path])
        except Exception as exc:  # a traceback is a failure of the op, not of the run
            rc, err = None, f"{type(exc).__name__}: {exc}"
        wall = clock() - t0
        recs.append({"wall_s": wall, "cpu_s": time.process_time() - c0, "rc": rc, "exception": err, "path": path})
    batch_wall = clock() - b0
    for op, rec in zip(ops, recs):
        try:
            with open(rec.pop("path"), "rb") as fh:
                raw = fh.read()
        except OSError:
            raw = b""
        rec["sha256"] = hashlib.sha256(raw).hexdigest()
        rec["status"], rec["problems"], rec["counts"] = check_report(op, rec["rc"], raw)
    return recs, batch_wall


def timed_pass(cli, next_batch, budget: float, tmp: str, batch_s=None, setup_reps=0):
    """Whole batches until the budget is used (at least one); a new batch
    starts only if it is expected to end closer to the budget than not.
    Given a nominal batch time `batch_s`, the count is fixed instead:
    budget // batch_s batches, at least one.

    The `setup_reps` set-up measurements are spread over the pass, one
    before the first batch and the rest after the batches, keeping pace with
    the share of the pass done.  The host's speed drifts over tens of
    seconds, so set-up is timed across the same stretch as the ops rather
    than in one burst; its time does not count against the budget."""
    batches, records, walls, setup = [], [], [], []
    n_fixed = max(1, int(budget // batch_s)) if batch_s else None
    t0 = time.perf_counter()
    setup_spent = 0.0

    def used():
        return time.perf_counter() - t0 - setup_spent

    def more():
        if n_fixed is not None:
            return len(walls) < n_fixed
        return not walls or used() + 0.5 * statistics.mean(walls) < budget

    def run_setup(upto):
        nonlocal setup_spent
        s0 = time.perf_counter()
        while len(setup) < min(upto, setup_reps):
            setup.append(setup_once(tmp))
        setup_spent += time.perf_counter() - s0

    run_setup(1)
    while more():
        ops = next_batch()
        recs, wall = run_batch(cli, ops, tmp, time.perf_counter)
        batches.append(ops)
        records.append(recs)
        walls.append(wall)
        done = len(walls) / n_fixed if n_fixed is not None else used() / budget
        run_setup(1 + math.ceil((setup_reps - 1) * done))
    run_setup(setup_reps)
    return batches, records, walls, setup


def traced_pass(cli, ops, tmp: str, tracer) -> list[dict]:
    """Replay the timed pass's ops, one at a time, with every layer wrapped."""
    records = []
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            tracer.begin_op(op_id)
            records.extend(run_batch(cli, [op], tmp, tracer.clock)[0])
    finally:
        tracer.uninstall()
    return records


# --------------------------------------------------------------------------
# metrics


def tail(walls: list[float]) -> dict:
    """Wall time at the highest percentile with TAIL_BEYOND samples beyond
    it.  With TAIL_BEYOND samples or fewer the maximum is reported."""
    xs = sorted(walls)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"value": xs[rank - 1], "percentile": 100.0 * rank / n, "samples": n, "beyond": n - rank}


def end_to_end(setup_s, flat, batch_sizes, walls, peak_kb) -> tuple[dict, dict]:
    op_walls = [r["wall_s"] for r in flat]
    t = tail(op_walls)
    failed = sum(1 for r in flat if r["status"] != "ok")
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(op_walls),
        "op_tail_s": t.pop("value"),
        # over the whole pass: a median over batches jumps between the fast
        # and slow phases of a shared host, a total averages them
        "ops_per_s": sum(batch_sizes) / sum(walls),
        "ok_share": 1.0 - failed / len(flat),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return metrics, {"tail": t}


def per_layer(tracer, timed_flat, traced_flat, declared) -> dict:
    n = len(traced_flat)
    st = tracer.self_times()
    calls = tracer.counts
    comp = [tracer.op_computed[i] for i in range(n)]
    sets = [s for c in comp for s in c["generator_sets"]]

    def per_op(x):
        return x / n

    def share(num, den):
        return num / den if den else 0.0

    # "<function>.self_s" is that function's self time, "<layer>.self_s" the
    # sum over the layer's functions; "<function>.calls" is its call count
    metrics = {}
    for name in declared:
        if name.endswith(".self_s"):
            prefix = name[: -len(".self_s")]
            metrics[name] = per_op(sum(v for k, v in st.items() if k == prefix or k.startswith(prefix + ".")))
        elif name.endswith(".calls"):
            metrics[name] = per_op(calls.get(name, 0))
    metrics["repcore.coeff.calls"] = per_op(
        calls.get("repcore.coeff_a.calls", 0) + calls.get("repcore.coeff_c.calls", 0)
    )
    metrics["matrep.dense_bytes"] = per_op(sum(s["dense_bytes"] for s in sets))
    metrics["matrep.fill_ratio"] = per_op(sum(s["fill_ratio"] for s in sets))
    metrics["matrep.io_bytes"] = per_op(sum(c["io_bytes"] for c in comp))
    metrics["matrep.build_generator_set.repeat_share"] = share(
        sum(c["build_repeats"] for c in comp), sum(c["build_calls"] for c in comp)
    )
    metrics["verify.resolve_conventions.valid_share"] = share(
        sum(c["convention_valid"] for c in comp), sum(c["convention_rows"] for c in comp)
    )
    metrics["jsonfmt.dumps.bytes"] = per_op(sum(c["json_bytes"] for c in comp))
    metrics["verify.relations"] = per_op(sum(r["counts"]["relations"] for r in timed_flat))
    metrics["verify.tier1_fail"] = per_op(sum(r["counts"]["tier1_fail"] for r in timed_flat))
    metrics["cli.error"] = per_op(sum(1 for r in timed_flat if r["status"] == "error"))
    metrics["fail_share"] = share(sum(1 for r in timed_flat if r["status"] != "ok"), len(timed_flat))
    traced_wall = sum(r["wall_s"] for r in traced_flat)
    metrics["trace.overhead"] = traced_wall / sum(r["wall_s"] for r in timed_flat)
    metrics["trace.self_cover"] = sum(st.values()) / traced_wall
    return metrics


# --------------------------------------------------------------------------


def run(args, tmp: str, declared: list[dict]) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import qlorentz.cli as cli

    next_batch = workloads.batches(args.workload, args.seed, tmp)
    budget = args.seconds if args.trace == 0 else args.seconds / 2.0
    batch_s = workloads.FIXED_BATCH_SECONDS.get(args.workload)
    setup_reps = SETUP_REPS if args.trace == 0 else 0
    batches, timed, walls, setup = timed_pass(cli, next_batch, budget, tmp, batch_s, setup_reps)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = [op for b in batches for op in b]
    flat = [r for recs in timed for r in recs]

    detail = {"batch_walls_s": walls, "setup_walls_s": setup}
    if args.trace == 0:
        metrics, extra = end_to_end(statistics.median(setup), flat, [len(b) for b in batches], walls, peak_kb)
        detail.update(extra)
    else:
        tracer = Tracer()
        traced_flat = traced_pass(cli, ops, tmp, tracer)
        for rec, again in zip(flat, traced_flat):
            rec["traced_wall_s"] = again["wall_s"]
            if again["sha256"] != rec["sha256"]:
                rec["status"] = "check"
                rec["problems"].append("report bytes differ under tracing")
        metrics = per_layer(tracer, flat, traced_flat, [m["name"] for m in declared])
        for i, rec in enumerate(flat):
            rec["computed"] = tracer.op_computed[i]
        tracer.write_spans(str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"))

    batch_of = [bi for bi, b in enumerate(batches) for _ in b]
    detail["ops"] = [{"batch": bi, "argv": op.argv, **rec} for bi, op, rec in zip(batch_of, ops, flat)]
    result = {
        "correct": not any(r["status"] in ("error", "check") for r in flat),
        "attempted": len(flat),
        "failed": sum(1 for r in flat if r["status"] != "ok"),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qlorentz" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no qlorentz source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # a SIGTERM unwinds through the finally below, so the temp dir goes too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        result, detail = run(args, tmp, declared)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = result["metrics"]
    missing = {m["name"] for m in declared} - measured.keys()
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"env": env, "result": result, **detail}, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
