"""Span tracer that wraps the public functions of the qlorentz modules.

The program is not edited: `Tracer.install` replaces every binding of each
public function (in every module namespace that imported it) with a wrapper
that records a span, and `Tracer.uninstall` puts the originals back.  Calls
made through module globals, from-imports or lazy imports inside functions
all resolve through those namespaces, so every call is seen.

qarith is counted only: a span on every `q_number` call would swamp its cost.

Spans (name, start, end, parent, op id) are kept in memory and written out
by the caller when the run ends.  A span's self time is its duration minus
the durations of its direct children.  Hooks that compute structural counts
(dims, nonzeros, file sizes) run with the clock paused, so they add to no
span's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "_jsonfmt", "verify", "chiral", "matrep", "repcore", "qarith")
COUNT_ONLY = {"qarith"}
_GENSET_BUILDERS = {"matrep.build_generator_set", "matrep.build_from_suq2", "matrep.import_generator_set"}


def layer_name(module: str) -> str:
    """Metric prefix of a layer: names must start with a letter."""
    return module.lstrip("_")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.paused = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_builds: set = set()
        self._default_conv = None
        self.op_computed: dict[int, dict] = {}

    # -- clock -------------------------------------------------------------

    def clock(self) -> float:
        """perf_counter minus the time spent in counting hooks."""
        return time.perf_counter() - self.paused

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_builds = set()
        self.op_computed[op_id] = {
            "computed": True,
            "generator_sets": [],
            "build_calls": 0,
            "build_repeats": 0,
            "convention_rows": 0,
            "convention_valid": 0,
            "io_bytes": 0,
            "json_bytes": 0,
        }

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"qlorentz.{m}") for m in LAYERS}
        self._default_conv = mods["matrep"].DEFAULT_CONVENTION
        namespaces = [importlib.import_module("qlorentz"), *mods.values()]
        for mod_name, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer_name(mod_name)}.{attr}"
                wrapper = self._counter(fn, name) if mod_name in COUNT_ONLY else self._spanner(fn, name)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._saved.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._saved):
            setattr(ns, key, fn)
        self._saved.clear()

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(idx)
            out = None
            start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
                tracer._after(name, args, kwargs, out)

        return wrapper

    # -- computed counts (clock paused) ----------------------------------

    def _after(self, name: str, args, kwargs, out) -> None:
        rec = self.op_computed.get(self.op)
        if rec is None:
            return
        t0 = time.perf_counter()
        try:
            if name in _GENSET_BUILDERS and out is not None:
                rec["generator_sets"].append(_genset_counts(name, out))
            if name == "matrep.build_generator_set":
                # counted whether or not the build raised: a build thrown away
                # as inconsistent still did the work
                label = args[0]
                j_max = args[1] if len(args) > 1 else kwargs.get("j_max")
                conv = args[2] if len(args) > 2 else kwargs.get("conv", self._default_conv)
                if j_max is None:
                    j_max = label.l0 + 8
                key = (str(label.l0), label.l1, label.d.q, str(j_max), str(conv))
                rec["build_calls"] += 1
                if key in self._op_builds:
                    rec["build_repeats"] += 1
                self._op_builds.add(key)
            elif out is None:
                pass
            elif name == "verify.resolve_conventions":
                table = out[1]
                rec["convention_rows"] += len(table)
                rec["convention_valid"] += sum(1 for row in table if row["valid"])
            elif name == "matrep.export_generator_set":
                directory = args[1] if len(args) > 1 else kwargs["directory"]
                rec["io_bytes"] += sum(os.path.getsize(os.path.join(directory, f)) for f in out)
            elif name == "matrep.import_generator_set":
                directory = args[0] if args else kwargs["directory"]
                rec["io_bytes"] += sum(
                    os.path.getsize(os.path.join(directory, f))
                    for f in os.listdir(directory)
                    if f.endswith(".txt")
                )
            elif name == "jsonfmt.dumps":
                rec["json_bytes"] += len(out.encode("utf-8"))
        finally:
            self.paused += time.perf_counter() - t0

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps({"i": i, "name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )


def _genset_counts(builder: str, gens) -> dict:
    """Structural counts of one generator set: exact, so they repeat run to run."""
    mats = gens.matrices()
    dim = gens.basis.dim
    nnz = {k: int(np.count_nonzero(v.data)) for k, v in mats.items()}
    return {
        "builder": builder,
        "dim": dim,
        "nnz": nnz,
        "dense_bytes": 16 * dim * dim * len(mats),
        "fill_ratio": sum(n / (dim * dim) for n in nnz.values()),
    }
