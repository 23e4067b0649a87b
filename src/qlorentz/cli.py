"""Command-line front end.

Subcommands: classify, build, verify, chiral, coproduct, limit, conventions.
Reports are machine-readable JSON (fixed field order, floats %.17g, byte-
identical across repeated runs) or a plain-text rendering of the same tree.

Exit codes: 0 when every tier-1 check in the invoked suite passes, 1 on any
tier-1 failure, 2 on usage or domain errors (reported before any computation).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from typing import Optional

from . import _jsonfmt
from .qarith import Deformation, HalfInt
from .repcore import RepLabel, classify
from .matrep import (
    ConventionId,
    DEFAULT_CONVENTION,
    RESOLVED_CONVENTION,
    build_generator_set,
    build_from_suq2,
    export_generator_set,
    import_generator_set,
)
from .verify import (
    TIER1_TOL,
    TIER2_TOL,
    Tolerances,
    VerificationReport,
    check_casimir,
    check_lorentz_relations,
    check_q_adjoint,
    check_recurrence_suite,
    check_unitary_coeffs,
    classical_limit_compare,
    resolve_conventions,
)
from .chiral import (
    build_chiral,
    check_chiral_adjoint,
    check_chiral_relations,
    check_coproduct_homomorphism,
    check_reduction_identities,
    check_spinor_annihilation,
    coproduct,
    spinor_labels,
)

__all__ = ["main", "run", "RunConfig", "parse_l1"]

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_NUM}$")
_RE_IMAG = re.compile(rf"^(?P<sign>[+-]?)(?P<mag>{_NUM})?i$")
_RE_FULL = re.compile(rf"^(?P<re>[+-]?{_NUM})(?P<sign>[+-])(?P<mag>{_NUM})?i$")


def parse_l1(s: str) -> complex:
    """Parse the second label constant: "a", "bi", "a+bi" or "a-bi" (decimal)."""
    text = s.strip()
    if _RE_REAL.match(text):
        return complex(float(text), 0.0)
    m = _RE_IMAG.match(text)
    if m:
        mag = float(m.group("mag")) if m.group("mag") else 1.0
        return complex(0.0, -mag if m.group("sign") == "-" else mag)
    m = _RE_FULL.match(text)
    if m:
        mag = float(m.group("mag")) if m.group("mag") else 1.0
        return complex(float(m.group("re")), -mag if m.group("sign") == "-" else mag)
    raise ValueError(f"cannot parse l1 value {s!r} (expected 'a', 'bi', 'a+bi' or 'a-bi')")


@dataclass
class RunConfig:
    """Parsed and validated invocation; all domain checks happen before work."""

    command: str
    l0: Optional[HalfInt] = None
    l1: Optional[complex] = None
    q: Optional[float] = None
    j_max: Optional[HalfInt] = None
    eps: float = 1e-6
    spin_two_j: Optional[int] = None
    convention: Optional[ConventionId] = None
    tier1_tol: Optional[float] = None
    tier2_tol: Optional[float] = None
    export_dir: Optional[str] = None
    import_dir: Optional[str] = None
    l0_b: Optional[HalfInt] = None
    l1_b: Optional[complex] = None
    output: Optional[str] = None
    fmt: str = "json"

    def label(self) -> RepLabel:
        return RepLabel(self.l0, self.l1, Deformation(self.q))

    def effective_j_max(self) -> HalfInt:
        return self.j_max if self.j_max is not None else self.l0 + 8

    def tolerances(self) -> Tolerances:
        return Tolerances(
            TIER1_TOL if self.tier1_tol is None else self.tier1_tol,
            TIER2_TOL if self.tier2_tol is None else self.tier2_tol,
        )


def _render_text(doc: dict, out: list[str], depth: int = 0) -> None:
    pad = "  " * depth
    if "relations" in doc:
        for key in ("suite", "input", "convention", "environment"):
            if key in doc:
                out.append(f"{pad}{key}: {_jsonfmt.dumps(doc[key])}")
        for rel in doc["relations"]:
            status = "PASS" if rel["pass"] else "FAIL"
            line = (
                f"{pad}  [{status}] {rel['id']}: residual={rel['residual']:.6g} "
                f"scale={rel['scale']:.6g} tol={rel['tolerance']:.6g} tier={rel['tier']}"
            )
            if rel.get("note"):
                line += f" ({rel['note']})"
            out.append(line)
        v = doc["verdict"]
        out.append(
            f"{pad}verdict: tier1_pass={v['tier1_pass']} all_pass={v['all_pass']} "
            f"failed={v['n_failed']}/{v['n_relations']}"
        )
    elif "reports" in doc:
        for key, val in doc.items():
            if key == "reports":
                for sub in val:
                    _render_text(sub, out, depth + 1)
                    out.append("")
            elif key == "verdict":
                out.append(
                    f"{pad}overall: tier1_pass={val['tier1_pass']} all_pass={val['all_pass']}"
                )
            else:
                out.append(f"{pad}{key}: {_jsonfmt.dumps(val)}")
    else:
        out.append(pad + _jsonfmt.dumps(doc, indent=True))


def _emit(doc: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = _jsonfmt.dumps(doc, indent=True) + "\n"
    else:
        lines: list[str] = []
        _render_text(doc, lines)
        text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bundle(kind: str, cfg_desc: dict, reports: list[VerificationReport]) -> tuple[dict, bool]:
    recs = [r.to_record() for r in reports]
    tier1 = all(r.tier1_pass for r in reports)
    doc = {
        "command": kind,
        "config": cfg_desc,
        "reports": recs,
        "verdict": {
            "tier1_pass": tier1,
            "all_pass": all(r.all_pass for r in reports),
        },
    }
    return doc, tier1


def run(cfg: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    tols = cfg.tolerances()
    conv = cfg.convention if cfg.convention is not None else RESOLVED_CONVENTION

    if cfg.command == "classify":
        label = cfg.label()
        cls = classify(label)
        doc = {"command": "classify", "label": label.to_record(), "classification": cls.to_record()}
        _emit(doc, cfg)
        return 0

    if cfg.command == "build":
        label = cfg.label()
        gens = build_generator_set(label, cfg.effective_j_max(), conv)
        doc = {
            "command": "build",
            "label": label.to_record(),
            "convention": conv.to_list(),
            "basis": {
                "dim": gens.basis.dim,
                "spins": [str(j) for j in gens.basis.spins],
                "truncated": gens.basis.truncated,
            },
            "matrix_max_norms": {k: v.max_norm for k, v in sorted(gens.matrices().items())},
        }
        if cfg.export_dir:
            files = export_generator_set(gens, cfg.export_dir)
            doc["exported"] = {"directory": cfg.export_dir, "files": files}
        _emit(doc, cfg)
        return 0

    if cfg.command == "verify":
        if cfg.import_dir:
            gens = import_generator_set(cfg.import_dir)
            label = gens.label
            j_max = gens.basis.j_max if gens.basis.j_max is not None else label.l0
        else:
            label = cfg.label()
            j_max = cfg.effective_j_max()
            gens = build_generator_set(label, j_max, conv)
        reports = [
            check_lorentz_relations(gens, tols=tols),
            check_casimir(gens, tols=tols),
            check_recurrence_suite(label, label.l0 + 20, tols),
            check_unitary_coeffs(label, gens.basis.spins[-1], tols),
        ]
        if not cfg.import_dir:
            reports.append(check_q_adjoint(gens, tols))
        doc, tier1 = _bundle(
            "verify",
            {"label": label.to_record(), "j_max": str(j_max), "convention": gens.convention.to_list()},
            reports,
        )
        _emit(doc, cfg)
        return 0 if tier1 else 1

    if cfg.command == "chiral":
        if cfg.spin_two_j is not None:
            gens = build_from_suq2(cfg.spin_two_j, Deformation(cfg.q))
            subject = {"realization": gens.tag}
        else:
            gens = build_generator_set(cfg.label(), cfg.effective_j_max(), conv)
            subject = {"label": gens.label.to_record()}
        cs = build_chiral(gens)
        reports = [
            check_chiral_relations(cs, tols),
            check_reduction_identities(cs, tols),
            check_spinor_annihilation(gens.d),
        ]
        if cfg.spin_two_j is None:
            reports.append(check_chiral_adjoint(gens, tols))
        doc, tier1 = _bundle("chiral", subject, reports)
        _emit(doc, cfg)
        return 0 if tier1 else 1

    if cfg.command == "coproduct":
        d = Deformation(cfg.q)
        la = RepLabel(cfg.l0, cfg.l1, d) if cfg.l0 is not None else spinor_labels(d)[0]
        lb = RepLabel(cfg.l0_b, cfg.l1_b, d) if cfg.l0_b is not None else la
        cs_a = build_chiral(build_generator_set(la, la.l0 + 2, conv))
        cs_b = cs_a if cfg.l0_b is None else build_chiral(build_generator_set(lb, lb.l0 + 2, conv))
        dc = coproduct(cs_a, cs_b, conv)
        reports = [check_coproduct_homomorphism(dc, tols)]
        doc, tier1 = _bundle(
            "coproduct",
            {
                "factor_a": la.to_record(),
                "factor_b": lb.to_record(),
                "convention": conv.to_list(),
            },
            reports,
        )
        _emit(doc, cfg)
        return 0 if tier1 else 1

    if cfg.command == "limit":
        rep = classical_limit_compare(cfg.l0, cfg.l1, cfg.effective_j_max(), cfg.eps, conv)
        doc, tier1 = _bundle(
            "limit",
            {"l0": str(cfg.l0), "l1": {"re": cfg.l1.real, "im": cfg.l1.imag}, "eps": cfg.eps},
            [rep],
        )
        _emit(doc, cfg)
        return 0 if tier1 else 1

    if cfg.command == "conventions":
        label = cfg.label() if cfg.l0 is not None else None
        d = Deformation(cfg.q)
        winner, table = resolve_conventions(
            label=label, two_j=cfg.spin_two_j if cfg.spin_two_j else 2, d=d, j_max=cfg.j_max
        )
        doc = {
            "command": "conventions",
            "q": cfg.q,
            "winner": winner.to_list(),
            "winner_str": str(winner),
            "table": table,
        }
        _emit(doc, cfg)
        return 0

    raise ValueError(f"unknown command {cfg.command!r}")


def _add_label_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--l0", required=required, help="minimal spin, 'k' or 'k/2' (e.g. 1/2)")
    p.add_argument("--l1", required=required, help="second constant: 'a', 'bi', 'a+bi' or 'a-bi'")
    p.add_argument("--q", type=float, required=required, help="deformation parameter (>0, != 1)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--j-max", help="truncation spin for infinite representations (default l0+8)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--tier1-tol", type=float, help="override the tier-1 tolerance")
    p.add_argument("--tier2-tol", type=float, help="override the tier-2 tolerance")
    p.add_argument(
        "--conv",
        choices=("resolved", "printed"),
        default="resolved",
        help="convention set: resolver-selected readings (default) or the printed ones",
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlorentz",
        description="build, classify and verify matrix representations of the deformed Lorentz algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="series classification of a label")
    _add_label_args(p)
    _add_common(p)

    p = sub.add_parser("build", help="build generator matrices, optionally export them")
    _add_label_args(p)
    _add_common(p)
    p.add_argument("--export", help="directory for the coordinate-format matrix files")

    p = sub.add_parser("verify", help="run the defining-relation suites")
    _add_label_args(p, required=False)
    _add_common(p)
    p.add_argument("--import", dest="import_dir", help="verify matrices from an export directory")

    p = sub.add_parser("chiral", help="chiral decomposition suites")
    _add_label_args(p, required=False)
    _add_common(p)
    p.add_argument("--spin", type=int, help="use the realization at this twice-spin instead of a label")

    p = sub.add_parser("coproduct", help="coproduct homomorphism checks (default: spinor x spinor)")
    _add_label_args(p, required=False)
    _add_common(p)
    p.add_argument("--l0-b", help="second factor minimal spin (defaults to the first factor)")
    p.add_argument("--l1-b", help="second factor constant")

    p = sub.add_parser("limit", help="entrywise comparison against the classical oracle")
    p.add_argument("--l0", required=True)
    p.add_argument("--l1", required=True)
    p.add_argument("--eps", type=float, default=1e-6)
    _add_common(p)

    p = sub.add_parser("conventions", help="resolve the catalogued reading ambiguities")
    _add_label_args(p, required=False)
    _add_common(p)
    p.add_argument("--spin", type=int, help="twice-spin for the vector-operator axis (default 2)")

    return ap


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    if getattr(ns, "l0", None):
        cfg.l0 = HalfInt.parse(ns.l0)
        if cfg.l0.twice < 0:
            raise ValueError(f"l0 must be >= 0, got {cfg.l0}")
    if getattr(ns, "l1", None):
        cfg.l1 = parse_l1(ns.l1)
    if getattr(ns, "q", None) is not None:
        Deformation(ns.q)  # validate early
        cfg.q = ns.q
    if getattr(ns, "j_max", None):
        cfg.j_max = HalfInt.parse(ns.j_max)
        if cfg.l0 is not None and cfg.j_max < cfg.l0:
            raise ValueError(f"j_max = {cfg.j_max} below l0 = {cfg.l0}")
    if getattr(ns, "eps", None) is not None:
        cfg.eps = ns.eps
    if getattr(ns, "spin", None) is not None:
        if ns.spin < 1:
            raise ValueError("twice-spin must be >= 1")
        cfg.spin_two_j = ns.spin
    if getattr(ns, "l0_b", None):
        cfg.l0_b = HalfInt.parse(ns.l0_b)
    if getattr(ns, "l1_b", None):
        cfg.l1_b = parse_l1(ns.l1_b)
    if (cfg.l0 is None) != (cfg.l1 is None):
        raise ValueError("--l0 and --l1 must be given together")
    if (cfg.l0_b is None) != (cfg.l1_b is None):
        raise ValueError("--l0-b and --l1-b must be given together")
    for flag in ("tier1_tol", "tier2_tol"):
        tol = getattr(ns, flag, None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite and >= 0, got {tol}")
        setattr(cfg, flag, tol)
    cfg.export_dir = getattr(ns, "export", None)
    cfg.import_dir = getattr(ns, "import_dir", None)
    cfg.output = getattr(ns, "output", None)
    cfg.fmt = getattr(ns, "format", "json")
    if getattr(ns, "conv", "resolved") == "printed":
        cfg.convention = DEFAULT_CONVENTION
    else:
        cfg.convention = RESOLVED_CONVENTION

    needs_label = cfg.command in ("classify", "build", "verify", "limit")
    if cfg.command == "verify" and cfg.import_dir:
        needs_label = False
    if cfg.command == "chiral" and cfg.spin_two_j is None:
        needs_label = True
    if cfg.import_dir:
        ignored = ("l0", "l1", "q", "j_max")
    elif cfg.command == "chiral" and cfg.spin_two_j is not None:
        ignored = ("l0", "l1", "j_max")
    else:
        ignored = ()
    given = ["--" + f.replace("_", "-") for f in ignored if getattr(ns, f, None) is not None]
    if given:
        mode = "--import" if cfg.import_dir else "--spin"
        raise ValueError(f"{', '.join(given)} cannot be combined with {mode}")
    if cfg.command in ("coproduct", "chiral", "conventions") and cfg.q is None:
        raise ValueError("--q is required")
    if needs_label and (cfg.l0 is None or (cfg.command != "limit" and cfg.q is None)):
        raise ValueError("--l0, --l1 (and --q) are required for this command")
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return 2 if exc.code not in (0,) else 0
    try:
        cfg = _config_from_args(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
