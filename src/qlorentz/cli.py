"""Command-line front end.

Subcommands: classify, build, verify, chiral, coproduct, limit, conventions.
Reports are machine-readable JSON (fixed field order, floats %.17g, byte-
identical across repeated runs) or a plain-text rendering of the same tree.

Exit codes: 0 when every tier-1 check in the invoked suite passes, 1 on any
tier-1 failure, 2 on usage or domain errors (reported before any computation).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from typing import TYPE_CHECKING, Optional

from . import _jsonfmt
from .qarith import Deformation, HalfInt
from .repcore import RepLabel, classify

if TYPE_CHECKING:
    from .matrep import ConventionId
    from .verify import Tolerances, VerificationReport

# The numpy-backed modules load inside the handlers that run them (`build`:
# matrep; `verify`, `limit`: matrep and verify; `chiral`, `coproduct`,
# `conventions`: those and chiral), so `classify`, `--help` and usage errors
# never import numpy.  Handlers read functions from their modules at call
# time, so a patched module attribute is the one called.

__all__ = ["main", "parse_l1"]

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_NUM}$")
_RE_IMAG = re.compile(rf"^(?P<sign>[+-]?)(?P<mag>{_NUM})?i$")
_RE_FULL = re.compile(rf"^(?P<re>[+-]?{_NUM})(?P<sign>[+-])(?P<mag>{_NUM})?i$")


def _l1_form(s: str) -> Optional[re.Match]:
    """The match of s against the forms "a", "bi", "a+bi" and "a-bi", or None."""
    text = s.strip()
    return _RE_REAL.match(text) or _RE_IMAG.match(text) or _RE_FULL.match(text)


def parse_l1(s: str) -> complex:
    """Parse the second label constant: "a", "bi", "a+bi" or "a-bi" (decimal),
    each part finite in double precision."""
    m = _l1_form(s)
    if m is None:
        raise ValueError(f"cannot parse l1 value {s!r} (expected 'a', 'bi', 'a+bi' or 'a-bi')")
    parts = m.groupdict()
    if parts:
        mag = float(parts["mag"]) if parts["mag"] else 1.0
        z = complex(float(parts.get("re") or 0.0), -mag if parts["sign"] == "-" else mag)
    else:
        z = complex(float(m.group()), 0.0)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"l1 value {s!r} overflows a double: each part must be finite")
    return z


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


def _emit(doc: dict, ns: argparse.Namespace) -> None:
    if ns.format == "json":
        text = _jsonfmt.dumps(doc, indent=True) + "\n"
    else:
        lines: list[str] = []
        _render_text(doc, lines)
        text = "\n".join(lines) + "\n"
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bundle(kind: str, cfg_desc: dict, reports: list[VerificationReport]) -> tuple[dict, bool]:
    tier1 = all(r.tier1_pass for r in reports)
    doc = {
        "command": kind,
        "config": cfg_desc,
        "reports": [r.to_record() for r in reports],
        "verdict": {
            "tier1_pass": tier1,
            "all_pass": all(r.all_pass for r in reports),
        },
    }
    return doc, tier1


def _label(ns: argparse.Namespace) -> RepLabel:
    return RepLabel(ns.l0, ns.l1, Deformation(ns.q))


def _j_max(ns: argparse.Namespace) -> HalfInt:
    return ns.j_max if ns.j_max is not None else ns.l0 + 8


def _classify(ns: argparse.Namespace, tols: None, conv: None) -> tuple[dict, bool]:
    """Series classification of a label."""
    label = _label(ns)
    return {
        "command": "classify",
        "label": label.to_record(),
        "classification": classify(label).to_record(),
    }, True


def _build(ns: argparse.Namespace, tols: None, conv: ConventionId) -> tuple[dict, bool]:
    """Build generator matrices, optionally export them."""
    from . import matrep

    label = _label(ns)
    gens = matrep.build_generator_set(label, _j_max(ns), conv)
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
    if ns.export:
        files = matrep.export_generator_set(gens, ns.export)
        doc["exported"] = {"directory": ns.export, "files": files}
    return doc, True


def _verify(ns: argparse.Namespace, tols: Tolerances, conv: ConventionId) -> tuple[dict, bool]:
    """Run the defining-relation suites."""
    from . import matrep, verify

    if ns.import_dir:
        gens = matrep.import_generator_set(ns.import_dir)
        j_max = gens.basis.j_max if gens.basis.j_max is not None else gens.label.l0
    else:
        j_max = _j_max(ns)
        gens = matrep.build_generator_set(_label(ns), j_max, conv)
    label = gens.label
    reports = [
        verify.check_lorentz_relations(gens, tols=tols),
        verify.check_casimir(gens, tols=tols),
        verify.check_recurrence_suite(label, gens.basis.spins[-1], tols),
        verify.check_unitary_coeffs(label, gens.basis.spins[-1], tols),
    ]
    for rep in reports[2:]:  # the coefficient suites read no set; name the one verified
        rep.convention = gens.convention
    if not ns.import_dir:
        reports.append(verify.check_q_adjoint(gens, tols))
    return _bundle(
        "verify",
        {"label": label.to_record(), "j_max": str(j_max), "convention": gens.convention.to_list()},
        reports,
    )


def _chiral(ns: argparse.Namespace, tols: Tolerances, conv: ConventionId) -> tuple[dict, bool]:
    """Chiral decomposition suites."""
    from . import chiral, matrep

    if ns.spin is not None:
        gens = matrep.build_from_suq2(ns.spin, Deformation(ns.q))
        subject = {"realization": gens.tag}
    else:
        gens = matrep.build_generator_set(_label(ns), _j_max(ns), conv)
        subject = {"label": gens.label.to_record()}
    cs = chiral.build_chiral(gens)
    reports = [
        chiral.check_chiral_relations(cs, tols),
        chiral.check_reduction_identities(cs, tols),
    ]
    if ns.spin is None:
        reports.append(chiral.check_chiral_adjoint(gens, tols, cs))
    return _bundle("chiral", subject, reports)


def _coproduct(ns: argparse.Namespace, tols: Tolerances, conv: ConventionId) -> tuple[dict, bool]:
    """Coproduct homomorphism checks (default: spinor x spinor) and the spinor annihilation."""
    from . import chiral, matrep

    d = Deformation(ns.q)
    la = RepLabel(ns.l0, ns.l1, d) if ns.l0 is not None else chiral.spinor_labels(d)[0]
    lb = RepLabel(ns.l0_b, ns.l1_b, d) if ns.l0_b is not None else la
    cs_a = chiral.build_chiral(matrep.build_generator_set(la, la.l0 + 2, conv))
    cs_b = cs_a if ns.l0_b is None else chiral.build_chiral(matrep.build_generator_set(lb, lb.l0 + 2, conv))
    dc = chiral.coproduct(cs_a, cs_b, conv)
    return _bundle(
        "coproduct",
        {"factor_a": la.to_record(), "factor_b": lb.to_record(), "convention": conv.to_list()},
        [chiral.check_coproduct_homomorphism(dc, tols), chiral.check_spinor_annihilation(d)],
    )


def _limit(ns: argparse.Namespace, tols: None, conv: ConventionId) -> tuple[dict, bool]:
    """Entrywise comparison against the classical oracle."""
    from . import verify

    rep = verify.classical_limit_compare(ns.l0, ns.l1, _j_max(ns), ns.eps, conv)
    return _bundle(
        "limit",
        {"l0": str(ns.l0), "l1": {"re": ns.l1.real, "im": ns.l1.imag}, "eps": ns.eps},
        [rep],
    )


def _conventions(ns: argparse.Namespace, tols: None, conv: None) -> tuple[dict, bool]:
    """Resolve the catalogued reading ambiguities."""
    from . import verify

    winner, table = verify.resolve_conventions(
        label=_label(ns) if ns.l0 is not None else None,
        two_j=ns.spin if ns.spin else 2,
        d=Deformation(ns.q),
        j_max=ns.j_max,
    )
    return {
        "command": "conventions",
        "q": ns.q,
        "winner": winner.to_list(),
        "winner_str": str(winner),
        "table": table,
    }, True


_LABEL = ("--l0", "--l1", "--q")
_TOLS = ("--tier1-tol", "--tier2-tol")

_FLAGS = {
    "--format": dict(choices=("json", "text"), default="json"),
    "--output": dict(help="write the report here instead of stdout"),
    "--l0": dict(help="minimal spin, 'k' or 'k/2' (e.g. 1/2)"),
    "--l1": dict(help="second constant: 'a', 'bi', 'a+bi' or 'a-bi'"),
    "--q": dict(type=float, help="deformation parameter (>0, != 1)"),
    "--j-max": dict(help="truncation spin for infinite representations (default l0+8)"),
    "--tier1-tol": dict(type=float, help="override the tier-1 tolerance"),
    "--tier2-tol": dict(type=float, help="override the tier-2 tolerance"),
    "--conv": dict(
        choices=("resolved", "printed"),
        help="convention set: resolver-selected readings (default) or the printed ones",
    ),
    "--export": dict(help="directory for the coordinate-format matrix files"),
    "--import": dict(dest="import_dir", help="verify matrices from an export directory"),
    "--spin": dict(
        type=int,
        help="twice-spin (chiral: the realization to check; conventions: the vector axis, default 2)",
    ),
    "--l0-b": dict(help="second factor minimal spin (defaults to the first factor)"),
    "--l1-b": dict(help="second factor constant"),
    "--eps": dict(type=float, default=1e-6, help="q = 1 + eps"),
}

# each command's handler (checked namespace, tolerances, convention) -> (report, tier-1 pass),
# the flags it reads besides --format/--output, and the required ones; `main` passes
# tolerances and a convention only to a command whose flags set them, else None
_COMMANDS = {
    "classify": (_classify, _LABEL, _LABEL),
    "build": (_build, (*_LABEL, "--j-max", "--conv", "--export"), _LABEL),
    "verify": (_verify, (*_LABEL, "--j-max", *_TOLS, "--conv", "--import"), ()),
    "chiral": (_chiral, (*_LABEL, "--j-max", *_TOLS, "--conv", "--spin"), ()),
    "coproduct": (_coproduct, (*_LABEL, *_TOLS, "--conv", "--l0-b", "--l1-b"), ()),
    "limit": (_limit, ("--l0", "--l1", "--eps", "--j-max", "--conv"), ("--l0", "--l1")),
    "conventions": (_conventions, (*_LABEL, "--j-max", "--spin"), ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlorentz",
        description="build, classify and verify matrix representations of the deformed Lorentz algebra",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (run, flags, required) in _COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.set_defaults(run=run)
        for flag in (*flags, "--format", "--output"):
            p.add_argument(flag, required=flag in required, **_FLAGS[flag])
    return ap


def _check_args(ns: argparse.Namespace) -> None:
    """Parse the label flags in place and reject bad input before any work."""
    if ns.l0 is not None:
        ns.l0 = HalfInt.parse(ns.l0)
        if ns.l0.twice < 0:
            raise ValueError(f"l0 must be >= 0, got {ns.l0}")
    if ns.l1 is not None:
        ns.l1 = parse_l1(ns.l1)
    if getattr(ns, "q", None) is not None:
        Deformation(ns.q)  # validate early
    if getattr(ns, "j_max", None) is not None:
        ns.j_max = HalfInt.parse(ns.j_max)
        if ns.l0 is not None and ns.j_max < ns.l0:
            raise ValueError(f"j_max = {ns.j_max} below l0 = {ns.l0}")
    eps = getattr(ns, "eps", None)
    if eps is not None:
        from .verify import LIMIT_EPS

        lo, hi = LIMIT_EPS
        if not lo <= eps <= hi:
            raise ValueError(f"--eps must be in [{lo:g}, {hi:g}] (the eps/10 build needs |q-1| > 1e-12), got {eps}")
    if getattr(ns, "spin", None) is not None and ns.spin < 1:
        raise ValueError("twice-spin must be >= 1")
    for flag, parse in (("l0_b", HalfInt.parse), ("l1_b", parse_l1)):
        if getattr(ns, flag, None) is not None:
            setattr(ns, flag, parse(getattr(ns, flag)))
    if (ns.l0 is None) != (ns.l1 is None):
        raise ValueError("--l0 and --l1 must be given together")
    if (getattr(ns, "l0_b", None) is None) != (getattr(ns, "l1_b", None) is None):
        raise ValueError("--l0-b and --l1-b must be given together")
    for flag in ("tier1_tol", "tier2_tol"):
        tol = getattr(ns, flag, None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite and >= 0, got {tol}")

    if getattr(ns, "import_dir", None):
        mode, ignored = "--import", ("l0", "l1", "q", "j_max", "conv")
    elif ns.command == "chiral" and ns.spin is not None:
        mode, ignored = "--spin", ("l0", "l1", "j_max", "conv")
    else:
        mode, ignored = None, ()
    given = ["--" + f.replace("_", "-") for f in ignored if getattr(ns, f) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} cannot be combined with {mode}")
    if ns.command in ("coproduct", "chiral", "conventions") and ns.q is None:
        raise ValueError("--q is required")
    if mode is None and ns.command in ("verify", "chiral") and (ns.l0 is None or ns.q is None):
        raise ValueError("--l0, --l1 (and --q) are required for this command")


def _join_signed_l1(argv: list[str]) -> list[str]:
    """`--l1 -2.7i` as `--l1=-2.7i`: argparse takes a value that starts with
    '-' for a flag unless it reads as a plain negative number ('-0.5'), so a
    negative imaginary, complex or exponent value must be joined to its flag."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--l1", "--l1-b") and arg.startswith("-") and _l1_form(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    try:
        ns = _build_parser().parse_args(_join_signed_l1(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return 0 if exc.code == 0 else 2
    try:
        _check_args(ns)
        flags = _COMMANDS[ns.command][1]
        tols = conv = None
        if "--tier1-tol" in flags:
            from .verify import Tolerances

            given = {"tier1": ns.tier1_tol, "tier2": ns.tier2_tol}
            tols = Tolerances(**{k: v for k, v in given.items() if v is not None})
        if "--conv" in flags:
            from .matrep import DEFAULT_CONVENTION, RESOLVED_CONVENTION

            conv = DEFAULT_CONVENTION if ns.conv == "printed" else RESOLVED_CONVENTION
        doc, tier1 = ns.run(ns, tols, conv)
        _emit(doc, ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    return 0 if tier1 else 1


if __name__ == "__main__":
    sys.exit(main())
