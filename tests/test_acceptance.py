"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run with -s or check the captured
output); the assertions carry the same bounds, so a red test is a failed
criterion.  The whole module runs in a few seconds.
"""

import numpy as np

from qlorentz.qarith import Deformation, HalfInt, q_number
from qlorentz.repcore import RepLabel, check_recurrences, classify, coeff_c
from qlorentz.matrep import (
    RESOLVED_CONVENTION,
    build_from_suq2,
    build_generator_set,
    export_generator_set,
    import_generator_set,
)
from qlorentz.verify import (
    check_casimir,
    check_lorentz_relations,
    check_q_adjoint,
    classical_limit_compare,
    resolve_conventions,
)
from qlorentz.chiral import (
    build_chiral,
    check_chiral_relations,
    check_coproduct_homomorphism,
    check_reduction_identities,
    check_spinor_annihilation,
    coproduct,
    spinor_labels,
)
from qlorentz.cli import main as cli_main


def lab(l0: str, l1, q: float) -> RepLabel:
    return RepLabel(HalfInt.parse(l0), l1, Deformation(q))


def report_line(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_recurrence_oracle():
    """Difference-equation residuals < 1e-10 out to j = l0 + 20."""
    ok = True
    for q in (0.5, 1.3, 2.0):
        for l0, l1 in (("0", 0.5), ("1/2", 1.5), ("1", 2.7j), ("3/2", 2.5)):
            label = lab(l0, l1, q)
            for row in check_recurrences(label, label.l0 + 20):
                ok = ok and row["residual_ladder"] < 1e-10 and row["residual_norm"] < 1e-10
    report_line(1, "recurrence oracle", ok)
    assert ok


def test_criterion_02_rotation_subalgebra():
    """First two relation lines on built rotations: < 1e-13 * scale."""
    ok = True
    for q in (0.7, 1.3):
        for l0, l1, jm in (("1/2", 1.5, "1/2"), ("0", 2.7j, "8")):
            g = build_generator_set(lab(l0, l1, q), HalfInt.parse(jm))
            rep = check_lorentz_relations(g)
            for rid in ("eq4.line01", "eq4.line02"):
                r = next(x for x in rep.residuals if x.relation_id == rid)
                ok = ok and r.residual < 1e-13 * r.scale
    report_line(2, "rotation subalgebra", ok)
    assert ok


def test_criterion_03_weight_relations():
    """Weight relations on the same fixtures: < 1e-13 * scale."""
    ok = True
    for q in (0.7, 1.3):
        for l0, l1, jm in (("1/2", 1.5, "1/2"), ("0", 2.7j, "8")):
            g = build_generator_set(lab(l0, l1, q), HalfInt.parse(jm))
            rep = check_lorentz_relations(g)
            for rid in ("eq4.line06", "eq4.other2", "eq4.other3"):
                r = next(x for x in rep.residuals if x.relation_id == rid)
                ok = ok and r.residual < 1e-13 * r.scale
    report_line(3, "weight relations", ok)
    assert ok


def test_criterion_04_termination_and_dimension():
    """c at |l1| vanishes to 1e-14 and dim = l1^2 - l0^2."""
    ok = True
    for l0, l1 in (("0", 1.0), ("0", 2.0), ("1/2", 1.5), ("1", 3.0)):
        label = lab(l0, l1, 1.3)
        top = HalfInt(int(round(2 * abs(l1))))
        ok = ok and abs(coeff_c(top, label)) <= 1e-14
        cls = classify(label)
        ok = ok and cls.kind == "finite"
        ok = ok and abs(cls.dim - (l1 * l1 - float(label.l0) ** 2)) < 1e-12
    report_line(4, "termination and dimension", ok)
    assert ok


def test_criterion_05_realization_suite():
    """Realization at spins 1/2, 1, 3/2: full defining + chiral suites < 1e-12 * scale."""
    ok = True
    for two_j in (1, 2, 3):
        for q in (0.7, 1.3):
            g = build_from_suq2(two_j, Deformation(q))
            for rep in (
                check_lorentz_relations(g),
                check_chiral_relations(build_chiral(g)),
                check_reduction_identities(build_chiral(g)),
            ):
                for r in rep.residuals:
                    ok = ok and r.residual <= 1e-12 * r.scale
    report_line(5, "realization suite", ok)
    assert ok


def test_criterion_06_q_adjoint():
    """Rotation dagger pairs < 1e-13 elementwise; principal boost pairs < 1e-12 * scale."""
    ok = True
    for l0, l1 in (("1/2", 1.5, ), ("0", 2.0), ("1", 2.7j), ("0", 0.5)):
        rep = check_q_adjoint(build_generator_set(lab(l0, l1, 1.3), HalfInt.parse(l0) + 5))
        r = next(x for x in rep.residuals if x.relation_id == "eq6.m_plus_dagger")
        ok = ok and r.residual < 1e-13
    rep = check_q_adjoint(build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("6")))
    for rid in ("eq6.n_plus_dagger", "eq6.n_minus_dagger"):
        r = next(x for x in rep.residuals if x.relation_id == rid)
        ok = ok and r.residual < 1e-12 * r.scale
    report_line(6, "q-adjoint", ok)
    assert ok


def test_criterion_07_classical_limit():
    """Entrywise oracle deviation < 1e-4 at eps = 1e-6, shrinking >= 3x at eps/10."""
    ok = True
    for l0, l1, jm in (("1", 2.5j, "5"), ("1/2", 1.5, "1/2")):
        rep = classical_limit_compare(HalfInt.parse(l0), l1, HalfInt.parse(jm), 1e-6)
        devs = [r for r in rep.residuals if r.relation_id.startswith("limit.dev")]
        ok = ok and max(r.residual for r in devs) < 1e-4
        shrink = next(r for r in rep.residuals if r.relation_id == "limit.shrink")
        ok = ok and shrink.passed
    report_line(7, "classical limit", ok)
    assert ok


def test_criterion_08_tier2_gate_and_resolver_stability():
    """Full suite at q = 1+1e-6 under 1e-4 * scale; deterministic report at 1.3;
    resolver winner identical across q in {0.8, 1.1, 1.3}."""
    ok = True
    label_near = lab("1", 2.7j, 1 + 1e-6)
    g = build_generator_set(label_near, HalfInt.parse("6"), RESOLVED_CONVENTION)
    for rep in (check_lorentz_relations(g), check_casimir(g)):
        for r in rep.residuals:
            ok = ok and r.residual <= 1e-4 * r.scale
    g13 = build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("6"), RESOLVED_CONVENTION)
    ok = ok and check_lorentz_relations(g13).to_json() == check_lorentz_relations(g13).to_json()
    winners = set()
    for q in (0.8, 1.1, 1.3):
        win, _ = resolve_conventions(label=lab("1", 0.5, q), two_j=2, d=Deformation(q))
        winners.add(str(win))
    ok = ok and len(winners) == 1
    report_line(8, "tier-2 gate and resolver stability", ok)
    assert ok


def test_criterion_09_casimir():
    """Invariant commutes with all generators on the spinor representation
    (< 1e-10 * scale) and its eigenvalue is i[l0][l1] near q = 1 (< 1e-4)."""
    ok = True
    g = build_generator_set(lab("1/2", 1.5, 1.3), HalfInt(1))
    rep = check_casimir(g)
    for r in rep.residuals:
        if r.relation_id.startswith("eq5.central"):
            ok = ok and r.residual < 1e-10 * r.scale
    d = Deformation(1 + 1e-6)
    g = build_generator_set(lab("1/2", 1.5, 1 + 1e-6), HalfInt(1))
    expected = 1j * q_number(HalfInt(1), d) * q_number(1.5, d)
    dev = float(np.max(np.abs(g.casimir.toarray() - expected * np.eye(2))))
    ok = ok and dev < 1e-4
    report_line(9, "casimir centrality and eigenvalue", ok)
    assert ok


def test_criterion_10_chiral_hopf():
    """Reduction identities < 1e-13; spinor annihilation < 1e-12; grouplike
    exact; homomorphism on the spinor square < 1e-4 * scale near q = 1 and
    reported at 1.3; non-cocommutativity witness present at 1.3."""
    ok = True
    for l0, l1, q in (("1", 2.7j, 1.3), ("0", 0.5, 0.7), ("1/2", 1.5, 1.3)):
        rep = check_reduction_identities(
            build_chiral(build_generator_set(lab(l0, l1, q), HalfInt.parse(l0) + 4))
        )
        for r in rep.residuals:
            if r.relation_id.startswith("eq28"):
                ok = ok and r.residual < 1e-13
    ok = ok and check_spinor_annihilation(Deformation(1.3)).all_pass

    for q in (1 + 1e-6, 1.3):
        tau, _ = spinor_labels(Deformation(q))
        cs = build_chiral(build_generator_set(tau, tau.l0, RESOLVED_CONVENTION))
        rep = check_coproduct_homomorphism(coproduct(cs, cs, RESOLVED_CONVENTION))
        for r in rep.residuals:
            if r.relation_id.startswith("eq32.hom"):
                ok = ok and r.residual <= 1e-4 * r.scale
            if r.relation_id.startswith("eq32.grouplike"):
                ok = ok and r.residual == 0.0
        if q == 1.3:
            wit = next(r for r in rep.residuals if r.relation_id == "eq32.noncocommutative")
            ok = ok and wit.residual == 0.0 and "witness" in wit.note
    report_line(10, "chiral and Hopf checks", ok)
    assert ok


def test_criterion_11_cli_contract(tmp_path):
    """Byte-identical reports, bit-exact export round-trip, exit codes 0/1/2."""
    ok = True
    # determinism
    args = ["verify", "--l0", "0", "--l1", "2.7i", "--q", "1.3", "--j-max", "6"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ok = ok and cli_main(args + ["--output", str(a)]) == 0
    ok = ok and cli_main(args + ["--output", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    # export round-trip
    exp = tmp_path / "exp"
    ok = ok and cli_main(
        ["build", "--l0", "1/2", "--l1", "1.5", "--q", "1.3",
         "--export", str(exp), "--output", str(tmp_path / "o.json")]
    ) == 0
    g = import_generator_set(exp)
    exp2 = tmp_path / "exp2"
    export_generator_set(g, exp2)
    for name in ("m_plus.txt", "n3_tilde.txt", "casimir.txt"):
        ok = ok and (exp / name).read_bytes() == (exp2 / name).read_bytes()
    # exit codes: perturbed import fails tier 1
    target = exp / "n_plus.txt"
    lines = target.read_text().splitlines()
    row, col, re_, im_ = lines[1].split()
    lines[1] = f"{row} {col} {float(re_) + 1e-3:.17g} {im_}"
    target.write_text("\n".join(lines) + "\n")
    ok = ok and cli_main(["verify", "--import", str(exp), "--output", str(tmp_path / "p.json")]) == 1
    # usage error
    ok = ok and cli_main(["classify", "--l0", "1/2", "--l1", "3/2", "--q", "1.3"]) == 2
    report_line(11, "CLI determinism, round-trip, exit codes", ok)
    assert ok
