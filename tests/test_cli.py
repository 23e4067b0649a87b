import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from qlorentz.cli import main, parse_l1


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


# ---------------------------------------------------------------- l1 parsing


def test_parse_l1_formats():
    assert parse_l1("1.5") == 1.5 + 0j
    assert parse_l1("-0.5") == -0.5 + 0j
    assert parse_l1("2.7i") == 2.7j
    assert parse_l1("0+2.7i") == 2.7j
    assert parse_l1("1-0.5i") == 1 - 0.5j
    assert parse_l1("i") == 1j
    assert parse_l1("-i") == -1j
    assert parse_l1("1e-3") == 1e-3 + 0j


def test_parse_l1_rejects_fractions_and_garbage():
    for bad in ("3/2", "abc", "1+2", "2.7j", ""):
        with pytest.raises(ValueError):
            parse_l1(bad)


# ---------------------------------------------------------------- classify


def test_classify_finite_spinor(tmp_path):
    code, raw = run_cli(["classify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert doc["classification"]["kind"] == "finite"
    assert doc["classification"]["dim"] == 2
    assert doc["classification"]["spins"] == ["1/2"]


def test_classify_principal(tmp_path):
    code, raw = run_cli(["classify", "--l0", "0", "--l1", "2.7i", "--q", "1.3"], tmp_path)
    doc = json.loads(raw)
    assert doc["classification"]["kind"] == "infinite"
    assert doc["classification"]["unitary"] == "principal"


# ---------------------------------------------------------------- exit codes


def test_usage_error_is_exit_2(tmp_path):
    assert main(["classify", "--l0", "1/2", "--q", "1.3"]) == 2  # missing --l1
    assert main(["classify", "--l0", "1/2", "--l1", "3/2", "--q", "1.3"]) == 2  # bad l1
    assert main(["classify", "--l0", "1/2", "--l1", "1.5", "--q", "-1"]) == 2  # bad q
    assert main(["verify", "--l0", "1", "--l1", "1.5", "--q", "1.3", "--j-max", "1/2"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["coproduct", "--q", "1.3", "--l0", "1"], "--l0 and --l1"),
        (["coproduct", "--q", "1.3", "--l1", "1.5"], "--l0 and --l1"),
        (["coproduct", "--q", "1.3", "--l0-b", "1"], "--l0-b and --l1-b"),
        (["coproduct", "--q", "1.3", "--l1-b", "1.5"], "--l0-b and --l1-b"),
        (["conventions", "--q", "1.3", "--l0", "1"], "--l0 and --l1"),
    ],
)
def test_label_flags_must_come_in_pairs(tmp_path, capsys, args, message):
    code, raw = run_cli(args, tmp_path)
    assert code == 2 and raw == b""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("import", ["--l0", "2", "--l1", "0.5"]),
        ("import", ["--q", "4"]),
        ("import", ["--j-max", "3"]),
        ("spin", ["--l0", "1", "--l1", "2"]),
        ("spin", ["--j-max", "3"]),
        ("import", ["--conv", "printed"]),
        ("spin", ["--conv", "printed"]),
        ("spin", ["--conv", "resolved"]),
    ],
)
def test_flags_the_mode_ignores_exit_2(tmp_path, capsys, mode, extra):
    if mode == "import":
        exp = tmp_path / "exp"
        spinor = ["--l0", "1/2", "--l1", "1.5", "--q", "1.3"]
        assert run_cli(["build", *spinor, "--export", str(exp)], tmp_path, "b.json")[0] == 0
        args = ["verify", "--import", str(exp)]
    else:
        args = ["chiral", "--spin", "2", "--q", "1.3"]
    code, raw = run_cli(args + extra, tmp_path)
    assert code == 2 and raw == b""
    err = capsys.readouterr().err
    assert f"cannot be combined with --{mode}" in err and extra[0] in err


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--j-max", "5"],
        ["coproduct", "--q", "1.3", "--j-max", "7"],
        ["conventions", "--q", "1.3", "--tier1-tol", "1e-30"],
        ["conventions", "--q", "1.3", "--conv", "printed"],
        ["limit", "--l0", "1", "--l1", "2.5i", "--tier1-tol", "1e-30"],
        ["build", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--tier2-tol", "5"],
    ],
)
def test_flags_the_command_never_reads_exit_2(tmp_path, capsys, args):
    code, raw = run_cli(args, tmp_path)
    assert code == 2 and raw == b""
    assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tier1-tol", "--tier2-tol"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_2_naming_the_flag(tmp_path, capsys, flag, value):
    args = ["verify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", flag, value]
    code, raw = run_cli(args, tmp_path)
    assert code == 2 and raw == b""
    assert capsys.readouterr().err.startswith(f"error: {flag} ")


def test_out_of_memory_exits_2_with_message(tmp_path, capsys, monkeypatch):
    import qlorentz.cli as cli

    def no_memory(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 8.13 GiB for an array")

    monkeypatch.setattr(cli, "build_generator_set", no_memory)
    code, raw = run_cli(
        ["build", "--l0", "0", "--l1", "0.5", "--q", "1.3", "--j-max", "200"], tmp_path
    )
    assert code == 2 and raw == b""
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")


def test_verify_non_unitary_single_zero_block_exits_0(tmp_path):
    # j_max = l0 = 0: the only coefficients are a_0 = c_0 = 0, which cannot
    # witness non-unitarity, so the summary must not report a mismatch
    code, raw = run_cli(
        ["verify", "--l0", "0", "--l1", "1+1i", "--q", "1.3", "--j-max", "0"], tmp_path
    )
    assert code == 0
    unit = next(r for r in json.loads(raw)["reports"] if r["suite"] == "unitary_coeffs")
    summary = next(r for r in unit["relations"] if r["id"] == "unit.matches_classification")
    assert summary["pass"] and "every coefficient in the window is zero" in summary["note"]


def test_verify_finite_label_checks_unit_conditions_on_its_basis(tmp_path):
    # the spinor basis holds j = 1/2 only; --j-max does not widen it, so the
    # unit suite has no records above 1/2, while config echoes the request
    code, raw = run_cli(
        ["verify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--j-max", "5"], tmp_path
    )
    assert code == 0
    doc = json.loads(raw)
    assert doc["config"]["j_max"] == "5"
    unit = next(r for r in doc["reports"] if r["suite"] == "unitary_coeffs")
    assert [r["id"] for r in unit["relations"]] == [
        "unit.a_real.j=1/2",
        "unit.c_imag.j=1/2",
        "unit.matches_classification",
    ]
    assert unit["relations"][-1]["pass"]


def test_verify_passes_on_clean_build(tmp_path):
    code, raw = run_cli(
        ["verify", "--l0", "0", "--l1", "2.7i", "--q", "1.3", "--j-max", "8"], tmp_path
    )
    assert code == 0
    doc = json.loads(raw)
    assert doc["verdict"]["tier1_pass"] is True


def export_build(tmp_path, name, args):
    exp = tmp_path / name
    assert main(["build", *args, "--export", str(exp), "--output", str(tmp_path / "b.json")]) == 0
    return exp


SPINOR = ["--l0", "1/2", "--l1", "1.5", "--q", "1.3"]
PRINCIPAL = ["--l0", "0", "--l1", "2.7i", "--q", "1.3"]


def test_verify_import_reports_off_pattern_entry(tmp_path):
    # an entry moved off the raising pattern (row 1 -> row 0 of column 0)
    # is a failing selection-rule record in a complete report, not a crash
    exp = export_build(tmp_path, "exp", SPINOR)
    target = exp / "m_plus.txt"
    text = target.read_text()
    assert "\n1 0 " in text
    target.write_text(text.replace("\n1 0 ", "\n0 0 "))
    code, raw = run_cli(["verify", "--import", str(exp)], tmp_path, "v.json")
    assert code == 1
    doc = json.loads(raw)
    struct = [r for rep in doc["reports"] for r in rep["relations"] if r["id"] == "struct.m_plus"]
    assert len(struct) == 1 and struct[0]["pass"] is False and struct[0]["residual"] > 0


def _bad_import(tmp_path, case):
    exp = export_build(tmp_path, "exp", SPINOR)
    if case == "row out of range":
        (exp / "m_plus.txt").write_text((exp / "m_plus.txt").read_text() + "2 0 1 0\n")
    elif case == "negative index":
        (exp / "m_plus.txt").write_text((exp / "m_plus.txt").read_text() + "0 -1 1 0\n")
    elif case == "label mismatch":
        other = export_build(tmp_path, "other", ["--l0", "1/2", "--l1", "1.5", "--q", "0.7"])
        shutil.copy(other / "n3.txt", exp / "n3.txt")
    elif case == "convention mismatch":
        other = export_build(tmp_path, "other", SPINOR + ["--conv", "printed"])
        shutil.copy(other / "n3.txt", exp / "n3.txt")
    elif case == "dim mismatch":
        exp = export_build(tmp_path, "inf", PRINCIPAL + ["--j-max", "2"])
        other = export_build(tmp_path, "other", PRINCIPAL + ["--j-max", "1"])
        shutil.copy(other / "casimir.txt", exp / "casimir.txt")
    elif case in ("finite dim off the basis", "infinite dim off the basis"):
        if case.startswith("infinite"):
            # l0 = 0 blocks have sizes 1, 3, 5: dim 5 is no basis
            exp = export_build(tmp_path, "inf", PRINCIPAL + ["--j-max", "1"])
        for f in exp.iterdir():
            bump = re.sub(r"^# dim=(\d+)", lambda m: f"# dim={int(m.group(1)) + 1}", f.read_text())
            f.write_text(bump)
    elif case == "missing file":
        (exp / "n_minus.txt").unlink()
    return exp


@pytest.mark.parametrize(
    "case",
    [
        "row out of range",
        "negative index",
        "label mismatch",
        "convention mismatch",
        "dim mismatch",
        "finite dim off the basis",
        "infinite dim off the basis",
        "missing file",
    ],
)
def test_bad_import_exits_2_with_message(tmp_path, capsys, case):
    from qlorentz.matrep import import_generator_set

    exp = _bad_import(tmp_path, case)
    with pytest.raises(OSError if case == "missing file" else ValueError):
        import_generator_set(exp)
    capsys.readouterr()
    assert main(["verify", "--import", str(exp), "--output", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_fails_on_perturbed_import(tmp_path):
    exp = tmp_path / "exp"
    code = main(
        ["build", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--export", str(exp),
         "--output", str(tmp_path / "b.json")]
    )
    assert code == 0
    # perturb one stored entry of the raising rotation
    target = exp / "m_plus.txt"
    lines = target.read_text().splitlines()
    row, col, re_, im_ = lines[1].split()
    lines[1] = f"{row} {col} {float(re_) + 1e-3:.17g} {im_}"
    target.write_text("\n".join(lines) + "\n")
    code, raw = run_cli(["verify", "--import", str(exp)], tmp_path, "v.json")
    assert code == 1
    doc = json.loads(raw)
    assert doc["verdict"]["tier1_pass"] is False


# ---------------------------------------------------------------- determinism


def test_reports_byte_identical_across_runs(tmp_path):
    args = ["verify", "--l0", "1", "--l1", "2.7i", "--q", "1.3", "--j-max", "6"]
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a == b
    args = ["chiral", "--spin", "2", "--q", "0.7"]
    _, a = run_cli(args, tmp_path, "c.json")
    _, b = run_cli(args, tmp_path, "d.json")
    assert a == b


# one argv per subcommand, each on the product paths it has
_EVERY_COMMAND = [
    ["classify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"],
    ["build", "--l0", "1", "--l1", "2.7i", "--q", "1.3", "--j-max", "3"],
    ["verify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"],
    ["chiral", "--l0", "1", "--l1", "1-0.5i", "--q", "0.7", "--j-max", "3"],
    ["coproduct", "--l0", "1", "--l1", "2.7i", "--q", "1.3"],
    ["limit", "--l0", "1/2", "--l1", "-1.5", "--eps", "1e-6"],
    ["conventions", "--l0", "1/2", "--l1", "1.5", "--q", "3"],
]


@pytest.mark.parametrize("args", _EVERY_COMMAND, ids=lambda args: args[0])
def test_reports_do_not_depend_on_the_step_plan_cache(tmp_path, args):
    # the same bytes from an empty plan cache, from a warm one (which plans
    # nothing more) and from a fresh interpreter
    from qlorentz import matrep

    matrep._step_plan.cache_clear()
    _, cold = run_cli(args, tmp_path, "cold.json")
    misses = matrep._step_plan.cache_info().misses
    _, warm = run_cli(args, tmp_path, "warm.json")
    assert matrep._step_plan.cache_info().misses == misses
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = "import sys; from qlorentz.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", script, *args, "--output", str(tmp_path / "fresh.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert cold and cold == warm == (tmp_path / "fresh.json").read_bytes()


def test_export_import_round_trip_bit_exact(tmp_path):
    from qlorentz.matrep import import_generator_set

    exp1 = tmp_path / "e1"
    exp2 = tmp_path / "e2"
    base = ["build", "--l0", "0", "--l1", "2.7i", "--q", "1.3", "--j-max", "5"]
    assert main(base + ["--export", str(exp1), "--output", str(tmp_path / "o1.json")]) == 0
    assert main(base + ["--export", str(exp2), "--output", str(tmp_path / "o2.json")]) == 0
    for name in sorted(os.listdir(exp1)):
        assert (exp1 / name).read_bytes() == (exp2 / name).read_bytes()
    g = import_generator_set(exp1)
    exp3 = tmp_path / "e3"
    from qlorentz.matrep import export_generator_set

    export_generator_set(g, exp3)
    for name in sorted(os.listdir(exp1)):
        assert (exp1 / name).read_bytes() == (exp3 / name).read_bytes()


# ---------------------------------------------------------------- other commands


def test_limit_command(tmp_path):
    code, raw = run_cli(
        ["limit", "--l0", "1", "--l1", "0+2.5i", "--eps", "1e-6", "--j-max", "5"], tmp_path
    )
    assert code == 0
    doc = json.loads(raw)
    devs = [
        r["residual"]
        for rep in doc["reports"]
        for r in rep["relations"]
        if r["id"].startswith("limit.dev")
    ]
    assert devs and max(devs) < 1e-4


@pytest.mark.parametrize("l1", ["3+1e-10i", "3.000000002"])
@pytest.mark.parametrize("j_max", [[], ["--j-max", "0"], ["--j-max", "3"]])
def test_limit_builds_the_spin_content_classify_gives(tmp_path, l1, j_max):
    # |l1| - l0 is 3 within classify's detection tolerance: a finite label of
    # dim 9, whatever --j-max says, and limit compares on that same basis
    code, raw = run_cli(["classify", "--l0", "0", "--l1", l1, "--q", "1.000001"], tmp_path, "c.json")
    assert code == 0 and json.loads(raw)["classification"]["dim"] == 9
    code, raw = run_cli(["limit", "--l0", "0", "--l1", l1, "--eps", "1e-6", *j_max], tmp_path)
    assert code == 0
    assert json.loads(raw)["reports"][0]["input"]["dim"] == 9


def test_limit_echoes_the_j_max_of_its_basis(tmp_path):
    # a finite label's basis ignores --j-max: the report names none, as the
    # verify suites do; a truncated basis names its own
    for l0, l1, dim, echo in (("1/2", "1.5", 2, None), ("1", "2.5i", 35, "5")):
        code, raw = run_cli(["limit", "--l0", l0, "--l1", l1, "--j-max", "5"], tmp_path)
        rep = json.loads(raw)["reports"][0]
        assert code == 0 and rep["input"]["dim"] == dim
        assert rep["environment"]["j_max"] == echo


def test_chiral_command_realization(tmp_path):
    code, raw = run_cli(["chiral", "--spin", "1", "--q", "1.3"], tmp_path)
    assert code == 0
    assert json.loads(raw)["verdict"]["tier1_pass"] is True


def test_chiral_command_label(tmp_path):
    code, raw = run_cli(["chiral", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"], tmp_path)
    assert code == 0


def test_coproduct_command_default_spinors(tmp_path):
    code, raw = run_cli(["coproduct", "--q", "1.3"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    ids = [r["id"] for rep in doc["reports"] for r in rep["relations"]]
    assert "eq32.noncocommutative" in ids


def test_conventions_command(tmp_path):
    code, raw = run_cli(
        ["conventions", "--l0", "1", "--l1", "0.5", "--q", "1.3", "--spin", "2"], tmp_path
    )
    assert code == 0
    doc = json.loads(raw)
    assert doc["winner"] == [0, 0, 0, 0, 2, 0, 1]


def test_text_format(tmp_path):
    out = tmp_path / "report.txt"
    code = main(
        ["verify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--format", "text",
         "--output", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "PASS" in text and "tier1_pass=True" in text


def test_tolerance_override_flags(tmp_path):
    # absurdly tight tier-1 tolerance forces a failure exit
    args = ["verify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"]
    code, _ = run_cli(args + ["--tier1-tol", "1e-30"], tmp_path)
    assert code == 1
    # and does not leak into a later run in the same process
    code, raw = run_cli(args, tmp_path, "plain.json")
    assert code == 0
    assert {rep["environment"]["tier1_tol"] for rep in json.loads(raw)["reports"]} == {1e-10}


def test_printed_convention_flag(tmp_path):
    code, raw = run_cli(
        ["build", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--conv", "printed"], tmp_path
    )
    assert code == 0
    assert json.loads(raw)["convention"] == [0, 0, 0, 0, 1, 0, 0]


@pytest.mark.parametrize(
    "conv, expected", [("resolved", [0, 0, 0, 0, 2, 0, 1]), ("printed", [0, 0, 0, 0, 1, 0, 0])]
)
def test_chiral_and_coproduct_suites_report_the_built_convention(tmp_path, conv, expected):
    _, raw = run_cli(["coproduct", "--q", "1.3", "--conv", conv], tmp_path, "c.json")
    doc = json.loads(raw)
    assert doc["config"]["convention"] == expected
    assert [rep["convention"] for rep in doc["reports"]] == [expected]
    # chiral's config names no convention; its label suites and the adjoint
    # suite all report the one the label was built with
    args = ["chiral", "--l0", "1", "--l1", "2.7i", "--q", "1.3", "--conv", conv]
    _, raw = run_cli(args, tmp_path, "ch.json")
    by_suite = {rep["suite"]: rep["convention"] for rep in json.loads(raw)["reports"]}
    for suite in ("chiral_relations", "reduction_identities", "chiral_adjoint"):
        assert by_suite[suite] == expected


@pytest.mark.parametrize("conv", ["resolved", "printed", "import"])
def test_every_verify_suite_names_the_config_convention(tmp_path, conv):
    # the coefficient suites read no generator set; they name the verified one
    spinor = ["--l0", "1/2", "--l1", "1.5", "--q", "1.3"]
    if conv == "import":
        exp = tmp_path / "exp"
        assert run_cli(["build", *spinor, "--conv", "printed", "--export", str(exp)], tmp_path, "b.json")[0] == 0
        args = ["verify", "--import", str(exp)]
    else:
        args = ["verify", *spinor, "--conv", conv]
    code, raw = run_cli(args, tmp_path)
    doc = json.loads(raw)
    assert code == 0
    assert {rep["suite"] for rep in doc["reports"]} >= {"recurrences", "unitary_coeffs"}
    assert all(rep["convention"] == doc["config"]["convention"] for rep in doc["reports"])
    assert doc["config"]["convention"] == ([0, 0, 0, 0, 2, 0, 1] if conv == "resolved" else [0, 0, 0, 0, 1, 0, 0])


@pytest.mark.parametrize(
    "args, message",
    [
        (["build", "--l0", "0", "--l1", "2.7i", "--q", "10", "--j-max", "330"], "largest valid j_max is 130"),
        (["verify", "--l0", "0", "--l1", "2.7i", "--q", "10", "--j-max", "140"], "largest valid j_max is 130"),
        (["build", "--l0", "0", "--l1", "2.7i", "--q", "1.3", "--j-max", "1400"], "largest valid j_max is 1143"),
        (["verify", "--l0", "1/2", "--l1", "2.7i", "--q", "0.1", "--j-max", "140"], "largest valid j_max is 259/2"),
        (["conventions", "--l0", "0", "--l1", "2.7i", "--q", "10", "--j-max", "131"], "largest valid j_max is 130"),
        (["build", "--l0", "1/2", "--l1", "200.5", "--q", "10"], "spin 399/2 overflows"),
    ],
)
def test_overflowing_range_exits_2_before_any_matrix(tmp_path, capsys, monkeypatch, args, message):
    import qlorentz.matrep as matrep

    def no_matrix(*_args, **_kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(matrep, "_ladder", no_matrix)
    code, raw = run_cli(args, tmp_path)
    assert code == 2 and raw == b""
    assert message in capsys.readouterr().err


_HUGE_L1 = [
    (command, l0, l1)
    for command in ("classify", "build", "verify", "chiral", "coproduct", "conventions", "limit")
    for l0 in ("0", "1/2")
    for l1 in ("1e7", "1e300")
    # at q = 1 + eps, (1/2, 1e7) is an infinite label in range, and (0, 1e7) a finite
    # one whose 10^7 spins its basis lists (ROADMAP item 2)
    if command != "limit" or l1 != "1e7"
]


@pytest.mark.parametrize("command,l0,l1", _HUGE_L1)
def test_huge_l1_exits_2_before_listing_spins(tmp_path, capsys, monkeypatch, command, l0, l1):
    import qlorentz.matrep as matrep
    import qlorentz.repcore as repcore
    import qlorentz.verify as verify
    from qlorentz.qarith import half_range

    def short_range(lo, hi):
        assert hi.twice - lo.twice < 2000, "a long spin range was listed"
        return half_range(lo, hi)

    for module in (matrep, repcore, verify):
        monkeypatch.setattr(module, "half_range", short_range)
    extra = ["--j-max", "2"] if command == "limit" else ["--q", "1.3"]
    code, raw = run_cli([command, "--l0", l0, "--l1", l1, *extra], tmp_path)
    assert code == 2 and raw == b""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("overflows at q" in err or "too large to tell" in err)


def test_largest_valid_j_max_still_builds(tmp_path):
    code, raw = run_cli(["build", "--l0", "0", "--l1", "2.7i", "--q", "10", "--j-max", "130"], tmp_path)
    assert code == 0
    assert json.loads(raw)["basis"]["spins"][-1] == "130"


def test_chiral_and_coproduct_build_no_dense_matrix(tmp_path, monkeypatch):
    import qlorentz.matrep as matrep

    def no_dense(self):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(matrep.OperatorMatrix, "toarray", no_dense)
    for args in (
        ["chiral", "--l0", "1", "--l1", "2.7i", "--q", "1.3", "--j-max", "40"],
        ["coproduct", "--l0", "6", "--l1", "2.7i", "--q", "1.3"],
        ["limit", "--l0", "1", "--l1", "0+2.5i", "--eps", "1e-6", "--j-max", "12"],
    ):
        assert run_cli(args, tmp_path)[0] == 0


def _calls(monkeypatch, tmp_path, args, *names):
    # wrap each named function in every qlorentz namespace that binds it
    import sys

    import qlorentz.matrep as matrep

    calls = {name: [] for name in names}

    def counting(name, fn):
        def wrapper(*a, **kw):
            calls[name].append(repr((a, sorted(kw.items()))))
            return fn(*a, **kw)

        return wrapper

    for name in names:
        fn = getattr(matrep, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "qlorentz" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    code, _ = run_cli(args, tmp_path)
    assert code == 0
    return calls


@pytest.mark.parametrize(
    "args, n_builds",
    [
        (["verify", "--l0", "1", "--l1", "2.7i", "--q", "1.3"], 2),
        (["chiral", "--l0", "1", "--l1", "0.3+1.2i", "--q", "1.3"], 5),
        (["conventions", "--l0", "1", "--l1", "0.5", "--q", "1.3"], 2),
        (["coproduct", "--q", "1.3"], 1),
    ],
)
def test_build_counts(monkeypatch, tmp_path, args, n_builds):
    # the adjoint checks reuse the set the command built, and the resolver
    # and coproduct build each spinor once; the resolver builds no set of the
    # label it resolves
    calls = _calls(monkeypatch, tmp_path, args, "build_generator_set")["build_generator_set"]
    assert len(calls) == n_builds
    if args[0] in ("chiral", "conventions"):
        assert len(set(calls)) == n_builds


@pytest.mark.parametrize(
    "args, n_casimirs",
    [
        (["build", "--l0", "1", "--l1", "2.7i", "--q", "1.3"], 1),
        (["verify", "--l0", "1", "--l1", "2.7i", "--q", "1.3"], 2),
        (["chiral", "--l0", "1", "--l1", "0.3+1.2i", "--q", "1.3"], 0),
        (["chiral", "--spin", "2", "--q", "1.3"], 0),
        (["limit", "--l0", "1", "--l1", "2.7i", "--eps", "1e-6", "--j-max", "4"], 0),
        (["coproduct", "--q", "1.3"], 0),
        (["conventions", "--l0", "1", "--l1", "0.5", "--q", "1.3"], 0),
    ],
)
def test_casimir_built_only_where_a_report_reads_it(monkeypatch, tmp_path, args, n_casimirs):
    # build reports its max norm; verify checks it on the set and (struct
    # record) on the 1/q set; no other command reads the invariant
    calls = _calls(monkeypatch, tmp_path, args, "build_casimir_matrix")["build_casimir_matrix"]
    assert len(calls) == n_casimirs


def test_chiral_builds_one_chiral_set_per_generator_set(monkeypatch, tmp_path):
    # the label's set feeds both the chiral suites and the adjoint check, plus
    # its two conjugate partners and the two spinors: 5 sets, 5 chiral sets
    import sys

    import qlorentz.chiral as chiral

    built = []
    real = chiral.build_chiral

    def recording(gens):
        built.append(gens)
        return real(gens)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qlorentz" and getattr(mod, "build_chiral", None) is real:
            monkeypatch.setattr(mod, "build_chiral", recording)
    assert run_cli(["chiral", "--l0", "1", "--l1", "0.3+1.2i", "--q", "1.3"], tmp_path)[0] == 0
    assert len(built) == len({id(g) for g in built}) == 5


@pytest.mark.parametrize("eps", ["5e-12", "1e-12", "0", "2e-3", "nan"])
def test_limit_eps_outside_its_range_exits_2_before_any_build(tmp_path, capsys, monkeypatch, eps):
    # at eps = 5e-12 the eps/10 build would hit the q = 1 guard of Deformation
    import qlorentz.verify as verify

    def no_build(*a, **kw):
        raise AssertionError("built before the eps check")

    monkeypatch.setattr(verify, "classical_oracle", no_build)
    monkeypatch.setattr(verify, "build_generator_set", no_build)
    code, _ = run_cli(["limit", "--l0", "0", "--l1", "2.7i", "--eps", eps], tmp_path)
    assert code == 2
    assert "--eps must be in [1e-11, 0.001]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, n_sets, n_bases",
    [
        (["verify", "--l0", "1", "--l1", "2.7i", "--q", "1.3"], 2, 1),
        (["chiral", "--l0", "1", "--l1", "0.3+1.2i", "--q", "1.3"], 5, 2),
        (["limit", "--l0", "1", "--l1", "2.7i", "--eps", "1e-6", "--j-max", "4"], 2, 1),
        (["conventions", "--l0", "1", "--l1", "0.5", "--q", "1.3"], 2, 1),
    ],
)
def test_each_op_builds_its_sibling_sets_on_one_basis(monkeypatch, tmp_path, args, n_sets, n_bases):
    # verify: the set and its 1/q sibling; chiral: the label with its two
    # conjugate partners, and the two spinors; limit: the two eps; conventions:
    # the two spinors
    import sys

    import qlorentz.matrep as matrep

    bases = []
    real_build = matrep.build_generator_set

    def recording(*a, **kw):
        gens = real_build(*a, **kw)
        bases.append(gens.basis)
        return gens

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qlorentz" and getattr(mod, "build_generator_set", None) is real_build:
            monkeypatch.setattr(mod, "build_generator_set", recording)
    assert run_cli(args, tmp_path)[0] == 0
    assert len(bases) == n_sets
    assert len({id(b) for b in bases}) == n_bases


def test_conventions_builds_one_label_basis_and_each_consistent_reading_once(monkeypatch, tmp_path):
    # the 36 boost-exponent readings share one basis and one evaluation of the
    # label's a_j, c_j; the 18 whose N+/N- steps break their selection rule
    # are rejected before any matrix.  The other 18 differ only in N+ and N-,
    # whose terms each depend on one exponent axis: 3 + 2 + 3 distinct terms
    # per boost, each evaluated once, and no build_N.  N3 and N3~ read no
    # exponent and are built once (the two spinor sets of the coproduct axis
    # make the other bases and boosts).  On the label's basis `_ladder` runs
    # twice: once for M+ and M-, once for N3 and every distinct N+/N- term
    import qlorentz.matrep as matrep
    import qlorentz.verify as verify

    ladders = []
    real_ladder = matrep._ladder

    def recording(basis, terms, *rest):
        ladders.append((basis, terms))
        return real_ladder(basis, terms, *rest)

    for mod in (matrep, verify):
        monkeypatch.setattr(mod, "_ladder", recording)
    args = ["conventions", "--l0", "1", "--l1", "0.5", "--q", "1.3"]
    names = ("build_basis", "build_N", "build_N3_tilde", "coeff_a", "coeff_c")
    calls = _calls(monkeypatch, tmp_path, args, *names)
    basis = "Basis(spins=(HalfInt(2), HalfInt(4), HalfInt(6), HalfInt(8), HalfInt(10)), j_max=HalfInt(10))"
    of_label = {name: [c for c in calls[name] if "l1=(0.5+0j)" in c or basis in c] for name in names}
    assert len(of_label["build_basis"]) == 1
    assert of_label["build_N"] == []
    assert len(of_label["coeff_a"]) == len(set(of_label["coeff_a"])) == 5  # spins 1..5
    assert len(of_label["coeff_c"]) == len(set(of_label["coeff_c"])) == 6  # and c_6 of the top coupling
    assert len(of_label["build_N3_tilde"]) == 1
    tables = [terms for b, terms in ladders if repr(b) == basis]
    assert len(tables) == 2
    rows = [t for terms in tables for t in terms]
    assert len(rows) == len(set(rows)) == 2 + 3 + 16  # M+ and M-, N3, each N+/N- term


# ---------------------------------------------------------------- JSON bytes


def _escape_reference(s):
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def _emit_reference(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(f'"{_escape_reference(obj)}"')
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append("%.17g" % obj)
    elif isinstance(obj, complex):
        _emit_reference({"re": obj.real, "im": obj.imag}, parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(f'"{_escape_reference(str(k))}":')
            _emit_reference(v, parts)
        parts.append("}")
    else:
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit_reference(v, parts)
        parts.append("]")


def _dumps_reference(obj, indent=False):
    """The earlier two-pass emitter: compact text, then a re-indenting walk."""
    parts = []
    _emit_reference(obj, parts)
    text = "".join(parts)
    if not indent:
        return text
    out, depth, in_str, esc = [], 0, False, False
    for ch in text:
        if in_str:
            out.append(ch)
            if esc:
                esc = False
            elif ch == "\\":
                esc = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            out.append(ch)
        elif ch in "{[":
            depth += 1
            out.append(ch + "\n" + "  " * depth)
        elif ch in "}]":
            depth -= 1
            out.append("\n" + "  " * depth + ch)
        elif ch == ",":
            out.append(ch + "\n" + "  " * depth)
        elif ch == ":":
            out.append(": ")
        else:
            out.append(ch)
    return "".join(out)


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"],
        ["build", "--l0", "0", "--l1", "2.7i", "--q", "1.3", "--j-max", "3"],
        ["verify", "--l0", "1", "--l1", "0.3+1.2i", "--q", "0.7", "--j-max", "3"],
        ["verify", "--l0", "1/2", "--l1", "1.5", "--q", "1.3", "--format", "text"],
        ["chiral", "--spin", "2", "--q", "1.3"],
        ["chiral", "--l0", "0", "--l1", "0.5", "--q", "1.3", "--j-max", "2"],
        ["coproduct", "--q", "1.3"],
        ["limit", "--l0", "1", "--l1", "2.5i", "--eps", "1e-6", "--j-max", "3"],
        ["conventions", "--l0", "1/2", "--l1", "1.5", "--q", "1.3"],
    ],
)
def test_json_bytes_match_two_pass_reference(monkeypatch, tmp_path, args):
    from qlorentz import _jsonfmt

    dumps, seen = _jsonfmt.dumps, []

    def checked(obj, indent=False):
        text = dumps(obj, indent)
        seen.append(text == _dumps_reference(obj, indent))
        return text

    monkeypatch.setattr(_jsonfmt, "dumps", checked)
    run_cli(args, tmp_path)
    assert seen and all(seen)


def test_json_escapes_and_empty_containers_match_reference():
    from qlorentz import _jsonfmt

    doc = {
        'q"uote\\back': ["tab\there", "nl\n", "\x01", "plain", ""],
        "empty": {},
        "none": [],
        "nested": [[], {"a": [1, 2.5, None, True, False]}, 1j - 2],
    }
    for indent in (False, True):
        assert _jsonfmt.dumps(doc, indent) == _dumps_reference(doc, indent)
