"""The package namespace: every public name, loaded with its module on first use."""

import importlib
import json
from pathlib import Path

import pytest

import qlorentz

# the names the package exports, by defining module
_EXPORTS = {
    "qarith": ("Deformation", "HalfInt", "q_number", "sqrt_principal"),
    "repcore": (
        "Classification",
        "RepLabel",
        "SingularCoefficientError",
        "casimir_eigenvalue",
        "check_recurrences",
        "classify",
        "coeff_a",
        "coeff_c",
        "conjugate_partner",
    ),
    "matrep": (
        "Basis",
        "ConstructionInconsistencyError",
        "ConventionId",
        "DEFAULT_CONVENTION",
        "RESOLVED_CONVENTION",
        "GeneratorSet",
        "OperatorMatrix",
        "TensorOperator",
        "build_basis",
        "build_from_suq2",
        "build_generator_set",
        "build_M",
        "build_N",
        "build_N3_tilde",
        "build_casimir_matrix",
        "build_ST_vectors",
        "export_generator_set",
        "import_generator_set",
        "suq2_matrices",
        "tensor_embed",
    ),
    "verify": (
        "RelationResidual",
        "Tolerances",
        "VerificationReport",
        "check_casimir",
        "check_lorentz_relations",
        "check_q_adjoint",
        "check_recurrence_suite",
        "check_tensor_operator",
        "check_unitary_coeffs",
        "classical_limit_compare",
        "classical_oracle",
        "resolve_conventions",
    ),
    "chiral": (
        "ChiralSet",
        "build_chiral",
        "check_chiral_adjoint",
        "check_chiral_relations",
        "check_coproduct_homomorphism",
        "check_reduction_identities",
        "check_spinor_annihilation",
        "coproduct",
        "spinor_labels",
    ),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in _EXPORTS.items() for n in names])
def test_every_exported_name_resolves_to_its_modules_object(module, name):
    want = getattr(importlib.import_module(f"qlorentz.{module}"), name)
    namespace: dict = {}
    exec(f"from qlorentz import {name}", namespace)
    assert getattr(qlorentz, name) is want
    assert namespace[name] is want
    assert name in dir(qlorentz)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'build_everything'"):
        qlorentz.build_everything  # noqa: B018
    with pytest.raises(ImportError):
        exec("from qlorentz import build_everything", {})


def test_a_name_reads_its_modules_current_binding(monkeypatch):
    # the package keeps no copy: a patched module attribute is what it hands out.
    # A test that patched the name on the package itself leaves its restored
    # value there, so that copy is taken out first.
    import qlorentz.matrep as matrep

    monkeypatch.delitem(vars(qlorentz), "build_basis", raising=False)
    real = qlorentz.build_basis
    assert "build_basis" not in vars(qlorentz)

    def patched(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(matrep, "build_basis", patched)
    assert qlorentz.build_basis is patched
    monkeypatch.undo()
    assert qlorentz.build_basis is real


# a benchmark metric's layer prefix that is not its module's name, and the
# functions whose calls a per-function metric sums when it names none of them
_METRIC_MODULES = {"jsonfmt": "_jsonfmt"}
_METRIC_FUNCTIONS = {("repcore", "coeff"): ("coeff_a", "coeff_c")}


def test_every_per_function_benchmark_metric_names_a_public_function():
    # the benchmark tracer wraps the functions in each module's __all__, so a
    # metric `layer.function.*` whose function is not there reads nothing and
    # its layer drops out of the benchmark without an error
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if m["name"].count(".") == 2]
    assert names
    missing = []
    for name in names:
        layer, function, _ = name.split(".")
        module = importlib.import_module(f"qlorentz.{_METRIC_MODULES.get(layer, layer)}")
        missing += [(name, f) for f in _METRIC_FUNCTIONS.get((layer, function), (function,)) if f not in module.__all__]
    assert not missing


def test_the_only_module_level_memos_are_the_parser_and_the_shape_memo():
    # the design aim of no module-level mutable state: a process keeps only
    # the parser it builds once and the bounded memo of index arrays
    import functools
    import pkgutil

    from qlorentz import cli, matrep

    memos = {}  # id -> the first module-qualified name bound to it
    for info in pkgutil.iter_modules(qlorentz.__path__):
        module = importlib.import_module(f"qlorentz.{info.name}")
        for name, val in vars(module).items():
            if isinstance(val, (functools._lru_cache_wrapper, matrep._ShapeMemo)):
                memos.setdefault(id(val), f"{info.name}.{name}")
    assert set(memos) == {id(cli._build_parser), id(matrep._SHAPES)}, sorted(memos.values())
