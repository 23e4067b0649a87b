"""Matrix representations of a q-deformed Lorentz algebra with numerical
relation checking: classification by (l0, l1), explicit generator matrices,
residual verification of every defining relation, chiral decomposition and
coproduct, and a classical-limit oracle.

The q-number and classification names are imported with the package; the
numpy-backed ones (`matrep`, `verify`, `chiral`) load with their module on
first use (PEP 562), so a program that only classifies never imports numpy.
"""

import importlib

from .qarith import Deformation, HalfInt, q_number, sqrt_principal
from .repcore import (
    Classification,
    RepLabel,
    SingularCoefficientError,
    casimir_eigenvalue,
    check_recurrences,
    classify,
    coeff_a,
    coeff_c,
    conjugate_partner,
)

# each lazily loaded name -> the module that defines it
_LAZY = {
    name: module
    for module, names in (
        (
            "matrep",
            "Basis ConstructionInconsistencyError ConventionId DEFAULT_CONVENTION RESOLVED_CONVENTION"
            " GeneratorSet OperatorMatrix TensorOperator build_basis build_from_suq2 build_generator_set"
            " build_M build_N build_N3_tilde build_casimir_matrix build_ST_vectors export_generator_set"
            " import_generator_set suq2_matrices tensor_embed",
        ),
        (
            "verify",
            "RelationResidual Tolerances VerificationReport check_casimir check_lorentz_relations"
            " check_q_adjoint check_recurrence_suite check_tensor_operator check_unitary_coeffs"
            " classical_limit_compare classical_oracle resolve_conventions",
        ),
        (
            "chiral",
            "ChiralSet build_chiral check_chiral_adjoint check_chiral_relations"
            " check_coproduct_homomorphism check_reduction_identities check_spinor_annihilation"
            " coproduct spinor_labels",
        ),
    )
    for name in names.split()
}


def __getattr__(name: str):
    # not kept in the package namespace: each read sees the module's current
    # binding, as a from-import at the use site would
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
