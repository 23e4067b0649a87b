"""The step-stored operator algebra against the same algebra on dense arrays."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qlorentz.cli import main  # noqa: E402
from qlorentz.qarith import Deformation, HalfInt  # noqa: E402
from qlorentz.repcore import RepLabel  # noqa: E402
from qlorentz.matrep import (  # noqa: E402
    GENERATOR_PATTERNS,
    Basis,
    OperatorMatrix,
    build_generator_set,
    export_matrix,
    import_matrix,
    pattern_violation,
    tensor_embed,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _basis(kind: str, l0_twice: int, n_blocks: int) -> Basis:
    spins = tuple(HalfInt(l0_twice + 2 * k) for k in range(n_blocks))
    if kind == "single":
        return Basis(spins=spins[:1])
    return Basis(spins=spins, j_max=spins[-1] if kind == "truncated" else None)


def _dense_steps(basis: Basis) -> np.ndarray:
    """(dim, dim, 2) step of every entry (row, col) of a (j, m) basis."""
    dj = (basis.j2[:, None] - basis.j2[None, :]) // 2
    dm = (basis.m2[:, None] - basis.m2[None, :]) // 2
    return np.stack((dj, dm), axis=-1)


@st.composite
def bases(draw):
    kind = draw(st.sampled_from(("truncated", "finite", "single", "product")))
    if kind == "product":
        a = _basis(draw(st.sampled_from(("finite", "single"))), draw(st.integers(0, 2)), draw(st.integers(1, 2)))
        b = _basis(draw(st.sampled_from(("finite", "single"))), draw(st.integers(0, 2)), draw(st.integers(1, 2)))
        return a.product(b)
    return _basis(kind, draw(st.integers(0, 3)), draw(st.integers(1, 4)))


@st.composite
def operators(draw, basis):
    """A random sparse operator: random entries, so arbitrary steps."""
    n = basis.dim
    count = draw(st.integers(0, min(3 * n, 40)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count))
    parts = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    vals = [complex(draw(parts), draw(parts)) for _ in range(count)]
    return OperatorMatrix.from_entries(basis, rows, cols, vals)


@st.composite
def operator_pairs(draw):
    basis = draw(bases())
    return draw(operators(basis)), draw(operators(basis))


@SETTINGS
@given(operator_pairs(), st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_algebra_matches_dense(pair, z):
    a, b = pair
    da, db = a.toarray(), b.toarray()
    tol = 1e-12 * max(1.0, np.abs(da).sum(axis=1).max() * np.abs(db).sum(axis=0).max())
    np.testing.assert_allclose((a @ b).toarray(), da @ db, rtol=0, atol=tol)
    np.testing.assert_array_equal((a + b).toarray(), da + db)
    np.testing.assert_array_equal((a - b).toarray(), da - db)
    np.testing.assert_array_equal((z * a - b / 2).toarray(), z * da - db / 2)
    np.testing.assert_array_equal(a.dagger().toarray(), da.conj().T)
    assert a.max_norm == float(np.max(np.abs(da)))
    mask = np.arange(a.dim) % 3 != 1
    sub = (da - db)[:, mask]
    assert (a - b).masked_max(mask) == (float(np.max(np.abs(sub))) if sub.size else 0.0)
    assert np.count_nonzero(a.data) == np.count_nonzero(da)
    rows, cols, vals = a.entries()
    nz = np.nonzero(da)
    assert rows.tolist() == nz[0].tolist() and cols.tolist() == nz[1].tolist()
    np.testing.assert_array_equal(vals, da[nz])


@SETTINGS
@given(st.data())
def test_kron_matches_dense(data):
    a = data.draw(operators(_basis("finite", data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2)))))
    b = data.draw(operators(_basis("single", data.draw(st.integers(1, 3)), 1)))
    np.testing.assert_array_equal(tensor_embed(a, b).toarray(), np.kron(a.toarray(), b.toarray()))


@SETTINGS
@given(st.data())
def test_pattern_violation_matches_dense(data):
    basis = data.draw(bases().filter(lambda b: isinstance(b, Basis)))
    op = data.draw(operators(basis))
    name = data.draw(st.sampled_from(sorted(GENERATOR_PATTERNS)))
    pattern = GENERATOR_PATTERNS[name]
    dense = op.toarray()
    steps = _dense_steps(basis)
    off = np.array([[tuple(s) not in pattern for s in row] for row in steps])
    mag = np.where(off, np.abs(dense), 0.0)
    assert pattern_violation(op, pattern, basis) == pytest.approx(float(mag.max()), rel=1e-15, abs=0)


@pytest.mark.parametrize("l0,l1,jm", [("0", 2.7j, "3"), ("1/2", 3.5, "1/2"), ("1", 2.0, "1")])
def test_import_with_planted_off_pattern_entry(tmp_path, l0, l1, jm):
    # each generator file gets one entry two blocks up (off every pattern)
    label = RepLabel(HalfInt.parse(l0), l1, Deformation(1.3))
    g = build_generator_set(label, HalfInt.parse(jm))
    b = g.basis
    planted = 0.25 - 0.5j
    for name, op in g.matrices().items():
        path = tmp_path / f"{name}.txt"
        export_matrix(op, label, g.convention, path)
        dense = op.toarray()
        if len(b.spins) >= 3:
            r, c = b.dim - 1, 0
            dense[r, c] = planted
            with open(path, "a") as fh:
                fh.write(f"{r} {c} {planted.real!r} {planted.imag!r}\n")
        imported, _, _ = import_matrix(path)
        np.testing.assert_array_equal(imported.toarray(), dense)
        want = abs(planted) if len(b.spins) >= 3 else 0.0
        assert pattern_violation(imported, GENERATOR_PATTERNS[name], imported.basis) == want


def test_large_build_and_verify_in_bounded_memory(tmp_path):
    # l0 + 60 is dim 3721: one dense complex matrix would take 221 MB
    label = ["--l0", "0", "--l1", "2.7i", "--q", "1.3", "--j-max", "60"]
    tracemalloc.start()
    try:
        assert main(["build", *label, "--output", str(tmp_path / "b.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert main(["verify", *label, "--output", str(tmp_path / "v.json")]) == 0


def test_verify_imports_no_scipy(tmp_path):
    script = (
        "import sys; import qlorentz; from qlorentz.cli import main; "
        "rc = main(['verify', '--l0', '1/2', '--l1', '1.5', '--q', '1.3', '--output', sys.argv[1]]); "
        "print(rc, 'scipy' in sys.modules, any(m.startswith('scipy.') for m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "v.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False", "False"]


def test_operator_rejects_mismatched_bases():
    a = OperatorMatrix.diagonal(Basis(spins=(HalfInt(1),)), 1.0)
    b = OperatorMatrix.diagonal(Basis(spins=(HalfInt(2),)), 1.0)
    for op in (lambda: a + b, lambda: a @ b):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        pattern_violation(a, GENERATOR_PATTERNS["m3"], b.basis)
    assert math.isclose(a.max_norm, 1.0)


def test_product_basis_is_shared_and_freed_without_the_cycle_collector():
    # krons on one pair of bases share a product basis (and its plans) while
    # one is alive, and it is freed by reference counting once unused: a
    # cycle through the factor's cache would keep it, both bases and their
    # plans until the cyclic collector happens to run
    gc.collect()
    gc.disable()
    try:
        b = _basis("truncated", 2, 3)
        op = OperatorMatrix.diagonal(b, 1.0)
        first = tensor_embed(op, op)
        assert tensor_embed(op, op).basis is first.basis
        ref = weakref.ref(first.basis)
        del b, op, first
        assert ref() is None
    finally:
        gc.enable()
