"""The step-stored operator algebra against the same algebra on dense arrays."""

import gc
import itertools
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

import qlorentz.verify as verify  # noqa: E402
from qlorentz.cli import main  # noqa: E402
from qlorentz.qarith import Deformation, HalfInt  # noqa: E402
from qlorentz.repcore import RepLabel  # noqa: E402
from qlorentz.matrep import (  # noqa: E402
    GENERATOR_PATTERNS,
    Basis,
    OperatorMatrix,
    StackedBasis,
    build_basis,
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


@st.composite
def stacked_pairs(draw):
    """Two operators on k copies of one basis, each copy on the same steps
    (as the resolver's readings are), plus the per-copy operators."""
    kind = draw(st.sampled_from(("truncated", "finite", "single")))
    base = _basis(kind, draw(st.integers(0, 3)), draw(st.integers(1, 4)))
    grid = StackedBasis(base, draw(st.sampled_from((1, 2, 5))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    pair = []
    for _ in range(2):
        steps = tuple(draw(st.lists(step, min_size=1, max_size=4, unique=True)))
        shape = (len(steps), grid.dim)
        data = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.7)
        data[grid._row_stack(steps) < 0] = 0
        stacked = OperatorMatrix(grid, steps, data)
        copies = [OperatorMatrix(base, steps, block) for block in np.hsplit(data, grid.copies)]
        pair.append((stacked, copies))
    return pair


def _assert_blocks(stacked, copies):
    assert all(stacked.steps == op.steps for op in copies)
    for block, op in zip(np.hsplit(stacked.data, len(copies)), copies):
        assert np.ascontiguousarray(block).tobytes() == op.data.tobytes()


@SETTINGS
@given(
    stacked_pairs(),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False, allow_infinity=False),
)
def test_stacked_algebra_matches_each_copy_bitwise(pair, z):
    (a, a_copies), (b, b_copies) = pair
    _assert_blocks(a @ b, [x @ y for x, y in zip(a_copies, b_copies)])
    _assert_blocks(a + b, [x + y for x, y in zip(a_copies, b_copies)])
    _assert_blocks(a - b, [x - y for x, y in zip(a_copies, b_copies)])
    _assert_blocks(z * a, [z * x for x in a_copies])
    _assert_blocks(a / z, [x / z for x in a_copies])
    _assert_blocks(a.dagger(), [x.dagger() for x in a_copies])
    mask = a.basis.base.interior_columns(2)
    assert a.block_max(np.tile(mask, len(a_copies))).tolist() == [x.masked_max(mask) for x in a_copies]
    assert a.block_max().tolist() == [x.max_norm for x in a_copies]


@pytest.mark.parametrize("l0,l1,q", [("1", 2.1j, 1.3), ("1/2", 1.5 - 0.7j, 0.5), ("2", 5, 2.0)])
def test_resolver_scores_do_not_depend_on_the_stack_cap(monkeypatch, l0, l1, q):
    label = RepLabel(HalfInt.parse(l0), l1, Deformation(q))
    dim = build_basis(label, label.l0 + 4).dim
    stacks = []

    def recording(base, copies):
        stacks.append(copies)
        return StackedBasis(base, copies)

    monkeypatch.setattr(verify, "StackedBasis", recording)
    results = []
    for cap, want in ((1, [1] * 18), (18 * dim, [18])):
        monkeypatch.setattr(verify, "_STACK_COLUMNS", cap)
        results.append(verify.resolve_conventions(label, 2, label.d))
        assert stacks == want
        stacks.clear()
    assert results[0] == results[1]


@SETTINGS
@given(st.data())
def test_kron_matches_dense(data):
    a = data.draw(operators(_basis("finite", data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2)))))
    b = data.draw(operators(_basis("single", data.draw(st.integers(1, 3)), 1)))
    np.testing.assert_array_equal(tensor_embed(a, b).toarray(), np.kron(a.toarray(), b.toarray()))


def test_kron_keeps_only_the_step_pairs_that_reach_a_row():
    # on one spin block a j+-1 step reaches no row, so no pair with it does
    block = Basis(spins=(HalfInt(1),))
    steps = ((-1, 1), (0, 1), (0, 0), (1, 0))
    data = np.zeros((4, block.dim))
    data[1:3] = [[1.0, 0.0], [2.0, 3.0]]
    a = OperatorMatrix(block, steps, np.where(block._row_stack(steps) >= 0, data, 0))
    k = tensor_embed(a, a)
    assert k.steps == ((0, 1, 0, 1), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    np.testing.assert_array_equal(k.toarray(), np.kron(a.toarray(), a.toarray()))


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


def test_limit_at_a_large_j_max_in_bounded_memory(tmp_path):
    # dim 14641 at j_max 120: one dense complex matrix would take 3.4 GB.  The
    # op exits 1, not 0, until the deviation tolerance follows the first-order
    # bound (ROADMAP item 2): the boost deviations grow past 100 eps with j
    args = ["limit", "--l0", "0", "--l1", "2.7i", "--eps", "1e-6", "--j-max", "120"]
    tracemalloc.start()
    try:
        code = main([*args, "--output", str(tmp_path / "l.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code != 2
    assert peak < 64 * 2**20, peak


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


def test_public_constructor_checks_and_every_result_is_read_only_complex128():
    basis = Basis(spins=(HalfInt(1), HalfInt(3)), j_max=HalfInt(3))
    n = basis.dim
    for steps, shape in ((((0, 0), (0, 0)), (2, n)), (((0, 0), (0, 1)), (2, n - 1)), (((0, 1),), (2, n))):
        with pytest.raises(ValueError):
            OperatorMatrix(basis, steps, np.zeros(shape))
    g = build_generator_set(RepLabel(HalfInt(1), 2.7j, Deformation(1.3)), HalfInt(3))
    a, b = g.n_plus, g.m_minus
    results = [a @ b, a + b, a - b, a * 2.0, 2j * a, a / 3.0, a.dagger(), a.abs()]
    results += [getattr(g, name) for name in GENERATOR_PATTERNS]
    results += [OperatorMatrix.diagonal(g.basis, 1.5), OperatorMatrix(g.basis, ((0, 0),), [np.arange(g.basis.dim)])]
    for op in results:
        assert op.data.dtype == np.complex128 and op.data.flags.c_contiguous
        assert not op.data.flags.writeable
        assert op.data.shape == (len(op.steps), op.dim) and len(set(op.steps)) == len(op.steps)
        with pytest.raises(ValueError):
            op.data[0, 0] = 1.0


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


def test_step_plans_are_kept_per_process_and_keep_no_grid_alive():
    # a coproduct's plans are made once per step pair for the whole process:
    # its product basis and factor bases are collected, their plans stay
    from qlorentz import matrep
    from qlorentz.chiral import build_chiral, coproduct

    cs = build_chiral(build_generator_set(RepLabel(HalfInt(2), 2.7j, Deformation(1.3)), HalfInt(3)))
    dc = coproduct(cs, cs)
    a, b = dc.I_plus_L, dc.I3_L_tilde
    pairs = [(a.steps, b.steps), (b.steps, a.steps)]
    a @ b, b @ a, a + b
    plans = [matrep._step_plan(*pair) for pair in pairs]
    assert not [key for key in a.basis._cache if key[0] in ("@", "+")]
    # every caller shares these values, so none of them can be written
    for plan in plans:
        r = plan.ranked
        arrays = (plan.sum[1], *plan.product[1:], *r.ranks, r.small, r.large, r.large_terms, r.large_starts, r.first)
        assert not any(arr.flags.writeable for arr in arrays)
    refs = [weakref.ref(x) for x in (a.basis, cs.basis, cs.I_plus_L)]
    del cs, dc, a, b
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
    misses = matrep._step_plan.cache_info().misses
    assert [matrep._step_plan(*pair) for pair in pairs] == plans
    assert matrep._step_plan.cache_info().misses == misses


# ---------------------------------------------------------------- ranked products


def _grouped(rng, sizes, dim, values=None):
    """Terms of groups of the given sizes, their pairs shuffled, and the
    (order, starts) that sort them back for `reduceat`."""
    n = sum(sizes)
    terms = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    terms *= 10.0 ** rng.integers(-3, 4, (n, dim))
    if values is not None:
        parts = terms.view(np.float64)  # re and im interleaved
        pick = rng.random(parts.shape) < 0.3
        parts[pick] = rng.choice(values, int(pick.sum()))
    order = rng.permutation(n)
    starts = np.cumsum([0] + list(sizes[:-1]))
    return np.ascontiguousarray(terms), order, starts


class _NoReorder(np.ndarray):
    """Terms whose reordered copy, the `reduceat` path of a sum that is not
    finite, may not be made."""

    def __getitem__(self, key):
        raise AssertionError("the sum fell back to reduceat over the reordered pairs")


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_rank_sum_equals_reduceat_bitwise(seed, special):
    # groups of 1..20 terms; finite terms with signed zeros take the ranked
    # sum, and inf, nan and overflow take reduceat, with its warnings
    import warnings

    from qlorentz.matrep import _RankSum

    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.repeat(np.arange(1, 21), 2))
    values = [0.0, -0.0, 1.0, -2.5]
    if special:
        values += [np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308]
    terms, order, starts = _grouped(rng, sizes, 7, np.array(values))
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        expected = np.add.reduceat(terms[order], starts, axis=0)
    plan = _RankSum(order, starts)
    work = np.empty(plan.rows * terms.shape[1], dtype=np.complex128)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        result = plan(terms if special else terms.view(_NoReorder), work)
    assert np.asarray(result).tobytes() == expected.tobytes()
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert bool(want) == special


def _ranked_pairs(ops):
    """Products of every pair of ops; the ranked ones are those whose plan has
    a `_RankSum`."""
    out = {}
    for (i, a), (j, b) in itertools.product(enumerate(ops), repeat=2):
        out[i, j] = (a @ b, a.basis._product_plan(a.steps, b.steps).ranked is not None)
    return out


def _coproduct_ops():
    from qlorentz.chiral import build_chiral, coproduct

    cs = build_chiral(build_generator_set(RepLabel(HalfInt(2), 2.7j, Deformation(1.3)), HalfInt(4)))
    dc = coproduct(cs, cs)
    names = ("I_plus_L", "I_minus_L", "I3_L", "I3_L_tilde", "I_plus_R", "I_minus_R", "I3_R", "I3_R_tilde")
    return [getattr(dc, name) for name in names]


def _verify_ops():
    g = build_generator_set(RepLabel(HalfInt(0), 2.7j, Deformation(1.3)), HalfInt.from_int(40))
    return [getattr(g, name) for name in GENERATOR_PATTERNS if name != "casimir"]


def _stacked_ops():
    g = build_generator_set(RepLabel(HalfInt(1), 1 - 0.5j, Deformation(0.7)), HalfInt(6))
    copies = 80
    grid = StackedBasis(g.basis, copies)
    scale = np.repeat(np.linspace(0.5, 2.0, copies), g.basis.dim)
    ops = [getattr(g, name) for name in ("m_plus", "n_plus", "n_minus", "n3")]
    return [OperatorMatrix(grid, op.steps, np.tile(op.data, copies) * scale) for op in ops]


@pytest.mark.parametrize("make", [_coproduct_ops, _verify_ops, _stacked_ops])
def test_ranked_and_direct_products_agree_bitwise(monkeypatch, make):
    import qlorentz.matrep as matrep

    ranked = _ranked_pairs(make())
    assert any(r for _, r in ranked.values())
    monkeypatch.setattr(matrep, "_RANKED_MIN", math.inf)
    direct = _ranked_pairs(make())  # the same cached step plans, each call takes the direct path
    assert not any(r for _, r in direct.values())
    for key, (op, _) in ranked.items():
        assert op.steps == direct[key][0].steps
        assert op.data.tobytes() == direct[key][0].data.tobytes(), key


@pytest.mark.parametrize("make", [_coproduct_ops, _verify_ops, _stacked_ops])
def test_ranked_products_own_their_read_only_results(make):
    ops = make()
    results = _ranked_pairs(ops)
    work = ops[0].basis._work(0)
    for op, is_ranked in results.values():
        assert not np.shares_memory(op.data, work)
        assert op.data.dtype == np.complex128 and op.data.flags.c_contiguous
        assert not op.data.flags.writeable
    # a later product reuses the buffer and leaves every earlier result as it was
    again = _ranked_pairs(ops)
    assert all(again[k][0].data.tobytes() == results[k][0].data.tobytes() for k in results)


def test_ranked_products_from_several_threads_equal_serial_ones():
    # each thread has its own work buffer on a shared basis; the threads
    # start on a fresh basis and an empty plan cache, so they also race to
    # make the same plans and gather rows
    from concurrent.futures import ThreadPoolExecutor

    from qlorentz import matrep

    serial = {k: op.data.tobytes() for k, (op, _) in _ranked_pairs(_coproduct_ops()).items()}
    ops = _coproduct_ops()
    matrep._step_plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda _: _ranked_pairs(ops), range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        assert {k: op.data.tobytes() for k, (op, _) in run.items()} == serial
