import math

import numpy as np
import pytest

from qlorentz.qarith import Deformation, HalfInt, half_range, q_number
from qlorentz.repcore import RepLabel, coeff_c, conjugate_partner
from qlorentz.matrep import (
    Basis,
    ConstructionInconsistencyError,
    ConventionId,
    GENERATOR_PATTERNS,
    OperatorMatrix,
    build_basis,
    build_from_suq2,
    build_generator_set,
    build_M,
    build_N,
    build_ST_vectors,
    diag_from_m,
    export_matrix,
    import_matrix,
    export_generator_set,
    import_generator_set,
    pattern_violation,
    suq2_matrices,
    tensor_embed,
)


def lab(l0: str, l1, q: float) -> RepLabel:
    return RepLabel(HalfInt.parse(l0), l1, Deformation(q))


def from_dense(basis, arr):
    """Step operator with the nonzero entries of a dense array."""
    rows, cols = np.nonzero(arr)
    return OperatorMatrix.from_entries(basis, rows, cols, arr[rows, cols])


# ---------------------------------------------------------------- basis


def test_basis_ordering_and_round_trip():
    basis = build_basis(lab("1/2", 2.7j, 1.3), HalfInt.parse("7/2"))
    assert [str(j) for j in basis.spins] == ["1/2", "3/2", "5/2", "7/2"]
    assert basis.dim == 2 + 4 + 6 + 8
    assert basis.truncated
    assert basis.j2.tolist() == [1] * 2 + [3] * 4 + [5] * 6 + [7] * 8
    assert basis.starts.tolist() == [0, 2, 6, 12]
    # m runs -j..j inside each block
    assert basis.m2[:6].tolist() == [-1, 1, -3, -1, 1, 3]
    for i in range(basis.dim):
        assert basis.index(HalfInt(int(basis.j2[i])), HalfInt(int(basis.m2[i]))) == i
    valid, rows = basis.locate(basis.j2, basis.m2)
    assert valid.all() and rows.tolist() == list(range(basis.dim))
    assert not basis.j2.flags.writeable and not basis.m2.flags.writeable


def test_basis_dims_on_reference_labels():
    assert build_basis(lab("1/2", 1.5, 1.3), HalfInt(9)).dim == 2
    assert build_basis(lab("0", 2.0, 1.3), HalfInt(0)).dim == 4
    b = build_basis(lab("0", 2.7j, 1.3), HalfInt.parse("5"))
    assert b.dim == 36 and b.truncated


def test_basis_finite_ignores_jmax():
    b = build_basis(lab("0", 2.0, 1.3), HalfInt.parse("9"))
    assert [str(j) for j in b.spins] == ["0", "1"] and not b.truncated


def test_basis_rejects_jmax_below_l0():
    with pytest.raises(ValueError):
        build_basis(lab("2", 2.7j, 1.3), HalfInt(1))


def test_interior_columns():
    b = build_basis(lab("0", 2.7j, 1.3), HalfInt.parse("3"))
    lin = b.interior_columns(1)
    quad = b.interior_columns(2)
    for i, j2 in enumerate(b.j2):
        assert lin[i] == (j2 <= 4)
        assert quad[i] == (j2 <= 2)
    full = build_basis(lab("0", 2.0, 1.3), HalfInt(0))
    assert full.interior_columns(2).all()


# ---------------------------------------------------------------- rotations


def test_rotation_entry_value():
    # <1/2,1/2| raise |1/2,-1/2> = [1]^(1/2)[1]^(1/2) q^(-1/4) q^(1/4) = 1
    basis = build_basis(lab("1/2", 1.5, 1.3), HalfInt(1))
    mp, _, _ = build_M(basis, Deformation(1.3))
    r = basis.index(HalfInt(1), HalfInt(1))
    c = basis.index(HalfInt(1), HalfInt(-1))
    assert mp.toarray()[r, c] == pytest.approx(1.0, abs=1e-15)


def test_rotation_kills_highest_weight():
    basis = build_basis(lab("0", 2.7j, 1.3), HalfInt(6))
    mp, mm, _ = build_M(basis, Deformation(1.3))
    for j in basis.spins:
        top = basis.index(j, j)
        bot = basis.index(j, -j)
        assert not mp.data[:, top].any()
        assert not mm.data[:, bot].any()


def test_rotation_classical_limit_entries():
    basis = build_basis(lab("0", 2.7j, 1 + 1e-8), HalfInt(4))
    mp, _, _ = build_M(basis, Deformation(1 + 1e-8))
    dense = mp.toarray()
    for j in basis.spins:
        for m in half_range(-j, j - 1):
            got = dense[basis.index(j, m + 1), basis.index(j, m)]
            fj, fm = float(j), float(m)
            assert got == pytest.approx(math.sqrt((fj - fm) * (fj + fm + 1)), abs=1e-6)


def test_m3_diagonal_weights():
    basis = build_basis(lab("1/2", 2.7j, 1.3), HalfInt.parse("5/2"))
    _, _, m3 = build_M(basis, Deformation(1.3))
    dense = m3.toarray()
    for i, m2 in enumerate(basis.m2):
        assert dense[i, i] == m2 / 2


@pytest.mark.parametrize("q", [0.5, 0.9, 1.3, 2.0])
def test_suq2_relations_on_rotations_random_labels(q):
    rng = np.random.default_rng(11)
    d = Deformation(q)
    for _ in range(3):
        l0 = HalfInt(int(rng.integers(0, 4)))
        label = RepLabel(l0, complex(rng.uniform(-2, 2), rng.uniform(0, 2)), d)
        basis = build_basis(label, l0 + 4)
        mp, mm, m3 = build_M(basis, d)
        two_m3 = diag_from_m(basis, lambda m: q_number(m + m, d))
        scale = max(1.0, mp.max_norm * mm.max_norm)
        mp, mm, m3, two_m3 = (op.toarray() for op in (mp, mm, m3, two_m3))
        assert np.max(np.abs(mp @ mm - mm @ mp - two_m3)) < 1e-13 * scale
        assert np.max(np.abs(m3 @ mp - mp @ m3 - mp)) < 1e-13 * scale


# ---------------------------------------------------------------- boosts


def test_selection_rules_exact():
    g = build_generator_set(lab("1/2", 2.7j, 1.3), HalfInt.parse("7/2"))
    for name, op in g.matrices().items():
        assert pattern_violation(op, GENERATOR_PATTERNS[name], g.basis) == 0.0, name


def test_generators_are_the_seven_by_name_without_the_invariant():
    # generators() reads no invariant; matrices() is it plus the invariant,
    # both in GENERATOR_PATTERNS order
    g = build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("3"))
    seven = g.generators()
    assert list(seven) == [name for name in GENERATOR_PATTERNS if name != "casimir"]
    assert all(op is getattr(g, name) for name, op in seven.items())
    assert g._casimir is None
    assert g.matrices() == {**seven, "casimir": g.casimir} and list(g.matrices()) == list(GENERATOR_PATTERNS)


@pytest.mark.parametrize("l0,l1,jm", [("1", 2.7j, "4"), ("1/2", 3.5, "1/2")])
def test_selection_rule_edges(l0, l1, jm):
    # one planted entry at every off-pattern neighbour of the |m| = j columns
    # of the first and last spin block is reported at exactly its magnitude
    g = build_generator_set(lab(l0, l1, 1.3), HalfInt.parse(jm))
    b = g.basis
    edge = [i for i in range(b.dim) if b.j2[i] in (b.j2[0], b.j2[-1]) and abs(b.m2[i]) == b.j2[i]]
    assert len(edge) == 4
    planted = 1e-3 * (0.3 - 0.4j)
    for name in ("n_plus", "n3", "m_minus"):
        op, pattern = g.matrices()[name], GENERATOR_PATTERNS[name]
        checked = 0
        for col in edge:
            for dj in range(-2, 3):
                for dm in range(-2, 3):
                    if (dj, dm) in pattern:
                        continue
                    valid, rows = b.locate(b.j2[[col]] + 2 * dj, b.m2[[col]] + 2 * dm)
                    if not valid[0]:
                        continue
                    arr = op.toarray()
                    arr[rows[0], col] = planted
                    got = pattern_violation(from_dense(b, arr), pattern, b)
                    assert got == abs(planted), (name, col, dj, dm)
                    arr[rows[0], col] = 0
                    assert pattern_violation(from_dense(b, arr), pattern, b) == 0.0
                    checked += 1
        assert checked >= 8, name


def _reference_generators(basis, label, conv):
    """Per-entry evaluation of the matrix actions in the matrep docstring
    (with the catalogued readings), the reference for the vectorized build."""
    d, n = label.d, basis.dim
    lnq = math.log(d.q)
    qp = lambda e: math.exp(e * lnq)  # noqa: E731
    br = lambda x, y: math.sqrt(q_number(x, d) * q_number(y, d))  # noqa: E731
    from qlorentz.repcore import coeff_a

    q1 = (-0.25, 0.0, 0.25)[conv.n_first_shift]
    q3 = (0.25, 0.0, -0.25)[conv.n_third_shift]
    mid = -1.0 if conv.n_mid_exp == 0 else 1.0
    names = ("m_plus", "m_minus", "n_plus", "n_minus", "n3")
    out = {k: np.zeros((n, n), dtype=complex) for k in names}
    for j in basis.spins:
        a, c, c1 = coeff_a(j, label), coeff_c(j, label), coeff_c(j + 1, label)
        fj = float(j)
        for m in half_range(-j, j):
            col, fm = basis.index(j, m), float(m)

            def put(name, tj, tm, val):
                if basis.has(tj, tm):
                    out[name][basis.index(tj, tm), col] += val

            down_p, down_m = (m, m) if conv.n_down_dm else (m + 1, m - 1)
            put("m_plus", j, m + 1, br(j - m, j + m + 1) * qp(-0.25 - fm / 2))
            put("m_minus", j, m - 1, br(j + m, j - m + 1) * qp(-0.25 + fm / 2))
            if basis.has(j - 1, down_p):
                put("n_plus", j - 1, down_p, c * br(j - m, j - m - 1) * qp(q1 - (fj + fm) / 2))
            if basis.has(j, m + 1):
                put("n_plus", j, m + 1, -a * br(j - m, j + m + 1) * qp(-0.25 + mid * fm / 2))
            put("n_plus", j + 1, m + 1, c1 * br(j + m + 1, j + m + 2) * qp(q3 + (fj - fm) / 2))
            if basis.has(j - 1, down_m):
                put("n_minus", j - 1, down_m, -c * br(j + m, j + m - 1) * qp(q1 - (fj - fm) / 2))
            if basis.has(j, m - 1):
                put("n_minus", j, m - 1, -a * br(j + m, j - m + 1) * qp(-0.25 - mid * fm / 2))
            put("n_minus", j + 1, m - 1, -c1 * br(j - m + 1, j - m + 2) * qp(q3 + (fj + fm) / 2))
            if basis.has(j - 1, m):
                put("n3", j - 1, m, c * br(j - m, j + m) * qp(-fm / 2))
            put("n3", j, m, -a * q_number(m, d) * qp(-fm / 2))
            put("n3", j + 1, m, -c1 * br(j + m + 1, j - m + 1) * qp(-fm / 2))
    return out


@pytest.mark.parametrize("l0,l1,q", [("0", 2.7j, 0.5), ("1/2", 3.5, 1.3), ("2", 1 - 0.5j, 7.0)])
def test_builders_bitwise_equal_to_per_entry_reference(l0, l1, q):
    label = lab(l0, l1, q)
    basis = build_basis(label, label.l0 + 3)
    mp, mm, _ = build_M(basis, label.d)
    for conv in (ConventionId(), ConventionId(1, 1, 2, 1), ConventionId(0, 1, 1, 2)):
        ref = _reference_generators(basis, label, conv)
        built = dict(zip(("n_plus", "n_minus", "n3"), build_N(basis, label, conv)))
        built.update(m_plus=mp, m_minus=mm)
        for name, op in built.items():
            assert op.toarray().tobytes() == ref[name].tobytes(), (name, conv)


@pytest.mark.parametrize("l0,l1", [("0", 2.7j), ("2", 5), ("1", 1 - 0.5j)])
def test_sibling_sets_on_a_shared_basis_equal_fresh_builds_bitwise(l0, l1):
    # principal, finite and non-unitary: the 1/q set and the conjugate partners
    # built on the first set's basis (its rows, plans and q tables) equal
    # builds on bases of their own, byte for byte
    label = lab(l0, l1, 1.3)
    g = build_generator_set(label, label.l0 + 4)
    partner = conjugate_partner(label)
    for sibling in (
        RepLabel(label.l0, label.l1, label.d.inverse()),
        partner,
        RepLabel(partner.l0, partner.l1, label.d.inverse()),
    ):
        shared = build_generator_set(sibling, g.basis.j_max, basis=g.basis)
        fresh = build_generator_set(sibling, g.basis.j_max)
        assert shared.basis is g.basis and fresh.basis is not g.basis
        for name in GENERATOR_PATTERNS:
            assert getattr(shared, name).toarray().tobytes() == getattr(fresh, name).toarray().tobytes(), name


def test_sibling_set_on_another_labels_basis_raises():
    g = build_generator_set(lab("0", 2.7j, 1.3), HalfInt.parse("4"))
    for label, j_max in ((lab("1", 2.7j, 1.3), "4"), (lab("0", 2.7j, 1.3), "5"), (lab("0", 2.0, 1.3), "4")):
        with pytest.raises(ValueError, match="not the shared"):
            build_generator_set(label, HalfInt.parse(j_max), basis=g.basis)


def test_boosts_on_spinor_are_rotations_times_minus_i():
    g = build_generator_set(lab("1/2", 1.5, 2.0), HalfInt(1))
    np.testing.assert_allclose(g.n_plus.toarray(), -1j * g.m_plus.toarray(), atol=1e-15)
    np.testing.assert_allclose(g.n_minus.toarray(), -1j * g.m_minus.toarray(), atol=1e-15)


def test_n3_column_at_origin():
    # on the l0 = 0 ladder the diagonal boost moves |0,0> only up, with
    # coefficient -c_1 (both bracket factors are [1] = 1, and q^0 = 1)
    label = lab("0", 0.5, 1.3)
    g = build_generator_set(label, HalfInt.parse("3"))
    col = g.basis.index(HalfInt(0), HalfInt(0))
    expected = np.zeros(g.basis.dim, dtype=complex)
    expected[g.basis.index(HalfInt(2), HalfInt(0))] = -coeff_c(HalfInt(2), label)
    np.testing.assert_allclose(g.n3.toarray()[:, col], expected, atol=1e-15)


def test_n3_tilde_matches_direct_formula():
    # the closed-form build equals q^(M3) N3 written as a diagonal product
    for l0, l1, q in [("0", 0.5, 1.3), ("1", 2.7j, 0.7), ("1/2", 1.5, 2.0)]:
        g = build_generator_set(lab(l0, l1, q), HalfInt.parse(l0) + 5)
        qm3 = diag_from_m(g.basis, lambda m: math.pow(q, float(m)))
        np.testing.assert_allclose(g.n3_tilde.toarray(), qm3.toarray() @ g.n3.toarray(), atol=1e-12)


def test_n3_tilde_rejects_inconsistent_convention():
    # the j-1 boost term without an m shift breaks the N+/N- selection rules
    label = lab("0", 0.5, 1.3)
    with pytest.raises(ConstructionInconsistencyError):
        build_generator_set(label, HalfInt.parse("4"), ConventionId(n_down_dm=1))


def test_casimir_scalar_on_spinor():
    d = Deformation(1.3)
    g = build_generator_set(lab("1/2", 1.5, 1.3), HalfInt(1))
    expected = 1j * q_number(HalfInt(1), d) * q_number(1.5, d)
    np.testing.assert_allclose(g.casimir.toarray(), expected * np.eye(2), atol=1e-13)


def test_casimir_zero_for_zero_boosts():
    from qlorentz.matrep import build_casimir_matrix

    g = build_generator_set(lab("1/2", 1.5, 1.3), HalfInt(1))
    zero = OperatorMatrix.diagonal(g.basis, 0.0)
    cas = build_casimir_matrix(g.m_plus, g.m_minus, zero, zero, zero, zero, g.d)
    assert cas.max_norm == 0.0


def test_finite_top_coupling_is_exactly_zero():
    # the ladder closes with no truncation error: the coupling out of the
    # top block vanishes identically
    for l0, l1 in [("0", 1.0), ("0", 2.0), ("1/2", 1.5), ("1", 3.0)]:
        label = lab(l0, l1, 1.3)
        top = HalfInt(int(round(2 * abs(l1))))
        assert coeff_c(top, label) == 0


# ---------------------------------------------------------------- realization


@pytest.mark.parametrize("two_j", [1, 2, 3, 5])
@pytest.mark.parametrize("q", [0.7, 1.3])
def test_realization_rotation_and_boost_commutators(two_j, q):
    g = build_from_suq2(two_j, Deformation(q))
    d = g.d
    two_m3 = diag_from_m(g.basis, lambda m: q_number(m + m, d)).toarray()
    scale = max(1.0, g.m_plus.max_norm * g.m_minus.max_norm)
    mp, mm, np_, nm = (op.toarray() for op in (g.m_plus, g.m_minus, g.n_plus, g.n_minus))
    comm_m = mp @ mm - mm @ mp
    comm_n = np_ @ nm - nm @ np_
    assert np.max(np.abs(comm_m - two_m3)) < 1e-14 * scale
    assert np.max(np.abs(comm_n + two_m3)) < 1e-14 * scale


def test_realization_diagonal_boosts():
    d = Deformation(1.3)
    g = build_from_suq2(3, d)
    n3_expect = diag_from_m(g.basis, lambda m: -1j * q_number(m, d) * d.q ** (-float(m) / 2))
    np.testing.assert_allclose(g.n3.toarray(), n3_expect.toarray(), atol=1e-15)
    assert g.label.l0 == HalfInt(3) and g.label.l1 == pytest.approx(2.5)


def test_realization_matches_label_build_at_spin_half():
    # the spin-1/2 realization and the 2-dimensional label build coincide
    d = Deformation(1.3)
    g1 = build_from_suq2(1, d)
    g2 = build_generator_set(lab("1/2", 1.5, 1.3), HalfInt(1))
    for name in g1.matrices():
        np.testing.assert_allclose(
            g1.matrices()[name].toarray(), g2.matrices()[name].toarray(), atol=1e-13, err_msg=name
        )


def test_realization_rejects_spin_zero():
    with pytest.raises(ValueError):
        build_from_suq2(0, Deformation(1.3))


# ---------------------------------------------------------------- vector operators


def test_vector_operators_raise_kills_top():
    s, t = build_ST_vectors(2, Deformation(1.3))
    basis = suq2_matrices(2, Deformation(1.3)).basis
    top = basis.index(HalfInt(2), HalfInt(2))
    assert not s.component(1).data[:, top].any()
    assert not t.component(1).data[:, top].any()


def test_vector_operator_zero_component_classical_limit():
    # the weight-0 component reduces to a multiple of the diagonal weight
    # matrix as q -> 1
    d = Deformation(1 + 1e-7)
    s, _ = build_ST_vectors(1, d)
    z = s.component(0).toarray()
    off = z - np.diag(np.diag(z))
    assert np.max(np.abs(off)) < 1e-6
    diag = np.real(np.diag(z))
    # classical value: -sqrt(2) * m on the spin-1/2 block
    np.testing.assert_allclose(diag, [math.sqrt(2) / 2, -math.sqrt(2) / 2], atol=1e-5)


def test_vector_operator_components_shift_weight():
    s, t = build_ST_vectors(3, Deformation(0.7))
    basis = suq2_matrices(3, Deformation(0.7)).basis
    for tensor in (s, t):
        for mu in (-1, 0, 1):
            assert pattern_violation(tensor.component(mu), frozenset({(0, mu)}), basis) == 0.0


# ---------------------------------------------------------------- tensor embed


SPIN_HALF, SPIN_ONE = Basis(spins=(HalfInt(1),)), Basis(spins=(HalfInt(2),))


def test_tensor_embed_identity_and_dims():
    i2 = OperatorMatrix.diagonal(SPIN_HALF, 1.0)
    i3 = OperatorMatrix.diagonal(SPIN_ONE, 1.0)
    assert np.array_equal(tensor_embed(i2, i3).toarray(), np.eye(6))
    a = from_dense(SPIN_HALF, np.arange(4).reshape(2, 2).astype(complex))
    b = from_dense(SPIN_ONE, (np.arange(9) + 1j).reshape(3, 3))
    ab = tensor_embed(a, b)
    assert ab.dim == 6
    assert np.array_equal(ab.toarray(), np.kron(a.toarray(), b.toarray()))


def test_tensor_embed_mixed_product_property():
    rng = np.random.default_rng(3)
    a = from_dense(SPIN_HALF, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    b = from_dense(SPIN_ONE, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    i2, i3 = OperatorMatrix.diagonal(SPIN_HALF, 1.0), OperatorMatrix.diagonal(SPIN_ONE, 1.0)
    left = tensor_embed(a, i3) @ tensor_embed(i2, b)
    np.testing.assert_allclose(left.toarray(), tensor_embed(a, b).toarray(), atol=1e-13)


# ---------------------------------------------------------------- export/import


def test_matrix_file_round_trip(tmp_path):
    label = lab("1/2", 1.5, 1.3)
    g = build_generator_set(label, HalfInt(1))
    path = tmp_path / "m_plus.txt"
    export_matrix(g.m_plus, label, g.convention, path)
    op, lab2, conv = import_matrix(path)
    assert np.array_equal(op.toarray(), g.m_plus.toarray())
    assert lab2.l0 == label.l0 and lab2.l1 == label.l1 and lab2.d.q == label.d.q
    assert conv == g.convention


def test_generator_set_round_trip_bit_exact(tmp_path):
    for l0, l1, jm in [("1/2", 1.5, "1/2"), ("0", 2.7j, "4")]:
        g = build_generator_set(lab(l0, l1, 1.3), HalfInt.parse(jm))
        d = tmp_path / f"exp_{l0.replace('/', '_')}"
        export_generator_set(g, d)
        g2 = import_generator_set(d)
        for name in g.matrices():
            assert np.array_equal(g.matrices()[name].toarray(), g2.matrices()[name].toarray()), name
        assert g2.basis.dim == g.basis.dim


def test_casimir_is_assembled_on_first_read_and_an_import_keeps_its_file(tmp_path, monkeypatch):
    import qlorentz.matrep as matrep

    g = build_generator_set(lab("1", 2.7j, 1.3), HalfInt.parse("3"))
    assert g._casimir is None
    cas = g.casimir
    assert g.casimir is cas
    direct = matrep.build_casimir_matrix(g.m_plus, g.m_minus, g.n_plus, g.n_minus, g.n3, g.n3_tilde, g.d)
    assert direct.steps == cas.steps and direct.data.tobytes() == cas.data.tobytes()
    export_generator_set(g, tmp_path / "exp")
    path = tmp_path / "exp" / "casimir.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + ["0 0 7 0"]) + "\n")

    def no_casimir(*a):
        raise AssertionError("an imported set rebuilt its invariant")

    monkeypatch.setattr(matrep, "build_casimir_matrix", no_casimir)
    imported = import_generator_set(tmp_path / "exp")
    assert imported.casimir.entries()[2].tolist() == [7 + 0j]


def test_export_header_format(tmp_path):
    label = lab("1/2", 1.5, 1.3)
    g = build_generator_set(label, HalfInt(1))
    path = tmp_path / "m.txt"
    export_matrix(g.m_plus, label, g.convention, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# dim=2 label=")
    assert "convention=" in header
