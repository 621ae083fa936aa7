import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamap.channels import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    amplitude_damping_map,
    depolarizing_map,
    identity_map,
    matrix_unit,
    transpose_map,
)
from dynamap.cpsplit import CPSplit, cp_split
from dynamap.errors import DimensionMismatch, NonHermitianChoi
from dynamap.channels import amplitude_damping_kraus
from dynamap.docio import parse_document
from dynamap.extension import ExtendedState, apply_sector_map, dimension_report
from dynamap.generators import random_cptp_kraus, random_density_matrix, random_tp_map
from dynamap import linalg, maps
from dynamap.linalg import DEFAULT_TOL, ToleranceConfig, sign_counts
from dynamap.maps import (
    KrausSet,
    LinearMap,
    a_form,
    apply_map,
    check_cp,
    check_hermiticity_preserving,
    check_tp,
    choi_eigenvalues,
    from_a_form,
    kraus_to_map,
    map_to_kraus,
    sign_split,
    weighted_choi,
)
from oracles import apply_kraus


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply_map(identity_map(2), rho), rho)


def test_apply_transpose_negates_sigma_y():
    rho = (np.eye(2) + 0.6 * SIGMA_Y) / 2
    expected = (np.eye(2) - 0.6 * SIGMA_Y) / 2
    assert np.allclose(apply_map(transpose_map(2), rho), expected, atol=1e-14)


def test_apply_fully_depolarizing():
    out = apply_map(depolarizing_map(1.0), matrix_unit(2, 0, 0))
    assert np.allclose(out, np.eye(2) / 2)


def test_apply_linearity():
    rng = np.random.default_rng(1)
    m = random_tp_map(3, rng)
    r1 = random_density_matrix(3, rng)
    r2 = random_density_matrix(3, rng)
    lhs = apply_map(m, 0.3 * r1 + (0.7 + 0.1j) * r2)
    rhs = 0.3 * apply_map(m, r1) + (0.7 + 0.1j) * apply_map(m, r2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_map(identity_map(2), np.eye(3))


def test_a_form_identity_map():
    assert np.allclose(a_form(identity_map(2)), np.eye(4))


def test_a_form_round_trip_exact():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(from_a_form(a_form(LinearMap(raw))).choi, raw)
    assert np.array_equal(a_form(from_a_form(raw)), raw)


def test_a_form_transpose_is_permutation():
    # oracle: enumerate the action on the four matrix units
    expected = np.zeros((4, 4), dtype=complex)
    for r in range(2):
        for s in range(2):
            out = matrix_unit(2, r, s).T
            expected[:, r * 2 + s] = out.reshape(-1)
    assert np.allclose(a_form(transpose_map(2)), expected)


def test_kraus_to_map_single_identity():
    m = kraus_to_map(KrausSet([np.eye(2)]))
    assert np.allclose(m.choi, identity_map(2).choi)


def test_kraus_to_map_damping_gamma_zero_degenerates():
    m0 = np.array([[1, 0], [0, 1]], dtype=complex)  # sqrt(1-gamma) at gamma=0
    m1 = np.zeros((2, 2), dtype=complex)
    m = kraus_to_map(KrausSet([m0]))  # the zero operator contributes nothing
    m_with_zero = kraus_to_map(KrausSet([m0, m1]))
    assert np.allclose(m.choi, identity_map(2).choi)
    assert np.allclose(m_with_zero.choi, identity_map(2).choi)


def test_kraus_to_map_matches_outer_product_loop():
    rng = np.random.default_rng(5)
    for n, k in ((2, 1), (3, 5), (4, 16)):
        ops = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(k)]
        weights = rng.uniform(0.1, 2.0, k)
        signs = rng.choice([-1.0, 1.0], k)
        reference = np.zeros((n * n, n * n), dtype=complex)
        for s, w, op in zip(signs, weights, ops):
            v = op.reshape(-1)
            reference += s * w * np.outer(v, v.conj())
        m = LinearMap(weighted_choi(np.array(ops), signs * weights))
        assert np.abs(m.choi - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())


def test_kraus_to_map_pauli_signs_give_transpose():
    ops = [np.eye(2) / np.sqrt(2), SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2),
           SIGMA_Z / np.sqrt(2)]
    signs = np.array([1.0, 1.0, -1.0, 1.0])
    m = LinearMap(weighted_choi(np.array(ops), signs))
    # oracle: expand the signed sum against the four matrix units directly
    for r in range(2):
        for s in range(2):
            unit = matrix_unit(2, r, s)
            direct = sum(
                sg * (op @ unit @ op.conj().T) for sg, op in zip(signs, ops)
            )
            assert np.allclose(direct, unit.T, atol=1e-14)
            assert np.allclose(apply_map(m, unit), unit.T, atol=1e-14)


def test_map_to_kraus_identity():
    pos, neg = map_to_kraus(identity_map(2))
    assert len(pos) == 1 and len(neg) == 0
    assert np.allclose(pos.weights, [2.0])
    op = pos.operators[0]
    # the canonical operator is the normalized identity up to a global phase
    assert abs(abs(np.trace(op.conj().T @ (np.eye(2) / np.sqrt(2)))) - 1.0) < 1e-12


def test_map_to_kraus_transpose_counts():
    pos, neg = map_to_kraus(transpose_map(2))
    assert len(pos) == 3 and len(neg) == 1
    assert np.allclose(pos.weights, [1.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(neg.weights, [1.0], atol=1e-12)


def test_map_to_kraus_fully_depolarizing():
    pos, neg = map_to_kraus(depolarizing_map(1.0))
    assert len(pos) == 4 and len(neg) == 0
    assert np.allclose(pos.weights, [0.5] * 4, atol=1e-12)


def test_map_to_kraus_requires_hermitian_choi():
    bad = LinearMap(np.triu(np.ones((4, 4), dtype=complex)))
    with pytest.raises(NonHermitianChoi):
        map_to_kraus(bad)


def test_kraus_round_trip_reproduces_action():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        m = random_tp_map(n, rng)
        pos, neg = map_to_kraus(m)
        for _ in range(20):
            rho = random_density_matrix(n, rng)
            rebuilt = apply_kraus(pos, rho) - apply_kraus(neg, rho)
            assert np.linalg.norm(rebuilt - apply_map(m, rho)) <= 1e-9


def test_check_tp():
    ok, res = check_tp(identity_map(2))
    assert ok and res < 1e-14
    ok, _ = check_tp(transpose_map(2))
    assert ok
    doubled = LinearMap(2.0 * identity_map(2).choi)
    ok, res = check_tp(doubled)
    assert not ok
    assert abs(res - np.sqrt(2.0)) < 1e-12  # ||I||_F for a doubled Choi


def test_map_caches_measurements_and_each_tolerance_judges_them(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return linalg.hermiticity_residual(a)

    monkeypatch.setattr(maps, "hermiticity_residual", counted)
    choi = identity_map(2).choi.copy()
    choi[0, 1] += 1e-6  # read by the output trace, and not mirrored below the diagonal
    m = LinearMap(choi)
    loose, tight = ToleranceConfig(residual_abs=1e-3), ToleranceConfig(residual_abs=1e-9)
    # B - B^dag holds the entry twice, with opposite signs
    for check, residual in ((check_tp, 1e-6), (check_hermiticity_preserving, np.sqrt(2) * 1e-6)):
        (loose_ok, loose_res), (tight_ok, tight_res) = check(m, loose), check(m, tight)
        assert loose_ok and not tight_ok
        assert loose_res == tight_res and abs(loose_res - residual) < 1e-12
    assert check_tp(m) == (False, m._tp_residual)
    assert check_hermiticity_preserving(m) == (False, m._hermiticity[0])
    assert calls == [(4, 4)]  # measured once, judged under three tolerances


def test_check_cp():
    ok, min_eig = check_cp(identity_map(2))
    assert ok and abs(min_eig) < 1e-12
    ok, min_eig = check_cp(transpose_map(2))
    assert not ok and abs(min_eig + 1.0) < 1e-12
    ok, _ = check_cp(amplitude_damping_map(0.3))
    assert ok
    with pytest.raises(NonHermitianChoi):
        check_cp(LinearMap(np.triu(np.ones((4, 4), dtype=complex))))


def test_random_tp_map_is_ncp_but_for_some_draws_at_dim_2():
    for dim in (3, 4):
        for seed in range(50):
            assert not check_cp(random_tp_map(dim, np.random.default_rng(seed)))[0]
    # at dim 2 the perturbation can stay positive on the 2-dimensional kernel
    ok, min_eig = check_cp(random_tp_map(2, np.random.default_rng(16)))
    assert ok and min_eig > 0.01
    assert not check_cp(random_tp_map(2, np.random.default_rng(0)))[0]


def test_kraus_to_map_keeps_the_matrix_it_built(monkeypatch):
    import dynamap.maps

    built = []

    def recording(*args):
        built.append(weighted_choi(*args))
        return built[-1]

    monkeypatch.setattr(dynamap.maps, "weighted_choi", recording)
    m = kraus_to_map(amplitude_damping_kraus(0.3))
    assert m.choi is built[0] and not m.choi.flags.writeable
    # a read-only view of a writable array is still copied
    source = np.eye(4, dtype=complex)
    view = source[:]
    view.flags.writeable = False
    held = LinearMap(view)
    source[0, 0] = 5.0
    assert held.choi[0, 0] == 1.0


def test_from_a_form_keeps_the_matrix_it_built(monkeypatch):
    import dynamap.maps

    a = a_form(amplitude_damping_map(0.3))
    reshuffle = dynamap.maps._reshuffle
    built = []

    def recording(m):
        built.append(reshuffle(m))
        return built[-1]

    monkeypatch.setattr(dynamap.maps, "_reshuffle", recording)
    m = from_a_form(a)
    assert m.choi is built[0] and not m.choi.flags.writeable
    assert a.flags.writeable and np.array_equal(a_form(m), a)
    # at N=1 the index permutation is the identity, and still a new array
    one = np.array([[2.0 + 1j]])
    assert not np.shares_memory(from_a_form(one).choi, one)


def test_amplitude_damping_choi_eigenvalues_oracle():
    # oracle: build the rank-2 Choi from the explicit Kraus pair and eigensolve
    gamma = 0.3
    m0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    m1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    choi = sum(np.outer(op.reshape(-1), op.reshape(-1).conj()) for op in (m0, m1))
    oracle = np.linalg.eigvalsh(choi)[::-1]
    assert np.allclose(choi_eigenvalues(amplitude_damping_map(gamma)), oracle, atol=1e-12)
    assert oracle[-1] >= -1e-12


def test_tp_maps_preserve_trace_on_random_states():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        m = random_tp_map(n, rng)
        for _ in range(10):
            rho = random_density_matrix(n, rng)
            assert abs(np.trace(apply_map(m, rho)) - np.trace(rho)) <= 1e-9


def _remix_degenerate(values, vectors, rng):
    """Replace each degenerate eigenspace basis with a random unitary remix."""
    values = np.asarray(values)
    vectors = vectors.copy()
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and abs(values[stop] - values[start]) < 1e-8:
            stop += 1
        k = stop - start
        if k > 1:
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            q, _ = np.linalg.qr(g)
            vectors[:, start:stop] = vectors[:, start:stop] @ q
        start = stop
    return vectors


def test_map_to_kraus_basis_invariance_under_degeneracy():
    rng = np.random.default_rng(8)
    for m in (transpose_map(2), depolarizing_map(1.0), random_tp_map(2, rng)):
        values, vectors = np.linalg.eigh(m.choi)
        remixed = _remix_degenerate(values, vectors, rng)
        rebuilt = np.zeros_like(m.choi)
        for lam, vec in zip(values, remixed.T):
            rebuilt += lam * np.outer(vec, vec.conj())
        m2 = LinearMap(rebuilt)
        pos1, neg1 = map_to_kraus(m)
        pos2, neg2 = map_to_kraus(m2)
        assert len(pos1) == len(pos2) and len(neg1) == len(neg2)
        for _ in range(10):
            rho = random_density_matrix(m.dim, rng)
            out1 = apply_kraus(pos1, rho) - apply_kraus(neg1, rho)
            out2 = apply_kraus(pos2, rho) - apply_kraus(neg2, rho)
            assert np.linalg.norm(out1 - out2) <= 1e-9


def test_kraus_set_validation():
    with pytest.raises(DimensionMismatch):
        KrausSet([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        KrausSet([np.eye(2)], [-1.0])
    with pytest.raises(DimensionMismatch):
        KrausSet([np.eye(2)], [1.0, 2.0])


@pytest.mark.parametrize("operators", [
    [np.eye(2), np.eye(3)],
    [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]],
    [[[1, 0], [0]]],
    [np.ones((2, 3))],
    np.eye(2),
    np.zeros((2, 2, 2, 2)),
], ids=["sizes", "nested_sizes", "ragged_row", "non_square", "one_matrix", "four_axes"])
def test_kraus_set_rejects_ragged_or_non_stack_input(operators):
    with pytest.raises(DimensionMismatch):
        KrausSet(operators)


def test_kraus_set_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite"):
        KrausSet([[[np.nan, 0], [0, 1]]])


_TWO_OPERATOR_DOCUMENT = b'{"kind": "kraus", "dim": 1, "data": [[[[2, 0]]], [[[0, 1]]]]}'


@pytest.mark.parametrize("make", [
    lambda: KrausSet([np.eye(2), np.diag([1, 0])]),
    lambda: KrausSet([[[1, 0], [0, 1]]]),
    lambda: KrausSet(np.zeros((0, 3, 3))),
    lambda: KrausSet([]),
    lambda: amplitude_damping_kraus(0.3),
    lambda: random_cptp_kraus(3, 4, np.random.default_rng(1)),
    lambda: map_to_kraus(transpose_map(3))[1],
    lambda: parse_document(_TWO_OPERATOR_DOCUMENT).linear_map.kraus,
], ids=["arrays", "nested_lists", "empty_stack", "empty_list", "channel", "generator",
        "sign_split", "document"])
def test_kraus_set_operators_are_one_complex_stack(make):
    kraus = make()
    ops = kraus.operators
    assert isinstance(ops, np.ndarray) and ops.dtype == complex and ops.ndim == 3
    assert ops.shape == (len(kraus), kraus.dim, kraus.dim)
    assert kraus.folded_operators().shape == ops.shape


def test_kraus_set_owns_its_stack():
    ops = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    kraus = KrausSet(ops)
    ops[0, 0, 0] = 5.0
    assert kraus.operators[0, 0, 0] == 1.0


def test_kraus_set_keeps_only_a_frozen_stack():
    # a read-only view of a writable array is still copied
    source = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    view = source[:]
    view.flags.writeable = False
    held = KrausSet(view)
    source[0, 0, 0] = 5.0
    assert held.operators[0, 0, 0] == 1.0
    # a read-only array that no writable array views is kept by reference
    frozen = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    frozen.flags.writeable = False
    assert KrausSet(frozen).operators is frozen
    assert KrausSet(frozen[1:]).operators.base is frozen


@pytest.mark.parametrize("m", [transpose_map(3), random_tp_map(3, np.random.default_rng(5))],
                         ids=["transpose", "random_tp"])
def test_sign_split_returns_stacks_whose_signed_sum_is_the_map(m):
    pos, neg = sign_split(*m.eigensystem)
    for kraus in (pos, neg):
        assert isinstance(kraus.operators, np.ndarray)
        assert kraus.operators.shape == (len(kraus), 3, 3) and kraus.dim == 3
    both = np.concatenate([pos.operators, neg.operators])
    signed = np.concatenate([pos.weights, -neg.weights])
    assert np.abs(weighted_choi(both, signed) - m.choi).max() <= 1e-12


def test_sign_split_requires_descending_eigenvalues():
    values, vectors = np.linalg.eigh(transpose_map(2).choi)  # ascending
    with pytest.raises(ValueError, match="descending"):
        sign_split(values, vectors)
    pos, neg = sign_split(values[::-1], vectors[:, ::-1])
    assert (len(pos), len(neg)) == (3, 1)


def test_sign_split_reads_the_side_off_a_square_row_count():
    values, vectors = transpose_map(2).eigensystem
    with pytest.raises(DimensionMismatch, match="length 3 is not a perfect square"):
        sign_split(values[:3], vectors[:3, :3])


def test_sign_split_of_cp_map_has_empty_negative_stack():
    m = amplitude_damping_map(0.3)
    pos, neg = sign_split(*m.eigensystem)
    assert len(pos) == 2
    assert neg.operators.shape == (0, 2, 2) and neg.dim == 2 and neg.weights.shape == (0,)
    zero = weighted_choi(neg.operators, neg.weights)
    assert zero.shape == (4, 4) and not zero.any()
    assert not kraus_to_map(neg).choi.any()


def test_linear_map_choi_is_read_only():
    choi = identity_map(2).choi.copy()
    m = LinearMap(choi)
    ok, min_eig = check_cp(m)
    with pytest.raises(ValueError):
        m.choi[0, 0] = -5.0
    with pytest.raises(ValueError):
        m.choi4[0, 0, 0, 0] = -5.0
    # the caller's array keeps its flags and does not alias the stored copy
    assert choi.flags.writeable
    choi[0, 0] = -5.0
    assert m.choi[0, 0] == 1.0
    assert check_cp(m) == (ok, min_eig)


def _record_solves(monkeypatch, side):
    """The names of the ``eigh`` / ``eigvalsh`` calls on ``side x side``
    matrices from here on, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recording(a, *args, _solver=solver, _name=name, **kwargs):
            if np.shape(a)[-1] == side:
                calls.append(_name)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_choi_eigensystem_solved_once(monkeypatch):
    calls = _record_solves(monkeypatch, 9)
    # eigenvalues first: one eigvalsh serves them, the eigensystem is one eigh
    m = random_tp_map(3, np.random.default_rng(8))
    values = choi_eigenvalues(m)
    check_cp(m)
    positive, negative = map_to_kraus(m)
    cp_split(m)
    assert calls == ["eigvalsh", "eigh"]
    assert len(positive) + len(negative) == 9
    assert np.max(np.abs(values - m.eigensystem[0])) <= 1e-12
    assert choi_eigenvalues(m) is m.eigensystem[0]
    # eigensystem first: every later reader gets its values
    calls.clear()
    m = random_tp_map(3, np.random.default_rng(8))
    map_to_kraus(m)
    check_cp(m)
    cp_split(m)
    assert calls == ["eigh"]
    assert choi_eigenvalues(m) is m.eigensystem[0]


def _cptp_kraus(dim, n_ops, seed, weighted):
    kraus = random_cptp_kraus(dim, n_ops, np.random.default_rng(seed))
    if not weighted:
        return kraus
    weights = np.random.default_rng(seed + 1).uniform(0.01, 100.0, n_ops)
    return KrausSet(kraus.operators, weights)


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(lambda dim: st.builds(
    _cptp_kraus, st.just(dim), st.integers(1, dim * dim - 1),
    st.integers(0, 2**32 - 2), st.booleans())),
    # 1e-300 puts the cut at its rounding floor, where the dense solve's noise lies
    st.sampled_from([ToleranceConfig(), ToleranceConfig(zero_eig_rel=1e-300)]))
def test_gram_route_eigensystem_matches_dense_eigh(kraus, tol):
    m = kraus_to_map(kraus)
    values, vectors = m.eigensystem
    dense_values, dense_vectors = np.linalg.eigh(m.choi)
    dense_values, dense_vectors = dense_values[::-1], dense_vectors[:, ::-1]
    scale = dense_values[0]
    assert np.max(np.abs(values - dense_values)) <= 1e-12 * scale
    assert np.all(values[vectors.shape[1]:] == 0.0)  # exact zeros, no vectors
    rank, negatives = sign_counts(values, tol)
    assert (rank, negatives) == sign_counts(dense_values, tol) and negatives == 0
    kept, dense_kept = vectors[:, :rank], dense_vectors[:, :rank]
    assert np.linalg.norm(kept @ kept.conj().T - dense_kept @ dense_kept.conj().T) <= 1e-9
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(vectors.shape[1])) <= 1e-10
    positive, negative = sign_split(values, vectors)
    assert len(negative) == 0
    rebuilt = weighted_choi(positive.operators, positive.weights)
    assert np.linalg.norm(rebuilt - m.choi) <= 1e-12 * np.linalg.norm(m.choi)


@pytest.mark.parametrize("second", ["repeated", "zero"])
def test_gram_route_rank_deficient_set_has_no_nan(second):
    op = random_cptp_kraus(3, 1, np.random.default_rng(4)).operators[0]
    kraus = KrausSet([op, op if second == "repeated" else np.zeros((3, 3))])
    m = kraus_to_map(kraus)
    values, vectors = m.eigensystem
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))
    assert np.count_nonzero(values) == 1 and vectors.shape == (9, 1)
    positive, negative = map_to_kraus(m)
    assert (len(positive), len(negative)) == (1, 0)
    assert check_cp(m) == (True, 0.0)
    empty = kraus_to_map(KrausSet(np.zeros((0, 3, 3)))).eigensystem
    assert not empty[0].any() and empty[1].shape == (9, 0)


@pytest.mark.parametrize("case", ["complete_set", "signed"])
def test_dense_route_for_full_or_signed_kraus_sets(monkeypatch, case):
    calls = _record_solves(monkeypatch, 4)
    rng = np.random.default_rng(12)
    if case == "complete_set":  # k = N^2: the Gram matrix would be no smaller
        m = kraus_to_map(random_cptp_kraus(2, 4, rng))
    else:  # a signed sum is no Kraus set
        kraus = random_cptp_kraus(2, 2, rng)
        m = LinearMap(weighted_choi(kraus.operators, [1.0, -1.0] * kraus.weights))
    values, vectors = m.eigensystem
    assert calls == ["eigh"] and vectors.shape == (4, 4)
    assert np.linalg.norm((vectors * values) @ vectors.conj().T - m.choi) <= 1e-12


@pytest.mark.parametrize("n_ops", [2, 4, 5])
def test_kraus_to_map_keeps_the_kraus_set_it_was_given(monkeypatch, n_ops):
    # N = 2: fewer than N^2 operators take the Gram route, N^2 or more the dense one
    calls = _record_solves(monkeypatch, 4)
    kraus = random_cptp_kraus(2, n_ops, np.random.default_rng(13))
    m = kraus_to_map(kraus)
    assert m.kraus is kraus
    m.eigenvalues, m.eigensystem
    assert calls == ([] if n_ops < 4 else ["eigvalsh", "eigh"])
    assert m.kraus is kraus


def test_sign_split_rejects_nonzero_eigenvalue_without_vector():
    values, vectors = kraus_to_map(amplitude_damping_kraus(0.3)).eigensystem
    assert vectors.shape == (4, 2)
    for bad in ([2.0, 1.0, 0.0, -1.0], [2.0, 1.0, 1.0, 0.0], [2.0, -1.0, -1.0, -1.0]):
        with pytest.raises(DimensionMismatch, match="weights must match"):
            sign_split(np.array(bad), vectors)


def test_linear_map_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        LinearMap(np.zeros((3, 3)))  # side not a perfect square
    with pytest.raises(DimensionMismatch):
        LinearMap(np.zeros((4, 2)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: apply_map(identity_map(2), np.ones(4)),
     DimensionMismatch, "expected a matrix, got array of ndim 1"),
    (lambda: LinearMap(np.zeros((2, 2, 2))),
     DimensionMismatch, "expected a matrix, got array of ndim 3"),
    (lambda: linalg.partial_trace(np.zeros((2, 4)), (2, 2), "a"),
     DimensionMismatch, "expected a square matrix, got shape (2, 4)"),
    (lambda: linalg.partial_trace(np.eye(4), (2, 2), "c"),
     ValueError, "which must be 'a' or 'b', got 'c'"),
    (lambda: from_a_form(np.eye(3)),
     DimensionMismatch, "expected a square matrix with square side, got (3, 3)"),
    (lambda: apply_sector_map(cp_split(identity_map(2)), ExtendedState(np.eye(3), None)),
     DimensionMismatch, "state dim 3 does not match split dim 2"),
    (lambda: dimension_report(CPSplit(identity_map(2), kraus_to_map(KrausSet(np.ones((5, 2, 2)))),
                                      kraus_to_map(KrausSet(np.zeros((0, 2, 2)))), DEFAULT_TOL)),
     ValueError, "canonical operator count exceeds the dimension bound"),
    (lambda: depolarizing_map(1.5), ValueError, "p must lie in [0, 1], got 1.5"),
    (lambda: amplitude_damping_kraus(-0.1), ValueError, "gamma must lie in [0, 1], got -0.1"),
    (lambda: matrix_unit(2, 2, 0), DimensionMismatch, "indices (2, 0) out of range for dim 2"),
    (lambda: linalg.as_complex_stack(np.array([[[1.0, complex(0.0, np.nan)], [0.0, 1.0]]])),
     ValueError, "matrix contains non-finite entries"),
], ids=["apply_map_vector", "linear_map_3d", "partial_trace_non_square",
        "partial_trace_which", "from_a_form_side", "sector_map_dim", "dimension_bound",
        "depolarizing_p", "damping_gamma", "matrix_unit_index", "imaginary_part_non_finite"])
def test_input_checks_raise_their_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_linear_map_repr_names_its_dim():
    assert repr(identity_map(2)) == "LinearMap(dim=2)"


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_apply_map_on_a_stack_equals_per_state(n):
    rng = np.random.default_rng(40 + n)
    m = random_tp_map(n, rng)
    states = np.array([random_density_matrix(n, rng) for _ in range(5)])
    stacked = apply_map(m, states)
    assert np.array_equal(stacked, [apply_map(m, rho) for rho in states])
    assert np.array_equal(apply_map(m, states.reshape(5, 1, n, n))[:, 0], stacked)
    assert apply_map(m, states[:0]).shape == (0, n, n)
    with pytest.raises(DimensionMismatch):
        apply_map(m, states[:, :, :-1])
    with pytest.raises(ValueError):
        apply_map(m, np.full((2, n, n), np.nan))
