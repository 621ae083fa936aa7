import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynamap.channels import (
    SIGMA_Y,
    amplitude_damping_map,
    depolarizing_map,
    identity_map,
    matrix_unit,
    ncp_family,
    rotation_unitary,
    transpose_map,
    unitary_map,
)
from dynamap.cpsplit import cp_split, split_from_eigensystem
from dynamap.errors import SingularJ
from dynamap.extension import (
    ExtendedState,
    apply_sector_map,
    build_extension,
    dimension_report,
    reconstruct,
    sector_choi_report,
)
from dynamap.generators import (
    random_cptp_kraus,
    random_density_matrix,
    random_tp_map,
    random_tp_map_with_kernel,
)
from dynamap.linalg import DEFAULT_TOL, ToleranceConfig, frob, hermiticity_residual
from dynamap.maps import LinearMap, apply_map, check_cp, from_a_form, kraus_to_map


def test_build_extension_identity_split():
    s = cp_split(identity_map(2))
    rng = np.random.default_rng(2)
    rho = random_density_matrix(2, rng)
    ext = build_extension(s, rho)
    assert ext.minus_block is None
    assert np.allclose(ext.plus_block, rho)
    assert np.allclose(ext.block_sum(), rho)


def test_build_extension_transpose_blocks():
    s = cp_split(transpose_map(2))
    ext = build_extension(s, np.eye(2) / 2)
    assert np.allclose(ext.plus_block, 0.75 * np.eye(2), atol=1e-12)
    assert np.allclose(ext.minus_block, -0.25 * np.eye(2), atol=1e-12)

    ket0 = matrix_unit(2, 0, 0)
    ext = build_extension(s, ket0)
    assert np.allclose(ext.plus_block, 1.5 * ket0, atol=1e-12)
    assert np.allclose(ext.minus_block, -0.5 * ket0, atol=1e-12)
    assert np.allclose(ext.block_sum(), ket0, atol=1e-12)


def test_extension_condition_literal():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        s = cp_split(random_tp_map(n, rng))
        for _ in range(50):
            rho = random_density_matrix(n, rng)
            ext = build_extension(s, rho, "literal")
            assert np.linalg.norm(ext.block_sum() - rho) <= 1e-9


def test_extension_condition_symmetric_variant_differs():
    # scalar functionals (transpose) keep the symmetric variant exact ...
    s = cp_split(transpose_map(2))
    ket0 = matrix_unit(2, 0, 0)
    ext = build_extension(s, ket0, "symmetric")
    assert np.linalg.norm(ext.block_sum() - ket0) <= 1e-12
    # ... but generic functionals break the trace-back identity
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        s = cp_split(random_tp_map(3, rng))
        rho = random_density_matrix(3, rng)
        ext = build_extension(s, rho, "symmetric")
        worst = max(worst, np.linalg.norm(ext.block_sum() - rho))
    assert worst > 1e-3


def test_apply_sector_map_identity_fixed_point():
    s = cp_split(identity_map(2))
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng)
    out = apply_sector_map(s, build_extension(s, rho))
    assert np.allclose(out.plus_block, rho, atol=1e-12)
    assert out.minus_block is None


def test_apply_sector_map_transpose_blocks():
    s = cp_split(transpose_map(2))
    ket0 = matrix_unit(2, 0, 0)
    out = apply_sector_map(s, build_extension(s, ket0))
    assert np.allclose(out.plus_block, apply_map(s.positive_part, ket0), atol=1e-12)
    assert np.allclose(out.minus_block, -apply_map(s.negative_part, ket0), atol=1e-12)


def test_apply_sector_map_zero_and_linearity():
    rng = np.random.default_rng(6)
    s = cp_split(random_tp_map(3, rng))
    zero = ExtendedState(np.zeros((3, 3), complex), np.zeros((3, 3), complex))
    out = apply_sector_map(s, zero)
    assert np.allclose(out.plus_block, 0.0) and np.allclose(out.minus_block, 0.0)

    r1, r2 = (random_density_matrix(3, rng) for _ in range(2))
    for variant in ("literal", "symmetric"):
        e1 = build_extension(s, r1, variant)
        e2 = build_extension(s, r2, variant)
        mixed = build_extension(s, 0.3 * r1 + 0.7 * r2, variant)
        assert np.linalg.norm(
            mixed.plus_block - 0.3 * e1.plus_block - 0.7 * e2.plus_block
        ) <= 1e-10
        o1, o2 = apply_sector_map(s, e1, variant), apply_sector_map(s, e2, variant)
        om = apply_sector_map(s, mixed, variant)
        assert np.linalg.norm(
            om.plus_block - 0.3 * o1.plus_block - 0.7 * o2.plus_block
        ) <= 1e-10
        assert np.linalg.norm(
            om.minus_block - 0.3 * o1.minus_block - 0.7 * o2.minus_block
        ) <= 1e-10


def test_reconstruct_identity_and_transpose():
    rng = np.random.default_rng(7)
    s = cp_split(identity_map(2))
    rho = random_density_matrix(2, rng)
    result, residual = reconstruct(s, rho)
    assert residual <= 1e-12
    assert np.allclose(result, rho, atol=1e-12)

    s = cp_split(transpose_map(2))
    rho = (np.eye(2) + 0.6 * SIGMA_Y) / 2
    result, residual = reconstruct(s, rho)
    assert residual <= 1e-9
    assert np.allclose(result, (np.eye(2) - 0.6 * SIGMA_Y) / 2, atol=1e-12)


def test_reconstruct_random_maps_both_variants():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        s = cp_split(random_tp_map(n, rng))
        for variant in ("literal", "symmetric"):
            for _ in range(10):
                _, residual = reconstruct(s, random_density_matrix(n, rng), variant)
                assert residual <= 1e-9


def test_cp_input_collapses_to_direct_application():
    rng = np.random.default_rng(9)
    for m in (amplitude_damping_map(0.3), unitary_map(rotation_unitary(0.4))):
        assert check_cp(m)[0]
        s = cp_split(m)
        assert not s.has_negative_part
        rho = random_density_matrix(2, rng)
        ext = build_extension(s, rho)
        assert ext.minus_block is None
        result, residual = reconstruct(s, rho)
        assert residual <= 1e-12
        assert np.allclose(result, apply_map(m, rho), atol=1e-12)


def test_sector_choi_report_identity():
    rep = sector_choi_report(cp_split(identity_map(2)), "literal")
    assert rep.full_dim == 2  # no minus sector
    assert rep.plus_hermiticity_residual <= 1e-12
    assert rep.plus_min_eig >= -1e-12
    assert rep.minus_min_eig is None


def test_sector_choi_report_cp_input_reduces_to_map():
    m = amplitude_damping_map(0.3)
    s = cp_split(m)
    rep = sector_choi_report(s, "literal")
    assert rep.plus_min_eig >= -1e-10
    # plus functional is the identity, so the plus sector map is the map itself
    from dynamap.extension import _sector_choi, _sector_factors

    (left, right), _ = _sector_factors(s, "literal", inverse=True)
    assert np.allclose(_sector_choi(s.positive_part, left, right), m.choi, atol=1e-9)


def test_sector_choi_report_transpose_scalar_functionals_are_cp():
    s = cp_split(transpose_map(2))
    for variant in ("literal", "symmetric"):
        rep = sector_choi_report(s, variant)
        assert rep.full_dim == 4
        assert rep.full_hermiticity_residual <= 1e-11
        assert rep.full_min_eig >= -1e-10
        assert rep.plus_min_eig >= -1e-10
        assert rep.minus_min_eig >= -1e-10


def test_sector_choi_report_generic_map():
    rng = np.random.default_rng(10)
    s = cp_split(random_tp_map(3, rng))
    lit = sector_choi_report(s, "literal")
    sym = sector_choi_report(s, "symmetric")
    # the literal plus sector composes with a one-sided inverse and is not
    # Hermiticity preserving for non-scalar functionals
    assert lit.plus_hermiticity_residual > 1e-6
    assert lit.plus_min_eig is None
    # the symmetric construction is CP in every sector
    assert sym.full_hermiticity_residual <= 1e-10
    assert sym.full_min_eig >= -1e-10


def _padded_direct_sum_stats(split, variant, tol=DEFAULT_TOL):
    """Reference: build the extended-space Choi matrix explicitly, sector
    Choi matrices on the diagonal blocks padded with zeros, and measure it."""
    n = split.dim
    a_forms = _kron_a_forms(split, variant)
    sectors = a_forms if split.has_negative_part else a_forms[:1]
    full = len(sectors) * n
    choi4 = np.zeros((full,) * 4, dtype=complex)
    for a, a_sector in enumerate(sectors):
        block = slice(a * n, (a + 1) * n)
        choi4[block, block, block, block] = from_a_form(a_sector).choi4
    choi = choi4.reshape(full * full, full * full)
    residual = hermiticity_residual(choi)
    hermitian = residual <= tol.residual_abs * max(1.0, frob(choi))
    min_eig = float(np.linalg.eigvalsh(choi)[0]) if hermitian else None
    return full, residual, min_eig


def test_sector_choi_report_full_fields_match_padded_direct_sum():
    rng = np.random.default_rng(13)
    seen_none = seen_value = 0
    for m in (random_tp_map(3, rng), random_tp_map_with_kernel(3, rng), transpose_map(3),
              amplitude_damping_map(0.3)):
        s = cp_split(m)
        for variant in ("literal", "symmetric"):
            rep = sector_choi_report(s, variant)
            full_dim, residual, min_eig = _padded_direct_sum_stats(s, variant)
            assert rep.full_dim == full_dim
            assert abs(rep.full_hermiticity_residual - residual) <= 1e-12
            if min_eig is None:
                seen_none += 1
                assert rep.full_min_eig is None
            else:
                seen_value += 1
                assert abs(rep.full_min_eig - min_eig) <= 1e-12
    assert seen_none and seen_value


def test_dimension_report_values():
    rep = dimension_report(cp_split(identity_map(2)))
    assert (rep.extension_dim, rep.dilation_dim, rep.n_squared_bound) == (2, 2, 4)

    rep = dimension_report(cp_split(transpose_map(2)))
    assert (rep.extension_dim, rep.dilation_dim, rep.n_squared_bound) == (4, 8, 4)

    rng = np.random.default_rng(11)
    s = cp_split(random_tp_map(2, rng))
    rep = dimension_report(s)
    assert s.n_positive + s.n_negative == 4  # generic Choi has full rank
    assert rep.extension_dim == 4
    assert rep.dilation_dim == 2 * s.n_positive + 2 * s.n_negative


def test_singular_plus_functional_raises():
    m = LinearMap(np.zeros((4, 4), dtype=complex))
    vec = np.zeros(4)
    vec[0] = 1.0
    s = split_from_eigensystem(m, np.array([1.0]), vec.reshape(4, 1))
    with pytest.raises(SingularJ):
        build_extension(s, np.eye(2) / 2, "symmetric")
    with pytest.raises(SingularJ):
        apply_sector_map(s, ExtendedState(np.eye(2, dtype=complex) / 2, None))


def test_ncp_family_zoo_reconstructs():
    rng = np.random.default_rng(12)
    for p in (0.5, 1.0):
        s = cp_split(ncp_family(p))
        for variant in ("literal", "symmetric"):
            for _ in range(10):
                _, residual = reconstruct(s, random_density_matrix(2, rng), variant)
                assert residual <= 1e-9


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
def test_reconstruct_on_a_stack_returns_the_largest_residual(variant):
    rng = np.random.default_rng(61)
    for s in (cp_split(random_tp_map(3, rng)), cp_split(random_tp_map_with_kernel(3, rng))):
        states = np.array([random_density_matrix(3, rng) for _ in range(6)])
        singles = [reconstruct(s, rho, variant) for rho in states]
        result, residual = reconstruct(s, states, variant)
        assert residual == max(r for _, r in singles)
        assert np.array_equal(result, [out for out, _ in singles])
        assert reconstruct(s, states[:0], variant)[1] == 0.0


def test_unknown_variant_is_rejected():
    s = cp_split(random_tp_map(2, np.random.default_rng(62)))
    state = build_extension(s, np.eye(2) / 2)
    with pytest.raises(ValueError, match="unknown variant"):
        build_extension(s, np.eye(2) / 2, "sandwich")
    with pytest.raises(ValueError, match="unknown variant"):
        apply_sector_map(s, state, "sandwich")
    with pytest.raises(ValueError, match="unknown variant"):
        sector_choi_report(s, "sandwich")


def test_sector_report_is_judged_under_the_split_tolerance():
    tight = ToleranceConfig(residual_abs=1e-300)
    s = cp_split(transpose_map(3), tight)
    assert sector_choi_report(s, "literal").plus_min_eig is None
    # under the default tolerance a number: the PSD plus sector's zero eigenvalue
    plus_min = sector_choi_report(cp_split(transpose_map(3)), "literal").plus_min_eig
    assert isinstance(plus_min, float) and abs(plus_min) <= 4 * np.finfo(float).eps
    # a third argument is accepted only as the split's own tolerance
    assert sector_choi_report(s, "literal", tight) == sector_choi_report(s, "literal")
    with pytest.raises(ValueError, match="tolerance that made it"):
        sector_choi_report(s, "literal", DEFAULT_TOL)


def _kron_a_forms(split, variant):
    """Reference sector A-forms: the part's A-form times ``kron(left, right.T)``."""
    from dynamap.extension import _sector_factors
    from dynamap.maps import a_form

    factors = _sector_factors(split, variant, inverse=True)
    parts = (split.positive_part, split.negative_part)
    return [a_form(part) @ np.kron(left, right.T) for part, (left, right) in zip(parts, factors)]


def _sector_maps():
    rng = np.random.default_rng(14)
    return [random_tp_map(3, rng), random_tp_map_with_kernel(3, rng), transpose_map(3),
            amplitude_damping_map(0.3), kraus_to_map(random_cptp_kraus(3, 9, rng))]


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
def test_sandwich_a_forms_match_the_kron_product(variant):
    from dynamap.extension import _sector_choi, _sector_factors

    for m in _sector_maps():
        s = cp_split(m)
        factors = _sector_factors(s, variant, inverse=True)
        parts = (s.positive_part, s.negative_part)
        for part, (left, right), want in zip(parts, factors, _kron_a_forms(s, variant)):
            got = _sector_choi(part, left, right)
            assert np.abs(got - from_a_form(want).choi).max() <= 1e-14
            if variant == "literal":  # the product with the identity is exact
                n = part.dim
                single = np.empty((n, n, n, n), dtype=complex)
                single.transpose(0, 2, 1, 3)[...] = left.T @ part.choi4.transpose(0, 2, 1, 3)
                assert np.array_equal(got, single.reshape(n * n, n * n))


_DIMS = st.integers(2, 5)
_RNGS = st.integers(0, 2**32 - 1).map(np.random.default_rng)


@given(st.one_of(
    st.tuples(st.builds(random_tp_map, _DIMS, _RNGS), st.just(False)),
    st.tuples(st.builds(random_tp_map_with_kernel, _DIMS, _RNGS), st.just(False)),
    st.tuples(st.builds(depolarizing_map, st.floats(0.05, 1.0), _DIMS), st.just(True)),
))
def test_symmetric_sector_minima_match_the_sector_choi_spectra(drawn):
    m, full_rank = drawn
    s = cp_split(m)
    rep = sector_choi_report(s, "symmetric")
    reported = (rep.plus_min_eig, rep.minus_min_eig)
    kraus_sets = (s.positive_part.kraus, s.negative_part.kraus)
    if full_rank:  # a depolarizing map: one CP sector at full Kraus rank
        assert len(kraus_sets[0]) == s.dim ** 2 and not len(kraus_sets[1])
    for a, kraus, got in zip(_kron_a_forms(s, "symmetric"), kraus_sets, reported):
        if not len(kraus):
            assert got is None
            continue
        want = np.linalg.eigvalsh(from_a_form(a).choi)[0]
        assert abs(got - want) <= 1e-12
        if len(kraus) < s.dim ** 2:
            assert got == 0.0  # the zeros of a rank-deficient Choi matrix, not solved
        else:  # a solved eigenvalue, not the rank-deficient zero
            assert got > (1e-3 if full_rank else 0.0)


class _Solved(Exception):
    """An eigensolver was called."""


def _refuse(a, *args, **kwargs):
    raise _Solved(np.shape(a))


def test_symmetric_sectors_below_full_rank_run_no_eigensolver(monkeypatch):
    from dynamap.extension import _sector_factors

    rng = np.random.default_rng(15)
    rank_deficient = [cp_split(random_tp_map(16, rng)),
                      cp_split(random_tp_map_with_kernel(16, rng))]
    full_rank = cp_split(kraus_to_map(random_cptp_kraus(3, 9, rng)))
    literal = cp_split(transpose_map(3))  # scalar functionals: Hermitian literal sectors
    for s in rank_deficient + [full_rank]:
        _sector_factors(s, "symmetric", inverse=True)  # solve and cache the N x N roots first
    _sector_factors(literal, "literal", inverse=True)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    for s in rank_deficient:
        assert s.has_negative_part and len(s.positive_part.kraus) < s.dim ** 2
        rep = sector_choi_report(s, "symmetric")
        assert rep.plus_min_eig == rep.minus_min_eig == rep.full_min_eig == 0.0
    assert len(full_rank.positive_part.kraus) == 9
    with pytest.raises(_Solved, match=r"\(9, 9\)"):
        sector_choi_report(full_rank, "symmetric")
    assert literal.has_negative_part
    with pytest.raises(_Solved, match=r"\(9, 9\)"):
        sector_choi_report(literal, "literal")


def test_sector_minima_are_solved_as_eigenvalues_only(monkeypatch):
    from dynamap.extension import _sector_factors

    rng = np.random.default_rng(16)
    literal = cp_split(transpose_map(3))  # scalar functionals: Hermitian literal sectors
    full_rank = cp_split(kraus_to_map(random_cptp_kraus(3, 9, rng)))
    cases = [(literal, "literal"), (full_rank, "symmetric")]
    want = []
    for s, variant in cases:
        _sector_factors(s, variant, inverse=True)  # solve and cache the N x N roots first
        parts = (s.positive_part, s.negative_part)
        sectors = [a for a, part in zip(_kron_a_forms(s, variant), parts) if len(part.kraus)]
        want.append([np.linalg.eigvalsh(from_a_form(a).choi)[0] for a in sectors])
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    for (s, variant), minima in zip(cases, want):
        rep = sector_choi_report(s, variant)
        got = [rep.plus_min_eig, rep.minus_min_eig][: len(minima)]
        assert None not in got
        assert np.abs(np.subtract(got, minima)).max() <= 1e-12
    assert len(want[0]) == 2 and len(full_rank.positive_part.kraus) == 9


@pytest.mark.parametrize("variant", ["literal", "symmetric"])
def test_sector_choi_report_holds_one_sector_at_a_time(variant):
    unit = 16 ** 4 * 16  # one complex N^2 x N^2 matrix at N=16
    rng = np.random.default_rng(15)
    for m in (random_tp_map(16, rng), random_tp_map_with_kernel(16, rng)):
        s = cp_split(m)
        assert s.has_negative_part
        tracemalloc.start()
        try:
            sector_choi_report(s, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one sector's Choi matrix and the one temporary of its Hermiticity
        # residual; both sectors' matrices at once peaked at 5
        assert peak < 3.5 * unit
