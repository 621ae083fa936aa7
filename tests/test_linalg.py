import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynamap.cpsplit import split_from_eigensystem
from dynamap.errors import DimensionMismatch, NonHermitianChoi, NotUnitary
from dynamap.generators import random_tp_map, random_tp_map_with_kernel
from dynamap.linalg import (
    ToleranceConfig,
    frob,
    hermiticity_residual,
    max_frob,
    partial_trace,
    sign_counts,
    spectral_power,
    zero_cut,
)
from dynamap.maps import LinearMap, choi_eigenvalues


def _split(kernel, dim, seed, scale):
    make = random_tp_map_with_kernel if kernel else random_tp_map
    m = LinearMap(scale * make(dim, np.random.default_rng(seed)).choi)
    return split_from_eigensystem(m, *m.eigensystem)  # not TP unless scale is 1


# generic and exact-kernel TP maps, and rescaled copies of each
_MAP_ARGS = dict(
    kernel=st.booleans(),
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-6, 1e6]),
)
_SPLITS = st.builds(_split, **_MAP_ARGS)


def _close(a, b, rel=1e-12):
    return frob(a - b) <= rel * max(frob(a), frob(b))


def _kept_power(m, power):
    """``spectral_power`` over the eigenpairs that ``zero_cut`` keeps, as
    ``CPSplit`` takes the roots and the pseudo-inverse of a functional."""
    values, vectors = np.linalg.eigh(m)
    keep = values > zero_cut(values)
    return spectral_power(values[keep], vectors[:, keep], power)


def _swap_matrix():
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            s[i * 2 + j, j * 2 + i] = 1.0
    return s


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(zero_eig_rel=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(residual_abs=1.5)
    cfg = ToleranceConfig()
    assert cfg.zero_eig_rel == 1e-10
    assert cfg.residual_abs == 1e-9


_AT = 1e-9  # the default residual_abs
_ABOVE = float(np.nextafter(_AT, 1.0))


@pytest.mark.parametrize("residual,scale,passes", [
    (0.0, 1.0, True),
    (_AT, 1.0, True),  # exactly at the bound
    (_ABOVE, 1.0, False),
    (_AT, 0.25, True),  # a scale below 1 does not tighten the bound
    (_ABOVE, 0.25, False),
    (2 * _AT, 2.0, True),  # a scale above 1 widens it
    (float(np.nextafter(2 * _AT, 1.0)), 2.0, False),
    (1e300, np.inf, True),  # any finite residual is inside an infinite bound
    (np.nan, 1.0, False),
    (np.nan, np.inf, False),
    (np.inf, 1.0, False),
    (np.inf, np.inf, False),  # ``inf <= 1e-9 * inf`` would be true
    (-np.inf, 1.0, False),
])
def test_residual_rule_at_its_edges(residual, scale, passes):
    tol = ToleranceConfig()
    assert tol.passes(residual, scale) is passes
    if scale == 1.0:
        assert tol.passes(residual) is passes  # the default scale
    if passes:
        tol.require(NotUnitary, "unitarity", residual, scale)
    else:
        with pytest.raises(NotUnitary) as info:
            tol.require(NotUnitary, "unitarity", residual, scale)
        assert str(info.value) == f"unitarity residual {residual:.3e} exceeds tolerance"


_EPS = float(np.finfo(float).eps)


# the default zero_eig_rel binds on 4 values; at 1e-300 the floor 64·eps binds on 64
@pytest.mark.parametrize("tol,size,rel", [
    (ToleranceConfig(), 4, 1e-10),
    (ToleranceConfig(zero_eig_rel=1e-300), 64, 64 * _EPS),
], ids=["zero_eig_rel", "len_eps_floor"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("factor,counted", [(1.0, False), (1 + 1e-6, True), (1 - 1e-6, False)])
def test_sign_counts_at_the_cut_edge(tol, size, rel, scale, factor, counted):
    cut = rel * scale
    values = np.zeros(size)
    values[:3] = scale, cut * factor, -cut * factor
    assert zero_cut(values, tol) == cut
    # a value exactly at +-cut is zero; only one past it has a sign
    assert sign_counts(values, tol) == (1 + counted, int(counted))
    assert sign_counts(-values, tol) == (int(counted), 1 + counted)


def test_sign_counts_of_an_empty_or_zero_spectrum():
    assert zero_cut([]) == 0.0 and sign_counts([]) == (0, 0)
    assert sign_counts(np.zeros(3)) == (0, 0)


# Hermitian eigendecomposition: the cached ``LinearMap.eigensystem``


def test_hermitian_eig_identity():
    values, vectors = LinearMap(np.eye(4)).eigensystem
    assert np.allclose(values, 1.0)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(4))


def test_hermitian_eig_diagonal():
    values, vectors = LinearMap(np.diag([3.0, -1.0, 0.5, 2.0])).eigensystem
    assert np.allclose(values, [3.0, 2.0, 0.5, -1.0])
    assert np.allclose(np.abs(vectors), np.eye(4)[:, [0, 3, 2, 1]])


def test_hermitian_eig_swap():
    # independent oracle: eigenvalues of the explicit swap matrix
    values, vectors = LinearMap(_swap_matrix()).eigensystem
    assert np.allclose(values, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    recon = (vectors * values) @ vectors.conj().T
    assert np.linalg.norm(recon - _swap_matrix()) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    # the eigensystem reads one triangle; its public accessor checks first
    with pytest.raises(NonHermitianChoi):
        choi_eigenvalues(LinearMap(np.triu(np.ones((4, 4)))))
    with pytest.raises(DimensionMismatch):
        LinearMap(np.zeros((4, 3)))


@settings(max_examples=40)
@given(_SPLITS)
def test_hermitian_eig_reconstruction_random(split):
    m = split.source
    values, vectors = m.eigensystem
    assert np.all(np.diff(values) <= 0.0)  # descending
    assert _close((vectors * values) @ vectors.conj().T, m.choi)
    assert frob(vectors.conj().T @ vectors - np.eye(len(values))) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    sigma = np.diag([0.25, 0.75]).astype(complex) * 2.0  # trace 2
    joint = np.kron(rho, sigma)
    assert np.allclose(partial_trace(joint, (2, 2), "b"), rho * np.trace(sigma))
    assert np.allclose(partial_trace(joint, (2, 2), "a"), sigma * np.trace(rho))


def test_partial_trace_bell_projector():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(proj, (2, 2), "a"), np.eye(2) / 2)
    assert np.allclose(partial_trace(proj, (2, 2), "b"), np.eye(2) / 2)


def test_partial_trace_block_sum():
    rng = np.random.default_rng(5)
    n = 3
    b_plus = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b_minus = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    blockdiag = np.kron(e00, b_plus) + np.kron(e11, b_minus)
    assert np.allclose(partial_trace(blockdiag, (2, n), "a"), b_plus + b_minus)


def test_partial_trace_preserves_trace_and_linearity():
    rng = np.random.default_rng(11)
    for d_a, d_b in [(2, 2), (2, 3), (3, 2)]:
        m1 = rng.standard_normal((d_a * d_b,) * 2) + 1j * rng.standard_normal((d_a * d_b,) * 2)
        m2 = rng.standard_normal((d_a * d_b,) * 2) + 1j * rng.standard_normal((d_a * d_b,) * 2)
        for which in ("a", "b"):
            t1 = partial_trace(m1, (d_a, d_b), which)
            t2 = partial_trace(m2, (d_a, d_b), which)
            assert abs(np.trace(t1) - np.trace(m1)) < 1e-12
            combined = partial_trace(0.3 * m1 + 2.0j * m2, (d_a, d_b), which)
            assert np.allclose(combined, 0.3 * t1 + 2.0j * t2)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6), (2, 2), "a")


def test_kron_cases():
    # np.kron puts its first factor on the slow index, the one partial_trace calls "a"
    assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(
        np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    assert np.allclose(np.kron(sx, sx) @ ket00, [0, 0, 0, 1])
    a, b = np.diag([1.0, 2.0]), np.diag([1.0, 0.0, 0.0])
    assert np.allclose(partial_trace(np.kron(a, b), (2, 3), "a"), np.trace(a) * b)


# PSD roots and thresholded pseudo-inverses: ``spectral_power`` over the
# eigenpairs that ``zero_cut`` keeps, as ``CPSplit`` holds them


def test_psd_sqrt_cases():
    assert np.allclose(_kept_power(np.eye(2), 0.5), np.eye(2))
    assert np.allclose(_kept_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))
    assert np.allclose(_kept_power(1.5 * np.eye(2), 0.5), np.sqrt(1.5) * np.eye(2))


@settings(max_examples=40)
@given(_SPLITS)
def test_psd_sqrt_random_property(split):
    assume(split.has_negative_part)  # a zero minus functional checks nothing below
    plus, minus = split.plus_functional, split.minus_functional
    assert _close(split.plus_sqrt @ split.plus_sqrt, plus)
    assert _close(split.minus_sqrt @ split.minus_sqrt, minus)
    assert _close(split.plus_inv_sqrt @ split.plus_inv_sqrt, split.plus_inv)
    assert _close(split.minus_pinv_sqrt @ split.minus_pinv_sqrt, split.minus_pinv)
    for root in (split.plus_sqrt, split.minus_sqrt):
        assert _close(root, root.conj().T)
        assert np.linalg.eigvalsh(root)[0] >= -1e-12 * frob(root)


def test_thresholded_pinv_diagonal():
    # oracle: invert the diagonal entries directly
    assert np.allclose(_kept_power(np.diag([0.5, 0.5]), -1.0), np.diag([2.0, 2.0]))
    assert np.allclose(_kept_power(np.diag([0.5, 0.5]), 0.0), np.eye(2))


def test_thresholded_pinv_zero_matrix():
    assert np.allclose(_kept_power(np.zeros((3, 3)), -1.0), 0.0)
    assert np.allclose(_kept_power(np.zeros((3, 3)), 0.0), 0.0)


def test_thresholded_pinv_rank_one():
    assert np.allclose(_kept_power(np.diag([2.0, 0.0]), -1.0), np.diag([0.5, 0.0]))
    assert np.allclose(_kept_power(np.diag([2.0, 0.0]), 0.0), np.diag([1.0, 0.0]))


@settings(max_examples=40)
@given(**_MAP_ARGS)
def test_thresholded_pinv_random_properties(kernel, dim, seed, scale):
    split = _split(kernel, dim, seed, scale)
    assume(split.has_negative_part)  # the identities hold vacuously for a zero functional
    f, p, support = split.minus_functional, split.minus_pinv, split.support_projector
    # the Moore-Penrose identities
    assert _close(f @ p @ f, f)
    assert _close(p @ f @ p, p)
    assert _close(f @ p, (f @ p).conj().T)
    assert _close(p @ f, (p @ f).conj().T)
    assert frob(p @ f - support) <= 1e-12 * dim
    # an exact-kernel map leaves one direction out: the functional is singular
    assert split.kernel_basis.shape[1] == 1 or not kernel
    assert abs(np.trace(support) - (dim - split.kernel_basis.shape[1])) <= 1e-12
    assert frob(split.plus_inv @ split.plus_functional - np.eye(dim)) <= 1e-12


def test_frob_of_finite_entries_too_large_to_square_is_finite():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert frob(stack[1]) == float(np.linalg.norm(stack[1]))
    assert max_frob(stack) == max(frob(m) for m in stack)
    for big in (1e200 * stack, np.array([[1e300, -1e300j], [0.0, 1e300]])):
        with np.errstate(over="raise"):
            norms = [frob(m) for m in big.reshape(-1, *big.shape[-2:])]
            worst = max_frob(big)
        expected = [1e200 * frob(m) for m in stack] if big.ndim == 3 else [np.sqrt(3) * 1e300]
        assert np.allclose(norms, expected, rtol=1e-14)
        assert worst == max(norms)
    assert frob(np.array([[np.inf, 0.0]])) == np.inf
    assert max_frob(np.full((1, 2, 2), 1e308)) == np.inf


@pytest.mark.parametrize("entry", [1e-310, 1e-320, 5e-324, 1e-310j, -3e-315 + 4e-315j])
def test_frob_of_subnormal_entries_is_their_exact_magnitude(entry):
    with np.errstate(all="raise"):  # the rescale divides nothing
        assert frob(np.array([entry, 0.0])) == abs(entry)
        assert frob(np.array([[entry]], dtype=complex)) == abs(entry)
    stack = np.random.default_rng(2).standard_normal((3, 3))
    tiny = 2.0 ** -1040  # every entry subnormal, none zero
    assert frob(stack * tiny) == pytest.approx(frob(stack) * tiny, rel=1e-9)


def test_hermiticity_residual_is_the_plain_difference_with_one_temporary():
    rng = np.random.default_rng(11)
    side = 256  # N=16
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    for matrix in (m, m + m.conj().T, np.zeros((side, side), dtype=complex)):
        before = matrix.copy()
        assert hermiticity_residual(matrix) == frob(matrix - matrix.conj().T)
        assert np.array_equal(matrix, before)
    real = rng.standard_normal((4, 4))  # real.conj() is real itself
    real.flags.writeable = False
    assert hermiticity_residual(real) == frob(real - real.T) > 0
    tracemalloc.start()
    try:
        hermiticity_residual(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the conjugate transpose, subtracted into in place; the plain
    # difference held two such matrices
    assert peak < 1.5 * side * side * 16
