import numpy as np
import pytest

from dynamap.errors import DimensionMismatch, NonHermitianInput, NotPSD
from dynamap.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    frob,
    hermitian_eig,
    kron,
    max_frob,
    partial_trace,
    psd_sqrt,
    thresholded_pinv,
)


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


def test_hermitian_eig_identity():
    values, vectors = hermitian_eig(np.eye(2))
    assert np.allclose(values, [1.0, 1.0])
    assert np.allclose(vectors.conj().T @ vectors, np.eye(2))


def test_hermitian_eig_diagonal():
    values, vectors = hermitian_eig(np.diag([3.0, -1.0]))
    assert np.allclose(values, [3.0, -1.0])
    assert np.allclose(np.abs(vectors), np.eye(2))


def test_hermitian_eig_swap():
    # independent oracle: eigenvalues of the explicit swap matrix
    values, vectors = hermitian_eig(_swap_matrix())
    assert np.allclose(values, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    recon = (vectors * values) @ vectors.conj().T
    assert np.linalg.norm(recon - _swap_matrix()) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (g + g.conj().T) / 2
        values, vectors = hermitian_eig(m)
        assert np.all(np.diff(values) <= 1e-12)  # descending
        recon = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(recon - m) <= 1e-9 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)) <= 1e-9


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
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(
        kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    assert np.allclose(kron(sx, sx) @ ket00, [0, 0, 0, 1])


def test_psd_sqrt_cases():
    assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(1.5 * np.eye(2)), np.sqrt(1.5) * np.eye(2))


def test_psd_sqrt_random_property():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T
        root = psd_sqrt(m)
        assert np.linalg.norm(root @ root - m) <= 1e-9 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(root - root.conj().T) <= 1e-12


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_thresholded_pinv_diagonal():
    # oracle: invert the diagonal entries directly
    pinv, support = thresholded_pinv(np.diag([0.5, 0.5]))
    assert np.allclose(pinv, np.diag([2.0, 2.0]))
    assert np.allclose(support, np.eye(2))


def test_thresholded_pinv_zero_matrix():
    pinv, support = thresholded_pinv(np.zeros((3, 3)))
    assert np.allclose(pinv, 0.0)
    assert np.allclose(support, 0.0)


def test_thresholded_pinv_rank_one():
    pinv, support = thresholded_pinv(np.diag([2.0, 0.0]))
    assert np.allclose(pinv, np.diag([0.5, 0.0]))
    assert np.allclose(support, np.diag([1.0, 0.0]))


def test_thresholded_pinv_random_properties():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T
        pinv, support = thresholded_pinv(m)
        assert np.linalg.norm(pinv @ m @ pinv - pinv) <= 1e-9 * max(1.0, np.linalg.norm(pinv))
        assert np.linalg.norm(m @ pinv @ m - m) <= 1e-9 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(pinv @ m - support) <= DEFAULT_TOL.residual_abs


def test_thresholded_pinv_rejects_indefinite():
    with pytest.raises(NotPSD):
        thresholded_pinv(np.diag([1.0, -1.0]))


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
