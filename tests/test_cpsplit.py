import copy
import tracemalloc

import numpy as np
import pytest

from dynamap.channels import (
    amplitude_damping_map,
    depolarizing_map,
    identity_map,
    ncp_family,
    transpose_map,
)
from dynamap.cpsplit import cp_split, split_from_eigensystem, trace_functionals, verify_annihilation
from dynamap.errors import DimensionMismatch, NonHermitianChoi, NotTracePreserving, SingularJ
from dynamap.generators import (
    SeededNormals,
    haar_unitary,
    random_complex,
    random_cptp_kraus,
    random_density_matrix,
    random_tp_map,
    random_tp_map_with_kernel,
)
from dynamap.linalg import ToleranceConfig, frob, hermiticity_residual, partial_trace, zero_cut
from dynamap.maps import LinearMap, apply_map, check_tp, kraus_to_map, weighted_choi


def test_split_identity_map():
    s = cp_split(identity_map(2))
    assert s.n_positive == 1 and s.n_negative == 0
    assert not s.has_negative_part
    assert np.allclose(s.plus_functional, np.eye(2), atol=1e-12)
    assert np.allclose(s.minus_functional, 0.0)
    assert np.allclose(s.support_projector, 0.0)
    assert s.kernel_basis.shape == (2, 2)  # kernel spans the full space
    assert np.allclose(apply_map(s.negative_part, np.eye(2)), 0.0)


def test_split_transpose_map():
    s = cp_split(transpose_map(2))
    assert s.n_positive == 3 and s.n_negative == 1
    assert np.allclose(s.plus_functional, 1.5 * np.eye(2), atol=1e-12)
    assert np.allclose(s.minus_functional, 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(s.support_projector, np.eye(2), atol=1e-12)
    assert s.kernel_basis.shape[1] == 0


def test_split_amplitude_damping_is_cp():
    s = cp_split(amplitude_damping_map(0.3))
    assert s.n_negative == 0
    assert np.allclose(s.plus_functional, np.eye(2), atol=1e-12)
    assert np.allclose(s.minus_functional, 0.0)


def test_split_rejects_non_tp_and_non_hermitian():
    with pytest.raises(NotTracePreserving):
        cp_split(LinearMap(2.0 * identity_map(2).choi))
    with pytest.raises(NonHermitianChoi):
        cp_split(LinearMap(np.triu(np.ones((4, 4), dtype=complex))))


def test_split_reconstructs_source_action():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        for _ in range(50):
            m = random_tp_map(n, rng)
            s = cp_split(m)
            for _ in range(50):
                rho = random_density_matrix(n, rng)
                diff = (
                    apply_map(s.positive_part, rho)
                    - apply_map(s.negative_part, rho)
                    - apply_map(m, rho)
                )
                assert np.linalg.norm(diff) <= 1e-9


def test_trace_preservation_structure():
    rng = np.random.default_rng(23)
    maps = [identity_map(2), transpose_map(2), depolarizing_map(0.25),
            amplitude_damping_map(0.9), ncp_family(0.5)]
    maps += [random_tp_map(n, rng) for n in (2, 3, 4) for _ in range(10)]
    for m in maps:
        s = cp_split(m)
        n = m.dim
        assert np.linalg.norm(s.plus_functional - s.minus_functional - np.eye(n)) <= 1e-9
        assert np.linalg.eigvalsh(s.plus_functional)[0] >= 1.0 - 1e-9
        assert np.linalg.eigvalsh(s.minus_functional)[0] >= -1e-10
        assert np.linalg.norm(s.plus_functional - s.plus_functional.conj().T) <= 1e-12
        assert np.linalg.norm(s.minus_functional - s.minus_functional.conj().T) <= 1e-12
        assert s.n_positive + s.n_negative <= n * n


def _functionals_by_literal_sums(m, tol_rel=1e-10):
    """Independent oracle: entrywise partial sums over the part Choi tensors."""
    from dynamap.maps import map_to_kraus, kraus_to_map

    pos, neg = map_to_kraus(m)
    n = m.dim
    out = []
    for part in (pos, neg):
        if len(part):
            choi4 = kraus_to_map(part).choi4
        else:
            choi4 = np.zeros((n, n, n, n), dtype=complex)
        f = np.zeros((n, n), dtype=complex)
        for s in range(n):
            for r in range(n):
                f[s, r] = sum(choi4[rp, r, rp, s] for rp in range(n))
        out.append(f)
    return out


def test_functionals_match_literal_entrywise_sums():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = random_tp_map(n, rng)
        s = cp_split(m)
        j_lit, k_lit = _functionals_by_literal_sums(m)
        assert np.abs(j_lit - s.plus_functional).max() <= 1e-10
        assert np.abs(k_lit - s.minus_functional).max() <= 1e-10


def test_annihilation_identity_map():
    split = cp_split(identity_map(2))
    rep = verify_annihilation(split)
    assert split.kernel_basis.shape[1] == 2
    assert rep.max_residual == 0.0
    assert rep.passed


def test_annihilation_transpose_vacuous_kernel():
    split = cp_split(transpose_map(2))
    rep = verify_annihilation(split)
    assert split.kernel_basis.shape[1] == 0
    assert rep.kernel_state_residual == 0.0
    assert rep.kernel_cross_residual == 0.0
    assert rep.mechanism_residual == 0.0
    assert rep.support_restriction_residual <= 1e-12  # support projector is 1
    assert rep.passed


def test_annihilation_on_kernel_deficient_maps():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        for _ in range(5):
            m = random_tp_map_with_kernel(n, rng)
            s = cp_split(m)
            assert s.has_negative_part
            assert s.kernel_basis.shape[1] >= 1
            rep = verify_annihilation(s, samples=20, seed=1)
            assert rep.max_residual <= 1e-9, rep
            assert rep.passed


def test_split_basis_invariance_under_degeneracy():
    rng = np.random.default_rng(37)
    for m in (transpose_map(2), ncp_family(0.5)):
        values, vectors = np.linalg.eigh(m.choi)
        values, vectors = values[::-1], vectors[:, ::-1]
        start = 0
        remixed = vectors.copy()
        while start < len(values):
            stop = start + 1
            while stop < len(values) and abs(values[stop] - values[start]) < 1e-8:
                stop += 1
            if stop - start > 1:
                g = rng.standard_normal((stop - start,) * 2) + 1j * rng.standard_normal(
                    (stop - start,) * 2
                )
                q, _ = np.linalg.qr(g)
                remixed[:, start:stop] = remixed[:, start:stop] @ q
            start = stop
        s1 = cp_split(m)
        s2 = split_from_eigensystem(m, values, remixed)
        assert np.allclose(s1.plus_functional, s2.plus_functional, atol=1e-9)
        assert np.allclose(s1.minus_functional, s2.minus_functional, atol=1e-9)
        for _ in range(10):
            rho = random_density_matrix(m.dim, rng)
            for part in ("positive_part", "negative_part"):
                out1 = apply_map(getattr(s1, part), rho)
                out2 = apply_map(getattr(s2, part), rho)
                assert np.linalg.norm(out1 - out2) <= 1e-9


def test_trace_functionals_identity():
    rep = trace_functionals(cp_split(identity_map(2)), samples=10, seed=0)
    assert rep.max_residual <= 1e-12
    assert rep.passed


def test_trace_functionals_transpose_values():
    s = cp_split(transpose_map(2))
    x = np.eye(2, dtype=complex)
    got_plus = np.trace(apply_map(s.positive_part, x))
    assert abs(got_plus - 3.0) < 1e-12
    assert abs(np.trace(s.plus_functional @ x) - 3.0) < 1e-12
    got_minus = np.trace(apply_map(s.negative_part, s.minus_pinv @ x))
    assert abs(got_minus - 2.0) < 1e-12
    assert abs(np.trace(s.support_projector @ x) - 2.0) < 1e-12


def test_support_projector_fixes_minus_block_images():
    # the image of the minus functional is inside its own support, so the
    # support projector acts as the identity on extended minus blocks
    rng = np.random.default_rng(43)
    for m in (transpose_map(2), ncp_family(0.5), random_tp_map_with_kernel(3, rng)):
        s = cp_split(m)
        for _ in range(10):
            rho = random_density_matrix(s.dim, rng)
            image = s.minus_functional @ rho
            assert np.linalg.norm(s.support_projector @ image - image) <= 1e-9


def test_trace_functionals_random_maps():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        rep = trace_functionals(cp_split(random_tp_map(n, rng)), samples=20, seed=2)
        assert rep.passed, rep


def test_trace_functionals_singular_plus_raises():
    # a hand-built eigensystem whose sole operator is rank deficient makes
    # the plus functional singular; only reachable for non-TP inputs
    m = LinearMap(np.zeros((4, 4), dtype=complex))
    vec = np.zeros(4)
    vec[0] = 1.0
    s = split_from_eigensystem(m, np.array([1.0]), vec.reshape(4, 1))
    with pytest.raises(SingularJ):
        trace_functionals(s, samples=2, seed=0)


def _overriding(split, **derived):
    """A copy of ``split`` whose named derived values are ``derived``: each
    is a ``cached_property``, which an instance entry overrides."""
    out = copy.copy(split)
    vars(out).update(derived)
    return out


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_plus_power_raises_at_the_zero_cut_edge(scale):
    split = cp_split(transpose_map(2))
    cut = zero_cut([scale], split.tol)
    at_edge = _overriding(split, plus_eigenvalues=np.array([cut, scale]))
    with pytest.raises(SingularJ):
        at_edge.plus_inv
    above = _overriding(split, plus_eigenvalues=np.array([cut * (1 + 1e-6), scale]))
    assert np.all(np.isfinite(above.plus_inv_sqrt))


def _annihilation_loops(split, samples, seed):
    """Per-sample and per-dyad reference for ``verify_annihilation``."""
    neg, kernel, support = split.negative_part, split.kernel_basis, split.support_basis
    norm = np.linalg.norm
    kernel_state = cross = mechanism = restriction = 0.0
    for q in range(kernel.shape[1]):
        phi = kernel[:, q]
        kernel_state = max(kernel_state, norm(apply_map(neg, np.outer(phi, phi.conj()))))
        for r in range(support.shape[1]):
            psi = support[:, r]
            cross = max(cross, norm(apply_map(neg, np.outer(phi, psi.conj()))))
            cross = max(cross, norm(apply_map(neg, np.outer(psi, phi.conj()))))
        for op in split.negative_part.kraus.operators:
            mechanism = max(mechanism, norm(op @ phi))
    rng = SeededNormals(seed)
    for _ in range(samples):
        rho = random_density_matrix(split.dim, rng)
        delta = apply_map(neg, rho) - apply_map(neg, split.support_projector @ rho)
        restriction = max(restriction, norm(delta))
    return kernel_state, cross, mechanism, restriction


def _trace_functional_loops(split, samples, seed):
    """Per-sample reference for ``trace_functionals``."""
    pos, neg = split.positive_part, split.negative_part
    rng = SeededNormals(seed)
    res = [0.0] * 4
    for _ in range(samples):
        x = random_complex((split.dim, split.dim), rng)
        gaps = (
            np.trace(apply_map(pos, x)) - np.trace(split.plus_functional @ x),
            np.trace(apply_map(neg, x)) - np.trace(split.minus_functional @ x),
            np.trace(apply_map(pos, split.plus_inv @ x)) - np.trace(x),
            np.trace(apply_map(neg, split.minus_pinv @ x)) - np.trace(split.support_projector @ x),
        )
        res = [max(r, abs(g)) for r, g in zip(res, gaps)]
    return res


@pytest.mark.parametrize("make", [random_tp_map_with_kernel, random_tp_map])
def test_stacked_checks_match_per_sample_loops(make):
    rng = np.random.default_rng(71)
    s = cp_split(make(3, rng))
    # a wrong kernel/support split gives residuals of order one in every family
    # that reads it, the sampled ones included, so the two sample streams differ
    q = haar_unitary(3, rng)
    proj = q[:, 1:] @ q[:, 1:].conj().T
    wrong = _overriding(s, kernel_basis=q[:, :1], support_basis=q[:, 1:],
                        support_projector=proj, minus_pinv=proj)
    for split in (s, wrong):
        ann = verify_annihilation(split, samples=12, seed=5)
        got = (ann.kernel_state_residual, ann.kernel_cross_residual,
               ann.mechanism_residual, ann.support_restriction_residual)
        tf = trace_functionals(split, samples=12, seed=5)
        got_tf = (tf.plus_residual, tf.minus_residual, tf.plus_inverse_residual,
                  tf.minus_support_residual)
        want = _annihilation_loops(split, 12, 5) + tuple(_trace_functional_loops(split, 12, 5))
        for a, b in zip(got + got_tf, want):
            assert abs(a - b) <= 1e-15
        # one kernel vector where the map has one, or where the wrong split puts it
        kernel_dim = int(split is wrong or make is random_tp_map_with_kernel)
        assert split.kernel_basis.shape[1] == kernel_dim
        assert split.support_basis.shape[1] == 3 - kernel_dim
    assert min(got + got_tf[3:]) > 1e-3


@pytest.mark.parametrize("make", [random_tp_map_with_kernel, random_tp_map, transpose_map])
def test_zero_samples_give_zero_sampled_residuals(make):
    m = make(3) if make is transpose_map else make(3, np.random.default_rng(72))
    s = cp_split(m)
    assert verify_annihilation(s, samples=0).support_restriction_residual == 0.0
    tf = trace_functionals(s, samples=0)
    assert (tf.plus_residual, tf.minus_residual, tf.plus_inverse_residual,
            tf.minus_support_residual, tf.max_residual) == (0.0,) * 5


@pytest.mark.parametrize("make", [random_tp_map, random_tp_map_with_kernel])
def test_split_families_share_the_cached_eigenvectors(make):
    m = make(16, np.random.default_rng(19))
    s = cp_split(m)
    vectors = m.eigensystem[1]
    for part in (s.positive_part, s.negative_part):
        ops = part.kraus.operators
        assert np.shares_memory(ops, vectors) and not ops.flags.writeable


def test_split_from_eigensystem_rejects_eigenvectors_of_another_side():
    with pytest.raises(DimensionMismatch, match="length 9 does not match dim 2"):
        split_from_eigensystem(transpose_map(2), *transpose_map(3).eigensystem)


def test_a_split_is_judged_under_the_tolerance_that_made_it():
    tight = ToleranceConfig(residual_abs=1e-300)
    m = ncp_family(0.5)
    assert 0.0 < trace_functionals(cp_split(m, tight)).max_residual <= 1e-12
    assert trace_functionals(cp_split(m, tight)).passed is False
    assert trace_functionals(cp_split(m)).passed is True
    # its Choi Hermiticity residual fails cp_split's precondition under 1e-300
    m = random_tp_map_with_kernel(3, np.random.default_rng(4))
    rep = verify_annihilation(split_from_eigensystem(m, *m.eigensystem, tight))
    assert 0.0 < rep.max_residual <= 1e-12 and rep.passed is False
    assert verify_annihilation(cp_split(m)).passed is True


def test_cp_split_retains_one_eigenvector_matrix():
    unit = 16 ** 4 * 16  # one complex N^2 x N^2 matrix at N=16
    m = random_tp_map_with_kernel(16, np.random.default_rng(19))
    tracemalloc.start()
    try:
        s = cp_split(m)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert s.has_negative_part
    # the cached eigenvectors and the two part Choi matrices; a second copy
    # of the eigenvectors in the Kraus families retained about 4
    assert retained < 3.5 * unit


def _split_sources():
    rng = np.random.default_rng(23)
    return [  # three dense eigh routes, then two Gram routes (k < N^2 Kraus operators)
        random_tp_map(3, rng), random_tp_map_with_kernel(4, rng), transpose_map(3),
        amplitude_damping_map(0.3), kraus_to_map(random_cptp_kraus(3, 4, rng)),
    ]


@pytest.mark.parametrize("m", _split_sources(), ids=["generic", "kernel", "transpose",
                                                     "amplitude_damping", "gram"])
def test_positive_part_is_the_source_plus_the_negative_part(m):
    s = cp_split(m)
    pos, neg = s.positive_part, s.negative_part
    assert pos.kraus is not None and not pos.choi.flags.writeable
    if s.has_negative_part:
        assert np.array_equal(pos.choi, m.choi + neg.choi)
    else:  # the source's own read-only matrix, not a copy
        assert pos.choi is m.choi
    # the Kraus family it keeps sums to the same Choi matrix within rounding
    ops, weights = pos.kraus.operators, pos.kraus.weights
    assert np.abs(pos.choi - weighted_choi(ops, weights)).max() <= 1e-13
    assert np.array_equal(neg.choi, weighted_choi(neg.kraus.operators, neg.kraus.weights))


def _cut_of_both_signs(m):
    """A tolerance whose zero cut takes in the smallest positive and the
    smallest negative Choi eigenvalue of ``m``."""
    values = m.eigenvalues
    smallest = max(values[values > 0].min(), -values[values < 0].max())
    return ToleranceConfig(zero_eig_rel=1.01 * smallest / np.abs(values).max())


def test_values_cut_as_zero_stay_out_of_the_positive_part():
    m = random_tp_map(3, np.random.default_rng(5))
    s = cp_split(m, _cut_of_both_signs(m))
    pos, neg = s.positive_part, s.negative_part
    assert s.n_positive + s.n_negative <= 7 and s.has_negative_part
    # the positive family's own sum, CP to rounding, not source + negative
    assert np.array_equal(pos.choi, weighted_choi(pos.kraus.operators, pos.kraus.weights))
    assert np.linalg.eigvalsh(pos.choi)[0] > -1e-14
    assert frob(pos.choi - neg.choi - m.choi) > 1e-3


def test_an_anti_hermitian_source_residual_stays_out_of_the_positive_part():
    rng = np.random.default_rng(6)
    m = random_tp_map(3, rng)
    k = random_complex((9, 9), rng)
    m = LinearMap(m.choi + 1e-12 * (k - k.conj().T))  # Hermitian within tolerance
    s = cp_split(m)
    pos = s.positive_part
    assert np.array_equal(pos.choi, weighted_choi(pos.kraus.operators, pos.kraus.weights))
    assert hermiticity_residual(pos.choi) < 1e-14 < 1e-12 < m._hermiticity[0]


def test_cp_split_builds_no_positive_kraus_sum():
    unit = 16 ** 4 * 16  # one complex N^2 x N^2 matrix at N=16
    m = random_tp_map_with_kernel(16, np.random.default_rng(19))
    m.eigensystem
    tracemalloc.start()
    try:
        s = cp_split(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.n_positive > 200 and s.has_negative_part
    # the two part Choi matrices and a Hermiticity temporary; the Kraus sum
    # of the positive family, with its two N^2 x l_plus factors, peaked near 3
    assert peak < 2.5 * unit


@pytest.mark.parametrize("kraus", [False, True])
def test_functionals_are_the_output_traces_of_the_parts(kraus):
    rng = np.random.default_rng(31)
    m = kraus_to_map(random_cptp_kraus(3, 4, rng)) if kraus else random_tp_map(3, rng)
    assert np.array_equal(m.output_trace, partial_trace(m.choi, (3, 3), "a"))
    assert check_tp(m)[1] == frob(m.output_trace - np.eye(3))
    s = cp_split(m)
    for functional, part in ((s.plus_functional, s.positive_part),
                             (s.minus_functional, s.negative_part)):
        assert np.array_equal(functional, part.output_trace.T)
        # the trace functional of a CP part is sum_i w_i M_i^dag M_i
        ops, weights = part.kraus.operators, part.kraus.weights
        direct = np.einsum("i,iba,ibc->ac", weights, ops.conj(), ops)
        assert np.max(np.abs(functional - direct), initial=0.0) <= 1e-12
