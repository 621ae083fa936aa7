import tracemalloc

import numpy as np
import pytest

from dynamap.channels import (
    amplitude_damping_kraus,
    amplitude_damping_map,
    depolarizing_map,
    identity_map,
    rotation_unitary,
    transpose_map,
    unitary_map,
)
from dynamap.dilation import dilation_round_trip, kraus_to_unitary, unitarity_residual
from dynamap.errors import DimensionMismatch, NotCompleteKraus
from dynamap.generators import (
    SeededNormals,
    haar_unitary,
    random_cptp_kraus,
    random_density_matrix,
    random_tp_map,
    random_tp_map_with_kernel,
)
from dynamap.linalg import frob, isometry_residual, partial_trace
from dynamap.maps import KrausSet, apply_map, check_cp, kraus_to_map, map_to_kraus, require_tp
from oracles import apply_kraus


def test_single_identity_kraus():
    dil = kraus_to_unitary(KrausSet([np.eye(2)]))
    assert dil.ancilla_dim == 1
    assert dil.ancilla_ref_index == 0
    assert np.allclose(dil.unitary, np.eye(2))


def test_single_unitary_kraus():
    u0 = rotation_unitary(0.4)
    dil = kraus_to_unitary(KrausSet([u0]))
    assert dil.ancilla_dim == 1
    assert np.allclose(dil.unitary, u0)


def test_amplitude_damping_dilation():
    kraus = amplitude_damping_kraus(0.3)
    dil = kraus_to_unitary(kraus)
    assert dil.unitary.shape == (4, 4)
    assert unitarity_residual(dil) <= 1e-10
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = random_density_matrix(2, rng)
        # oracle: direct Kraus application
        assert np.linalg.norm(dil.evolve(rho) - apply_kraus(kraus, rho)) <= 1e-9


def test_round_trip_report_pass_and_mismatch_control():
    kraus = amplitude_damping_kraus(0.3)
    m = kraus_to_map(kraus)
    dil = kraus_to_unitary(kraus)
    rep = dilation_round_trip(dil, m, samples=20, seed=1)
    assert rep.passed and rep.max_residual <= 1e-9

    control = dilation_round_trip(dil, transpose_map(2), samples=20, seed=1)
    assert not control.passed
    assert control.max_residual > 0.1


def test_incomplete_kraus_rejected():
    damped_only = KrausSet([amplitude_damping_kraus(0.3).operators[0]])
    with pytest.raises(NotCompleteKraus):
        kraus_to_unitary(damped_only)
    with pytest.raises(NotCompleteKraus):
        kraus_to_unitary(KrausSet([], None))


def test_dilation_of_canonical_kraus_from_cptp_zoo():
    rng = np.random.default_rng(2)
    zoo = [identity_map(2), unitary_map(rotation_unitary(0.4)),
           depolarizing_map(0.25), depolarizing_map(1.0),
           amplitude_damping_map(0.3), amplitude_damping_map(0.9)]
    for m in zoo:
        positive, negative = map_to_kraus(m)
        assert len(negative) == 0
        dil = kraus_to_unitary(positive)
        assert dil.ancilla_dim <= m.dim ** 2
        assert unitarity_residual(dil) <= 1e-10
        rep = dilation_round_trip(dil, m, samples=20, seed=3)
        assert rep.passed, (m, rep)


def test_dilation_of_random_cptp_maps():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for _ in range(10):
            n_ops = int(rng.integers(1, n * n + 1))
            kraus = random_cptp_kraus(n, n_ops, rng)
            m = kraus_to_map(kraus)
            dil = kraus_to_unitary(kraus)
            assert dil.ancilla_dim == n_ops
            assert unitarity_residual(dil) <= 1e-10
            rep = dilation_round_trip(dil, m, samples=10, seed=5)
            assert rep.passed, rep


def test_dilation_is_deterministic():
    kraus = amplitude_damping_kraus(0.7)
    u1 = kraus_to_unitary(kraus).unitary
    u2 = kraus_to_unitary(kraus).unitary
    assert np.array_equal(u1, u2)


def test_evolve_dimension_check():
    dil = kraus_to_unitary(amplitude_damping_kraus(0.3))
    with pytest.raises(DimensionMismatch):
        dil.evolve(np.eye(3))
    with pytest.raises(DimensionMismatch):
        dilation_round_trip(dil, identity_map(3), samples=1, seed=0)


def _stacked_isometry(kraus):
    ops = kraus.folded_operators()
    n, d = kraus.dim, len(ops)
    iso = np.zeros((n * d, n), dtype=complex)
    for i, op in enumerate(ops):
        iso[i::d, :] = op
    return iso


@pytest.mark.parametrize(
    "kraus",
    [amplitude_damping_kraus(0.0), amplitude_damping_kraus(0.3), amplitude_damping_kraus(1.0),
     KrausSet([np.eye(3)]), random_cptp_kraus(3, 4, np.random.default_rng(6))],
    ids=["damping_0", "damping_0.3", "damping_1", "identity", "random_3x4"],
)
def test_qr_completion_keeps_isometry_and_is_unitary(kraus):
    dil = kraus_to_unitary(kraus)
    d = len(kraus)
    assert dil.unitary.shape == (kraus.dim * d, kraus.dim * d)
    assert np.array_equal(dil.unitary[:, dil.ancilla_ref_index::d], _stacked_isometry(kraus))
    # the other ancillas hold the complete QR factor's complement columns, in order
    assert np.array_equal(np.delete(dil.unitary, np.s_[dil.ancilla_ref_index::d], axis=1),
                          np.linalg.qr(_stacked_isometry(kraus), mode="complete")[0][:, kraus.dim:])
    assert unitarity_residual(dil) <= 1e-12
    assert np.array_equal(dil.unitary, kraus_to_unitary(kraus).unitary)


def test_round_trip_matches_per_sample_loop():
    rng = np.random.default_rng(81)
    kraus = random_cptp_kraus(3, 3, rng)
    dil = kraus_to_unitary(kraus)
    for m in (kraus_to_map(kraus), random_tp_map(3, rng), random_tp_map_with_kernel(3, rng)):
        loop_rng, worst = SeededNormals(9), 0.0
        for _ in range(10):
            rho = random_density_matrix(3, loop_rng)
            v = dil.unitary[:, dil.ancilla_ref_index :: dil.ancilla_dim]
            evolved = partial_trace(v @ rho @ v.conj().T, (3, dil.ancilla_dim), "b")
            worst = max(worst, np.linalg.norm(evolved - apply_map(m, rho)))
        assert abs(dilation_round_trip(dil, m, samples=10, seed=9).max_residual - worst) <= 1e-15
    assert dilation_round_trip(dil, m, samples=0).max_residual == 0.0


def test_evolve_per_state_results_do_not_depend_on_the_stack():
    rng = np.random.default_rng(82)
    dil = kraus_to_unitary(random_cptp_kraus(4, 5, rng))
    states = np.array([random_density_matrix(4, rng) for _ in range(6)])
    stacked = dil.evolve(states)
    assert np.array_equal(stacked, [dil.evolve(rho) for rho in states])
    assert np.array_equal(dil.evolve(states.reshape(2, 3, 4, 4)).reshape(6, 4, 4), stacked)
    assert dil.evolve(states[:0]).shape == (0, 4, 4)


@pytest.mark.parametrize("n_ops", [1, 3, 9])
def test_unitarity_residual_equals_the_difference_norm(n_ops):
    rng = np.random.default_rng(83 + n_ops)
    kraus = random_cptp_kraus(3, n_ops, rng)
    dil = kraus_to_unitary(kraus)
    isometry = kraus.folded_operators().transpose(1, 0, 2).reshape(3 * n_ops, 3)  # tall
    joint = haar_unitary(3 * n_ops, rng)
    for a in (dil.unitary, isometry, joint):
        assert isometry_residual(a) == frob(a.conj().T @ a - np.eye(a.shape[1]))
    assert unitarity_residual(dil) == isometry_residual(dil.unitary)


def test_overflowing_completeness_residual_reads_inf():
    with pytest.raises(NotCompleteKraus, match="residual inf exceeds"):
        kraus_to_unitary(KrausSet([1e200 * np.eye(2)]))


def test_dilate_stages_peak_below_five_choi_matrices():
    # N=16, 16 operators: the Choi matrix and the 256 x 256 unitary stay; the
    # dense Choi eigensystem and the evolve stack of the old path peaked at 5.7
    unit = 16 ** 4 * 16  # one complex N^2 x N^2 matrix
    kraus = random_cptp_kraus(16, 16, np.random.default_rng(84))
    tracemalloc.start()
    try:
        m = kraus_to_map(kraus)
        require_tp(m)
        positive, _ = map_to_kraus(m)
        assert check_cp(m)[0]
        dil = kraus_to_unitary(positive)
        assert dilation_round_trip(dil, m).passed
        assert unitarity_residual(dil) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * unit
