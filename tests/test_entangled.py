import tracemalloc

import numpy as np
import pytest

from dynamap.channels import cnot_gate, depolarizing_map, ncp_family, swap_gate, transpose_map
from dynamap.cpsplit import cp_split, verify_annihilation
from dynamap.entangled import (
    ExtensionVerdict,
    JointPureState,
    bell_state,
    extension_witness,
    induced_dynamics,
)
from dynamap.errors import DimensionMismatch, NotUnitary
from dynamap.extension import reconstruct
from dynamap.linalg import ToleranceConfig
from dynamap.generators import (
    haar_unitary,
    random_density_matrix,
    random_joint_pure_state,
    random_product_joint_state,
)
from dynamap.maps import (
    apply_map,
    check_cp,
    check_hermiticity_preserving,
    check_tp,
    choi_eigenvalues,
)
from oracles import induced_constant_part


def test_joint_pure_state_validation():
    with pytest.raises(ValueError):
        JointPureState((2, 2), np.array([1.0, 0, 0, 1.0]))  # norm sqrt(2)
    with pytest.raises(ValueError):
        JointPureState((2, 2), [np.nan] * 4)  # its norm is NaN, which no bound passes
    with pytest.raises(DimensionMismatch):
        JointPureState((2, 3), np.array([1.0, 0, 0, 0]))


def test_witness_bell_state():
    cert = extension_witness(bell_state())
    assert abs(cert.purity - 0.5) <= 1e-12
    assert cert.schmidt_rank == 2
    assert cert.verdict is ExtensionVerdict.POSITIVE_EXTENSION_IMPOSSIBLE
    assert np.allclose(cert.reduced_state, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(cert.schmidt_weights, [0.5, 0.5], atol=1e-12)
    assert "cannot be positive" in cert.explanation


def test_witness_product_state():
    amps = np.zeros(4)
    amps[0] = 1.0
    cert = extension_witness(JointPureState((2, 2), amps))
    assert abs(cert.purity - 1.0) <= 1e-12
    assert cert.schmidt_rank == 1
    assert cert.verdict is ExtensionVerdict.PRODUCT_STATE


def test_witness_partially_entangled_purity():
    amps = np.zeros(4)
    amps[0] = np.sqrt(0.9)
    amps[3] = np.sqrt(0.1)
    cert = extension_witness(JointPureState((2, 2), amps))
    assert abs(cert.purity - 0.82) <= 1e-12  # 0.9^2 + 0.1^2
    assert cert.schmidt_rank == 2
    assert cert.verdict is ExtensionVerdict.POSITIVE_EXTENSION_IMPOSSIBLE


def test_witness_dichotomy_random_states():
    rng = np.random.default_rng(0)
    for i in range(100):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        phi = (
            random_joint_pure_state(dims, rng)
            if i % 3
            else random_product_joint_state(dims, rng)
        )
        # at 1e-300 the cut is its floor, len·eps·max weight, above eigvalsh's noise
        for tol in (ToleranceConfig(), ToleranceConfig(zero_eig_rel=1e-300)):
            cert = extension_witness(phi, tol)
            expect_impossible = cert.purity < 1.0 - 1e-10
            got_impossible = cert.verdict is ExtensionVerdict.POSITIVE_EXTENSION_IMPOSSIBLE
            assert got_impossible == expect_impossible


def test_induced_dynamics_product_state_is_cp():
    rng = np.random.default_rng(1)
    for dims in ((2, 2), (2, 3)):
        phi = random_product_joint_state(dims, rng)
        u = haar_unitary(dims[0] * dims[1], rng)
        dyn = induced_dynamics(phi, u)
        assert np.linalg.norm(dyn.constant_part) <= 1e-9
        assert check_tp(dyn.tp_linear_form)[0]
        ok, min_eig = check_cp(dyn.tp_linear_form)
        assert ok and min_eig >= -1e-10
        assert dyn.consistency_residual <= 1e-9


def test_induced_dynamics_bell_identity():
    dyn = induced_dynamics(bell_state(), np.eye(4))
    out = apply_map(dyn.tp_linear_form, np.eye(2) / 2)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)
    assert dyn.consistency_residual <= 1e-12


def test_induced_dynamics_bell_swap_is_constant_output_map():
    # the swap hands the environment state to the system, so the induced
    # dynamics is the constant map onto 1/2: completely positive, with the
    # correlation contribution vanishing identically
    dyn = induced_dynamics(bell_state(), swap_gate())
    assert np.linalg.norm(dyn.constant_part) <= 1e-12
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = random_density_matrix(2, rng)
        assert np.allclose(apply_map(dyn.tp_linear_form, rho), np.eye(2) / 2, atol=1e-12)
    ok, min_eig = check_cp(dyn.tp_linear_form)
    assert ok
    assert abs(min_eig - 0.5) <= 1e-12
    assert np.allclose(dyn.tp_linear_form.choi, depolarizing_map(1.0).choi, atol=1e-12)


def test_induced_dynamics_bell_cnot_is_ncp():
    dyn = induced_dynamics(bell_state(), cnot_gate())
    assert check_tp(dyn.tp_linear_form)[0]
    ok, min_eig = check_cp(dyn.tp_linear_form)
    assert not ok
    # oracle: explicit 4x4 Choi eigensolve; the exact value is (1 - sqrt(2))/2
    oracle = np.linalg.eigvalsh(dyn.tp_linear_form.choi)[0]
    assert abs(min_eig - oracle) <= 1e-12
    assert abs(min_eig - (1.0 - np.sqrt(2.0)) / 2.0) <= 1e-12


def test_induced_dynamics_consistency_random_pairs():
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3)):
        for _ in range(25):
            phi = random_joint_pure_state(dims, rng)
            u = haar_unitary(dims[0] * dims[1], rng)
            dyn = induced_dynamics(phi, u)
            assert dyn.consistency_residual <= 1e-9
            assert check_tp(dyn.tp_linear_form)[0]
            assert abs(np.trace(dyn.constant_part)) <= 1e-9


def test_induced_dynamics_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        induced_dynamics(bell_state(), np.ones((4, 4)))
    with pytest.raises(DimensionMismatch):
        induced_dynamics(bell_state(), np.eye(6))


def test_entangled_pipeline_end_to_end():
    # NCP maps extracted from entangled inputs feed the whole decomposition
    # pipeline and satisfy the reconstruction identity
    rng = np.random.default_rng(4)
    cases = [(bell_state(), cnot_gate())]
    while len(cases) < 6:
        dims = (2, 2) if len(cases) % 2 == 0 else (2, 3)
        phi = random_joint_pure_state(dims, rng)
        u = haar_unitary(dims[0] * dims[1], rng)
        if not check_cp(induced_dynamics(phi, u).tp_linear_form)[0]:
            cases.append((phi, u))
    ncp_count = 0
    for phi, u in cases:
        dyn = induced_dynamics(phi, u)
        m = dyn.tp_linear_form
        if check_cp(m)[0]:
            continue
        ncp_count += 1
        s = cp_split(m)
        assert s.has_negative_part
        assert verify_annihilation(s, samples=10, seed=5).passed
        for variant in ("literal", "symmetric"):
            for _ in range(10):
                _, residual = reconstruct(s, random_density_matrix(m.dim, rng), variant)
                assert residual <= 1e-9
    assert ncp_count >= 5


def test_ncp_family_endpoints():
    assert np.allclose(ncp_family(0.0).choi, depolarizing_map(1.0).choi)
    assert np.allclose(ncp_family(1.0).choi, transpose_map(2).choi)
    ok, min_eig = check_cp(ncp_family(1.0))
    assert not ok and abs(min_eig + 1.0) <= 1e-12


def test_ncp_family_midpoint_regression():
    # regression value measured by the Choi eigensolve oracle: (1-p)/2 - p
    ok, min_eig = check_cp(ncp_family(0.5))
    assert not ok
    assert abs(min_eig + 0.25) <= 1e-12


def test_ncp_family_tp_and_monotone():
    previous = None
    for p in np.linspace(0.0, 1.0, 21):
        m = ncp_family(float(p))
        ok, res = check_tp(m)
        assert ok and res <= 1e-9
        min_eig = np.linalg.eigvalsh(m.choi)[0]
        if previous is not None:
            assert min_eig <= previous + 1e-12
        previous = min_eig
    # the CP boundary sits at p = 1/3
    assert np.linalg.eigvalsh(ncp_family(1.0 / 3.0).choi)[0] >= -1e-12
    assert np.linalg.eigvalsh(ncp_family(1.0 / 3.0 + 1e-6).choi)[0] < 0

def test_ncp_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        ncp_family(1.5)


def _induced_linear_choi_loop(phi, u):
    """Reference: the Choi of sigma -> Tr_env[u (sigma (x) rho_e) u^dag], one unit at a time."""
    ns, ne = phi.dims
    rho_e = phi.reduced_environment()
    choi4 = np.zeros((ns, ns, ns, ns), dtype=complex)
    for r in range(ns):
        for s in range(ns):
            unit = np.zeros((ns, ns), dtype=complex)
            unit[r, s] = 1.0
            joint = u @ np.kron(unit, rho_e) @ u.conj().T
            choi4[:, r, :, s] = np.einsum("iaja->ij", joint.reshape(ns, ne, ns, ne))
    return choi4.reshape(ns * ns, ns * ns)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 2)])
def test_induced_dynamics_matches_unit_by_unit_loop(dims):
    rng = np.random.default_rng(sum(dims) * 7 + dims[0])
    phi = random_joint_pure_state(dims, rng)
    u = haar_unitary(dims[0] * dims[1], rng)
    dyn = induced_dynamics(phi, u)
    linear_choi = dyn.tp_linear_form.choi - np.kron(dyn.constant_part, np.eye(dims[0]))
    assert np.max(np.abs(linear_choi - _induced_linear_choi_loop(phi, u))) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("product", [False, True], ids=["entangled", "product"])
def test_induced_constant_part_matches_the_correlation_reference(dims, product):
    rng = np.random.default_rng(60 + 7 * dims[0] + dims[1])
    draw = random_product_joint_state if product else random_joint_pure_state
    phi = draw(dims, rng)
    u = haar_unitary(dims[0] * dims[1], rng)
    expected = induced_constant_part(phi, u)
    assert np.max(np.abs(induced_dynamics(phi, u).constant_part - expected)) <= 1e-12
    assert product or np.linalg.norm(expected) > 1e-3  # the entangled draws test a nonzero part


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 3)])
def test_induced_tp_form_is_linear_part_plus_constant_kron_identity(dims):
    rng = np.random.default_rng(90 + dims[0])
    phi = random_joint_pure_state(dims, rng)
    u = haar_unitary(dims[0] * dims[1], rng)
    dyn = induced_dynamics(phi, u)
    expected = _induced_linear_choi_loop(phi, u) + np.kron(dyn.constant_part, np.eye(dims[0]))
    choi = dyn.tp_linear_form.choi
    assert np.max(np.abs(choi - expected)) <= 1e-12
    assert not choi.flags.writeable and choi.flags.owndata


def test_extract_stages_peak_below_four_choi_matrices():
    # N=16 with an 8-dimensional environment: the TP Choi matrix stays; the
    # copies and the Kronecker temporary of the old path and its dense
    # eigensystem peaked at 5.5
    unit = 16 ** 4 * 16  # one complex N^2 x N^2 matrix
    rng = np.random.default_rng(91)
    phi = random_joint_pure_state((16, 8), rng)
    u = haar_unitary(128, rng)
    tracemalloc.start()
    try:
        dyn = induced_dynamics(phi, u)
        extension_witness(phi)
        m = dyn.tp_linear_form
        assert check_hermiticity_preserving(m)[0] and check_tp(m)[0]
        check_cp(m)
        choi_eigenvalues(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * unit


def test_induced_dynamics_keeps_one_choi_matrix():
    # the TP form is the one Choi matrix built; a kept linear part held a second
    unit = 16 ** 4 * 16  # one complex N^2 x N^2 matrix
    rng = np.random.default_rng(92)
    phi = random_joint_pure_state((16, 8), rng)
    u = haar_unitary(128, rng)
    tracemalloc.start()
    try:
        dyn = induced_dynamics(phi, u)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dyn.tp_linear_form.choi.nbytes == unit and retained < 1.5 * unit
