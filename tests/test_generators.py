import cmath
import math

import numpy as np
import pytest

from liegates.errors import CapacityError, FamilyMismatchError, MatrixPropertyError
from liegates.generators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    clifford_gammas,
    clifford_plus_u,
    gamma_u,
    hermitian_split,
    locality,
    pauli,
    relation_report,
    tau,
    torus_T,
    torus_split_set,
    two_local_clifford_set,
    two_local_torus_set,
    weyl_pair,
)
from liegates.linalg import (
    anticommutator,
    frob_norm,
    is_anti_hermitian,
    max_abs,
    tensor,
    tensor_all,
)


def zeta(l):
    return cmath.exp(2j * math.pi / l)


def test_pauli_products_and_traces():
    p = pauli()
    sx, sy, sz = p.matrices()
    assert max_abs(sx @ sy - 1j * sz) <= 1e-15
    for m in p.matrices():
        assert max_abs(m @ m - np.eye(2)) <= 1e-15
        assert abs(np.trace(m)) <= 1e-15
    assert relation_report(p)["max_violation"] <= 1e-12


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_weyl_pair_relations(l):
    wp = weyl_pair(l)
    u, v = wp.matrices()
    assert max_abs(u @ v - zeta(l) * (v @ u)) <= 1e-12
    assert max_abs(np.linalg.matrix_power(u, l) - np.eye(l)) <= 1e-12
    assert max_abs(np.linalg.matrix_power(v, l) - np.eye(l)) <= 1e-12


def test_weyl_pair_qubit_case():
    wp = weyl_pair(2)
    assert np.allclose(wp.by_id("U").matrix, SIGMA_X)
    assert np.allclose(wp.by_id("V").matrix, SIGMA_Z)


def test_weyl_pair_rejects_small_l():
    with pytest.raises(ValueError):
        weyl_pair(1)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_tau_relations(l):
    t = tau(l)
    tx, ty, tz = t.matrices()
    z = zeta(l)
    assert max_abs(tx @ ty - z * (ty @ tx)) <= 1e-12
    assert max_abs(ty @ tz - z * (tz @ ty)) <= 1e-12
    assert max_abs(tx @ tz - z * (tz @ tx)) <= 1e-12
    for m in t.matrices():
        assert max_abs(np.linalg.matrix_power(m, l) - np.eye(l)) <= 1e-12


def test_tau_qubit_case_is_pauli():
    t = tau(2)
    assert np.allclose(t.by_id("tx").matrix, SIGMA_X, atol=1e-15)
    assert np.allclose(t.by_id("ty").matrix, SIGMA_Y, atol=1e-15)
    assert np.allclose(t.by_id("tz").matrix, SIGMA_Z, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_anticommutation(n):
    gens = clifford_gammas(n)
    eye = np.eye(2**n)
    worst = 0.0
    for i, a in enumerate(gens.matrices()):
        for j, b in enumerate(gens.matrices()):
            target = -2.0 * eye if i == j else 0.0 * eye
            worst = max(worst, max_abs(anticommutator(a, b) - target))
    assert worst <= 1e-12
    assert relation_report(gens)["max_violation"] <= 1e-12


def test_gamma_base_case():
    gens = clifford_gammas(1)
    assert np.allclose(gens.by_id("G0").matrix, 1j * SIGMA_X)
    assert np.allclose(gens.by_id("G1").matrix, 1j * SIGMA_Y)


def test_gamma_locality_ladder():
    gens = clifford_gammas(3)
    assert [el.locality for el in gens.elements] == [1, 1, 2, 2, 3, 3]
    assert locality(gens.by_id("G4").matrix, 3, 2) == 3


def test_gamma_squares_to_minus_identity():
    for n in (1, 2):
        for m in clifford_gammas(n).matrices():
            assert max_abs(m @ m + np.eye(2**n)) <= 1e-12


def test_gamma_deterministic_rebuild():
    a = clifford_gammas(2)
    b = clifford_gammas(2)
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a.elements, b.elements))


def test_gamma_capacity():
    with pytest.raises(CapacityError):
        clifford_gammas(13)


def test_gamma_u_variants():
    gu = gamma_u(2)
    assert is_anti_hermitian(gu, tol=1e-12)
    assert max_abs(gu - 1j * tensor(SIGMA_X, np.eye(2))) <= 1e-12
    assert locality(gu, 2, 2) == 1
    gu4 = gamma_u(2, variant="four")
    assert is_anti_hermitian(gu4, tol=1e-12)
    gu_custom = gamma_u(3, indices=(1, 2, 4))
    assert is_anti_hermitian(gu_custom, tol=1e-12)


def test_gamma_u_validation():
    with pytest.raises(ValueError):
        gamma_u(1)  # needs index 2
    with pytest.raises(ValueError):
        gamma_u(2, indices=(0, 0, 1))
    with pytest.raises(ValueError):
        gamma_u(2, variant="five")


@pytest.mark.parametrize("n,l", [(1, 3), (2, 3), (2, 2)])
def test_torus_relations(n, l):
    gens = torus_T(n, l)
    mats = gens.matrices()
    z = zeta(l)
    eye = np.eye(l**n)
    worst = 0.0
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            worst = max(worst, max_abs(mats[j] @ mats[k] - z * (mats[k] @ mats[j])))
    assert worst <= 1e-12
    for m in mats:
        assert max_abs(np.linalg.matrix_power(m, l) - eye) <= 1e-12
    assert relation_report(gens)["max_violation"] <= 1e-12


def test_torus_qubit_case_matches_gammas():
    ts = torus_T(2, 2)
    gs = clifford_gammas(2)
    for t_el, g_el in zip(ts.elements, gs.elements):
        assert max_abs(t_el.matrix - g_el.matrix / 1j) <= 1e-12


def test_torus_hermiticity_labels():
    assert all(
        el.hermiticity == "unitary_non_hermitian" for el in torus_T(1, 3).elements
    )


def test_hermitian_split_cases():
    tp, tm = hermitian_split(np.eye(3))
    assert np.allclose(tp, 2j * np.eye(3))
    assert frob_norm(tm) == 0.0
    tp, tm = hermitian_split(SIGMA_X)
    assert np.allclose(tp, 2j * SIGMA_X)
    assert frob_norm(tm) == 0.0
    u = weyl_pair(3).by_id("U").matrix
    tp, tm = hermitian_split(u)
    assert is_anti_hermitian(tp, tol=1e-12)
    assert is_anti_hermitian(tm, tol=1e-12)
    with pytest.raises(MatrixPropertyError):
        hermitian_split(2 * np.eye(2))


@pytest.mark.parametrize("n", [2, 3])
def test_two_local_clifford_set_shape(n):
    gens = two_local_clifford_set(n)
    assert len(gens.elements) == 2 * n + 1
    assert all(is_anti_hermitian(m, tol=1e-12) for m in gens.matrices())
    assert max(el.locality for el in gens.elements) == 2
    assert relation_report(gens)["max_violation"] <= 1e-12


def test_two_local_clifford_needs_two_sites():
    with pytest.raises(ValueError):
        two_local_clifford_set(1)


def test_two_local_torus_set_shape():
    gens = two_local_torus_set(2, 3)
    # no zero splits at l = 3: two elements per base product
    assert len(gens.elements) == 2 * (2 * 2)
    assert all(is_anti_hermitian(m, tol=1e-12) for m in gens.matrices())
    assert max(el.locality for el in gens.elements) <= 2


def test_two_local_torus_drops_zero_splits_at_l2():
    gens = two_local_torus_set(2, 2)
    # every base is Hermitian or anti-Hermitian at l = 2, one split survives
    assert len(gens.elements) == 2 * 2


def test_torus_split_set():
    gens = torus_split_set(1, 3)
    assert gens.family == "torus_splits"
    assert len(gens.elements) == 4
    assert all(is_anti_hermitian(m, tol=1e-12) for m in gens.matrices())


def test_clifford_plus_u_labels():
    gens = clifford_plus_u(2)
    assert gens.ids() == ["G0", "G1", "G2", "G3", "Gu"]
    small = clifford_plus_u(1)
    assert small.ids() == ["G0", "G1", "G0G1"]
    assert all(is_anti_hermitian(m, tol=1e-12) for m in small.matrices())


def test_relation_report_rejects_custom():
    with pytest.raises(FamilyMismatchError):
        relation_report(torus_split_set(1, 3))


def test_gamma_chain_recovery_identity():
    # [Gamma_0, Gamma_0 Gamma_1] = -2 Gamma_1: the chain products recover
    # every generator by commutation
    g = clifford_gammas(2)
    g0, g1 = g.matrices()[:2]
    chain = g0 @ g1
    assert max_abs((g0 @ chain - chain @ g0) + 2 * g1) <= 1e-12


def test_locality_detector_on_constructed_tensor():
    rng = np.random.default_rng(12)
    single = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = tensor_all([np.eye(3), single, np.eye(3)])
    assert locality(m, 3, 3) == 1
    m2 = tensor_all([single, np.eye(3), single])
    assert locality(m2, 3, 3) == 2
    assert locality(np.zeros((27, 27)), 3, 3) == 0
    assert locality(np.eye(27), 3, 3) == 0
