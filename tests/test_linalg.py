import math
import warnings

import numpy as np
import pytest

from liegates.errors import (
    BranchCutWarning,
    CapacityError,
    DimensionMismatchError,
    MatrixPropertyError,
)
from liegates.generators import clifford_gammas
from liegates.linalg import (
    _canonical_columns,
    anticommutator,
    commutator,
    error_metrics,
    expm_antiherm,
    frob_inner,
    frob_norm,
    herm_eig,
    is_anti_hermitian,
    is_hermitian,
    is_unitary,
    logm_unitary,
    principal_sqrt_unitary,
    random_anti_hermitian,
    random_unitary,
    tensor,
    unitary_eig,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_tensor_identity():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_diagonal():
    assert np.allclose(tensor(SZ, SZ), np.diag([1, -1, -1, 1]))


def test_tensor_dimension_law():
    a = np.arange(4, dtype=complex).reshape(2, 2)
    b = np.arange(9, dtype=complex).reshape(3, 3)
    assert tensor(a, b).shape == (6, 6)


def test_tensor_block_structure():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1j], [5, 0]], dtype=complex)
    out = tensor(a, b)
    assert np.array_equal(out[0:2, 2:4], 2 * b)


def test_tensor_associative():
    rng = np.random.default_rng(7)
    # exact equality on integer-valued entries, 1 ulp tolerance in general
    a, b, c = (rng.integers(-3, 4, (2, 2)) + 1j * rng.integers(-3, 4, (2, 2)) for _ in range(3))
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), rtol=1e-15, atol=0)


def test_tensor_capacity():
    big = np.eye(100, dtype=complex)
    with pytest.raises(CapacityError):
        tensor(big, big, cap=4096)


def test_tensor_with_identity_keeps_spectrum():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2
    lam, _ = herm_eig(h)
    lam_left, _ = herm_eig(tensor(np.eye(2), h))
    lam_right, _ = herm_eig(tensor(h, np.eye(2)))
    doubled = np.sort(np.concatenate([lam, lam]))
    assert np.allclose(np.sort(lam_left), doubled, atol=1e-12)
    assert np.allclose(np.sort(lam_right), doubled, atol=1e-12)


def test_commutator_pauli_identity():
    assert np.allclose(commutator(SX, SY), 2j * SZ, atol=1e-14)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert frob_norm(commutator(a, a)) == 0.0


def test_anticommutator_gammas():
    g0, g1 = 1j * SX, 1j * SY
    assert frob_norm(anticommutator(g0, g1)) <= 1e-14
    assert np.allclose(anticommutator(g0, g0), -2 * I2, atol=1e-14)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(I2, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        anticommutator(I2, np.eye(3))


def test_frob_inner_values():
    assert frob_inner(1j * SX, 1j * SX) == pytest.approx(2.0)
    assert frob_inner(1j * SX, 1j * SY) == pytest.approx(0.0)
    assert frob_inner(I2, I2) == pytest.approx(2.0)


def test_frob_inner_positive_definite_on_anti_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_anti_hermitian(4, rng)
        assert frob_inner(a, a) > 0.0
        assert abs(frob_inner(a, a) - frob_norm(a) ** 2) < 1e-12


def test_predicates():
    assert is_hermitian(SX)
    assert is_anti_hermitian(1j * SX)
    assert is_unitary(SX)
    assert not is_hermitian(1j * SX)
    assert not is_unitary(2 * SX)


def test_herm_eig_sigma_z():
    lam, w = herm_eig(SZ)
    assert np.allclose(lam, [1.0, -1.0])
    assert np.allclose(w, np.eye(2))


def test_herm_eig_identity_multiplicity():
    lam, w = herm_eig(np.eye(4))
    assert np.allclose(lam, np.ones(4))
    assert np.allclose(w.conj().T @ w, np.eye(4), atol=1e-12)


def test_herm_eig_sigma_x_vectors():
    lam, w = herm_eig(SX)
    assert np.allclose(lam, [1.0, -1.0])
    assert np.allclose(np.abs(w), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-12)
    assert np.allclose(w[:, 0], np.array([1, 1]) / math.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_herm_eig_reconstruction(dim):
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    lam, w = herm_eig(h)
    assert np.all(np.diff(lam) <= 1e-12)
    assert frob_norm(h - (w * lam) @ w.conj().T) <= 1e-10 * max(frob_norm(h), 1.0)
    assert np.max(np.abs(w.conj().T @ w - np.eye(dim))) <= 1e-10
    # agreement with an independent solver
    ref = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(np.sort(lam), ref, atol=1e-10)


def test_herm_eig_dense_moderate_dimension():
    rng = np.random.default_rng(99)
    g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    h = (g + g.conj().T) / 2
    lam, w = herm_eig(h)
    assert frob_norm(h - (w * lam) @ w.conj().T) <= 1e-10 * frob_norm(h)
    assert np.allclose(np.sort(lam), np.sort(np.linalg.eigvalsh(h)), atol=1e-9)


def test_herm_eig_degenerate_spectrum():
    # -i G0 for three gamma pairs: eigenvalues +1 and -1, each four-fold
    h = -1j * clifford_gammas(3).by_id("G0").matrix
    lam, w = herm_eig(h)
    assert np.all(np.diff(lam) <= 0)
    assert np.allclose(lam, [1.0] * 4 + [-1.0] * 4, atol=1e-12)
    assert frob_norm(h - (w * lam) @ w.conj().T) <= 1e-12
    assert np.max(np.abs(w.conj().T @ w - np.eye(8))) <= 1e-12
    for col in w.T:
        pivot = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
        assert pivot.imag == 0.0 and pivot.real > 0.0
    lam2, w2 = herm_eig(h)
    assert np.array_equal(lam, lam2) and np.array_equal(w, w2)


def _tuple_sorted_order(values, w):
    """Reference ordering: values descending, ties by the columns' (re, im) parts."""
    def key(j):
        return (-values[j], tuple(p for x in w[:, j] for p in (x.real, x.imag)))
    return sorted(range(len(values)), key=key)


@pytest.mark.parametrize("case", ["gamma", "identity"])
def test_herm_eig_order_matches_tuple_sort(case):
    h = -1j * clifford_gammas(3).by_id("G0").matrix if case == "gamma" else np.eye(8, dtype=complex)
    lam, w = herm_eig(h)
    raw_lam, raw_w = np.linalg.eigh((h + h.conj().T) / 2.0)
    raw_w = _canonical_columns(raw_w)
    order = _tuple_sorted_order(raw_lam, raw_w)
    assert lam.tobytes() == raw_lam[order].tobytes()
    assert w.tobytes() == raw_w[:, order].tobytes()


def test_unitary_eig_order_matches_tuple_sort():
    phases, w = unitary_eig(np.diag([1, -1, 1j, -1j]))
    assert _tuple_sorted_order(phases, w) == [0, 1, 2, 3]
    assert np.allclose(phases, [np.pi, np.pi / 2, 0.0, -np.pi / 2], atol=1e-15)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(MatrixPropertyError):
        herm_eig(1j * SX)


def test_expm_zero_and_pauli():
    assert np.allclose(expm_antiherm(np.zeros((3, 3))), np.eye(3))
    out = expm_antiherm(0.5j * math.pi * SX)
    assert np.allclose(out, 1j * SX, atol=1e-12)


def test_expm_rejects_non_anti_hermitian():
    with pytest.raises(MatrixPropertyError):
        expm_antiherm(SX)


@pytest.mark.parametrize("dim", [2, 4, 9])
def test_expm_unitary_for_large_norm(dim):
    rng = np.random.default_rng(21 + dim)
    a = random_anti_hermitian(dim, rng)
    a *= 100.0 / frob_norm(a)
    u = expm_antiherm(a)
    assert is_unitary(u, tol=1e-10)


def test_logm_identity():
    assert frob_norm(logm_unitary(np.eye(3))) <= 1e-12


def test_logm_diag_phases():
    out = logm_unitary(np.diag([1j, -1j]))
    assert np.allclose(out, np.diag([0.5j * math.pi, -0.5j * math.pi]), atol=1e-12)


def test_logm_minus_identity_branch():
    with pytest.warns(BranchCutWarning):
        out = logm_unitary(-np.eye(2))
    assert np.allclose(out, 1j * math.pi * np.eye(2), atol=1e-12)


def test_logm_rejects_non_unitary():
    with pytest.raises(MatrixPropertyError):
        logm_unitary(2 * np.eye(2))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_expm_logm_roundtrip_random_unitary(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10):
        u = random_unitary(dim, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            again = expm_antiherm(logm_unitary(u))
        assert frob_norm(again - u) <= 1e-10


def test_logm_expm_identity_inside_branch():
    rng = np.random.default_rng(9)
    for dim in (2, 4, 9):
        a = random_anti_hermitian(dim, rng)
        phases, _ = unitary_eig(expm_antiherm(a / frob_norm(a)))
        scale = (math.pi - 1e-3) / frob_norm(a)
        a = a * min(scale, 0.3 / np.max(np.abs(phases)))
        assert frob_norm(logm_unitary(expm_antiherm(a)) - a) <= 1e-9


def test_unitary_eig_sqrt():
    rng = np.random.default_rng(17)
    u = random_unitary(4, rng)
    w = principal_sqrt_unitary(u)
    assert is_unitary(w, tol=1e-10)
    assert frob_norm(w @ w - u) <= 1e-10


def test_error_metrics():
    rng = np.random.default_rng(2)
    u = random_unitary(3, rng)
    assert error_metrics(u, u) == (0.0, pytest.approx(0.0, abs=1e-7))
    f, p = error_metrics(np.eye(2), 1j * np.eye(2))
    assert f == pytest.approx(2.0)
    assert p == pytest.approx(0.0, abs=1e-12)
    f, p = error_metrics(np.eye(2), SX)
    assert f == pytest.approx(2.0)
    assert p == pytest.approx(2.0)
