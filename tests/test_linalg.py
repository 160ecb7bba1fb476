import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from liegates import linalg
from liegates.errors import (
    BranchCutWarning,
    CapacityError,
    DimensionMismatchError,
    MatrixPropertyError,
)
from liegates.generators import ANTI_HERMITIAN, FAMILIES, clifford_gammas, tau, torus_T, weyl_pair
from liegates.lieclosure import closure
from liegates.linalg import (
    _canonical_columns,
    _descending_order,
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
from liegates.symalg import span_dimension

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


def test_tensor_matches_np_kron_byte_for_byte():
    rng = np.random.default_rng(17)
    for p, q in ((1, 3), (2, 4), (4, 2), (3, 9), (2, 27), (27, 1), (5, 7)):
        a, b = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (p, q))
        out = tensor(a, b)
        assert out.flags.c_contiguous
        assert out.tobytes() == np.kron(a, b).tobytes()


def test_tensor_capacity():
    big = np.eye(100, dtype=complex)
    with pytest.raises(CapacityError):
        tensor(big, big)


# every caller of check_capacity, refused under a cap of 4 before allocating
@pytest.mark.parametrize("build", [
    lambda: tensor(np.eye(3), np.eye(2)),
    lambda: weyl_pair(5),
    lambda: tau(5),
    lambda: torus_T(1, 5),
    lambda: clifford_gammas(3),
    lambda: span_dimension(5, 1),
    lambda: span_dimension(2, 3),
    lambda: closure(clifford_gammas(2)),
], ids=["tensor", "weyl_pair", "tau", "torus_T", "clifford_gammas", "span_l", "span_n",
        "closure"])
def test_capacity_refused_by_every_caller(monkeypatch, build):
    monkeypatch.setattr(linalg, "DEFAULTS", replace(linalg.DEFAULTS, dim_cap=4))
    with pytest.raises(CapacityError, match="exceeds cap 4"):
        build()


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


def _norm_inputs():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    big = rng.standard_normal((40, 33)) + 1j * rng.standard_normal((40, 33))
    return {
        "complex128": z,
        "float64": z.real.copy(),
        "integer": np.arange(-12, 13).reshape(5, 5),
        "transposed": z.T,
        "strided": big[::3, 1::2],
        "real-view-of-complex": big.real,
        "stack": rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)),
        "empty-complex": np.zeros((0, 0), dtype=complex),
        "empty-float": np.zeros(0),
    }


@pytest.mark.parametrize("name", list(_norm_inputs()))
def test_frob_norm_is_numpy_norm_bit_for_bit(name):
    a = _norm_inputs()[name]
    got, want = frob_norm(a), float(np.linalg.norm(a))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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


@pytest.mark.parametrize("solver", [herm_eig, unitary_eig])
def test_eigensolvers_reject_nan(solver):
    m = np.eye(3, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(MatrixPropertyError):
        solver(m)


def _column_loop_canonical(w):
    """Reference: each column rotated in place by its own unit factor, one at a time."""
    w = w.copy()
    for j in range(w.shape[1]):
        col = w[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-8)
        if idx.size:
            pivot = col[idx[0]]
            col *= np.conj(pivot) / abs(pivot)
    return w


FAMILY_CASES = [(label, n, l) for label, family in FAMILIES.items() for n in (1, 2) for l in (2, 3)
                if all(family.pinned.get(k, v) == v and v >= family.least[k]
                       for k, v in (("n", n), ("l", l)))]
SEEDED_KINDS = ("random", "small", "near_diagonal")


def _family_hermitians(label, n, l):
    """-i A for each anti-Hermitian generator of the family, else A + A^dag."""
    for el in FAMILIES[label].build(n, l).elements:
        a = el.matrix
        yield -1j * a if el.hermiticity == ANTI_HERMITIAN else a + a.conj().T


def _seeded_hermitian(kind, dim, k):
    """A random Hermitian matrix of size dim; "small" scales it to 1e-12, and
    "near_diagonal" has eigenvectors with entries near the 1e-8 pivot cut."""
    rng = np.random.default_rng([24, dim, k])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    if kind == "small":
        return 1e-12 * h
    if kind == "near_diagonal":
        return np.diag(np.arange(dim) + 1.0) + 1e-8 * h
    return h


def _assert_core_bits(h):
    # one vectorised multiply rotates what the per-column loop rotated
    lam, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    ref = _column_loop_canonical(v)
    assert _canonical_columns(v).tobytes() == ref.tobytes()
    order = _descending_order(lam, ref)
    lam_h, w_h = herm_eig(h)
    assert lam_h.tobytes() == lam[order].tobytes()
    assert w_h.tobytes() == ref[:, order].tobytes()


@pytest.mark.parametrize("dim", range(2, 17))
def test_core_bits_on_seeded_hermitians(dim):
    for kind in SEEDED_KINDS:
        for k in range(3):
            _assert_core_bits(_seeded_hermitian(kind, dim, k))


@pytest.mark.parametrize("label, n, l", FAMILY_CASES)
def test_core_bits_on_family_generators(label, n, l):
    for h in _family_hermitians(label, n, l):
        _assert_core_bits(h)


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
