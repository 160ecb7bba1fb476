import tracemalloc

import numpy as np
import pytest

import liegates.generators as gen_mod
from liegates.errors import DimensionMismatchError, MatrixPropertyError
from liegates.generators import (
    GeneratorSet,
    Generator,
    clifford_gammas,
    clifford_plus_u,
    torus_T,
    torus_split_set,
    two_local_clifford_set,
    two_local_torus_set,
)
from liegates.lieclosure import (
    _BUILDERS,
    build_family,
    closure,
    dimension_table,
    membership,
    predicted_dimension,
    spin_subgroup_check,
)
from liegates.linalg import frob_inner, frob_norm, is_anti_hermitian, tensor

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 10), (3, 21)])
def test_gamma_closure_dimension(n, expected):
    assert closure(clifford_gammas(n)).dim == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_plus_extra_fills_traceless_algebra(n):
    basis = closure(clifford_plus_u(n))
    assert basis.dim == 4**n - 1
    assert basis.spans_su
    # every element is traceless: no commutator can carry trace
    assert all(abs(np.trace(b)) < 1e-10 for b in basis.basis)


@pytest.mark.parametrize("n", [2, 3])
def test_two_local_clifford_closure(n):
    basis = closure(two_local_clifford_set(n))
    assert basis.dim == 4**n - 1
    assert basis.spans_su


@pytest.mark.parametrize(
    "n,l,expected",
    [(1, 3, 8), (1, 4, 15), (2, 3, 80)],
)
def test_torus_split_closure(n, l, expected):
    basis = closure(torus_split_set(n, l))
    assert basis.dim == expected == l ** (2 * n) - 1
    assert basis.spans_su


def test_two_local_torus_closure():
    basis = closure(two_local_torus_set(2, 3))
    assert basis.dim == 80
    assert basis.spans_su


def test_closure_frame_sized_by_admitted_elements():
    gens = clifford_gammas(5)
    tracemalloc.start()
    try:
        basis = closure(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.dim == 55
    # a frame sized for u(32) would take 1024 rows of 16 KB
    assert peak < 8 * basis.dim * 32**2 * 16


def test_closure_rejects_non_anti_hermitian():
    with pytest.raises(MatrixPropertyError):
        closure(torus_T(1, 3))


def test_basis_orthonormal_and_anti_hermitian():
    basis = closure(two_local_clifford_set(2))
    stack = basis.stacked()
    gram = np.einsum("aij,bij->ab", stack.conj(), stack).real
    assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-9
    assert all(is_anti_hermitian(b, tol=1e-9) for b in basis.basis)


def test_closure_generations_and_determinism():
    a = closure(clifford_plus_u(2))
    b = closure(clifford_plus_u(2))
    assert a.dim == b.dim
    assert a.generations == b.generations
    assert all(np.array_equal(x, y) for x, y in zip(a.basis, b.basis))


def test_closure_monotone_under_extra_generator():
    assert closure(clifford_plus_u(2)).dim >= closure(clifford_gammas(2)).dim


def test_closure_invariant_under_gl_recombination():
    rng = np.random.default_rng(42)
    gens = clifford_gammas(2)
    mats = gens.matrices()
    while True:
        mix = rng.standard_normal((4, 4))
        if abs(np.linalg.det(mix)) > 0.1:
            break
    mixed = [
        Generator(f"M{i}", sum(mix[i, j] * mats[j] for j in range(4)), 2, "anti_hermitian")
        for i in range(4)
    ]
    mixed_set = GeneratorSet("gl_mix", 2, 2, mixed)
    assert closure(mixed_set).dim == 10


def test_closure_accepts_real_generators():
    # real antisymmetric rotation generators close on so(3)
    lx = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    ly = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
    gens = GeneratorSet("so3", 1, 3, [Generator("Lx", lx, 1, "anti_hermitian"),
                                      Generator("Ly", ly, 1, "anti_hermitian")])
    basis = closure(gens)
    assert basis.dim == 3
    assert basis.max_recipe_residual() <= 1e-12


def test_membership_basis_vector():
    basis = closure(clifford_gammas(2))
    res = membership(basis.basis[0], basis)
    assert res.member
    assert res.residual <= 1e-12
    expected = np.zeros(basis.dim)
    expected[0] = 1.0
    assert np.allclose(res.coefficients, expected, atol=1e-10)


def test_membership_basis_vector_non_orthogonal_basis():
    # torus (1, 4) tree values are not mutually orthogonal; coordinates come
    # from the triangular frame solve
    basis = closure(torus_split_set(1, 4))
    stack = basis.stacked()
    gram = np.einsum("aij,bij->ab", stack.conj(), stack).real
    assert np.max(np.abs(gram - np.eye(basis.dim))) > 0.1
    for k in range(basis.dim):
        res = membership(basis.basis[k], basis)
        assert res.member
        assert res.residual <= 1e-12
        expected = np.zeros(basis.dim)
        expected[k] = 1.0
        assert np.allclose(res.coefficients, expected, atol=1e-10)


def test_membership_pair_product_inside_rotation_algebra():
    # Gamma_1 Gamma_2 at n=2 equals -i sx (x) sx, so i sx (x) sx is a member
    basis = closure(clifford_gammas(2))
    gammas = clifford_gammas(2).matrices()
    pair = gammas[1] @ gammas[2]
    assert np.allclose(pair, -1j * tensor(SX, SX), atol=1e-12)
    assert membership(1j * tensor(SX, SX), basis).member


def test_membership_grade_four_direction_is_outside():
    # i sz (x) sz is a four-fold gamma product, outside the grade-(1,2) span
    basis = closure(clifford_gammas(2))
    res = membership(1j * tensor(SZ, SZ), basis)
    assert not res.member
    assert res.residual > 0.1


def test_membership_diagonal_pattern_outside():
    basis = closure(clifford_gammas(2))
    a = 1j * np.diag([1.0, 0.0, 0.0, 0.0])
    a -= np.trace(a) / 4 * np.eye(4)
    res = membership(a, basis)
    assert not res.member
    assert res.residual > 0.1


def test_membership_center_never_generated():
    # tr[a, b] = 0, so the closure stays traceless and i*I is not a member
    for gens in (clifford_plus_u(2), torus_split_set(1, 3)):
        basis = closure(gens)
        assert basis.spans_su
        res = membership(1j * np.eye(basis.matrix_dim), basis)
        assert not res.member
        assert res.residual == pytest.approx(
            frob_norm(1j * np.eye(basis.matrix_dim)), rel=1e-9
        )


def test_membership_validation():
    basis = closure(clifford_gammas(1))
    with pytest.raises(DimensionMismatchError):
        membership(np.zeros((4, 4)), basis)
    with pytest.raises(MatrixPropertyError):
        membership(SX, basis)


def test_two_local_set_recovers_every_gamma():
    basis = closure(two_local_clifford_set(2))
    for el in clifford_gammas(2).elements:
        assert membership(el.matrix, basis).member


@pytest.mark.parametrize("label,n,l", [
    ("clifford_full", 2, 2),
    ("clifford_plus_u", 2, 2),
    ("clifford_two_local", 3, 2),
    ("torus_splits", 1, 3),
    ("torus_splits", 1, 4),
    ("torus_two_local", 2, 3),
])
def test_recipes_reproduce_basis(label, n, l):
    from liegates.lieclosure import build_family

    basis = closure(build_family(label, n, l))
    assert all(r.exact for r in basis.recipes)
    assert basis.max_recipe_residual() <= 1e-8


def test_recipe_sexpr_shape():
    basis = closure(two_local_clifford_set(2))
    exprs = [basis.sexpr(i) for i in range(basis.dim)]
    assert "G0" in exprs
    assert any(e.startswith("(comm ") for e in exprs)
    depths = [basis.depth(i) for i in range(basis.dim)]
    assert max(depths) >= 1 and min(depths) == 0


def test_build_family_calls_constructor_by_module_name(monkeypatch):
    # a wrapper bound on the generators module (as a tracer installs one)
    # must see the build
    calls = []
    orig = gen_mod.torus_split_set

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(gen_mod, "torus_split_set", counting)
    assert build_family("torus_splits", 1, 3).family == "torus_splits"
    assert calls == [(1, 3)]
    assert list(_BUILDERS) == [
        "pauli", "weyl", "tau", "torus_full", "clifford_full", "clifford_plus_u",
        "clifford_two_local", "torus_splits", "torus_two_local"]


def test_predicted_dimensions():
    assert predicted_dimension("clifford_full", 3, 2) == 21
    assert predicted_dimension("clifford_plus_u", 2, 2) == 16
    assert predicted_dimension("torus_splits", 2, 3) == 81


def test_dimension_table_shape_and_honesty():
    rows = dimension_table(max_n=2, torus_cases=((1, 3),))
    by_key = {(r["family"], r["n"], r["l"]): r for r in rows}
    assert by_key[("clifford_full", 2, 2)]["dim"] == 10
    assert by_key[("clifford_full", 2, 2)]["match"]
    # traceless closures land one short of the published u(N) counts and
    # match them as su(N) plus the centre
    row = by_key[("clifford_plus_u", 2, 2)]
    assert row["dim"] == 15 and row["predicted"] == 16 and row["match"]
    assert row["spans_su"]
    row = by_key[("torus_splits", 1, 3)]
    assert row["dim"] == 8 and row["predicted"] == 9 and row["match"]
    assert row["spans_su"]
    assert all(r["match"] for r in rows)
    assert all("seconds" not in r for r in rows)


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 10), (3, 21)])
def test_spin_subgroup_check(n, expected):
    report = spin_subgroup_check(n)
    assert report["dim"] == expected
    assert report["gamma_count"] + report["pair_count"] == expected
    assert report["span_match"]
    assert report["ok"]
