import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liegates.generators as gen_mod
import liegates.lieclosure as lieclosure_mod
from liegates.config import DEFAULTS
from liegates.errors import DimensionMismatchError, MatrixPropertyError
from liegates.generators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
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
    _pauli_keys,
    LieBasis,
    Recipe,
    build_family,
    closure,
    dimension_table,
    membership,
    predicted_dimension,
    spin_subgroup_check,
)
from liegates.linalg import (as_matrix, commutator, frob_inner, frob_norm, is_anti_hermitian,
                             tensor, tensor_all)
from liegates.symalg import span_dimension

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
    # a frame sized for u(32) would take 1024 rows of 16 KB; the sweep holds no
    # second stack beside the one it writes at the end
    assert peak < 1.75 * basis.dim * 32**2 * 16


def test_closure_rejects_non_anti_hermitian():
    with pytest.raises(MatrixPropertyError):
        closure(torus_T(1, 3))


def _x_and_z(scale):
    return GeneratorSet("xz", 1, 2, [Generator("X", scale * 1j * SX, 1, "anti_hermitian"),
                                     Generator("Z", 1j * SZ, 1, "anti_hermitian")])


def test_closure_refuses_generator_whose_norm_overflows():
    with pytest.raises(MatrixPropertyError, match="generator X"):
        closure(_x_and_z(1e200))


def test_closure_of_large_finite_generator():
    # |1e150 X|^2 = 2e300 is still finite: su(2), every element finite
    basis = closure(_x_and_z(1e150))
    assert basis.dim == 3 and basis.spans_su
    assert np.isfinite(basis.basis).all() and np.isfinite(basis.tri).all()


def test_basis_orthonormal_and_anti_hermitian():
    basis = closure(two_local_clifford_set(2))
    stack = basis.basis
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


def _so3():
    # real antisymmetric rotation generators
    lx = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    ly = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
    return GeneratorSet("so3", 1, 3, [Generator("Lx", lx, 1, "anti_hermitian"),
                                      Generator("Ly", ly, 1, "anti_hermitian")])


def test_closure_accepts_real_generators():
    basis = closure(_so3())
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
    stack = basis.basis
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


def test_membership_result_is_true_exactly_for_members():
    basis = closure(clifford_gammas(2))
    assert membership(basis.basis[0], basis)
    assert not membership(1j * tensor(SZ, SZ), basis)


def test_membership_in_a_zero_dimensional_closure():
    # only the zero matrix is a member; anything else is its own residual
    zero = GeneratorSet("user", 1, 2, [Generator("O", np.zeros((2, 2), complex), 1,
                                                 "anti_hermitian")])
    basis = closure(zero)
    assert basis.dim == 0
    res = membership(np.zeros((2, 2)), basis)
    assert res.member and res.residual == 0.0 and res.coefficients.shape == (0,)
    res = membership(np.diag([1j, -1j]), basis)
    assert not res.member and res.residual == frob_norm(np.diag([1j, -1j]))


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
    rows = dimension_table(max_n=2)
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


def test_dimension_table_refuses_names_it_cannot_tabulate():
    # an unknown name and a family with no closure prediction would tabulate nothing
    with pytest.raises(ValueError, match="'nope'"):
        dimension_table(max_n=1, families=("nope",))
    with pytest.raises(ValueError, match="'pauli'"):
        dimension_table(max_n=1, families=("pauli",))
    with pytest.raises(ValueError, match="'nope', 'weyl'"):
        dimension_table(max_n=1, families=("clifford_full", "nope", "weyl"))
    rows = dimension_table(max_n=1, families=("clifford_full", "clifford_plus_u"))
    assert [(r["family"], r["n"], r["l"]) for r in rows] == [
        ("clifford_full", 1, 2), ("clifford_plus_u", 1, 2)]
    assert all(r["match"] for r in rows)


@pytest.mark.parametrize("call, good", [
    (lambda v: build_family("clifford_full", v), 1),
    (lambda v: build_family("torus_splits", 1, v), 3),
    (lambda v: dimension_table(max_n=v, families=("clifford_full",)), 1),
    (lambda v: span_dimension(v, 1), 2),
    (lambda v: span_dimension(2, v), 1),
], ids=["build_family-n", "build_family-l", "dimension_table-max_n", "span_dimension-l",
        "span_dimension-n"])
def test_counts_are_integers(call, good):
    # a float, even a whole one, and a bool are refused before any work; numpy integers pass
    for bad in (1.5, float(good), True, str(good)):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    call(np.int64(good))


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 10), (3, 21)])
def test_spin_subgroup_check(n, expected):
    report = spin_subgroup_check(n)
    assert report["dim"] == expected
    assert report["gamma_count"] + report["pair_count"] == expected
    assert report["span_match"]
    assert report["ok"]


# ---------------------------------------------------------------------------
# the batched sweep against the all-pairs reference
# ---------------------------------------------------------------------------

def _all_pairs_closure(gens, tol=None):
    """Reference closure: every pair i < j of a generation decided in turn."""
    tol = DEFAULTS.closure_tol if tol is None else tol
    n_dim = gens.dim
    thresh = tol * n_dim
    cap = n_dim * n_dim
    buf = np.empty((len(gens.elements), n_dim, n_dim), dtype=complex)
    flat = buf.reshape(len(buf), -1).view(float)
    cols, elems = [], []
    out = LieBasis(matrix_dim=n_dim,
                   generator_matrices={el.id: el.matrix for el in gens.elements})

    def admit(c, recipe, generation):
        nonlocal buf, flat
        k = len(elems)
        norm_c = frob_norm(c)
        if norm_c <= thresh:
            return False
        r, coeffs = c, np.zeros(k)
        for _ in range(2):
            step = flat[:k] @ r.reshape(-1).view(float)
            r = r - (step @ flat[:k]).view(complex).reshape(c.shape)
            coeffs += step
        norm_r = frob_norm(r)
        if norm_r <= thresh:
            return False
        b = c / norm_c
        if k == len(buf):
            buf = np.resize(buf, (2 * k, n_dim, n_dim))
            flat = buf.reshape(2 * k, -1).view(float)
        buf[k] = r / norm_r
        cols.append(np.append(coeffs, norm_r) / norm_c)
        elems.append(b)
        out.recipes.append(replace(recipe, coeff=frob_inner(b, c)))
        out.generations.append(generation)
        return True

    for el in gens.elements:
        admit(as_matrix(el.matrix), Recipe("leaf", gen_id=el.id), 0)
    frontier = list(range(len(elems)))
    generation = 0
    while frontier and len(elems) < cap:
        generation += 1
        admitted = []
        for j in frontier:
            for i in range(j):
                c = commutator(elems[i], elems[j])
                if admit(c, Recipe("comm", left=i, right=j), generation):
                    admitted.append(len(elems) - 1)
        frontier = admitted
    out.basis = np.stack(elems)
    out.frame = buf[:out.dim].copy()
    out.tri = np.zeros((out.dim, out.dim))
    for m, col in enumerate(cols):
        out.tri[:m + 1, m] = col
    return out


def _with_extra(gens, gen_id, matrix):
    extra = Generator(gen_id, matrix, gens.n, "anti_hermitian")
    return GeneratorSet(f"{gens.family}+{gen_id}", gens.n, gens.l, list(gens.elements) + [extra])


def _with_centre(gens):
    # one generator carrying a trace: the closure must reach u(N), not stop at su(N)
    return _with_extra(gens, "C", 1j * np.eye(gens.dim))


# the torus sets at l = 2, whose roots of unity are exact quarter turns
BINARY_TORUS_SETS = [("torus_splits", n) for n in (1, 2, 3)] + [
    ("torus_two_local", n) for n in (2, 3)]

# the rows of dimension_table(max_n=3), then su(16)
TABLE_ROWS = [
    ("clifford_full", 1, 2), ("clifford_full", 2, 2), ("clifford_full", 3, 2),
    ("clifford_plus_u", 1, 2), ("clifford_plus_u", 2, 2), ("clifford_plus_u", 3, 2),
    ("clifford_two_local", 2, 2), ("clifford_two_local", 3, 2),
    ("torus_splits", 1, 3), ("torus_splits", 1, 4), ("torus_splits", 2, 3),
    ("torus_two_local", 2, 3), ("clifford_plus_u", 4, 2),
]
ORACLE_CASES = [(f"{label}-{n}-{l}", partial(build_family, label, n, l), None)
                for label, n, l in TABLE_ROWS] + [
    ("clifford_plus_u-2-2-with-centre", lambda: _with_centre(clifford_plus_u(2)), None),
    ("clifford_plus_u-2-2-tol-1e-3", lambda: clifford_plus_u(2), 1e-3),
    # tol * N = 1.5 lies between the commutator norm 2/sqrt(N) = 1 and the
    # leaf norms 2: every leaf is admitted and every commutator refused
    ("clifford_plus_u-2-2-tol-0.375", lambda: clifford_plus_u(2), 0.375),
    ("torus_splits-2-3-tol-1e-3", lambda: torus_split_set(2, 3), 1e-3),
    ("so3", _so3, None),
    # the l = 2 torus sets are exact Pauli sets: the bit filter against the oracle
    *[(f"{label}-{n}-2", partial(build_family, label, n, 2), None)
      for label, n in BINARY_TORUS_SETS],
    # a second generator on the string of G0, whose leaf is refused
    ("clifford_plus_u-2-2-duplicate-string", lambda: _with_extra(
        clifford_plus_u(2), "G0x2.5", 2.5 * clifford_plus_u(2).matrices()[0]), None),
    # one sum of two strings sends the whole set to the frame filter
    ("clifford_gammas-2-one-non-pauli", lambda: _with_extra(
        clifford_gammas(2), "GuG0", gen_mod.gamma_u(2) + 0.5 * clifford_gammas(2).matrices()[0]),
     None),
]


def test_oracle_rows_are_the_dimension_table():
    rows = [(r["family"], r["n"], r["l"]) for r in dimension_table(max_n=3)]
    assert rows + [("clifford_plus_u", 4, 2)] == TABLE_ROWS


@pytest.mark.parametrize("make, tol", [case[1:] for case in ORACLE_CASES],
                         ids=[case[0] for case in ORACLE_CASES])
def test_batched_sweep_matches_all_pairs_reference(make, tol):
    gens = make()
    _assert_same_closure(closure(gens, tol=tol), _all_pairs_closure(gens, tol=tol))


def _reference_rounding(n_dim):
    """What the reference's two Gram-Schmidt passes may leave off an exact Pauli frame.

    Each pass's coefficients are dot products of m = 2 N^2 reals between
    unit vectors whose exact product is 0, so each is off by at most
    gamma_m = m u / (1 - m u).  A frame entry takes such a coefficient
    from each of the at most N rows on its support, times an entry of
    1/sqrt(N): sqrt(N) gamma_m per pass, two passes.
    """
    m, u = 2 * n_dim * n_dim, np.finfo(float).eps / 2
    return 2 * np.sqrt(n_dim) * m * u / (1 - m * u)


def _assert_same_closure(got, want):
    assert got.dim == want.dim
    assert all(np.array_equal(x, y) for x, y in zip(got.basis, want.basis))
    if got.pauli:
        # rows filled from the string keys carry the dense product's zero
        # signs too; each element is a view of its frame row
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got.basis, want.basis))
        assert all(np.shares_memory(b, got.frame) for b in got.basis)
        # the frame is the basis stack and tri the identity; the reference's
        # Gram-Schmidt leaves rounding off them, within _reference_rounding
        assert got.frame.tobytes() == got.basis.tobytes()
        assert np.array_equal(got.tri, np.eye(got.dim))
        bound = _reference_rounding(got.matrix_dim)
        assert np.max(np.abs(got.frame - want.frame), initial=0.0) <= bound
        assert np.max(np.abs(got.tri - want.tri), initial=0.0) <= bound
    else:
        # each element is a view of one basis stack, which is not the frame
        if got.dim:
            stack = got.basis[0].base
            assert all(b.base is stack and np.shares_memory(b, stack) for b in got.basis)
            assert not np.shares_memory(stack, got.frame)
        assert np.array_equal(got.frame, want.frame)
        assert np.array_equal(got.tri, want.tri)
    assert got.recipes == want.recipes
    assert all(type(r.left) is type(s.left) for r, s in zip(got.recipes, want.recipes))
    assert got.generations == want.generations
    # the reference stores no keys: its residual re-forms every tree value densely
    assert got.max_recipe_residual() == want.max_recipe_residual()


@pytest.mark.parametrize("gens", [clifford_plus_u(2), torus_split_set(1, 3)],
                         ids=["pauli", "torus"])
def test_basis_is_one_element_array(gens):
    basis = closure(gens)
    assert isinstance(basis.basis, np.ndarray)
    assert basis.basis.shape == (basis.dim, basis.matrix_dim, basis.matrix_dim)
    # on a Pauli set the elements are the frame; otherwise the frame is apart
    assert (basis.basis is basis.frame) == basis.pauli


def test_traced_generator_closes_on_u_n():
    basis = closure(_with_centre(clifford_plus_u(2)))
    assert basis.dim == 16
    assert membership(1j * np.eye(4), basis).member


def test_exact_commutators_bounded_by_admissions(monkeypatch):
    # the all-pairs sweep recomputed 1953 commutators for 56 admitted
    calls = []
    orig = lieclosure_mod.commutator

    def counting(a, b):
        calls.append(1)
        return orig(a, b)

    monkeypatch.setattr(lieclosure_mod, "commutator", counting)
    basis = closure(clifford_plus_u(3))
    admitted = basis.dim - basis.generations.count(0)
    assert admitted == 56
    assert len(calls) <= 2 * admitted


def _closure_counting_commutators(monkeypatch, gens):
    # the dense sweep forms its exact commutators with _bracket, which skips
    # the validation of linalg.commutator; both are counted
    calls = []
    for name in ("commutator", "_bracket"):
        def counting(a, b, orig=getattr(lieclosure_mod, name)):
            calls.append(1)
            return orig(a, b)

        monkeypatch.setattr(lieclosure_mod, name, counting)
    return closure(gens), len(calls)


def test_pauli_path_forms_no_dense_commutator(monkeypatch):
    # a Pauli set's commutators are filled from the two string keys
    basis, calls = _closure_counting_commutators(monkeypatch, clifford_plus_u(3))
    assert basis.pauli and basis.spans_su
    assert calls == 0


def test_dense_filter_bounded_by_admissions(monkeypatch):
    # torus (2, 3) has no string structure: its commutators are formed densely
    basis, calls = _closure_counting_commutators(monkeypatch, torus_split_set(2, 3))
    admitted = basis.dim - basis.generations.count(0)
    assert not basis.pauli and admitted == 72
    assert calls <= 2 * admitted


def _exact_frame_candidates(stack, j, frame, herm, half):
    """The filter with each [b_i, b_j] formed exactly, one pair at a time: the reference."""
    keep = []
    for i in range(j):
        c = (stack[i] @ stack[j] - stack[j] @ stack[i]).reshape(-1).view(float)
        if np.linalg.norm(c - (c @ frame.T) @ frame) > half:
            keep.append(i)
    return keep


def test_filter_margin_keeps_what_the_exact_filter_keeps(monkeypatch):
    # A = i IZ + eps XI is anti-Hermitian only to within the tolerance, and
    # B = i ZI commutes with i IZ, so [b_A, b_B] = (eps/4) i [XI, ZI] = (eps/2) YI:
    # Hermitian, of norm eps, and off the span.  P - P^dag, P = b_A b_B, is
    # 0: only the margin |b_A + b_A^dag| = 2 eps keeps the pair
    eps = 4e-10
    gens = GeneratorSet("near_anti_hermitian", 2, 2, [
        Generator("A", 1j * _string("IZ") + eps * _string("XI"), 2, "anti_hermitian"),
        Generator("B", 1j * _string("ZI"), 2, "anti_hermitian")])
    assert is_anti_hermitian(gens.elements[0].matrix)
    assert not is_anti_hermitian(gens.elements[0].matrix, tol=eps)
    tol = 5e-11         # thresh/2 = 1e-10, below eps
    got = closure(gens, tol=tol)
    b_a, b_b = got.basis[:2]
    p = b_a @ b_b
    assert frob_norm(p - p.conj().T) <= tol * gens.dim / 2
    assert (got.recipes[2].left, got.recipes[2].right) == (0, 1)
    monkeypatch.setattr(lieclosure_mod, "_frame_candidates", _exact_frame_candidates)
    _assert_same_closure(got, closure(gens, tol=tol))
    _assert_same_closure(got, _all_pairs_closure(gens, tol=tol))


def _scaled_strings():
    # clifford_plus_u(3) with its generators scaled: after normalisation the
    # commutator norms differ in their last bits
    base = clifford_plus_u(3)
    scales = (1.0, 3.0, 0.7, 1.3, 0.1, 7.0, 2.2)
    return GeneratorSet("scaled", 3, 2, [Generator(el.id, s * el.matrix, 3, "anti_hermitian")
                                         for el, s in zip(base.elements, scales)])


def _between_commutator_norms(gens):
    """tol whose threshold lies between the two shortest commutator norms of the closure."""
    basis = closure(gens)
    norms = sorted({frob_norm(commutator(basis.basis[i], basis.basis[j]))
                    for j in range(basis.dim) for i in range(j)} - {0.0})
    return (norms[0] + norms[1]) / 2 / gens.dim


@pytest.mark.parametrize("make, tol", [
    (lambda: clifford_plus_u(3), None),
    (lambda: two_local_clifford_set(3), None),
    (lambda: clifford_plus_u(2), 0.375),
    (_scaled_strings, None),
    # some first pairs of a key are refused as too short, and the key's next pair decides
    (_scaled_strings, "between"),
], ids=["clifford_plus_u-3", "clifford_two_local-3", "tol-0.375", "scaled", "scaled-between"])
@pytest.mark.parametrize("pairs", [1, 7])
def test_chunked_pauli_sweep_matches_all_pairs_reference(monkeypatch, make, tol, pairs):
    # a pair budget this small splits every generation into many chunks
    gens = make()
    tol = _between_commutator_norms(gens) if tol == "between" else tol
    monkeypatch.setattr(lieclosure_mod, "_PAIRS", pairs)
    got = closure(gens, tol=tol)
    assert got.pauli
    _assert_same_closure(got, _all_pairs_closure(gens, tol=tol))
    if make is _scaled_strings and tol is not None:
        # generation 1 keeps some commutators, not all of the default's
        assert 0 < got.generations.count(1) < closure(gens).generations.count(1)


def test_membership_holds_no_copy_of_the_frame():
    basis = closure(build_family("clifford_two_local", 5, 2))
    m = 0.3 * basis.basis[5] + basis.basis[100]
    tracemalloc.start()
    try:
        res = membership(m, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.member and basis.frame.nbytes > 16e6
    assert peak < basis.frame.nbytes / 16


def test_su64_closure_holds_one_basis_stack():
    # 4095 elements of 64 KB: the stack is 268 MB, written once, and the sweep holds
    # keys and scalars beside it, no second stack
    gens = build_family("clifford_two_local", 6, 2)
    tracemalloc.start()
    try:
        basis = closure(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.pauli and basis.dim == 4095 and basis.spans_su
    assert peak < basis.basis.nbytes + 16e6


# ---------------------------------------------------------------------------
# the Pauli-string filter
# ---------------------------------------------------------------------------

_PAULI_LETTERS = {"I": np.eye(2, dtype=complex), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _string(letters: str) -> np.ndarray:
    return tensor_all([_PAULI_LETTERS[a] for a in letters])


def _scaled_pauli_set(strings, scales):
    els = [Generator(f"P{k}", 1j * s * _string(a), len(a), "anti_hermitian")
           for k, (a, s) in enumerate(zip(strings, scales))]
    return GeneratorSet("pauli_strings", len(strings[0]), 2, els)


@st.composite
def _pauli_sets(draw):
    n = draw(st.integers(1, 3))
    strings = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=2, max_size=6))
    scale = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
    return _scaled_pauli_set(strings, [draw(scale) for _ in strings])


@settings(max_examples=60, deadline=None)
@given(_pauli_sets())
# the reference's tri is off the identity by 1.096e-16 here
@example(_scaled_pauli_set(["IXX", "ZZZ", "ZXX"], [float.fromhex(h) for h in (
    "0x1.873064b1a69ddp-8", "0x1.167ae2bf494fap+3", "0x1.6ea61f3bcbabdp+4")]))
def test_random_pauli_sets_match_all_pairs_reference(gens):
    assert _pauli_keys(np.stack(gens.matrices())) is not None
    _assert_same_closure(closure(gens), _all_pairs_closure(gens))


def test_detector_reads_scaled_string():
    # X Y Z: x bits 110, z bits 011 (Y = i X Z), the first factor on the high bit
    keys = _pauli_keys(np.stack([3j * _string("XYZ"), -0.5j * _string("III")]))
    assert keys.tolist() == [(0b110 << 3) | 0b011, 0]


def _moved(m: np.ndarray, row: int, col: int) -> np.ndarray:
    out = m.copy()
    out[row, col] += 1e-15
    return out


@pytest.mark.parametrize("mats", [
    [1j * (_string("XI") + _string("ZI"))],
    [_moved(1j * _string("XY"), 0, 0)],
    # row 0 of X Y holds its one nonzero entry, 1, at column x = 0b11
    [1j * _string("YZ"), _moved(1j * _string("XY"), 0, 3)],
    [np.asarray(el.matrix, dtype=complex) for el in _so3().elements],
], ids=["sum-of-two-strings", "entry-moved-1e-15", "nonzero-entry-moved-1e-15", "so3"])
def test_detector_rejects_non_pauli(mats):
    assert _pauli_keys(np.stack(mats)) is None


@pytest.mark.parametrize("label, n", BINARY_TORUS_SETS,
                         ids=[f"{label}-{n}-2" for label, n in BINARY_TORUS_SETS])
def test_detector_accepts_binary_torus(label, n):
    assert _pauli_keys(np.stack(build_family(label, n, 2).matrices())) is not None


def test_only_non_pauli_sets_use_the_frame_filter(monkeypatch):
    calls = []
    orig = lieclosure_mod._frame_candidates

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(lieclosure_mod, "_frame_candidates", counting)
    for label, n, l in TABLE_ROWS + [(label, n, 2) for label, n in BINARY_TORUS_SETS]:
        if l == 2:
            closure(build_family(label, n, l))
    assert calls == []
    closure(torus_split_set(2, 3))
    assert calls


PAULI_FLAG_CASES = TABLE_ROWS + [(label, n, 2) for label, n in BINARY_TORUS_SETS]


@pytest.mark.parametrize("label, n, l", PAULI_FLAG_CASES,
                         ids=[f"{label}-{n}-{l}" for label, n, l in PAULI_FLAG_CASES])
def test_closure_flags_the_pauli_path(label, n, l):
    # the compiler reads this flag to pick exact words; every l = 2 set is Pauli
    assert closure(build_family(label, n, l)).pauli is (l == 2)


def test_pauli_flag_is_off_for_other_sets():
    one_non_pauli = _with_extra(clifford_gammas(2), "GuG0",
                                gen_mod.gamma_u(2) + 0.5 * clifford_gammas(2).matrices()[0])
    assert closure(one_non_pauli).pauli is False
    assert closure(_so3()).pauli is False
    assert LieBasis(matrix_dim=2, generator_matrices={}).pauli is False


# ---------------------------------------------------------------------------
# the breadth-first record: tree heights and scales read off in one pass
# ---------------------------------------------------------------------------

# both run on PAULI_FLAG_CASES: every dimension-table row, su(16) and every l = 2 torus set
def _tree_height(basis, i):
    r = basis.recipes[i]
    if r.kind == "leaf":
        return 0
    return 1 + max(_tree_height(basis, r.left), _tree_height(basis, r.right))


def _tree_scale(basis, i):
    r = basis.recipes[i]
    if r.kind == "leaf":
        return r.coeff
    return r.coeff * _tree_scale(basis, r.left) * _tree_scale(basis, r.right)


@pytest.mark.parametrize("label, n, l", PAULI_FLAG_CASES,
                         ids=[f"{label}-{n}-{l}" for label, n, l in PAULI_FLAG_CASES])
def test_depth_is_the_recipe_tree_height(label, n, l):
    basis = closure(build_family(label, n, l))
    assert [basis.depth(i) for i in range(basis.dim)] == [
        _tree_height(basis, i) for i in range(basis.dim)]
    assert all(r.kind == "leaf" or max(r.left, r.right) < i
               for i, r in enumerate(basis.recipes))


@pytest.mark.parametrize("label, n, l", PAULI_FLAG_CASES,
                         ids=[f"{label}-{n}-{l}" for label, n, l in PAULI_FLAG_CASES])
def test_recipe_scales_are_the_recursive_coeff_products(label, n, l):
    basis = closure(build_family(label, n, l))
    # the same products in the same order: equal float for float
    assert basis.recipe_scales() == [_tree_scale(basis, i) for i in range(basis.dim)]
