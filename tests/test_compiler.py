import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from liegates import compiler as compiler_mod
from liegates.compiler import (
    _CHUNK,
    CompileConfig,
    GateSequence,
    _eig_table,
    _linearise,
    _slice_items,
    _word_product,
    compile,
    compile_report,
    evaluate,
    gate_matrix,
    merge_adjacent,
)
from liegates.errors import (
    CapacityError,
    DepthExhaustedError,
    FamilyMismatchError,
    MatrixPropertyError,
    NotMemberError,
    UnknownGeneratorError,
)
from liegates.generators import (
    ANTI_HERMITIAN,
    FAMILIES,
    Generator,
    GeneratorSet,
    clifford_gammas,
    torus_T,
    two_local_clifford_set,
    two_local_torus_set,
)
from liegates.lieclosure import build_family, closure, membership
from liegates.linalg import (
    expm_antiherm,
    frob_norm,
    is_unitary,
    logm_unitary,
    phase_invariant_dist,
    random_anti_hermitian,
    random_unitary,
    tensor,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@pytest.fixture(scope="module")
def two_local():
    gens = two_local_clifford_set(2)
    return gens, closure(gens)


@pytest.fixture(scope="module")
def gamma_only():
    gens = clifford_gammas(2)
    return gens, closure(gens)


def test_evaluate_empty_is_identity(two_local):
    gens, _ = two_local
    assert np.allclose(evaluate([], gens), np.eye(4))


def test_evaluate_inverse_pair(two_local):
    gens, _ = two_local
    out = evaluate([("G0", 0.7), ("G0", -0.7)], gens)
    assert frob_norm(out - np.eye(4)) <= 1e-10


def test_evaluate_matches_expm(two_local):
    gens, _ = two_local
    out = evaluate([("G0", 0.3)], gens)
    assert frob_norm(out - expm_antiherm(0.3 * gens.by_id("G0").matrix)) <= 1e-12


def test_evaluate_order_is_left_to_right(two_local):
    gens, _ = two_local
    a = gate_matrix(gens, "G0", 0.4)
    b = gate_matrix(gens, "G0G1", -0.2)
    out = evaluate([("G0", 0.4), ("G0G1", -0.2)], gens)
    assert frob_norm(out - a @ b) <= 1e-12


def test_evaluate_unknown_id(two_local):
    gens, _ = two_local
    with pytest.raises(UnknownGeneratorError):
        evaluate([("nope", 1.0)], gens)


@pytest.mark.parametrize("length", [0, 1, 3 * _CHUNK + 1])
def test_evaluate_matches_per_gate_product(length):
    gens = two_local_torus_set(2, 3)
    ids = gens.ids()
    rng = np.random.default_rng(length)
    items = [(ids[int(rng.integers(len(ids)))], float(rng.normal(scale=2.0)))
             for _ in range(length)]
    ref = np.eye(gens.dim, dtype=complex)
    for gen_id, tau in items:
        ref = ref @ gate_matrix(gens, gen_id, tau)
    assert np.max(np.abs(evaluate(items, gens) - ref)) <= 1e-12


def test_evaluate_unknown_id_deep_in_word(two_local):
    gens, _ = two_local
    items = [("G0", 0.1)] * (2 * _CHUNK + 5) + [("nope", 1.0)] + [("G0", 0.1)] * 7
    with pytest.raises(UnknownGeneratorError):
        evaluate(items, gens)


def test_evaluate_always_unitary(two_local):
    gens, _ = two_local
    rng = np.random.default_rng(3)
    ids = gens.ids()
    items = [(ids[int(rng.integers(len(ids)))], float(rng.normal())) for _ in range(50)]
    assert is_unitary(evaluate(items, gens), tol=1e-9)


def test_primitive_target_exact_at_one_slice(two_local):
    gens, basis = two_local
    for theta in (0.3, -1.2, 3.0):
        u = expm_antiherm(theta * gens.by_id("G0").matrix)
        seq = compile(u, gens, basis, CompileConfig(slices=1))
        assert seq.report["phase_invariant_error"] <= 1e-10
        merged = merge_adjacent(seq.items)
        assert {g for g, _ in merged} == {"G0"}


def test_primitive_single_item(two_local):
    gens, basis = two_local
    u = expm_antiherm(0.3 * gens.by_id("G0").matrix)
    seq = compile(u, gens, basis, CompileConfig(slices=1))
    assert seq.items == [("G0", pytest.approx(0.3, abs=1e-12))]


def test_identity_compiles_to_empty(two_local):
    gens, basis = two_local
    seq = compile(np.eye(4), gens, basis)
    assert seq.items == []
    assert seq.report["phase_invariant_error"] == 0.0


def test_minus_identity_is_pure_phase(two_local):
    gens, basis = two_local
    seq = compile(-np.eye(4), gens, basis, CompileConfig(slices=1))
    assert seq.report["phase_invariant_error"] <= 1e-10
    assert seq.report["square_root_split"]


def test_commutator_recipe_target(two_local):
    gens, basis = two_local
    depth_one = next(
        i for i in range(basis.dim)
        if basis.recipes[i].kind == "comm" and basis.depth(i) == 1
    )
    u = expm_antiherm(0.2 * basis.basis[depth_one])
    seq = compile(u, gens, basis, CompileConfig(slices=4))
    assert seq.report["phase_invariant_error"] <= 1e-8
    v = evaluate(seq, gens)
    assert phase_invariant_dist(u, v) <= 1e-8


def test_unrefined_error_shrinks_with_slices(two_local):
    # a single element's word is exact at any slice count, so the target
    # mixes a depth-one element with a generator it does not commute with
    gens, basis = two_local
    depth_one = next(
        i for i in range(basis.dim)
        if basis.recipes[i].kind == "comm" and basis.depth(i) == 1
    )
    a = basis.basis[depth_one]
    b = next(m for m in basis.basis[:len(gens.elements)] if frob_norm(a @ m - m @ a) > 0.1)
    u = expm_antiherm(0.2 * a + 0.3 * b)
    errs = [
        compile(u, gens, basis, CompileConfig(slices=m, refine=False)).report[
            "phase_invariant_error"
        ]
        for m in (1, 4, 16, 64)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("label, n, l, slices", [
    ("clifford_two_local", 2, 2, 1),
    ("clifford_two_local", 2, 2, 4),
    ("clifford_two_local", 3, 2, 1),
    ("torus_two_local", 2, 3, 1),
])
def test_refinement_never_raises_the_error(label, n, l, slices):
    # every kept step lowers the error, and refine=False is the solve of no step
    gens = build_family(label, n, l)
    basis = closure(gens)
    rng = np.random.default_rng(41)
    for _ in range(4):
        u = random_unitary(gens.dim, rng)
        refined, plain = (compile(u, gens, basis, CompileConfig(slices=slices, refine=r)).report
                          for r in (True, False))
        assert "square_root_split" not in refined
        assert refined["phase_invariant_error"] <= plain["phase_invariant_error"]


def test_singular_step_ends_the_solve(two_local, monkeypatch):
    # a residual logarithm that cannot be formed stops Newton before its
    # first step: the unrefined words and errors, bit for bit
    gens, basis = two_local
    u = _su4(21)
    plain = compile_report(u, gens, basis, (1, 2), CompileConfig(refine=False))
    assert compile_report(u, gens, basis, (1, 2)) != plain

    def singular(x):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(compiler_mod, "_log_unitary", singular)
    assert compile_report(u, gens, basis, (1, 2)) == plain
    assert plain["rows"][0]["phase_invariant_error"] > 1e-8


def test_zero_dimensional_closure_compiles_only_the_identity():
    # a zero generator closes to dim 0: the identity is an empty word, any
    # other target is off the span by its whole logarithm
    gens = GeneratorSet("user", 1, 2, [Generator("O", np.zeros((2, 2), complex), 1,
                                                 ANTI_HERMITIAN)])
    basis = closure(gens)
    assert basis.dim == 0
    seq = compile(np.eye(2), gens, basis)
    assert seq.items == [] and seq.report["phase_invariant_error"] == 0.0
    with pytest.raises(NotMemberError) as err:
        compile(np.diag([1j, -1j]), gens, basis)
    assert err.value.residual == pytest.approx(math.pi / math.sqrt(2), rel=1e-12)


def test_cnot_sweep_improves_by_ten():
    # on every l = 2 set CNOT is exact at one slice (see
    # test_commuting_string_targets_exact_at_one_slice); the l = 4 torus
    # realises it with group commutators, whose sweep has room to improve
    gens, basis = _closed("torus_splits", 1, 4)
    rep = compile_report(CNOT, gens, basis, m_values=(1, 2, 4, 8, 16, 32, 64))
    errs = [r["phase_invariant_error"] for r in rep["rows"]]
    assert errs[-1] * 10 <= errs[0]
    assert rep["monotone"]


def test_random_su4_sweep_monotone(two_local):
    gens, basis = two_local
    rng = np.random.default_rng(77)
    u = random_unitary(4, rng)
    u = u / np.linalg.det(u) ** 0.25
    rep = compile_report(u, gens, basis, m_values=(1, 4, 16, 64))
    assert rep["monotone"]
    assert rep["rows"][-1]["phase_invariant_error"] <= 1e-2


def test_descending_sweep_is_not_monotone(two_local):
    # four slices reach rounding, one does not: read in that order the error grows
    gens, basis = two_local
    rep = compile_report(_su4(24), gens, basis, m_values=(4, 1))
    low, high = (r["phase_invariant_error"] for r in rep["rows"])
    assert low <= 1e-12 and high > 1e-8
    assert not rep["monotone"]


def test_non_universal_set_rejects(gamma_only):
    gens, basis = gamma_only
    a = 0.5j * tensor(SZ, SZ)
    u = expm_antiherm(a)
    with pytest.raises(NotMemberError) as err:
        compile(u, gens, basis)
    assert err.value.residual > 0.1


def test_compile_validates_input(two_local):
    # the target is checked once, at the public edge; the eigensolver behind it trusts it
    gens, basis = two_local
    nan_target = np.eye(4, dtype=complex)
    nan_target[0, 3] = np.nan
    for target in (2 * np.eye(4), CNOT + 1e-6, nan_target):
        with pytest.raises(MatrixPropertyError):
            compile(target, gens, basis)
        with pytest.raises(MatrixPropertyError):
            compile_report(target, gens, basis, (1, 2))


def test_gate_table_refuses_a_generator_herm_eig_refuses():
    # torus_T's generators are unitary, not anti-Hermitian: -i T is not Hermitian
    gens = torus_T(1, 3)
    with pytest.raises(MatrixPropertyError):
        gate_matrix(gens, "T0", 0.1)
    with pytest.raises(MatrixPropertyError):
        evaluate([("T0", 0.1)], gens)
    # a non-finite entry anywhere in the set refuses every gate of it
    nan = np.array([[0, np.nan], [-1, 0]], dtype=complex)
    gens = GeneratorSet("user", 1, 2, [Generator("Z", 1j * SZ, 1, ANTI_HERMITIAN),
                                       Generator("bad", nan, 1, ANTI_HERMITIAN)])
    for gen_id in ("Z", "bad"):
        with pytest.raises(MatrixPropertyError):
            gate_matrix(gens, gen_id, 0.1)


@pytest.mark.parametrize("fields", [
    {"slices": 2.5}, {"slices": 2.0}, {"slices": "2"}, {"max_commutator_depth": 2.5},
    {"max_commutator_depth": -1}, {"slices": 0}, {"slices": True}])
def test_config_refuses_counts_it_cannot_honour(fields):
    with pytest.raises(ValueError):
        CompileConfig(**fields)


def test_config_takes_numpy_integers(two_local):
    gens, basis = two_local
    cfg = CompileConfig(slices=np.int64(2), max_commutator_depth=np.int32(8))
    assert compile(CNOT, gens, basis, cfg).report["slice_count"] == 4   # CNOT is split


@pytest.mark.parametrize("m_values, cfg", [
    ((1.5, 2), None), ((True, 2), None), ((1, 2), CompileConfig(slices=64)),
    ((1, 2), CompileConfig(target_error=1e-3))],
    ids=["fractional", "bool", "slices", "target_error"])
def test_sweep_refuses_what_it_cannot_honour(two_local, m_values, cfg):
    # a sweep takes its slice counts from m_values alone
    gens, basis = two_local
    with pytest.raises(ValueError):
        compile_report(_su4(21), gens, basis, m_values, cfg)
    assert compile_report(_su4(21), gens, basis, (np.int64(1), 2))["rows"][0]["slices"] == 1


def test_depth_budget(two_local):
    gens, basis = two_local
    deepest = max(range(basis.dim), key=basis.depth)
    u = expm_antiherm(0.1 * basis.basis[deepest])
    with pytest.raises(DepthExhaustedError):
        compile(u, gens, basis, CompileConfig(max_commutator_depth=0))


def test_target_error_mode(two_local):
    gens, basis = two_local
    rng = np.random.default_rng(5)
    u = random_unitary(4, rng)
    u = u / np.linalg.det(u) ** 0.25
    seq = compile(u, gens, basis, CompileConfig(slices=1, target_error=1e-6))
    assert seq.report["target_error_met"]
    assert seq.report["phase_invariant_error"] <= 1e-6


@pytest.mark.parametrize("merge", [False, True], ids=["unit", "merged"])
def test_word_over_the_gate_cap_is_refused(two_local, merge):
    # 10^9 slices of 61 gates: refused before the word, or its error, is formed
    gens, basis = two_local
    u = random_unitary(4, np.random.default_rng(0))
    with pytest.raises(CapacityError, match="gates, above the cap"):
        compile(u, gens, basis, CompileConfig(slices=10**9, merge=merge))


def test_target_error_ladder_stops_below_the_gate_cap(two_local, monkeypatch):
    gens, basis = two_local
    u = random_unitary(4, np.random.default_rng(0))
    per_slice = compile(u, gens, basis).report["gate_count"]
    monkeypatch.setattr(compiler_mod, "_MAX_GATES", 4 * per_slice)
    tried, compile_at = [], compiler_mod._compile_at
    monkeypatch.setattr(compiler_mod, "_compile_at",
                        lambda plan, slices: tried.append(slices) or compile_at(plan, slices))
    # an unreachable target: the climb ends at the first word over the cap
    report = compile(u, gens, basis, CompileConfig(target_error=1e-300)).report
    assert tried == [1, 2, 4, 8]
    assert not report["target_error_met"]
    assert report["gate_count"] <= 4 * per_slice


def test_target_analysed_once_per_call(two_local, monkeypatch):
    # every slice count of a sweep or a target-error climb shares one analysis
    # (one eigendecomposition gives the root, the logarithm and every V_m)
    gens, basis = two_local
    calls = []
    eig = compiler_mod._unitary_eig
    monkeypatch.setattr(compiler_mod, "_unitary_eig", lambda u: calls.append(1) or eig(u))
    compile_report(CNOT, gens, basis, (1, 2, 4, 8))
    assert len(calls) == 1
    calls.clear()
    # CNOT meets 1e-12 at the first slice count; a Haar target with an
    # eigenphase at pi is split as well and has to climb
    rng = np.random.default_rng(9)
    w = random_unitary(4, rng)
    phases = rng.uniform(-np.pi, np.pi, size=4)
    phases[0] = np.pi
    seq = compile((w * np.exp(1j * phases)) @ w.conj().T, gens, basis,
                  CompileConfig(target_error=1e-12))
    assert seq.report["slice_count"] > 2   # the climb compiled several slice counts
    assert len(calls) == 1


def test_eigenphases_at_the_branch_cut_split(two_local):
    # targets with eigenphases at +pi or just above -pi compile their
    # principal square root and emit its word twice
    gens, basis = two_local
    rng = np.random.default_rng(11)
    for seed in range(24):
        phases = rng.uniform(-np.pi, np.pi, size=4)
        phases[:1 + seed % 2] = np.pi if seed % 4 < 2 else -np.pi + 1e-9
        w = random_unitary(4, rng)
        u = (w * np.exp(1j * phases)) @ w.conj().T
        seq = compile(u, gens, basis, CompileConfig(slices=8))
        half = len(seq.items) // 2
        assert seq.report["square_root_split"] is True
        assert seq.report["slice_count"] == 16
        assert seq.items[:half] == seq.items[half:]
        assert seq.report["phase_invariant_error"] <= 1e-8


def test_merge_preserves_product(two_local):
    gens, _ = two_local
    rng = np.random.default_rng(8)
    ids = ["G0", "G0", "G0G1", "G0G1", "G0", "Gu", "Gu"]
    items = [(g, float(rng.normal())) for g in ids]
    merged = merge_adjacent(items)
    assert len(merged) < len(items)
    assert frob_norm(evaluate(items, gens) - evaluate(merged, gens)) <= 1e-12


def test_merge_config_flag(two_local):
    gens, basis = two_local
    u = expm_antiherm(0.3 * gens.by_id("G0").matrix)
    seq = compile(u, gens, basis, CompileConfig(slices=4, merge=True))
    assert seq.items == [("G0", pytest.approx(0.3, abs=1e-12))]


@pytest.mark.parametrize("seed", [3, 27, 28])
def test_merge_runs_before_the_clip(two_local, seed):
    # a merge after the clip would fuse the equal parts of a clipped angle
    gens, basis = two_local
    table = _eig_table(gens)
    target = _su4(seed)
    seq = compile(target, gens, basis, CompileConfig(slices=2, tau_clip=0.1, merge=True))
    for gen_id, t in seq.items:
        assert abs(t) <= 0.1 + 1e-12
        assert abs(t) <= table.period[table.index[gen_id]] / 2
    measured = phase_invariant_dist(target, evaluate(seq, gens))
    assert abs(seq.report["phase_invariant_error"] - measured) <= 1e-12


def test_tau_wrap_keeps_angles_bounded(two_local):
    gens, basis = two_local
    u = expm_antiherm(3.0 * gens.by_id("G0").matrix)
    seq = compile(u, gens, basis, CompileConfig(slices=1))
    assert all(abs(t) <= np.pi + 1e-12 for _, t in seq.items)
    assert seq.report["phase_invariant_error"] <= 1e-10


def test_coordinate_idempotence(two_local):
    # recompiling the realised product reproduces the coordinates
    gens, basis = two_local
    rng = np.random.default_rng(10)
    coeffs = rng.normal(scale=0.1, size=basis.dim)
    a = sum(c * b for c, b in zip(coeffs, basis.basis))
    u = expm_antiherm(a)
    seq = compile(u, gens, basis, CompileConfig(slices=16))
    v = evaluate(seq, gens)
    c1 = membership(logm_unitary(u) - np.trace(logm_unitary(u)) / 4 * np.eye(4), basis)
    c2 = membership(logm_unitary(v) - np.trace(logm_unitary(v)) / 4 * np.eye(4), basis)
    assert np.max(np.abs(c1.coefficients - c2.coefficients)) <= 1e-6


def test_gate_sequence_dataclass():
    seq = GateSequence([("G0", 0.1)], 4, {"gate_count": 1})
    assert seq.gate_count == 1


# -- reference realisations --------------------------------------------------

def _realize(basis, idx, theta, out):
    """The recursive group-commutator expansion (the torus at l >= 3)."""
    if abs(theta) < 1e-15:
        return
    rec = basis.recipes[idx]
    if rec.kind == "leaf":
        out.append((rec.gen_id, theta / rec.coeff))
        return
    left, right, u = rec.left, rec.right, theta / rec.coeff
    if u < 0:
        left, right, u = rec.right, rec.left, -u
    t = math.sqrt(u)
    _realize(basis, left, t, out)
    _realize(basis, right, t, out)
    _realize(basis, left, -t, out)
    _realize(basis, right, -t, out)


def _exact_length(basis, idx):
    rec = basis.recipes[idx]
    if rec.kind == "leaf":
        return 1
    a, b = _exact_length(basis, rec.left), _exact_length(basis, rec.right)
    return min(2 * a + b, 2 * b + a)


def _realize_exact(basis, idx, theta, out):
    """The recursive conjugation expansion (every l = 2 set).

    For anticommuting A, B with A^2 = -I, exp(pi/4 A) exp(t B) exp(-pi/4 A)
    = exp(t A B): the child of the shorter word (the left one on a tie)
    takes a quarter turn and conjugates the other, whose angle carries theta.
    """
    rec = basis.recipes[idx]
    if rec.kind == "leaf":
        out.append((rec.gen_id, theta / rec.coeff))
        return
    root = math.sqrt(basis.matrix_dim)
    quarter = math.pi * root / 4
    swap = _exact_length(basis, rec.right) < _exact_length(basis, rec.left)
    conj, carrier = (rec.right, rec.left) if swap else (rec.left, rec.right)
    t = theta * ((-2.0 if swap else 2.0) / (root * rec.coeff))
    _realize_exact(basis, conj, quarter, out)
    _realize_exact(basis, carrier, t, out)
    _realize_exact(basis, conj, -quarter, out)


def _wrap_and_clip(items, gens, clip, hits):
    out = []
    table = _eig_table(gens)
    for gen_id, tau in items:
        period = table.period[table.index[gen_id]]
        if math.isfinite(period):
            hits["wrap"] += abs(tau) > period / 2
            tau = math.remainder(tau, period)
        if abs(tau) < 1e-15:
            continue
        if abs(tau) > clip:
            hits["clip"] += 1
            parts = math.ceil(abs(tau) / clip)
            out.extend([(gen_id, tau / parts)] * parts)
        else:
            out.append((gen_id, tau))
    return out


# the closure families at l = 2 (every one a Pauli set) and at l = 3
_ORACLE_SETS = [(label, 2, 2) for label, f in FAMILIES.items() if f.predicted] + [
    ("torus_splits", 1, 3), ("torus_two_local", 2, 3)]


def _oracle_cases():
    """(gens, basis, coords, slices) over the closure families, scales and slice counts.

    Signs are mixed, every fifth coordinate is zero, and the last one is a
    commutator coordinate of 3e-14, dropped at 64 slices (under 1e-15).
    """
    rng = np.random.default_rng(40)
    for label, n, l in _ORACLE_SETS:
        gens = build_family(label, n, l)
        basis = closure(gens)
        for scale in (1e-3, 0.3, 3.0, 30.0):
            coords = rng.normal(scale=scale, size=basis.dim)
            coords[::5] = 0.0
            coords[-1] = 3e-14
            for slices in (1, 8, 64):
                yield gens, basis, coords, slices


def test_slice_items_match_recursive_realisation():
    # the default clip never fires at l = 2, where a wrapped angle is at
    # most pi; the l = 3 generators do not wrap
    hits = {l: {"wrap": 0, "clip": 0} for l in (2, 3)}
    for cfg in (CompileConfig(), CompileConfig(tau_clip=1.0)):
        for gens, basis, coords, slices in _oracle_cases():
            realize = _realize_exact if gens.l == 2 else _realize
            ref: list = []
            for j, c in enumerate(coords):
                if abs(c) >= 1e-14 and abs(c / slices) >= 1e-15:
                    realize(basis, j, float(c) / slices, ref)
            ref = _wrap_and_clip(ref, gens, cfg.tau_clip, hits[gens.l])
            rows, taus = _slice_items(coords, basis, slices, gens, cfg)
            ids = _eig_table(gens).ids
            assert list(zip(ids[rows].tolist(), taus.tolist())) == ref
    assert hits[2]["wrap"] > 0 and hits[2]["clip"] > 0 and hits[3]["clip"] > 0


@pytest.mark.parametrize("label, n, l", [
    ("clifford_full", 2, 2), ("clifford_two_local", 3, 2), ("torus_two_local", 2, 2)])
def test_exact_words_realise_their_element(label, n, l):
    # the conjugation identity holds to rounding for every element and sign
    gens, basis = _closed(label, n, l)
    rng = np.random.default_rng(43)
    for j in range(basis.dim):
        coords = np.zeros(basis.dim)
        coords[j] = rng.normal(scale=3.0)
        word = _word_product(_eig_table(gens),
                             *_slice_items(coords, basis, 1, gens, CompileConfig()))
        assert np.max(np.abs(word - expm_antiherm(coords[j] * basis.basis[j]))) <= 1e-13


# gates of one slice with every coordinate active; the group-commutator
# words of the l = 2 sets had 111 / 3909 / 52,995 and 1245 / 11,331
@pytest.mark.parametrize("label, n, l, gates", [
    ("clifford_two_local", 2, 2, 61),
    ("clifford_two_local", 3, 2, 1229),
    ("clifford_two_local", 4, 2, 13_217),
    ("clifford_plus_u", 3, 2, 513),
    ("clifford_plus_u", 4, 2, 3951),
    ("torus_two_local", 2, 3, 1448),
    ("torus_splits", 2, 3, 824),
])
def test_gates_per_slice(label, n, l, gates):
    basis = closure(build_family(label, n, l))
    assert compiler_mod._templates(basis).word_start[-1] == gates


# -- the slice product against the flat word ---------------------------------

def _install_budget(monkeypatch, basis, tree_bytes):
    """Give the basis the block plan of tree_bytes for one test; returns its block count."""
    t = compiler_mod._templates(basis)
    blocks = compiler_mod._plan_blocks(t, basis, tree_bytes)
    monkeypatch.setattr(basis, "_templates", t._replace(blocks=blocks))
    return len(blocks)


@pytest.mark.parametrize("tree_bytes", [compiler_mod._TREE_BYTES, 1], ids=["blocks", "one_each"])
def test_slice_product_matches_flat_word(monkeypatch, tree_bytes):
    # the cases of the realisation test above, where the wrap and clip fire;
    # one_each puts every element of a tree product in a block of its own
    cfg = CompileConfig()
    for gens, basis, coords, slices in _oracle_cases():
        count = _install_budget(monkeypatch, basis, tree_bytes)
        assert (count == basis.dim) == (tree_bytes == 1)
        product = _linearise(coords, basis, slices, gens, jacobian=False)[0]
        flat = _word_product(_eig_table(gens), *_slice_items(coords, basis, slices, gens, cfg))
        assert np.max(np.abs(product - flat)) <= 1e-12


# -- what the compiler takes from closure -------------------------------------

@pytest.mark.parametrize("coeff", [-1.0, 0.0], ids=["negated", "zero"])
@pytest.mark.parametrize("label, n, l", [("clifford_two_local", 2, 2), ("torus_splits", 1, 3)])
def test_non_positive_recipe_coeff_is_refused(label, n, l, coeff):
    # closure writes every coeff as |c| > 0; any other is refused, not reinterpreted
    gens, basis = _closed(label, n, l)
    recipes = list(basis.recipes)
    recipes[-1] = replace(recipes[-1], coeff=coeff * recipes[-1].coeff)
    with pytest.raises(ValueError, match="coeff"):
        compile(np.eye(gens.dim), gens, replace(basis, recipes=recipes))


@pytest.mark.parametrize("label, n, l", [("clifford_two_local", 2, 2), ("torus_splits", 1, 3)])
def test_generator_ids_must_be_those_of_the_basis_in_order(label, n, l):
    # a leaf's generator position in the basis is its row in the set's table
    gens, basis = _closed(label, n, l)
    for elements in (gens.elements[::-1], gens.elements[:-1]):
        other = GeneratorSet(gens.family, gens.n, gens.l, list(elements))
        with pytest.raises(FamilyMismatchError):
            compile(np.eye(gens.dim), other, basis)
        with pytest.raises(FamilyMismatchError):
            compile_report(np.eye(gens.dim), other, basis, (1,))


def test_basis_without_the_pauli_flag_gets_group_commutators():
    # a hand-built basis is not marked: its words are correct but longer
    gens, basis = _closed("clifford_two_local", 2)
    plain = replace(basis, keys=None)
    assert compiler_mod._templates(plain).word_start[-1] == 111
    report = compile(_su4(21), gens, plain, CompileConfig(target_error=1e-8)).report
    assert report["target_error_met"]


def _su4(seed):
    u = random_unitary(4, np.random.default_rng(seed))
    return u / np.linalg.det(u) ** 0.25


TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


@functools.lru_cache(maxsize=None)
def _closed(label, n, l=2):
    gens = build_family(label, n, l)
    return gens, closure(gens)


def _in_algebra(label, n, seed, scale=1.0):
    """exp of a random element of the closure of a family at l = 2."""
    basis = _closed(label, n)[1]
    coords = np.random.default_rng(seed).normal(scale=scale, size=basis.dim)
    return expm_antiherm(np.tensordot(coords, basis.basis, axes=1))


@pytest.mark.parametrize("family, target, cfg, split", [
    (("clifford_two_local", 2), lambda: _su4(21), CompileConfig(slices=8), False),
    (("clifford_two_local", 2), lambda: _su4(22),
     CompileConfig(slices=1, target_error=1e-8), False),
    (("clifford_two_local", 2), lambda: _su4(23), CompileConfig(slices=4, merge=True), False),
    (("clifford_two_local", 2), lambda: CNOT, CompileConfig(slices=8), True),
    (("clifford_two_local", 3), lambda: random_unitary(8, np.random.default_rng(21)),
     CompileConfig(slices=1), False),
    (("clifford_two_local", 3), lambda: random_unitary(8, np.random.default_rng(23)),
     CompileConfig(slices=2, merge=True), False),
    (("clifford_two_local", 3), lambda: TOFFOLI, CompileConfig(slices=2), True),
    (("torus_two_local", 2), lambda: _in_algebra("torus_two_local", 2, 21),
     CompileConfig(slices=8), False),
    (("torus_two_local", 2), lambda: _in_algebra("torus_two_local", 2, 22),
     CompileConfig(slices=1, target_error=1e-8), False),
    (("torus_two_local", 2), lambda: _in_algebra("torus_two_local", 2, 23),
     CompileConfig(slices=4, merge=True), False),
], ids=["fixed", "target_error", "merge", "cnot_split", "su8_fixed", "su8_merge",
        "toffoli_split", "torus22_fixed", "torus22_target_error", "torus22_merge"])
def test_reported_error_is_that_of_the_returned_word(family, target, cfg, split):
    # the report multiplies the slice product; evaluate multiplies the word
    gens, basis = _closed(*family)
    u = target()
    seq = compile(u, gens, basis, cfg)
    assert seq.report.get("square_root_split", False) == split
    measured = phase_invariant_dist(u, evaluate(seq, gens))
    assert abs(seq.report["phase_invariant_error"] - measured) <= 1e-12


@pytest.mark.parametrize("label, n", [
    (label, n) for label, f in FAMILIES.items() if f.predicted
    for n in (1, 2, 3) if n >= f.least["n"]])
def test_binary_families_report_the_error_of_their_word(label, n):
    # every l = 2 closure family: Haar targets where it spans su(N), else
    # exponentials of its algebra at scales that wrap.  Words stay under
    # 5000 gates: evaluate's own rounding grows by about 1e-16 a gate
    gens, basis = _closed(label, n)
    rng = np.random.default_rng(44)
    for scale in (0.5, 3.0):
        u = (random_unitary(gens.dim, rng) if basis.spans_su
             else _in_algebra(label, n, int(rng.integers(1000)), scale))
        for cfg in (CompileConfig(slices=1), CompileConfig(slices=2),
                    CompileConfig(slices=2, merge=True, tau_clip=0.5)):
            seq = compile(u, gens, basis, cfg)
            measured = phase_invariant_dist(u, evaluate(seq, gens))
            assert abs(seq.report["phase_invariant_error"] - measured) <= 1e-12


@pytest.mark.parametrize("n, target", [(2, CNOT), (3, TOFFOLI)], ids=["cnot", "toffoli"])
def test_commuting_string_targets_exact_at_one_slice(n, target):
    # each logarithm is a sum of commuting Pauli strings, so one slice of
    # exact words is exact even without refinement
    gens, basis = _closed("clifford_two_local", n)
    for refine in (True, False):
        seq = compile(target, gens, basis, CompileConfig(slices=1, refine=refine))
        assert seq.report["phase_invariant_error"] <= 1e-12
        assert phase_invariant_dist(target, evaluate(seq, gens)) <= 1e-12


def test_sweep_rows_report_the_error_of_their_word(two_local):
    gens, basis = two_local
    u = _su4(24)
    for row in compile_report(u, gens, basis, (1, 2, 4, 8))["rows"]:
        seq = compile(u, gens, basis, CompileConfig(slices=row["slices"]))
        measured = phase_invariant_dist(u, evaluate(seq, gens))
        assert abs(row["phase_invariant_error"] - measured) <= 1e-12


def test_compile_multiplies_no_flat_word(two_local, monkeypatch):
    # refinement and reports go through the slice product; only evaluate
    # multiplies a word gate by gate
    gens, basis = two_local
    calls = []
    word = compiler_mod._word_product
    monkeypatch.setattr(compiler_mod, "_word_product",
                        lambda *args: calls.append(1) or word(*args))
    seq = compile(_su4(25), gens, basis, CompileConfig(slices=1, target_error=1e-8))
    compile(CNOT, gens, basis, CompileConfig(slices=4, merge=True))
    compile_report(_su4(26), gens, basis, (1, 2, 4))
    torus, torus_basis = _closed("torus_two_local", 2, 3)   # the tree product
    compile(random_unitary(9, np.random.default_rng(27)), torus, torus_basis)
    assert calls == []
    evaluate(seq, gens)
    assert calls


def test_slice_product_memory_is_bounded(monkeypatch):
    # torus_two_local (2, 3): 80 elements, 520 tree nodes of 1296 bytes at
    # N = 9, so an unblocked node stack alone would take 674 KB; blocks of
    # 64 KB keep the peak under 256 KB
    import tracemalloc

    monkeypatch.setattr(compiler_mod, "_TREE_BYTES", 1 << 16)
    gens = build_family("torus_two_local", 2, 3)
    basis = closure(gens)   # a fresh basis, planned at the patched budget
    coords = np.random.default_rng(12).normal(scale=0.3, size=basis.dim)
    tree = _linearise(coords, basis, 8, gens, jacobian=False)[0]   # builds the cached tables
    assert len(compiler_mod._templates(basis).blocks) == 12
    tracemalloc.start()
    try:
        again = _linearise(coords, basis, 8, gens, jacobian=False)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
    assert np.array_equal(tree, again)
    flat = _word_product(_eig_table(gens), *_slice_items(coords, basis, 8, gens, CompileConfig()))
    assert np.max(np.abs(tree - flat)) <= 1e-12


def test_refine_step_memory_is_bounded(monkeypatch):
    # one Newton step on torus_two_local (2, 3): the Jacobian (80 x 80
    # floats, 51 KB), then the word, suffix and column stacks and the two
    # tree evaluations of each block.  Unblocked, one step peaks at 2 MB;
    # blocks of 64 KB keep it under 512 KB, with the same result to rounding
    import tracemalloc

    gens, basis = _closed("torus_two_local", 2, 3)
    plan = compiler_mod._plan(random_unitary(9, np.random.default_rng(12)), gens, basis,
                              CompileConfig(slices=8))
    monkeypatch.setattr(compiler_mod, "_REFINE_MAX_ITER", 1)
    whole = compiler_mod._refine_coords(plan, 8)   # builds the cached tables
    assert len(compiler_mod._templates(basis).blocks) == 1
    assert _install_budget(monkeypatch, basis, 1 << 16) == 12
    tracemalloc.start()
    try:
        blocked = compiler_mod._refine_coords(plan, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19
    assert not np.array_equal(blocked[0], plan.coords)   # the step was taken
    for a, b in zip(whole, blocked):
        assert np.max(np.abs(a - b)) <= 1e-12


# -- block plans ---------------------------------------------------------------

def test_block_plan_is_built_once_per_basis(monkeypatch):
    builds, build = [], compiler_mod._plan_blocks
    monkeypatch.setattr(compiler_mod, "_plan_blocks",
                        lambda *args: builds.append(args[-1]) or build(*args))
    gens = build_family("torus_two_local", 2, 3)
    u = random_unitary(9, np.random.default_rng(31))
    for _ in range(2):
        basis = closure(gens)   # a fresh basis: nothing cached yet
        for _ in range(2):
            compile(u, gens, basis)
        compile_report(u, gens, basis, (1, 2))
    assert builds == [compiler_mod._TREE_BYTES] * 2


@pytest.mark.parametrize("label, n, l", [("torus_two_local", 2, 3), ("clifford_two_local", 3, 2)])
def test_budget_of_one_gives_one_element_per_block(monkeypatch, label, n, l):
    gens, basis = _closed(label, n, l)
    assert len(compiler_mod._templates(basis).blocks) < basis.dim
    assert _install_budget(monkeypatch, basis, 1) == basis.dim
    blocks = compiler_mod._templates(basis).blocks
    assert [(b.lo, b.hi) for b in blocks] == [(j, j + 1) for j in range(basis.dim)]
    visited = [elems for elems, _ in compiler_mod._word_blocks(basis, gens, np.ones(basis.dim))]
    assert visited == [slice(j, j + 1) for j in range(basis.dim - 1, -1, -1)]


def _coords_with_zeros(basis, seed):
    coords = np.random.default_rng(seed).normal(scale=0.5, size=basis.dim)
    coords[::5] = 0.0
    return coords


@pytest.mark.parametrize("label, n, l", [("torus_two_local", 2, 3), ("torus_splits", 2, 3)])
def test_slice_product_is_bit_identical_across_budgets(monkeypatch, label, n, l):
    # a word does not depend on the block it is formed in, nor on what else
    # the block holds; the Jacobian's column products change shape, so it
    # moves at rounding only
    gens, basis = _closed(label, n, l)
    coords = _coords_with_zeros(basis, 47)
    runs = []
    for tree_bytes in (compiler_mod._TREE_BYTES, 1):
        count = _install_budget(monkeypatch, basis, tree_bytes)
        assert (count == basis.dim) == (tree_bytes == 1)
        runs.append((_linearise(coords, basis, 2, gens, jacobian=False)[0],
                     *compiler_mod._linearise(coords, basis, 2, gens)))
    (product, unit, jac), (product_1, unit_1, jac_1) = runs
    assert np.array_equal(product, product_1)
    assert np.array_equal(unit, unit_1)
    assert np.array_equal(unit, product)
    assert np.max(np.abs(jac - jac_1)) <= 1e-12


@pytest.mark.parametrize("tree_bytes", [compiler_mod._TREE_BYTES, 1], ids=["blocks", "one_each"])
@pytest.mark.parametrize("label, n, l", [("torus_two_local", 2, 3), ("clifford_two_local", 3, 2)])
def test_zero_coordinate_words_are_exactly_the_identity(monkeypatch, tree_bytes, label, n, l):
    gens, basis = _closed(label, n, l)
    count = _install_budget(monkeypatch, basis, tree_bytes)
    assert (count == basis.dim) == (tree_bytes == 1)
    theta = _coords_with_zeros(basis, 48)
    eye = np.eye(basis.matrix_dim)
    for elems, words in compiler_mod._word_blocks(basis, gens, theta):
        for j, word in zip(range(basis.dim)[elems], words):
            assert np.array_equal(word, eye) == (theta[j] == 0.0)
    for elems, words in compiler_mod._word_blocks(basis, gens, np.zeros(basis.dim)):
        assert all(np.array_equal(word, eye) for word in words)


# -- Newton refinement -------------------------------------------------------

@pytest.mark.parametrize("label, n, l", [
    ("clifford_two_local", 2, 2), ("clifford_two_local", 3, 2), ("torus_two_local", 2, 3)])
def test_jacobian_matches_a_difference_of_slice_products(label, n, l):
    # column j holds the frame coordinates of W^-1 dW / dc_j, against a
    # central difference; the linearised W is the slice product bit for bit
    gens, basis = _closed(label, n, l)
    coords = np.random.default_rng(45).normal(scale=0.5, size=basis.dim)
    coords[::7] = 0.0
    unit, jac = compiler_mod._linearise(coords, basis, 2, gens)
    assert np.array_equal(unit, _linearise(coords, basis, 2, gens, jacobian=False)[0])
    frame = basis.frame.reshape(basis.dim, -1)
    eps = 1e-5
    for j in range(basis.dim):
        if gens.l > 2 and coords[j] == 0.0:
            continue   # a group-commutator word is not smooth at theta = 0
        logs = []
        for sign in (1, -1):
            moved = coords.copy()
            moved[j] += sign * eps
            moved_unit = _linearise(moved, basis, 2, gens, jacobian=False)[0]
            logs.append(logm_unitary(unit.conj().T @ moved_unit))
        column = (frame.conj() @ (logs[0] - logs[1]).ravel()).real / (2 * eps)
        assert np.max(np.abs(column - jac[:, j])) <= (1e-9 if gens.l == 2 else 1e-5)


@pytest.mark.parametrize("label, n, l", [("torus_two_local", 2, 3), ("clifford_two_local", 3, 2)])
def test_product_alone_forms_no_jacobian(monkeypatch, label, n, l):
    # without the Jacobian one tree evaluation is made, not the shifted one too
    gens, basis = _closed(label, n, l)
    coords = _coords_with_zeros(basis, 49)
    calls = []
    orig = compiler_mod._word_blocks

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(compiler_mod, "_word_blocks", counting)
    unit, jac = _linearise(coords, basis, 2, gens, jacobian=False)
    assert jac is None and len(calls) == 1
    assert np.array_equal(unit, _linearise(coords, basis, 2, gens)[0])


def test_residual_logarithm_matches_the_principal_one():
    rng = np.random.default_rng(46)
    for dim in (2, 4, 9):
        for scale in (1e-9, 0.3, 3.0):
            u = expm_antiherm(scale * random_anti_hermitian(dim, rng) / dim)
            assert np.max(np.abs(compiler_mod._log_unitary(u) - logm_unitary(u))) <= 1e-12


def _pi_target(seed):
    rng = np.random.default_rng(seed)
    w = random_unitary(4, rng)
    phases = rng.uniform(-np.pi, np.pi, size=4)
    phases[0] = np.pi
    return (w * np.exp(1j * phases)) @ w.conj().T


def test_pi_eigenphase_targets_settle_at_few_slices(two_local):
    # Newton stops at the rounding floor, not at 1e-11, so a target error
    # of 1e-12 is met by the first slice count that converges; the fixed
    # point took these ten targets to 32-512 slices
    gens, basis = two_local
    for seed in range(10):
        report = compile(_pi_target(seed), gens, basis, CompileConfig(target_error=1e-12)).report
        assert report["square_root_split"]
        assert report["target_error_met"]
        assert report["slice_count"] <= 4


def test_torus_refinement_converges_at_32_slices():
    # the fixed point stopped early on 4 of these 12 targets (errors 0.82
    # to 2.6) and reached only 2.8e-8 to 4.5e-4 on the others
    gens, basis = _closed("torus_two_local", 2, 3)
    rng = np.random.default_rng(21)
    errs = [compile(random_unitary(9, rng), gens, basis, CompileConfig(slices=32))
            .report["phase_invariant_error"] for _ in range(12)]
    assert sum(e <= 1e-10 for e in errs) >= 11


def test_su8_reaches_rounding_at_four_slices():
    gens, basis = _closed("clifford_two_local", 3)
    rng = np.random.default_rng(5)
    for _ in range(6):
        seq = compile(random_unitary(8, rng), gens, basis, CompileConfig(slices=4))
        assert seq.report["phase_invariant_error"] <= 1e-12


def test_slice_product_off_unitary_at_rounding_is_measured_not_refused(two_local, monkeypatch):
    # a 256-slice product drifts from unitarity with the power: a unit 4e-12
    # too long gives a product ~2e-9 off, above is_unitary's 1e-9, although
    # the target passed _plan's check.  The report measures it all the same
    gens, basis = two_local
    u = random_unitary(4, np.random.default_rng(0))
    refine, units = compiler_mod._refine_coords, []

    def long_unit(plan, slices):
        coords, unit = refine(plan, slices)
        units.append(unit * (1 + 4e-12))
        return coords, units[-1]

    monkeypatch.setattr(compiler_mod, "_refine_coords", long_unit)
    report = compile(u, gens, basis, CompileConfig(slices=256)).report
    product = np.linalg.matrix_power(units[-1], report["slice_count"])
    assert not is_unitary(product)
    assert report["frob_error"] == frob_norm(u - product)
    assert report["phase_invariant_error"] == phase_invariant_dist(u, product)
    assert 1e-9 < report["phase_invariant_error"] < 1e-8


def test_su4_targets_that_hit_the_slice_cap_now_converge(two_local):
    # targets 90 and 118 of 128 Haar SU(4) draws from default_rng(3): the
    # fixed point climbed to the 4096-slice cap and ended at 6.7e-4 / 4.6e-4
    gens, basis = two_local
    rng = np.random.default_rng(3)
    pool = [random_unitary(4, rng) for _ in range(119)]
    for k in (90, 118):
        report = compile(pool[k], gens, basis, CompileConfig(target_error=1e-8)).report
        assert report["target_error_met"]
        assert report["slice_count"] <= 8
