import math

import numpy as np
import pytest

from liegates.compiler import (
    _CHUNK,
    CompileConfig,
    GateSequence,
    _eig_table,
    _slice_items,
    compile,
    compile_report,
    evaluate,
    gate_matrix,
    merge_adjacent,
)
from liegates.errors import (
    DepthExhaustedError,
    MatrixPropertyError,
    NotMemberError,
    UnknownGeneratorError,
)
from liegates.generators import (
    FAMILIES,
    clifford_gammas,
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
    gens, basis = two_local
    depth_one = next(
        i for i in range(basis.dim)
        if basis.recipes[i].kind == "comm" and basis.depth(i) == 1
    )
    u = expm_antiherm(0.2 * basis.basis[depth_one])
    cfg = CompileConfig(refine=False)
    errs = [
        compile(u, gens, basis, CompileConfig(slices=m, refine=False)).report[
            "phase_invariant_error"
        ]
        for m in (1, 4, 16, 64)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_cnot_sweep_improves_by_ten(two_local):
    gens, basis = two_local
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


def test_non_universal_set_rejects(gamma_only):
    gens, basis = gamma_only
    a = 0.5j * tensor(SZ, SZ)
    u = expm_antiherm(a)
    with pytest.raises(NotMemberError) as err:
        compile(u, gens, basis)
    assert err.value.residual > 0.1


def test_compile_validates_input(two_local):
    gens, basis = two_local
    with pytest.raises(MatrixPropertyError):
        compile(2 * np.eye(4), gens, basis)


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


# -- reference realisation: the recursive group-commutator expansion ---------

def _realize(basis, idx, theta, out):
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


def test_slice_items_match_recursive_realisation():
    cfg = CompileConfig()
    rng = np.random.default_rng(40)
    hits = {"wrap": 0, "clip": 0}
    # the closure families: those with a predicted dimension
    for label in [label for label, f in FAMILIES.items() if f.predicted]:
        n, l = {"torus_splits": (1, 3), "torus_two_local": (2, 3)}.get(label, (2, 2))
        gens = build_family(label, n, l)
        basis = closure(gens)
        for scale in (1e-3, 0.3, 3.0, 30.0):
            coords = rng.normal(scale=scale, size=basis.dim)
            coords[::5] = 0.0
            coords[-1] = 3e-14   # a commutator, dropped at 64 slices (under 1e-15)
            for slices in (1, 8, 64):
                ref: list = []
                for j, c in enumerate(coords):
                    if abs(c) >= 1e-14:
                        _realize(basis, j, float(c) / slices, ref)
                ref = _wrap_and_clip(ref, gens, cfg.tau_clip, hits)
                assert _slice_items(coords, basis, slices, gens, cfg) == ref
    assert hits["wrap"] > 0 and hits["clip"] > 0
