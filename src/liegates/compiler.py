"""Unitary-to-gate-sequence compiler.

Given a target unitary and a generator set whose Lie closure is known, the
compiler takes the principal logarithm, reads off coordinates in the
closure basis, and emits a first-order product of slices; each coordinate
is realised either as a primitive exponential or as a nested
group-commutator word following the element's recipe tree, so

    exp(t P) exp(t Q) exp(-t P) exp(-t Q)  ~  exp(t^2 [P, Q]).

The plain scheme converges to the target only like 1 / sqrt(slices), far
too slowly to be useful, so by default the coordinates are re-solved by a
damped fixed-point iteration against the actual slice product; this keeps
the gate alphabet, the word structure and the gate count unchanged while
driving the error to the numerical floor whenever the iteration contracts.
All reported errors use the global-phase-invariant distance; the trace
part of the logarithm (a pure global phase) is projected out before the
coordinate solve.

Every mode runs one pipeline: `_plan` analyses the target once (checks,
square-root split at the branch cut, logarithm, coordinates) and
`_compile_at` refines, builds and evaluates the word of one slice count.
Words stay arrays of generator table rows and angles, multiplied 256 gates
at a time from stacked products over each generator's cached eigenbasis;
(id, tau) pairs are built once, for the returned GateSequence, and
`evaluate` maps them back to table rows and the same chunks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULTS
from .errors import (
    BranchCutWarning,
    DepthExhaustedError,
    DimensionMismatchError,
    MatrixPropertyError,
    NotMemberError,
    UnknownGeneratorError,
)
from .generators import GeneratorSet
from .lieclosure import LieBasis, membership
from .linalg import (
    Matrix,
    as_matrix,
    error_metrics,
    herm_eig,
    is_unitary,
    logm_unitary,
    phase_invariant_dist,
    principal_sqrt_unitary,
    unitary_eig,
)


@dataclass(frozen=True)
class CompileConfig:
    slices: int = 1
    max_commutator_depth: int = 8
    target_error: float | None = None
    tau_clip: float = DEFAULTS.tau_clip
    refine: bool = True
    merge: bool = False

    def __post_init__(self):
        if self.slices < 1:
            raise ValueError("slices must be at least 1")
        if self.max_commutator_depth < 0:
            raise ValueError("max_commutator_depth must be non-negative")
        if self.tau_clip <= 0:
            raise ValueError("tau_clip must be positive")


@dataclass
class GateSequence:
    items: list[tuple[str, float]]
    target_dim: int
    report: dict = field(default_factory=dict)

    @property
    def gate_count(self) -> int:
        return len(self.items)


# ---------------------------------------------------------------------------
# gate evaluation
# ---------------------------------------------------------------------------

# gates stacked at once by evaluate; at N = 16 the stack takes 1 MB
_CHUNK = 256


class _EigTable(NamedTuple):
    """Eigenpairs and wrap periods of every generator of a set, by index."""
    index: dict[str, int]
    ids: np.ndarray       # generator id per index (object array)
    lam: np.ndarray       # (G, N) eigenvalues of -i A
    w: np.ndarray         # (G, N, N) eigenvectors
    wh: np.ndarray        # (G, N, N) their adjoints
    period: np.ndarray    # (G,) wrap period, inf where angles do not wrap


def _eig_table(gens: GeneratorSet) -> _EigTable:
    """Eigendecompositions of -i A for every generator A, cached on the set."""
    table = gens._eig_table
    if table is None:
        ids = gens.ids()
        eigs = [herm_eig(-1j * mat) for mat in gens.matrices()]
        lam, w = (np.stack(part) for part in zip(*eigs))
        # an angle wraps when the spectrum is +/- a single magnitude
        mags = np.abs(lam)
        top = mags.max(axis=1)
        wraps = (top > 1e-12) & np.all(
            np.abs(mags - top[:, None]) <= 1e-12 * np.maximum(top, 1.0)[:, None], axis=1)
        period = np.divide(2.0 * math.pi, top, out=np.full(len(top), math.inf), where=wraps)
        table = _EigTable(
            index={gen_id: k for k, gen_id in enumerate(ids)},
            ids=np.array(ids, dtype=object),
            lam=lam,
            w=w,
            wh=w.conj().transpose(0, 2, 1).copy(),
            period=period,
        )
        gens._eig_table = table
    return table


def gate_matrix(gens: GeneratorSet, gen_id: str, tau: float) -> Matrix:
    """exp(A tau) for the generator with the given id."""
    table = _eig_table(gens)
    k = table.index.get(gen_id)
    if k is None:
        raise UnknownGeneratorError(gen_id)
    return (table.w[k] * np.exp(1j * table.lam[k] * tau)) @ table.wh[k]


def _chunk_product(table: _EigTable, gen: np.ndarray, tau: np.ndarray) -> Matrix:
    """Product of at most _CHUNK gates, given by table row and angle, first leftmost."""
    n = table.lam.shape[1]
    gates = np.empty((len(gen), n, n), dtype=complex)
    for g in np.flatnonzero(np.bincount(gen)):
        sel = gen == g
        phases = np.exp(1j * (tau[sel][:, None] * table.lam[g]))
        # one (count * N, N) @ (N, N) product builds them all
        scaled = table.w[g] * phases[:, None, :]
        gates[sel] = (scaled.reshape(-1, n) @ table.wh[g]).reshape(-1, n, n)
    eye = np.eye(n, dtype=complex)[None]
    while len(gates) > 1:
        if len(gates) % 2:
            gates = np.concatenate((gates, eye))
        gates = gates[0::2] @ gates[1::2]
    return gates[0]


def _word_product(table: _EigTable, gen: np.ndarray, tau: np.ndarray, reps: int = 1) -> Matrix:
    """Product of a word repeated reps times, first gate leftmost; repeats are not stored."""
    out = np.eye(table.lam.shape[1], dtype=complex)
    for lo in range(0, reps * len(gen), _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, reps * len(gen))) % len(gen)
        out = out @ _chunk_product(table, gen[k], tau[k])
    return out


def evaluate(seq, gens: GeneratorSet) -> Matrix:
    """Ordered product of the sequence gates, first item leftmost.

    Multiplied in chunks of _CHUNK gates, each reduced by pairwise products.
    """
    items = list(seq.items if isinstance(seq, GateSequence) else seq)
    table = _eig_table(gens)
    try:
        gen = np.array([table.index[gen_id] for gen_id, _ in items], dtype=np.intp)
    except KeyError as exc:
        raise UnknownGeneratorError(exc.args[0]) from None
    return _word_product(table, gen, np.array([tau for _, tau in items], dtype=float))


def merge_adjacent(items: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Peephole pass: fold runs of equal-id gates into one (exact product)."""
    out: list[tuple[str, float]] = []
    for gen_id, tau in items:
        if out and out[-1][0] == gen_id:
            merged = out[-1][1] + tau
            out[-1] = (gen_id, merged)
        else:
            out.append((gen_id, float(tau)))
    return [(g, t) for g, t in out if abs(t) > 1e-15]


# ---------------------------------------------------------------------------
# recipe realisation
# ---------------------------------------------------------------------------

class _WordTemplate(NamedTuple):
    """Group-commutator word of one basis element for angles of one sign.

    The recipe tree is unfolded into nodes, each after its parent.  For a
    coordinate theta a node's magnitude is |theta| at the root and
    sqrt(magnitude / scale) of its parent below it, and each word entry is
    its leaf node's magnitude over the leaf's scale, with a fixed sign.
    """
    parent: tuple[int, ...]   # parent node, -1 at the root
    scale: tuple[float, ...]  # |coeff| of each node's recipe
    node: np.ndarray          # leaf node of each word entry
    gen: np.ndarray           # generator of each entry, by basis position
    sign: np.ndarray          # +1 or -1 per entry

    def angles(self, theta: float) -> np.ndarray:
        """Angles of the word realising theta times the element."""
        mag = [abs(theta)]
        for p in self.parent[1:]:
            mag.append(math.sqrt(mag[p] / self.scale[p]))
        return self.sign * np.array([m / c for m, c in zip(mag, self.scale)])[self.node]


def _word_template(basis: LieBasis, idx: int, negative: bool) -> _WordTemplate:
    key = (idx, negative)
    cached = basis._templates.get(key)
    if cached is not None:
        return cached
    position = {gen_id: k for k, gen_id in enumerate(basis.generator_matrices)}
    parent: list[int] = []
    scale: list[float] = []
    children: dict[int, tuple[int, int]] = {}

    def unfold(i: int, up: int) -> int:
        k = len(parent)
        rec = basis.recipes[i]
        parent.append(up)
        scale.append(abs(rec.coeff))
        if rec.kind == "comm":
            children[k] = (unfold(rec.left, k), unfold(rec.right, k))
        return k

    node: list[int] = []
    gen: list[int] = []
    sign: list[float] = []

    def walk(i: int, k: int, s: float) -> None:
        # s is the sign of the angle at node k; the sign of angle / coeff
        # picks the commutator's order, as exp(tP) exp(tQ) exp(-tP) exp(-tQ)
        # realises t^2 [P, Q]
        rec = basis.recipes[i]
        s = math.copysign(1.0, rec.coeff) * s
        if rec.kind == "leaf":
            node.append(k)
            gen.append(position[rec.gen_id])
            sign.append(s)
            return
        (li, lk), (ri, rk) = (rec.left, children[k][0]), (rec.right, children[k][1])
        if s < 0:
            (li, lk), (ri, rk) = (ri, rk), (li, lk)
        for child_sign in (1.0, -1.0):
            walk(li, lk, child_sign)
            walk(ri, rk, child_sign)

    unfold(idx, -1)
    walk(idx, 0, -1.0 if negative else 1.0)
    template = _WordTemplate(
        tuple(parent), tuple(scale), np.array(node, dtype=np.intp),
        np.array(gen, dtype=np.intp), np.array(sign),
    )
    basis._templates[key] = template
    return template


def _slice_items(coords: np.ndarray, basis: LieBasis, slices: int,
                 gens: GeneratorSet, cfg: CompileConfig) -> tuple[np.ndarray, np.ndarray]:
    """One slice's word as (table rows, angles): template words, wrapped and clipped.

    Angles are reduced by their generator's period and oversized ones are
    split into equal parts; both moves leave the evaluated product unchanged.
    """
    table = _eig_table(gens)
    gen_ids = list(basis.generator_matrices)
    rows = np.array([table.index.get(gen_id, -1) for gen_id in gen_ids], dtype=np.intp)
    gen_parts, tau_parts = [], []
    for j, c in enumerate(coords):
        theta = float(c) / slices
        # angles under 1e-15 are dropped; a commutator's scale |[b_i, b_j]|
        # is at most 2, so below the root every magnitude is at least
        # sqrt(1e-15 / 2) and only the root can fall under the cut
        if abs(c) < 1e-14 or abs(theta) < 1e-15:
            continue
        template = _word_template(basis, j, theta < 0)
        gen_parts.append(template.gen)
        tau_parts.append(template.angles(theta))
    if not gen_parts:
        return np.empty(0, dtype=np.intp), np.empty(0)
    gen = np.concatenate(gen_parts)
    tau = np.concatenate(tau_parts)
    row = rows[gen]
    if row.min() < 0:
        raise UnknownGeneratorError(gen_ids[gen[np.argmax(row < 0)]])
    period = table.period[row]
    # math.remainder leaves every angle within half a period unchanged
    for k in np.flatnonzero(np.abs(tau) > period / 2):
        tau[k] = math.remainder(tau[k], period[k])
    keep = np.abs(tau) >= 1e-15
    row, tau = row[keep], tau[keep]
    # one part for every angle within the clip
    parts = np.ceil(np.abs(tau) / cfg.tau_clip)
    counts = parts.astype(np.intp)
    return np.repeat(row, counts), np.repeat(tau / parts, counts)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

# fixed-point refinement iterations per compile; slice cap of the target-error mode
_REFINE_MAX_ITER = 60
_MAX_SLICES = 4096


def _traceless(a: Matrix) -> Matrix:
    n = a.shape[0]
    return a - (np.trace(a) / n) * np.eye(n, dtype=complex)


def _refine_coords(plan: _Plan, slices: int) -> np.ndarray:
    """Fixed-point coordinate solve against the realised slice product.

    Compares logarithms in the algebra frame (target coordinates against
    the coordinates of the realised product) and backtracks until a step
    strictly reduces the phase-invariant error, so the current iterate is
    always the best one.
    """
    floor = 1e-11
    u, coords, basis, gens, cfg = plan.root, plan.coords, plan.basis, plan.gens, plan.cfg

    def product_for(c):
        word = _word_product(_eig_table(gens), *_slice_items(c, basis, slices, gens, cfg))
        return np.linalg.matrix_power(word, slices)

    c = coords
    v = product_for(c)
    err = phase_invariant_dist(u, v)
    for _ in range(_REFINE_MAX_ITER):
        if err <= floor:
            break
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            realised_log = _traceless(logm_unitary(v))
        delta = coords - membership(realised_log, basis, tol=1.0).coefficients
        if np.linalg.norm(delta) < 1e-14:
            break
        for step in (1.0, 0.5, 0.25, 0.125):
            cand = c + step * delta
            v_cand = product_for(cand)
            err_cand = phase_invariant_dist(u, v_cand)
            if err_cand < err:
                c, v, err = cand, v_cand, err_cand
                break
        else:
            break
    return c


class _Plan(NamedTuple):
    """What a compile needs that does not depend on the slice count."""
    target: Matrix
    root: Matrix          # the target, or its principal square root if copies == 2
    copies: int           # times the root's word is emitted
    coords: np.ndarray    # coordinates of the root's traceless logarithm
    needed: bool          # whether any coordinate is realised
    gens: GeneratorSet
    basis: LieBasis
    cfg: CompileConfig


def _plan(u, gens: GeneratorSet, basis: LieBasis, cfg: CompileConfig) -> _Plan:
    """Check the target and read off its coordinates, once per compile."""
    m = as_matrix(u)
    if m.shape[0] != gens.dim or m.shape[0] != basis.matrix_dim:
        raise DimensionMismatchError(
            f"target dimension {m.shape[0]} does not match generators ({gens.dim})"
        )
    if not is_unitary(m):
        raise MatrixPropertyError("compile requires a unitary target")
    phases, _ = unitary_eig(m)
    copies, root = 1, m
    if np.any(math.pi - np.abs(phases) < DEFAULTS.branch_warn_margin):
        # compile the principal square root and emit it twice, avoiding the
        # logarithm discontinuity at eigenphase pi
        copies, root = 2, principal_sqrt_unitary(m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchCutWarning)
        log = logm_unitary(root)
    res = membership(_traceless(log), basis)
    if not res.member:
        raise NotMemberError(res.residual, "target logarithm lies outside the generated "
                             f"algebra (residual {res.residual:.6g})")
    needed = [j for j, c in enumerate(res.coefficients) if abs(c) >= 1e-14]
    max_depth = max((basis.depth(j) for j in needed), default=0)
    if max_depth > cfg.max_commutator_depth:
        raise DepthExhaustedError(f"recipe depth {max_depth} exceeds configured maximum "
                                  f"{cfg.max_commutator_depth}")
    return _Plan(m, root, copies, res.coefficients, bool(needed), gens, basis, cfg)


def _compile_at(plan: _Plan, slices: int) -> tuple[np.ndarray, np.ndarray, int, dict]:
    """One slice count's word, a unit of table rows and angles repeated reps times."""
    gens, basis, cfg = plan.gens, plan.basis, plan.cfg
    coords = _refine_coords(plan, slices) if cfg.refine and plan.needed else plan.coords
    gen, tau = _slice_items(coords, basis, slices, gens, cfg)
    reps = slices * plan.copies
    if cfg.merge:
        # runs merge across slices, not across the two copies of a root
        merged = merge_adjacent(list(zip(gen.tolist(), tau.tolist())) * slices)
        gen, tau = np.array([g for g, _ in merged], dtype=np.intp), np.array([t for _, t in merged])
        reps = plan.copies
    frob, phase_inv = error_metrics(plan.target, _word_product(_eig_table(gens), gen, tau, reps))
    report = {"frob_error": frob, "phase_invariant_error": phase_inv,
              "slice_count": plan.copies * slices, "gate_count": reps * len(gen)}
    if plan.copies == 2:
        report["square_root_split"] = True
    return gen, tau, reps, report


def compile(u, gens: GeneratorSet, basis: LieBasis,
            cfg: CompileConfig | None = None) -> GateSequence:
    """Compile a unitary into a sequence of generator exponentials.

    The target's principal logarithm must lie in the basis span up to a
    global phase, otherwise NotMemberError carries the off-span residual.
    When cfg.target_error is set the slice count doubles until the
    phase-invariant error reaches the target or _MAX_SLICES slices are
    reached, even where the error grows; the best word is returned, and the
    error actually achieved is always reported, never promised.
    """
    cfg = cfg or CompileConfig()
    plan = _plan(u, gens, basis, cfg)
    slices = cfg.slices
    gen, tau, reps, report = _compile_at(plan, slices)
    if cfg.target_error is not None:
        while report["phase_invariant_error"] > cfg.target_error and slices < _MAX_SLICES:
            slices *= 2
            word = _compile_at(plan, slices)
            if word[3]["phase_invariant_error"] < report["phase_invariant_error"]:
                gen, tau, reps, report = word
        report["target_error"] = cfg.target_error
        report["target_error_met"] = bool(report["phase_invariant_error"] <= cfg.target_error)
    # the repeats share the unit's (id, tau) tuples: one pointer per further gate
    items = list(zip(_eig_table(gens).ids[gen].tolist(), tau.tolist())) * reps
    return GateSequence(items, gens.dim, report)


def compile_report(u, gens: GeneratorSet, basis: LieBasis,
                   m_values: tuple[int, ...] | None = None,
                   cfg: CompileConfig | None = None) -> dict:
    """Phase-invariant error for each slice count in a doubling sweep.

    The monotone flag allows ten percent slack and ignores noise once both
    errors sit below 1e-8.  As in the report of compile, a row carries
    square_root_split when the target was split into two copies of its
    principal square root; its gate_count is then that of 2 * slices slices.
    """
    cfg = cfg or CompileConfig()
    m_values = DEFAULTS.m_sweep if m_values is None else tuple(m_values)
    if any(m < 1 for m in m_values):
        raise ValueError("slices must be at least 1")
    plan = _plan(u, gens, basis, cfg)
    keys = ("frob_error", "phase_invariant_error", "gate_count", "square_root_split")
    rows = []
    for m in m_values:
        report = _compile_at(plan, m)[3]
        rows.append({"slices": m, **{k: report[k] for k in keys if k in report}})
    monotone = True
    for prev, cur in zip(rows, rows[1:]):
        a, b = prev["phase_invariant_error"], cur["phase_invariant_error"]
        if b > 1.1 * a and not (a < 1e-8 and b < 1e-8):
            monotone = False
    return {"rows": rows, "monotone": monotone}
