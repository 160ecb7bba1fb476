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

Words are built and evaluated on arrays.  Each basis element's word is
cached on the basis as a template per sign of its coordinate (leaf
generators, signs and the chain of scale divisions and square roots), so
a coordinate's angles take one pass over its recipe tree.  `evaluate`
takes a word 256 gates at a time: all gates of one generator come from one
stacked product with its cached eigenbasis, the chunk is reduced by
pairwise products, and the chunk products are multiplied left to right.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import islice
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


def _chunk_product(table: _EigTable, chunk) -> Matrix:
    """Product of at most _CHUNK gates, first leftmost."""
    ids, taus = zip(*chunk)
    try:
        gen = np.fromiter(map(table.index.__getitem__, ids), dtype=np.intp, count=len(ids))
    except KeyError as exc:
        raise UnknownGeneratorError(exc.args[0]) from None
    tau = np.array(taus, dtype=float)
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


def evaluate(seq, gens: GeneratorSet) -> Matrix:
    """Ordered product of the sequence gates, first item leftmost.

    Evaluated in chunks of _CHUNK gates, each reduced by pairwise products.
    """
    items = seq.items if isinstance(seq, GateSequence) else seq
    out = np.eye(gens.dim, dtype=complex)
    rest = iter(items)
    while chunk := list(islice(rest, _CHUNK)):
        out = out @ _chunk_product(_eig_table(gens), chunk)
    return out


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
                 gens: GeneratorSet, cfg: CompileConfig) -> list[tuple[str, float]]:
    """One slice's word: each coordinate's template word, wrapped and clipped.

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
        return []
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
    return list(zip(np.repeat(table.ids[row], counts).tolist(),
                    np.repeat(tau / parts, counts).tolist()))


def _slice_power(slice_items, gens: GeneratorSet, slices: int) -> Matrix:
    v = evaluate(slice_items, gens)
    return np.linalg.matrix_power(v, slices)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

# fixed-point refinement iterations per compile
_REFINE_MAX_ITER = 60


def _traceless(a: Matrix) -> Matrix:
    n = a.shape[0]
    return a - (np.trace(a) / n) * np.eye(n, dtype=complex)


def _refine_coords(u: Matrix, coords: np.ndarray, basis: LieBasis,
                   gens: GeneratorSet, slices: int, cfg: CompileConfig) -> np.ndarray:
    """Fixed-point coordinate solve against the realised slice product.

    Compares logarithms in the algebra frame (target coordinates against
    the coordinates of the realised product) and backtracks until a step
    strictly reduces the phase-invariant error, so the current iterate is
    always the best one.
    """
    floor = 1e-11

    def product_for(c):
        return _slice_power(_slice_items(c, basis, slices, gens, cfg), gens, slices)

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


def _compile_fixed(u: Matrix, gens: GeneratorSet, basis: LieBasis,
                   slices: int, cfg: CompileConfig,
                   _split_done: bool = False) -> GateSequence:
    n = gens.dim
    phases, _ = unitary_eig(u)
    if not _split_done and np.any(math.pi - np.abs(phases) < DEFAULTS.branch_warn_margin):
        # compile the principal square root and emit it twice, avoiding the
        # logarithm discontinuity at eigenphase pi
        root = principal_sqrt_unitary(u)
        half = _compile_fixed(root, gens, basis, slices, cfg, _split_done=True)
        items = half.items + half.items
        realised = evaluate(items, gens)
        frob, phase_inv = error_metrics(u, realised)
        return GateSequence(
            items,
            n,
            {
                "frob_error": frob,
                "phase_invariant_error": phase_inv,
                "slice_count": 2 * slices,
                "gate_count": len(items),
                "square_root_split": True,
            },
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchCutWarning)
        log = logm_unitary(u)
    log0 = _traceless(log)
    res = membership(log0, basis)
    if not res.member:
        raise NotMemberError(
            res.residual,
            f"target logarithm lies outside the generated algebra "
            f"(residual {res.residual:.6g})",
        )
    needed = [j for j, c in enumerate(res.coefficients) if abs(c) >= 1e-14]
    max_depth = max((basis.depth(j) for j in needed), default=0)
    if max_depth > cfg.max_commutator_depth:
        raise DepthExhaustedError(
            f"recipe depth {max_depth} exceeds configured maximum "
            f"{cfg.max_commutator_depth}"
        )

    coords = res.coefficients
    if cfg.refine and needed:
        coords = _refine_coords(u, coords, basis, gens, slices, cfg)

    slice_items = _slice_items(coords, basis, slices, gens, cfg)
    items = slice_items * slices
    if cfg.merge:
        items = merge_adjacent(items)
    realised = evaluate(items, gens)
    frob, phase_inv = error_metrics(u, realised)
    return GateSequence(
        items,
        n,
        {
            "frob_error": frob,
            "phase_invariant_error": phase_inv,
            "slice_count": slices,
            "gate_count": len(items),
        },
    )


def compile(u, gens: GeneratorSet, basis: LieBasis,
            cfg: CompileConfig | None = None) -> GateSequence:
    """Compile a unitary into a sequence of generator exponentials.

    The target's principal logarithm must lie in the basis span up to a
    global phase, otherwise NotMemberError carries the off-span residual.
    When cfg.target_error is set the slice count is doubled until the
    phase-invariant error reaches the target or stops improving; the error
    actually achieved is always reported, never promised.
    """
    cfg = cfg or CompileConfig()
    m = as_matrix(u)
    if m.shape[0] != gens.dim or m.shape[0] != basis.matrix_dim:
        raise DimensionMismatchError(
            f"target dimension {m.shape[0]} does not match generators ({gens.dim})"
        )
    if not is_unitary(m):
        raise MatrixPropertyError("compile requires a unitary target")

    if cfg.target_error is None:
        return _compile_fixed(m, gens, basis, cfg.slices, cfg)

    best: GateSequence | None = None
    slices = cfg.slices
    while True:
        seq = _compile_fixed(m, gens, basis, slices, cfg)
        if best is None or seq.report["phase_invariant_error"] < best.report["phase_invariant_error"]:
            best = seq
        if best.report["phase_invariant_error"] <= cfg.target_error or slices >= 4096:
            break
        slices *= 2
    best.report["target_error"] = cfg.target_error
    best.report["target_error_met"] = bool(
        best.report["phase_invariant_error"] <= cfg.target_error
    )
    return best


def compile_report(u, gens: GeneratorSet, basis: LieBasis,
                   m_values: tuple[int, ...] | None = None,
                   cfg: CompileConfig | None = None) -> dict:
    """Phase-invariant error for each slice count in a doubling sweep.

    The monotone flag allows ten percent slack and ignores noise once both
    errors sit below 1e-8.
    """
    cfg = cfg or CompileConfig()
    m_values = DEFAULTS.m_sweep if m_values is None else tuple(m_values)
    rows = []
    for m in m_values:
        seq = compile(u, gens, basis, replace(cfg, slices=m, target_error=None))
        rows.append(
            {
                "slices": m,
                "frob_error": seq.report["frob_error"],
                "phase_invariant_error": seq.report["phase_invariant_error"],
                "gate_count": seq.report["gate_count"],
            }
        )
    monotone = True
    for prev, cur in zip(rows, rows[1:]):
        a, b = prev["phase_invariant_error"], cur["phase_invariant_error"]
        if b > 1.1 * a and not (a < 1e-8 and b < 1e-8):
            monotone = False
    return {"rows": rows, "monotone": monotone}
