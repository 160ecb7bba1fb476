"""Unitary-to-gate-sequence compiler.

Given a target unitary and a generator set whose Lie closure is known, the
compiler takes the principal logarithm, reads off coordinates in the
closure basis, and emits a first-order product of slices; each coordinate
is realised either as a primitive exponential or as a nested
group-commutator word following the element's recipe tree, so

    exp(t P) exp(t Q) exp(-t P) exp(-t Q)  ~  exp(t^2 [P, Q]).

The plain scheme converges to the target only like 1 / sqrt(slices), far
too slowly to be useful, so by default the coordinates are re-solved by a
fixed-point iteration against the actual slice product, whose every full
step is kept only while it lowers the error; this keeps the gate
alphabet, the word structure and the gate count unchanged while driving
the error to the numerical floor whenever the iteration contracts.
All reported errors use the global-phase-invariant distance; the trace
part of the logarithm (a pure global phase) is projected out before the
coordinate solve.

Every mode runs one pipeline: `_plan` analyses the target once (checks,
square-root split at the branch cut, logarithm, coordinates) and
`_compile_at` refines, builds and evaluates the word of one slice count.
A depth-d word has 4^d gates but only 2^d distinct leaf exponentials: an
element's word at a negative angle is the adjoint of its word at the
positive one, and a commutator node is P_L P_R P_L^dag P_R^dag =
(P_L P_R)(P_R P_L)^dag.  Refinement and reports therefore multiply a slice
on its commutator trees, exponentiating each leaf once and going up one
tree height at a time in stacked products, in blocks of elements with a
bounded node stack.  Words stay arrays of generator table rows and angles;
(id, tau) pairs are built once, for the returned GateSequence.  `evaluate`
is the flat reference: it multiplies any sequence 256 gates at a time.
Its gates and the tree leaves come from one kernel, a stacked product
over each generator's cached eigenbasis.
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
        for name in ("tau_clip", "target_error"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")


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


def _reduce(mats: np.ndarray) -> Matrix:
    """Product of a non-empty stack of matrices, first leftmost, by pairwise products."""
    eye = np.eye(mats.shape[1], dtype=complex)[None]
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate((mats, eye))
        mats = mats[0::2] @ mats[1::2]
    return mats[0]


def _gates(table: _EigTable, gen: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Stack of the gates exp(A tau), given by table row and angle."""
    n = table.lam.shape[1]
    gates = np.empty((len(gen), n, n), dtype=complex)
    for g in np.flatnonzero(np.bincount(gen)):
        sel = gen == g
        phases = np.exp(1j * (tau[sel][:, None] * table.lam[g]))
        # one (count * N, N) @ (N, N) product builds all gates of a generator
        scaled = table.w[g] * phases[:, None, :]
        gates[sel] = (scaled.reshape(-1, n) @ table.wh[g]).reshape(-1, n, n)
    return gates


def _word_product(table: _EigTable, gen: np.ndarray, tau: np.ndarray) -> Matrix:
    """Product of a word given by table rows and angles, first gate leftmost.

    Multiplied _CHUNK gates at a time, each chunk reduced by pairwise products.
    """
    out = np.eye(table.lam.shape[1], dtype=complex)
    for lo in range(0, len(gen), _CHUNK):
        out = out @ _reduce(_gates(table, gen[lo:lo + _CHUNK], tau[lo:lo + _CHUNK]))
    return out


def evaluate(seq, gens: GeneratorSet) -> Matrix:
    """Ordered product of the sequence gates, first item leftmost."""
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

# bytes of one block's node stack in _slice_product: at N = 16, 256 nodes
_TREE_BYTES = 1 << 20


class _Templates(NamedTuple):
    """Every basis element's unfolded recipe tree and group-commutator word.

    Nodes are numbered element by element, each element's root first and
    every node after its parent.  For a coordinate theta a node's magnitude
    is |theta| at the root and sqrt(magnitude / |coeff|) of its parent below
    it, and its angle is magnitude / coeff.  P_k, the word of node k for a
    positive theta, is exp(A * angle) at a leaf and P_f P_s P_f^dag P_s^dag
    at a commutator, as exp(tP) exp(tQ) exp(-tP) exp(-tQ) realises
    t^2 [P, Q]; f, s are its children in recipe order, swapped when its
    coeff is negative.  A negative theta realises P^dag: the element's word
    read backwards with every sign flipped.
    """
    node_start: np.ndarray  # (dim + 1,) first node of each element
    word_start: np.ndarray  # (dim + 1,) first word entry of each element
    parent: np.ndarray      # parent node, -1 at a root
    coeff: np.ndarray       # coeff of each node's recipe
    by_depth: tuple         # non-root nodes, one array per distance from the root
    height: np.ndarray      # 0 at a leaf, else 1 + the larger child height
    first: np.ndarray       # children of a commutator node in product order,
    second: np.ndarray      # -1 at a leaf
    leaf_gen: np.ndarray    # generator of a leaf node by basis position, -1 elsewhere
    node: np.ndarray        # leaf node of each word entry (positive theta)
    sign: np.ndarray        # +1 or -1 per entry, times the leaf's angle


def _templates(basis: LieBasis) -> _Templates:
    """The templates of every element, built on the first compile against the basis."""
    if basis._templates is not None:
        return basis._templates
    position = {gen_id: k for k, gen_id in enumerate(basis.generator_matrices)}
    parent, coeff, depth, height, first, second, leaf_gen = ([] for _ in range(7))

    def unfold(i: int, up: int) -> tuple[int, list]:
        # node k and its positive-theta word as (leaf node, sign) entries
        k, rec = len(parent), basis.recipes[i]
        for column, value in ((parent, up), (coeff, rec.coeff),
                              (depth, depth[up] + 1 if up >= 0 else 0), (height, 0),
                              (first, -1), (second, -1), (leaf_gen, -1)):
            column.append(value)
        if rec.kind == "leaf":
            leaf_gen[k] = position[rec.gen_id]
            return k, [(k, 1.0)]
        (f, f_word), (s, s_word) = unfold(rec.left, k), unfold(rec.right, k)
        if rec.coeff < 0:
            (f, f_word), (s, s_word) = (s, s_word), (f, f_word)
        height[k], first[k], second[k] = 1 + max(height[f], height[s]), f, s
        inverse = [(node, -e) for node, e in f_word[::-1] + s_word[::-1]]
        return k, f_word + s_word + inverse

    node_start, word_start, word = [0], [0], []
    for i in range(basis.dim):
        word.extend(unfold(i, -1)[1])
        node_start.append(len(parent))
        word_start.append(len(word))
    depth = np.array(depth, dtype=np.intp)
    node, sign = (np.array(col) for col in zip(*word)) if word else [np.empty(0)] * 2

    def ints(values):
        return np.array(values, dtype=np.intp)

    basis._templates = _Templates(
        ints(node_start), ints(word_start), ints(parent), np.array(coeff, dtype=float),
        tuple(np.flatnonzero(depth == d) for d in range(1, depth.max(initial=0) + 1)),
        ints(height), ints(first), ints(second), ints(leaf_gen), ints(node), sign.astype(float),
    )
    return basis._templates


def _slice_angles(coords: np.ndarray, basis: LieBasis, slices: int):
    """Templates, realised elements, whether their theta is negative, and node angles.

    Angles under 1e-15 are dropped; a commutator's scale |[b_i, b_j]| is at
    most 2, so below the root every magnitude is at least sqrt(1e-15 / 2)
    and only the root can fall under the cut.  Magnitudes are computed one
    depth at a time for every node; sqrt and division are correctly
    rounded, so they are those of a node-by-node pass, bit for bit.
    """
    t = _templates(basis)
    theta = coords / slices
    active = np.flatnonzero((np.abs(coords) >= 1e-14) & (np.abs(theta) >= 1e-15))
    mag = np.zeros(len(t.parent))
    mag[t.node_start[active]] = np.abs(theta[active])
    for nodes in t.by_depth:
        up = t.parent[nodes]
        mag[nodes] = np.sqrt(mag[up] / np.abs(t.coeff[up]))
    return t, active, theta[active] < 0, mag / t.coeff


def _table_rows(basis: LieBasis, table: _EigTable, gen: np.ndarray) -> np.ndarray:
    """Table rows of generators given by basis position; refuses one the set lacks."""
    gen_ids = list(basis.generator_matrices)
    rows = np.array([table.index.get(gen_id, -1) for gen_id in gen_ids], dtype=np.intp)[gen]
    if rows.size and rows.min() < 0:
        raise UnknownGeneratorError(gen_ids[gen[np.argmax(rows < 0)]])
    return rows


def _slice_items(coords: np.ndarray, basis: LieBasis, slices: int,
                 gens: GeneratorSet, cfg: CompileConfig) -> tuple[np.ndarray, np.ndarray]:
    """One slice's word as (table rows, angles): template words, wrapped and clipped.

    Angles are reduced by their generator's period and oversized ones are
    split into equal parts; both moves leave the evaluated product unchanged.
    """
    t, active, negative, angle = _slice_angles(coords, basis, slices)
    table = _eig_table(gens)
    counts = np.diff(t.word_start)[active]
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    back = np.repeat(negative, counts)
    # a negative theta reads its element's word backwards, every sign flipped
    entry = np.repeat(t.word_start[active], counts) + np.where(
        back, np.repeat(counts - 1, counts) - pos, pos)
    row = _table_rows(basis, table, t.leaf_gen[t.node[entry]])
    tau = np.where(back, -t.sign[entry], t.sign[entry]) * angle[t.node[entry]]
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


def _tree_block(t: _Templates, elems: np.ndarray, negative: np.ndarray, angle: np.ndarray,
                basis: LieBasis, table: _EigTable) -> Matrix:
    """Product of the words of some elements, first leftmost, on their trees."""
    start = t.node_start[elems]
    counts = t.node_start[elems + 1] - start
    roots = np.cumsum(counts) - counts        # stack position of each root
    shift = np.repeat(start - roots, counts)  # node number minus stack position
    nodes = shift + np.arange(counts.sum())
    height = t.height[nodes]
    n = table.lam.shape[1]
    stack = np.empty((len(nodes), n, n), dtype=complex)
    leaf = nodes[height == 0]
    stack[height == 0] = _gates(table, _table_rows(basis, table, t.leaf_gen[leaf]), angle[leaf])
    for h in range(1, height.max() + 1):
        k = np.flatnonzero(height == h)
        f, s = t.first[nodes[k]] - shift[k], t.second[nodes[k]] - shift[k]
        # P_f P_s P_f^dag P_s^dag = (P_f P_s) (P_s P_f)^dag
        pair = stack[np.concatenate((f, s))] @ stack[np.concatenate((s, f))]
        stack[k] = pair[:len(k)] @ pair[len(k):].conj().transpose(0, 2, 1)
    top = stack[roots]
    top[negative] = top[negative].conj().transpose(0, 2, 1)
    return _reduce(top)


def _slice_product(coords: np.ndarray, basis: LieBasis, slices: int,
                   gens: GeneratorSet) -> Matrix:
    """Product of one slice's word, multiplied on its commutator trees.

    The word of _slice_items is the product over realised elements of P or
    P^dag (see _Templates); the period wrap and the tau_clip split leave
    each gate unchanged, so the leaves take their raw angle.  Each leaf is
    exponentiated once, each commutator node is formed from its children
    one tree height at a time, and the element products are reduced
    pairwise.  Elements go in blocks whose node stack stays within
    _TREE_BYTES (or holds one element).
    """
    t, active, negative, angle = _slice_angles(coords, basis, slices)
    table = _eig_table(gens)
    budget = _TREE_BYTES // (16 * gens.dim**2)
    sizes = np.diff(t.node_start)[active]
    out = np.eye(gens.dim, dtype=complex)
    lo = 0
    while lo < len(active):
        hi, total = lo + 1, sizes[lo]
        while hi < len(active) and total + sizes[hi] <= budget:
            total += sizes[hi]
            hi += 1
        out = out @ _tree_block(t, active[lo:hi], negative[lo:hi], angle, basis, table)
        lo = hi
    return out


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

# fixed-point refinement iterations per compile; slice cap of the target-error mode
_REFINE_MAX_ITER = 60
_MAX_SLICES = 4096


def _traceless(a: Matrix) -> Matrix:
    n = a.shape[0]
    return a - (np.trace(a) / n) * np.eye(n, dtype=complex)


def _refine_coords(plan: _Plan, slices: int) -> tuple[np.ndarray, Matrix]:
    """Fixed-point coordinate solve against the realised slice product.

    Each step compares logarithms in the algebra frame (target coordinates
    against the coordinates of the realised product) and moves the
    coordinates by the whole difference.  The step is kept only if it
    lowers the phase-invariant error, otherwise the solve ends, so the
    current iterate is always the best one.  With cfg.refine off the solve
    takes no step.  Returns the iterate with its slice product.
    """
    u, coords, basis, gens = plan.root, plan.coords, plan.basis, plan.gens
    c, unit = coords, _slice_product(coords, basis, slices, gens)
    v = np.linalg.matrix_power(unit, slices)
    err = phase_invariant_dist(u, v)
    for _ in range(_REFINE_MAX_ITER if plan.cfg.refine else 0):
        if err <= 1e-11:
            break
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BranchCutWarning)
            realised_log = _traceless(logm_unitary(v))
        cand = c + (coords - membership(realised_log, basis, tol=1.0).coefficients)
        unit_cand = _slice_product(cand, basis, slices, gens)
        v_cand = np.linalg.matrix_power(unit_cand, slices)
        err_cand = phase_invariant_dist(u, v_cand)
        if err_cand >= err:
            break
        c, unit, v, err = cand, unit_cand, v_cand, err_cand
    return c, unit


class _Plan(NamedTuple):
    """What a compile needs that does not depend on the slice count."""
    target: Matrix
    root: Matrix          # the target, or its principal square root if copies == 2
    copies: int           # times the root's word is emitted
    coords: np.ndarray    # coordinates of the root's traceless logarithm
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
    return _Plan(m, root, copies, res.coefficients, gens, basis, cfg)


def _compile_at(plan: _Plan, slices: int) -> tuple[np.ndarray, np.ndarray, int, dict]:
    """One slice count's word, a unit of table rows and angles repeated reps times.

    The report measures the slice's tree product raised to the slice count;
    the word itself is built once, for the caller.
    """
    gens, basis, cfg = plan.gens, plan.basis, plan.cfg
    coords, unit = _refine_coords(plan, slices)
    gen, tau = _slice_items(coords, basis, slices, gens, cfg)
    reps = slices * plan.copies
    if cfg.merge:
        # runs merge across slices, not across the two copies of a root
        merged = merge_adjacent(list(zip(gen.tolist(), tau.tolist())) * slices)
        gen, tau = np.array([g for g, _ in merged], dtype=np.intp), np.array([t for _, t in merged])
        reps = plan.copies
    frob, phase_inv = error_metrics(plan.target,
                                    np.linalg.matrix_power(unit, slices * plan.copies))
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
