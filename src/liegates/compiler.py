"""Unitary-to-gate-sequence compiler.

Given a target unitary and a generator set whose Lie closure is known, the
compiler takes the principal logarithm, reads off coordinates in the
closure basis, and emits a first-order product of slices; each coordinate
is realised as a primitive exponential or as the word of its element.
Which word depends on the generators, the paper's binary/non-binary split:

* Binary (every generator exactly a scaled Pauli string: every l = 2
  set).  Every element is a string too, and a quarter turn of a
  generator string A, A^2 = -I, conjugates an anticommuting string B
  onto their product exactly,

      exp(pi/4 A) exp(t B) exp(-pi/4 A) = exp(t A B),   AB = -BA,

  so an element the basis keys reach from a generator in k such steps,
  breadth first, has an exact word of 2k + 1 gates: the k quarter turns,
  that generator's gate, and the turns undone.  Each element's word is
  exp(theta b) up to rounding, and a slice is the closed-form product of
  cos(theta / sqrt(N)) I + sqrt(N) sin(theta / sqrt(N)) b over its
  elements: only the first-order splitting error O(|theta|^2 / slices)
  remains.
* Non-binary (the torus at l >= 3, any other set).  Nested group
  commutators along the element's recipe tree, exp(t P) exp(t Q)
  exp(-t P) exp(-t Q) ~ exp(t^2 [P, Q]), whose plain product converges
  only like 1 / sqrt(slices).

By default the coordinates are re-solved by Newton's method on the
one-slice equation W(theta) = exp(L / slices), L the target's traceless
logarithm, against the actual slice product W; the Jacobian is the
product-of-exponentials gradient (as in GRAPE, Khaneja et al., J. Magn.
Reson. 172:296, 2005), exact for exact words and a forward difference for
group commutators.  Each step is kept only while it lowers the error; this
keeps the gate alphabet, the word structure and the gate count unchanged
while driving the error to rounding whenever the iteration converges.  All
reported errors use the global-phase-invariant distance; the trace part of
the logarithm (a pure global phase) is projected out before the
coordinate solve.

Every mode runs one pipeline: `_plan` analyses the target once (one
eigendecomposition for the square-root split at the branch cut, the
logarithm and every slice count's exp(L / slices); coordinates) and
`_compile_at` refines, builds and evaluates the word of one slice count.
A depth-d group-commutator word has 4^d gates but only 2^d distinct leaf
exponentials: an element's word at a negative angle is the adjoint of its
word at the positive one, and a commutator node is P_L P_R P_L^dag P_R^dag
= (P_L P_R)(P_R P_L)^dag.  So one walk, _word_blocks, forms a slice's
words block by block, with their derivatives for the Jacobian: each leaf
is exponentiated once and each tree height formed in stacked products, on
one node stack sized to the largest block, and _linearise multiplies them.
The plan of that work depends only on the basis, so it is built once per
basis, with its templates, at the block budget _TREE_BYTES: the block
bounds and, per block, the node count, the leaves ordered by generator,
per tree height the stack positions of each node and its two children,
and the positions of the roots.  The Newton residual and every Jacobian
column take their coordinates only through LieBasis.coords.  Words stay
arrays of generator table rows and angles; (id, tau) pairs are built
once, for the returned GateSequence.  `evaluate` is the
flat reference: it multiplies any sequence 256 gates at a time.  Its gates
and the tree leaves come from one kernel, one generator's run of gates at
a time: a closed form cos(c tau) I + sin(c tau) / c A for a generator
whose spectrum is +/- ic, else a stacked product over the generator's
cached eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULTS
from .errors import (
    CapacityError,
    DepthExhaustedError,
    DimensionMismatchError,
    FamilyMismatchError,
    MatrixPropertyError,
    NotMemberError,
    UnknownGeneratorError,
)
from .generators import GeneratorSet
from .lieclosure import LieBasis, _anticommute, _membership, _string_sign
from .linalg import (
    Matrix,
    _herm_eig,
    _unitary_eig,
    as_matrix,
    check_integer,
    frob_norm,
    herm_eig,
    is_unitary,
    phase_invariant_dist,
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
        check_integer("slices", self.slices)
        check_integer("max_commutator_depth", self.max_commutator_depth)
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
    mat: np.ndarray       # (G, N, N) the generators
    lam: np.ndarray       # (G, N) eigenvalues of -i A
    w: np.ndarray         # (G, N, N) eigenvectors
    wh: np.ndarray        # (G, N, N) their adjoints
    freq: np.ndarray      # (G,) c where the spectrum of -i A is +/- c, else 0
    period: np.ndarray    # (G,) wrap period 2 pi / c, inf where angles do not wrap


def _eig_table(gens: GeneratorSet) -> _EigTable:
    """Eigendecompositions of -i A for every generator A, cached on the set."""
    table = gens._eig_table
    if table is None:
        ids = gens.ids()
        mats = gens.matrices()
        eigs = [herm_eig(-1j * mat) for mat in mats]
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
            mat=np.stack(mats),
            lam=lam,
            w=w,
            wh=w.conj().transpose(0, 2, 1).copy(),
            freq=np.where(wraps, top, 0.0),
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
    return _gates(table, np.array([k]), np.array([tau], dtype=float))[0]


def _reduce(mats: np.ndarray) -> Matrix:
    """Product of a non-empty stack of matrices, first leftmost, by pairwise products."""
    eye = np.eye(mats.shape[1], dtype=complex)[None]
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate((mats, eye))
        mats = mats[0::2] @ mats[1::2]
    return mats[0]


def _gates(table: _EigTable, gen: np.ndarray, tau: np.ndarray, out=None) -> np.ndarray:
    """Stack (or out) of the gates exp(A tau), given by table row and angle.

    The rows are in non-decreasing order, so each generator's gates are
    one run.  A generator whose -i A has spectrum +/- c squares to -c^2 I,
    so its gate is cos(c tau) I + sin(c tau) / c A in closed form; any
    other is exponentiated in its eigenbasis.
    """
    n = table.lam.shape[1]
    out = np.empty((len(gen), n, n), dtype=complex) if out is None else out
    counts = np.bincount(gen)
    stops = np.cumsum(counts)
    for g in np.flatnonzero(counts):
        run = slice(stops[g] - counts[g], stops[g])
        c = table.freq[g]
        if c:
            x = c * tau[run]
            out[run] = (np.cos(x)[:, None, None] * np.eye(n)
                        + (np.sin(x) / c)[:, None, None] * table.mat[g])
            continue
        phases = np.exp(1j * (tau[run][:, None] * table.lam[g]))
        # one (count * N, N) @ (N, N) product builds all gates of a generator
        scaled = table.w[g] * phases[:, None, :]
        np.matmul(scaled.reshape(-1, n), table.wh[g], out=out[run].reshape(-1, n))
    return out


def _word_product(table: _EigTable, gen: np.ndarray, tau: np.ndarray) -> Matrix:
    """Product of a word given by table rows and angles, first gate leftmost.

    Multiplied _CHUNK gates at a time, each chunk reduced by pairwise products.
    """
    out = np.eye(table.lam.shape[1], dtype=complex)
    for lo in range(0, len(gen), _CHUNK):
        order = lo + np.argsort(gen[lo:lo + _CHUNK], kind="stable")
        out = out @ _reduce(_gates(table, gen[order], tau[order])[np.argsort(order)])
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

# bytes of a block's node stack (one per walk, the largest block's) in
# _word_blocks: at N = 16, 256 nodes.  Read once per basis, by _templates
_TREE_BYTES = 1 << 20


class _Templates(NamedTuple):
    """Every basis element's word and the nodes it is written over.

    A node is a gate exp(A * angle) of one generator A (a leaf) or, on a
    group-commutator set, a commutator of two nodes.  For a coordinate
    theta a node's angle is value / coeff, its value |theta| at an
    element's root, fixed at a quarter turn, and below a root set by the
    node above it.  Element j's word is a list of (node, sign) entries,
    each the node's gate at sign times its angle, for a positive theta; a
    negative theta reads the word backwards with every sign flipped,
    which realises P^dag.

    * Group commutators (no pauli flag).  Nodes are numbered element by
      element, each element's root first and every node before its
      children, whose height (their element's generation) is smaller.
      Both children f, s of node k (in recipe order) have value
      sqrt(value / coeff) of node k, and P_k = P_f P_s P_f^dag P_s^dag, as
      exp(tP) exp(tQ) exp(-tP) exp(-tQ) realises t^2 [P, Q].
    * Quarter-turn chains (pauli flag).  Node j < dim is element j's
      carrier, the leaf of the generator its chain starts from; one node
      after them per leaf element a is its quarter turn C_a, of value
      pi sqrt(N) / 4.  Element j's word is C_{a_k}...C_{a_1}, its carrier
      at sigma_j, and C_{a_1}^dag...C_{a_k}^dag (see _chains), so reading
      it backwards with every sign flipped negates only the carrier.

    blocks is the plan _word_blocks walks, built with the templates at the
    budget _TREE_BYTES held then.
    """
    node_start: np.ndarray  # (dim + 1,) first node of each element
    word_start: np.ndarray  # (dim + 1,) first word entry of each element
    coeff: np.ndarray       # coeff of each node's recipe, a carrier's that of its leaf
    fixed: np.ndarray       # value of a quarter-turn node, 0 at any other
    height: np.ndarray      # generation of the node's element: 0 at a leaf
    by_height: tuple        # commutator nodes, one array per height from 1, the largest first
    first: np.ndarray       # children of a commutator node in product order,
    second: np.ndarray      # -1 at a leaf
    leaf_gen: np.ndarray    # generator table row of a leaf node, -1 elsewhere
    node: np.ndarray        # node of each word entry (positive theta)
    sign: np.ndarray        # +1 or -1 per entry, times the node's angle
    blocks: tuple           # the _Block plans of _word_blocks, at _TREE_BYTES


def _templates(basis: LieBasis) -> _Templates:
    """Every element's templates and block plan, built on the first compile against the basis."""
    if basis._templates is not None:
        return basis._templates
    for i, rec in enumerate(basis.recipes):
        if not rec.coeff > 0:
            raise ValueError(f"recipe {i} has coeff {rec.coeff}; closure writes positive ones")
    position = {gen_id: k for k, gen_id in enumerate(basis.generator_matrices)}
    coeff, fixed, height, first, second, leaf_gen = ([] for _ in range(6))

    def add(i: int, value: float = 0.0) -> int:
        # a node for element i's recipe: its number
        rec = basis.recipes[i]
        coeff.append(rec.coeff)
        fixed.append(value)
        height.append(basis.generations[i])
        first.append(-1)
        second.append(-1)
        leaf_gen.append(position[rec.gen_id] if rec.kind == "leaf" else -1)
        return len(coeff) - 1

    def unfold(i: int) -> tuple[int, list]:
        # node k and its positive-theta word as (leaf node, sign) entries
        k, rec = add(i), basis.recipes[i]
        if rec.kind == "leaf":
            return k, [(k, 1.0)]
        (f, f_word), (s, s_word) = unfold(rec.left), unfold(rec.right)
        first[k], second[k] = f, s
        return k, f_word + s_word + [(node, -e) for node, e in f_word[::-1] + s_word[::-1]]

    node_start, word_start, word = [0], [0], []
    if basis.pauli:
        chains, carrier_sign = _chains(basis)
        for chain in chains:
            add(chain[-1])
        quarter = math.pi * math.sqrt(basis.matrix_dim) / 4
        turn = {a: add(a, quarter) for a, rec in enumerate(basis.recipes) if rec.kind == "leaf"}
        for j, (chain, sigma) in enumerate(zip(chains, carrier_sign)):
            turns = [turn[a] for a in chain[:-1]]
            word += [(k, 1.0) for k in turns] + [(j, sigma)] + [(k, -1.0) for k in turns[::-1]]
            word_start.append(len(word))
        node_start = range(basis.dim + 1)
    else:
        for i in range(basis.dim):
            word.extend(unfold(i)[1])
            node_start.append(len(coeff))
            word_start.append(len(word))
    node, sign = (np.array(col) for col in zip(*word)) if word else [np.empty(0)] * 2

    def ints(values):
        return np.array(values, dtype=np.intp)

    first, height = ints(first), ints(height)
    t = _Templates(
        ints(node_start), ints(word_start), np.array(coeff, dtype=float),
        np.array(fixed, dtype=float), height,
        tuple(np.flatnonzero((first >= 0) & (height == h))
              for h in range(height.max(initial=0), 0, -1)),
        first, ints(second), ints(leaf_gen), ints(node), sign.astype(float), (),
    )
    basis._templates = t._replace(blocks=_plan_blocks(t, basis, _TREE_BYTES))
    return basis._templates


def _chains(basis: LieBasis) -> tuple[list[list[int]], list[float]]:
    """Per element of a Pauli basis, its quarter-turn chain and carrier sign.

    With A = sqrt(N) b_a, A^2 = -I, and for a string b_p that anticommutes
    with b_a, C_a = exp(pi/4 A) gives C_a b_p C_a^dag = A b_p = sigma b_q,
    q = p ^ a, sigma = +/-1 (Cowtan et al., arXiv:1906.01734).  A
    breadth-first search from the leaves over their quarter turns, both in
    basis order, gives q its first (p, a); its chain is a, then p's chain,
    which ends at a leaf l, and exp(theta b_q) = C_a exp(sigma theta b_p)
    C_a^dag, so its carrier is l at the product of sigma along the chain.
    With b = s X^x Z^z, A b_p = sqrt(N) s_a s_p (-1)^(z_a.x_p) X^x' Z^z':
    sigma is the sign of s_a s_p conj(s_q) (-1)^(z_a.x_p), of keys and scalars
    alone.  A basis with an element no chain reaches is refused with ValueError.
    """
    dim, n = basis.dim, basis.matrix_dim.bit_length() - 1
    keys, scalars = basis.keys.tolist(), basis.scalars.tolist()
    order = [a for a, rec in enumerate(basis.recipes) if rec.kind == "leaf"]
    # per leaf a: its key and, per element p, whether b_p anticommutes with
    # b_a and the sign (-1)^(z_a.x_p) of their product
    ka = basis.keys[order][:, None]
    turns = list(zip(order, ka[:, 0].tolist(), _anticommute(basis.keys, ka, n).tolist(),
                     _string_sign(ka, basis.keys, n).tolist()))
    chains = [[a] if rec.kind == "leaf" else None for a, rec in enumerate(basis.recipes)]
    # the elements no chain reaches yet, by key
    index = {key: q for q, key in enumerate(keys) if chains[q] is None}
    sign = [1.0] * dim
    for p in order:
        if not index:
            break
        kp = keys[p]
        for a, ka, anti, sign_a in turns:
            q = index.pop(kp ^ ka, None) if anti[p] else None
            if q is None:
                continue
            chains[q] = [a] + chains[p]
            sigma = scalars[a] * scalars[p] * scalars[q].conjugate() * sign_a[p]
            sign[q] = sign[p] if sigma.real > 0 else -sign[p]
            order.append(q)
    if index:
        raise ValueError(f"{len(index)} basis elements lie on no chain of generator "
                         "quarter turns")
    return chains, sign


def _realised(coords: np.ndarray, slices: int) -> np.ndarray:
    """Each element's coordinate in one slice, 0 where the slice does not realise it.

    Coordinates under 1e-14 and slice values under 1e-15 are dropped.  In a
    group-commutator word a commutator's scale |[b_i, b_j]| is at most 2,
    so below the root every value is at least sqrt(1e-15 / 2) and only the
    root can fall under the cut; in an exact word a carrier scales with the
    root and a conjugator is fixed.
    """
    theta = coords / slices
    return np.where((np.abs(coords) >= 1e-14) & (np.abs(theta) >= 1e-15), theta, 0.0)


def _node_angles(t: _Templates, theta: np.ndarray) -> np.ndarray:
    """Angle of every node (see _Templates) for one slice's element coordinates theta.

    The roots take |theta|, the quarter turns their fixed value, and each
    commutator node sets its children's values, one height at a time, the
    largest first; sqrt and division are correctly rounded, so they are
    those of a node-by-node pass, bit for bit.
    """
    value = t.fixed.copy()
    value[t.node_start[:-1]] = np.abs(theta)
    for nodes in t.by_height:
        value[t.first[nodes]] = value[t.second[nodes]] = np.sqrt(value[nodes] / t.coeff[nodes])
    return value / t.coeff


def _slice_items(coords: np.ndarray, basis: LieBasis, slices: int,
                 gens: GeneratorSet, cfg: CompileConfig) -> tuple[np.ndarray, np.ndarray]:
    """One slice's word as (table rows, angles): template words, wrapped and clipped.

    With cfg.merge it is the word of all slices, runs of equal rows merged
    first; more than _MAX_GATES gates before the merge are refused with
    CapacityError.  Angles are then reduced by their generator's period and
    oversized ones split into equal parts; no move changes the product.
    """
    t = _templates(basis)
    theta = _realised(coords, slices)
    angle = _node_angles(t, theta)
    active = np.flatnonzero(theta)
    negative = theta[active] < 0
    table = _eig_table(gens)
    counts = np.diff(t.word_start)[active]
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    back = np.repeat(negative, counts)
    # a negative theta reads its element's word backwards, every sign flipped
    entry = np.repeat(t.word_start[active], counts) + np.where(
        back, np.repeat(counts - 1, counts) - pos, pos)
    row = t.leaf_gen[t.node[entry]]
    tau = np.where(back, -t.sign[entry], t.sign[entry]) * angle[t.node[entry]]
    if cfg.merge:
        _check_gates(len(row) * slices)
        runs = merge_adjacent(list(zip(row.tolist(), tau.tolist())) * slices)
        row, tau = np.array([g for g, _ in runs], dtype=np.intp), np.array([t for _, t in runs])
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


class _Block(NamedTuple):
    """Elements lo:hi of _word_blocks and, on a group-commutator set, the plan
    of their node stack: the leaves first, ordered by generator, then the
    nodes of each tree height, the lowest first."""
    lo: int
    hi: int
    nodes: int = 0                    # stack size
    leaves: np.ndarray | None = None  # node of each leaf, in stack order
    levels: tuple = ()                # per height (start, stop, first, second) positions
    roots: np.ndarray | None = None   # position of each element's root


def _plan_blocks(t: _Templates, basis: LieBasis, tree_bytes: int) -> tuple[_Block, ...]:
    """Elements in greedy blocks of at most tree_bytes of stacked matrices (or
    one element), each with its stack's plan: an exact element counts one
    matrix, a group-commutator element its tree nodes."""
    budget = tree_bytes // (16 * basis.matrix_dim**2)
    sizes, dim = np.diff(t.node_start).tolist(), basis.dim
    bounds = [0]
    while bounds[-1] < dim:
        hi, total = bounds[-1] + 1, sizes[bounds[-1]]
        while hi < dim and total + sizes[hi] <= budget:
            total += sizes[hi]
            hi += 1
        bounds.append(hi)
    if basis.pauli:
        return tuple(_Block(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        base = t.node_start[lo]
        nodes = np.arange(base, t.node_start[hi])
        order = nodes[np.lexsort((t.leaf_gen[nodes], t.height[nodes]))]
        pos = np.empty(len(nodes), np.intp)   # stack position of node base + i
        pos[order - base] = np.arange(len(order))
        cuts = np.searchsorted(t.height[order], np.arange(t.height[order[-1]] + 2))
        levels = []
        for start, stop in zip(cuts[1:], cuts[2:]):
            f, s = (pos[child[order[start:stop]] - base] for child in (t.first, t.second))
            levels.append((start, stop, f, s))
        blocks.append(_Block(lo, hi, len(nodes), order[:cuts[1]], tuple(levels),
                             pos[t.node_start[lo:hi] - base]))
    return tuple(blocks)


def _word_blocks(basis: LieBasis, gens: GeneratorSet, theta: np.ndarray,
                 derivative: bool = False):
    """The words of every element at one slice's coordinates theta, by block.

    Yields (elements, words, diff) from the last block back, the elements
    as a slice.  An element with theta 0 has word I.  An exact word is
    exp(theta b_j) with b_j^2 = -I/N, so it is cos(theta / sqrt(N)) I +
    sqrt(N) sin(theta / sqrt(N)) b_j.  A group-commutator word is formed
    on its tree: each leaf, at its raw angle, is exponentiated once and
    each commutator node formed from its children one tree height at a
    time, on one node stack that serves every block.  Every element of a
    block is formed and the theta = 0 words are then set to I; a block
    with no nonzero theta forms nothing.  diff is None without derivative,
    else D_j = F_j^-1 dF_j / dtheta_j of each word F_j: b_j for an exact
    word, for a group-commutator word the forward difference to its block
    formed again, right after, at theta + _DIFF_STEP.
    """
    n, t = basis.matrix_dim, _templates(basis)
    if basis.pauli:
        for b in reversed(t.blocks):
            elems = slice(b.lo, b.hi)
            x, exact = theta[elems] / math.sqrt(n), basis.basis[elems]
            words = (np.cos(x)[:, None, None] * np.eye(n)
                     + (math.sqrt(n) * np.sin(x))[:, None, None] * exact)
            yield elems, words, exact if derivative else None
        return
    points = [theta, theta + _DIFF_STEP] if derivative else [theta]
    angles = [_node_angles(t, p) for p in points]
    stack = np.empty((max((b.nodes for b in t.blocks), default=0), n, n), dtype=complex)
    for b in reversed(t.blocks):
        elems = slice(b.lo, b.hi)
        words = []
        for point, angle in zip(points, angles):
            part = point[elems]
            if part.any():
                _gates(_eig_table(gens), t.leaf_gen[b.leaves], angle[b.leaves],
                       stack[:len(b.leaves)])
                for start, stop, f, s in b.levels:
                    # P_f P_s P_f^dag P_s^dag = (P_f P_s) (P_s P_f)^dag
                    first, second = stack[f], stack[s]
                    right = second @ first
                    np.matmul(first @ second, np.conj(right, out=right).transpose(0, 2, 1),
                              out=stack[start:stop])
            word = stack[b.roots]   # a copy: the stack is free for the next point
            back = part < 0
            word[back] = word[back].conj().transpose(0, 2, 1)
            word[part == 0] = np.eye(n)   # every word, where no node was formed
            words.append(word)
        diff = None
        if derivative:
            diff = words[0].conj().transpose(0, 2, 1) @ (words[1] - words[0])
            diff /= (points[1] - theta)[elems, None, None]
        yield elems, words[0], diff


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

# refinement steps per compile; the error refinement stops at (rounding);
# the forward-difference step of a group-commutator word; slice cap of the
# target-error mode; gates a word may hold (a list of 16M items takes
# 128 MB)
_REFINE_MAX_ITER = 60
_ERR_FLOOR = 1e-13
_DIFF_STEP = 1e-7
_MAX_SLICES = 4096
_MAX_GATES = 1 << 24


def _check_gates(count: int) -> None:
    """Refuse a word of more than _MAX_GATES gates before it is allocated."""
    if count > _MAX_GATES:
        raise CapacityError(f"the word would hold {count} gates, above the cap of {_MAX_GATES}")


def _log_unitary(x: Matrix) -> Matrix:
    """Principal logarithm of a unitary x with no eigenvalue -1, by its Cayley transform.

    i (I - x)(I + x)^-1 is Hermitian with eigenvalues tan(phi / 2) for
    the eigenphases phi of x, on the eigenvectors of x; an eigenvalue at
    -1 raises LinAlgError.
    """
    eye = np.eye(len(x))
    cayley = 1j * np.linalg.solve((eye + x).T, (eye - x).T).T
    tan_half, w = _herm_eig((cayley + cayley.conj().T) / 2)
    return (w * (2j * np.arctan(tan_half))) @ w.conj().T


def _linearise(coords: np.ndarray, basis: LieBasis, slices: int, gens: GeneratorSet,
               jacobian: bool = True) -> tuple[Matrix, np.ndarray | None]:
    """The slice product W of coords and, with jacobian, the Jacobian of c -> W.

    W is the product over realised elements of their words (see
    _word_blocks), multiplied onto the identity from the last one back; the
    merge, the period wrap and the tau_clip split of _slice_items leave it
    unchanged.  With F_j the word of element j, S_j the product of the words
    after it and D_j = F_j^-1 dF_j / dtheta_j, the walk's diff,
    W^-1 dW / dc_j = S_j^dag D_j S_j / slices; column j of the Jacobian is
    its frame coordinates.  The suffix S_j is carried from block to block
    and ends as W, so W has the same bits without the Jacobian, which
    forms no suffix stack or column and returns (W, None).
    """
    theta = _realised(coords, slices)
    jac = np.empty((basis.dim, basis.dim)) if jacobian else None
    suffix = np.eye(basis.matrix_dim, dtype=complex)
    for elems, words, diff in _word_blocks(basis, gens, theta, jacobian):
        after = np.empty_like(words) if jacobian else None
        for k in range(len(words) - 1, -1, -1):
            if jacobian:
                after[k] = suffix
            suffix = words[k] @ suffix
        if jacobian:
            jac[:, elems] = basis.coords(after.conj().transpose(0, 2, 1) @ diff @ after)
    return suffix, jac / slices if jacobian else None


def _refine_coords(plan: _Plan, slices: int) -> tuple[np.ndarray, Matrix]:
    """Newton solve of the one-slice equation W(c) = V_m, V_m = exp(L / m).

    L is the root's traceless logarithm and m the slice count, so W^m is
    the root up to a phase.  The residual is the frame coordinates of
    log(W^dag V_m), and each step solves the Jacobian of _linearise
    against it.  A step is kept only if it lowers the phase-invariant
    error of W^m, otherwise the solve ends, so the current iterate is
    always the best one; it also ends at the rounding floor _ERR_FLOOR.
    With cfg.refine off the solve takes no step.  Returns the iterate with
    its slice product.
    """
    u, basis, gens = plan.root, plan.basis, plan.gens
    c = plan.coords
    if not plan.cfg.refine or not basis.dim:
        return c, _linearise(c, basis, slices, gens, jacobian=False)[0]
    unit, jac = _linearise(c, basis, slices, gens)
    err = phase_invariant_dist(u, np.linalg.matrix_power(unit, slices))
    v_m = (plan.vecs * np.exp(1j * plan.phases / slices)) @ plan.vecs.conj().T
    for _ in range(_REFINE_MAX_ITER):
        if err <= _ERR_FLOOR:
            break
        if jac is None:
            jac = _linearise(c, basis, slices, gens)[1]
        try:
            residual = _log_unitary(unit.conj().T @ v_m)
            cand = c + np.linalg.solve(jac, basis.coords(residual[None])[:, 0])
        except np.linalg.LinAlgError:
            break
        unit_cand = _linearise(cand, basis, slices, gens, jacobian=False)[0]
        err_cand = phase_invariant_dist(u, np.linalg.matrix_power(unit_cand, slices))
        if err_cand >= err:
            break
        c, unit, err, jac = cand, unit_cand, err_cand, None
    return c, unit


class _Plan(NamedTuple):
    """What a compile needs that does not depend on the slice count."""
    target: Matrix
    root: Matrix          # the target, or its principal square root if copies == 2
    copies: int           # times the root's word is emitted
    coords: np.ndarray    # coordinates of the root's traceless logarithm L
    phases: np.ndarray    # L = vecs diag(i phases) vecs^dag
    vecs: Matrix
    gens: GeneratorSet
    basis: LieBasis
    cfg: CompileConfig


def _plan(u, gens: GeneratorSet, basis: LieBasis, cfg: CompileConfig) -> _Plan:
    """Check the target and read off its coordinates, once per compile.

    One eigendecomposition gives the root, its logarithm and, in
    _refine_coords, every slice count's V_m.
    """
    m = as_matrix(u)
    if m.shape[0] != gens.dim or m.shape[0] != basis.matrix_dim:
        raise DimensionMismatchError(
            f"target dimension {m.shape[0]} does not match generators ({gens.dim})"
        )
    if gens.ids() != list(basis.generator_matrices):
        raise FamilyMismatchError("generator ids differ from the basis's, or their order")
    if not is_unitary(m):
        raise MatrixPropertyError("compile requires a unitary target")
    phases, vecs = _unitary_eig(m)
    copies, root = 1, m
    if np.any(math.pi - np.abs(phases) < DEFAULTS.branch_warn_margin):
        # compile the principal square root and emit it twice, avoiding the
        # logarithm discontinuity at eigenphase pi
        copies, phases = 2, phases / 2
        root = (vecs * np.exp(1j * phases)) @ vecs.conj().T
    # the trace part of the logarithm is a global phase
    phases = phases - phases.mean()
    log = (vecs * (1j * phases)) @ vecs.conj().T
    res = _membership((log - log.conj().T) / 2, basis)
    if not res.member:
        raise NotMemberError(res.residual, "target logarithm lies outside the generated "
                             f"algebra (residual {res.residual:.6g})")
    needed = np.flatnonzero(np.abs(res.coefficients) >= 1e-14)
    max_depth = int(np.array(basis.generations)[needed].max(initial=0))
    if max_depth > cfg.max_commutator_depth:
        raise DepthExhaustedError(f"recipe depth {max_depth} exceeds configured maximum "
                                  f"{cfg.max_commutator_depth}")
    return _Plan(m, root, copies, res.coefficients, phases, vecs, gens, basis, cfg)


def _compile_at(plan: _Plan, slices: int) -> tuple[np.ndarray, np.ndarray, int, dict]:
    """One slice count's word, a unit of table rows and angles repeated reps times.

    The report measures the slice product raised to the slice count;
    the word itself is built once, for the caller.  A word of more than
    _MAX_GATES gates is refused with CapacityError before its error is formed.
    """
    gens, basis, cfg = plan.gens, plan.basis, plan.cfg
    coords, unit = _refine_coords(plan, slices)
    gen, tau = _slice_items(coords, basis, slices, gens, cfg)
    # a merged word spans the slices, not the two copies of a root
    reps = plan.copies if cfg.merge else slices * plan.copies
    _check_gates(reps * len(gen))
    # _plan checked the target; the product is unitary only to rounding, which
    # grows with the power, so error_metrics' unitarity check is not repeated
    product = np.linalg.matrix_power(unit, slices * plan.copies)
    report = {"frob_error": frob_norm(plan.target - product),
              "phase_invariant_error": phase_invariant_dist(plan.target, product),
              "slice_count": plan.copies * slices, "gate_count": reps * len(gen)}
    if plan.copies == 2:
        report["square_root_split"] = True
    return gen, tau, reps, report


def compile(u, gens: GeneratorSet, basis: LieBasis,
            cfg: CompileConfig | None = None) -> GateSequence:
    """Compile a unitary into a sequence of generator exponentials.

    The basis must be closure(gens): the compiler reads its word structure
    from the closure's recipes and pauli flag, and refuses a set whose ids
    differ from the basis's generator ids, or their order, with
    FamilyMismatchError.  The target's principal logarithm must lie in the
    basis span up to a global phase, otherwise NotMemberError carries the
    off-span residual.
    A slice count whose word would pass _MAX_GATES gates is refused with
    CapacityError before the word or its error is formed.  When
    cfg.target_error is set the slice count doubles until the
    phase-invariant error reaches the target, _MAX_SLICES slices are
    reached or the next word would pass _MAX_GATES, even where the error
    grows; the best word is returned, and the error actually achieved is
    always reported, never promised.
    cfg.max_commutator_depth caps the recipe depth (closure generation) of
    the deepest element the target needs, else DepthExhaustedError; on a
    Pauli set a word is a quarter-turn chain with no commutator in it, so
    the cap does not bound the word.
    """
    cfg = cfg or CompileConfig()
    plan = _plan(u, gens, basis, cfg)
    slices = cfg.slices
    gen, tau, reps, report = _compile_at(plan, slices)
    if cfg.target_error is not None:
        while report["phase_invariant_error"] > cfg.target_error and slices < _MAX_SLICES:
            slices *= 2
            try:
                word = _compile_at(plan, slices)
            except CapacityError:
                break
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
    A slice count whose word would pass _MAX_GATES gates is refused with
    CapacityError, as in compile.  The sweep takes its slice counts from
    m_values alone: a cfg with slices other than 1 or a target_error is
    refused with ValueError, as is a slice count that is not an integer.
    """
    cfg = cfg or CompileConfig()
    if cfg.slices != 1 or cfg.target_error is not None:
        raise ValueError("compile_report sweeps m_values; cfg.slices and cfg.target_error "
                         "do not apply")
    m_values = DEFAULTS.m_sweep if m_values is None else tuple(m_values)
    for m in m_values:
        check_integer("slices", m)
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
