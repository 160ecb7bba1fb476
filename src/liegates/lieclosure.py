"""Real Lie algebra generated by anti-Hermitian matrices under commutators.

The closure engine runs a breadth-first commutator sweep: the generators
form generation 0, then every newest element is commuted with every
earlier basis element and the commutators that leave the current span
join the basis; the sweep stops as soon as the basis spans su(N).  On a
set of scaled Pauli strings (the binary, l = 2, case: a Clifford algebra)
the sweep is bit arithmetic on the strings, a generation at a time: one
numpy pass over a chunk of the generation's pairs picks the commutators
whose string no element holds, each is weighed on its dense row, formed
by index (N entries each) from a string key and one scalar, and they are
admitted together.  Each element is its key and scalar, which the basis
keeps; its stack is written once, when the sweep ends.  Any other set
(the torus at l >= 3) has no such structure: its elements are rows of one
basis stack, and per newest element b_j each block of earlier rows B
gives its commutators from one product P = B b_j as P - P^dag, projected
on the frame to filter them; the ones kept are formed exactly and decided
one at a time by a double Gram-Schmidt pass.  Each element carries a
recipe, a binary commutator tree over primitive generator ids plus one
real scale, which the compiler realises as nested group commutators on
any set but a Pauli set; there its exact words are chains of generator
quarter turns, read from the keys and scalars.

Every basis element is its own normalised tree value, so its recipe
reproduces it up to rounding.  Span and rank decisions use an orthonormal
frame with the same flag of subspaces; the basis itself is orthonormal
exactly when the tree values are mutually orthogonal (all qubit families
and the torus at (1, 3)), and membership solves for coordinates through
the frame.  On a Pauli set the frame is the basis and no tri is stored:
distinct strings are exactly orthogonal, and the frame coordinates are
the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .config import DEFAULTS
from .errors import DimensionMismatchError, MatrixPropertyError, ParameterMismatchError
from .generators import FAMILIES as _BUILDERS, GeneratorSet, clifford_gammas
from .linalg import (Matrix, as_matrix, check_capacity, check_integer, commutator, frob_norm,
                     is_anti_hermitian)


@dataclass(frozen=True)
class Recipe:
    kind: str                 # "leaf" | "comm"
    gen_id: str | None = None
    left: int | None = None
    right: int | None = None
    coeff: float = 1.0        # frob_inner(basis element, local raw value)


@dataclass
class MembershipResult:
    member: bool
    coefficients: np.ndarray
    residual: float

    def __bool__(self) -> bool:
        return self.member


@dataclass
class LieBasis:
    """The breadth-first record of a closure.

    recipes[i] is a leaf in generation 0, else a commutator of two earlier
    elements, one of the generation before: the tree of element i has
    height generations[i], and scales and tree values take one forward pass.
    basis is the (dim, N, N) element array, basis[k] element k.  On the
    Pauli path it is the frame itself, tri is None and element k is the
    string scalars[k] X^x Z^z of key keys[k] = (x << n) | z, which string
    readers take instead of a row.  Otherwise the frame is a separate
    array.  coords is the one map to frame coordinates the compiler uses,
    for its Newton residual and Jacobian columns; membership still
    projects on the frame with its own einsum.
    """
    matrix_dim: int
    generator_matrices: dict[str, Matrix]
    basis: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0), dtype=complex))
    recipes: list[Recipe] = field(default_factory=list)
    generations: list[int] = field(default_factory=list)
    # orthonormal frame, basis[m] = sum_k tri[k, m] * frame[k] (k <= m); no tri: frame = basis
    frame: np.ndarray | None = None
    tri: np.ndarray | None = None
    # string key and unit scalar of each element, when every element is a scaled Pauli string
    keys: np.ndarray | None = None
    scalars: np.ndarray | None = None
    # compiler word templates of every element, built on the first compile
    _templates: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def dim_ambient(self) -> int:
        return self.matrix_dim**2

    @property
    def spans_su(self) -> bool:
        """Whether the closure fills the full traceless anti-Hermitian algebra."""
        return self.dim == self.dim_ambient - 1

    @property
    def pauli(self) -> bool:
        """Whether closure took the Pauli path: every element a scaled Pauli string."""
        return self.keys is not None

    def coords(self, stack: np.ndarray) -> np.ndarray:
        """(dim, len(stack)) frame coordinates Re tr(frame_k^dag X) = Re sum(frame_k * conj(X))."""
        return (self.frame.reshape(self.dim, -1) @ stack.reshape(len(stack), -1).conj().T).real

    def depth(self, i: int) -> int:
        """Height of element i's recipe tree, its generation."""
        return self.generations[i]

    def sexpr(self, i: int) -> str:
        r = self.recipes[i]
        if r.kind == "leaf":
            return r.gen_id
        return f"(comm {self.sexpr(r.left)} {self.sexpr(r.right)})"

    def recipe_scales(self) -> list[float]:
        """Per element, the scale relating its unfolded tree value to it."""
        scales: list[float] = []
        for r in self.recipes:
            scales.append(r.coeff if r.kind == "leaf"
                          else r.coeff * scales[r.left] * scales[r.right])
        return scales

    def max_recipe_residual(self) -> float:
        """Largest |tree value / scale - basis element|_F, the recipe fidelity.

        On a Pauli basis each tree value is a scaled string whose scalar,
        r = 2 r_left r_right (-1)^(z_left.x_right), is the dense product's
        own, so tree value / scale - basis element is the string times
        r / scale less the element's scalar; only a nonzero difference is
        filled out to take its norm, which is then the dense one bit for bit.
        """
        scales = self.recipe_scales()
        if self.keys is None:
            raw: list[Matrix] = []
            for r in self.recipes:
                raw.append(self.generator_matrices[r.gen_id] if r.kind == "leaf"
                           else commutator(raw[r.left], raw[r.right]))
            return max((frob_norm(v / scale - b)
                        for v, scale, b in zip(raw, scales, self.basis)), default=0.0)
        n, keys = self.matrix_dim.bit_length() - 1, self.keys.tolist()
        tree: list[complex] = []
        leaves = {}
        for k, (r, key) in enumerate(zip(self.recipes, keys)):
            if r.kind == "leaf":
                # divided in the generator's own dtype, as the dense value is
                v = np.asarray(self.generator_matrices[r.gen_id])[key >> n, :1]
                leaves[k] = (v / scales[k])[0]
                tree.append(complex(v[0]))
            else:
                tree.append(2 * tree[r.left] * tree[r.right]
                            * _string_sign(keys[r.left], keys[r.right], n))
        quotients = np.array(tree) / scales
        quotients[list(leaves)] = list(leaves.values())
        diff = quotients - self.scalars
        walsh = _walsh(self.matrix_dim)
        return max((frob_norm(_string_rows(self.keys[k:k + 1], diff[k:k + 1], walsh)[0])
                    for k in np.flatnonzero(diff)), default=0.0)


# bytes of basis rows per product in the dense candidate filter of closure:
# fewer, larger blocks read the frame fewer times (N = 27: 359 rows, N = 64: 64)
_BLOCK_BYTES = 1 << 22
# bytes of dense string rows the Pauli sweep weighs at once: a block this
# size stays in cache through its norm and coeff passes (su(64): 4 rows, su(16): 64)
_ROW_BYTES = 1 << 18
# pairs (i, j) a Pauli sweep weighs in one numpy pass: 8 int64 arrays of
# this length, 2 MB; a frontier element with more earlier elements is a
# pass of its own
_PAIRS = 1 << 15


@cache
def _odd(n: int) -> np.ndarray:
    """Read-only table of the parity of every int below 2^n, as bools, built by doubling."""
    odd = np.zeros(1, dtype=bool)
    for _ in range(n):
        odd = np.concatenate((odd, ~odd))
    odd.flags.writeable = False
    return odd


def _string_sign(a, b, n: int):
    """(-1)^(z_a.x_b), +/-1.0, for keys (x << n) | z (ints or arrays) of a product string:
    X^x_a Z^z_a X^x_b Z^z_b = (-1)^(z_a.x_b) X^(x_a ^ x_b) Z^(z_a ^ z_b)."""
    return 1.0 - 2 * _odd(n)[a & (b >> n)]


def _anticommute(a, b, n: int):
    """Whether strings of keys a and b anticommute: z_a.x_b + z_b.x_a is odd."""
    return _odd(n)[a & (b >> n)] ^ _odd(n)[b & (a >> n)]


def _walsh(n_dim: int) -> np.ndarray:
    """The (N, N) signs (-1)^(z.c) as floats, row z and column c, for N = 2^n."""
    col = np.arange(n_dim)
    return 1.0 - 2 * _odd(n_dim.bit_length() - 1)[col[:, None] & col]


def _string_rows(keys: np.ndarray, scalars: np.ndarray, walsh: np.ndarray) -> np.ndarray:
    """The (len(keys), N, N) dense rows s X^x Z^z of packed keys (x << n) | z and scalars s.

    Column c of a row holds s (-1)^(z.c) at row c ^ x; walsh is _walsh(N).
    + 0.0 clears the zero signs, which the dense product never sets.
    """
    n_dim = len(walsh)
    x, z = np.divmod(keys, n_dim)
    col = np.arange(n_dim)
    rows = np.zeros((len(keys), n_dim, n_dim), dtype=complex)
    rows[np.arange(len(keys))[:, None], col ^ x[:, None], col] = scalars[:, None] * walsh[z] + 0.0
    return rows


def _pauli_keys(mats: np.ndarray) -> np.ndarray | None:
    """Packed keys (x << n) | z of generators that are each exactly s * X^x Z^z.

    X^x Z^z maps |c> to (-1)^(z.c) |c ^ x> on N = 2^n basis states, so a
    scalar multiple s of it has one nonzero entry per column, s (-1)^(z.c)
    at row c ^ x.  x is read from the nonzero entry of row 0, s from
    column 0 and z from the signs at c = 2^k; the stack (m, N, N) passes
    only if every matrix equals that pattern exactly, with s nonzero.
    None otherwise, including when N is not a power of two.
    """
    m, n_dim = mats.shape[:2]
    if n_dim & (n_dim - 1) or np.count_nonzero(mats) != m * n_dim:
        return None
    n = n_dim.bit_length() - 1
    c = np.arange(n_dim)
    x = np.abs(mats[:, 0]).argmax(axis=1)
    vals = mats[np.arange(m)[:, None], c ^ x[:, None], c]
    s = vals[:, :1]
    bits = 1 << np.arange(n)
    z = (vals[:, bits] != s).dot(bits)
    # every nonzero entry sits on the pattern, and each equals s (-1)^(z.c)
    if np.count_nonzero(vals) != m * n_dim or not (vals == s * _walsh(n_dim)[z]).all():
        return None
    return (x << n) | z


def _frame_candidates(stack: np.ndarray, j: int, frame: np.ndarray, herm: np.ndarray,
                      half: float) -> list[int]:
    """The i < j whose [b_i, b_j] may leave the frame (real view) by more than half.

    stack[m] is b_m and herm[m] = |b_m + b_m^dag|.  P - P^dag, P = b_i b_j,
    differs from [b_i, b_j] by h_j b_i - b_j^dag h_i, h_m = b_m + b_m^dag,
    of norm at most herm[i] + herm[j] for unit elements, so its residual is
    held against half less that bound.
    """
    n_dim = stack.shape[1]
    bj = stack[j]
    block = max(1, _BLOCK_BYTES // bj.nbytes)
    keep: list[int] = []
    for lo in range(0, j, block):
        hi = min(lo + block, j)
        p = (stack[lo:hi].reshape(-1, n_dim) @ bj).reshape(hi - lo, n_dim, n_dim)
        c = (p - p.conj().transpose(0, 2, 1)).reshape(hi - lo, -1).view(float)
        r = c - (c @ frame.T) @ frame
        res = np.sqrt(np.einsum("ij,ij->i", r, r))
        keep += (lo + np.flatnonzero(res > half - (herm[lo:hi] + herm[j]))).tolist()
    return keep


def _bracket(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] of two elements the dense sweep built itself, so unvalidated."""
    return a @ b - b @ a


def _inner(a: Matrix, b: Matrix) -> float:
    """frob_inner of two matrices the closure holds, unvalidated."""
    return float((a.conj() * b).sum().real)


def _last_count(rows: np.ndarray, n_dim: int, half: float) -> int:
    """Element count at which the sweep stops, from the leaves' frame rows (real view).

    Only a leaf can carry the centre z = i*I/sqrt(N); a commutator c has
    residual |c| |frame . z| to first order, and |c| <= 2 for unit b_i, b_j.
    So N^2 - 1 (su(N)) when the rows leave out z, else N^2.
    """
    centre = (1j / np.sqrt(n_dim) * np.eye(n_dim)).reshape(-1).view(float)
    cap = n_dim * n_dim
    return cap - 1 if 2 * frob_norm(rows @ centre) <= half else cap


def closure(gens: GeneratorSet, tol: float | None = None) -> LieBasis:
    """Breadth-first commutator closure of an anti-Hermitian generator set.

    A generator g or commutator c = [b_i, b_j] whose Frobenius norm is
    above thresh = tol * N and which leaves the span joins the basis as
    g/|g| or c/|c|.  The basis is orthonormal exactly when the tree values
    are mutually orthogonal (all qubit families and the torus at (1, 3)).
    The result is that of deciding every pair i < j, j in the frontier,
    in (j, i) order; the span only grows, so a pair refused once would be
    refused at any later point of the sweep, and each engine skips such
    pairs without deciding them:

    * When every generator is exactly a scalar times a Pauli string
      X^x Z^z (every l = 2 family), every element is one, keyed by its
      bits (x, z): a commutator of two strings is exactly 0 when they
      commute and twice their product string, keyed x_i ^ x_j, z_i ^ z_j,
      when they anticommute, that is when (x_i & z_j) ^ (z_i & x_j) has
      odd parity.  Distinct strings are exactly orthogonal, so an element
      leaves the span exactly when no earlier element holds its key.  A
      generation is decided at once, over chunks of the frontier of at
      most _PAIRS pairs: one numpy pass over the chunk's pairs keeps the
      anticommuting ones whose product key no element holds and, per
      key, the first such pair in (j, i) order.  Its commutator is
      weighed on its dense row, formed by index from the product key and
      scalar with the dense product's floats, _ROW_BYTES of rows at a
      time, and it is admitted when its norm is above thresh; when it is
      not, the key's next pair is tried, as the pair-by-pair sweep would.
      While it sweeps, an element is its key and the scalar of its unit
      string; the basis stack, which is also the frame, is written once
      from them when the sweep ends, no Gram-Schmidt runs and tri is
      None.  LieBasis.keys and .scalars hold them.
    * Otherwise the elements are the rows of one basis stack, grown in
      place beside the frame.  Per frontier element b_j the earlier rows
      are taken in blocks B of at most 4 MB; one product P = B b_j gives
      P - P^dag, which is [b_i, b_j] for anti-Hermitian elements and
      within e_i + e_j of it in general, e_m = |b_m + b_m^dag| (0 to
      rounding on every built-in family).  A pair whose P - P^dag has a
      residual on the frame (two matrix products) of at most
      thresh/2 - (e_i + e_j) is dropped: its commutator's residual is at
      most thresh/2.  The others, in i order, are formed exactly one at a
      time, and each leaves the span when its residual, after a double
      Gram-Schmidt pass, is above thresh; that residual joins the
      orthonormal frame, and its frame coordinates are recorded in tri.

    The sweep terminates when nothing is admitted or the element count
    reaches its limit, fixed once the leaves are admitted: N^2 - 1 (su(N))
    when their frame rows leave out the centre direction i*I, since
    commutators are traceless, else N^2.  The dense sweep's frame grows
    in place, never past that limit, and ends with one row per element;
    the Pauli sweep allocates its stack once, one row per element.  A
    frame of N^2 rows of N^2 entries is refused with CapacityError above
    the dimension cap, before any buffer is allocated, and a generator
    whose norm overflows with MatrixPropertyError.  Deterministic for a
    fixed generator order.
    """
    tol = DEFAULTS.closure_tol if tol is None else tol
    if not 0 < tol < math.inf:
        raise ValueError(f"closure tol must be finite and positive, got {tol}")
    n_dim = gens.dim
    check_capacity(n_dim, 2)
    for el in gens.elements:
        if not is_anti_hermitian(el.matrix):
            raise MatrixPropertyError(f"generator {el.id} is not anti-Hermitian")
        with np.errstate(over="ignore"):
            if not math.isfinite(frob_norm(el.matrix)):
                raise MatrixPropertyError(f"generator {el.id} has a norm that overflows")
    mats = np.stack([as_matrix(el.matrix) for el in gens.elements])
    out = LieBasis(matrix_dim=n_dim,
                   generator_matrices={el.id: el.matrix for el in gens.elements})
    ids = [el.id for el in gens.elements]
    keys = _pauli_keys(mats)
    if keys is None:
        _dense_sweep(out, ids, mats, tol * n_dim)
    else:
        _pauli_sweep(out, ids, mats, keys, tol * n_dim)
    return out


def _pauli_sweep(out: LieBasis, ids: list[str], mats: np.ndarray, gen_keys: np.ndarray,
                 thresh: float) -> None:
    """closure's sweep on a Pauli set, recorded in out; gen_keys from _pauli_keys."""
    n_dim = out.matrix_dim
    n = n_dim.bit_length() - 1
    cap = n_dim * n_dim
    # the leaves' rows; per element its key and its scalar s, its unit
    # string s X^x Z^z; and whether an element holds a key
    leaves = np.empty((len(mats), n_dim, n_dim), dtype=complex)
    keys = np.empty(cap, dtype=np.int64)
    scalars = np.empty(cap, dtype=complex)
    held = np.zeros(cap, dtype=bool)
    k = 0
    for gid, m, key in zip(ids, mats, gen_keys.tolist()):
        norm = frob_norm(m)
        if norm > thresh and not held[key]:
            held[key] = True
            keys[k] = key
            b = np.divide(m, norm, out=leaves[k])
            scalars[k] = b[key >> n, 0]
            out.recipes.append(Recipe("leaf", gid, coeff=_inner(b, m)))
            k += 1
    leaves = leaves[:k]
    out.generations = [0] * k
    stop = _last_count(leaves.reshape(k, cap).view(float), n_dim, thresh / 2)

    walsh = _walsh(n_dim)
    step = max(1, _ROW_BYTES // (16 * cap))   # dense rows weighed at once

    def admit(js: np.ndarray, generation: int) -> None:
        """Decide every pair (i, j), i < j, j in js, in (j, i) order; admissions join at k."""
        nonlocal k
        jj = np.repeat(js, js)
        ii = np.arange(len(jj)) - np.repeat(np.cumsum(js) - js, js)
        ki, kj = keys[ii], keys[jj]
        prod = ki ^ kj
        pending = np.flatnonzero(_anticommute(ki, kj, n) & ~held[prod])
        if not pending.size:
            return
        # try the first pending pair of each key; one whose commutator is
        # too short hands its key to the key's next pair.  Per pair, the
        # coeff and unit scalar of its commutator once weighed
        coeff_at, unit_at = np.empty(len(prod)), np.empty(len(prod), complex)
        taken = []
        while pending.size:
            _, first = np.unique(prod[pending], return_index=True)
            first.sort()
            tried = pending[first]
            i, j = ii[tried], jj[tried]
            # for anticommuting strings b = s X^x Z^z, [b_i, b_j] = 2 b_i b_j
            # = 2 s_i s_j (-1)^(z_i.x_j) X^(x_i^x_j) Z^(z_i^z_j), s in complex
            # scalar arithmetic, as the dense product forms it
            s = np.array([2 * si * sj * g for si, sj, g in
                          zip(scalars[i].tolist(), scalars[j].tolist(),
                              _string_sign(keys[i], keys[j], n).tolist())])
            # norm and coeff are the dense row's, weighed a block of rows at a
            # time; every element is a unit string, so no norm is 0
            norm = np.empty(len(s))
            for r in range(0, len(s), step):
                block = tried[r:r + step]
                c = _string_rows(prod[block], s[r:r + step], walsh)
                norm[r:r + len(c)] = [frob_norm(row) for row in c]
                b = c / norm[r:r + len(c), None, None]
                # frob_inner(b, c) of each row
                coeff_at[block] = (b.conj() * c).reshape(len(c), cap).sum(axis=1).real
            unit_at[tried] = s / norm
            ok = norm > thresh
            taken.append(tried[ok])
            if ok.all():
                break
            retry = np.isin(prod[pending], prod[tried[~ok]])
            retry[first] = False
            pending = pending[retry]
        # admissions go in (j, i) order, and the sweep stops at the last element count
        pos = np.sort(np.concatenate(taken))[:stop - k]
        keys[k:k + len(pos)] = prod[pos]
        scalars[k:k + len(pos)] = unit_at[pos]
        held[prod[pos]] = True
        out.recipes += map(partial(Recipe, "comm", None), ii[pos].tolist(), jj[pos].tolist(),
                           coeff_at[pos].tolist())
        out.generations += [generation] * len(pos)
        k += len(pos)

    frontier = np.arange(k)
    generation = 0
    while frontier.size and k < stop:
        generation += 1
        start = k
        # pairs up to and including each frontier element; a chunk holds at
        # most _PAIRS of them, or one frontier element
        ends = np.cumsum(frontier)
        lo = 0
        while lo < frontier.size and k < stop:
            hi = max(int(np.searchsorted(ends, ends[lo] - frontier[lo] + _PAIRS, "right")),
                     lo + 1)
            admit(frontier[lo:hi], generation)
            lo = hi
        frontier = np.arange(start, k)

    # the one write of the stack, skipped when no commutator joined; the
    # leaves' rows are copied in, as they carry the generators' own zero signs
    stack = leaves
    if k > len(leaves):
        stack = _string_rows(keys[:k], scalars[:k], walsh)
        stack[:len(leaves)] = leaves
    out.frame = out.basis = stack
    out.keys, out.scalars = keys[:k].copy(), scalars[:k].copy()


def _dense_sweep(out: LieBasis, ids: list[str], mats: np.ndarray, thresh: float) -> None:
    """closure's sweep on any set that is not a Pauli set, recorded in out."""
    n_dim = out.matrix_dim
    cap = n_dim * n_dim
    # the basis stack, the frame rows (flat is their real view, where
    # frob_inner(q, r) is a dot product of rows), |b + b^dag| and, in row m,
    # the frame coordinates of element m (column m of tri), grown in place
    # together when full.  A resize moves the rows: a row is read afresh
    # after an admission, never held across one
    stack = np.empty((len(mats), n_dim, n_dim), dtype=complex)
    buf = np.empty_like(stack)
    flat = buf.reshape(len(buf), -1).view(float)
    herm = np.empty(len(buf))
    coords = np.zeros((len(buf), cap))
    k = 0

    def admit(c: Matrix, generation: int, *recipe) -> bool:
        """Add c/|c| if c leaves the span; recipe is (kind, gen_id, left, right)."""
        nonlocal flat, k
        norm_c = frob_norm(c)
        if norm_c <= thresh:
            return False
        if k == len(buf):
            # realloc, without a copy of the rows; flat is re-pointed.  The
            # sweep admits at most N^2 elements once the leaves are in
            for a in (stack, buf, herm, coords):
                a.resize((min(2 * k, cap),) + a.shape[1:], refcheck=False)
            flat = buf.reshape(len(buf), -1).view(float)
        # proj starts at 0.0, as a zeroed sum does: a -0.0 step reads +0.0
        frame, r, proj = flat[:k], c.reshape(-1).view(float), 0.0
        for _ in range(2):
            step = frame @ r
            r = r - step @ frame
            proj = proj + step
        r = r.view(complex).reshape(c.shape)
        norm_r = frob_norm(r)
        if norm_r <= thresh:
            return False
        b = np.divide(c, norm_c, out=stack[k])
        np.divide(r, norm_r, out=buf[k])
        np.divide(proj, norm_c, out=coords[k, :k])
        coords[k, k] = norm_r / norm_c
        out.recipes.append(Recipe(*recipe, _inner(b, c)))
        out.generations.append(generation)
        k += 1
        return True

    for gid, m in zip(ids, mats):
        admit(m, 0, "leaf", gid, None, None)
    half = thresh / 2
    stop = _last_count(flat[:k], n_dim, half)

    def pairs(frontier: list[int]):
        # the candidates of j are picked when the sweep reaches j, against the frame then
        for j in frontier:
            for i in _frame_candidates(stack, j, flat[:k], herm, half):
                yield i, j

    frontier = list(range(k))
    generation = 0
    while frontier and k < stop:
        generation += 1
        # herm of the frontier, the elements the last generation admitted:
        # the filter reads none of this generation's
        h = stack[frontier[0]:k]
        herm[frontier[0]:k] = np.linalg.norm(
            (h + h.conj().transpose(0, 2, 1)).reshape(len(h), -1), axis=1)
        admitted: list[int] = []
        for i, j in pairs(frontier):
            if admit(_bracket(stack[i], stack[j]), generation, "comm", None, i, j):
                admitted.append(k - 1)
                if k == stop:
                    break
        frontier = admitted

    for a in (stack, buf):
        a.resize((k, n_dim, n_dim), refcheck=False)
    out.basis = stack
    out.frame = buf
    out.tri = coords[:k, :k].T.copy()


def membership(a, basis: LieBasis) -> MembershipResult:
    """Coordinates of an anti-Hermitian matrix in the basis, if it lies in span.

    The matrix is projected onto the orthonormal frame; it is a member when
    the off-span residual is at most DEFAULTS.membership_tol times its
    norm.  Coefficients in the basis follow from the triangular frame
    coordinates tri; where tri is None (the Pauli path) the frame is the
    basis and the projections are the coefficients.
    """
    m = as_matrix(a)
    if m.shape[0] != basis.matrix_dim:
        raise DimensionMismatchError(
            f"dimension {m.shape[0]} does not match basis dimension {basis.matrix_dim}"
        )
    if not is_anti_hermitian(m):
        raise MatrixPropertyError("membership requires an anti-Hermitian matrix")
    return _membership(m, basis)


def _membership(m: Matrix, basis: LieBasis) -> MembershipResult:
    """membership without its checks: m is finite, anti-Hermitian and of the basis's size."""
    if basis.dim == 0:
        res = frob_norm(m)
        return MembershipResult(res == 0.0, np.zeros(0), res)
    # Re tr(frame_k^dag m) = Re sum(frame_k * conj(m)): no conjugated copy of the frame
    proj = np.einsum("kij,ij->k", basis.frame, m.conj()).real
    residual = frob_norm(m - np.tensordot(proj, basis.frame, axes=1))
    coeffs = proj if basis.tri is None else np.linalg.solve(basis.tri, proj)
    norm = frob_norm(m)
    return MembershipResult(residual <= DEFAULTS.membership_tol * max(norm, 1e-300), coeffs,
                            residual)


# ---------------------------------------------------------------------------
# dimension accounting
# ---------------------------------------------------------------------------

def predicted_dimension(label: str, n: int, l: int) -> int:
    """Published closure-dimension targets per family."""
    family = _BUILDERS.get(label)
    if family is None or family.predicted is None:
        raise ValueError(f"no prediction for {label!r}")
    return family.predicted(n, l)


def build_family(label: str, n: int, l: int = 2) -> GeneratorSet:
    """Build a registered family, refusing non-integer, pinned or out-of-range n and l."""
    family = _BUILDERS.get(label)
    if family is None:
        raise ValueError(f"unknown family {label!r}")
    for name, given in (("n", n), ("l", l)):
        check_integer(name, given)
        if family.pinned.get(name, given) != given:
            raise ParameterMismatchError(
                f"family {label!r} takes only {name} = {family.pinned[name]}, got {given}"
            )
        if given < family.least[name]:
            raise ValueError(f"family {label!r} needs {name} >= {family.least[name]}, "
                             f"got {name} = {given}")
    return family.build(n, l)


# the (n, l) rows of every family whose l is not pinned to 2
_TORUS_CASES = ((1, 3), (1, 4), (2, 3))


def dimension_table(max_n: int = 3, families: tuple[str, ...] | None = None) -> list[dict]:
    """Closure dimensions per family against the predicted formulas.

    The families with l pinned sweep n from 1 to max_n, the others take
    _TORUS_CASES.  Each row reports the computed dimension, the prediction, a match flag
    and whether the closure spans the full traceless algebra.  A u(N)
    prediction matches a closure that spans su(N): commutators are
    traceless, so the closure plus the centre i*I is the u(N) count.
    max_n that is no integer or below 1, and a selected name that is no
    family with a prediction, are refused with ValueError.
    """
    check_integer("max_n", max_n)
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    selected = {label: family for label, family in _BUILDERS.items()
                if family.predicted and (not families or label in families)}
    missing = [label for label in families or () if label not in selected]
    if missing:
        raise ValueError(f"no closure prediction to tabulate for {', '.join(map(repr, missing))}")
    if any(family.pinned for family in selected.values()):
        # the largest side the n sweep would build, and its closure frame,
        # refused before any case is listed
        check_capacity(2, max_n)
        check_capacity(2**max_n, 2)
    rows = []
    cases: list[tuple[str, int, int]] = []
    for label, family in selected.items():
        grid = [(n, 2) for n in range(1, max_n + 1)] if family.pinned else _TORUS_CASES
        cases += [(label, n, l) for n, l in grid if n >= family.least["n"]]
    for label, n, l in cases:
        basis = closure(build_family(label, n, l))
        predicted = predicted_dimension(label, n, l)
        match = basis.dim == predicted or (basis.spans_su and basis.dim + 1 == predicted)
        rows.append(
            {
                "family": label,
                "n": n,
                "l": l,
                "dim": basis.dim,
                "predicted": predicted,
                "match": match,
                "spans_su": basis.spans_su,
            }
        )
    return rows


def spin_subgroup_check(n: int) -> dict:
    """Verify the gamma-only closure is the expected rotation algebra.

    Dimension 2n^2 + n, spanned both ways by the 2n gammas and the
    n(2n - 1) ordered pair products.
    """
    gens = clifford_gammas(n)
    basis = closure(gens)
    mats = gens.matrices()
    explicit = list(mats)
    for j in range(len(mats)):
        for k in range(j + 1, len(mats)):
            explicit.append(mats[j] @ mats[k])

    # explicit elements inside the closure span; equal dimension then gives
    # the reverse inclusion
    into = all(membership(m, basis).member for m in explicit)
    rank = np.linalg.matrix_rank(np.stack(explicit).reshape(len(explicit), -1).view(float))
    back = int(rank) == basis.dim

    expected = 2 * n * n + n
    return {
        "n": n,
        "dim": basis.dim,
        "expected": expected,
        "gamma_count": 2 * n,
        "pair_count": n * (2 * n - 1),
        "span_match": into and back,
        "ok": basis.dim == expected and into and back,
    }
