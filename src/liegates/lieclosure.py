"""Real Lie algebra generated by anti-Hermitian matrices under commutators.

The closure engine runs a breadth-first commutator sweep: the generators
form generation 0, then every newest element is commuted with every
earlier basis element and the commutators that leave the current span
join the basis.  Per newest element a filter picks the commutators worth
deciding, and only those are formed and decided one at a time; the
sweep stops as soon as the basis spans su(N).  On a set of scaled Pauli
strings (the binary, l = 2, case: a Clifford algebra) the whole sweep is
bit arithmetic on the strings: the filter, each commutator (N entries
filled by index) and each admission (a key not yet held).  Any other set
(the torus at l >= 3) has no such structure: its commutators are dense
products, projected on the frame in batches to filter them and by a
double Gram-Schmidt pass to admit them.  Each element carries a recipe,
a binary commutator tree over primitive generator ids plus one real
scale, which the compiler later realises as a word: exact quarter-turn
conjugations on a Pauli set, nested group commutators otherwise.

Every basis element is its own normalised tree value, so its recipe
reproduces it up to rounding.  Span and rank decisions use an orthonormal
frame with the same flag of subspaces; the basis itself is orthonormal
exactly when the tree values are mutually orthogonal (all qubit families
and the torus at (1, 3)), and membership solves for coordinates through
the frame.  On a Pauli set the frame is the basis: distinct strings are
exactly orthogonal, and the frame coordinates are the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULTS
from .errors import DimensionMismatchError, MatrixPropertyError, ParameterMismatchError
from .generators import FAMILIES as _BUILDERS, GeneratorSet, clifford_gammas
from .linalg import (Matrix, as_matrix, check_capacity, commutator, frob_inner, frob_norm,
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
    On the Pauli path (pauli) basis[k] is a view of row k of the frame, one
    (dim, N, N) stack, and no tri is stored: it reads as the identity.
    """
    matrix_dim: int
    generator_matrices: dict[str, Matrix]
    basis: list[Matrix] = field(default_factory=list)
    recipes: list[Recipe] = field(default_factory=list)
    generations: list[int] = field(default_factory=list)
    # orthonormal frame with basis[m] = sum_k tri[k, m] * frame[k], k <= m
    frame: np.ndarray | None = None
    _tri: np.ndarray | None = field(default=None, repr=False)
    pauli: bool = False  # closure took the Pauli path: every element a scaled Pauli string
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
    def tri(self) -> np.ndarray:
        """Frame coordinates of the basis; when none are stored, the identity, built per read."""
        return np.eye(self.dim) if self._tri is None else self._tri

    @tri.setter
    def tri(self, value: np.ndarray | None) -> None:
        self._tri = value

    def stacked(self) -> np.ndarray:
        return np.stack(self.basis)

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
        """Largest |tree value / scale - basis element|_F, the recipe fidelity."""
        raw: list[Matrix] = []
        for r in self.recipes:
            raw.append(self.generator_matrices[r.gen_id] if r.kind == "leaf"
                       else commutator(raw[r.left], raw[r.right]))
        return max((frob_norm(v / scale - b)
                    for v, scale, b in zip(raw, self.recipe_scales(), self.basis)), default=0.0)


# commutator rows per stacked product in the dense candidate filter of closure
_BLOCK = 64


def _parity(a: np.ndarray, width: int) -> np.ndarray:
    """Parity (0 or 1) of the set bits of each entry of an int array below 2^width.

    Xor-folding halves the width per step, so ceil(log2(width)) steps.
    """
    shift = 1 << max(width - 1, 0).bit_length()
    while shift > 1:
        shift //= 2
        a = a ^ (a >> shift)
    return a & 1


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
    signs = 1 - 2 * _parity(z[:, None] & c, n)
    # every nonzero entry sits on the pattern, and each equals s (-1)^(z.c)
    if np.count_nonzero(vals) != m * n_dim or not (vals == s * signs).all():
        return None
    return (x << n) | z


def _frame_candidates(basis: list[Matrix], j: int, frame: np.ndarray, half: float) -> list[int]:
    """The i < j whose [b_i, b_j] leaves the frame (real view) by more than half."""
    bj = basis[j]
    keep: list[int] = []
    for lo in range(0, j, _BLOCK):
        b = np.stack(basis[lo:min(lo + _BLOCK, j)])
        c = (b @ bj - bj @ b).reshape(len(b), -1).view(float)
        res = np.linalg.norm(c - (c @ frame.T) @ frame, axis=1)
        keep += (lo + np.flatnonzero(res > half)).tolist()
    return keep


def closure(gens: GeneratorSet, tol: float | None = None) -> LieBasis:
    """Breadth-first commutator closure of an anti-Hermitian generator set.

    A generator g or commutator c = [b_i, b_j] whose Frobenius norm is
    above thresh = tol * N and which leaves the span joins the basis as
    g/|g| or c/|c|.  The basis is orthonormal exactly when the tree values
    are mutually orthogonal (all qubit families and the torus at (1, 3)).

    Per frontier element b_j, a filter picks the i < j worth deciding; the
    picked commutators, in i order, are formed and decided one at a time,
    so the result is that of deciding every pair in turn.  The filter only
    drops pairs that would be refused now and at any later point of the
    sweep, since the span only grows:

    * When every generator is exactly a scalar times a Pauli string
      X^x Z^z (every l = 2 family), every element is one, keyed by its
      bits (x, z): a commutator of two strings is exactly 0 when they
      commute and twice their product string, keyed x_i ^ x_j, z_i ^ z_j,
      when they anticommute, that is when (x_i & z_j) ^ (z_i & x_j) has
      odd parity.  The filter keeps the anticommuting i whose product
      key no admitted element holds; the commutator's N entries are
      filled from the two keys and scalars, with the dense product's
      floats.  Distinct strings are exactly orthogonal, so an element,
      leaf or commutator, leaves the span exactly when no earlier element
      holds its key; the frame is the basis stack itself, no Gram-Schmidt
      runs and no tri is stored.  LieBasis.pauli records this case.
    * Otherwise the commutators [b_i, b_j] are formed in stacked blocks
      of at most 64 and projected on the frame in two matrix products;
      one whose residual is at most thresh/2 is dropped.  A picked
      commutator is formed densely and leaves the span when its residual,
      after a double Gram-Schmidt pass, is above thresh; that residual
      joins the orthonormal frame, and its frame coordinates are recorded
      in tri.

    The sweep terminates when nothing is admitted or the element count
    reaches its limit, fixed once the leaves are admitted: N^2 - 1 (su(N))
    when their frame rows leave out the centre direction i*I, since
    commutators are traceless, else N^2.  The frame grows in place, never
    past that limit, and ends with one row per element.  A frame of N^2
    rows of N^2 entries is refused with CapacityError above the dimension
    cap, before any buffer is allocated, and a generator whose norm
    overflows with MatrixPropertyError.  Deterministic for a fixed
    generator order.
    """
    tol = DEFAULTS.closure_tol if tol is None else tol
    if not 0 < tol < math.inf:
        raise ValueError(f"closure tol must be finite and positive, got {tol}")
    n_dim = gens.dim
    check_capacity(n_dim, 2)
    thresh = tol * n_dim
    cap = n_dim * n_dim
    for el in gens.elements:
        if not is_anti_hermitian(el.matrix):
            raise MatrixPropertyError(f"generator {el.id} is not anti-Hermitian")
        with np.errstate(over="ignore"):
            if not math.isfinite(frob_norm(el.matrix)):
                raise MatrixPropertyError(f"generator {el.id} has a norm that overflows")
    mats = np.stack([as_matrix(el.matrix) for el in gens.elements])
    gen_keys = _pauli_keys(mats)
    pauli = gen_keys is not None

    # frame rows, grown in place when full; flat is its real view, where
    # frob_inner(q, r) is a dot product of rows.  On a Pauli set two
    # distinct strings are exactly orthogonal, so the frame is the basis
    # itself and basis[k] a view of row k; otherwise the rows are
    # Gram-Schmidt residuals
    buf = np.empty((len(mats), n_dim, n_dim), dtype=complex)
    flat = buf.reshape(len(buf), -1).view(float)
    cols: list[np.ndarray] = []   # frame coordinates of each element, dense engine
    # Pauli key of each element and whether an element holds a key; unused
    # (all keys 0) for any other set.  The leaves alone may pass N^2
    # elements under a rounding-level tol
    keys = np.zeros(max(cap, len(mats)), dtype=np.int64)
    held = np.zeros(cap, dtype=bool)
    out = LieBasis(
        matrix_dim=n_dim,
        generator_matrices={el.id: el.matrix for el in gens.elements},
        pauli=pauli,
    )

    def admit(c: Matrix, recipe: Recipe, generation: int, key: int) -> bool:
        """Add c/|c| if c leaves the span; the recipe's scale is set here."""
        nonlocal flat
        k = out.dim
        norm_c = frob_norm(c)
        if norm_c <= thresh:
            return False
        if k == len(buf):
            # realloc, without a copy of the rows; flat and the basis views
            # are re-pointed before they are read again.  The sweep admits
            # at most N^2 elements once the leaves are in
            buf.resize((min(2 * k, cap), n_dim, n_dim), refcheck=False)
            flat = buf.reshape(len(buf), -1).view(float)
            if pauli:
                out.basis[:] = buf[:k]
        if pauli:
            # c leaves the span of the held strings exactly when its key is new
            if held[key]:
                return False
            keys[k] = key
            held[key] = True
            b = np.divide(c, norm_c, out=buf[k])
        else:
            r, coeffs = c, np.zeros(k)
            for _ in range(2):
                step = flat[:k] @ r.reshape(-1).view(float)
                r = r - (step @ flat[:k]).view(complex).reshape(c.shape)
                coeffs += step
            norm_r = frob_norm(r)
            if norm_r <= thresh:
                return False
            b = c / norm_c
            buf[k] = r / norm_r
            cols.append(np.append(coeffs, norm_r) / norm_c)
        out.basis.append(b)
        out.recipes.append(replace(recipe, coeff=frob_inner(b, c)))
        out.generations.append(generation)
        return True

    for g, el in enumerate(gens.elements):
        admit(mats[g], Recipe("leaf", gen_id=el.id), 0, gen_keys[g] if pauli else 0)

    # only a leaf can carry the centre z = i*I/sqrt(N); a commutator c has
    # residual |c| |frame . z| to first order, and |c| <= 2 for unit b_i, b_j
    half = thresh / 2
    centre = (1j / np.sqrt(n_dim) * np.eye(n_dim)).reshape(-1).view(float)
    stop = cap - 1 if 2 * np.linalg.norm(flat[:out.dim] @ centre) <= half else cap

    if not pauli:
        def candidates(j: int) -> list[int]:
            return _frame_candidates(out.basis, j, flat[:out.dim], half)

        def bracket(i: int, j: int) -> Matrix:
            return commutator(out.basis[i], out.basis[j])
    else:
        n = n_dim.bit_length() - 1
        odd = _parity(np.arange(cap), 2 * n).astype(bool)
        col = np.arange(n_dim)
        # row z: (-1)^(z.c) over the columns c
        walsh = 1.0 - 2 * _parity(col[:, None] & col, n)

        def candidates(j: int) -> list[int]:
            kj = int(keys[j])
            # (x_i & z_j) ^ (z_i & x_j), packed: key i against key j with halves swapped
            swapped = ((kj & (n_dim - 1)) << n) | (kj >> n)
            earlier = keys[:j]
            return np.flatnonzero(odd[earlier & swapped] & ~held[earlier ^ kj]).tolist()

        def bracket(i: int, j: int) -> Matrix:
            # b = s X^x Z^z holds s at (x, 0); for anticommuting strings
            # [b_i, b_j] = 2 b_i b_j = 2 s_i s_j (-1)^(z_i.x_j) X^(x_i^x_j) Z^(z_i^z_j).
            # + 0.0 clears the zero signs, which the dense product never sets
            xi, zi = divmod(int(keys[i]), n_dim)
            xj, zj = divmod(int(keys[j]), n_dim)
            s = 2 * buf[i, xi, 0] * buf[j, xj, 0] * (-1.0 if odd[zi & xj] else 1.0)
            c = np.zeros((n_dim, n_dim), dtype=complex)
            c[col ^ xi ^ xj, col] = s * walsh[zi ^ zj] + 0.0
            return c

    def pairs(frontier: list[int]):
        # candidates(j) runs when the sweep reaches j, against the frame then
        for j in frontier:
            for i in candidates(j):
                yield i, j

    frontier = list(range(out.dim))
    generation = 0
    while frontier and out.dim < stop:
        generation += 1
        admitted: list[int] = []
        for i, j in pairs(frontier):
            recipe = Recipe("comm", left=i, right=j)
            if admit(bracket(i, j), recipe, generation, keys[i] ^ keys[j]):
                admitted.append(out.dim - 1)
                if out.dim == stop:
                    break
        frontier = admitted

    buf.resize((out.dim, n_dim, n_dim), refcheck=False)
    out.frame = buf
    if pauli:
        out.basis[:] = buf
        return out
    out.tri = np.zeros((out.dim, out.dim))
    for m, coords in enumerate(cols):
        out.tri[:m + 1, m] = coords
    return out


def membership(a, basis: LieBasis) -> MembershipResult:
    """Coordinates of an anti-Hermitian matrix in the basis, if it lies in span.

    The matrix is projected onto the orthonormal frame; it is a member when
    the off-span residual is at most DEFAULTS.membership_tol times its
    norm.  Coefficients in the basis follow from the triangular frame
    coordinates tri; with no tri stored (the Pauli path) the frame is the
    basis and the projections are the coefficients.
    """
    m = as_matrix(a)
    if m.shape[0] != basis.matrix_dim:
        raise DimensionMismatchError(
            f"dimension {m.shape[0]} does not match basis dimension {basis.matrix_dim}"
        )
    if not is_anti_hermitian(m):
        raise MatrixPropertyError("membership requires an anti-Hermitian matrix")
    if basis.dim == 0:
        res = frob_norm(m)
        return MembershipResult(res == 0.0, np.zeros(0), res)
    proj = np.einsum("kij,ij->k", basis.frame.conj(), m).real
    residual = frob_norm(m - np.tensordot(proj, basis.frame, axes=1))
    coeffs = proj if basis._tri is None else np.linalg.solve(basis._tri, proj)
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
    """Build a registered family, refusing pinned or out-of-range n and l."""
    family = _BUILDERS.get(label)
    if family is None:
        raise ValueError(f"unknown family {label!r}")
    for name, given in (("n", n), ("l", l)):
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
    max_n below 1 is refused with ValueError.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    selected = {label: family for label, family in _BUILDERS.items()
                if family.predicted and (not families or label in families)}
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
