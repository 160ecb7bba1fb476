"""Dense complex matrix kernel.

Tensor products, brackets, the Frobenius pairing, a Hermitian eigensolver
(LAPACK ``eigh`` through numpy, with eigenvectors put into a canonical
phase and order) and the matrix exponential / principal logarithm pair
used for unitary synthesis.  All functions are pure: inputs are never
mutated and there is no shared state.

Input is validated once, at the public edge: every public function checks
shape, finiteness and the matrix property it needs, and raises
DimensionMismatchError or MatrixPropertyError.  The eigensolvers' private
cores `_herm_eig` and `_unitary_eig` trust their caller: the public
functions call them after their own checks, and the compiler calls them
on matrices it checked or built itself (its target, a Cayley transform).
A core never raises a validation error.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from .config import DEFAULTS
from .errors import (
    BranchCutWarning,
    CapacityError,
    ConvergenceError,
    DimensionMismatchError,
    MatrixPropertyError,
)

Matrix = np.ndarray


def as_matrix(a) -> Matrix:
    """Coerce to a square, finite complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatchError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise MatrixPropertyError("matrix entries must be finite")
    return m


def _same_dim(a: Matrix, b: Matrix) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dagger(a: Matrix) -> Matrix:
    return a.conj().T


def frob_norm(a: Matrix) -> float:
    """numpy.linalg.norm(a) bit for bit, by its own formula without its dispatch.

    sqrt(re.re + im.im) over the entries in memory order (x.x for a real
    array, integers as float64).  math.sqrt rounds a float64 exactly as
    numpy's sqrt does; other widths keep numpy's sqrt.
    """
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        s = re.dot(re) + im.dot(im)
    else:
        if x.dtype.kind != "f":
            x = x.astype(float)
        s = x.dot(x)
    return math.sqrt(s) if type(s) is np.float64 else float(np.sqrt(s))


def max_abs(a: Matrix) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(a, tol: float | None = None) -> bool:
    m = as_matrix(a)
    tol = DEFAULTS.hermitian_tol if tol is None else tol
    return max_abs(m - dagger(m)) <= tol


def is_anti_hermitian(a, tol: float | None = None) -> bool:
    m = as_matrix(a)
    tol = DEFAULTS.anti_hermitian_tol if tol is None else tol
    return max_abs(m + dagger(m)) <= tol


def is_unitary(a, tol: float | None = None) -> bool:
    m = as_matrix(a)
    tol = DEFAULTS.unitary_tol if tol is None else tol
    eye = np.eye(m.shape[0])
    return max_abs(dagger(m) @ m - eye) <= tol and max_abs(m @ dagger(m) - eye) <= tol


def check_integer(name: str, value) -> None:
    """Refuse a count that is not an integer, numpy's included, or is a bool, with ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_capacity(side: int, power: int = 1) -> None:
    """Refuse a dense matrix of side side**power above the cap, before anything is allocated.

    The power is multiplied out only until it passes the cap, so a huge
    exponent costs nothing; a size not multiplied out is named side^power.
    """
    cap = DEFAULTS.dim_cap
    if side < 2:
        return
    dim = 1
    for done in range(1, power + 1):
        dim *= side
        if dim > cap:
            size = dim if done == power else f"{side}^{power}"
            raise CapacityError(f"matrix dimension {size} exceeds cap {cap}")


def check_stack(count: int, side: int) -> None:
    """Refuse a stack of count side x side matrices holding more than cap^2 entries.

    cap^2 is the entry count of the largest frame a closure may hold, cap
    rows of cap entries.
    """
    cap = DEFAULTS.dim_cap
    entries = count * side * side
    if entries > cap * cap:
        raise CapacityError(f"a stack of {count} matrices of side {side} holds {entries} "
                            f"entries, which exceeds cap {cap}^2")


def tensor(a, b) -> Matrix:
    """Kronecker product; block (j, k) of the result is a[j, k] * b.

    np.kron's bytes by one broadcast product, without its axis handling.
    """
    ma, mb = as_matrix(a), as_matrix(b)
    p, q = ma.shape[0], mb.shape[0]
    check_capacity(p * q)
    return (ma[:, None, :, None] * mb[None, :, None, :]).reshape(p * q, p * q)


def tensor_all(factors) -> Matrix:
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def commutator(a, b) -> Matrix:
    ma, mb = as_matrix(a), as_matrix(b)
    _same_dim(ma, mb)
    return ma @ mb - mb @ ma


def anticommutator(a, b) -> Matrix:
    ma, mb = as_matrix(a), as_matrix(b)
    _same_dim(ma, mb)
    return ma @ mb + mb @ ma


def frob_inner(a, b) -> float:
    """Re tr(a^dag b); real and positive definite on anti-Hermitian matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    _same_dim(ma, mb)
    return float(np.real(np.sum(ma.conj() * mb)))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def _descending_order(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Order of values descending, ties broken by the columns of w.

    Tied columns compare by their entries' (re, im) parts in turn, the
    first entry's real part first.
    """
    parts = np.ascontiguousarray(w.T).view(float)   # row j: column j's parts
    return np.lexsort(np.vstack((parts.T[::-1], -values)))


def _canonical_columns(w: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive.

    One multiply rotates every column.  Each column's unit factor
    conj(p) / abs(p) takes the scalar abs of its pivot p: numpy's array
    abs can round it one ulp differently.
    """
    big = np.abs(w) > 1e-8
    pivots = w[big.argmax(axis=0), np.arange(w.shape[1])]
    units = np.ones(w.shape[1], dtype=complex)
    for j in np.flatnonzero(big.any(axis=0)):
        units[j] = np.conj(pivots[j]) / abs(pivots[j])
    return w * units


def herm_eig(h) -> tuple[np.ndarray, Matrix]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy ``eigh``).

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    deterministic tie-breaking on the eigenvector columns, so that
    h = W diag(lam) W^dag.
    """
    m = as_matrix(h)
    if not is_hermitian(m):
        raise MatrixPropertyError("herm_eig requires a Hermitian matrix")
    return _herm_eig(m)


def _herm_eig(h: Matrix) -> tuple[np.ndarray, Matrix]:
    """herm_eig without its checks: h is finite and Hermitian to hermitian_tol."""
    try:
        lam, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"herm_eig: {exc}") from None
    v = _canonical_columns(v)
    order = _descending_order(lam, v)
    return lam[order].copy(), v[:, order].copy()


def unitary_eig(u) -> tuple[np.ndarray, Matrix]:
    """Eigenphases and eigenvectors of a unitary matrix.

    Splits u into its commuting Hermitian and anti-Hermitian parts and
    diagonalises them simultaneously; phases are returned in (-pi, pi]
    with the branch value pi kept at +pi.
    """
    m = as_matrix(u)
    if not is_unitary(m):
        raise MatrixPropertyError("unitary_eig requires a unitary matrix")
    return _unitary_eig(m)


def _unitary_eig(m: Matrix) -> tuple[np.ndarray, Matrix]:
    """unitary_eig without its checks: m is finite and unitary to unitary_tol."""
    n = m.shape[0]
    re_part = (m + dagger(m)) / 2.0
    im_part = (m - dagger(m)) / 2.0j
    lam, w = _herm_eig(re_part)

    # Conjugate phase pairs share the cosine, so near-ties in lam hide
    # well-separated phases; diagonalising the sine part inside each
    # cluster resolves them.  The window is generous because the cosine
    # gap of a pair near the cut scales like the phase gap squared.
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(lam[stop] - lam[stop - 1]) <= 1e-3:
            stop += 1
        if stop - start > 1:
            block = w[:, start:stop]
            sub = dagger(block) @ im_part @ block
            _, wb = _herm_eig((sub + dagger(sub)) / 2.0)
            w[:, start:stop] = block @ wb
        start = stop

    w = _canonical_columns(w)
    cos_d = np.real(np.diag(dagger(w) @ re_part @ w))
    sin_d = np.real(np.diag(dagger(w) @ im_part @ w))
    phases = np.arctan2(sin_d, cos_d)
    phases[phases <= -math.pi + 1e-14] = math.pi
    order = _descending_order(phases, w)
    return phases[order].copy(), w[:, order].copy()


# ---------------------------------------------------------------------------
# exponential / logarithm on the unitary group
# ---------------------------------------------------------------------------

def expm_antiherm(a) -> Matrix:
    """Unitary exponential of an anti-Hermitian matrix."""
    m = as_matrix(a)
    if not is_anti_hermitian(m):
        raise MatrixPropertyError("expm_antiherm requires an anti-Hermitian matrix")
    lam, w = _herm_eig(-1j * m)
    return (w * np.exp(1j * lam)) @ dagger(w)


def logm_unitary(u) -> Matrix:
    """Principal anti-Hermitian logarithm of a unitary matrix.

    Eigenphases are taken in (-pi, pi]; a BranchCutWarning is issued when
    any phase comes within the configured margin of pi.
    """
    phases, w = unitary_eig(u)
    if np.any(math.pi - np.abs(phases) < DEFAULTS.branch_warn_margin):
        warnings.warn(
            "eigenphase within margin of the branch cut at pi", BranchCutWarning
        )
    log = (w * (1j * phases)) @ dagger(w)
    return (log - dagger(log)) / 2.0


def principal_sqrt_unitary(u) -> Matrix:
    """Principal unitary square root (eigenphases halved)."""
    phases, w = unitary_eig(u)
    return (w * np.exp(0.5j * phases)) @ dagger(w)


def error_metrics(u, v) -> tuple[float, float]:
    """(Frobenius distance, global-phase-invariant distance) between unitaries.

    The optimal phase comes from tr(u^dag v) in closed form; the distance is
    then evaluated entrywise, which keeps precision far below the
    sqrt(2 N - 2 |tr|) cancellation floor.
    """
    mu, mv = as_matrix(u), as_matrix(v)
    _same_dim(mu, mv)
    for m in (mu, mv):
        if not is_unitary(m):
            raise MatrixPropertyError("error_metrics requires unitary inputs")
    frob = frob_norm(mu - mv)
    return frob, phase_invariant_dist(mu, mv)


def phase_invariant_dist(u: Matrix, v: Matrix) -> float:
    """min over a global phase of |u - e^{i phi} v|_F (inputs unchecked)."""
    s = np.trace(dagger(u) @ v)
    best_phase = np.conj(s) / abs(s) if abs(s) > 0 else 1.0
    return frob_norm(u - best_phase * v)


# ---------------------------------------------------------------------------
# seeded random inputs (used by the CLI self checks and the tests)
# ---------------------------------------------------------------------------

def random_unitary(dim: int, rng: np.random.Generator) -> Matrix:
    """Haar-ish random unitary from the QR factorisation of a Gaussian matrix."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_anti_hermitian(dim: int, rng: np.random.Generator) -> Matrix:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g - dagger(g)) / 2.0
