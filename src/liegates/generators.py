"""Concrete generator families.

Pauli matrices, the shift/clock Weyl pair, the tau triple, the gamma
generators of the complex Clifford algebra on 2n indices, their order-l
torus analogues T_k, Hermitian splits of unitary generators, and the
reduced two-local sets.  Every constructor is deterministic: rebuilding a
family with the same parameters is bit-identical.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .config import DEFAULTS
from .errors import CapacityError, FamilyMismatchError, MatrixPropertyError
from .linalg import (
    Matrix,
    anticommutator,
    as_matrix,
    dagger,
    frob_norm,
    is_anti_hermitian,
    is_unitary,
    max_abs,
    tensor_all,
)

log = logging.getLogger(__name__)

ANTI_HERMITIAN = "anti_hermitian"
UNITARY_NON_HERMITIAN = "unitary_non_hermitian"

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class Generator:
    id: str
    matrix: Matrix
    locality: int
    hermiticity: str


@dataclass
class GeneratorSet:
    family: str
    n: int
    l: int
    elements: list[Generator]
    _eig_table: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        dims = {el.matrix.shape[0] for el in self.elements}
        if len(dims) > 1:
            raise FamilyMismatchError(f"mixed matrix dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.elements[0].matrix.shape[0]

    def ids(self) -> list[str]:
        return [el.id for el in self.elements]

    def matrices(self) -> list[Matrix]:
        return [el.matrix for el in self.elements]

    def by_id(self, gen_id: str) -> Generator:
        for el in self.elements:
            if el.id == gen_id:
                return el
        raise KeyError(gen_id)


def _hermiticity_of(m: Matrix) -> str:
    return ANTI_HERMITIAN if is_anti_hermitian(m, tol=1e-12) else UNITARY_NON_HERMITIAN


def _check_capacity(dim: int, cap: int | None) -> None:
    cap = DEFAULTS.dim_cap if cap is None else cap
    if dim > cap:
        raise CapacityError(f"matrix dimension {dim} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# locality: number of tensor sites carrying a non-identity factor
# ---------------------------------------------------------------------------

def locality(m: Matrix, n: int, l: int) -> int:
    """Count sites whose tensor factor is not proportional to the identity.

    A site passes the identity test when the matrix equals the insertion of
    I_l at that site into its own partial trace over the site.
    """
    m = as_matrix(m)
    if m.shape[0] != l**n:
        raise FamilyMismatchError(f"matrix dim {m.shape[0]} is not {l}^{n}")
    norm = frob_norm(m)
    if norm <= 1e-14:
        return 0
    t = m.reshape((l,) * (2 * n))
    count = 0
    for site in range(n):
        reduced = np.trace(t, axis1=site, axis2=n + site) / l
        rebuilt = np.tensordot(np.eye(l), reduced, axes=0)
        # axes of rebuilt: (i_site, j_site, remaining i's, remaining j's);
        # send them back to the (i_0..i_{n-1}, j_0..j_{n-1}) layout
        dst = [site, n + site]
        for idx in range(n - 1):
            dst.append(idx if idx < site else idx + 1)
        for idx in range(n - 1):
            dst.append(n + (idx if idx < site else idx + 1))
        rebuilt = np.moveaxis(rebuilt, range(2 * n), dst)
        if frob_norm(t - rebuilt) > 1e-9 * norm:
            count += 1
    return count


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def pauli() -> GeneratorSet:
    """The three Pauli matrices on a single qubit."""
    els = [
        Generator("sx", SIGMA_X.copy(), 1, _hermiticity_of(SIGMA_X)),
        Generator("sy", SIGMA_Y.copy(), 1, _hermiticity_of(SIGMA_Y)),
        Generator("sz", SIGMA_Z.copy(), 1, _hermiticity_of(SIGMA_Z)),
    ]
    return GeneratorSet("pauli", 1, 2, els)


def weyl_pair(l: int) -> GeneratorSet:
    """Cyclic shift U and clock diagonal V with U V = zeta V U."""
    if l < 2:
        raise ValueError("weyl_pair needs l >= 2")
    u = np.zeros((l, l), dtype=complex)
    for k in range(l):
        u[k, (k + 1) % l] = 1.0
    v = np.diag([cmath.exp(2j * math.pi * k / l) for k in range(l)])
    els = [
        Generator("U", u, 1, _hermiticity_of(u)),
        Generator("V", v, 1, _hermiticity_of(v)),
    ]
    return GeneratorSet("weyl", 1, l, els)


def mu_phase(l: int) -> complex:
    """Primitive 2l-th root of unity mu = exp(i pi / l); zeta = mu^2."""
    return cmath.exp(1j * math.pi / l)


def tau(l: int) -> GeneratorSet:
    """tau_x = U, tau_y = mu^{l-1} U V, tau_z = V; each has order l."""
    wp = weyl_pair(l)
    u, v = wp.by_id("U").matrix, wp.by_id("V").matrix
    ty = mu_phase(l) ** (l - 1) * (u @ v)
    els = [
        Generator("tx", u, 1, _hermiticity_of(u)),
        Generator("ty", ty, 1, _hermiticity_of(ty)),
        Generator("tz", v, 1, _hermiticity_of(v)),
    ]
    return GeneratorSet("tau", 1, l, els)


def _ladder(n: int, x: Matrix, y: Matrix, z: Matrix, prefix: str, scale: complex,
            cap: int | None) -> list[tuple[str, Matrix, int]]:
    """Site-k pair (x or y with a z tail): I^(n-k-1) (x|y) z^k, scaled."""
    _check_capacity(x.shape[0] ** n, cap)
    eye = np.eye(x.shape[0], dtype=complex)
    out = []
    for k in range(n):
        for idx, active in ((2 * k, x), (2 * k + 1, y)):
            factors = [eye] * (n - k - 1) + [active] + [z] * k
            out.append((f"{prefix}{idx}", scale * tensor_all(factors, cap=cap), k + 1))
    return out


def clifford_gammas(n: int, cap: int | None = None) -> GeneratorSet:
    """The 2n anti-Hermitian gamma generators on n qubits.

    Gamma_{2k} = i I^(n-k-1) sx sz^k and Gamma_{2k+1} = i I^(n-k-1) sy sz^k;
    they pairwise anticommute and square to -I.
    """
    if n < 1:
        raise ValueError("clifford_gammas needs n >= 1")
    els = [
        Generator(gid, m, loc, ANTI_HERMITIAN)
        for gid, m, loc in _ladder(n, SIGMA_X, SIGMA_Y, SIGMA_Z, "G", 1j, cap)
    ]
    return GeneratorSet("clifford_full", n, 2, els)


def gamma_u(n: int, variant: str = "three", indices: tuple[int, ...] | None = None,
            cap: int | None = None) -> Matrix:
    """Extra element: i times a product of three or four distinct gammas.

    The default index choices are (0, 1, 2) and (0, 1, 2, 3); other index
    tuples are accepted but only the defaults are validated elsewhere.
    """
    if variant not in ("three", "four"):
        raise ValueError("variant must be 'three' or 'four'")
    if indices is None:
        indices = (0, 1, 2) if variant == "three" else (0, 1, 2, 3)
    count = 3 if variant == "three" else 4
    if len(indices) != count or len(set(indices)) != count:
        raise ValueError(f"need {count} distinct indices, got {indices}")
    if max(indices) >= 2 * n:
        raise ValueError(f"index {max(indices)} out of range for n={n}")
    gammas = clifford_gammas(n, cap=cap)
    mats = [gammas.elements[i].matrix for i in indices]
    out = 1j * reduce(np.matmul, mats)
    if not is_anti_hermitian(out, tol=1e-12):
        raise MatrixPropertyError("gamma_u product is not anti-Hermitian")
    return out


def torus_T(n: int, l: int, cap: int | None = None) -> GeneratorSet:
    """The 2n unitary torus generators T_k built from the tau triple.

    T_{2k} = I^(n-k-1) tau_x tau_z^k and T_{2k+1} = I^(n-k-1) tau_y tau_z^k.
    They satisfy T_j T_k = zeta T_k T_j for j < k and T_k^l = I.  At l = 2
    every T_k is Hermitian and equals Gamma_k / i.
    """
    if n < 1 or l < 2:
        raise ValueError("torus_T needs n >= 1 and l >= 2")
    t = tau(l)
    tx, ty, tz = (t.by_id(i).matrix for i in ("tx", "ty", "tz"))
    els = [
        Generator(gid, m, loc, _hermiticity_of(m))
        for gid, m, loc in _ladder(n, tx, ty, tz, "T", 1.0, cap)
    ]
    return GeneratorSet("torus_full", n, l, els)


def hermitian_split(t, tol: float | None = None) -> tuple[Matrix, Matrix]:
    """Split a unitary into the anti-Hermitian pair i(T + T^dag), T - T^dag."""
    m = as_matrix(t)
    if not is_unitary(m, tol=tol):
        raise MatrixPropertyError("hermitian_split requires a unitary matrix")
    return 1j * (m + dagger(m)), m - dagger(m)


def _split_elements(raw: list[tuple[str, Matrix]], n: int, l: int) -> list[Generator]:
    """Hermitian splits id+ and id- of each unitary, zero splits dropped."""
    els = []
    for gid, m in raw:
        for suffix, part in zip("+-", hermitian_split(m)):
            if frob_norm(part) < 1e-12:
                log.debug("dropping zero split %s%s at (n=%d, l=%d)", gid, suffix, n, l)
                continue
            els.append(Generator(gid + suffix, part, locality(part, n, l), ANTI_HERMITIAN))
    return els


def two_local_clifford_set(n: int, cap: int | None = None) -> GeneratorSet:
    """Gamma_0, the chain products Gamma_k Gamma_{k+1} and the extra element.

    2n + 1 anti-Hermitian elements, each touching at most two sites.
    """
    if n < 2:
        raise ValueError("two_local_clifford_set needs n >= 2")
    gammas = clifford_gammas(n, cap=cap)
    mats = gammas.matrices()
    raw: list[tuple[str, Matrix]] = [("G0", mats[0])]
    raw += [(f"G{k}G{k + 1}", mats[k] @ mats[k + 1]) for k in range(2 * n - 1)]
    raw.append(("Gu", gamma_u(n, cap=cap)))
    els = [
        Generator(gid, m, locality(m, n, 2), ANTI_HERMITIAN) for gid, m in raw
    ]
    return GeneratorSet("clifford_two_local", n, 2, els)


def two_local_torus_set(n: int, l: int, cap: int | None = None) -> GeneratorSet:
    """Hermitian splits of T_0 and of the chain products T_k^dag T_{k+1}.

    Splits that vanish (possible when a product is already Hermitian or
    anti-Hermitian, e.g. at l = 2) are dropped.
    """
    if n < 2:
        raise ValueError("two_local_torus_set needs n >= 2")
    ts = torus_T(n, l, cap=cap)
    mats = ts.matrices()
    raw: list[tuple[str, Matrix]] = [("T0", mats[0])]
    raw += [(f"T{k}dT{k + 1}", dagger(mats[k]) @ mats[k + 1]) for k in range(2 * n - 1)]
    return GeneratorSet("torus_two_local", n, l, _split_elements(raw, n, l))


def torus_split_set(n: int, l: int, cap: int | None = None) -> GeneratorSet:
    """Hermitian splits of every torus generator T_k (zero splits dropped)."""
    raw = [(el.id, el.matrix) for el in torus_T(n, l, cap=cap).elements]
    return GeneratorSet("torus_splits", n, l, _split_elements(raw, n, l))


def clifford_plus_u(n: int, cap: int | None = None) -> GeneratorSet:
    """The gamma generators with the extra product element adjoined.

    At n = 1 the three-index product does not exist; the pair product
    Gamma_0 Gamma_1 (which is anti-Hermitian) is substituted and this row is
    an extension rather than part of the standard construction.
    """
    gammas = clifford_gammas(n, cap=cap)
    els = list(gammas.elements)
    if n == 1:
        extra = gammas.elements[0].matrix @ gammas.elements[1].matrix
        els.append(Generator("G0G1", extra, locality(extra, n, 2), ANTI_HERMITIAN))
    else:
        extra = gamma_u(n, cap=cap)
        els.append(Generator("Gu", extra, locality(extra, n, 2), ANTI_HERMITIAN))
    return GeneratorSet("clifford_plus_u", n, 2, els)


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------

def _zeta(l: int) -> complex:
    return cmath.exp(2j * math.pi / l)


def _anticommutation(name: str, square: float):
    """{a_i, a_j} = 2 delta_ij square I: Pauli matrices square to +I, gammas to -I."""
    def checks(gens: GeneratorSet, mats: list[Matrix], eye: Matrix) -> list:
        worst = 0.0
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                target = 2.0 * square * eye if i == j else np.zeros_like(eye)
                worst = max(worst, max_abs(anticommutator(a, b) - target))
        return [(name, worst)]
    return checks


def _torus_relations(prefix: str):
    """T_j T_k = zeta T_k T_j for j < k and T^l = I (tau is the n = 1 case)."""
    def checks(gens: GeneratorSet, mats: list[Matrix], eye: Matrix) -> list:
        zeta = _zeta(gens.l)
        worst = 0.0
        for j in range(len(mats)):
            for k in range(j + 1, len(mats)):
                worst = max(worst, max_abs(mats[j] @ mats[k] - zeta * (mats[k] @ mats[j])))
        order = max(max_abs(np.linalg.matrix_power(m, gens.l) - eye) for m in mats)
        return [(f"{prefix}_commutation", worst), (f"{prefix}_order", order)]
    return checks


def _weyl_relations(gens: GeneratorSet, mats: list[Matrix], eye: Matrix) -> list:
    u, v = mats
    return [
        ("weyl_commutation", max_abs(u @ v - _zeta(gens.l) * (v @ u))),
        ("shift_order", max_abs(np.linalg.matrix_power(u, gens.l) - eye)),
        ("clock_order", max_abs(np.linalg.matrix_power(v, gens.l) - eye)),
    ]


def _two_local_relations(gens: GeneratorSet, mats: list[Matrix], eye: Matrix) -> list:
    """Reduced sets: anti-Hermiticity and the two-site locality bound."""
    return [
        ("anti_hermiticity", max(max_abs(m + dagger(m)) for m in mats)),
        ("locality_bound", float(max(el.locality for el in gens.elements) > 2)),
    ]


def _u_dim(n: int, l: int) -> int:
    """The u(N) count N^2 at N = l^n."""
    return l ** (2 * n)


@dataclass(frozen=True)
class Family:
    """A registry entry.  `build(n, l)` calls its constructor by module-global
    name, so a wrapper bound on this module sees the call; `pinned` maps each
    parameter the family does not read to the one value it accepts;
    `predicted(n, l)` is the published closure dimension and `relations`
    the checks of the defining relations, where the family has them.
    """
    build: Callable[[int, int], GeneratorSet]
    pinned: dict[str, int] = field(default_factory=dict)
    predicted: Callable[[int, int], int] | None = None
    relations: Callable | None = None


# the family registry, in the order the CLI lists its choices
FAMILIES = {
    "pauli": Family(lambda n, l: pauli(), {"n": 1, "l": 2},
                    relations=_anticommutation("pauli_anticommutation", 1.0)),
    "weyl": Family(lambda n, l: weyl_pair(l), {"n": 1}, relations=_weyl_relations),
    "tau": Family(lambda n, l: tau(l), {"n": 1}, relations=_torus_relations("tau")),
    "torus_full": Family(lambda n, l: torus_T(n, l), relations=_torus_relations("torus")),
    "clifford_full": Family(lambda n, l: clifford_gammas(n), {"l": 2},
                            predicted=lambda n, l: 2 * n * n + n,
                            relations=_anticommutation("gamma_anticommutation", -1.0)),
    "clifford_plus_u": Family(lambda n, l: clifford_plus_u(n), {"l": 2}, _u_dim),
    "clifford_two_local": Family(lambda n, l: two_local_clifford_set(n), {"l": 2}, _u_dim,
                                 _two_local_relations),
    "torus_splits": Family(lambda n, l: torus_split_set(n, l), {}, _u_dim),
    "torus_two_local": Family(lambda n, l: two_local_torus_set(n, l), {}, _u_dim,
                              _two_local_relations),
}


def relation_report(gens: GeneratorSet) -> dict:
    """Max absolute violation of the family's defining relations.

    Returns a machine-readable dict with one entry per relation class and
    the overall maximum.  Families without defining relations (the split
    and extended sets, user-built sets) raise FamilyMismatchError.
    """
    family = FAMILIES.get(gens.family)
    if family is None or family.relations is None:
        raise FamilyMismatchError(f"relation_report is undefined for family {gens.family!r}")
    eye = np.eye(gens.dim, dtype=complex)
    checks = [
        {"name": name, "max_violation": float(value)}
        for name, value in family.relations(gens, gens.matrices(), eye)
    ]
    return {
        "family": gens.family,
        "label": gens.family,
        "n": gens.n,
        "l": gens.l,
        "checks": checks,
        "max_violation": max(c["max_violation"] for c in checks),
    }
