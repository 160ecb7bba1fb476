"""Exact symbolic algebra of words in the torus generators.

A monomial is mu^p T_0^{e_0} ... T_{2n-1}^{e_{2n-1}} with mu = exp(i pi / l)
and exponents reduced mod l.  Reordering uses T_j T_k = zeta T_k T_j for
j < k (zeta = mu^2), so pulling a generator of lower index leftward past a
higher one contributes zeta^{-1} per transposition.  Phases live in the
cyclic group of order 2l, which is the smallest group closed under the
tau_y scaling mu^{l-1} and the l = 2 Clifford case.

The symbolic layer never stores matrices; evaluation against a dense torus
family is on demand and is an exact homomorphism (up to float rounding in
the dense factors).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import FamilyMismatchError, LieGatesError, ParameterMismatchError
from .generators import GeneratorSet, mu_phase, torus_T
from .linalg import Matrix, check_capacity, check_integer, check_stack


@dataclass(frozen=True)
class Monomial:
    l: int
    n: int
    phase_exp: int
    exps: tuple[int, ...]

    def __post_init__(self):
        if self.l < 2 or self.n < 1:
            raise ValueError("need l >= 2 and n >= 1")
        if len(self.exps) != 2 * self.n:
            raise ValueError(f"need {2 * self.n} exponents, got {len(self.exps)}")
        if not 0 <= self.phase_exp < 2 * self.l:
            raise ValueError("phase exponent out of range")
        if any(not 0 <= e < self.l for e in self.exps):
            raise ValueError("generator exponent out of range")

    @property
    def is_identity(self) -> bool:
        return self.phase_exp == 0 and all(e == 0 for e in self.exps)


def identity_monomial(l: int, n: int) -> Monomial:
    return Monomial(l, n, 0, (0,) * (2 * n))


def generator_monomial(l: int, n: int, k: int) -> Monomial:
    exps = [0] * (2 * n)
    exps[k] = 1
    return Monomial(l, n, 0, tuple(exps))


def _check_params(a: Monomial, b: Monomial) -> None:
    if a.l != b.l or a.n != b.n:
        raise ParameterMismatchError(
            f"parameter mismatch: ({a.l}, {a.n}) vs ({b.l}, {b.n})"
        )


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Canonical-form product.

    Every transposition that moves a T_j of b leftward past a T_k of a with
    j < k multiplies the phase by zeta^{-1} (phase_exp -= 2 mod 2l);
    exponents add mod l and wraparounds T_k^l = I contribute no phase.
    """
    _check_params(a, b)
    swaps = 0
    for k in range(2 * a.n):
        for j in range(k):
            swaps += a.exps[k] * b.exps[j]
    phase = (a.phase_exp + b.phase_exp - 2 * swaps) % (2 * a.l)
    exps = tuple((ea + eb) % a.l for ea, eb in zip(a.exps, b.exps))
    return Monomial(a.l, a.n, phase, exps)


def mono_pow(a: Monomial, p: int) -> Monomial:
    if p < 0:
        raise ValueError("mono_pow needs p >= 0")
    out = identity_monomial(a.l, a.n)
    for _ in range(p):
        out = mono_mul(out, a)
    return out


def mono_inv(a: Monomial) -> Monomial:
    inv_exps = tuple((a.l - e) % a.l for e in a.exps)
    partial = mono_mul(a, Monomial(a.l, a.n, 0, inv_exps))
    # partial is a pure phase; cancel it
    return Monomial(a.l, a.n, (-partial.phase_exp) % (2 * a.l), inv_exps)


def mono_eval(a: Monomial, gens: GeneratorSet) -> Matrix:
    """Dense value mu^p prod_k T_k^{e_k} (ascending k) in the given family."""
    if gens.family != "torus_full" or gens.n != a.n or gens.l != a.l:
        raise FamilyMismatchError(
            f"need torus_full with (n={a.n}, l={a.l}), got {gens.family} "
            f"(n={gens.n}, l={gens.l})"
        )
    dim = gens.dim
    out = np.eye(dim, dtype=complex) * mu_phase(a.l) ** a.phase_exp
    for k, e in enumerate(a.exps):
        m = gens.elements[k].matrix
        for _ in range(e):
            out = out @ m
    return out


def span_dimension(l: int, n: int) -> int:
    """Complex dimension of the span of all l^{2n} phase-free monomial values.

    mono_mul gives M_a^dag M_b = mu^p M_{b-a}, so the Gram matrix
    tr(M_a^dag M_b) is N times the identity exactly when every non-identity
    monomial is traceless.  That identity is checked, each trace to
    DEFAULTS.span_rank_tol; the monomials are then independent and the
    dimension is l^{2n}.  A monomial is a prefix P_a = T_0^{a_0} ...
    T_{n-1}^{a_{n-1}} times a suffix S_b = T_n^{b_0} ... T_{2n-1}^{b_{n-1}},
    and tr(P_a S_b) = vec(P_a) . vec(S_b^T), so every trace comes from one
    product of the l^n stacked prefixes with the l^n stacked suffixes, in
    O(l^n N^2) memory.  Each of those stacks holds N^3 entries, so N^3 above
    dim_cap^2 is refused with CapacityError before any matrix is built.  A
    failure names the last monomial, in itertools.product order, of largest
    trace.  l and n that are no integers are refused with ValueError.
    """
    check_integer("l", l)
    check_integer("n", n)
    if l < 2 or n < 1:
        raise ValueError(f"span needs l >= 2 and n >= 1, got l = {l}, n = {n}")
    check_capacity(l, n)
    check_stack(l**n, l**n)
    mats = torus_T(n, l).matrices()
    prefixes, suffixes = _power_products(mats[:n], l), _power_products(mats[n:], l)
    traces = np.abs(prefixes.reshape(len(prefixes), -1)
                    @ suffixes.transpose(0, 2, 1).reshape(len(suffixes), -1).T).ravel()
    traces[0] = -1.0   # the identity monomial
    last = len(traces) - 1 - int(np.argmax(traces[::-1]))
    if traces[last] > DEFAULTS.span_rank_tol:
        exps = tuple(int(e) for e in np.unravel_index(last, (l,) * (2 * n)))
        raise LieGatesError(f"monomial {render_monomial(Monomial(l, n, 0, exps))} has trace "
                            f"{traces[last]:.6g}; the monomials are not orthogonal")
    return l ** (2 * n)


def _power_products(mats: list[Matrix], l: int) -> np.ndarray:
    """Stack of m_0^{e_0} m_1^{e_1} ... over e in itertools.product(range(l), ...) order."""
    dim = mats[0].shape[0]
    out = np.eye(dim, dtype=complex)[None]
    for m in mats:
        powers = [np.eye(dim, dtype=complex)]
        for _ in range(l - 1):
            powers.append(powers[-1] @ m)
        out = (out[:, None] @ np.stack(powers)).reshape(-1, dim, dim)
    return out


# ---------------------------------------------------------------------------
# text form: "mu^p . T0^e0 T1^e1 ..."
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^T(\d+)(?:\^(\d+))?$")
_PHASE_RE = re.compile(r"^(?:mu|μ)\^(-?\d+)$")


def render_monomial(m: Monomial) -> str:
    parts = []
    if m.phase_exp:
        parts.append(f"mu^{m.phase_exp}")
    parts.extend(
        f"T{k}^{e}" if e > 1 else f"T{k}" for k, e in enumerate(m.exps) if e
    )
    return " ".join(parts) if parts else "1"


def parse_monomial(text: str, l: int, n: int) -> Monomial:
    phase = 0
    exps = [0] * (2 * n)
    stripped = text.replace("·", " ").replace(".", " ").strip()
    if stripped in ("", "1"):
        return identity_monomial(l, n)
    for token in stripped.split():
        pm = _PHASE_RE.match(token)
        if pm:
            phase = (phase + int(pm.group(1))) % (2 * l)
            continue
        tm = _TERM_RE.match(token)
        if not tm:
            raise ValueError(f"cannot parse monomial token {token!r}")
        k = int(tm.group(1))
        if k >= 2 * n:
            raise ValueError(f"generator index {k} out of range for n={n}")
        exps[k] = (exps[k] + int(tm.group(2) or 1)) % l
    return Monomial(l, n, phase, tuple(exps))
