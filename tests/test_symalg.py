import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegates.errors import FamilyMismatchError, ParameterMismatchError
from liegates.generators import clifford_gammas, torus_T
from liegates.linalg import max_abs
from liegates.symalg import (
    Monomial,
    generator_monomial,
    identity_monomial,
    mono_eval,
    mono_inv,
    mono_mul,
    mono_pow,
    parse_monomial,
    render_monomial,
    span_dimension,
)


def all_monomials(l, n, phases=True):
    phase_range = range(2 * l) if phases else [0]
    return [
        Monomial(l, n, p, e)
        for p in phase_range
        for e in iproduct(range(l), repeat=2 * n)
    ]


def test_identity_is_neutral():
    one = identity_monomial(3, 2)
    m = Monomial(3, 2, 5, (1, 2, 0, 1))
    assert mono_mul(one, m) == m
    assert mono_mul(m, one) == m


def test_reorder_phase_matches_dense():
    # T1 T0 = zeta^{-1} T0 T1; at l = 3 that phase is mu^4
    t0, t1 = generator_monomial(3, 1, 0), generator_monomial(3, 1, 1)
    m = mono_mul(t1, t0)
    assert m.exps == (1, 1)
    gens = torus_T(1, 3)
    dense = gens.elements[1].matrix @ gens.elements[0].matrix
    assert max_abs(mono_eval(m, gens) - dense) <= 1e-12
    assert m.phase_exp == 4
    # and the two orderings differ by exactly one zeta
    assert (mono_mul(t0, t1).phase_exp - m.phase_exp) % 6 == 2


def test_commute_past_and_back_is_phase_free():
    # one transposition contributes zeta^{-1}, the reverse contributes zeta,
    # so commuting past and back leaves no phase
    for l in (2, 3, 5):
        t0, t1 = generator_monomial(l, 1, 0), generator_monomial(l, 1, 1)
        assert mono_mul(t0, t1).phase_exp == 0
        back = mono_mul(t1, t0).phase_exp
        assert back == (-2) % (2 * l)
        assert (back + 2) % (2 * l) == 0


def test_generator_order_l():
    for l in (2, 3, 5):
        t0 = generator_monomial(l, 1, 0)
        assert mono_pow(t0, l).is_identity


def test_inverse():
    assert mono_inv(identity_monomial(2, 1)).is_identity
    t0 = generator_monomial(3, 1, 0)
    assert mono_inv(t0) == mono_pow(t0, 2)
    for m in all_monomials(3, 1):
        assert mono_mul(mono_inv(m), m).is_identity
        assert mono_mul(m, mono_inv(m)).is_identity


def test_parameter_mismatch():
    with pytest.raises(ParameterMismatchError):
        mono_mul(identity_monomial(2, 1), identity_monomial(3, 1))


def test_eval_identity_and_generator():
    gens = torus_T(1, 2)
    assert np.allclose(mono_eval(identity_monomial(2, 1), gens), np.eye(2))
    sx = np.array([[0, 1], [1, 0]])
    assert max_abs(mono_eval(generator_monomial(2, 1, 0), gens) - sx) <= 1e-15


def test_eval_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        mono_eval(identity_monomial(2, 1), torus_T(1, 3))
    with pytest.raises(FamilyMismatchError):
        mono_eval(identity_monomial(2, 1), clifford_gammas(1))


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1)])
def test_eval_homomorphism_exhaustive(l, n):
    gens = torus_T(n, l)
    monos = all_monomials(l, n)
    values = {m: mono_eval(m, gens) for m in monos}
    worst = 0.0
    for a in monos:
        for b in monos:
            prod = mono_eval(mono_mul(a, b), gens)
            worst = max(worst, max_abs(prod - values[a] @ values[b]))
    assert worst <= 1e-12


@pytest.mark.parametrize("l,n", [(2, 2), (3, 2)])
def test_eval_homomorphism_random(l, n):
    rng = np.random.default_rng(1234 + l)
    gens = torus_T(n, l)

    def rand_mono():
        return Monomial(
            l, n, int(rng.integers(0, 2 * l)),
            tuple(int(x) for x in rng.integers(0, l, 2 * n)),
        )

    for _ in range(300):
        a, b = rand_mono(), rand_mono()
        lhs = mono_eval(mono_mul(a, b), gens)
        rhs = mono_eval(a, gens) @ mono_eval(b, gens)
        assert max_abs(lhs - rhs) <= 1e-12


def test_clifford_case_is_recovered():
    # at l = 2 the monomials multiply like the gamma generators over i
    gens = torus_T(2, 2)
    gammas = clifford_gammas(2)
    for j in range(4):
        for k in range(4):
            a, b = generator_monomial(2, 2, j), generator_monomial(2, 2, k)
            lhs = mono_eval(mono_mul(a, b), gens)
            rhs = (gammas.elements[j].matrix / 1j) @ (gammas.elements[k].matrix / 1j)
            assert max_abs(lhs - rhs) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_associativity_property(x, y, z):
    for l, n in ((2, 1), (3, 1), (3, 2)):
        count = 2 * n

        def build(seed):
            digits = []
            s = seed
            for _ in range(count):
                digits.append(s % l)
                s //= l
            return Monomial(l, n, seed % (2 * l), tuple(digits))

        a, b, c = build(x), build(y), build(z)
        assert mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))


@pytest.mark.parametrize(
    "l,n,expected", [(2, 1, 4), (3, 1, 9), (2, 2, 16)]
)
def test_span_dimension(l, n, expected):
    assert span_dimension(l, n) == expected


def test_span_dimension_checks_traces_without_a_gram_matrix():
    # the 256 x 256 monomial Gram matrix alone would take 1 MB
    tracemalloc.start()
    try:
        assert span_dimension(4, 2) == 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_render_parse_roundtrip():
    for m in all_monomials(3, 1):
        assert parse_monomial(render_monomial(m), 3, 1) == m
    assert render_monomial(identity_monomial(2, 1)) == "1"
    assert parse_monomial("mu^3 T0 T1^2", 3, 1) == Monomial(3, 1, 3, (1, 2))
    with pytest.raises(ValueError):
        parse_monomial("T9", 2, 1)
