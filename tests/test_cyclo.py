import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic import cyclo
from quintic.cyclo import (
    EPSILON,
    LAMBDA,
    ZETA,
    CycInt,
    brute_force_hyperprimary_class,
    canonical_associate,
    euclid_divmod,
    exact_div,
    galois_apply,
    gcd,
    hyperprimary_class,
    lambda_valuation,
    norm,
)
from quintic.errors import InputError, InternalCheckError

coeff = st.integers(min_value=-(10**6), max_value=10**6)
cyc = st.tuples(coeff, coeff, coeff, coeff).map(CycInt)
cyc_nonzero = cyc.filter(bool)

_x = sympy.symbols("x")
_PHI5 = _x**4 + _x**3 + _x**2 + _x + 1


def sympy_norm(a: CycInt) -> int:
    """Independent oracle: resultant of Phi5 and the coordinate polynomial."""
    poly = sum(c * _x**k for k, c in enumerate(a.c))
    return int(sympy.resultant(_PHI5, sympy.sympify(poly), _x))


def test_addition_on_the_power_basis():
    assert (CycInt((1, 0, 0, 0)) + CycInt((0, 1, 0, 0))).c == (1, 1, 0, 0)


def test_zeta_cubed_times_zeta_reduces_through_phi5():
    assert (CycInt((0, 0, 0, 1)) * ZETA).c == (-1, -1, -1, -1)


def test_product_of_two_linear_elements():
    # (1 - z)(2 - z) expands to 2 - 3z + z^2
    assert (CycInt((1, -1, 0, 0)) * CycInt((2, -1, 0, 0))).c == (2, -3, 1, 0)


@given(a=cyc, b=cyc)
def test_multiplication_matches_sympy_reduction(a, b):
    poly_a = sum(c * _x**k for k, c in enumerate(a.c))
    poly_b = sum(c * _x**k for k, c in enumerate(b.c))
    want = sympy.rem(sympy.expand(poly_a * poly_b), _PHI5, _x)
    got = (a * b).c
    got_poly = sum(c * _x**k for k, c in enumerate(got))
    assert sympy.expand(want - got_poly) == 0


def test_galois_sends_zeta_to_zeta_squared():
    assert galois_apply(1, ZETA) == CycInt((0, 0, 1, 0))


def test_galois_squared_sends_zeta_to_zeta_fourth():
    assert galois_apply(2, ZETA) == CycInt((-1, -1, -1, -1))


@given(a=cyc)
def test_galois_zero_is_identity(a):
    assert galois_apply(0, a) == a


@given(a=cyc, s=st.integers(0, 3), t=st.integers(0, 3))
def test_galois_composition_adds_exponents(a, s, t):
    assert galois_apply(s, galois_apply(t, a)) == galois_apply(s + t, a)


@given(a=cyc, b=cyc, t=st.integers(0, 3))
def test_galois_is_a_ring_homomorphism(a, b, t):
    assert galois_apply(t, a + b) == galois_apply(t, a) + galois_apply(t, b)
    assert galois_apply(t, a * b) == galois_apply(t, a) * galois_apply(t, b)


def test_norm_of_lambda_is_five():
    assert norm(LAMBDA) == 5


def test_norm_of_two_minus_zeta():
    a = CycInt((2, -1, 0, 0))
    assert norm(a) == 31 == sympy_norm(a)


def test_norm_is_multiplicative_on_the_first_two_examples():
    assert norm(LAMBDA * CycInt((2, -1, 0, 0))) == 155


@given(a=cyc)
def test_norm_matches_resultant_oracle(a):
    assert norm(a) == sympy_norm(a)


@given(a=cyc, b=cyc)
def test_norm_multiplicativity(a, b):
    assert norm(a * b) == norm(a) * norm(b)


@given(a=cyc, t=st.integers(0, 3))
def test_norm_is_galois_invariant(a, t):
    assert norm(galois_apply(t, a)) == norm(a)


def test_units_have_norm_one():
    assert norm(EPSILON) == 1
    assert norm(ZETA) == 1
    assert norm(-ZETA**3 * EPSILON**2) == 1


def test_rational_divmod():
    q, r = euclid_divmod(CycInt(10), CycInt(3))
    assert q == CycInt(3) and r == CycInt(1)


def test_divmod_of_element_by_itself():
    b = CycInt((4, -7, 2, 1))
    q, r = euclid_divmod(b, b)
    assert q == CycInt(1) and not r


def test_one_minus_zeta_squared_is_divisible_by_lambda():
    # 1 - z^2 = (1 + z)(1 - z), so the remainder vanishes
    a = CycInt((1, 0, -1, 0))
    assert (CycInt((1, 1, 0, 0)) * LAMBDA) == a
    q, r = euclid_divmod(a, LAMBDA)
    assert not r and q == CycInt((1, 1, 0, 0))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        euclid_divmod(CycInt(1), CycInt(0))


@given(a=cyc, b=cyc_nonzero)
@settings(max_examples=300)
def test_euclidean_contract(a, b):
    q, r = euclid_divmod(a, b)
    assert a == q * b + r
    assert norm(r) < norm(b)


def test_euclidean_contract_on_large_coefficients():
    rng = random.Random(2024)
    for _ in range(200):
        a = CycInt(tuple(rng.randrange(-(2**128), 2**128) for _ in range(4)))
        b = CycInt(tuple(rng.randrange(-(2**128), 2**128) for _ in range(4)))
        q, r = euclid_divmod(a, b)
        assert a == q * b + r and norm(r) < norm(b)


def test_euclid_takes_the_first_offset_that_meets_the_bound():
    # coordinate rounding misses the bound on few pairs of this shape, so no
    # other test is sure to reach the offset search; these seeded pairs do.
    # The search order is lexicographic over {-1, 0, 1}^4 without 0.
    rng = random.Random(20240501)
    offsets = [CycInt(d) for d in itertools.product((-1, 0, 1), repeat=4) if any(d)]
    searched = 0
    for _ in range(20000):
        a = CycInt(tuple(rng.randint(-(2**20), 2**20) for _ in range(4)))
        b = CycInt(tuple(rng.randint(-(2**10), 2**10) for _ in range(4)))
        if not b:
            continue
        q, r = euclid_divmod(a, b)
        nb = norm(b)
        assert a == q * b + r and norm(r) < nb
        # the rounded quotient: a times the other three conjugates of b over
        # N(b), each coordinate to the nearest integer, half rounded up
        num = a * galois_apply(1, b) * galois_apply(2, b) * galois_apply(3, b)
        rounded = CycInt(tuple((2 * x + nb) // (2 * nb) for x in num.c))
        if q == rounded:
            continue
        searched += 1
        chosen = offsets.index(q - rounded)
        for delta in [CycInt(0), *offsets[:chosen]]:
            assert norm(a - (rounded + delta) * b) >= nb
    assert searched == 7


def test_gcd_with_zero_returns_an_associate():
    a = CycInt((3, 1, 0, -2))
    g = gcd(a, CycInt(0))
    assert norm(g) == norm(a)
    assert not euclid_divmod(a, g)[1]


def test_gcd_of_five_and_lambda():
    g = gcd(CycInt(5), LAMBDA)
    assert norm(g) == 5


def test_gcd_of_eleven_and_zeta_minus_three():
    # 3 has order 5 mod 11, so zeta - 3 meets a degree-1 prime above 11
    assert pow(3, 5, 11) == 1 and pow(3, 1, 11) != 1
    g = gcd(CycInt(11), ZETA - CycInt(3))
    assert norm(g) == 11


def test_gcd_of_zero_and_zero_is_undefined():
    with pytest.raises(InputError):
        gcd(CycInt(0), CycInt(0))


@given(a=cyc_nonzero, b=cyc_nonzero)
@settings(max_examples=150)
def test_gcd_divides_both_arguments(a, b):
    g = gcd(a, b)
    assert not euclid_divmod(a, g)[1]
    assert not euclid_divmod(b, g)[1]


def test_canonical_associate_is_stable_under_torsion_units():
    a = CycInt((5, -3, 2, 7))
    want = canonical_associate(a)
    assert canonical_associate(a * ZETA) == want
    assert canonical_associate(-a) == want
    assert canonical_associate(-(a * ZETA**3)) == want


def test_lambda_valuations():
    assert lambda_valuation(LAMBDA) == 1
    assert lambda_valuation(CycInt(5)) == 4
    assert lambda_valuation(CycInt(7)) == 0


def test_lambda_valuation_of_zero_raises():
    with pytest.raises(InputError):
        lambda_valuation(CycInt(0))


@given(a=cyc_nonzero, b=cyc_nonzero)
@settings(max_examples=200)
def test_lambda_valuation_is_additive(a, b):
    assert lambda_valuation(a * b) == lambda_valuation(a) + lambda_valuation(b)


@given(n=st.integers(min_value=1, max_value=10**9))
def test_lambda_valuation_of_rational_integers(n):
    v5 = 0
    m = n
    while m % 5 == 0:
        m //= 5
        v5 += 1
    assert lambda_valuation(CycInt(n)) == 4 * v5


def test_hyperprimary_examples():
    assert hyperprimary_class(CycInt(7)) == 7
    assert hyperprimary_class(CycInt(57)) == 7
    assert hyperprimary_class(CycInt(2)) is None


def test_two_misses_every_class_by_valuation():
    # v(2 - c) stays below 5 for each candidate c; the worst case is 2 - 7 = -5
    for c in (1, -1, 7, -7):
        assert lambda_valuation(CycInt(2) - CycInt(c)) <= 4


def test_rational_hyperprimary_criterion_is_mod_25():
    for n in range(1, 1001):
        if n % 5 == 0:
            continue
        want = n % 25 in (1, 7, 18, 24)
        assert (hyperprimary_class(CycInt(n)) is not None) == want
        assert (pow(n, 4, 25) == 1) == want


def test_norm_checks_that_a_times_its_conjugate_is_real(monkeypatch):
    # a faulty product must raise rather than yield a norm
    monkeypatch.setattr(cyclo, "mul", lambda a, b: (1, 1, 0, 0))
    with pytest.raises(InternalCheckError):
        norm(CycInt((2, -1, 0, 0)))


def test_hyperprimary_class_of_non_rational_elements():
    # 2 + 5*zeta = 7 - 5*lambda is = 7 mod lambda^5; 1 + 5*zeta = 6 - 5*lambda
    # and 2 + 10*zeta = 12 - 10*lambda are not, nor is 1 + zeta
    cases = (((2, 5, 0, 0), 7), ((1, 5, 0, 0), None), ((2, 10, 0, 0), None), ((1, 1, 0, 0), None))
    for coords, want in cases:
        assert hyperprimary_class(CycInt(coords)) == want
        assert brute_force_hyperprimary_class(CycInt(coords)) == want
    with pytest.raises(InputError):
        hyperprimary_class(CycInt(0))


@pytest.mark.parametrize("coords", [(), (1, 2, 3), (1, 2, 3, 4, 5)])
def test_public_constructor_rejects_the_wrong_length(coords):
    with pytest.raises(InputError):
        CycInt(coords)


def test_from_json_validates_its_coordinates():
    with pytest.raises(InputError):
        CycInt.from_json(["1", "2", "3"])
    assert CycInt.from_json(["7", "-1", "0", "2"]).c == (7, -1, 0, 2)


def test_exact_json_round_trip():
    a = CycInt((-(2**200), 3, 0, 2**190))
    assert CycInt.from_json(a.to_json()) == a
    assert a.to_json() == [str(x) for x in a.c]


def test_exact_div_rejects_non_divisors():
    from quintic.errors import InternalCheckError

    with pytest.raises(InternalCheckError):
        exact_div(CycInt(7), CycInt(2))
