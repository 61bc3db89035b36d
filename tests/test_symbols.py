import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic import polyfp
from quintic.cyclo import CycInt
from quintic.errors import FieldTooLarge, NotCoprime, SymbolUndefined
from quintic.primes import factor_rational_prime
from quintic.symbols import (
    brute_force_symbol,
    euler_power,
    quintic_symbol,
    reduce_element,
    residue_field,
)


def test_symbol_of_one_is_zero_everywhere():
    for p in (11, 19, 2):
        for q in factor_rational_prime(p):
            assert quintic_symbol(CycInt(1), q) == 0


def test_worked_example_above_eleven():
    # at the prime with zeta -> 3, Euler gives 3^2 = 9 = 3^2, exponent 2
    q = next(q for q in factor_rational_prime(11) if residue_field(q).zeta_image == (3,))
    assert pow(3, (11 - 1) // 5, 11) == 9
    assert quintic_symbol(CycInt(3), q) == 2


def test_symbol_is_undefined_at_lambda():
    with pytest.raises(SymbolUndefined):
        quintic_symbol(CycInt(2), factor_rational_prime(5)[0])


def test_symbol_requires_coprimality():
    q = factor_rational_prime(11)[0]
    with pytest.raises(NotCoprime):
        quintic_symbol(CycInt(11), q)


def test_oracle_equivalence_at_small_inert_primes():
    for p in (2, 3, 7):
        (q,) = factor_rational_prime(p)
        rf = residue_field(q)
        from itertools import product

        zeros = 0
        for coeffs in product(range(p), repeat=4):
            a = CycInt(coeffs)
            if not any(coeffs):
                continue
            s = quintic_symbol(a, q)
            assert s == brute_force_symbol(a, q)
            zeros += s == 0
        assert zeros == (rf.order() - 1) // 5


coords = st.tuples(*[st.integers(-60, 60)] * 4).map(CycInt)


@given(a=coords, b=coords, pi=st.sampled_from([11, 19, 31, 29]))
@settings(max_examples=300)
def test_multiplicativity(a, b, pi):
    q = factor_rational_prime(pi)[0]
    try:
        sa = quintic_symbol(a, q)
        sb = quintic_symbol(b, q)
    except NotCoprime:
        return
    assert quintic_symbol(a * b, q) == (sa + sb) % 5


def test_rational_residue_question_is_galois_invariant():
    for p in (19, 29, 59):
        q1, q2 = factor_rational_prime(p)
        for a in (2, 3, 5, 7, 10):
            assert (quintic_symbol(CycInt(a), q1) == 0) == (
                quintic_symbol(CycInt(a), q2) == 0
            )


def test_every_rational_is_a_residue_at_degree_two_primes():
    # F_p* has order coprime to 5 and lies inside the fifth powers of F_{p^2}
    for p in (19, 29):
        for q in factor_rational_prime(p):
            for a in (2, 3, 5, 7, 11, 13):
                assert quintic_symbol(CycInt(a), q) == 0


def test_brute_force_bound():
    q = factor_rational_prime(1009)[0]  # 1009 = 4 mod 5, field order > 10^6
    with pytest.raises(FieldTooLarge):
        brute_force_symbol(CycInt(2), q)


def test_residue_field_shapes():
    rf = residue_field(factor_rational_prime(19)[0])
    assert rf.f == 2 and rf.modulus[-1] == 1 and len(rf.modulus) == 3
    rf4 = residue_field(factor_rational_prime(2)[0])
    assert rf4.f == 4 and rf4.modulus == (1, 1, 1, 1, 1)
    assert rf4.order() == 16 and rf4.order() % 5 == 1


def _seeded_primes(seed, residues, lo, hi, count):
    """count primes in [lo, hi) with p mod 5 in residues, drawn from a fixed seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randrange(lo, hi)
        if p % 5 in residues and sympy.isprime(p):
            out.append(p)
    return out


_DEGREE_RESIDUES = {1: (1,), 2: (4,), 4: (2, 3)}


def _elements(rng, p, count):
    """Seeded elements of Z[zeta5]: rationals, then coordinates of mixed sizes."""
    yield from (CycInt(a) for a in (2, 3, 5, p - 1, p + 2))
    for _ in range(count):
        yield CycInt(tuple(rng.randrange(-(p**2), p**2) for _ in range(4)))


@pytest.mark.parametrize("f", [1, 2, 4])
@pytest.mark.parametrize("exp", [3, 6, 9, 12])
def test_euler_power_matches_the_generic_power(f, exp):
    # the generic square-and-multiply in F_p[x]/(modulus) at every degree, up to 10^12
    rng = random.Random(100 * f + exp)
    seen = set()
    for p in _seeded_primes(exp * f, _DEGREE_RESIDUES[f], 10**(exp - 1), 10**exp, 3):
        for q in factor_rational_prime(p):
            rf = residue_field(q)
            assert rf.f == f
            for a in _elements(rng, p, 8):
                abar = reduce_element(a, rf)
                if not abar:
                    continue
                want = polyfp.powmod(abar, (rf.order() - 1) // 5, rf.modulus, p)
                assert euler_power(abar, rf) == want, (a, q)
                s = quintic_symbol(a, q)
                assert rf.zeta_powers[s] == want
                seen.add(s)
    assert seen == set(range(5))


@pytest.mark.parametrize("f, lo, hi", [(1, 1000, 100000), (2, 200, 317), (4, 7, 18)])
def test_symbol_matches_the_discrete_log_oracle_at_seeded_primes(f, lo, hi):
    # fields of 10^3 to 10^5 elements, beyond the primes of criterion 3
    rng = random.Random(f)
    for p in _seeded_primes(f, _DEGREE_RESIDUES[f], lo, hi, 2):
        for q in factor_rational_prime(p):
            for a in _elements(rng, p, 25):
                try:
                    s = quintic_symbol(a, q)
                except NotCoprime:
                    continue
                assert s == brute_force_symbol(a, q), (a, q)
