import os
import random
import subprocess
import sys
import tracemalloc
from math import gcd, isqrt, prod

import pytest
import sympy

from quintic import intarith
from quintic.errors import BoundExceeded, FactorizationError, InputError
from quintic.intarith import CERTIFIED_BELOW, element_of_order_five, factorize, is_prime, sqrt_mod

_TRIAL_LIMIT = 10**6
_MR_PROVEN_LIMIT = 3317044064679887385961981
# psi_t, the least strong pseudoprime to the first t prime bases (Jaeschke 1993;
# Sorenson and Webster 2017), for t = 4, 7, 9 and 12; psi_13 is _MR_PROVEN_LIMIT
PSI = {4: 3215031751, 7: 341550071728321, 9: 3825123056546413051,
       12: 318665857834031151167461}


def wheel_factorize(n):
    """Oracle: trial division by a mod-30 wheel up to min(sqrt(m), 10^6)."""
    fac = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= m and d <= _TRIAL_LIMIT:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += wheel[i]
        i = (i + 1) % 8
    if m > 1:
        if not is_prime(m):
            raise FactorizationError(
                f"cofactor {m} of {n} is composite and beyond the trial-division bound"
            )
        fac[m] = fac.get(m, 0) + 1
    return fac


def outcome(f, n):
    """The dict as an ordered item list, or the exception's type and message."""
    try:
        return list(f(n).items())
    except (FactorizationError, BoundExceeded) as exc:
        return type(exc), str(exc)


def assert_matches_oracle(ns):
    for n in ns:
        assert outcome(factorize, n) == outcome(wheel_factorize, n), n


def test_factorize_matches_the_oracle_below_20000():
    assert_matches_oracle(range(1, 20001))


@pytest.mark.parametrize("exp", [6, 12, 16, 20])
def test_factorize_matches_the_oracle_near_powers_of_ten(exp):
    rng = random.Random(exp)
    center = 10**exp
    assert_matches_oracle(rng.randrange(center - center // 100, center + center // 100)
                          for _ in range(30))


def test_factorize_matches_the_oracle_at_block_boundaries():
    p256, p257 = 1619, 1621  # the first two blocks of 256 primes meet here
    assert intarith.sieve_primes(p257 + 1)[255:] == [p256, p257]
    for limit in (0, 1, 2, 3, 4, 9, 10, p257, p257 + 1, 20000):
        assert intarith.sieve_primes(limit) == list(sympy.primerange(limit))
    big, above = 999983, 1000003  # the largest prime below the trial bound, the next prime
    ns = [p256**2, p257**2, p256 * p257, p256**2 * p257**3, 2**7 * p257,
          big**2, big * above, big**2 * above, 3 * big * above]
    assert_matches_oracle(ns)


def test_factorize_matches_the_oracle_on_uncertifiable_cofactors():
    ns = [1000003 * 1000033, 1000003**2, 2**5 * 1000003 * 1000033, 7 * 1000003**2]
    for n in ns:
        assert outcome(factorize, n)[0] is FactorizationError
    assert_matches_oracle(ns)


def test_factorize_matches_the_oracle_above_the_miller_rabin_limit():
    ns = [_MR_PROVEN_LIMIT, 8 * _MR_PROVEN_LIMIT]
    for n in ns:
        assert outcome(factorize, n)[0] is BoundExceeded
    assert_matches_oracle(ns)


def test_full_prime_table_is_compact():
    # built in one step, and grown through bounds that end mid-block and
    # mid-segment; both must hold the same table within the same memory
    tables = []
    for steps in ((_TRIAL_LIMIT,), (9, 100, 1001, 31623, _TRIAL_LIMIT)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = intarith._PrimeTable()
            for bound in steps:
                table.extend(bound)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained - before <= 640 * 1024
        assert peak - before <= 640 * 1024
        tables.append(table)
    one, grown = tables
    assert len(one.primes) == 78498 and one.primes[-1] == 999983
    assert len(one.products) == -(-78498 // 256)
    assert grown.primes == one.primes and grown.products == one.products


def test_factorize_builds_the_table_as_far_as_the_cofactor_needs(monkeypatch):
    monkeypatch.setattr(intarith, "_TABLE", intarith._PrimeTable())
    assert factorize(95) == {5: 1, 19: 1}
    assert intarith._TABLE.limit <= 9 and list(intarith._TABLE.primes) == [2, 3, 5, 7]
    # a prime from 10^12 on is certified by Miller-Rabin before the table grows
    assert factorize(10**12 + 39) == {10**12 + 39: 1}
    assert intarith._TABLE.limit <= 9 and list(intarith._TABLE.primes) == [2, 3, 5, 7]
    # a composite one needs every prime up to 10^6
    assert factorize(999983 * (10**12 + 39)) == {999983: 1, 10**12 + 39: 1}
    assert intarith._TABLE.limit == _TRIAL_LIMIT and len(intarith._TABLE.primes) == 78498


def test_importing_the_cli_builds_no_prime_table():
    code = (
        "import quintic.cli, quintic.intarith as ia\n"
        "print(ia._TABLE.limit, len(ia._TABLE.primes), len(ia._TABLE.products))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert res.stdout.split() == ["1", "0", "0"]


@pytest.fixture
def is_prime_calls(monkeypatch):
    """Records every argument factorize passes to is_prime, its only primality test."""
    calls = []

    def recording(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(intarith, "is_prime", recording)
    return calls


def test_trial_division_certifies_every_cofactor_below_20000(is_prime_calls):
    for n in range(2, 20001):
        factorize(n)
    assert is_prime_calls == []


def test_trial_division_certifies_a_cofactor_below_the_squared_bound(is_prime_calls):
    # 1000003 is the first prime above the table, yet below 10^12 no prime <= its root is left
    assert factorize(2 * 1000003) == {2: 1, 1000003: 1}
    assert is_prime_calls == []


@pytest.mark.parametrize("n, want", [
    (10**12 + 39, {10**12 + 39: 1}),  # the first prime above 10^12
    (999983 * 1000000000039, {999983: 1, 1000000000039: 1}),
])
def test_cofactors_from_the_squared_bound_on_go_to_miller_rabin(is_prime_calls, n, want):
    assert factorize(n) == want
    # n is tested before any division, and the prime cofactor once the block
    # that holds 999983 has left it: one call per distinct cofactor
    assert is_prime_calls == sorted({n, max(want)}, reverse=True)


def test_a_composite_cofactor_above_the_squared_bound_is_still_refused(is_prime_calls):
    n = 1000003 * 1000033
    with pytest.raises(FactorizationError) as exc:
        factorize(n)
    assert str(exc.value) == f"cofactor {n} of {n} is composite and beyond the trial-division bound"
    assert is_prime_calls == [n]


def test_a_cofactor_no_block_changes_is_tested_once(is_prime_calls):
    # the block that divides out 3 leaves m; every later block leaves m as it is
    m = 1000003 * 1000033
    with pytest.raises(FactorizationError) as exc:
        factorize(3 * m)
    assert str(exc.value) == f"cofactor {m} of {3 * m} is composite and beyond the trial-division bound"
    assert is_prime_calls == [3 * m, m]


def test_certified_below_is_tight():
    # the square of the least prime above the trial bound: the least n with a
    # composite cofactor left over
    p = isqrt(CERTIFIED_BELOW)
    assert p * p == CERTIFIED_BELOW and is_prime(p)
    assert not any(is_prime(m) for m in range(_TRIAL_LIMIT + 1, p))
    assert factorize(CERTIFIED_BELOW - 1) == wheel_factorize(CERTIFIED_BELOW - 1)
    with pytest.raises(FactorizationError):
        factorize(CERTIFIED_BELOW)


def _seeded_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if sympy.isprime(p):
            return p


def _early_certificate_cases():
    """Seeded n whose cofactor reaches Miller-Rabin before trial division ends."""
    rng = random.Random(1212)
    big = [_seeded_prime(rng, 10**e, 2 * 10**e) for e in (12, 13, 15, 18, 21, 24)]
    ns = list(big)  # primes at or above 10^12
    ns += [_seeded_prime(rng, 2, _TRIAL_LIMIT) * q for q in big[:5]]  # p * q, q >= 10^12
    ns += [2**k * q for k, q in zip((1, 5, 17, 30, 40), big)]  # 2^k * p
    # at or above the Miller-Rabin limit, with a cofactor below it
    ns += [999983 * big[4], 2**20 * big[5]]
    assert all(n >= _TRIAL_LIMIT**2 for n in ns) and max(ns) >= _MR_PROVEN_LIMIT
    return ns


def test_factorize_matches_the_oracles_on_cofactors_from_the_squared_bound():
    ns = _early_certificate_cases()
    for n in ns:
        got = factorize(n)
        assert list(got) == sorted(got), n
        assert got == sympy.factorint(n), n
    assert_matches_oracle(ns)


def test_factorize_refuses_as_the_oracle_does_on_seeded_uncertifiable_products():
    rng = random.Random(1313)
    ns = []
    for lo in (_TRIAL_LIMIT, 10**8, 10**11):
        p, q = _seeded_prime(rng, lo, 2 * lo), _seeded_prime(rng, lo, 2 * lo)
        ns += [p * q, 2**9 * p * q, 999983 * p * q]
    # the Miller-Rabin limit itself, a prime beyond it, and either times small factors
    above = sympy.nextprime(_MR_PROVEN_LIMIT)
    ns += [_MR_PROVEN_LIMIT, above, 6 * above, 999983 * above]
    for n in ns:
        assert outcome(factorize, n)[0] in (FactorizationError, BoundExceeded), n
    assert_matches_oracle(ns)


def _window_items(lo, hi):
    return [list(fac.items()) for fac in intarith.factorize_window(lo, hi)]


def _factorize_items(lo, hi):
    return [list(factorize(n).items()) for n in range(lo, hi + 1)]


def test_factorize_window_matches_factorize_up_to_1e5():
    # dicts and key order, over 256-wide windows as enumerate sieves them and
    # over windows of seeded widths, one of them starting at 1
    for lo in range(1, 10**5 + 1, 256):
        hi = min(lo + 255, 10**5)
        assert _window_items(lo, hi) == _factorize_items(lo, hi), lo
    rng = random.Random(5)
    lo = 1
    while lo <= 10**5:
        hi = min(lo + rng.randrange(1000), 10**5)
        assert _window_items(lo, hi) == _factorize_items(lo, hi), lo
        lo = hi + 1


@pytest.mark.parametrize("center", [10**6, 10**9, 10**11, CERTIFIED_BELOW - 300])
def test_factorize_window_matches_factorize_on_seeded_windows(center):
    rng = random.Random(center)
    for _ in range(4):
        lo = rng.randrange(center - 3000, center)
        hi = min(lo + rng.randrange(1, 300), CERTIFIED_BELOW - 1)
        assert _window_items(lo, hi) == _factorize_items(lo, hi), lo
    # the last window that may be sieved ends just below CERTIFIED_BELOW
    assert _window_items(CERTIFIED_BELOW - 64, CERTIFIED_BELOW - 1) == _factorize_items(
        CERTIFIED_BELOW - 64, CERTIFIED_BELOW - 1)


@pytest.mark.parametrize("lo, hi", [(0, 10), (10, 9), (CERTIFIED_BELOW - 5, CERTIFIED_BELOW)])
def test_factorize_window_refuses_a_window_it_cannot_certify(lo, hi):
    # from CERTIFIED_BELOW on, a cofactor left by the sieve may be composite
    with pytest.raises(InputError, match=f"cannot sieve the window \\[{lo}, {hi}\\]"):
        intarith.factorize_window(lo, hi)


@pytest.mark.parametrize("fresh_table", [True, False])
def test_a_refusal_carries_the_split_it_was_built_from(monkeypatch, fresh_table):
    # factorize grows the table lazily, so each n meets a fresh table, or the full one
    if not fresh_table:
        intarith._TABLE.extend(_TRIAL_LIMIT)
    rng = random.Random(77)
    big = [1000003, 1000033, _seeded_prime(rng, 10**8, 2 * 10**8), sympy.nextprime(_MR_PROVEN_LIMIT)]
    # (the 10^6-smooth part as {prime: exponent}, the primes above 10^6 whose product is the rest,
    # the refusal): a rest from psi_13 on cannot be tested, and a smaller one is composite
    cases = [({7: 1}, [big[0]] * 5, BoundExceeded), ({2: 9, 5: 4}, [big[0]] * 5 + [big[1]], BoundExceeded),
             ({3: 2, 11: 1}, big[2:], BoundExceeded), ({}, [big[0], big[3]], BoundExceeded),
             ({999983: 1}, big[1:3], FactorizationError), ({}, big[:2], FactorizationError),
             ({2: 4, 3: 4, 999983: 2}, [big[0]] * 3, FactorizationError)]
    for smooth, rest, refusal in cases:
        if fresh_table:
            monkeypatch.setattr(intarith, "_TABLE", intarith._PrimeTable())
        m = prod(rest)
        n = m * prod(p**e for p, e in smooth.items())
        with pytest.raises(refusal) as raised:
            factorize(n)
        assert raised.value.split == (smooth, m), n
        assert list(raised.value.split[0]) == sorted(smooth), n


@pytest.mark.parametrize("lo, hi", [(2, 3), (2, 5000), (10**6, 10**6 + 300000), (CERTIFIED_BELOW - 5000, CERTIFIED_BELOW - 1)])
def test_prime_blocks_match_sympy_and_never_grow_the_table_past_10_6(lo, hi):
    blocks = list(intarith.prime_blocks(lo, hi))
    assert all(1 <= len(block) <= 256 for block in blocks)
    assert [p for block in blocks for p in block] == list(sympy.primerange(lo + 1, hi + 1))
    assert intarith._TABLE.limit <= 10**6


@pytest.mark.parametrize("hi", [CERTIFIED_BELOW, 10**13])
def test_prime_blocks_refuse_to_sieve_from_certified_below_on(hi):
    # as factorize_window does: the sievers up to isqrt(hi) would reach past the table's 10^6
    with pytest.raises(InputError, match=f"cannot sieve the primes up to {hi}"):
        next(intarith.prime_blocks(10**6, hi))


def test_iroot_matches_sympy():
    rng = random.Random(31)
    ns = [1, 2, 31, 32, 33, 10**36 - 1, 10**36, 1000003**5 - 1, 1000003**5, 1000003**5 + 1]
    ns += [rng.randrange(1, 10**40) for _ in range(200)]
    for k in (2, 3, 5):
        for n in ns:
            assert intarith.iroot(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << j, n) == n - 1 for j in range(1, s))


@pytest.mark.parametrize("t", sorted(PSI))
def test_is_prime_refuses_each_proven_bound(t):
    # psi_t passes the first t bases, so is_prime must test it with more
    psi = PSI[t]
    assert not sympy.isprime(psi)
    assert all(_strong_probable_prime(psi, a) for a in sympy.primerange(2, sympy.prime(t) + 1))
    assert not is_prime(psi)


def test_is_prime_matches_sympy_on_both_sides_of_each_bound():
    rng = random.Random(1818)
    for psi in (*PSI.values(), _MR_PROVEN_LIMIT):
        ns = [psi - 2, psi - 1, psi + 1, psi + 2, sympy.prevprime(psi)]
        ns += [rng.randrange(psi // 2, 2 * psi) for _ in range(50)]
        for n in ns:
            if n < _MR_PROVEN_LIMIT:
                assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(BoundExceeded):
        is_prime(sympy.nextprime(_MR_PROVEN_LIMIT))


@pytest.fixture
def gcd_calls(monkeypatch):
    """Records the cofactor of every block gcd factorize takes."""
    calls = []

    def recording(a, b):
        calls.append(b)
        return gcd(a, b)

    monkeypatch.setattr(intarith, "gcd", recording)
    return calls


def test_a_prime_cofactor_below_the_squared_bound_ends_the_division(is_prime_calls, gcd_calls):
    # the block that divides out 2 leaves a prime that trial division would
    # need about 225 more blocks to certify; one Miller-Rabin certificate does
    q = 500000067059
    n = 2 * q
    assert factorize(n) == {2: 1, q: 1}
    assert gcd_calls == [n]
    assert is_prime_calls == [n, q]


@pytest.mark.parametrize("fresh_table", [False, True])
@pytest.mark.parametrize("lo", [10**5, 10**9])
def test_cofactors_below_the_block_horizon_never_reach_miller_rabin(monkeypatch, is_prime_calls,
                                                                   fresh_table, lo):
    # primes and semiprimes near 10^5 and 10^9, and n with small factors, all
    # finish trial division within _MR_AFTER_BLOCKS blocks: no certificate
    if fresh_table:
        monkeypatch.setattr(intarith, "_TABLE", intarith._PrimeTable())
    else:
        intarith._TABLE.extend(_TRIAL_LIMIT)
    rng = random.Random(lo)
    ns = [rng.randrange(lo, lo + lo // 2) for _ in range(100)]
    ns += [_seeded_prime(rng, lo, lo + lo // 2) for _ in range(10)]
    for n in ns:
        assert factorize(n) == sympy.factorint(n), n
    assert is_prime_calls == []


@pytest.mark.parametrize("n", [
    2**40, 7**9, 999983**2,  # prime powers, divided out to 1
    5**4 * 2, 5**3 * 3**2, 2**3 * 5,  # 5^e * p with p < 5
    2 * 500000067059, 999983 * 1000000000039,  # a prime cofactor ends the division at Miller-Rabin
    1000003, 6 * 1000003, 2 * 3 * 101,  # a prime cofactor is left after trial division
])
def test_factorize_returns_its_primes_ascending(n):
    # radicand.classify reads the factorization in one pass and relies on this order
    got = factorize(n)
    assert list(got) == sorted(got) and got == sympy.factorint(n), n


@pytest.mark.parametrize("lo", [10**5, 10**9, 10**12])
def test_factorize_returns_seeded_primes_ascending(lo):
    rng = random.Random(lo + 1)
    for n in (rng.randrange(lo, 2 * lo) for _ in range(300)):
        got = factorize(n)
        assert list(got) == sorted(got) and got == sympy.factorint(n), n


def _tier_cases():
    """Seeded 2q, pq (small p) and 2^k q, with q a prime on either side of psi_4, psi_7, psi_9."""
    rng = random.Random(1919)
    ns = []
    for psi in (PSI[4], PSI[7], PSI[9]):
        for q in (_seeded_prime(rng, psi - psi // 1000, psi), _seeded_prime(rng, psi, psi + psi // 1000)):
            ns += [q, 2 * q, _seeded_prime(rng, 3, 1000) * q, _seeded_prime(rng, 1000, _TRIAL_LIMIT) * q]
            ns += [2**k * q for k in (3, 17, 40)]
    return ns


def test_factorize_matches_sympy_on_both_sides_of_each_bound():
    for n in _tier_cases():
        got = factorize(n)
        assert list(got) == sorted(got), n
        assert got == sympy.factorint(n), n


def _seeded_primes_mod_20(rng, r, count=3):
    """count seeded primes p = r mod 20 in [10^15, 10^18): r fixes p mod 5 and mod 4."""
    out = []
    while len(out) < count:
        p = 20 * rng.randrange(10**15 // 20, 10**18 // 20) + r
        if sympy.isprime(p):
            out.append(p)
    return out


def test_element_of_order_five_matches_sympy():
    rng = random.Random(2020)
    ps = [p for p in sympy.primerange(2 * 10**5) if p % 5 == 1]
    ps += _seeded_primes_mod_20(rng, 1) + _seeded_primes_mod_20(rng, 11)  # p = 1 and 3 mod 4
    for p in ps:
        y = element_of_order_five(p)
        assert sympy.n_order(y, p) == 5, p
        x = next(x for x in range(2, p) if not sympy.is_nthpow_residue(x, 5, p))
        assert y == pow(x, (p - 1) // 5, p), p
    assert element_of_order_five(11) == 4 and sympy.n_order(3, 11) == 5


def test_sqrt_mod_of_5_matches_sympy():
    rng = random.Random(2121)
    ps = [p for p in sympy.primerange(2 * 10**5) if p % 5 == 4]
    ps += _seeded_primes_mod_20(rng, 9) + _seeded_primes_mod_20(rng, 19)  # p = 1 and 3 mod 4
    assert {p % 4 for p in ps} == {1, 3}
    for p in ps:
        assert sqrt_mod(5, p) == min(sympy.sqrt_mod(5, p, all_roots=True)), p


def test_sqrt_mod_refuses_a_non_residue():
    rng = random.Random(2222)
    # 5 is a square mod p exactly when p = +-1 mod 5; r = 13, 17 are 1 mod 4 and r = 3, 7 are 3 mod 4
    ps = [7, 13, 17, 23] + [p for r in (3, 7, 13, 17) for p in _seeded_primes_mod_20(rng, r, 1)]
    for p in ps:
        assert not sympy.is_quad_residue(5, p)
        with pytest.raises(InputError, match=f"5 is not a quadratic residue mod {p}"):
            sqrt_mod(5, p)
