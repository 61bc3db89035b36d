import hashlib
import itertools
import json
import random

import pytest
import sympy

from quintic.cyclo import CycInt, LAMBDA, euclid_divmod, exact_div, galois_apply, norm
from quintic.errors import FactorizationError, InputError, NoPrimaryAssociate
from quintic.intarith import sieve_primes
from quintic.primes import (
    CycPrime,
    brute_force_primary_normalize,
    factor_radicand,
    factor_rational_prime,
    is_primary,
    primary_normalize,
)
from quintic.radicand import is_fifth_power_free, radicand_factorization

#: sha256 of test_the_primes_above_split_p_are_pinned's lines
SPLITTING_DIGEST = "e2637c03a0f4c60ed836879df5b56e0ef68a4191b0b1252e5516e0a5f10ad22c"


def divides(d: CycInt, a: CycInt) -> bool:
    return not euclid_divmod(a, d)[1]


def test_splitting_types():
    # (p, f, g): ramified, split into two, inert, split into four
    for p, f, g in ((5, 1, 1), (19, 2, 2), (2, 4, 1), (11, 1, 4), (31, 1, 4)):
        qs = factor_rational_prime(p)
        assert len(qs) == g and all(q.p == p and q.f == f for q in qs)


def test_splitting_rejects_composites():
    with pytest.raises(InputError):
        factor_rational_prime(15)


def test_five_ramifies_as_lambda():
    (q,) = factor_rational_prime(5)
    assert q.element == LAMBDA and q.e == 4 and q.f == 1


def test_nineteen_splits_into_two_quadratic_primes():
    qs = factor_rational_prime(19)
    assert len(qs) == 2
    assert all(norm(q.element) == 361 and q.f == 2 for q in qs)
    # the defining quadratics come from t^2 + t - 1 = 0 mod 19: roots 4 and 14
    assert [t for t in range(19) if (t * t + t - 1) % 19 == 0] == [4, 14]
    # their product recovers Phi5 mod 19
    f1 = (1, -4, 1)
    f2 = (1, -14, 1)
    prod = [0] * 5
    for i, a in enumerate(f1):
        for j, b in enumerate(f2):
            prod[i + j] += a * b
    assert [c % 19 for c in prod] == [1, 1, 1, 1, 1]


def test_eleven_splits_into_four_primes_of_norm_eleven():
    qs = factor_rational_prime(11)
    assert len(qs) == 4 and all(norm(q.element) == 11 for q in qs)
    from quintic.cyclo import ZETA, gcd

    g = gcd(CycInt(11), ZETA - CycInt(3))
    assert any(divides(q.element, g) for q in qs)


@pytest.mark.parametrize("p", sieve_primes(300))
def test_splitting_sweep(p):
    qs = factor_rational_prime(p)
    g = len(qs)
    assert qs[0].e * qs[0].f * g == 4
    prod = CycInt(1)
    for q in qs:
        assert norm(q.element) == p**q.f
        prod = prod * q.element**q.e
    assert norm(exact_div(CycInt(p), prod)) == 1
    order = 1 if p == 5 else next(k for k in (1, 2, 4) if pow(p, k, 5) == 1)
    assert g == ({1: 4, 2: 2, 4: 1}[order] if p != 5 else 1)


@pytest.mark.parametrize("p", [5, 11, 19, 29, 31, 41, 2, 3])
def test_galois_permutes_the_primes_above_p(p):
    qs = factor_rational_prime(p)
    for q in qs:
        for t in range(4):
            img = galois_apply(t, q.element)
            hits = [q2 for q2 in qs if divides(q2.element, img)]
            assert len(hits) == 1


def factor(n):
    """factor_radicand as the factor command calls it."""
    return factor_radicand(n, radicand_factorization(n))


def expand(doc):
    """unit * prod(prime^exponent), read back from the factor document and multiplied out."""
    acc = CycInt.from_json(doc["unit"])
    for entry in doc["factors"]:
        acc = acc * CycInt.from_json(entry["prime"]["pi"]) ** entry["exponent"]
    return acc


def test_factor_radicand_25_is_lambda_to_the_eighth():
    doc = factor(25)
    assert [(e["prime"]["p"], e["exponent"]) for e in doc["factors"]] == [(5, 8)]
    assert expand(doc) == CycInt(25)


def test_factor_radicand_95():
    doc = factor(95)
    shape = [(e["prime"]["p"], e["prime"]["f"], e["exponent"]) for e in doc["factors"]]
    assert shape == [(5, 1, 4), (19, 2, 1), (19, 2, 1)]
    assert norm(CycInt.from_json(doc["unit"])) == 1
    assert expand(doc) == CycInt(95)


def test_factor_radicand_inert_prime():
    (entry,) = factor(2)["factors"]
    q = entry["prime"]
    assert q["f"] == 4 and entry["exponent"] == 1 and CycInt.from_json(q["pi"]) == CycInt(2)


def _certifiable_near_10_12(count, seed):
    """count seeded fifth-power-free n in [10^12, 2 * 10^12) that factorize can certify."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randrange(10**12, 2 * 10**12)
        try:
            fac = radicand_factorization(n)
        except FactorizationError:
            continue
        if max(fac.values()) < 5:
            found.append(n)
    return found


def test_the_factor_document_reads_back_to_n():
    # read back with CycInt.from_json: unit * prod(pi^e) = n, N(unit) = 1 and N(pi) = p^f
    ns = [n for n in range(2, 3001) if is_fifth_power_free(n)] + _certifiable_near_10_12(50, 1012)
    for n in ns:
        doc = factor(n)
        assert norm(CycInt.from_json(doc["unit"])) == 1, n
        for entry in doc["factors"]:
            q = entry["prime"]
            assert norm(CycInt.from_json(q["pi"])) == q["p"] ** q["f"], (n, q)
        assert expand(doc) == CycInt(n), n


def test_factor_radicand_rejects_uncertifiable_cofactors():
    n = 1000003 * 1000033  # both factors prime and beyond the trial bound
    with pytest.raises(FactorizationError):
        factor(n)


def test_factor_radicand_rejects_small_inputs():
    with pytest.raises(InputError):
        factor_radicand(1, {})


def test_primary_normalize_keeps_rational_inert_primes():
    for p in (2, 3):
        q = factor_rational_prime(p)[0]
        assert primary_normalize(q).element == q.element


@pytest.mark.parametrize("p", [19, 29, 59, 79, 89, 109, 139, 149, 199])
def test_primary_normalize_reaches_a_rational_residue(p):
    # degree-2 primes (p = -1 mod 5) are the ones the families contain, and
    # they normalize throughout the tested range
    for q in factor_rational_prime(p):
        qn = primary_normalize(q)
        r = is_primary(qn.element)
        assert r in (1, 2, 3, 4)
        # still the same prime ideal
        assert divides(q.element, qn.element) and divides(qn.element, q.element)


def test_primary_normalize_can_genuinely_fail_for_degree_one_primes():
    # the unit images mod 5 span only a plane inside the three-dimensional
    # group of 1-units, so most degree-1 primes admit no primary associate;
    # the bounded search already covers every distinct unit class (the
    # 1-unit parts of zeta and epsilon have order 5), hence the error is a
    # fact, not a search-depth artifact
    from quintic.errors import NoPrimaryAssociate

    results = []
    for q in factor_rational_prime(11):
        try:
            primary_normalize(q)
            results.append("ok")
        except NoPrimaryAssociate:
            results.append("none")
    assert "none" in results


def test_primary_normalize_rejects_lambda():
    with pytest.raises(InputError):
        primary_normalize(factor_rational_prime(5)[0])
    with pytest.raises(InputError):
        brute_force_primary_normalize(factor_rational_prime(5)[0])


def test_primary_normalize_matches_the_full_size_search_below_2e4():
    # the search on residues mod 5 returns the element the full-size search
    # returns, or fails on the same primes
    def outcome(fn, q):
        try:
            return fn(q)
        except NoPrimaryAssociate:
            return None

    normalized = failed = 0
    for p in sieve_primes(20000):
        if p == 5:
            continue
        for q in factor_rational_prime(p):
            got = outcome(primary_normalize, q)
            assert got == outcome(brute_force_primary_normalize, q), q
            normalized += got is not None
            failed += got is None
    assert (normalized, failed) == (2665, 1844)


def _splitting_primes():
    """Every prime p = 1 or 4 mod 5 below 2*10^4, then 200 seeded ones of 3 to 16 digits."""
    yield from (p for p in sieve_primes(20000) if p % 5 in (1, 4))
    rng = random.Random(20240502)
    found = 0
    while found < 200:
        digits = rng.randint(3, 16)
        p = sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits))
        if p % 5 in (1, 4):
            found += 1
            yield p


def test_the_primes_above_split_p_are_pinned():
    # the output bytes hold gcd's quotient choices, its canonical associate
    # and the order of the primes, so all three must stay as recorded
    digest = hashlib.sha256()
    for p in _splitting_primes():
        doc = [q.to_json() for q in factor_rational_prime(p)]
        digest.update(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == SPLITTING_DIGEST


def test_primary_normalize_matches_the_full_size_search_on_every_class_mod_5():
    # being primary depends only on pi mod 5, so the 625 classes cover every
    # input; each is lifted by a seeded multiple of 5 so the full-size product
    # is used, and only the element and p != 5 of the stand-in prime are read
    rng = random.Random(625)
    normalized = 0
    for residues in itertools.product(range(5), repeat=4):
        lift = tuple(r + 5 * rng.randrange(-(10**9), 10**9) for r in residues)
        q = CycPrime(11, CycInt(lift))
        try:
            got = primary_normalize(q)
        except NoPrimaryAssociate:
            with pytest.raises(NoPrimaryAssociate):
                brute_force_primary_normalize(q)
            continue
        assert got == brute_force_primary_normalize(q)
        normalized += 1
    assert normalized == 100


def test_cycprime_json_shape():
    q = factor_rational_prime(19)[0]
    doc = q.to_json()
    assert set(doc) == {"p", "pi", "f", "e"}
    assert doc["p"] == 19 and doc["f"] == 2 and doc["e"] == 1
    assert CycInt.from_json(doc["pi"]) == q.element

