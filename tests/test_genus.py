import cmath
import importlib.util
import math
import random
import sys
import time
from itertools import combinations, count, islice, product
from pathlib import Path

import pytest
import sympy

from quintic import genus
from quintic.cyclo import LAMBDA, ONE, ZETA, CycInt, galois_apply, hyperprimary_class
from quintic.errors import (
    ContradictionWitness,
    InputError,
    InternalCheckError,
    QstarOutOfRange,
)
from quintic.genus import (
    absolute_genus,
    brute_force_cyclotomic_numbers,
    brute_force_period_coefficients,
    build_genus_report,
    corollary_report,
    count_ramified_d,
    cyclotomic_numbers,
    cyclotomic_numbers_from_jacobi_sum,
    discriminant,
    infer_qstar,
    load_class_number_table,
    period_coefficients,
    period_polynomial,
    relative_genus,
)
from quintic.intarith import primitive_root, sieve_primes
from quintic.primes import factor_rational_prime, primary_normalize
from quintic.radicand import Verdict, classify, enumerate_radicands

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

# the largest prime = 1 mod 5 below 10^5, where the tests still run the O(p)
# walk from a second primitive root; the bound on p itself is is_prime's
# Miller-Rabin limit, about 3.3e24, so two primes far above 10^5 are checked too
CAP_PRIME = 99991
ABOVE_1E12 = next(p for p in count(10**12 + 1) if p % 5 == 1 and sympy.isprime(p))
NEAR_1E24 = next(p for p in count(10**24 + 1) if p % 5 == 1 and sympy.isprime(p))


def walk_polynomial(p: int, g: int) -> tuple[int, ...]:
    """The period polynomial from the O(p) count of the cyclotomic numbers."""
    return period_coefficients(p, brute_force_cyclotomic_numbers(p, g))


def expansion_period_coefficients(p: int, cyc) -> tuple[int, ...]:
    """Oracle for period_coefficients: prod_j (X - eta_j) multiplied out in the eta basis.

    Fifteen products of a vector (a, c_0..c_4) = a + sum c_k eta_k by some
    eta_j, with eta_i * eta_j = f * [i = j] + sum_k (j-i, k) * eta_(i+k),
    and each coefficient must come out rational. It reads the table through
    none of the relations that period_coefficients checks.
    """
    f = (p - 1) // 5

    def times_eta(vec, j):
        out = [0] * 6
        out[1 + j] = vec[0]
        for i in range(5):
            c = vec[1 + i]
            d = (j - i) % 5
            if d == 0:
                out[0] += f * c
            for k, count_ in enumerate(cyc[d]):
                out[1 + (i + k) % 5] += c * count_
        return out

    poly = [[1, 0, 0, 0, 0, 0]]
    for j in range(5):
        new = [[0] * 6 for _ in range(len(poly) + 1)]
        for k, vec in enumerate(poly):
            up, down = new[k + 1], new[k]
            for i, v in enumerate(vec):
                up[i] += v
            for i, v in enumerate(times_eta(vec, j)):
                down[i] -= v
        poly = new
    return genus._rational_coefficients(poly, p)


def seeded_prime(seed: int, lo: int) -> int:
    rng = random.Random(seed)
    while True:
        p = rng.randrange(lo, 2 * lo)
        if p % 5 == 1 and sympy.isprime(p):
            return p


def numeric_period_coefficients(p: int) -> list[complex]:
    """Oracle: expand prod(x - eta_j) from floating-point roots of unity."""
    g = primitive_root(p)
    m = (p - 1) // 5
    etas = []
    for j in range(5):
        etas.append(sum(cmath.exp(2j * cmath.pi * pow(g, j + 5 * k, p) / p) for k in range(m)))
    coeffs = [1.0 + 0j]
    for eta in etas:
        new = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= eta * c
        coeffs = new
    return coeffs  # ascending


def test_frozen_polynomial_for_eleven():
    # the periods for p = 11 are 2cos(2*pi*a/11); minimal polynomial
    # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1
    assert period_polynomial(11) == (1, 3, -3, -4, 1, 1)


@pytest.mark.parametrize("p", [11, 31, 41, 61, 71])
def test_numeric_root_oracle(p):
    exact = period_polynomial(p)
    approx = numeric_period_coefficients(p)
    for k in range(6):
        assert abs(approx[k].real - exact[k]) < 1e-6
        assert abs(approx[k].imag) < 1e-6


# criterion 6 runs these checks at every prime below 1000 (the periods suite,
# and sympy below 200); the three tests here run them at CAP_PRIME, and the
# two that need no O(p) walk also above 10^12 and near 10^24
@pytest.mark.parametrize("p", [CAP_PRIME])
def test_recomputation_with_another_primitive_root(p):
    # g0^k is a primitive root exactly when k is coprime to p - 1
    g1 = pow(primitive_root(p), next(k for k in count(2) if math.gcd(k, p - 1) == 1), p)
    assert period_polynomial(p) == walk_polynomial(p, g1)


@pytest.mark.parametrize("p", [CAP_PRIME, ABOVE_1E12, NEAR_1E24])
def test_irreducibility_via_sympy(p):
    x = sympy.symbols("x")
    f = sum(c * x**k for k, c in enumerate(period_polynomial(p)))
    assert sympy.Poly(f, x).is_irreducible


WITNESS_PRIMES = sieve_primes(200)


def first_irreducible_prime(coeffs):
    """sympy's answer: the first prime q < 200 modulo which the polynomial is irreducible."""
    x = sympy.symbols("x")
    desc = list(reversed(coeffs))
    return next((q for q in WITNESS_PRIMES if sympy.Poly(desc, x, modulus=q).is_irreducible), None)


def _times(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return tuple(out)


def seeded_quintics(seed):
    """Monic quintics, ascending: random ones, and products built reducible.

    A quadratic times a cubic has no root where neither factor has one, so
    a witness that looked only for roots would accept it at such q.
    """
    rng = random.Random(seed)

    def monic(d):
        return tuple(rng.randrange(-9, 10) for _ in range(d)) + (1,)

    quintics = [monic(5) for _ in range(40)]
    quintics += [_times(monic(2), monic(3)) for _ in range(10)]
    quintics += [_times(monic(1), monic(4)) for _ in range(10)]
    for _ in range(10):
        g = monic(2)
        quintics.append(_times(_times(g, g), monic(1)))
    return quintics


def test_witness_is_the_first_prime_sympy_calls_irreducible():
    periods = [period_polynomial(p) for p in sieve_primes(5000) if p % 5 == 1]
    built = seeded_quintics(5)
    refused = 0
    for coeffs in periods + built:
        w = genus._irreducibility_witness(coeffs)
        assert w == first_irreducible_prime(coeffs), coeffs
        refused += w is None
    # every period polynomial has a witness; the 30 products built reducible have none
    assert len(periods) == 163 and 30 <= refused < len(built)


def test_period_polynomial_refuses_without_a_witness(monkeypatch):
    monkeypatch.setattr(genus, "_irreducibility_witness", lambda coeffs: None)
    with pytest.raises(InternalCheckError, match="irreducibility"):
        period_polynomial(11)


# the witnesses are 2, 2, 3 and 7: 1381 and 2011 are genus-periods grid primes
@pytest.mark.parametrize("p", [11, 1381, 2011, 6581])
def test_witness_makes_one_gcd_per_candidate_prime(p, monkeypatch):
    w = genus._irreducibility_witness(period_polynomial(p))
    calls = []
    gcd = genus.polyfp.gcd

    def counting_gcd(u, v, q):
        calls.append(q)
        return gcd(u, v, q)

    monkeypatch.setattr(genus.polyfp, "gcd", counting_gcd)
    period_polynomial(p)
    assert calls == [q for q in WITNESS_PRIMES if q <= w]


@pytest.mark.parametrize("p", [CAP_PRIME, ABOVE_1E12, NEAR_1E24])
def test_discriminant_is_p4_times_a_coprime_square(p):
    poly = period_polynomial(p)
    x = sympy.symbols("x")
    f = sum(c * x**k for k, c in enumerate(poly))
    d = discriminant(poly)
    assert d == int(sympy.discriminant(f))
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    assert v == 4
    s = math.isqrt(d)
    assert s * s == d and math.gcd(s, p) == 1


# criterion 6 runs the expansion oracle at every split prime below 1000;
# this keeps a direct check of the cyclotomic-number path at the small ones
@pytest.mark.parametrize("p", [11, 31, 41, 61, 71])
def test_cyclotomic_numbers_match_the_expansion_oracle(p):
    g = primitive_root(p)
    assert period_polynomial(p) == brute_force_period_coefficients(p, g)


def test_jacobi_sums_match_the_walk_below_10_4():
    # compare polynomials, not tables: the table's labels depend on the character
    ps = [p for p in sieve_primes(10**4) if p % 5 == 1]
    assert len(ps) == 306
    for p in ps:
        assert period_polynomial(p) == walk_polynomial(p, primitive_root(p)), p


@pytest.mark.parametrize("seed", [1, 2])
def test_jacobi_sums_match_the_walk_near_10_6(seed):
    p = seeded_prime(seed, 10**6)
    assert period_polynomial(p) == walk_polynomial(p, primitive_root(p))


def test_tables_below_10_4_hold_their_relations_and_match_the_expansion_oracle():
    ps = [p for p in sieve_primes(10**4) if p % 5 == 1]
    assert len(ps) == 306
    for p in ps:
        for cyc in (cyclotomic_numbers(p), brute_force_cyclotomic_numbers(p, primitive_root(p))):
            assert genus._cyclotomic_relations_hold(p, cyc), (p, cyc)
            assert period_coefficients(p, cyc) == expansion_period_coefficients(p, cyc), p


@pytest.mark.parametrize("p", [CAP_PRIME, ABOVE_1E12, NEAR_1E24])
def test_power_sums_match_the_expansion_oracle_at_large_p(p):
    # the Theta(p^2) oracle cannot run here; this one checks the whole polynomial
    cyc = cyclotomic_numbers(p)
    assert period_coefficients(p, cyc) == expansion_period_coefficients(p, cyc)


def _rejects(coefficients, p, cyc) -> bool:
    try:
        coefficients(p, cyc)
    except InternalCheckError:
        return True
    return False


def _changed(cyc, changes):
    """cyc with each entry (i, j) of changes moved by its d."""
    rows = [list(row) for row in cyc]
    for (i, j), d in changes:
        rows[i][j] += d
    return tuple(map(tuple, rows))


def _corrupted_tables(p, cyc):
    """(one-entry changes by +-1 or +5, swaps within a row, 200 seeded 2-4 entry changes) of cyc."""
    cells = [(i, j) for i in range(5) for j in range(5)]
    one_entry = [_changed(cyc, [(cell, d)]) for cell in cells for d in (1, -1, 5)]
    swaps = []
    for i, row in enumerate(cyc):
        for j, k in combinations(range(5), 2):
            swapped = list(row)
            swapped[j], swapped[k] = row[k], row[j]
            swaps.append((*cyc[:i], tuple(swapped), *cyc[i + 1:]))
    rng = random.Random(p)
    seeded = [_changed(cyc, [(cell, rng.choice((-2, -1, 1, 2, 5))) for cell in rng.sample(cells, rng.randint(2, 4))])
              for _ in range(200)]
    return one_entry, swaps, seeded


@pytest.mark.parametrize("p", [11, 31, 41, 1381, 2351, CAP_PRIME])
def test_a_corrupted_table_is_rejected_where_the_expansion_oracle_rejects_it(p):
    cyc = cyclotomic_numbers(p)
    truth = period_coefficients(p, cyc)
    one_entry, swaps, seeded = _corrupted_tables(p, cyc)
    assert len(one_entry) == 75 and len(swaps) == 50 and len(seeded) == 200
    for table in one_entry + swaps + seeded:
        rejected = _rejects(period_coefficients, p, table)
        assert rejected is _rejects(expansion_period_coefficients, p, table), table
        if not rejected:
            assert period_coefficients(p, table) == truth, table
    # a one-entry change breaks a row sum, so both reject every one of them
    assert all(_rejects(period_coefficients, p, table) for table in one_entry)


@pytest.mark.parametrize("p", [11, 31, 41, 1381, 2351])
def test_a_table_from_a_wrong_jacobi_sum_keeps_the_relations_and_is_rejected(p):
    # such a table passes every relation, so only the exact division and the
    # root certificate stand between it and a wrong polynomial
    rng = random.Random(p)
    tables = []
    while len(tables) < 100:
        j1 = CycInt(tuple(rng.randrange(-60, 60) for _ in range(4)))
        if _accepted(p, j1) and j1 * galois_apply(2, j1) != CycInt(p):
            tables.append(cyclotomic_numbers_from_jacobi_sum(p, j1))
    checks = set()
    for table in tables:
        assert genus._cyclotomic_relations_hold(p, table), table
        assert _rejects(expansion_period_coefficients, p, table), table
        with pytest.raises(InternalCheckError, match="is not divisible by|non-rational|does not vanish") as exc:
            period_coefficients(p, table)
        checks.add("divisible" in str(exc.value))
    assert checks == {True, False}  # each of the two checks is the first to fail on some table


# at p = 11 the root certificate alone accepts some changes to row 4, which the
# relations reject, as the expansion oracle does
@pytest.mark.parametrize("j, d", [(j, d) for j in range(5) for d in (1, -1, 5)],
                         ids=[f"row4-col{j}{d:+d}" for j in range(5) for d in (1, -1, 5)])
def test_p11_row_4_changes_are_rejected(j, d):
    table = _changed(cyclotomic_numbers(11), [((4, j), d)])
    assert _rejects(period_coefficients, 11, table)
    assert _rejects(expansion_period_coefficients, 11, table)


def test_the_root_certificate_alone_misses_p11_row_4_changes(monkeypatch):
    cyc = cyclotomic_numbers(11)
    tables = [_changed(cyc, [((4, j), d)]) for j in range(5) for d in (1, -1, 5)]
    monkeypatch.setattr(genus, "_cyclotomic_relations_hold", lambda p, table: True)
    assert not all(_rejects(period_coefficients, 11, table) for table in tables)


def _cyclotomic_rows_from_the_definition():
    """The rows of genus._CYCLOTOMIC_ROWS, from 25 * (i, j) = sum zeta^-(ai + bj) K(a, b).

    Column m is the sum at the m-th unit vector of (p, 1, x0, x1, x2, x3),
    where K(0, 0) = p - 2, K = -1 when exactly one of a, b, a + b is 0 mod 5,
    and otherwise K(a, b) = sigma_a(J(chi, chi^(b/a))), with
    J(chi, chi) = J(chi, chi^3) = J1 = x0 + x1*zeta + x2*zeta^2 + x3*zeta^3
    and J(chi, chi^2) = sigma_2(J1). Every sum must be rational.
    """
    sigma = {1: 0, 2: 1, 4: 2, 3: 3}  # sigma_c = galois_apply(sigma[c])
    columns = []
    for m in range(6):
        p_part, one_part = int(m == 0), int(m == 1)
        j1 = CycInt(tuple(int(m == 2 + k) for k in range(4)))
        column = []
        for i in range(5):
            for j in range(5):
                total = CycInt(0)
                for a in range(5):
                    for b in range(5):
                        zeros = (a == 0) + (b == 0) + ((a + b) % 5 == 0)
                        if zeros == 3:
                            k = CycInt(p_part - 2 * one_part)
                        elif zeros == 1:
                            k = CycInt(-one_part)
                        else:
                            ratio = b * pow(a, -1, 5) % 5
                            c = a if ratio in (1, 3) else 2 * a
                            k = galois_apply(sigma[c % 5], j1)
                        total = total + ZETA ** (-(a * i + b * j) % 5) * k
                assert total.c[1:] == (0, 0, 0)
                column.append(total.c[0])
        columns.append(column)
    return tuple(tuple(col[r] for col in columns) for r in range(25))


def test_cyclotomic_rows_match_their_definition():
    assert genus._CYCLOTOMIC_ROWS == _cyclotomic_rows_from_the_definition()


@pytest.mark.parametrize("p", [11, 31, 1091, 2351, CAP_PRIME])
def test_jacobi_sum_off_by_a_unit_is_rejected(p):
    # the J1 that cyclotomic_numbers builds, recovered from its table
    pi = genus.factor_rational_prime(p)[0].element
    x = pi * galois_apply(3, pi)
    units = [s * ZETA**k for s in (1, -1) for k in range(5)]
    good = [u for u in units if _accepted(p, u * x)]
    assert len(good) == 1
    j1 = good[0] * x
    assert cyclotomic_numbers_from_jacobi_sum(p, j1) == cyclotomic_numbers(p)
    for u in units:
        if u != ONE:
            with pytest.raises(InternalCheckError, match="not an integer"):
                cyclotomic_numbers_from_jacobi_sum(p, u * j1)


def _accepted(p: int, j1: CycInt) -> bool:
    try:
        cyclotomic_numbers_from_jacobi_sum(p, j1)
    except InternalCheckError:
        return False
    return True


def test_declared_cap_is_reachable_within_budget():
    # the bound on p is is_prime's Miller-Rabin limit; near 10^24 one
    # polynomial, with the prime above p uncached, is a few milliseconds
    genus.factor_rational_prime.cache_clear()
    t0 = time.perf_counter()
    period_polynomial(NEAR_1E24)  # raises unless certified irreducible
    assert time.perf_counter() - t0 < 0.5


def test_discriminant_for_eleven_is_exactly_p4():
    assert discriminant(period_polynomial(11)) == 11**4


def test_period_polynomial_rejects_bad_inputs():
    with pytest.raises(InputError):
        period_polynomial(7)
    with pytest.raises(InputError):
        period_polynomial(55)


def test_absolute_genus_counts():
    assert absolute_genus(classify(95)) == []
    assert absolute_genus(classify(11)) == [{"p": 11, "coefficients": ["1", "3", "-3", "-4", "1", "1"]}]
    assert [c["p"] for c in absolute_genus(classify(341))] == [11, 31]  # 11 * 31
    report = build_genus_report(classify(341))
    assert (report["r"], report["genus_number"]) == (2, 25)


def test_ramified_prime_counts():
    assert count_ramified_d(classify(95)) == 3  # two primes above 19 plus lambda
    assert count_ramified_d(classify(57)) == 3  # two above 19, inert 3; lambda unramified
    assert count_ramified_d(classify(149)) == 2


def test_qstar_inference():
    for n, q in ((95, 1), (57, 1), (149, 2)):
        form = classify(n)
        assert infer_qstar(form, count_ramified_d(form)) == q


def test_qstar_rejects_unclassified_radicands():
    with pytest.raises(InputError):
        infer_qstar(classify(6), count_ramified_d(classify(6)))


def test_qstar_out_of_range_is_reported():
    # q* = 4 - d under the rank-1 hypothesis; d = 5 would put it at -1
    with pytest.raises(QstarOutOfRange, match=r"q\* = -1 for n = 95 \(d = 5, assumed rank 1\)"):
        infer_qstar(classify(95), 5)


def _exponents(g):
    """(a, a1, ...) of a relative candidate document."""
    return (g["lambda_exp"], *(q["exponent"] for q in g["primes"]))


def _read_back(g):
    """lambda^a * prod(pi^k) of a relative candidate document, each power from scratch."""
    w = LAMBDA ** g["lambda_exp"]
    for q in g["primes"]:
        w = w * CycInt.from_json(q["pi"]) ** q["exponent"]
    return w


def test_relative_genus_form_one_shape():
    gens = relative_genus(classify(95))
    assert len(gens) == 16  # one representative per Kummer class
    for g in gens:
        assert g["lambda_exp"] in (1, 2, 3, 4)
        assert len(g["primes"]) == 2
        assert all(q["p"] == 19 for q in g["primes"])
        assert CycInt.from_json(g["w"]) == _read_back(g)


def test_relative_genus_form_two_shape():
    gens = relative_genus(classify(57))
    assert gens
    for g in gens:
        assert g["lambda_exp"] == 0
        q0, q1 = g["primes"]
        assert q0["p"] == 3 and q0["exponent"] == 1
        assert q1["p"] == 19 and 1 <= q1["exponent"] <= 4
        assert hyperprimary_class(CycInt.from_json(g["w"])) is not None


def test_relative_genus_form_three_shape():
    gens = relative_genus(classify(149))
    assert gens  # at least one admissible generator exists
    exps = [_exponents(g) for g in gens]
    assert exps == sorted(exps)
    for g in gens:
        assert g["lambda_exp"] == 0
        assert all(q["p"] == 149 for q in g["primes"])
        assert hyperprimary_class(CycInt.from_json(g["w"])) is not None


def test_relative_genus_classes_are_kummer_inequivalent():
    gens = relative_genus(classify(149))
    tuples = {_exponents(g) for g in gens}
    for t in tuples:
        for j in (2, 3, 4):
            multiplied = tuple(x * j % 5 for x in t)
            assert multiplied not in tuples or multiplied == t


def test_relative_genus_sorts_the_kept_candidates(monkeypatch):
    # Form II candidates are built pi1's four first, so a kept q*pi1^3 comes
    # before a kept q*pi2 unless the list is sorted on (a, *k)
    q = factor_rational_prime(3)[0].element
    pi1, pi2 = (primary_normalize(p).element for p in factor_rational_prime(19))
    kept = {q * pi1**3, q * pi2}
    monkeypatch.setattr(genus, "hyperprimary_class", lambda w: 0 if w in kept else None)
    gens = relative_genus(classify(57))
    assert [_exponents(g) for g in gens] == [(0, 1, 1), (0, 1, 3)]
    assert [CycInt.from_json(g["primes"][1]["pi"]) for g in gens] == [pi2, pi1]


def test_relative_genus_rejects_unclassified():
    with pytest.raises(InputError):
        relative_genus(classify(6))


def _realize(lambda_exp, prime_exps):
    """lambda^a * prod(pi^k), each power from scratch."""
    w = LAMBDA**lambda_exp
    for q, k in prime_exps:
        w = w * q.element**k
    return w


def _class_representatives(length):
    """Exponent tuples in 1..4 that are the least of their j-multiples, j in 1..4."""
    return [e for e in product(range(1, 5), repeat=length)
            if e == min(tuple(x * j % 5 for x in e) for j in range(1, 5))]


def relative_genus_oracle(form):
    """relative_genus as a loop that realizes and writes every candidate from scratch."""
    pis = tuple(primary_normalize(q) for q in factor_rational_prime(form.p))
    if form.verdict is Verdict.FORM_I:
        candidates = [(a, ((pis[0], a1), (pis[1], a2))) for a, a1, a2 in _class_representatives(3)]
    elif form.verdict is Verdict.FORM_II:
        q_inert = factor_rational_prime(form.q)[0]
        candidates = [(0, ((q_inert, 1), (pi, a))) for pi in pis for a in range(1, 5)]
    else:
        candidates = [(0, ((pis[0], a1), (pis[1], a2))) for a1, a2 in _class_representatives(2)]
    out = []
    for lambda_exp, pe in candidates:
        w = _realize(lambda_exp, pe)
        if lambda_exp or hyperprimary_class(w) is not None:
            primes = [{"p": q.p, "pi": [str(x) for x in q.element.c], "f": q.f, "e": q.e, "exponent": k}
                      for q, k in pe]
            out.append({"lambda_exp": lambda_exp, "primes": primes, "w": [str(x) for x in w.c]})
    return sorted(out, key=_exponents)


def test_relative_genus_matches_the_oracle_on_every_family_member_below_10_4():
    forms = [f for f in enumerate_radicands(2, 10**4) if f.verdict is not Verdict.NONE]
    assert {f.verdict for f in forms} == {Verdict.FORM_I, Verdict.FORM_II, Verdict.FORM_III}
    for form in forms:
        assert relative_genus(form) == relative_genus_oracle(form), form.n


def test_relative_genus_matches_the_oracle_on_the_benchmark_report_radicands():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(gen)
        ops = list(islice(gen.report_ops(7), 150))
    finally:
        del sys.modules[spec.name]
    for op in ops:
        form = classify(op.n)
        assert form.verdict.value == op.family
        assert relative_genus(form) == relative_genus_oracle(form), op.n


def test_genus_report_for_149():
    rep = build_genus_report(classify(149))
    assert rep["d"] == 2 and rep["qstar_inferred"] == 2 and rep["rank_value"] == 1
    assert rep["genus_number"] == 1


def test_genus_report_for_unclassified_n():
    rep = build_genus_report(classify(6))
    assert rep["qstar_inferred"] is None and rep["relative_candidates"] == []


def test_corollary_r0_distinct():
    rep = corollary_report(classify(95), 5)
    assert rep["r"] == 0 and rep["five_divides_exactly"]
    assert "distinct" in rep["statements"][1]


def test_corollary_r1_coincidence():
    rep = corollary_report(classify(11), 5)
    assert rep["r"] == 1
    assert "Gamma* = Gamma_5(1)" in rep["statements"][0]
    assert "coincide" in rep["statements"][1]


def test_corollary_contradiction_witness():
    with pytest.raises(ContradictionWitness, match="r = 2 primes"):
        corollary_report(classify(341), 5)


def test_corollary_without_exact_divisibility_draws_no_conclusion():
    rep = corollary_report(classify(341), 25)
    assert rep["five_divides_exactly"] is False
    rep = corollary_report(classify(341), 7)
    assert rep["five_divides_exactly"] is False


def test_class_number_table_parsing(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# class numbers\n11,5\n95 , 5  # inline comment\n\n341,25\n")
    table = load_class_number_table(path)
    assert table == {11: 5, 95: 5, 341: 25}
    bad = tmp_path / "bad.csv"
    bad.write_text("11\n")
    with pytest.raises(InputError):
        load_class_number_table(bad)


@pytest.mark.parametrize("text, lineno", [
    ("11,5\n# again\n11,25\n", 3),  # a second line for the same n
    ("11,5\n0,5\n", 2),  # n below 2, which no command can ask for
    ("-3,5\n", 1),
])
def test_class_number_table_refuses_a_repeated_or_impossible_n(tmp_path, text, lineno):
    path = tmp_path / "h.csv"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        load_class_number_table(path)
    assert str(exc.value).startswith(f"{path}:{lineno}: ")
