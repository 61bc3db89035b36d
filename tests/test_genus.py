import cmath
import math
import time

import pytest
import sympy

from quintic.cyclo import hyperprimary_class
from quintic.errors import (
    BoundExceeded,
    ContradictionWitness,
    InputError,
    QstarOutOfRange,
)
from quintic.genus import (
    absolute_genus,
    brute_force_period_coefficients,
    build_genus_report,
    corollary_report,
    count_ramified_d,
    infer_qstar,
    load_class_number_table,
    period_coefficients,
    period_polynomial,
    relative_genus,
)
from quintic.intarith import factorize, is_primitive_root, primitive_root
from quintic.radicand import classify

CAP_PRIME = 99991  # the largest prime = 1 mod 5 under the p <= 100000 cap


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
    assert period_polynomial(11).coefficients == (1, 3, -3, -4, 1, 1)


@pytest.mark.parametrize("p", [11, 31, 41, 61, 71])
def test_numeric_root_oracle(p):
    exact = period_polynomial(p).coefficients
    approx = numeric_period_coefficients(p)
    for k in range(6):
        assert abs(approx[k].real - exact[k]) < 1e-6
        assert abs(approx[k].imag) < 1e-6


# criterion 6 runs these checks at every prime below 1000 (the periods suite,
# and sympy below 200); the three tests here run them at the cap
@pytest.mark.parametrize("p", [CAP_PRIME])
def test_recomputation_with_another_primitive_root(p):
    g0 = primitive_root(p)
    g1 = next(g for g in range(g0 + 1, p) if is_primitive_root(g, p))
    assert period_polynomial(p).coefficients == period_coefficients(p, g1)


@pytest.mark.parametrize("p", [CAP_PRIME])
def test_irreducibility_via_sympy(p):
    x = sympy.symbols("x")
    f = sum(c * x**k for k, c in enumerate(period_polynomial(p).coefficients))
    assert sympy.Poly(f, x).is_irreducible


@pytest.mark.parametrize("p", [CAP_PRIME])
def test_discriminant_is_p4_times_a_coprime_square(p):
    poly = period_polynomial(p)
    x = sympy.symbols("x")
    f = sum(c * x**k for k, c in enumerate(poly.coefficients))
    d = poly.discriminant()
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
    assert period_polynomial(p).coefficients == brute_force_period_coefficients(p, g)


def test_declared_cap_is_reachable_within_budget():
    # root independence, irreducibility and the discriminant at the cap are
    # checked by the tests parametrized over CAP_PRIME above
    t0 = time.perf_counter()
    period_polynomial(CAP_PRIME)  # raises unless certified irreducible
    # generous for the O(p) path; the Theta(p^2) expansion takes tens of minutes
    assert time.perf_counter() - t0 < 5.0


def test_discriminant_for_eleven_is_exactly_p4():
    assert period_polynomial(11).discriminant() == 11**4


def test_period_polynomial_rejects_bad_inputs():
    with pytest.raises(InputError):
        period_polynomial(7)
    with pytest.raises(InputError):
        period_polynomial(55)
    big = next(p for p in range(100001, 100200) if sympy.isprime(p) and p % 5 == 1)
    with pytest.raises(BoundExceeded):
        period_polynomial(big)


def test_absolute_genus_counts():
    ag = absolute_genus(95, factorize(95))
    assert (ag.r, ag.genus_number, ag.components) == (0, 1, ())
    ag = absolute_genus(11, factorize(11))
    assert ag.r == 1 and ag.components[0].p == 11
    ag = absolute_genus(341, factorize(341))  # 11 * 31
    assert (ag.r, ag.genus_number) == (2, 25)
    assert [c.p for c in ag.components] == [11, 31]


def test_ramified_prime_counts():
    assert count_ramified_d(95, factorize(95)) == 3  # two primes above 19 plus lambda
    assert count_ramified_d(57, factorize(57)) == 3  # two above 19, inert 3; lambda unramified
    assert count_ramified_d(149, factorize(149)) == 2


def test_qstar_inference():
    for n, q in ((95, 1), (57, 1), (149, 2)):
        assert infer_qstar(classify(n), count_ramified_d(n, factorize(n))) == q


def test_qstar_rejects_unclassified_radicands():
    with pytest.raises(InputError):
        infer_qstar(classify(6), count_ramified_d(6, factorize(6)))


def test_qstar_out_of_range_is_reported():
    # q* = 4 - d under the rank-1 hypothesis; d = 5 would put it at -1
    with pytest.raises(QstarOutOfRange, match=r"q\* = -1 for n = 95 \(d = 5, assumed rank 1\)"):
        infer_qstar(classify(95), 5)


def test_relative_genus_form_one_shape():
    gens = relative_genus(classify(95))
    assert len(gens) == 16  # one representative per Kummer class
    for g in gens:
        assert g.lambda_exp in (1, 2, 3, 4)
        assert len(g.prime_exps) == 2
        assert all(q.p == 19 for q, _ in g.prime_exps)
        assert g.realization == _realized(g)


def test_relative_genus_form_two_shape():
    gens = relative_genus(classify(57))
    assert gens
    for g in gens:
        assert g.lambda_exp == 0
        (q0, k0), (q1, k1) = g.prime_exps
        assert q0.p == 3 and k0 == 1
        assert q1.p == 19 and 1 <= k1 <= 4
        assert hyperprimary_class(g.realization) is not None


def test_relative_genus_form_three_shape():
    gens = relative_genus(classify(149))
    assert gens  # at least one admissible generator exists
    exps = [g.exponent_tuple() for g in gens]
    assert exps == sorted(exps)
    for g in gens:
        assert g.lambda_exp == 0
        assert all(q.p == 149 for q, _ in g.prime_exps)
        assert hyperprimary_class(g.realization) is not None


def test_relative_genus_classes_are_kummer_inequivalent():
    gens = relative_genus(classify(149))
    tuples = {g.exponent_tuple() for g in gens}
    for t in tuples:
        for j in (2, 3, 4):
            multiplied = tuple(x * j % 5 for x in t)
            assert multiplied not in tuples or multiplied == t


def test_relative_genus_rejects_unclassified():
    with pytest.raises(InputError):
        relative_genus(classify(6))


def _realized(g):
    from quintic.cyclo import LAMBDA

    w = LAMBDA**g.lambda_exp
    for q, k in g.prime_exps:
        w = w * q.element**k
    return w


def test_genus_report_for_149():
    rep = build_genus_report(149, factorize(149))
    assert rep.d == 2 and rep.qstar_inferred == 2 and rep.rank_value == 1
    assert rep.genus_number == 1


def test_genus_report_for_unclassified_n():
    rep = build_genus_report(6, factorize(6))
    assert rep.qstar_inferred is None and rep.relative_candidates == ()


def test_corollary_r0_distinct():
    rep = corollary_report(95, factorize(95), 5)
    assert rep.r == 0 and rep.five_divides_exactly
    assert "distinct" in rep.statements[1]


def test_corollary_r1_coincidence():
    rep = corollary_report(11, factorize(11), 5)
    assert rep.r == 1
    assert "Gamma* = Gamma_5(1)" in rep.statements[0]
    assert "coincide" in rep.statements[1]


def test_corollary_contradiction_witness():
    with pytest.raises(ContradictionWitness, match="r = 2 primes"):
        corollary_report(341, factorize(341), 5)


def test_corollary_without_exact_divisibility_draws_no_conclusion():
    rep = corollary_report(341, factorize(341), 25)
    assert rep.five_divides_exactly is False
    rep = corollary_report(341, factorize(341), 7)
    assert rep.five_divides_exactly is False


def test_class_number_table_parsing(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# class numbers\n11,5\n95 , 5  # inline comment\n\n341,25\n")
    table = load_class_number_table(path)
    assert table == {11: 5, 95: 5, 341: 25}
    bad = tmp_path / "bad.csv"
    bad.write_text("11\n")
    with pytest.raises(InputError):
        load_class_number_table(bad)
