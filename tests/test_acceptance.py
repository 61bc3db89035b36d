"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime. Budgets are wall-clock ceilings; every numeric expectation was
computed from an independent oracle before being frozen here.

The oracle comparisons live in ``quintic.selftest``: criteria 1, 2, 3, 4, 6
and 7 run its suites at acceptance limits, larger than the defaults of
``quintic selftest``. What stays here needs sympy, the CLI or a frozen value.
"""

import json
import time

import sympy
from click.testing import CliRunner

from quintic.classgroup import canonical_model, enumerate_capitulation_types, tau2_permutation
from quintic.cli import main
from quintic.genus import count_ramified_d, discriminant, infer_qstar, period_polynomial
from quintic.intarith import sieve_primes
from quintic.radicand import classify, is_fifth_power_free
from quintic.selftest import SUITES, SuiteResult


def _report(number: int, elapsed: float, budget: float, detail: str):
    print(f"criterion {number:2d}: PASS in {elapsed:6.2f}s (budget {budget:g}s) - {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _suite(name: str, **limits) -> SuiteResult:
    res = SUITES[name](**limits)
    assert res.passed, res.failures[:10]
    return res


_classified_cache = None


def classified_up_to_1e5():
    global _classified_cache
    if _classified_cache is None:
        found = []
        for n in range(2, 100001):
            if not is_fifth_power_free(n):
                continue
            form = classify(n)
            if form.verdict.value != "none":
                found.append((n, form))
        _classified_cache = found
    return _classified_cache


def test_criterion_01_ring_correctness():
    t0 = time.perf_counter()
    res = _suite("ring", seed=0xC0FFEE, pairs=10_000)
    _report(1, time.perf_counter() - t0, 10.0,
            f"10000 random pairs, coefficients to 2^128, {res.checks} checks")


def test_criterion_02_prime_splitting():
    t0 = time.perf_counter()
    res = _suite("splitting", limit=10_000)
    _report(2, time.perf_counter() - t0, 60.0, f"every prime below 10^4, {res.checks} checks")


def test_criterion_03_symbol_oracle_equivalence():
    t0 = time.perf_counter()
    res = _suite("symbols", limit=200, triples=1000)
    _report(3, time.perf_counter() - t0, 60.0,
            f"{res.checks} checks: every residue class above the split primes below 200, "
            "1000 multiplicativity triples")


def test_criterion_04_classifier_oracle():
    t0 = time.perf_counter()
    res = _suite("classifier", limit=100_000)
    assert classify(95).verdict.value == "I"
    assert classify(57).verdict.value == "II"
    assert classify(149).verdict.value == "III"
    assert classify(2).verdict.value == "none"
    _report(4, time.perf_counter() - t0, 60.0, f"{res.checks} checks over n <= 10^5")


def test_criterion_05_rank_formula_consistency():
    t0 = time.perf_counter()
    counts = {"I": 0, "II": 0, "III": 0}
    for n, form in classified_up_to_1e5():
        d = count_ramified_d(form)
        q = infer_qstar(form, d)
        if form.verdict.value in ("I", "II"):
            assert d == 3 and q == 1, n
        else:
            assert d == 2 and q == 2, n
        counts[form.verdict.value] += 1
    total = sum(counts.values())
    _report(5, time.perf_counter() - t0, 120.0,
            f"{total} classified radicands (I:{counts['I']} II:{counts['II']} III:{counts['III']})")


def test_criterion_06_gaussian_periods():
    t0 = time.perf_counter()
    res = _suite("periods", limit=1000)
    x = sympy.symbols("x")
    ps = [p for p in sieve_primes(200) if p % 5 == 1]
    for p in ps:
        poly = period_polynomial(p)
        f = sum(c * x**k for k, c in enumerate(poly))
        assert sympy.Poly(f, x).is_irreducible
        assert discriminant(poly) == int(sympy.discriminant(f))
    _report(6, time.perf_counter() - t0, 120.0,
            f"primes below 1000, both primitive roots; sympy on {len(ps)} below 200; "
            f"{res.checks} checks")


def test_criterion_07_class_group_model_suite():
    t0 = time.perf_counter()
    res = _suite("capitulation")
    _report(7, time.perf_counter() - t0, 10.0,
            f"480 valid (S,T) pairs, 24 order-5 matrices, {res.checks} checks")


def test_criterion_08_capitulation_types():
    t0 = time.perf_counter()
    assert enumerate_capitulation_types() == (
        (0, 0, 0, 0, 0, 0),
        (0, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 1),
    )
    _report(8, time.perf_counter() - t0, 1.0, "exactly the four admissible 6-tuples")


def test_criterion_09_tau2_involution_and_warning():
    t0 = time.perf_counter()
    perm = tau2_permutation(canonical_model())
    assert perm[0] == 1 and perm[1] == 2
    assert all(perm[perm[i - 1] - 1] == i for i in range(1, 7))
    assert sorted(i for i in range(1, 7) if perm[i - 1] != i) == [3, 4, 5, 6]
    runner = CliRunner()
    res = runner.invoke(main, ["report", "149"], catch_exceptions=False)
    doc = json.loads(res.output)
    assert any("5-cycle" in w and "involution" in w for w in doc["warnings"])
    _report(9, time.perf_counter() - t0, 1.0, f"permutation {perm}, warning present")


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    runner = CliRunner()
    for args in (["report", "95"], ["report", "149", "--h-gamma", "5"]):
        first = runner.invoke(main, args, catch_exceptions=False).stdout_bytes
        second = runner.invoke(main, args, catch_exceptions=False).stdout_bytes
        assert first == second and first
    outputs = []
    for workers in ("1", "8"):
        run = runner.invoke(
            main, ["enumerate", "2", "3000", "--workers", workers], catch_exceptions=False
        )
        outputs.append(run.stdout_bytes)
    assert outputs[0] == outputs[1] and outputs[0]
    again = runner.invoke(main, ["enumerate", "2", "3000", "--workers", "1"],
                          catch_exceptions=False).stdout_bytes
    assert again == outputs[0]
    _report(10, time.perf_counter() - t0, 120.0,
            "report twice byte-identical; enumerate identical across 1 and 8 workers")
