import dataclasses
import json
import random

import pytest
import sympy

from quintic import radicand
from quintic.errors import BoundExceeded, FactorizationError, InputError, NotFifthPowerFree
from quintic.intarith import CERTIFIED_BELOW, iroot, sieve_primes
from quintic.radicand import (
    CHECK_NAMES,
    VERDICT_MOD_25,
    Verdict,
    classify,
    crosscheck_verdicts,
    enumerate_radicands,
    is_fifth_power_free,
)
from test_cli import csv_row_from_dict


def test_fifth_power_free():
    assert is_fifth_power_free(32) is False
    assert is_fifth_power_free(95) is True
    assert is_fifth_power_free(16) is True
    assert is_fifth_power_free(2**5 * 3) is False
    assert is_fifth_power_free(3**10) is False


def test_95_is_form_one():
    form = classify(95)
    assert form.verdict is Verdict.FORM_I
    assert (form.e, form.p, form.q) == (1, 19, None)
    assert 95 % 25 == 20 and 19 % 5 == 4 and 19 % 25 != 24


def test_57_is_form_two():
    form = classify(57)
    assert form.verdict is Verdict.FORM_II
    assert (form.e, form.p, form.q) == (1, 19, 3)
    assert 57 % 25 == 7 and 3 % 5 == 3 and 3 % 25 not in (7, 18)


def test_149_is_form_three():
    form = classify(149)
    assert form.verdict is Verdict.FORM_III
    assert (form.e, form.p) == (1, 149)
    assert 149 % 25 == 24


def test_2_is_unclassified_with_a_full_ledger():
    form = classify(2)
    assert form.verdict is Verdict.NONE
    assert [c["name"] for c in form.to_json()["checks"]] == list(CHECK_NAMES)


def test_every_formless_verdict_keeps_the_ledger():
    for n in (6, 10, 31, 44, 95, 57, 149):
        form = classify(n)
        assert len(form.checks) == len(CHECK_NAMES)
        for row in form.checks:
            assert type(row) is tuple and len(row) == 2, (n, row)
            assert type(row[0]) is bool and type(row[1]) is str, (n, row)


def test_classify_rejects_fifth_powers():
    with pytest.raises(NotFifthPowerFree):
        classify(32)


def test_classify_rejects_tiny_inputs():
    with pytest.raises(InputError):
        classify(1)


def test_prime_1_mod_5_forces_none():
    for n in (11, 22, 31, 11 * 19, 5 * 11):
        assert classify(n).verdict is Verdict.NONE


def test_higher_exponent_forms():
    # 5^2 * 19 = 475: still form I with e = 2
    form = classify(475)
    assert form.verdict is Verdict.FORM_I and form.e == 2
    # 19^2 * 3 = 1083 = 8 mod 25: fails the hyperprimary requirement of form II
    assert classify(1083).verdict is Verdict.NONE


def test_enumerate_form_one_contains_95():
    assert 95 in [form.n for form in enumerate_radicands(2, 100, Verdict.FORM_I)]


def test_enumerate_form_two_contains_57():
    assert 57 in [form.n for form in enumerate_radicands(2, 60, Verdict.FORM_II)]


def test_enumerate_small_range_is_all_none():
    assert all(f.verdict is Verdict.NONE for f in enumerate_radicands(2, 10))


def test_enumerate_skips_non_fifth_power_free():
    ns = [form.n for form in enumerate_radicands(2, 100)]
    assert 32 not in ns and 64 not in ns and 96 not in ns
    assert ns == sorted(ns)


def test_enumerate_rejects_bad_ranges():
    with pytest.raises(InputError):
        list(enumerate_radicands(100, 2))
    with pytest.raises(InputError):
        list(enumerate_radicands(0, 10))


def test_enumerate_skips_a_fifth_power_with_an_uncertifiable_cofactor():
    n = 2**5 * 1000003 * 1000033
    assert list(enumerate_radicands(n - 1, n + 1)) == [classify(m) for m in (n - 1, n + 1)]


def test_enumerate_raises_on_a_fifth_power_free_uncertifiable_n():
    n = 1000003 * 1000033
    with pytest.raises(FactorizationError, match=f"cofactor {n} of {n} is composite"):
        list(enumerate_radicands(n, n))


@pytest.mark.parametrize("verdict", list(Verdict))
def test_a_filtered_window_still_raises_on_an_uncertifiable_n(verdict):
    # n = 24 mod 25 is outside the classes of Forms I and II, but factorize can
    # fail at n, so the residue test must not skip it
    n = 1000003 * 1000033
    with pytest.raises(FactorizationError, match=f"cofactor {n} of {n} is composite"):
        list(enumerate_radicands(n, n, verdict))


@pytest.mark.parametrize("lo, hi", [(2, 3 * 10**4), (10**12, 10**12 + 10**4)])
def test_filtered_enumeration_equals_the_filtered_rows_of_the_unfiltered_one(lo, hi):
    # oracle for the residue skip: the unfiltered path factors and classifies every n
    rows = list(enumerate_radicands(lo, hi))
    for verdict in Verdict:
        want = [form for form in rows if form.verdict is verdict]
        assert want and list(enumerate_radicands(lo, hi, verdict)) == want, verdict


def _enumerated_as_before(lo, hi, verdict=None):
    """Oracle for enumerate_radicands: classify per n, fifth powers skipped, and
    is_fifth_power_free deciding each refusal. (forms, None), or the forms before
    the error that ends the window and (its type, its message)."""
    forms = []
    for n in range(lo, hi + 1):
        try:
            form = classify(n)
        except NotFifthPowerFree:
            continue
        except (FactorizationError, BoundExceeded) as exc:
            if is_fifth_power_free(n):
                return forms, (type(exc), str(exc))
            continue
        if verdict is None or form.verdict is verdict:
            forms.append(form)
    return forms, None


def _enumerated(lo, hi):
    forms = []
    try:
        forms.extend(enumerate_radicands(lo, hi))
    except (FactorizationError, BoundExceeded) as exc:
        return forms, (type(exc), str(exc))
    return forms, None


def _with_factorizations(forms):
    # RadicandForm equality leaves the factorization out; the dicts and their key order count here
    return [(form, list(form.factorization.items())) for form in forms]


@pytest.fixture
def sieved(monkeypatch):
    """The windows enumerate_radicands hands to factorize_window, in order."""
    calls = []
    real = radicand.factorize_window
    monkeypatch.setattr(radicand, "factorize_window", lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


@pytest.mark.parametrize("root, inside", [(128, True), (129, False)])
def test_a_window_is_sieved_up_to_the_sieve_ratio(sieved, root, inside):
    # 16-wide windows ending at root^2: isqrt(hi) = root against SIEVE_RATIO * 16 = 128
    assert radicand.SIEVE_RATIO * 16 == 128
    lo, hi = root**2 - 15, root**2
    got = list(enumerate_radicands(lo, hi))
    assert sieved == ([(lo, hi)] if inside else [])
    assert _with_factorizations(got) == _with_factorizations(_enumerated_as_before(lo, hi)[0])


@pytest.mark.parametrize("verdict", [None, *Verdict])
def test_only_a_window_without_a_residue_skip_is_sieved(sieved, verdict):
    lo, hi = 10**5, 10**5 + 255
    got = list(enumerate_radicands(lo, hi, verdict))
    assert sieved == ([(lo, hi)] if verdict in (None, Verdict.NONE) else [])
    assert _with_factorizations(got) == _with_factorizations(_enumerated_as_before(lo, hi, verdict)[0])


def test_only_a_window_below_certified_below_is_sieved(sieved, monkeypatch):
    # a ratio that lets 128-wide windows near 10^12 pass the first part of the rule
    monkeypatch.setattr(radicand, "SIEVE_RATIO", 10**4)
    lo, hi = CERTIFIED_BELOW - 128, CERTIFIED_BELOW - 1
    got = list(enumerate_radicands(lo, hi))
    assert sieved == [(lo, hi)]
    assert _with_factorizations(got) == _with_factorizations(_enumerated_as_before(lo, hi)[0])
    # one further: CERTIFIED_BELOW itself is in the window, and is refused n by n
    with pytest.raises(FactorizationError, match=f"cofactor {CERTIFIED_BELOW} of {CERTIFIED_BELOW}"):
        list(enumerate_radicands(lo + 1, hi + 1))
    assert sieved == [(lo, hi)]


def test_a_wide_range_is_sieved_one_window_at_a_time(sieved):
    got = list(enumerate_radicands(2, 1000))
    assert sieved == [(2, 257), (258, 513), (514, 769), (770, 1000)]
    assert _with_factorizations(got) == _with_factorizations(_enumerated_as_before(2, 1000)[0])


_P, _Q = 1000003, 1000033  # the two least primes above 10^6


def _refused_cases():
    """(n, fifth-power-free by construction) for seeded n = s * m that factorize refuses."""
    rng = random.Random(3636)
    primes = [sympy.nextprime(rng.randrange(2 * 10**12, 10**13)) for _ in range(6)]
    semiprimes = [p * q for p, q in zip(primes[::2], primes[1::2])]
    assert all(3317044064679887385961981 < m < 10**26 for m in semiprimes)  # above psi13
    cases = [(7 * _P**5, False), (2**4 * 3**4 * _P**5, False), (2**5 * 3 * _P**5, False),
             (11 * _P**5 * _Q, False), (2**3 * _P**5 * _Q, False)]
    cases += [(s * m, True) for s, m in zip((1, 6, 2**4 * 3), semiprimes)]
    cases += [(3**5 * semiprimes[0], False), (_P * _Q, True), (19 * _P**2, True)]
    return cases


def test_a_refusal_is_decided_as_is_fifth_power_free_decides_it():
    for n, free in _refused_cases():
        with pytest.raises((FactorizationError, BoundExceeded)) as refusal:
            classify(n)
        assert radicand._refusal_stands(*refusal.value.split) is free is is_fifth_power_free(n), n


_R = 10000019  # the least prime above 10^7, some 600 blocks of primes past _P


@pytest.mark.parametrize("m, free, finishes", [
    pytest.param(sympy.prevprime(10**18) ** 2, True, False, id="semiprime-below-1e36"),
    pytest.param(sympy.prevprime(15848932) ** 5, False, False, id="largest-P5-below-1e36"),
    pytest.param(sympy.nextprime(10**18) ** 2, True, False, id="semiprime-above-1e36"),
    pytest.param(_P**5 * _Q, False, True, id="P5-Q"),
    pytest.param(_P**5 * _R, False, True, id="P5-R"),
    pytest.param(_R**5 * _Q, False, False, id="R5-Q"),
    pytest.param(_P**4 * sympy.nextprime(10**13), True, False, id="P4-prime"),
    pytest.param(sympy.nextprime(15848931) ** 5, False, False, id="P5-at-the-root"),
])
def test_a_rest_from_1e36_on_is_decided_by_block_gcds(monkeypatch, m, free, finishes):
    # every prime factor of m is above 10^6, and free says by construction
    # whether a fifth power divides it; is_fifth_power_free finishes only when
    # it meets _P, its least k with k^5 | m, after about 10^6 steps
    assert sympy.integer_nthroot(10**36, 5) == (15848931, False)
    calls = []
    blocks = radicand.prime_blocks
    monkeypatch.setattr(radicand, "prime_blocks", lambda lo, hi: calls.append((lo, hi)) or blocks(lo, hi))
    for s in (1, 2 * 3**4):
        with pytest.raises((FactorizationError, BoundExceeded)) as refusal:
            classify(s * m)
        assert radicand._refusal_stands(*refusal.value.split) is free
    assert calls == ([(10**6, iroot(m, 5))] * 2 if m >= 10**36 else [])
    if finishes:
        assert is_fifth_power_free(m) is free


def test_a_rest_whose_fifth_root_reaches_certified_below_stands_undecided(monkeypatch):
    # 10^70 + 7 = 1621 * m: a P^5 | m could have P up to m^(1/5), some 2*10^13,
    # past the primes that prime_blocks sieves, so the error stands at once
    n = 10**70 + 7
    calls = []
    blocks = radicand.prime_blocks
    monkeypatch.setattr(radicand, "prime_blocks", lambda lo, hi: calls.append((lo, hi)) or blocks(lo, hi))
    with pytest.raises(BoundExceeded) as refusal:
        list(enumerate_radicands(n, n))
    smooth, m = refusal.value.split
    assert smooth == {1621: 1} and 1621 * m == n and iroot(m, 5) >= CERTIFIED_BELOW
    assert calls == []


@pytest.mark.parametrize("lo, hi", [
    (7 * _P**5, 7 * _P**5), (11 * _P**5 * _Q, 11 * _P**5 * _Q), (2**5 * _P * _Q - 2, 2**5 * _P * _Q + 2),
    (6 * _P**5 - 1, 6 * _P**5 + 1),
])
def test_a_window_with_refused_n_enumerates_as_before(lo, hi):
    assert _enumerated(lo, hi) == _enumerated_as_before(lo, hi)


#: the families of the ledger, read by the name prefixes of CHECK_NAMES
_FAMILY_PREFIXES = {"form1-": Verdict.FORM_I, "form2-": Verdict.FORM_II, "form3-": Verdict.FORM_III}


def _families_whose_rows_all_pass(form):
    passed = {verdict: True for verdict in _FAMILY_PREFIXES.values()}
    for name, (ok, _) in zip(CHECK_NAMES, form.checks, strict=True):
        verdict = _FAMILY_PREFIXES.get(name[:6])
        if verdict is not None:
            passed[verdict] = passed[verdict] and ok
    return [verdict for verdict, ok in passed.items() if ok]


@pytest.mark.parametrize("lo, hi", [(2, 2 * 10**4), (10**12, 10**12 + 2000)])
def test_the_verdict_is_the_one_family_whose_ledger_rows_all_pass(lo, hi):
    verdicts = set()
    for form in enumerate_radicands(lo, hi):
        families = _families_whose_rows_all_pass(form)
        assert len(families) <= 1, form.n
        assert form.verdict is (families[0] if families else Verdict.NONE), form.n
        verdicts.add(form.verdict)
    assert verdicts == set(Verdict)


#: the least prime in each of the 20 unit classes mod 25; the rows below read p, q and n
#: only mod 25, so one prime per class covers every case of a statement mod 25
_LEAST_PRIME_MOD_25 = {p % 25: p for p in reversed(sieve_primes(1000)) if p != 5}


def _passes(form, name):
    return form.checks[CHECK_NAMES.index(name)][0]


def test_the_form2_rows_on_p_and_q_mod_25_agree_under_the_form2_shape():
    # n = p^e * q with p = 4 mod 5, q = +-2 mod 5 and n = +-1,+-7 mod 25:
    # p = 24 mod 25 exactly when q = +-7 mod 25
    assert len(_LEAST_PRIME_MOD_25) == 20
    seen = set()
    for p in (p for r, p in _LEAST_PRIME_MOD_25.items() if r % 5 == 4):
        for q in (q for r, q in _LEAST_PRIME_MOD_25.items() if r % 5 in (2, 3)):
            for e in range(1, 5):
                form = classify(p**e * q)
                assert _passes(form, "form2-shape-pe-q")
                if _passes(form, "form2-n-pm1pm7-mod-25"):
                    p_row = _passes(form, "form2-p-not-24-mod-25")
                    assert p_row == _passes(form, "form2-q-not-pm7-mod-25"), (p, e, q)
                    seen.add(p_row)
    assert seen == {False, True}


def test_the_form1_row_on_n_mod_25_passes_under_the_form1_shape():
    # n = 5^e * p is 0 mod 5, so never +-1,+-7 mod 25
    for p in _LEAST_PRIME_MOD_25.values():
        for e in range(1, 5):
            form = classify(5**e * p)
            assert _passes(form, "form1-shape-5e-p") and _passes(form, "form1-n-not-pm1pm7-mod-25"), (e, p)


def test_the_form3_row_on_n_mod_25_passes_when_p_is_24_mod_25():
    # n = p^e with p = -1 mod 25 is (-1)^e mod 25
    seen = set()
    for p in _LEAST_PRIME_MOD_25.values():
        for e in range(1, 5):
            form = classify(p**e)
            assert _passes(form, "form3-shape-pe")
            if _passes(form, "form3-p-24-mod-25"):
                assert _passes(form, "form3-n-pm1pm7-mod-25"), (p, e)
                seen.add(p**e % 25)
    assert seen == {1, 24}


def test_every_crosscheck_label_lies_in_its_residue_classes():
    classes = {verdict.value: residues for verdict, residues in VERDICT_MOD_25.items()}
    labelled = [(n, label) for n in range(2, 2 * 10**4 + 1) for label in crosscheck_verdicts(n)]
    assert [(n, label) for n, label in labelled if n % 25 not in classes[label]] == []
    assert {label for _, label in labelled} == classes.keys()


def test_json_shape():
    doc = classify(57).to_json()
    assert doc["n"] == 57 and doc["verdict"] == "II"
    assert doc["e"] == 1 and doc["p"] == 19 and doc["q"] == 3
    assert [c["name"] for c in doc["checks"]] == list(CHECK_NAMES)


def _first_failing_row(form):
    """The family whose shape row passes (None for none), and the name of the first of
    row 0 and that family's rows to fail (None when all pass)."""
    family = next((name[:6] for name, (ok, _) in zip(CHECK_NAMES, form.checks) if "shape" in name and ok), None)
    rows = [(name, ok) for name, (ok, _) in zip(CHECK_NAMES, form.checks)
            if name == CHECK_NAMES[0] or name[:6] == family]
    return family, next((name for name, ok in rows if not ok), None)


def _seeded_prime(rng, lo, mod_5=None):
    """The least prime from a seeded start in [lo, 2 lo), with p % 5 == mod_5 if given."""
    p = sympy.nextprime(rng.randrange(lo, 2 * lo) - 1)
    while mod_5 is not None and p % 5 != mod_5:
        p = sympy.nextprime(p)
    return p


def _one_form_per_first_failing_row_near_1e9():
    """One seeded n in [10^9, 2 * 10^10) per (family shape, first failing row), from
    5^e * p, p^e * q (p = 4 mod 5), p^e and 21 * p with e in 1..4, p and q seeded primes."""
    rng = random.Random(2209)
    found = {}
    for _ in range(150):
        e = rng.randint(1, 4)
        q = _seeded_prime(rng, 100, mod_5=rng.choice((1, 2, 3)))
        for n in (5**e * _seeded_prime(rng, 10**9 // 5**e),
                  _seeded_prime(rng, sympy.integer_nthroot(10**9 // q, e)[0], mod_5=4) ** e * q,
                  _seeded_prime(rng, sympy.integer_nthroot(10**9, e)[0]) ** e,
                  21 * _seeded_prime(rng, 10**9 // 21)):
            form = classify(n)
            found.setdefault(_first_failing_row(form), form)
    return found


def test_the_forms_near_1e9_cover_every_reachable_first_failing_row():
    found = _one_form_per_first_failing_row_near_1e9()
    assert all(10**9 <= form.n < 2 * 10**10 for form in found.values())
    assert set(found) == {
        ("form1-", None), ("form1-", "no-prime-factor-1-mod-5"), ("form1-", "form1-p-4-mod-5"),
        ("form1-", "form1-p-not-24-mod-25"),
        ("form2-", None), ("form2-", "no-prime-factor-1-mod-5"), ("form2-", "form2-n-pm1pm7-mod-25"),
        ("form2-", "form2-p-not-24-mod-25"),
        ("form3-", None), ("form3-", "no-prime-factor-1-mod-5"), ("form3-", "form3-p-24-mod-25"),
        (None, "no-prime-factor-1-mod-5"), (None, None),
    }


def _serializer_forms():
    yield from enumerate_radicands(2, 20000)
    yield from (classify(n) for n in (95, 57, 149))
    yield from enumerate_radicands(10**12, 10**12 + 400, Verdict.FORM_II)
    yield from _one_form_per_first_failing_row_near_1e9().values()


def test_json_line_and_csv_row_match_the_dict_serializers():
    verdicts, large, powers, bad = set(), 0, 0, 0
    for form in _serializer_forms():
        row = form.to_json()
        assert form.json_line() == json.dumps(row, separators=(",", ":")), form.n
        assert form.csv_row() == csv_row_from_dict(row), form.n
        verdicts.add(form.verdict)
        large += form.n > 10**12
        if form.n > 10**9:
            powers += "^" in form.checks[1][1]
            bad += not form.checks[0][0]
    assert verdicts == set(Verdict) and large > 0 and powers > 0 and bad > 0


def test_the_form_keeps_its_factorization_out_of_equality_and_every_format():
    form = classify(95)
    assert form.factorization == {5: 1, 19: 1}
    other = dataclasses.replace(form, factorization={})
    assert other == form and hash(other) == hash(form)
    assert (other.to_json(), other.json_line(), other.csv_row()) == (form.to_json(), form.json_line(), form.csv_row())


def test_a_form_cannot_be_changed():
    form = classify(95)
    for field in dataclasses.fields(form):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(form, field.name, getattr(form, field.name))
    assert form == classify(95) and form.factorization == {5: 1, 19: 1}


def test_json_line_escapes_witnesses_as_json_dumps_does():
    form = classify(57)
    odd = [(passed, 'q "\\ \n\u00e9\U0001d4b3') for passed, _ in form.checks]
    form = dataclasses.replace(form, checks=tuple(odd))
    assert form.json_line() == json.dumps(form.to_json(), separators=(",", ":"))
