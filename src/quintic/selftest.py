"""Self-test harness: every oracle-equivalence and invariant suite in one place.

Each suite returns the number of checks it ran and a list of failure
descriptions; the CLI turns nonempty failure lists into a nonzero exit.
Each suite takes its limits as keyword parameters. The defaults are what
``quintic selftest`` runs; the acceptance tests call the same suites with
larger limits, so no oracle comparison is written both here and in them.
An exception a suite does not expect propagates, and the CLI reports its
error code.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from itertools import count

from . import classgroup, cyclo, genus, primes, radicand, symbols
from .cyclo import CycInt
from .errors import NoPrimaryAssociate, NotCoprime
from .intarith import primitive_root, sieve_primes
from .primes import CycPrime, factor_rational_prime


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def note(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_ring(seed: int = 20240501, pairs: int = 2000) -> SuiteResult:
    res = SuiteResult("ring")
    rng = random.Random(seed)

    def rnd():
        return CycInt(tuple(rng.randrange(-(1 << 128), (1 << 128) + 1) for _ in range(4)))

    def primary(fn, q):
        try:
            return fn(q).element
        except NoPrimaryAssociate:
            return None

    pis = [q for p in sieve_primes(1000) if p != 5 for q in factor_rational_prime(p)]
    for i in range(pairs):
        a, b = rnd(), rnd()
        res.note(cyclo.norm(a * b) == cyclo.norm(a) * cyclo.norm(b), f"norm mult {a!r} {b!r}")
        if b:
            q, r = cyclo.euclid_divmod(a, b)
            res.note(a == q * b + r and cyclo.norm(r) < cyclo.norm(b), f"euclid {a!r} {b!r}")
        t = rng.randrange(4)
        res.note(cyclo.norm(cyclo.galois_apply(t, a)) == cyclo.norm(a), f"galois norm {a!r}")
        res.note(cyclo.norm(a) == cyclo.brute_force_norm(a), f"norm oracle {a!r}")
        # every other element is = a0 mod 5, the only case where it can be hyperprimary
        h = a if i % 2 else CycInt((a.c[0], 5 * a.c[1], 5 * a.c[2], 5 * a.c[3]))
        if h:
            got = cyclo.hyperprimary_class(h)
            res.note(got == cyclo.brute_force_hyperprimary_class(h), f"hyperprimary oracle {h!r}")
        # a random associate of a prime: sign * zeta^j * epsilon^(+-m) * pi
        pi = pis[rng.randrange(len(pis))]
        eps = cyclo.EPSILON if rng.randrange(2) else cyclo.EPSILON - 1
        u = eps ** rng.randrange(9) * cyclo.ZETA ** rng.randrange(5) * rng.choice((1, -1))
        q = CycPrime(pi.p, u * pi.element)
        res.note(
            primary(primes.primary_normalize, q) == primary(primes.brute_force_primary_normalize, q),
            f"primary oracle {q.element!r}",
        )
    for n in range(1, 500):
        if n % 5 == 0:
            continue
        want = n % 25 in (1, 7, 18, 24)
        got = cyclo.hyperprimary_class(CycInt(n)) is not None
        res.note(got == want, f"hyperprimary criterion at {n}")
        res.note((pow(n, 4, 25) == 1) == want, f"fourth-power criterion at {n}")
    return res


def _suite_splitting(limit: int = 2000) -> SuiteResult:
    res = SuiteResult("splitting")
    for p in sieve_primes(limit):
        qs = factor_rational_prime(p)
        e, f, g = qs[0].e, qs[0].f, len(qs)
        res.note(e * f * g == 4, f"efg at {p}")
        prod = CycInt(1)
        for q in qs:
            res.note(cyclo.norm(q.element) == p**q.f, f"norm at {p}")
            prod = prod * q.element**q.e
        unit = cyclo.exact_div(CycInt(p), prod)
        res.note(cyclo.norm(unit) == 1, f"unit cofactor at {p}")
        order = 1 if p == 5 else next(k for k in (1, 2, 4) if pow(p, k, 5) == 1)
        want = (4, 1, 1) if p == 5 else (1, order, 4 // order)
        res.note((e, f, g) == want, f"pattern at {p}")
    return res


def _suite_symbols(limit: int = 42, triples: int = 200) -> SuiteResult:
    res = SuiteResult("symbols")
    for p in [p for p in sieve_primes(limit) if p % 5 in (1, 4)]:
        for q in factor_rational_prime(p):
            rf = symbols.residue_field(q)
            if rf.f == 1:
                elems = [CycInt(a) for a in range(1, p)]
            else:
                elems = [
                    CycInt((u0, u1, 0, 0))
                    for u0 in range(p)
                    for u1 in range(p)
                    if u0 or u1
                ]
            zeros = 0
            for a in elems:
                s = symbols.quintic_symbol(a, q)
                res.note(s == symbols.brute_force_symbol(a, q), f"oracle {p} {a!r}")
                zeros += s == 0
            res.note(zeros == (rf.order() - 1) // 5, f"fifth-power count above {p}")
    # classgroup.generator_certificate reads the symbol of a rational integer
    # prime to p at a prime above p = 4 mod 5 as 0: seeded p in (100, 10^4),
    # a = 5 and a seeded a in [2, 100)
    seeded = random.Random(2718)
    nonzero = [(a, p) for p in seeded.sample([p for p in sieve_primes(10**4) if p > 100 and p % 5 == 4], 8)
               for a in (5, seeded.randrange(2, 100)) if symbols.quintic_symbol(CycInt(a), factor_rational_prime(p)[0])]
    res.note(not nonzero, f"rational integers with a nonzero symbol at degree-2 primes: {nonzero}")
    # one fixed seed: a shorter run draws a prefix of a longer run's triples
    rng = random.Random(31415)
    pool = factor_rational_prime(11) + factor_rational_prime(19) + factor_rational_prime(29)
    done = 0
    while done < triples:
        q = pool[rng.randrange(len(pool))]
        a = CycInt(tuple(rng.randrange(-100, 101) for _ in range(4)))
        b = CycInt(tuple(rng.randrange(-100, 101) for _ in range(4)))
        try:
            sa = symbols.quintic_symbol(a, q)
            sb = symbols.quintic_symbol(b, q)
        except NotCoprime:
            continue
        res.note(symbols.quintic_symbol(a * b, q) == (sa + sb) % 5, f"multiplicativity above {q.p}")
        done += 1
    return res


def _suite_periods(limit: int = 100) -> SuiteResult:
    res = SuiteResult("periods")
    pp = genus.period_polynomial(11)
    res.note(pp == (1, 3, -3, -4, 1, 1), "frozen p=11 polynomial")
    res.note(genus.discriminant(pp) == 11**4, "p=11 discriminant")
    for p in [p for p in sieve_primes(limit) if p % 5 == 1]:
        poly = genus.period_polynomial(p)
        res.note(poly[4] == 1, f"trace at {p}")
        g0 = primitive_root(p)
        res.note(
            genus.brute_force_period_coefficients(p, g0) == poly,
            f"expansion oracle at {p}",
        )
        # the O(p) count of the cyclotomic numbers, from a second primitive
        # root g0^k, k the least integer above 1 coprime to p - 1
        g1 = pow(g0, next(k for k in count(2) if math.gcd(k, p - 1) == 1), p)
        cyc = genus.brute_force_cyclotomic_numbers(p, g1)
        res.note(genus.period_coefficients(p, cyc) == poly, f"walk oracle at {p}")
        # the p-part is exactly p^4 (the field discriminant); the cofactor is
        # the square of the period-order index, coprime to p
        d, r = divmod(abs(genus.discriminant(poly)), p**4)
        s = math.isqrt(d)
        res.note(r == 0 and s * s == d and math.gcd(s, p) == 1, f"discriminant shape at {p}")
    return res


def _suite_classifier(limit: int = 20000) -> SuiteResult:
    """classify against crosscheck_verdicts per n; enumerate_radicands, which sieves, against
    classify; and the rows enumerate writes from a compact ledger against the form's own."""
    res = SuiteResult("classifier")
    listed = radicand.enumerate_radicands(2, limit)
    for n in range(2, limit + 1):
        if not radicand.is_fifth_power_free(n):
            continue
        form = radicand.classify(n)
        matches = radicand.crosscheck_verdicts(n)
        res.note(len(matches) <= 1, f"exclusivity at {n}")
        res.note(form.verdict.value == (matches[0] if matches else "none"), f"oracle at {n}")
        other = next(listed, None)
        res.note(other == form and other.factorization == form.factorization, f"enumerate_radicands at {n}")
        ledger = radicand.classify_factored(n, form.factorization)
        res.note(radicand.ledger_json(n, ledger) == form.json_line()
                 and radicand.ledger_csv(n, ledger) == form.csv_row(), f"row text at {n}")
    return res


def _suite_capitulation() -> SuiteResult:
    res = SuiteResult("capitulation")
    for name, ok in classgroup.model_survey().items():
        res.note(ok, name)
    types = classgroup.enumerate_capitulation_types()
    res.note(types == classgroup.EXPECTED_CAPITULATION_TYPES, "capitulation types")
    m = classgroup.canonical_model()
    res.note(classgroup.plus_eigenline(m) == classgroup.ambiguous_subgroup(m), "canonical plus eigenline")
    perm = classgroup.tau2_permutation(m)
    moved = [i for i, j in enumerate(perm, 1) if i != j]
    res.note(all(perm[j - 1] == i for i, j in enumerate(perm, 1)) and moved == [3, 4, 5, 6], "tau2 involution")
    lines = classgroup.build_lattice(m)
    subgroups = [
        {"label": f"H{i}", "line": list(v), "field": field}
        for i, (v, field) in enumerate(zip(lines, classgroup.FIELD_NAMES, strict=True), 1)
    ]
    # every report serves the same three lists, so one must leave them as they were
    from .cli import report  # imported here: cli imports this module

    report.callback(n=149, h_gamma=None, table=None, out=os.devnull)
    res.note(classgroup.ADMISSIBLE_TYPES == [list(t) for t in types], "served admissible types")
    res.note(
        classgroup.CANONICAL_LATTICE == lines and classgroup.CANONICAL_SUBGROUPS == subgroups,
        "served subgroup lattice",
    )
    res.note(classgroup.CANONICAL_TAU2 == perm and classgroup.TAU2_PERMUTATION == list(perm), "served tau2 permutation")
    return res


SUITES = {
    "ring": _suite_ring,
    "splitting": _suite_splitting,
    "symbols": _suite_symbols,
    "periods": _suite_periods,
    "classifier": _suite_classifier,
    "capitulation": _suite_capitulation,
}


def run(names=None) -> list[SuiteResult]:
    selected = SUITES if names is None else {n: SUITES[n] for n in names}
    return [fn() for fn in selected.values()]
