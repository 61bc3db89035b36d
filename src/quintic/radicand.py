"""Classification of radicands n into the three rank-one candidate families.

A fifth-power-free n >= 2 is sorted into one of three shapes (or none):

  Form I    n = 5^e * p,  p = -1 mod 5, p != -1 mod 25, n not +-1,+-7 mod 25
  Form II   n = p^e * q,  n = +-1,+-7 mod 25, p = -1 mod 5, p != -1 mod 25,
                          q = +-2 mod 5, q != +-7 mod 25
  Form III  n = p^e,      p = -1 mod 25 (so n = +-1,+-7 mod 25)

with e in {1,2,3,4} throughout. The congruence class +-1,+-7 mod 25 is the
rational form of the hyperprimary condition mod lambda^5. These conditions
are necessary for the underlying class-group hypothesis, not sufficient, so
verdicts are candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    BoundExceeded,
    FactorizationError,
    InputError,
    InternalCheckError,
    NotFifthPowerFree,
)
from .intarith import factorize

#: residues mod 25 equal to +-1 or +-7 (the rational hyperprimary classes)
HYPER_MOD_25 = frozenset((1, 7, 18, 24))


class Verdict(Enum):
    FORM_I = "I"
    FORM_II = "II"
    FORM_III = "III"
    NONE = "none"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class RadicandForm:
    n: int
    verdict: Verdict
    e: int | None
    p: int | None
    q: int | None
    checks: tuple[Check, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "verdict": self.verdict.value,
            "e": self.e,
            "p": self.p,
            "q": self.q,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


#: fixed check schema, one row per tested condition regardless of verdict
CHECK_NAMES = (
    "no-prime-factor-1-mod-5",
    "form1-shape-5e-p",
    "form1-p-4-mod-5",
    "form1-p-not-24-mod-25",
    "form1-n-not-pm1pm7-mod-25",
    "form2-shape-pe-q",
    "form2-n-pm1pm7-mod-25",
    "form2-p-4-mod-5",
    "form2-p-not-24-mod-25",
    "form2-q-pm2-mod-5",
    "form2-q-not-pm7-mod-25",
    "form3-shape-pe",
    "form3-p-24-mod-25",
    "form3-n-pm1pm7-mod-25",
)


def is_fifth_power_free(n: int) -> bool:
    """True when no fifth power k^5 > 1 divides n."""
    if n < 2:
        raise InputError(f"radicand must be >= 2, got {n}")
    k = 2
    while k**5 <= n:
        if n % k**5 == 0:
            return False
        k += 1
    return True


def radicand_factorization(n: int) -> dict[int, int]:
    """factorize(n) for a radicand, refusing n < 2 first as classify does.

    The commands factor n once through this and pass the result down.
    """
    if n < 2:
        raise InputError(f"radicand must be >= 2, got {n}")
    return factorize(n)


def classify(n: int, *, factorization: dict[int, int] | None = None) -> RadicandForm:
    """Check n against the three family shapes and return the verdict ledger.

    ``factorization``, when given, must be factorize(n); it is not recomputed.
    """
    if n < 2:
        raise InputError(f"radicand must be >= 2, got {n}")
    fac = factorize(n) if factorization is None else factorization
    if any(a >= 5 for a in fac.values()):
        raise NotFifthPowerFree(f"{n} is divisible by a fifth power")

    primes = sorted(fac)
    checks: list[Check] = []
    bad = next((p for p in primes if p % 5 == 1), None)
    checks.append(
        Check(
            "no-prime-factor-1-mod-5",
            bad is None,
            f"{bad} = 1 mod 5 divides n" if bad else "none divides n",
        )
    )
    n25 = n % 25
    hyper = n25 in HYPER_MOD_25
    fac_str = " * ".join(f"{p}^{fac[p]}" if fac[p] > 1 else f"{p}" for p in primes)

    # Form I: n = 5^e * p
    others = [p for p in primes if p != 5]
    shape1 = 5 in fac and 1 <= fac[5] <= 4 and len(others) == 1 and fac[others[0]] == 1
    p1 = others[0] if shape1 else None
    checks.append(Check("form1-shape-5e-p", shape1, f"n = {fac_str}"))
    checks.append(
        Check(
            "form1-p-4-mod-5",
            shape1 and p1 % 5 == 4,
            f"{p1} % 5 = {p1 % 5}" if p1 else "-",
        )
    )
    checks.append(
        Check(
            "form1-p-not-24-mod-25",
            shape1 and p1 % 25 != 24,
            f"{p1} % 25 = {p1 % 25}" if p1 else "-",
        )
    )
    checks.append(Check("form1-n-not-pm1pm7-mod-25", not hyper, f"n % 25 = {n25}"))
    form1 = all(c.passed for c in checks[1:5])

    # Form II: n = p^e * q
    p2 = q2 = None
    shape2 = False
    if 5 not in fac and len(primes) == 2:
        cand_p = [p for p in primes if p % 5 == 4]
        if len(cand_p) == 1:
            pp = cand_p[0]
            qq = next(p for p in primes if p != pp)
            if 1 <= fac[pp] <= 4 and fac[qq] == 1:
                shape2, p2, q2 = True, pp, qq
    checks.append(Check("form2-shape-pe-q", shape2, f"n = {fac_str}"))
    checks.append(Check("form2-n-pm1pm7-mod-25", hyper, f"n % 25 = {n25}"))
    checks.append(
        Check("form2-p-4-mod-5", shape2, f"{p2} % 5 = {p2 % 5}" if p2 else "-")
    )
    checks.append(
        Check(
            "form2-p-not-24-mod-25",
            shape2 and p2 % 25 != 24,
            f"{p2} % 25 = {p2 % 25}" if p2 else "-",
        )
    )
    checks.append(
        Check(
            "form2-q-pm2-mod-5",
            shape2 and q2 % 5 in (2, 3),
            f"{q2} % 5 = {q2 % 5}" if q2 else "-",
        )
    )
    checks.append(
        Check(
            "form2-q-not-pm7-mod-25",
            shape2 and q2 % 25 not in (7, 18),
            f"{q2} % 25 = {q2 % 25}" if q2 else "-",
        )
    )
    form2 = all(c.passed for c in checks[5:11])

    # Form III: n = p^e
    shape3 = len(primes) == 1 and primes[0] != 5 and 1 <= fac[primes[0]] <= 4
    p3 = primes[0] if shape3 else None
    checks.append(Check("form3-shape-pe", shape3, f"n = {fac_str}"))
    checks.append(
        Check(
            "form3-p-24-mod-25",
            shape3 and p3 % 25 == 24,
            f"{p3} % 25 = {p3 % 25}" if p3 else "-",
        )
    )
    checks.append(Check("form3-n-pm1pm7-mod-25", hyper, f"n % 25 = {n25}"))
    form3 = all(c.passed for c in checks[11:14])

    if sum((form1, form2, form3)) > 1:
        raise InternalCheckError(f"n = {n} matched more than one family")
    rows = tuple(checks)
    if form1:
        return RadicandForm(n, Verdict.FORM_I, fac[5], p1, None, rows)
    if form2:
        return RadicandForm(n, Verdict.FORM_II, fac[p2], p2, q2, rows)
    if form3:
        return RadicandForm(n, Verdict.FORM_III, fac[p3], p3, None, rows)
    return RadicandForm(n, Verdict.NONE, None, None, None, rows)


def enumerate_radicands(lo: int, hi: int, verdict: Verdict | None = None):
    """Yield (n, RadicandForm) for fifth-power-free n in [lo, hi], ascending.

    Each n is factored once. An n whose factorization cannot be certified is
    still skipped when a fifth power divides it; otherwise the error stands.
    """
    if not (2 <= lo <= hi):
        raise InputError(f"invalid range [{lo}, {hi}]")
    for n in range(lo, hi + 1):
        try:
            fac = factorize(n)
        except (FactorizationError, BoundExceeded):
            if not is_fifth_power_free(n):
                continue
            raise
        if any(a >= 5 for a in fac.values()):
            continue
        form = classify(n, factorization=fac)
        if verdict is None or form.verdict is verdict:
            yield n, form


def crosscheck_verdicts(n: int) -> tuple[str, ...]:
    """All family labels matching n, recomputed from scratch.

    Deliberately shares nothing with classify(): its own trial division and
    literal restatements of the congruence conditions. Used as the oracle in
    the self-test suite; anything other than a single label (or none) would
    expose a classifier bug.
    """
    m = n
    fac = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = fac.get(m, 0) + 1

    hyper = n % 25 in (1, 7, 18, 24)
    out = []
    items = sorted(fac.items())
    if (
        len(items) == 2
        and items[0][0] == 5
        and items[0][1] <= 4
        and items[1][1] == 1
        and items[1][0] % 5 == 4
        and items[1][0] % 25 != 24
        and not hyper
    ):
        out.append("I")
    if len(items) == 2 and items[0][0] != 5 and items[1][0] != 5 and hyper:
        for (pa, ea), (pb, eb) in ((items[0], items[1]), (items[1], items[0])):
            if (
                pa % 5 == 4
                and pa % 25 != 24
                and 1 <= ea <= 4
                and eb == 1
                and pb % 5 in (2, 3)
                and pb % 25 not in (7, 18)
            ):
                out.append("II")
                break
    if len(items) == 1 and items[0][0] % 25 == 24 and items[0][1] <= 4 and hyper:
        out.append("III")
    return tuple(out)
