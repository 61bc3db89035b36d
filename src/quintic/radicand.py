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

They leave each family two classes of n mod 25 (VERDICT_MOD_25): {0, 20}
for Form I, {7, 18} for Form II and {1, 24} for Form III. A filtered
enumeration drops every other n before factoring it, but only below
intarith.CERTIFIED_BELOW, where factorize cannot fail; from there on every
n is factored, so a window fails on its first uncertifiable n, filtered or not.
An unfiltered enumeration factors a window below CERTIFIED_BELOW that is
dense next to its square root (SIEVE_RATIO) with one intarith.factorize_window
sieve, and classify_factored reads each n's ledger off its dict.

The ledger is positional: CHECK_NAMES[i] names checks[i] = (passed, witness),
and every RadicandForm holds all 14 rows, whatever its verdict. Each family
condition is stated once, as its ledger row, and the verdict is read off the
rows: n can have at most one of the three shapes, and it gets that family
when every row of the family passes. The three formats of a RadicandForm
(to_json, json_line and csv_row under CSV_HEADER) are written here.

Most n lack every shape (82 % of them near 10^5), and then the rows after
each shape row are fixed by n % 25 (_NO_SHAPE_TAILS): the ledger differs from
n to n only in row 0 and the one witness of its three shape rows. For such a
ledger, json_line and csv_row read the rest of the text from tables built at
import from the same rows, and encode the witness once; any other ledger is
written row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, isqrt, prod
from operator import itemgetter

from .cyclo import HYPERPRIMARY_CLASSES
from .errors import (
    BoundExceeded,
    FactorizationError,
    InputError,
    NotFifthPowerFree,
)
from .intarith import CERTIFIED_BELOW, factorize, factorize_window, iroot, prime_blocks


class Verdict(Enum):
    FORM_I = "I"
    FORM_II = "II"
    FORM_III = "III"
    NONE = "none"


#: residues mod 25 equal to +-1 or +-7 (the rational hyperprimary classes)
HYPER_MOD_25 = frozenset(c % 25 for c in HYPERPRIMARY_CLASSES)

#: the residues n mod 25 that each family can take; NONE can take any.
#:   Form I   p = 4 mod 5, so 5p = 5 * 4 = 20 mod 25 for e = 1, and 25 | n for e >= 2.
#:   Form II  p = -1 and q = +-2 mod 5 give n = +-2 mod 5; of the classes
#:            +-1, +-7 mod 25 that the form requires, only +-7 are +-2 mod 5.
#:   Form III p = -1 mod 25 gives n = (-1)^e mod 25.
VERDICT_MOD_25 = {
    Verdict.FORM_I: frozenset((0, 20)),
    Verdict.FORM_II: frozenset((7, 18)),
    Verdict.FORM_III: frozenset((1, 24)),
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

#: numbers per enumerate_radicands window, and per `enumerate` chunk in the CLI
WINDOW = 256
#: K: an unfiltered window [a, b] below CERTIFIED_BELOW is sieved when isqrt(b) <= K * (b - a + 1).
#: The sieve pays per prime up to isqrt(b), and factorize per n. Measured on a 2-CPU Intel Xeon
#: with Python 3.11, the sieve is ahead up to a ratio isqrt(b) / (b - a + 1) of about 10 near
#: 10^3, 65 near 10^5, 100 near 10^6 and 500 near 10^9, for any width from 2 on; K sits below
#: them all. A window of one n is about 15 % slower sieved, and is sieved only below 81.
SIEVE_RATIO = 8

#: the first line of `enumerate --csv`
CSV_HEADER = "n,verdict,e,p,q," + ",".join(CHECK_NAMES)

#: per check, the compact JSON of a ledger row up to its witness, for passed False and True
_JSON_ROW_PREFIX = tuple(
    tuple(f'{{"name":{_json_str(name)},"passed":{flag},"witness":' for flag in ("false", "true"))
    for name in CHECK_NAMES
)

# Ledger rows that depend on nothing but n % 25, or on no prime at all, are
# shared: a row is an immutable pair, so every RadicandForm can hold the same one.
_NO_PRIME_1_MOD_5 = (True, "none divides n")
#: per n % 25, the row "n = +-1,+-7 mod 25" of Forms II and III, and its negation for Form I
_HYPER_ROW = tuple((r in HYPER_MOD_25, f"n % 25 = {r}") for r in range(25))
_NOT_HYPER_ROW = tuple((not passed, witness) for passed, witness in _HYPER_ROW)
#: a row about p or q when the shape fails: there is no p or q to test
_NO_PRIME = (False, "-")
_PASSED = itemgetter(0)  # a ledger row's passed flag
#: per n % 25, the rows after each family's shape row (CHECK_NAMES 2-4, 6-10 and 12-13)
#: as they read when n lacks that shape
_NO_SHAPE_TAILS = tuple(
    ((_NO_PRIME, _NO_PRIME, _NOT_HYPER_ROW[r]), (_HYPER_ROW[r], *(_NO_PRIME,) * 4), (_NO_PRIME, _HYPER_ROW[r]))
    for r in range(25)
)


def _rows_json(start: int, rows) -> str:
    """The compact JSON of the ledger rows checks[start:start + len(rows)], comma-separated."""
    return ",".join([prefix[passed] + _json_str(witness) + "}"
                     for prefix, (passed, witness) in zip(_JSON_ROW_PREFIX[start:], rows)])


def _rows_csv(rows) -> str:
    """The pass or fail cells of ledger rows, comma-separated."""
    return ",".join(["pass" if passed else "fail" for passed, _ in rows])


# A ledger whose n lacks every family shape is fixed by n % 25, but for row 0
# and the witness of its three shape rows: its text is read from these tables.
#: per n % 25, the JSON text that follows each shape row's witness in such a ledger
_NO_SHAPE_JSON = tuple(
    ("}," + _rows_json(2, tail1) + "," + _JSON_ROW_PREFIX[5][False],
     "}," + _rows_json(6, tail2) + "," + _JSON_ROW_PREFIX[11][False],
     "}," + _rows_json(12, tail3) + "]}")
    for tail1, tail2, tail3 in _NO_SHAPE_TAILS
)
#: per n % 25, the 14 CSV cells of such a ledger, for row 0 passed and failed
_NO_SHAPE_CSV = tuple(
    tuple(_rows_csv(((passed, ""), (False, ""), *tail1, (False, ""), *tail2, (False, ""), *tail3))
          for passed in (True, False))
    for tail1, tail2, tail3 in _NO_SHAPE_TAILS
)


def _lacks_every_shape(checks, r: int) -> bool:
    """Whether checks is the ledger of an n = r mod 25 that lacks every shape: its three shape
    rows fail and the rows after them are _NO_SHAPE_TAILS[r], whatever row 0 and the shape
    witnesses hold."""
    tail1, tail2, tail3 = _NO_SHAPE_TAILS[r]
    return (checks[12:] == tail3 and checks[6:11] == tail2 and checks[2:5] == tail1
            and not (checks[1][0] or checks[5][0] or checks[11][0]))


@dataclass(frozen=True, init=False)
class RadicandForm:
    n: int
    verdict: Verdict
    e: int | None
    p: int | None
    q: int | None
    #: (passed, witness) per check; checks[i] is the row named CHECK_NAMES[i]
    checks: tuple[tuple[bool, str], ...]
    #: radicand_factorization(n), prime -> exponent: the record the genus and factor code
    #: read per radicand; outside equality, hashing and the three formats
    factorization: dict[int, int] = field(compare=False)

    def __init__(self, n, verdict, e, p, q, checks, factorization):
        # one write of the instance dict in place of a frozen __setattr__ per field;
        # assigning a field afterwards still raises FrozenInstanceError
        object.__setattr__(self, "__dict__", {"n": n, "verdict": verdict, "e": e, "p": p, "q": q,
                                              "checks": checks, "factorization": factorization})

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "verdict": self.verdict.value,
            "e": self.e,
            "p": self.p,
            "q": self.q,
            "checks": [
                {"name": name, "passed": passed, "witness": witness}
                for name, (passed, witness) in zip(CHECK_NAMES, self.checks)
            ],
        }

    def json_line(self) -> str:
        """``json.dumps(self.to_json(), separators=(",", ":"))``, built without the dicts.

        A ledger that lacks every shape is written from _NO_SHAPE_JSON, and a
        witness its shape rows share is encoded once; any other row by row.
        """
        checks, e, p, q, r = self.checks, self.e, self.p, self.q, self.n % 25
        head = (f'{{"n":{self.n},"verdict":{_json_str(self.verdict._value_)},'  # _value_: no enum property call
                f'"e":{"null" if e is None else e},"p":{"null" if p is None else p},'
                f'"q":{"null" if q is None else q},"checks":[')
        if not _lacks_every_shape(checks, r):
            return head + _rows_json(0, checks) + "]}"
        after1, after2, after3 = _NO_SHAPE_JSON[r]
        (passed, witness), shape1, shape2, shape3 = checks[0], checks[1][1], checks[5][1], checks[11][1]
        text1 = _json_str(shape1)
        text2 = text1 if shape2 == shape1 else _json_str(shape2)
        text3 = text1 if shape3 == shape1 else _json_str(shape3)
        return (f"{head}{_JSON_ROW_PREFIX[0][passed]}{_json_str(witness)}}},{_JSON_ROW_PREFIX[1][False]}"
                f"{text1}{after1}{text2}{after2}{text3}{after3}")

    def csv_row(self) -> str:
        """The `enumerate --csv` row under CSV_HEADER: n, verdict, e, p, q, pass or fail per check.

        The cells of a ledger that lacks every shape are read from _NO_SHAPE_CSV.
        """
        checks, e, p, q, r = self.checks, self.e, self.p, self.q, self.n % 25
        head = f'{self.n},{self.verdict._value_},{"" if e is None else e},{"" if p is None else p},{"" if q is None else q},'
        if _lacks_every_shape(checks, r):
            return head + _NO_SHAPE_CSV[r][not checks[0][0]]
        return head + _rows_csv(checks)


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
    """factorize(n) for a radicand, refusing n < 2 first.

    The one place a radicand is factored n by n: classify keeps the result
    in its RadicandForm, and the factor command passes it to factor_radicand.
    The other is the factorize_window sieve of enumerate_radicands.
    """
    if n < 2:
        raise InputError(f"radicand must be >= 2, got {n}")
    return factorize(n)


def classify(n: int) -> RadicandForm:
    """Check n against the three family shapes and return the verdict ledger.

    n is factored once, by radicand_factorization, and classify_factored
    reads the ledger off the factorization.
    """
    return classify_factored(n, radicand_factorization(n))


def classify_factored(n: int, fac: dict[int, int]) -> RadicandForm:
    """classify(n), given fac = factorize(n); the RadicandForm keeps fac.

    One pass over the primes of fac, which factorize returns ascending,
    checks that no exponent reaches 5, finds the least prime = 1 mod 5 and
    writes the witness "n = p^a * ..."; nothing is sorted or scanned again.
    At most one family shape fits n, and the number of primes and the first
    two of them tell which. The verdict is that family when every one of its
    rows passes (CHECK_NAMES 1-4 for Form I, 5-10 for Form II, 11-13 for
    Form III), and NONE otherwise. The rows of a family whose shape n lacks
    are its failed shape row and the _NO_SHAPE_TAILS of n % 25.
    """
    bad = None
    parts = []
    for p, a in fac.items():
        if a == 1:
            parts.append(str(p))
        elif a < 5:
            parts.append(f"{p}^{a}")
        else:
            raise NotFifthPowerFree(f"{n} is divisible by a fifth power")
        if bad is None and p % 5 == 1:
            bad = p
    no_bad = _NO_PRIME_1_MOD_5 if bad is None else (False, f"{bad} = 1 mod 5 divides n")
    witness = "n = " + " * ".join(parts)
    # the ledger of an n that lacks every shape; the family whose shape n has replaces its rows
    shape1 = shape2 = shape3 = (False, witness)
    tail1, tail2, tail3 = _NO_SHAPE_TAILS[n % 25]
    family = None
    if len(fac) == 2:
        (a, ea), (b, eb) = fac.items()
        if 5 in fac:
            # Form I: n = 5^e * p
            e = fac[5]
            p, ep = (b, eb) if a == 5 else (a, ea)
            if ep == 1:
                r5, r25 = p % 5, p % 25
                shape1 = (True, witness)
                tail1 = (r5 == 4, f"{p} % 5 = {r5}"), (r25 != 24, f"{p} % 25 = {r25}"), tail1[2]
                family, rows, q = Verdict.FORM_I, tail1, None
        elif (a % 5 == 4) != (b % 5 == 4):
            # Form II: n = p^e * q with exactly one of the two primes = 4 mod 5
            (p, e), (q, eq) = ((a, ea), (b, eb)) if a % 5 == 4 else ((b, eb), (a, ea))
            if eq == 1:
                p25, q5, q25 = p % 25, q % 5, q % 25
                shape2 = (True, witness)
                tail2 = (
                    tail2[0],
                    (True, f"{p} % 5 = {p % 5}"),
                    (p25 != 24, f"{p} % 25 = {p25}"),
                    (q5 in (2, 3), f"{q} % 5 = {q5}"),
                    (q25 not in (7, 18), f"{q} % 25 = {q25}"),
                )
                family, rows = Verdict.FORM_II, tail2
    elif len(fac) == 1 and 5 not in fac:
        # Form III: n = p^e
        ((p, e),) = fac.items()
        r25 = p % 25
        shape3 = (True, witness)
        tail3 = (r25 == 24, f"{p} % 25 = {r25}"), tail3[1]
        family, rows, q = Verdict.FORM_III, tail3, None

    checks = (no_bad, shape1, *tail1, shape2, *tail2, shape3, *tail3)
    if family is not None and all(map(_PASSED, rows)):
        return RadicandForm(n, family, e, p, q, checks, fac)
    return RadicandForm(n, Verdict.NONE, None, None, None, checks, fac)


def enumerate_radicands(lo: int, hi: int, verdict: Verdict | None = None):
    """Yield the RadicandForm of each fifth-power-free n in [lo, hi], ascending.

    The range is taken WINDOW numbers at a time. A window [a, b] with no
    residue skip (verdict None or NONE), b below intarith.CERTIFIED_BELOW and
    isqrt(b) <= SIEVE_RATIO * (b - a + 1) is factored by one factorize_window
    sieve, whose dicts classify_factored reads; factorize cannot fail there.
    Every other window is classified n by n. With ``verdict`` I, II or III,
    an n below CERTIFIED_BELOW whose residue mod 25 is outside
    VERDICT_MOD_25[verdict] ({0, 20}, {7, 18} or {1, 24}) is skipped
    unfactored. The fifth-power check of classify_factored skips n. An n
    whose factorization cannot be certified is still skipped when a fifth
    power divides it, which _refusal_stands decides from the trial split
    the error carries; otherwise the error stands. Since factorize can only
    fail from CERTIFIED_BELOW on, where nothing is skipped by residue, a
    window fails on the same n, filtered or not.
    """
    if not (2 <= lo <= hi):
        raise InputError(f"invalid range [{lo}, {hi}]")
    classes = VERDICT_MOD_25.get(verdict)
    skip_below = CERTIFIED_BELOW if classes else 0
    for a in range(lo, hi + 1, WINDOW):
        b = min(a + WINDOW - 1, hi)
        window = range(a, b + 1)
        if classes is None and b < CERTIFIED_BELOW and isqrt(b) <= SIEVE_RATIO * len(window):
            facs = factorize_window(a, b)
        else:
            facs = repeat(None)
        for n, fac in zip(window, facs):
            if n < skip_below and n % 25 not in classes:
                continue
            try:
                form = classify(n) if fac is None else classify_factored(n, fac)
            except NotFifthPowerFree:
                continue
            except (FactorizationError, BoundExceeded) as refusal:
                if _refusal_stands(*refusal.split):
                    raise
                continue
            if verdict is None or form.verdict is verdict:
                yield form


def _refusal_stands(smooth: dict[int, int], m: int) -> bool:
    """Whether factorize's refusal of n = s * m stands, from the split it carries.

    smooth holds the exponents of s, which is 10^6-smooth, and every prime
    factor of m is above 10^6 (m > 1, since n was refused). It stands when n
    is fifth-power-free: every exponent of s is below 5 and no P^5 divides m.
    Below 10^36 a fifth power P^5 that divides m leaves a cofactor below 10^6
    with no prime factor up to 10^6, so m = P^5: one integer root decides it.
    From 10^36 on, such a P is at most m^(1/5), and the primes in
    (10^6, m^(1/5)] come from intarith.prime_blocks: one gcd of m with each
    block's product, and a test of P^5 | m for each P of a block that shares
    a factor with m. At 10^38 - 1 that is about 10^6 primes. Once m^(1/5)
    reaches CERTIFIED_BELOW (m about 10^60), past prime_blocks' domain, the
    refusal stands undecided.
    """
    if any(a >= 5 for a in smooth.values()):
        return False
    root = iroot(m, 5)
    if m < 10**36:
        return root**5 != m
    return root >= CERTIFIED_BELOW or not any(
        gcd(prod(block), m) > 1 and any(m % P**5 == 0 for P in block)
        for block in prime_blocks(10**6, root)
    )


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
