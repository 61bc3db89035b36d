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
condition is stated once, in classify_factored, as its ledger row: n can have
at most one of the three shapes, and it gets that family when every row of
the family passes. The rows of a family whose shape n lacks are its failed
shape row, whose witness is n's factorization, and rows fixed by n % 25
(_NO_SHAPE_TAILS). So classify_factored returns a compact ledger: the
verdict, e, p, q, row 0, that witness, which shape n has if any, and that
family's own rows. classify and enumerate_radicands expand it into the
RadicandForm, whose three formats (to_json, json_line and csv_row under
CSV_HEADER) are written here row by row.

`enumerate` builds no RadicandForm: enumerate_ledgers drops each n whose
verdict a filter excludes, and ledger_json or ledger_csv writes each row it
keeps from the compact ledger. The text of each family n lacks, and of all
three for the 82 % of n near 10^5 that lack every shape, comes from tables
by n % 25 built at import from the same rows; the rows of the family whose
shape n has are written one by one.
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


#: the warning on every document that carries a verdict
HYPOTHESIS_NOTE = (
    "family verdicts are necessary-condition candidates: the (5,5) shape of the "
    "5-class group and the rank-1 ambiguous hypothesis are assumed, not computed"
)


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
#: the verdict of a compact ledger by its shape (0 for none, then Forms I, II and III) when
#: its family's rows all pass, NONE first; a tuple, since looking up an Enum member by
#: name costs about 0.1 µs
_VERDICTS = (Verdict.NONE, Verdict.FORM_I, Verdict.FORM_II, Verdict.FORM_III)
#: the CHECK_NAMES index of each family's shape row (Forms I, II and III); its other rows follow
_SHAPE_ROWS = (1, 5, 11)
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


# The rows of a family whose shape n lacks are fixed by n % 25, but for the
# witness of the failed shape row: their text is read from these tables.
#: per n % 25 and family, the JSON of the family's rows when n lacks its shape,
#: as the text before and after the shape row's witness
_LACKING_JSON = tuple(
    tuple((_JSON_ROW_PREFIX[row][False], "}," + _rows_json(row + 1, tail))
          for row, tail in zip(_SHAPE_ROWS, tails))
    for tails in _NO_SHAPE_TAILS
)
#: per n % 25 and family, the CSV cells of the family's rows when n lacks its shape
_LACKING_CSV = tuple(tuple(_rows_csv(((False, ""), *tail)) for tail in tails) for tails in _NO_SHAPE_TAILS)
#: per n % 25, for an n that lacks every shape: the JSON after each witness of
#: its three shape rows, and the 14 CSV cells for row 0 passed and failed
_NO_SHAPE_JSON = tuple(
    (after1 + "," + before2, after2 + "," + before3, after3 + "]}")
    for (_, after1), (before2, after2), (before3, after3) in _LACKING_JSON
)
_NO_SHAPE_CSV = tuple(tuple(cell + "," + ",".join(cells) for cell in ("pass", "fail")) for cells in _LACKING_CSV)


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
        """``json.dumps(self.to_json(), separators=(",", ":"))``, written row by row without
        the dicts: the reference for ledger_json."""
        e, p, q = self.e, self.p, self.q
        return (f'{{"n":{self.n},"verdict":{_json_str(self.verdict.value)},"e":{"null" if e is None else e},'
                f'"p":{"null" if p is None else p},"q":{"null" if q is None else q},"checks":['
                + _rows_json(0, self.checks) + "]}")

    def csv_row(self) -> str:
        """The `enumerate --csv` row under CSV_HEADER: n, verdict, e, p, q, pass or fail per
        check, written row by row: the reference for ledger_csv."""
        e, p, q = self.e, self.p, self.q
        return (f'{self.n},{self.verdict.value},{"" if e is None else e},{"" if p is None else p},'
                f'{"" if q is None else q},' + _rows_csv(self.checks))


def ledger_json(n: int, ledger) -> str:
    """The `enumerate` JSONL row of n, written from its compact ledger: the json_line of its
    RadicandForm. The families n lacks are read from _LACKING_JSON, or all three from
    _NO_SHAPE_JSON, with the witness encoded once."""
    verdict, e, p, q, (passed, why), witness, shape, rows = ledger
    text = _json_str(witness)
    head = (f'{{"n":{n},"verdict":{_json_str(verdict._value_)},'  # _value_: no enum property call
            f'"e":{"null" if e is None else e},"p":{"null" if p is None else p},'
            f'"q":{"null" if q is None else q},"checks":[{_JSON_ROW_PREFIX[0][passed]}{_json_str(why)}}},')
    if not shape:
        after1, after2, after3 = _NO_SHAPE_JSON[n % 25]
        return f"{head}{_JSON_ROW_PREFIX[1][False]}{text}{after1}{text}{after2}{text}{after3}"
    families = [before + text + after for before, after in _LACKING_JSON[n % 25]]
    families[shape - 1] = _rows_json(_SHAPE_ROWS[shape - 1], ((True, witness), *rows))
    return head + ",".join(families) + "]}"


def ledger_csv(n: int, ledger) -> str:
    """The `enumerate --csv` row of n, written from its compact ledger: the csv_row of its
    RadicandForm. The cells of the families n lacks are read from _LACKING_CSV, or all 14
    from _NO_SHAPE_CSV."""
    verdict, e, p, q, (passed, _), _, shape, rows = ledger
    head = f'{n},{verdict._value_},{"" if e is None else e},{"" if p is None else p},{"" if q is None else q},'
    if not shape:
        return head + _NO_SHAPE_CSV[n % 25][not passed]
    families = list(_LACKING_CSV[n % 25])
    families[shape - 1] = "pass," + _rows_csv(rows)
    return head + ("pass," if passed else "fail,") + ",".join(families)


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
    The other is the factorize_window sieve of enumerate_ledgers.
    """
    if n < 2:
        raise InputError(f"radicand must be >= 2, got {n}")
    return factorize(n)


def classify(n: int) -> RadicandForm:
    """Check n against the three family shapes and return the verdict ledger.

    n is factored once, by radicand_factorization, and classify_factored
    reads the compact ledger off the factorization.
    """
    fac = radicand_factorization(n)
    return _expand(n, fac, classify_factored(n, fac))


def classify_factored(n: int, fac: dict[int, int]):
    """The compact ledger of n, given fac = factorize(n): the tuple
    (verdict, e, p, q, row 0, witness, shape, rows).

    One pass over the primes of fac, which factorize returns ascending,
    checks that no exponent reaches 5, finds the least prime = 1 mod 5 for
    row 0 and writes the witness "n = p^a * ..."; nothing is sorted or
    scanned again. At most one family shape fits n, and the number of primes
    and the first two of them tell which: shape is 1, 2 or 3 for Form I, II
    or III, and 0 when n lacks every shape. rows are that family's rows after
    its shape row (CHECK_NAMES 2-4, 6-10 or 12-13), () for shape 0. The
    verdict is that family when every one of its rows passes, and NONE
    otherwise, with e, p and q None. The other rows of the full ledger follow
    from n % 25 (_expand); this is the one place that states the family
    conditions.
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
    shape, rows = 0, ()
    if len(fac) == 2:
        (a, ea), (b, eb) = fac.items()
        if 5 in fac:
            # Form I: n = 5^e * p
            e = fac[5]
            p, ep = (b, eb) if a == 5 else (a, ea)
            if ep == 1:
                r5, r25 = p % 5, p % 25
                shape, q = 1, None
                rows = (r5 == 4, f"{p} % 5 = {r5}"), (r25 != 24, f"{p} % 25 = {r25}"), _NOT_HYPER_ROW[n % 25]
        elif (a % 5 == 4) != (b % 5 == 4):
            # Form II: n = p^e * q with exactly one of the two primes = 4 mod 5
            (p, e), (q, eq) = ((a, ea), (b, eb)) if a % 5 == 4 else ((b, eb), (a, ea))
            if eq == 1:
                p25, q5, q25 = p % 25, q % 5, q % 25
                shape = 2
                rows = (
                    _HYPER_ROW[n % 25],
                    (True, f"{p} % 5 = {p % 5}"),
                    (p25 != 24, f"{p} % 25 = {p25}"),
                    (q5 in (2, 3), f"{q} % 5 = {q5}"),
                    (q25 not in (7, 18), f"{q} % 25 = {q25}"),
                )
    elif len(fac) == 1 and 5 not in fac:
        # Form III: n = p^e
        ((p, e),) = fac.items()
        r25 = p % 25
        shape, q = 3, None
        rows = (r25 == 24, f"{p} % 25 = {r25}"), _HYPER_ROW[n % 25]

    if shape and all(map(_PASSED, rows)):
        return _VERDICTS[shape], e, p, q, no_bad, witness, shape, rows
    return _VERDICTS[0], None, None, None, no_bad, witness, shape, rows


def _expand(n: int, fac: dict[int, int], ledger) -> RadicandForm:
    """The RadicandForm of n from fac and its compact ledger: every family takes its failed
    shape row and the _NO_SHAPE_TAILS of n % 25, but the one whose shape n has."""
    verdict, e, p, q, no_bad, witness, shape, rows = ledger
    lacking = (False, witness)
    families = [(lacking, *tail) for tail in _NO_SHAPE_TAILS[n % 25]]
    if shape:
        families[shape - 1] = ((True, witness), *rows)
    return RadicandForm(n, verdict, e, p, q, (no_bad, *families[0], *families[1], *families[2]), fac)


def enumerate_ledgers(lo: int, hi: int, verdict: Verdict | None = None):
    """Yield (n, fac, ledger) for each fifth-power-free n in [lo, hi], ascending: its
    factorization and its compact ledger (classify_factored).

    The range is taken WINDOW numbers at a time. A window [a, b] with no
    residue skip (verdict None or NONE), b below intarith.CERTIFIED_BELOW and
    isqrt(b) <= SIEVE_RATIO * (b - a + 1) is factored by one factorize_window
    sieve, whose dicts classify_factored reads; factorize cannot fail there.
    Every other window is factored n by n. With ``verdict`` I, II or III,
    an n below CERTIFIED_BELOW whose residue mod 25 is outside
    VERDICT_MOD_25[verdict] ({0, 20}, {7, 18} or {1, 24}) is skipped
    unfactored, and with any ``verdict`` an n whose ledger has another is
    dropped. The fifth-power check of classify_factored skips n. An n
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
                if fac is None:
                    fac = radicand_factorization(n)
                ledger = classify_factored(n, fac)
            except NotFifthPowerFree:
                continue
            except (FactorizationError, BoundExceeded) as refusal:
                if _refusal_stands(*refusal.split):
                    raise
                continue
            if verdict is None or ledger[0] is verdict:
                yield n, fac, ledger


def enumerate_radicands(lo: int, hi: int, verdict: Verdict | None = None):
    """Yield the RadicandForm of each fifth-power-free n in [lo, hi], ascending, with
    ``verdict`` if one is given: the forms of enumerate_ledgers."""
    for n, fac, ledger in enumerate_ledgers(lo, hi, verdict):
        yield _expand(n, fac, ledger)


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
