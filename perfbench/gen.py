"""Seeded inputs for the benchmark workloads, built by construction.

Nothing here imports quintic: radicands, genus primes and window starts come
from this module's own arithmetic, so a defect in the program cannot shape
the inputs that measure it. Every generator is an endless iterator of ops;
a run walks it once and stops when its time is up.

Sizes are not drawn independently at random: with a few dozen ops in a run,
the seed, not the program, would then decide much of the run-to-run spread.
Report radicands take their sizes from evenly spread sequences
u_j = (u_0 + j * step) mod 1 with a seeded u_0 and an irrational step, whose
every prefix covers [0, 1) nearly uniformly; genus primes come from a fixed
grid that every block of ops visits once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

DEFAULT_SEED = 0

#: The program certifies a factorization only when at most one prime factor,
#: counted with multiplicity, lies above this trial-division bound; other
#: radicands are refused with ``uncertified-factorization``.
TRIAL_BOUND = 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (far above any input here)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_fifth_power_free(n: int) -> bool:
    k = 2
    while k**5 <= n:
        if n % k**5 == 0:
            return False
        k += 1
    return True


_GOLDEN_STEP = (5**0.5 - 1) / 2
_SQRT2_STEP = 2**0.5 - 1


def _spread(rng: random.Random, step: float) -> Iterator[float]:
    u = rng.random()
    while True:
        yield u
        u = (u + step) % 1.0


def _prime_from(x: int, residue_ok) -> int:
    """Smallest prime >= x that passes the residue filter."""
    x = max(x, 2)
    while not (residue_ok(x) and is_prime(x)):
        x += 1
    return x


# ---------------------------------------------------------------- report


@dataclass(frozen=True)
class ReportOp:
    n: int
    family: str  # "I", "II" or "III": the verdict the radicand was built to have
    factors: tuple[tuple[int, int], ...]  # (prime, exponent) as constructed
    items = 1

    @property
    def refused(self) -> bool:
        """True when the program is expected to refuse n as uncertified."""
        return sum(e for p, e in self.factors if p > TRIAL_BOUND) >= 2

    def args(self, out: str) -> list[str]:
        return ["report", str(self.n)]


def _p_form12(p: int) -> bool:
    return p % 5 == 4 and p % 25 != 24


def _form_i(target: int, e: int) -> ReportOp:
    p = _prime_from(target // 5**e, _p_form12)
    return ReportOp(5**e * p, "I", ((5, e), (p, 1)))


def _form_ii(target: int, e: int, share: float) -> ReportOp:
    p = _prime_from(int(target ** (share / e)), _p_form12)
    while True:
        pe = p**e
        # p^e = +-1 mod 25 leaves no admissible q, so move on to the next p
        if pe % 25 not in (1, 24):
            q = _prime_from(
                target // pe,
                lambda q: q % 5 in (2, 3) and q % 25 not in (7, 18) and pe * q % 25 in (7, 18),
            )
            return ReportOp(pe * q, "II", ((p, e), (q, 1)))
        p = _prime_from(p + 1, _p_form12)


def _form_iii(target: int, e: int) -> ReportOp:
    while e > 1 and target ** (1 / e) < 149:  # 149 is the least prime = 24 mod 25
        e -= 1
    p = _prime_from(int(target ** (1 / e)), lambda p: p % 25 == 24)
    return ReportOp(p**e, "III", ((p, e),))


def _report_candidates(seed: int) -> Iterator[ReportOp]:
    """Forms I, II, III in turn, n log-uniform over 10^2..10^16.

    Each family cycles through the exponents e = 1..4; Form II splits log n
    between p^e and q in a share spread over [0.2, 0.8]. About 3% of the
    radicands are built to be refused: Form III p^2 and Form II p*q with two
    primes above the trial bound.
    """
    rng = random.Random(seed)
    families = ("I", "II", "III")
    sizes = {f: _spread(rng, _GOLDEN_STEP) for f in families}
    exps = {f: itertools.cycle(range(1, 5)) for f in families}
    for f in families:
        for _ in range(rng.randrange(4)):
            next(exps[f])
    shares = _spread(rng, _SQRT2_STEP)
    for k in itertools.count(rng.randrange(3)):
        family = families[k % 3]
        target = int(10 ** (2 + 14 * next(sizes[family])))
        e = next(exps[family])
        if family == "I":
            yield _form_i(target, e)
        elif family == "II":
            yield _form_ii(target, e, 0.2 + 0.6 * next(shares))
        else:
            yield _form_iii(target, e)


def report_ops(seed: int) -> Iterator[ReportOp]:
    """The certifiable radicands of the seed's candidates, in order.

    A timed run must have no failing op, and how many refusals fit in a run
    would depend on the host's speed; the refusals are measured apart, by
    refusal_probes.
    """
    return (op for op in _report_candidates(seed) if not op.refused)


REFUSAL_PROBES = 3


def refusal_probes(seed: int) -> list[ReportOp]:
    """The first REFUSAL_PROBES radicands of the seed's candidates built to be refused."""
    refused = (op for op in _report_candidates(seed) if op.refused)
    return list(itertools.islice(refused, REFUSAL_PROBES))


# ---------------------------------------------------------------- genus


@dataclass(frozen=True)
class GenusOp:
    n: int
    p: int  # the one prime = 1 mod 5 dividing n
    items = 1

    def args(self, out: str) -> list[str]:
        return ["genus", str(self.n)]


GENUS_PRIMES = tuple(p for p in range(1001, 2501, 10) if is_prime(p))  # p = 1 mod 10
#: five primes at evenly spaced quantiles of GENUS_PRIMES. The op costs
#: Theta(p^2), so a run of ~30 ops that drew p at random would let the seed
#: move the median op time by about 8%. With a fixed grid it cannot, and with
#: five levels the median falls well inside the middle one.
GENUS_GRID = tuple(GENUS_PRIMES[(2 * i + 1) * len(GENUS_PRIMES) // 10] for i in range(5))
#: small cofactors with no prime factor = 1 mod 5 (so r = 1) and no fifth power
GENUS_COFACTORS = tuple(c for c in range(2, 41) if c % 11 and c % 31 and c != 32)


def genus_ops(seed: int) -> Iterator[GenusOp]:
    """n = p*c with p = 1 mod 5 in [1000, 2500] and c a small cofactor.

    Each block of five ops visits every grid prime once, in seeded order.
    """
    rng = random.Random(seed)
    while True:
        block = list(GENUS_GRID)
        rng.shuffle(block)
        for p in block:
            yield GenusOp(p * rng.choice(GENUS_COFACTORS), p)


# ---------------------------------------------------------------- enumerate


@dataclass(frozen=True)
class WindowOp:
    lo: int
    hi: int
    form: str | None  # the --form filter, or None to emit every row

    @property
    def items(self) -> int:
        return self.hi - self.lo + 1

    def args(self, out: str) -> list[str]:
        args = ["enumerate", str(self.lo), str(self.hi), "--out", out]
        return args + ["--form", self.form] if self.form else args


def window_ops(seed: int, start_lo: int, start_hi: int, width: int, form: str | None) -> Iterator[WindowOp]:
    """Consecutive windows of the given width from a seeded start."""
    lo = random.Random(seed).randrange(start_lo, start_hi)
    while True:
        yield WindowOp(lo, lo + width - 1, form)
        lo += width


# Near 10^5 the cost per n still grows with n (trial division runs to sqrt n),
# so starts stay within [10^5, 2*10^5) to keep seeds comparable.
ENUM_1E5 = dict(start_lo=10**5, start_hi=2 * 10**5, width=400, form=None)
# Every n below 1000003^2 = 1000006000009 has at most one prime factor above
# the trial bound, so no window is refused: a run covers a few thousand n
# from a start below 10^12 + 10^6.
ENUM_1E12 = dict(start_lo=10**12, start_hi=10**12 + 10**6, width=10, form="II")

WORKLOADS = {
    "report": report_ops,
    "genus-periods": genus_ops,
    "enum-1e5": lambda seed: window_ops(seed, **ENUM_1E5),
    "enum-1e12-formII": lambda seed: window_ops(seed, **ENUM_1E12),
}


def golden_ops(workload: str) -> list:
    """The fixed ops whose output bytes are pinned by a digest.

    Taken from the default seed: for report, the smallest radicand of each
    family among the first 30 candidates that are not built to be refused;
    for genus-periods, the cheapest op of the first block; for the windows,
    the first window, and when it is filtered the same window unfiltered, so
    that rows are pinned.
    """
    ops = WORKLOADS[workload](DEFAULT_SEED)
    if workload == "report":
        candidates = _report_candidates(DEFAULT_SEED)
        head = [op for op in itertools.islice(candidates, 30) if not op.refused]
        return [min((op for op in head if op.family == f), key=lambda op: op.n) for f in ("I", "II", "III")]
    if workload == "genus-periods":
        return [min(itertools.islice(ops, len(GENUS_GRID)), key=lambda op: op.p)]
    first = next(ops)
    return [first] if first.form is None else [first, replace(first, form=None)]
