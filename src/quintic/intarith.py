"""Integer-side number theory: certified factorization and modular roots.

Primality is decided by deterministic Miller-Rabin with the first t prime
bases, t read off the least proven bound psi_t above n (``_MR_TIERS``):

    n below psi_t                          t   bases
    3,215,031,751                          4   2..7
    341,550,071,728,321                    7   2..17
    3,825,123,056,546,413,051              9   2..23
    318,665,857,834,031,151,167,461       12   2..37
    3,317,044,064,679,887,385,961,981     13   2..41

psi_4, psi_7 and psi_9 are from Jaeschke, "On strong pseudoprimes to
several bases", Math. Comp. 61 (1993); psi_12 and psi_13 from Sorenson and
Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
(2017). psi_t itself is a strong pseudoprime to its t bases, so each bound
is exclusive. From psi_13 (``_MR_PROVEN_LIMIT``) on, a candidate is
refused rather than tested probabilistically.

Factorization is trial division by the primes up to 10^6, with a primality
certificate for a large cofactor. The primes sit in one table, built on
first use only as far as a call needs, in blocks of 256 with the product
of each block; a block that shares no factor with the cofactor is skipped
after one gcd (Bernstein, "How to find smooth parts of integers", 2004).
A cofactor above 10^6 goes to Miller-Rabin once trial division would need
more than R = ``_MR_AFTER_BLOCKS`` = 16 further blocks to finish it, so a
prime cofactor ends the division there; any other cofactor is certified by
the trial division itself, which then rules out every prime up to its
square root. R weighs the two costs, measured on a 2-CPU Intel Xeon with
Python 3.11: one block gcd takes about 3 us, and each ``pow`` on a prime
near 5*10^11 about 7.8 us, so its 7-base test takes about 55 us, or 18
blocks (the 12 bases used there before took about 100 us).

factorize_window factors a whole window [lo, hi] below CERTIFIED_BELOW from
the same table, by a sieve that needs no primality test at all, and
prime_blocks sieves the primes of such an interval and keeps none of them.
A refusal of factorize carries its trial split in its ``split`` attribute.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress, islice
from math import gcd, isqrt, prod

from .errors import BoundExceeded, FactorizationError, InputError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: (psi_t, the first t prime bases): Miller-Rabin with those bases is proven
#: correct for every n < psi_t (see the module docstring)
_MR_TIERS = tuple((psi, _MR_BASES[:t]) for psi, t in (
    (3215031751, 4),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
))
_MR_PROVEN_LIMIT = _MR_TIERS[-1][0]
_TRIAL_LIMIT = 10**6
#: factorize(n) never raises for 1 <= n < CERTIFIED_BELOW, the square of 1000003,
#: the least prime above _TRIAL_LIMIT. A composite cofactor left by trial division
#: has two prime factors above _TRIAL_LIMIT, so it is at least this bound and
#: exceeds n; below it the cofactor is prime, and far below _MR_PROVEN_LIMIT.
#: The bound is tight: factorize(CERTIFIED_BELOW) raises FactorizationError.
CERTIFIED_BELOW = 1000003**2
_BLOCK = 256  # primes per gcd block
#: R: a cofactor above _TRIAL_LIMIT goes to is_prime once trial division would
#: divide more than R further blocks (the costs are in the module docstring)
_MR_AFTER_BLOCKS = 16
_SEGMENT = 1 << 17  # odd numbers sieved at a time by the prime table and prime_blocks


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the proven base set for n's size.

    Raises BoundExceeded from _MR_PROVEN_LIMIT on, where no base set is proven.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    for psi, bases in _MR_TIERS:
        if n < psi:
            break
    else:
        raise BoundExceeded(f"primality of {n} cannot be certified deterministically")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


class _PrimeTable:
    """The primes up to ``limit``, grown on demand, with one product per block.

    ``primes`` is an ``array('I')``; ``products[k]`` is the product of
    ``primes[k * _BLOCK : (k + 1) * _BLOCK]`` (the last block may be short
    until the table reaches the trial bound). No slice of the array is kept.
    """

    def __init__(self) -> None:
        self.limit = 1
        self.primes = array("I")
        self.products: list[int] = []

    def extend(self, bound: int) -> None:
        """Hold every prime <= bound, sieving the odd numbers above limit segment by segment.

        The sievers, the odd primes up to isqrt(bound), come from the table
        itself, grown that far first.
        """
        if bound <= self.limit:
            return
        self.extend(isqrt(bound))
        lo = self.limit
        primes = self.primes
        old_len = len(primes)
        if lo < 2:
            primes.append(2)
        for segment in _odd_prime_segments(lo, bound, primes):
            primes.extend(segment)
        self.limit = bound
        # the block that held the old last prime may have grown: recompute from it
        k = old_len // _BLOCK
        del self.products[k:]
        for start in range(k * _BLOCK, len(self.primes), _BLOCK):
            self.products.append(prod(self.primes[start : start + _BLOCK]))


def _odd_prime_segments(lo: int, hi: int, sievers):
    """The odd primes in (lo, hi], ascending, as one iterator per _SEGMENT odd numbers.

    sievers starts with 2 and must hold every odd prime up to isqrt(hi) by
    the time a segment is sieved; each segment is sieved when it is reached.
    """
    first = (lo + 1) | 1  # first odd number above lo, at least 3
    while first <= hi:
        last = min(hi, first + 2 * (_SEGMENT - 1))
        flags = bytearray(b"\x01") * ((last - first) // 2 + 1)
        for p in islice(sievers, 1, None):
            if p * p > last:
                break
            s = max(p * p, -(-first // p) * p)
            if s % 2 == 0:
                s += p
            i = (s - first) // 2
            flags[i::p] = bytes(len(range(i, len(flags), p)))
        yield compress(range(first, last + 1, 2), flags)
        first = last + 2


_TABLE = _PrimeTable()  # built lazily by factorize, never at import


def prime_blocks(lo: int, hi: int):
    """Yield the primes in (lo, hi], lo >= 2, ascending, in lists of at most _BLOCK.

    For hi < CERTIFIED_BELOW, as for factorize_window. A segmented sieve
    that keeps no prime once its block is yielded; its sievers, the primes
    up to isqrt(hi) < 1000003, come from the prime table, grown that far.
    """
    if hi >= CERTIFIED_BELOW:
        raise InputError(f"cannot sieve the primes up to {hi}")
    _TABLE.extend(min(isqrt(hi), _TRIAL_LIMIT))
    for segment in _odd_prime_segments(lo, hi, _TABLE.primes):
        primes = list(segment)
        for k in range(0, len(primes), _BLOCK):
            yield primes[k : k + _BLOCK]


def factorize(n: int) -> dict[int, int]:
    """Certified prime factorization as ``{prime: exponent}``, primes ascending.

    Trial division by the primes up to 10^6, a block of 256 at a time: one
    ``gcd`` of the cofactor with the block's product skips every block that
    divides nothing, and only a block with a common factor is divided prime
    by prime. Division stops at the first prime p with p^2 > cofactor, as
    plain trial division would, so the cofactor left over is the same; it
    must then be a certified prime, and composite cofactors are rejected.

    Before block k, a cofactor m with 10^6 < m < _MR_PROVEN_LIMIT goes to
    the deterministic Miller-Rabin ``is_prime`` when trial division would
    divide more than R = _MR_AFTER_BLOCKS further blocks: when m is at least
    the square of the first prime of block k + R, or that block lies past
    the prime table's 10^6. A prime ends the division there. A cofactor is
    tested again only after a block has changed it, so no cofactor is
    tested twice. While the table is still short of block k + R, only a
    cofactor of 10^12 or more is tested, since its square root exceeds every
    prime in the full table. So every cofactor of 10^12 or more is tested
    before any further division, and one below 10^12 left after the division
    is prime by the trial division alone. A cofactor from _MR_PROVEN_LIMIT on
    is tested after the division, and ``is_prime`` refuses it. The prime
    table grows with the cofactor's square root, doubling at least, up to
    10^6. So factorize(2 * 500000067059) takes one block gcd and a 7-base
    test of the prime cofactor, about 60 us, where trial division to that
    cofactor's square root took about 225 block gcds and 1.05 ms.

    A refusal, FactorizationError or BoundExceeded, comes only after every
    prime up to 10^6 has been divided out, and carries that trial split as
    its ``split`` = (fac, m): fac is the 10^6-smooth part of n, primes
    ascending, and every prime factor of the rest m > 1 is above 10^6.
    """
    if n < 1:
        raise InputError(f"cannot factor {n}")
    table = _TABLE
    primes, products = table.primes, table.products  # both grow in place
    fac: dict[int, int] = {}
    m = n
    tested = 1  # the last cofactor is_prime found composite
    k = 0
    while True:
        # the cheap bound first: a cofactor of at most 10^6 pays one comparison per block
        if m > _TRIAL_LIMIT and m != tested and m < _MR_PROVEN_LIMIT:
            i = (k + _MR_AFTER_BLOCKS) * _BLOCK
            if primes[i] ** 2 <= m if i < len(primes) else (
                    table.limit >= _TRIAL_LIMIT or m >= _TRIAL_LIMIT**2):
                if is_prime(m):
                    fac[m] = 1  # above 10^6, so after every prime divided out
                    return fac
                tested = m
        if k + 1 >= len(products) and table.limit < _TRIAL_LIMIT and table.limit**2 < m:
            table.extend(min(_TRIAL_LIMIT, max(isqrt(m), 2 * table.limit)))
        if k >= len(products):
            break
        start = k * _BLOCK
        if primes[start] ** 2 > m:
            break
        g = gcd(products[k], m)
        if g > 1:
            for p in primes[start : start + _BLOCK]:
                if p * p > m:
                    break
                if g % p == 0:
                    g //= p
                    while m % p == 0:
                        fac[p] = fac.get(p, 0) + 1
                        m //= p
                    if g == 1:
                        break
        k += 1
    # Every prime <= min(isqrt(m), 10^6) has now been ruled out: the table is
    # grown to isqrt(m) (capped at 10^6) before its last block is divided, and
    # division only stops early at a prime p with p^2 > m. Below 10^12 that
    # covers isqrt(m), so a cofactor m > 1 there has no prime factor <= its
    # square root and is prime. From 10^12 on, m is either the composite that
    # is_prime last rejected or at least _MR_PROVEN_LIMIT, where is_prime raises.
    if m > 1:
        try:
            if m >= _TRIAL_LIMIT**2 and (m == tested or not is_prime(m)):
                raise FactorizationError(
                    f"cofactor {m} of {n} is composite and beyond the trial-division bound"
                )
        except (FactorizationError, BoundExceeded) as refusal:
            refusal.split = fac, m
            raise
        fac[m] = fac.get(m, 0) + 1
    return fac


def factorize_window(lo: int, hi: int) -> list[dict[int, int]]:
    """[factorize(n) for n in range(lo, hi + 1)], by one sieve over the window.

    For 1 <= lo <= hi < CERTIFIED_BELOW. Every prime p <= isqrt(hi) visits
    its multiples in the window, which start at index (-lo) % p, and divides
    each one's cofactor by p as often as it goes. A cofactor left above 1 is
    at most hi and has no prime factor up to isqrt(hi), so it is prime with
    no Miller-Rabin test, and it comes last. So each dict, key order too, is
    the one factorize returns (the segmented sieve of Bays and Hudson, BIT 17,
    1977). The prime table grows to isqrt(hi), as it would for factorize.
    """
    if not 1 <= lo <= hi < CERTIFIED_BELOW:
        raise InputError(f"cannot sieve the window [{lo}, {hi}]")
    root = isqrt(hi)
    _TABLE.extend(min(root, _TRIAL_LIMIT))  # root < 1000003, the least prime above 10^6
    primes = _TABLE.primes
    width = hi - lo + 1
    rest = list(range(lo, hi + 1))
    facs: list[dict[int, int]] = [{} for _ in rest]
    for p in islice(primes, bisect_right(primes, root)):
        for i in range(-lo % p, width, p):
            m = rest[i] // p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            rest[i] = m
            facs[i][p] = e
    for fac, m in zip(facs, rest):
        if m > 1:
            fac[m] = 1
    return facs


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on integers from above."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits / k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def sieve_primes(limit: int) -> list[int]:
    """All primes < limit, from a fresh prime table."""
    table = _PrimeTable()
    table.extend(limit - 1)
    return table.primes.tolist()


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p."""
    if p == 2:
        return 1
    factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InputError(f"{p} has no primitive root (not prime?)")


def element_of_order_five(p: int) -> int:
    """An element y of multiplicative order 5 mod p (p = 1 mod 5).

    y = x^((p-1)/5) mod p for the first x = 2, 3, ... that gives y != 1, that
    is, for the smallest x that is not a fifth power mod p. It is not always
    the smallest element of order 5 (at p = 11 it is 4, but 3 has order 5
    too); callers that need all four take its powers.
    """
    if p % 5 != 1:
        raise InputError(f"{p} is not 1 mod 5")
    for x in range(2, p):
        y = pow(x, (p - 1) // 5, p)
        if y != 1:
            return y
    raise InputError(f"no element of order 5 mod {p}")


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod p (p odd prime, a a quadratic residue).

    Tonelli-Shanks with a sequential non-residue search; fully deterministic.
    Returns the smaller of the two roots.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise InputError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)
