"""Quintic power residue symbols at primes of Z[zeta5].

The symbol of a at a prime q (away from lambda) is the exponent i with
a^((N(q)-1)/5) = zeta^i in the residue field; i = 0 exactly when a is a
fifth power there. ``brute_force_symbol`` recomputes the same exponent by
enumerating all fifth powers and serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import polyfp
from .cyclo import CycInt
from .errors import (
    EverythingIsAResidue,
    FieldTooLarge,
    InputError,
    InternalCheckError,
    NotCoprime,
    SymbolUndefined,
)
from .intarith import is_prime
from .primes import MEMO_SIZE, CycPrime, factor_rational_prime

_PHI5 = (1, 1, 1, 1, 1)
_BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class ResidueField:
    """F_{p^f} = F_p[x]/(modulus) with the powers of zeta's image made explicit."""

    p: int
    f: int
    modulus: tuple[int, ...]  # monic degree-f factor of Phi5 mod p, ascending
    zeta_powers: tuple[tuple[int, ...], ...]  # images of zeta^0..zeta^4, distinct

    @property
    def zeta_image(self) -> tuple[int, ...]:
        return self.zeta_powers[1]

    def order(self) -> int:
        return self.p**self.f


@lru_cache(maxsize=MEMO_SIZE)
def residue_field(q: CycPrime) -> ResidueField:
    """Residue field of a prime q != lambda, with zeta's image."""
    if q.p == 5:
        raise SymbolUndefined("no quintic symbol at lambda, the prime above 5")
    p = q.p
    elem_poly = polyfp.trim(x % p for x in q.element.c)
    modulus = polyfp.gcd(elem_poly, _PHI5, p)
    if len(modulus) - 1 != q.f:
        raise InternalCheckError(f"residue field construction failed for {q!r}")
    zeta = polyfp.reduce_mod((0, 1), modulus, p)
    powers = [(1,)]
    for _ in range(4):
        powers.append(polyfp.mulmod(powers[-1], zeta, modulus, p))
    if len(set(powers)) != 5:
        raise InternalCheckError(f"zeta has wrong order modulo {modulus!r} over F_{p}")
    return ResidueField(p, q.f, modulus, tuple(powers))


def reduce_element(a: CycInt, rf: ResidueField) -> tuple[int, ...]:
    """Image of a in the residue field."""
    return polyfp.reduce_mod(a.c, rf.modulus, rf.p)


def _symbol_from_power(s, rf: ResidueField) -> int:
    try:
        return rf.zeta_powers.index(s)
    except ValueError:
        raise InternalCheckError(
            f"Euler power {s!r} is not a fifth root of unity in {rf!r}"
        ) from None


def quintic_symbol(a: CycInt, q: CycPrime) -> int:
    """Exponent i in {0..4} with a^((N(q)-1)/5) = zeta^i mod q."""
    a = CycInt(a)
    rf = residue_field(q)
    abar = reduce_element(a, rf)
    if not abar:
        raise NotCoprime(f"{a!r} vanishes at the prime above {q.p}")
    s = polyfp.powmod(abar, (rf.order() - 1) // 5, rf.modulus, rf.p)
    return _symbol_from_power(s, rf)


@lru_cache(maxsize=MEMO_SIZE)
def _fifth_powers(rf: ResidueField) -> frozenset:
    """All fifth powers y*y*y*y*y, built by direct multiplication (no powmod)."""
    from itertools import product

    out = set()
    for coeffs in product(range(rf.p), repeat=rf.f):
        y = polyfp.trim(coeffs)
        if y:
            y2 = polyfp.mulmod(y, y, rf.modulus, rf.p)
            y4 = polyfp.mulmod(y2, y2, rf.modulus, rf.p)
            out.add(polyfp.mulmod(y4, y, rf.modulus, rf.p))
    return frozenset(out)


@lru_cache(maxsize=MEMO_SIZE)
def _dlog_table(rf: ResidueField) -> tuple[dict, tuple[int, ...]]:
    """Discrete logs of every unit, by one multiplicative sweep of a generator."""
    from itertools import product

    order = rf.order() - 1
    for coeffs in product(range(rf.p), repeat=rf.f):
        w = polyfp.trim(coeffs)
        if not w:
            continue
        table = {}
        x = (1,)
        for k in range(order):
            if x in table:
                break
            table[x] = k
            x = polyfp.mulmod(x, w, rf.modulus, rf.p)
        if len(table) == order:
            return table, w
    raise InternalCheckError(f"no multiplicative generator found in {rf!r}")


def brute_force_symbol(a: CycInt, q: CycPrime) -> int:
    """Enumeration oracle for quintic_symbol; no modular exponentiation.

    When zeta is not itself a fifth power, the symbol is recovered from the
    fifth-power coset of a: the j with a * zeta^(-j) a fifth power labels the
    coset, and the Euler exponent is j * ((N(q)-1)/5 mod 5). (The raw coset
    index equals the Euler exponent only when (N(q)-1)/5 = 1 mod 5.) When
    25 divides N(q)-1, zeta is a fifth power, cosets carry no information,
    and the exponent is read off a discrete-log table instead.
    """
    a = CycInt(a)
    rf = residue_field(q)
    if rf.order() > _BRUTE_FORCE_LIMIT:
        raise FieldTooLarge(f"residue field of order {rf.order()} exceeds the oracle bound")
    abar = reduce_element(a, rf)
    if not abar:
        raise NotCoprime(f"{a!r} vanishes at the prime above {q.p}")
    e = (rf.order() - 1) // 5
    u = e % 5
    zpow = rf.zeta_powers
    if u != 0:
        powers = _fifth_powers(rf)
        for j in range(5):
            zinv = zpow[(5 - j) % 5]
            if polyfp.mulmod(abar, zinv, rf.modulus, rf.p) in powers:
                return j * u % 5
        raise InternalCheckError(f"no fifth-power coset found for {a!r} above {q.p}")
    table, _w = _dlog_table(rf)
    m = table[abar] * e % (rf.order() - 1)
    for i in range(5):
        if table[zpow[i]] == m:
            return i
    raise InternalCheckError(f"dlog oracle failed for {a!r} above {q.p}")


def is_quintic_residue_mod_p(a: int, p: int) -> bool:
    """Whether a is a fifth power in the residue field at (a prime above) p.

    For p = 1 mod 5 this is the classical Euler test a^((p-1)/5) = 1 mod p.
    For p = 4 mod 5 the multiplicative group mod p has order coprime to 5,
    so the condition is read in the residue field F_{p^2} of either prime
    above p (the two primes are conjugate, and fifth-power-ness of a
    rational integer is the same at both).
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if p == 5:
        raise InputError("use lambda-adic congruences at p = 5, not residue symbols")
    if a % p == 0:
        raise NotCoprime(f"{a} is divisible by {p}")
    r = p % 5
    if r == 1:
        return pow(a, (p - 1) // 5, p) == 1
    if r == 4:
        q = factor_rational_prime(p)[0]
        return quintic_symbol(CycInt(a), q) == 0
    raise EverythingIsAResidue(
        f"every unit mod {p} is a quintic residue (group order coprime to 5)"
    )
