"""Quintic power residue symbols at primes of Z[zeta5].

The symbol of a at a prime q (away from lambda) is the exponent i with
a^((N(q)-1)/5) = zeta^i in the residue field; i = 0 exactly when a is a
fifth power there. The Euler power is taken by residue degree f: one
``pow`` in F_p at f = 1, and at f = 2 and 4 a power of exponent about
sqrt(N(q))/5 followed by the Frobenius-type involution zeta -> zeta^-1
(Frobenius at f = 2, its square at f = 4). ``brute_force_symbol``
recomputes the same exponent from a table of discrete logs and serves as
an independent oracle; the generic ``polyfp.powmod`` power is another.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import polyfp
from .cyclo import CycInt, galois_apply, mul
from .errors import FieldTooLarge, InternalCheckError, NotCoprime, SymbolUndefined
from .primes import MEMO_SIZE, CycPrime

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
    return _symbol_from_power(euler_power(abar, rf), rf)


def euler_power(abar: tuple[int, ...], rf: ResidueField) -> tuple[int, ...]:
    """abar^((N-1)/5) for a nonzero abar = reduce_element(a, rf), N = rf.order().

    f = 1: one ``pow`` in F_p. f = 2 and 4: let s = p^(f/2) and sigma the
    automorphism zeta -> zeta^-1 = zeta^s of the residue field (Frobenius at
    f = 2, its square at f = 4), whose fixed field is F_s. As 5 | s + 1,
    (N-1)/5 = (s-1)(s+1)/5, so with b = abar^((s+1)/5) the power is
    b^(s-1) = sigma(b)^2 / (b * sigma(b)), a division by an element of F_s.
    """
    p = rf.p
    if rf.f == 1:
        return (pow(abar[0], (p - 1) // 5, p),)
    if rf.f == 2:
        # F_p[x]/(x^2 + m1*x + m0): the roots are x and sigma(x) = -m1 - x
        m0, m1 = rf.modulus[0], rf.modulus[1]

        def mul2(u, v):
            t = u[1] * v[1]
            return (u[0] * v[0] - m0 * t) % p, (u[0] * v[1] + u[1] * v[0] - m1 * t) % p

        b0, b1 = _power(mul2, (*abar, 0)[:2], (p + 1) // 5)
        c = (b0 - m1 * b1, -b1)  # sigma(b)
        inv = pow((b0 * b0 - m1 * b0 * b1 + m0 * b1 * b1) % p, -1, p)  # 1 / (b * sigma(b))
        c0, c1 = mul2(c, c)
        return polyfp.trim((c0 * inv % p, c1 * inv % p))

    # f = 4: the residue field is Z[zeta5]/p itself, multiplied on power-basis
    # tuples by cyclo.mul, each coordinate reduced mod p
    def mul4(u, v):
        c0, c1, c2, c3 = mul(u, v)
        return c0 % p, c1 % p, c2 % p, c3 % p

    b = _power(mul4, (*abar, 0, 0, 0)[:4], (p * p + 1) // 5)
    c = galois_apply(2, CycInt(b)).c  # sigma(b)
    # b * sigma(b) = x + y*t in F_{p^2} = F_p[t], t = zeta + zeta^-1 (cyclo._norm_pair);
    # its inverse is (x + y*t') / (x^2 - x*y - y^2), and x + y*t' = (x, 0, y, y)
    r = mul4(b, c)
    y = -r[2]
    x = r[0] + y
    inv = pow((x * x - x * y - y * y) % p, -1, p)
    return polyfp.trim(mul4(mul4(c, c), (x * inv, 0, y * inv, y * inv)))


def _power(mul, u, e: int):
    """u^e under mul, by left-to-right square and multiply (e >= 1)."""
    r = u
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, u)
    return r


def _index(u: tuple[int, ...], p: int) -> int:
    """u's coordinates read as base-p digits: one slot in [0, p^f) per field element."""
    i = 0
    for c in reversed(u):
        i = i * p + c
    return i


@lru_cache(maxsize=MEMO_SIZE)
def _dlog_table(rf: ResidueField) -> array:
    """Discrete logs of every unit, indexed by _index, by one multiplicative sweep of a generator."""
    order = rf.order() - 1
    # from the top: when f > 1 no c * zeta^j generates, and ascending order
    # would sweep all p - 1 of them before trying anything else
    for coeffs in product(range(rf.p - 1, -1, -1), repeat=rf.f):
        w = polyfp.trim(coeffs)
        if not w:
            continue
        table = array("q", [-1]) * rf.order()
        x = (1,)
        for k in range(order):
            i = _index(x, rf.p)
            if table[i] >= 0:
                break
            table[i] = k
            x = polyfp.mulmod(x, w, rf.modulus, rf.p)
        else:
            return table
    raise InternalCheckError(f"no multiplicative generator found in {rf!r}")


def brute_force_symbol(a: CycInt, q: CycPrime) -> int:
    """Discrete-log oracle for quintic_symbol; no modular exponentiation.

    One sweep of a generator w gives log_w of every unit of the residue
    field. With e = (N(q)-1)/5, the symbol is the i for which
    log_w(zeta^i) = e * log_w(a) mod N(q)-1.
    """
    a = CycInt(a)
    rf = residue_field(q)
    if rf.order() > _BRUTE_FORCE_LIMIT:
        raise FieldTooLarge(f"residue field of order {rf.order()} exceeds the oracle bound")
    abar = reduce_element(a, rf)
    if not abar:
        raise NotCoprime(f"{a!r} vanishes at the prime above {q.p}")
    order = rf.order() - 1
    table = _dlog_table(rf)
    m = table[_index(abar, rf.p)] * (order // 5) % order
    for i, z in enumerate(rf.zeta_powers):
        if table[_index(z, rf.p)] == m:
            return i
    raise InternalCheckError(f"dlog oracle failed for {a!r} above {q.p}")
