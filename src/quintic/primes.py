"""Splitting of rational primes in Z[zeta5] and primary normalization.

Z[zeta5] has class number 1, so every prime ideal is generated by a single
element; factorizations here are always on the level of elements, with the
leftover unit tracked explicitly. factor_radicand returns the document that
the factor command prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import cyclo
from .cyclo import EPSILON, LAMBDA, ZETA, CycInt
from .errors import InputError, InternalCheckError, NoPrimaryAssociate
from .intarith import element_of_order_five, is_prime, sqrt_mod

#: entries kept by each memo table here and in symbols; a bound keeps a long
#: in-process run (many distinct primes) from growing without limit
MEMO_SIZE = 64

#: for a prime p, by p mod 5: the residue degree f and the number g of
#: primes of Z[zeta5] above p; residue 0 is p = 5 itself, which is lambda^4
SPLITTING_MOD_5 = ((1, 1), (1, 4), (4, 1), (4, 1), (2, 2))


@dataclass(frozen=True)
class CycPrime:
    """A prime element of Z[zeta5] above the rational prime p."""

    p: int
    element: CycInt

    @property
    def f(self) -> int:
        """The residue degree, decided by p mod 5."""
        return SPLITTING_MOD_5[self.p % 5][0]

    @property
    def e(self) -> int:
        """The ramification index: 4 at p = 5, 1 everywhere else."""
        return 4 if self.p == 5 else 1

    def to_json(self) -> dict:
        return {"p": self.p, "pi": self.element.to_json(), "f": self.f, "e": self.e}


@lru_cache(maxsize=MEMO_SIZE)
def factor_rational_prime(p: int) -> tuple[CycPrime, ...]:
    """The primes of Z[zeta5] above p, as canonical-associate elements.

    p = 5: the single ramified prime lambda = 1 - zeta (e = 4).
    p = 1 mod 5: four degree-1 primes gcd(p, zeta - c) over the four
    elements c of order 5 mod p.
    p = 4 mod 5: two degree-2 primes gcd(p, zeta^2 - t*zeta + 1) for the
    two roots t of t^2 + t - 1 mod p (the traces zeta + zeta^-1 of the two
    conjugate pairs of roots of Phi5 mod p).
    p = +-2 mod 5: p itself stays prime (f = 4).
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    r = p % 5
    if r == 0:
        return (CycPrime(5, LAMBDA),)
    if r in (2, 3):
        return (CycPrime(p, CycInt(p)),)
    if r == 1:
        y = element_of_order_five(p)
        gens = [ZETA - CycInt(c) for c in sorted(pow(y, i, p) for i in range(1, 5))]
    else:
        s = sqrt_mod(5, p)
        inv2 = pow(2, -1, p)
        t_roots = sorted((sgn * s - 1) * inv2 % p for sgn in (1, -1))
        gens = [CycInt((1, -t, 1, 0)) for t in t_roots]
    result = tuple(CycPrime(p, cyclo.gcd(CycInt(p), h)) for h in gens)
    for q in result:
        if cyclo.norm(q.element) != p**q.f:
            raise InternalCheckError(f"bad prime norm above {p}: {q.element!r}")
    return result


def factor_radicand(n: int, factorization: dict[int, int]) -> dict:
    """The factor document of a rational integer n >= 2, given its
    factorization over Z (radicand_factorization(n)): the unit and the prime
    powers of n over Z[zeta5], with unit * prod(prime^exponent) = n."""
    if n < 2:
        raise InputError(f"radicand must be >= 2, got {n}")
    factors: list[tuple[CycPrime, int]] = []
    for p in sorted(factorization):
        a = factorization[p]
        for q in factor_rational_prime(p):
            factors.append((q, a * q.e))
    prod = CycInt(1)
    for q, k in factors:
        prod = prod * q.element**k
    unit = cyclo.exact_div(CycInt(n), prod)
    if cyclo.norm(unit) != 1:
        raise InternalCheckError(f"non-unit cofactor while factoring {n}")
    return {"unit": unit.to_json(), "factors": [{"prime": q.to_json(), "exponent": k} for q, k in factors]}


def is_primary(a: CycInt) -> int | None:
    """The rational residue r in {1,2,3,4} with a = r mod 5*Z[zeta5], or None."""
    c = a.c
    if c[1] % 5 or c[2] % 5 or c[3] % 5:
        return None
    r = c[0] % 5
    return r if r else None


#: the exponents (m, j) of the units u = epsilon^m * zeta^j of
#: primary_normalize's search, in search order: m in 0, 1, -1, ..., 4, -4
#: (identity first, then widening), then j in 0..4
_UNIT_EXPONENTS = tuple((m, j) for m in (0, 1, -1, 2, -2, 3, -3, 4, -4) for j in range(5))
#: the units themselves, in the same order; epsilon^-1 is epsilon - 1 (the
#: golden-ratio relation x^2 = x + 1)
_SEARCH_UNITS = tuple(
    (EPSILON**m if m >= 0 else (EPSILON - CycInt(1)) ** -m) * ZETA**j for m, j in _UNIT_EXPONENTS
)


def _primary_units() -> dict[tuple, CycInt]:
    """For each class pi mod 5 that has a primary associate, the first unit u
    of the search with u * pi primary.

    u * pi = r mod 5 for a rational residue r exactly when pi = r * u^-1
    mod 5, and u^-1 = epsilon^-m * zeta^-j is itself in the search list.
    The first unit listed for a class wins, as it does in the search.
    """
    index = {mj: i for i, mj in enumerate(_UNIT_EXPONENTS)}
    table: dict[tuple, CycInt] = {}
    for (m, j), u in zip(_UNIT_EXPONENTS, _SEARCH_UNITS):
        inverse = _SEARCH_UNITS[index[-m, -j % 5]].c
        for r in range(1, 5):
            table.setdefault(tuple(r * x % 5 for x in inverse), u)
    return table


#: primary_normalize's unit for each class mod 5, as coordinates reduced mod 5
_PRIMARY_UNIT = _primary_units()


def primary_normalize(q: CycPrime) -> CycPrime:
    """Associate of q congruent to a rational residue in {1,2,3,4} mod 5.

    Searches u * pi over u = s * zeta^j * epsilon^m with s = +-1, j in 0..4,
    m in -4..4, trying the identity unit first so already-primary elements
    come back unchanged. A failed search raises rather than widening.
    Being primary depends only on pi mod 5, so the unit the search finds is
    read from _PRIMARY_UNIT by that class, and the full-size associate is
    one product. -u * pi is primary exactly when u * pi is, so s = -1 never
    comes first. brute_force_primary_normalize, the full-size search, is the
    oracle.
    """
    if q.p == 5:
        raise InputError("lambda has no primary associate (not coprime to 5)")
    u = _PRIMARY_UNIT.get(tuple([x % 5 for x in q.element.c]))
    if u is None:
        raise _no_primary_associate(q)
    return CycPrime(q.p, u * q.element)


def brute_force_primary_normalize(q: CycPrime) -> CycPrime:
    """Oracle for primary_normalize: the same search on full-size associates."""
    if q.p == 5:
        raise InputError("lambda has no primary associate (not coprime to 5)")
    for u in _SEARCH_UNITS:
        for cand in (u * q.element, -(u * q.element)):
            if is_primary(cand) is not None:
                return CycPrime(q.p, cand)
    raise _no_primary_associate(q)


def _no_primary_associate(q: CycPrime) -> NoPrimaryAssociate:
    return NoPrimaryAssociate(
        f"no associate of {q.element!r} (above {q.p}) is congruent to a rational "
        f"residue mod 5 within the unit search bound"
    )
