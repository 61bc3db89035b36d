"""Exact arithmetic in Z[zeta5], the ring of integers of Q(zeta5).

Elements live on the power basis 1, zeta, zeta^2, zeta^3 with
arbitrary-precision integer coordinates; products reduce modulo
Phi5(x) = x^4 + x^3 + x^2 + x + 1 (zeta^4 = -1 - zeta - zeta^2 - zeta^3).
Everything here is a pure function on immutable values. Norms, Euclid's
algorithm and canonical associates run on the coordinate 4-tuples and wrap
only their results as CycInt; ``mul`` is the one product formula.
"""

from __future__ import annotations

from itertools import product as _cartesian

from .errors import InputError, InternalCheckError


class CycInt:
    """Element a0 + a1*zeta + a2*zeta^2 + a3*zeta^3 of Z[zeta5]."""

    __slots__ = ("c",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, CycInt):
            self.c = coeffs.c
            return
        if isinstance(coeffs, int):
            self.c = (coeffs, 0, 0, 0)
            return
        c = tuple(int(x) for x in coeffs)
        if len(c) != 4:
            raise InputError(f"expected 4 power-basis coordinates, got {len(c)}")
        self.c = c

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return _wrap((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return _wrap((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        a = self.c
        return _wrap((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _wrap(mul(self.c, o.c))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative powers are not defined in Z[zeta5]")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return self.c != (0, 0, 0, 0)

    def __repr__(self):
        return f"CycInt({self.c!r})"

    def to_json(self) -> list[str]:
        """Power-basis coordinates as decimal strings (arbitrary precision)."""
        return [str(x) for x in self.c]

    @classmethod
    def from_json(cls, data) -> "CycInt":
        return cls(tuple(int(x) for x in data))


def _coerce(x):
    if isinstance(x, CycInt):
        return x
    if isinstance(x, int):
        return _wrap((x, 0, 0, 0))
    return None


_new = object.__new__


def _wrap(c: tuple) -> CycInt:
    # internal constructor for a 4-tuple of ints computed in this module; the
    # public CycInt(...) validates outside input, this skips the re-check
    obj = _new(CycInt)
    obj.c = c
    return obj


def mul(a: tuple, b: tuple) -> tuple:
    """The product of two elements given as power-basis 4-tuples.

    The one multiplication formula of the package: CycInt.__mul__, the
    tuple kernels below and the f = 4 residue field of symbols call it.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    # c4 is the zeta^4 coefficient, folded by zeta^4 = -(1 + zeta + zeta^2 +
    # zeta^3); zeta^5 = 1 and zeta^6 = zeta fold the terms above it
    c4 = a1 * b3 + a2 * b2 + a3 * b1
    return (
        a0 * b0 + a2 * b3 + a3 * b2 - c4,
        a0 * b1 + a1 * b0 + a3 * b3 - c4,
        a0 * b2 + a1 * b1 + a2 * b0 - c4,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c4,
    )


ZERO = CycInt(0)
ONE = CycInt(1)
ZETA = CycInt((0, 1, 0, 0))
#: lambda = 1 - zeta, the unique prime above 5 (totally ramified, 5 = unit * lambda^4)
LAMBDA = CycInt((1, -1, 0, 0))
#: fundamental unit (1 + sqrt 5)/2 = -(zeta^2 + zeta^3) of the real quadratic subfield
EPSILON = CycInt((0, 0, -1, -1))

# zeta -> zeta^(2^t): exponents of the four automorphisms tau^t
_TAU_EXP = (1, 2, 4, 3)


def galois_apply(t: int, a: CycInt) -> CycInt:
    """Image of a under tau^t, the automorphism zeta -> zeta^(2^t)."""
    e = _TAU_EXP[t % 4]
    if e == 1:
        return a
    v = [0, 0, 0, 0, 0]
    for j, coef in enumerate(a.c):
        v[j * e % 5] += coef
    k = v[4]
    return _wrap((v[0] - k, v[1] - k, v[2] - k, v[3] - k))


def _conj(a: tuple) -> tuple:
    """tau^2(a), the complex conjugate zeta -> zeta^4, on coordinates."""
    a0, a1, a2, a3 = a
    return (a0 - a1, -a1, a3 - a1, a2 - a1)


def _norm_pair(a: tuple) -> tuple[tuple, int]:
    """c = a * tau^2(a) and N(a), for a given as coordinates.

    c is a times its complex conjugate, so it lies in the real subring Z[t],
    t = zeta + zeta^4 = (-1, 0, -1, -1), and N(a) is its norm over Q(sqrt 5).
    c = x + y*t = (x - y, 0, -y, -y) gives y = -c2 and x = c0 - c2; then
    N = (x + y*t)(x + y*t'), and t + t' = t*t' = -1 make it x^2 - x*y - y^2.
    """
    c = mul(a, _conj(a))
    c0, c1, c2, c3 = c
    if c1 or c2 != c3:
        raise InternalCheckError(f"{c!r}, {a!r} times its conjugate, does not lie in Z[zeta + zeta^4]")
    x = c0 - c2
    return c, x * x + x * c2 - c2 * c2


def norm(a: CycInt) -> int:
    """Field norm N(a), a rational integer >= 0, from one product (_norm_pair).

    brute_force_norm, the four-conjugate product, is the oracle.
    """
    return _norm_pair(a.c)[1]


def brute_force_norm(a: CycInt) -> int:
    """Oracle for norm: the product of the four conjugates of a."""
    m = a * galois_apply(1, a) * galois_apply(2, a) * galois_apply(3, a)
    if m.c[1] or m.c[2] or m.c[3]:
        raise InternalCheckError(f"norm of {a!r} did not reduce to a rational integer")
    return m.c[0]


#: quotient offsets in the order Euclid tries them: none, then {-1,0,1}^4
#: lexicographically
_OFFSETS = ((0, 0, 0, 0), *(d for d in _cartesian((-1, 0, 1), repeat=4) if any(d)))


def _divmod(a: tuple, b: tuple, c: tuple, nb: int) -> tuple[tuple, tuple, tuple, int]:
    """q, r with a = q*b + r and N(r) < N(b), then r * tau^2(r) and N(r).

    Coordinates throughout, for b != 0 with (c, nb) = _norm_pair(b). The
    quotient starts from coordinatewise nearest-integer rounding of the exact
    field quotient; when that misses the Euclidean bound (coordinate rounding
    alone is not guaranteed here), a bounded search over offset vectors in
    {-1,0,1}^4 restores it, taking the first offset in _OFFSETS that works.
    """
    # c is real, so tau(c) = (c0 - c2, 0, -c2, -c2) = tau(b) * tau^3(b), the
    # product of the three conjugates of b is tau^2(b) * tau(c), and
    # a/b = a * tau^2(b) * tau(c) / N(b)
    c0, c2 = c[0], c[2]
    n0, n1, n2, n3 = mul(mul(a, _conj(b)), (c0 - c2, 0, -c2, -c2))
    # nearest integer to x/nb, half rounded up
    h = 2 * nb
    q0, q1, q2, q3 = (2 * n0 + nb) // h, (2 * n1 + nb) // h, (2 * n2 + nb) // h, (2 * n3 + nb) // h
    a0, a1, a2, a3 = a
    for d0, d1, d2, d3 in _OFFSETS:
        q = (q0 + d0, q1 + d1, q2 + d2, q3 + d3)
        p0, p1, p2, p3 = mul(q, b)
        r = (a0 - p0, a1 - p1, a2 - p2, a3 - p3)
        rc, nr = _norm_pair(r)
        if nr < nb:
            return q, r, rc, nr
    raise InternalCheckError(f"Euclidean division failed for {a!r} / {b!r}")


def _divide(a: CycInt, b: CycInt) -> tuple[tuple, tuple]:
    """Quotient and remainder coordinates of a by b != 0."""
    b = CycInt(b).c
    if b == ZERO.c:
        raise ZeroDivisionError("division by zero in Z[zeta5]")
    return _divmod(CycInt(a).c, b, *_norm_pair(b))[:2]


def euclid_divmod(a: CycInt, b: CycInt) -> tuple[CycInt, CycInt]:
    """Quotient and remainder with norm(r) < norm(b) (_divmod)."""
    q, r = _divide(a, b)
    return _wrap(q), _wrap(r)


def exact_div(a: CycInt, b: CycInt) -> CycInt:
    """a/b when b divides a exactly; a nonzero remainder raises InternalCheckError."""
    q, r = _divide(a, b)
    if r != ZERO.c:
        raise InternalCheckError(f"{b!r} does not divide {a!r}")
    return _wrap(q)


def canonical_associate(a: CycInt) -> CycInt:
    """Deterministic representative among the ten associates ±zeta^j * a.

    The representative with the lexicographically smallest coordinate tuple
    is chosen, making gcd and factorization outputs reproducible. On the
    coordinates (a0, a1, a2, a3, 0) of 1..zeta^4, multiplying by zeta is a
    rotation to (0, a0, a1, a2, a3); subtracting a3 from each returns to
    the power basis.
    """
    c = best = a.c
    for _ in range(5):
        a0, a1, a2, a3 = c
        neg = (-a0, -a1, -a2, -a3)
        if c < best:
            best = c
        if neg < best:
            best = neg
        c = (-a3, a0 - a3, a1 - a3, a2 - a3)
    return _wrap(best)


def gcd(a: CycInt, b: CycInt) -> CycInt:
    """A generator of the ideal (a, b), returned as a canonical associate.

    Each step hands its remainder's r * tau^2(r) and N(r) to the next, where
    r is the divisor; N(b) = 0 exactly when b = 0.
    """
    a = CycInt(a).c
    b = CycInt(b).c
    if a == b == ZERO.c:
        raise InputError("gcd(0, 0) is undefined")
    c, nb = _norm_pair(b)
    while nb:
        a, (_, b, c, nb) = b, _divmod(a, b, c, nb)
    return canonical_associate(_wrap(a))


def lambda_valuation(a: CycInt) -> int:
    """v_lambda(a), the exponent of lambda = 1 - zeta in a.

    Equals the 5-adic valuation of norm(a): lambda has residue degree 1 and
    is the only prime whose norm is a power of 5.
    """
    a = CycInt(a)
    if not a:
        raise InputError("the zero element has no finite valuation")
    n = norm(a)
    v = 0
    while n % 5 == 0:
        n //= 5
        v += 1
    return v


#: congruence classes c with c^4 = 1 mod 25; the rational hyperprimary residues
HYPERPRIMARY_CLASSES = (1, -1, 7, -7)
_HYPERPRIMARY_BY_RESIDUE = {c % 25: c for c in HYPERPRIMARY_CLASSES}


def hyperprimary_class(a: CycInt) -> int | None:
    """The c in {1, -1, 7, -7} with a = c mod lambda^5, or None.

    Since 5 = unit * lambda^4, (lambda^5) = (5*lambda): a = c mod lambda^5
    exactly when (a - c)/5 lies in Z[zeta5] and in (lambda). That is
    a1 = a2 = a3 = 0 mod 5 and, as zeta = 1 mod lambda, a0 - c + a1 + a2 + a3
    = 0 mod 25; the four classes differ mod 25, so at most one matches. For a
    rational integer coprime to 5 this is a mod 25 in {1, 24, 7, 18}.
    brute_force_hyperprimary_class, the lambda-valuation test, is the oracle.
    """
    a = CycInt(a)
    if not a:
        raise InputError("hyperprimary class of zero is undefined")
    a0, a1, a2, a3 = a.c
    if a1 % 5 or a2 % 5 or a3 % 5:
        return None
    return _HYPERPRIMARY_BY_RESIDUE.get((a0 + a1 + a2 + a3) % 25)


def brute_force_hyperprimary_class(a: CycInt) -> int | None:
    """Oracle for hyperprimary_class: the first c with v_lambda(a - c) >= 5."""
    a = CycInt(a)
    if not a:
        raise InputError("hyperprimary class of zero is undefined")
    for c in HYPERPRIMARY_CLASSES:
        d = a - CycInt(c)
        if not d or lambda_valuation(d) >= 5:
            return c
    return None
