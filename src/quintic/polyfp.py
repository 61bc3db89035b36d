"""Arithmetic over prime fields: dense polynomials over F_p, and lines and kernels over F5.

Polynomials are tuples of ints in [0, p), ascending degree, with no trailing
zeros; the zero polynomial is the empty tuple. Moduli must be monic. Vectors
over F5 are tuples of ints, and matrices are sequences of rows of any shape.
"""

from __future__ import annotations

from .errors import InputError


def trim(c) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def reduce_mod(u, modulus, p) -> tuple[int, ...]:
    """u mod (modulus, p) for monic modulus."""
    u = [x % p for x in u]
    d = len(modulus) - 1
    for i in range(len(u) - 1, d - 1, -1):
        c = u[i]
        if c:
            u[i] = 0
            for j in range(d):
                u[i - d + j] = (u[i - d + j] - c * modulus[j]) % p
    return trim(u)


def mulmod(u, v, modulus, p) -> tuple[int, ...]:
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    return reduce_mod(out, modulus, p)


def powmod(u, e: int, modulus, p) -> tuple[int, ...]:
    result = (1,)
    base = reduce_mod(u, modulus, p)
    while e:
        if e & 1:
            result = mulmod(result, base, modulus, p)
        base = mulmod(base, base, modulus, p)
        e >>= 1
    return result


def monic(u, p) -> tuple[int, ...]:
    u = trim(x % p for x in u)
    if not u:
        return ()
    inv = pow(u[-1], -1, p)
    return tuple(x * inv % p for x in u)


def gcd(u, v, p) -> tuple[int, ...]:
    """Monic gcd over F_p."""
    u = trim(x % p for x in u)
    v = trim(x % p for x in v)
    while v:
        # u mod v with v made monic
        vm = monic(v, p)
        u = reduce_mod(u, vm, p)
        u, v = v, u
    return monic(u, p)


def line_of(v) -> tuple[int, ...]:
    """The line through v over F5: v scaled so its first nonzero entry is 1."""
    for x in v:
        if x % 5:
            inv = pow(x, -1, 5)
            return tuple(y * inv % 5 for y in v)
    raise InputError("the zero vector spans no line")


def kernel(m) -> tuple[tuple[int, ...], ...]:
    """A basis of {v : m v = 0} over F5 from the reduced row echelon form of
    m: one vector per free column, 1 there and 0 at the other free columns."""
    rows = [[x % 5 for x in row] for row in m]
    width = len(rows[0])
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        # rows r.. are zero before column c, so line_of scales rows[hit][c] to 1
        pivot = line_of(rows[hit])
        rows[hit] = rows[r]
        rows[r] = pivot
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(x - row[c] * y) % 5 for x, y in zip(row, pivot)]
        pivots.append(c)
    basis = []
    for f in range(width):
        if f not in pivots:
            v = [0] * width
            v[f] = 1
            for row, c in zip(rows, pivots):
                v[c] = -row[f] % 5
            basis.append(tuple(v))
    return tuple(basis)
