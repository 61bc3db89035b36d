"""Genus-field constructions for Gamma = Q(n^(1/5)) and k = Q(n^(1/5), zeta5).

Absolute side: the genus field of Gamma is Gamma composed with the unique
degree-5 subfields M(p) of Q(zeta_p) for each prime p = 1 mod 5 dividing n;
M(p) is represented by the minimal polynomial of its Gaussian periods,
computed exactly from the cyclotomic numbers of order 5. Those come from
the Jacobi sum J(chi, chi) over the prime of Z[zeta5] above p in one integer
matrix product, so p is bounded only by the Miller-Rabin limit; the O(p)
count of the same numbers and the Theta(p^2) expansion over zeta_p
exponents are kept as oracles. The polynomial is read off the power sums
of the periods: four products by eta_0 in the ring spanned by 1 and the
periods, their traces, and Newton's identities. Three checks guard it: the
relations of the table, the exact division in Newton's identities, and a
root certificate at eta_0. Each polynomial f is certified irreducible
by one gcd at a small prime q: gcd(X^(q^2) - X, f) = 1 mod q. Relative
side: the genus field of k/k0 is k adjoined the fifth root of a product of
normalized prime elements; the candidate exponent patterns are enumerated
per family and filtered by the hyperprimary congruence, one representative
per Kummer class. absolute_genus, relative_genus and build_genus_report
return the lists and the dict that the genus document prints.

The ramified-prime count d feeds the ambiguous-rank formula
rank = d - 3 + q*; under the standing rank-1 hypothesis q* is inferred
as 1 + 3 - d rather than computed from unit norm equations.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from . import polyfp
from .cyclo import LAMBDA, ONE, ZETA, CycInt, galois_apply, hyperprimary_class
from .errors import (
    ContradictionWitness,
    InputError,
    InternalCheckError,
    NoAdmissibleGenerator,
    QstarOutOfRange,
)
from .intarith import is_prime
from .primes import SPLITTING_MOD_5, factor_rational_prime, primary_normalize
from .radicand import RadicandForm, Verdict


def period_polynomial(p: int) -> tuple[int, ...]:
    """Minimal polynomial of the five Gaussian periods of degree (p-1)/5.

    The ascending coefficients are period_coefficients(p, cyclotomic_numbers(p)),
    certified monic with X^4 coefficient 1 and irreducible over Q. p is
    bounded only by is_prime's deterministic Miller-Rabin limit.
    """
    if not is_prime(p) or p % 5 != 1:
        raise InputError(f"{p} is not a prime congruent to 1 mod 5")
    result = period_coefficients(p, cyclotomic_numbers(p))
    if result[5] != 1 or result[4] != 1:
        # trace of the periods is -1, so the X^4 coefficient must be 1
        raise InternalCheckError(f"period polynomial for p = {p} has a bad leading part")
    if _irreducibility_witness(result) is None:
        raise InternalCheckError(f"could not certify irreducibility for p = {p}")
    return result


#: row 5i + j, dotted with (p, 1, J1's four power-basis coordinates), is
#: 25 * (i, j); cyclotomic_numbers gives the sum it evaluates, and the tests
#: derive these rows again from that sum
_CYCLOTOMIC_ROWS = (
    (1, -14, 12, -3, -3, -3),
    (1, -4, -3, 7, -3, 2),
    (1, -4, -3, 2, 7, -3),
    (1, -4, -3, -3, -3, 7),
    (1, -4, -3, -3, 2, -3),
    (1, -4, -3, 7, -3, 2),
    (1, -4, -3, -3, 2, -3),
    (1, 1, 2, -3, 2, 2),
    (1, 1, 2, 2, -3, -3),
    (1, 1, 2, -3, 2, 2),
    (1, -4, -3, 2, 7, -3),
    (1, 1, 2, -3, 2, 2),
    (1, -4, -3, -3, -3, 7),
    (1, 1, 2, 2, -3, -3),
    (1, 1, 2, 2, -3, -3),
    (1, -4, -3, -3, -3, 7),
    (1, 1, 2, 2, -3, -3),
    (1, 1, 2, 2, -3, -3),
    (1, -4, -3, 2, 7, -3),
    (1, 1, 2, -3, 2, 2),
    (1, -4, -3, -3, 2, -3),
    (1, 1, 2, -3, 2, 2),
    (1, 1, 2, 2, -3, -3),
    (1, 1, 2, -3, 2, 2),
    (1, -4, -3, 7, -3, 2),
)


def cyclotomic_numbers(p: int) -> tuple[tuple[int, ...], ...]:
    """The cyclotomic numbers (i, j) of order 5 mod p, from a Jacobi sum.

    For a character chi of order 5 mod the prime p = 1 mod 5, (i, j) counts
    t in 1..p-2 with chi(t) = zeta^i and chi(t+1) = zeta^j. By Stickelberger,
    J1 = J(chi, chi) = u * pi * sigma3(pi) for pi = factor_rational_prime(p)[0]
    and some chi, where sigma_c is zeta -> zeta^c and u is the one unit
    +-zeta^k with J1 = -1 mod lambda^2 (Ireland-Rosen ch. 14;
    Berndt-Evans-Williams ch. 2-3 and 11). The table depends on chi only
    through its labels, and the period polynomial not at all.
    """
    pi = factor_rational_prime(p)[0].element
    x = pi * galois_apply(3, pi)
    c = x.c
    # zeta = 1 - lambda, so x = s - t * lambda mod lambda^2, and 5 = 0 there
    s = (c[0] + c[1] + c[2] + c[3]) % 5
    if s not in (1, 4):
        raise InternalCheckError(f"pi * sigma3(pi) above {p} is not +-1 mod lambda")
    # s = +-1, so x = s * zeta^k with k = t / s = t * s
    k = (c[1] + 2 * c[2] + 3 * c[3]) * s % 5
    j1 = ZETA ** (-k % 5) * (-x if s == 1 else x)
    if j1 * galois_apply(2, j1) != CycInt(p):
        raise InternalCheckError(f"J(chi, chi) above {p} times its conjugate is not {p}")
    return cyclotomic_numbers_from_jacobi_sum(p, j1)


def cyclotomic_numbers_from_jacobi_sum(p: int, j1: CycInt) -> tuple[tuple[int, ...], ...]:
    """The table (i, j) from J1 = J(chi, chi): one integer matrix product.

    With K(a, b) = sum over t in 1..p-2 of chi^a(t) * chi^b(t+1), character
    orthogonality gives 25 * (i, j) = sum over a, b mod 5 of
    zeta^-(ai + bj) * K(a, b). K(0, 0) = p - 2; K = -1 when exactly one of
    a, b, a + b is 0 mod 5; otherwise K(a, b) = J(chi^a, chi^b) (chi(-1) = 1
    as p = 1 mod 10), which is sigma_a(J1) when b/a is 1 or 3 mod 5 and
    sigma_2a(J1) when it is 2. The sum is linear in p, 1 and the coordinates
    of J1, which _CYCLOTOMIC_ROWS holds. The sum is rational for any J1 (it
    is a sum of traces), so the check is that 25 divides it: the tests show
    that a J1 off by any unit +-zeta^k fails it.
    """
    v = (p, 1, *j1.c)
    table = []
    for row in _CYCLOTOMIC_ROWS:
        q, r = divmod(sum(map(mul, row, v)), 25)
        if r:
            raise InternalCheckError(f"a cyclotomic number for p = {p} is not an integer")
        table.append(q)
    return tuple(tuple(table[i:i + 5]) for i in range(0, 25, 5))


def brute_force_cyclotomic_numbers(p: int, g: int) -> tuple[tuple[int, ...], ...]:
    """Oracle for cyclotomic_numbers: count (i, j) in one O(p) walk.

    With ind(x) = log_g(x) mod 5, (i, j) = #{t in 1..p-2 : ind(t) = i,
    ind(t+1) = j}, which is cyclotomic_numbers' table for the character
    chi(g) = zeta, up to relabelling. g must be a primitive root mod the
    prime p = 1 mod 5.
    """
    ind = bytearray(p)
    x = 1
    for i in range(p - 1):
        ind[x] = i % 5
        x = x * g % p
    cyc = [[0] * 5 for _ in range(5)]
    for t in range(1, p - 1):
        cyc[ind[t]][ind[t + 1]] += 1
    return tuple(map(tuple, cyc))


def period_coefficients(p: int, cyc: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Coefficients of prod_j (X - eta_j), ascending, from the cyclotomic numbers.

    With C_i = {x : chi(x) = zeta^i} the cosets of the index-5 subgroup of
    the units mod p, for the character chi behind the table, eta_i = sum
    over x in C_i of zeta_p^x. Elements of the ring spanned by 1 and
    eta_0..eta_4 are vectors (a, c_0..c_4) = a + sum c_k eta_k. With
    f = (p-1)/5, its structure constants are the cyclotomic numbers of
    order 5, (h, k) = cyc[h][k]. Substituting y = x*t in eta_i * eta_0 and
    splitting off t = -1 gives

        eta_i * eta_0 = f * [i = 0] + sum_k (-i, k) * eta_(i+k)
                      = f * [i = 0] + sum_m (i, m) * eta_m,

    since p = 1 mod 10 makes f even, so -1 lies in C_0, and (-i, m - i) =
    (i, m) (Gauss, Disquisitiones sec. VII; Berndt-Evans-Williams ch. 2-3).
    eta_0^0..eta_0^5 take four products by eta_0. The eta_j are the
    conjugates of eta_0, so the trace 5a - sum c_k of eta_0^k is the power
    sum s_k of the periods, and Newton's identities
    k*b_k = -(s_k + b_1 s_(k-1) + ... + b_(k-1) s_1) give the coefficient b_k
    of X^(5-k). Three checks raise InternalCheckError: the table relations
    of _cyclotomic_relations_hold, the exact division by k, and the root
    certificate that the polynomial vanishes at eta_0 in the ring.
    Relabelling the cosets permutes the periods, so the polynomial does not
    depend on the character behind the table;
    brute_force_period_coefficients is the independent Theta(p^2) oracle.
    """
    if not _cyclotomic_relations_hold(p, cyc):
        raise InternalCheckError(f"the cyclotomic numbers for p = {p} break their relations")
    f = (p - 1) // 5
    powers = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    for _ in range(4):
        a, *c = powers[-1]
        # the table is symmetric, so row m holds the (i, m) for i = 0..4
        eta = [sum(map(mul, row, c)) for row in cyc]
        eta[0] += a
        powers.append((f * c[0], *eta))
    sums = [5 * a - sum(c) for a, *c in powers]
    b = [1]
    for k in range(1, 6):
        q, r = divmod(-sum(map(mul, b, reversed(sums[1:k + 1]))), k)
        if r:
            raise InternalCheckError(f"a period power sum for p = {p} is not divisible by {k}")
        b.append(q)
    coeffs = tuple(reversed(b))
    at_eta = [sum(map(mul, coeffs, column)) for column in zip(*powers)]
    if _rational_coefficients([at_eta], p) != (0,):
        raise InternalCheckError(f"the period polynomial for p = {p} does not vanish at eta_0")
    return coeffs


def _cyclotomic_relations_hold(p: int, cyc: tuple[tuple[int, ...], ...]) -> bool:
    """(i, j) = (j, i) = (-i, j - i), and row i sums to f - [i = 0], f = (p-1)/5.

    These hold for the cyclotomic numbers of order 5 mod any prime
    p = 1 mod 10: row i counts the t in C_i with t + 1 in some C_j, which is
    every t in C_i but t = -1, in C_0 (Berndt-Evans-Williams ch. 2). A root
    certificate alone accepts some corrupted tables that these reject.
    """
    rows = tuple(map(tuple, cyc))
    f = (p - 1) // 5
    # (-i, j - i) = (i, j) says that row -i is row i rotated left by i
    return (rows == tuple(zip(*rows))
            and all(rows[-i] == rows[i][i:] + rows[i][:i] for i in range(5))
            and list(map(sum, rows)) == [f - 1, f, f, f, f])


def brute_force_period_coefficients(p: int, g: int) -> tuple[int, ...]:
    """Oracle for period_polynomial: Theta(p^2) expansion over zeta_p exponents.

    Shares no cyclotomic numbers with the fast path: the product of
    (X - eta_j) is expanded over length-p integer vectors of zeta_p-exponent
    counts, and the vanishing-sum relation (sum of all zeta_p^i = 0) is
    applied only when each coefficient is read off as a rational integer.
    g must be a primitive root mod the prime p = 1 mod 5.
    """
    cosets: list[list[int]] = [[] for _ in range(5)]
    x = 1
    for i in range(p - 1):
        cosets[i % 5].append(x)
        x = x * g % p
    # poly[k] = coefficient of X^k, as a zeta_p-exponent count vector
    poly: list[list[int]] = [[0] * p]
    poly[0][0] = 1
    for j in range(5):
        support = cosets[j]
        new = [[0] * p for _ in range(len(poly) + 1)]
        for k, vec in enumerate(poly):
            up = new[k + 1]
            down = new[k]
            for i, c in enumerate(vec):
                if c:
                    up[i] += c
                    for ex in support:
                        down[(i + ex) % p] -= c
        poly = new
    return _rational_coefficients(poly, p)


def _rational_coefficients(poly: list[list[int]], p: int) -> tuple[int, ...]:
    """Read each vector (a, c_1, c_2, ...) as a rational integer a - c_1.

    Both expansions write a coefficient as a + sum c_k * b_k over basis
    elements b_k (the zeta_p^i, or the eta_k) whose only rational relation
    is that they sum to -1, so the value is rational exactly when all c_k agree.
    """
    coeffs = []
    for vec in poly:
        tail = vec[1]
        if any(v != tail for v in vec[2:]):
            raise InternalCheckError(f"non-rational period coefficient for p = {p}")
        coeffs.append(vec[0] - tail)
    return tuple(coeffs)


def discriminant(coeffs: tuple[int, ...]) -> int:
    """disc(f) for monic f of degree n with ascending coefficients coeffs:
    (-1)^(n(n-1)/2) times the Sylvester resultant of f and f'."""
    n = len(coeffs) - 1
    rev = list(reversed(coeffs))
    drev = [i * coeffs[i] for i in range(n, 0, -1)]  # f', descending
    # the 2n - 1 rows of the Sylvester matrix: n - 1 shifts of f, then n of f'
    rows = [[0] * i + rev + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + drev + [0] * (n - 1 - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * _bareiss_det(rows)


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant, fraction-free Bareiss with row pivoting."""
    m = [row[:] for row in m]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _irreducibility_witness(coeffs: tuple[int, ...]) -> int | None:
    """A prime q modulo which the monic quintic is irreducible, or None.

    X^(q^2) - X is the product of the monic irreducibles over F_q of degree
    1 and 2 (Lidl-Niederreiter, Finite Fields, ch. 3), so gcd(X^(q^2) - X, f)
    = 1 exactly when f has no factor of degree at most 2 mod q; a repeated
    factor or a root is such a factor. The degrees of the irreducible factors
    are then at least 3 and sum to 5, so f is irreducible mod q, and a monic
    f that reduces to an irreducible is irreducible over Q. Gaussian-period
    quintics are cyclic, making such witnesses dense; the search over q < 200
    failing would itself be a bug.
    """
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
              131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199):
        f = polyfp.trim(c % q for c in coeffs)  # still monic of degree 5
        xq2 = list(polyfp.powmod(polyfp.powmod((0, 1), q, f, q), q, f, q))
        xq2 += [0] * (2 - len(xq2))
        xq2[1] -= 1  # X^(q^2) - X; gcd reduces it mod q
        if len(polyfp.gcd(xq2, f, q)) == 1:
            return q
    return None


def absolute_genus(form: RadicandForm) -> list[dict]:
    """The M(p) components of the genus field of Gamma, one per prime p = 1 mod 5
    dividing n, ascending, as the genus document lists them: p and the period
    polynomial's coefficients. Their number is r and the genus number is 5^r."""
    return [{"p": p, "coefficients": [str(c) for c in period_polynomial(p)]}
            for p in sorted(form.factorization) if p % 5 == 1]


def count_ramified_d(form: RadicandForm) -> int:
    """Number of primes of k0 ramified in k = k0(n^(1/5)).

    Each prime of k0 dividing the prime-to-5 part of n ramifies; lambda
    ramifies exactly when n is not hyperprimary (which covers both 5 | n
    and the non-hyperprimary coprime case, without double counting).
    """
    # the primes of the factorization are certified already: g is read off p mod 5 untested
    d = sum(SPLITTING_MOD_5[p % 5][1] for p in form.factorization if p != 5)
    if hyperprimary_class(CycInt(form.n)) is None:
        d += 1
    return d


def infer_qstar(form: RadicandForm, d: int) -> int:
    """q* back-solved from rank = d - 3 + q* under the rank-1 hypothesis.

    ``d`` is count_ramified_d(form).
    """
    if form.verdict is Verdict.NONE:
        raise InputError(f"{form.n} is not in any of the three families")
    q = 4 - d
    if q not in (0, 1, 2):
        raise QstarOutOfRange(
            f"q* = {q} for n = {form.n} (d = {d}, assumed rank 1) is outside {{0, 1, 2}}"
        )
    return q


def _powers(x: CycInt) -> tuple[CycInt, ...]:
    """x^0, ..., x^4, in three products."""
    out = [ONE, x]
    for _ in range(3):
        out.append(out[-1] * x)
    return tuple(out)


_LAMBDA_POWERS = _powers(LAMBDA)


#: Kummer class representatives (e with line_of(e) == e, its least multiple)
#: among the exponent patterns in 1..4, in lexicographic order, as (a, a1, a2):
#: Form I's, and Form III's (a1, a2) with lambda exponent a = 0
_FORM_I_EXPONENTS = tuple(e for e in product(range(1, 5), repeat=3) if polyfp.line_of(e) == e)
_FORM_III_EXPONENTS = tuple((0, *e) for e in product(range(1, 5), repeat=2) if polyfp.line_of(e) == e)


def relative_genus(form: RadicandForm) -> list[dict]:
    """Candidate Kummer generators for the relative genus field of k/k0, by family shape.

    Each w = lambda^a * prod(pi_i^a_i), k0(w^(1/5)) a candidate genus field,
    is listed as the genus document prints it: a, each pi_i with a_i, and w.

    Shapes by family (pi_i the primary-normalized primes above p, q inert):

      Form I    lambda^a * pi1^a1 * pi2^a2,  a, a1, a2 in 1..4
      Form II   q * pi_i^a,                  i in {1, 2}, a in 1..4
      Form III  pi1^a1 * pi2^a2,             a1, a2 in 1..4

    Generators coprime to lambda (forms II and III) must be hyperprimary;
    that congruence is invariant on Kummer classes, and one lexicographically
    smallest representative per class is returned. The lambda-divisible
    Form I keeps every exponent pattern (reduced to class representatives).
    The list is sorted, stably, on a followed by the primes' exponents. No
    candidate is checked to give an unramified extension of k.
    """
    if form.verdict is Verdict.NONE:
        raise InputError(f"{form.n} is not in any of the three families")
    pis = tuple(primary_normalize(q) for q in factor_rational_prime(form.p))
    pows = [_powers(pi.element) for pi in pis]
    # (lambda exponent, prime exponents, realization) of each candidate class
    # representative, from the powers above in at most two products each
    if form.verdict is Verdict.FORM_II:
        q_inert = factor_rational_prime(form.q)[0]
        candidates = [
            (0, ((q_inert, 1), (pi, a)), q_inert.element * pw[a])
            for pi, pw in zip(pis, pows)
            for a in range(1, 5)
        ]
    else:
        exps = _FORM_I_EXPONENTS if form.verdict is Verdict.FORM_I else _FORM_III_EXPONENTS
        (pi1, pi2), (pw1, pw2) = pis, pows
        candidates = [
            (a, ((pi1, a1), (pi2, a2)), _LAMBDA_POWERS[a] * pw1[a1] * pw2[a2])
            for a, a1, a2 in exps
        ]
    out = [(a, pe, w) for a, pe, w in candidates if a or hyperprimary_class(w) is not None]
    if not out:
        raise NoAdmissibleGenerator(
            f"no admissible Kummer generator for n = {form.n} ({len(candidates)} rejected)"
        )
    out.sort(key=lambda c: (c[0], *(k for _, k in c[1])))
    return [
        {"lambda_exp": a, "primes": [{**q.to_json(), "exponent": k} for q, k in pe], "w": w.to_json()}
        for a, pe, w in out
    ]


def build_genus_report(form: RadicandForm) -> dict:
    """The genus document of form; outside the three families it has no
    relative candidates and its rank fields are None."""
    components = absolute_genus(form)
    r = len(components)
    d = count_ramified_d(form)
    classified = form.verdict is not Verdict.NONE
    q = infer_qstar(form, d) if classified else None
    return {
        "n": form.n,
        "r": r,
        "genus_number": 5**r,
        "absolute_components": components,
        "relative_candidates": relative_genus(form) if classified else [],
        "d": d,
        "qstar_inferred": q,
        "rank_value": d - 3 + q if classified else None,
    }


def corollary_report(form: RadicandForm, h_gamma: int) -> dict:
    """The corollary document: consequences of 5 || h_Gamma, checked against r.

    When 5 divides h_Gamma exactly, at most one prime p = 1 mod 5 can divide
    n; r >= 2 contradicts the supplied class number. With r = 1 the genus
    field equals the Hilbert 5-class field of Gamma and the five composita
    k * HCF(conjugate of Gamma) coincide; with r = 0 they are distinct.
    """
    r = sum(1 for p in form.factorization if p % 5 == 1)
    exact = h_gamma % 5 == 0 and h_gamma % 25 != 0
    if not exact:
        statements = [f"5 does not divide h_Gamma = {h_gamma} exactly; no conclusion drawn"]
    elif r >= 2:
        raise ContradictionWitness(
            f"r = {r} primes = 1 mod 5 divide n = {form.n}, but 5^r | h_Gamma "
            f"forces r <= 1 when 5 divides h_Gamma = {h_gamma} exactly"
        )
    elif r == 1:
        statements = [
            "Gamma* = Gamma_5(1): the genus field is the Hilbert 5-class field of Gamma",
            "the composita k.Gamma_5(1) of the five conjugate quintic fields coincide",
        ]
    else:
        statements = [
            "r = 0: Gamma* = Gamma",
            "the five composita k.Gamma_5(1), ..., k.Gamma''''_5(1) are pairwise distinct",
        ]
    return {"n": form.n, "r": r, "h_gamma": h_gamma, "five_divides_exactly": exact, "statements": statements}


def load_class_number_table(path) -> dict[int, int]:
    """CSV lines "n,h_gamma"; '#' starts a comment, blank lines are skipped.

    Each n >= 2 may have one line, and each h_gamma must be >= 1.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    table: dict[int, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [x.strip() for x in line.split(",")]
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected 'n,h_gamma', got {raw!r}")
        try:
            n, h = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-integer entry {raw!r}") from exc
        if h < 1:
            raise InputError(f"{path}:{lineno}: h_gamma must be >= 1, got {raw!r}")
        if n < 2:
            raise InputError(f"{path}:{lineno}: n must be >= 2, got {raw!r}")
        if n in table:
            raise InputError(f"{path}:{lineno}: a second line for n = {n}, got {raw!r}")
        table[n] = h
    return table
