"""Finite model of the 5-class group as F5^2 with its Galois action.

The normal closure k has Galois group over Q generated by sigma (order 5)
and tau (order 4) with tau*sigma*tau^-1 = sigma^2. On a (5,5) class group
these act by matrices S, T over F5; the standing rank-1 hypothesis makes S
a non-identity unipotent. The six order-5 subgroups are the six lines of
F5^2; tau^2 splits the group into +1/-1 eigenlines, labels the subgroup
lattice, and constrains which capitulation patterns can occur in the six
unramified quintic extensions K1..K6. Lines and kernels come from polyfp's
F5 linear algebra; 2x2 products stay unrolled, as the survey makes 180,000.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InputError, InternalCheckError, ModelInvariantError
from .polyfp import kernel, line_of
from .radicand import RadicandForm, Verdict

Mat = tuple[tuple[int, int], tuple[int, int]]
Vec = tuple[int, int]

I2: Mat = ((1, 0), (0, 1))
Z2: Mat = ((0, 0), (0, 0))


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0]) % 5,
            (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % 5,
        ),
        (
            (a[1][0] * b[0][0] + a[1][1] * b[1][0]) % 5,
            (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % 5,
        ),
    )


def mat_pow(a: Mat, k: int) -> Mat:
    r = I2
    for _ in range(k):
        r = mat_mul(r, a)
    return r


def mat_det(a: Mat) -> int:
    return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % 5


def mat_poly(a: Mat, coeffs: tuple[int, ...]) -> Mat:
    """c0 I + c1 a + c2 a^2 + ... for coeffs = (c0, c1, c2, ...), by Horner."""
    r = Z2
    for c in reversed(coeffs):
        r = mat_mul(r, a)
        r = (((r[0][0] + c) % 5, r[0][1]), (r[1][0], (r[1][1] + c) % 5))
    return r


def mat_vec(a: Mat, v: Vec) -> Vec:
    return ((a[0][0] * v[0] + a[0][1] * v[1]) % 5, (a[1][0] * v[0] + a[1][1] * v[1]) % 5)


#: the six lines of F5^2 in a fixed order
ALL_LINES: tuple[Vec, ...] = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4))


def kernel_line(m: Mat) -> Vec:
    """The kernel of a rank-1 2x2 matrix, as a line (1, c) or (0, 1)."""
    basis = kernel(m)
    if len(basis) != 1:
        raise InputError(f"the kernel of {m} has dimension {len(basis)}, not 1")
    return line_of(basis[0])


@dataclass(frozen=True)
class ClassGroupModel:
    """Matrices S (action of sigma) and T (action of tau) on F5^2."""

    S: Mat
    T: Mat

    def __post_init__(self):
        bad = invariant_violations(self.S, self.T)
        if bad:
            raise ModelInvariantError("; ".join(bad))


def invariant_violations(S: Mat, T: Mat) -> list[str]:
    """All failures of the model relations for the pair (S, T)."""
    out = []
    if mat_pow(S, 5) != I2:
        out.append("S^5 != I")
    if S == I2:
        out.append("S = I (ambiguous subgroup would have rank 2)")
    if mat_det(T) == 0:
        out.append("T is singular")
        return out
    if mat_pow(T, 4) != I2:
        out.append("T^4 != I")
    # T is invertible here, so T S T^-1 = S^2 is T S = S^2 T
    if mat_mul(T, S) != mat_mul(mat_pow(S, 2), T):
        out.append("T S T^-1 != S^2")
    T2 = mat_mul(T, T)
    if (T2[0][0] + T2[1][1]) % 5 != 0 or mat_det(T2) != 4:
        out.append("T^2 does not have eigenvalues +1 and -1")
    return out


def canonical_model() -> ClassGroupModel:
    """The reference model: S unipotent, T = diag(1, 3)."""
    return ClassGroupModel(((1, 1), (0, 1)), ((1, 0), (0, 3)))


def ambiguous_subgroup(model: ClassGroupModel) -> Vec:
    """ker(S - I): the line of classes fixed by sigma."""
    return kernel_line(mat_poly(model.S, (-1, 1)))


def minus_eigenline(model: ClassGroupModel) -> Vec:
    """The line inverted by tau^2: ker(T^2 + I)."""
    return kernel_line(mat_poly(model.T, (1, 0, 1)))


def plus_eigenline(model: ClassGroupModel) -> Vec:
    """The line fixed pointwise by tau^2: ker(T^2 - I)."""
    return kernel_line(mat_poly(model.T, (-1, 0, 1)))


#: intermediate-field names in the fixed H1..H6 order
FIELD_NAMES = (
    "K1 = (k/k0)*",
    "K2 = k.Gamma5(1)",
    "K3 = k.Gamma'5(1)",
    "K4 = k.Gamma''5(1)",
    "K5 = k.Gamma'''5(1)",
    "K6 = k.Gamma''''5(1)",
)


def build_lattice(model: ClassGroupModel) -> tuple[Vec, ...]:
    """The six order-5 subgroups H1..H6 as lines, in label order.

    H1 is the ambiguous line (fixed by S), H2 the tau^2-inverted line; the
    remaining four lines are H3..H6 in lexicographic order of their
    normalized directions (any relabeling of those four is a symmetry of
    the model).
    """
    h1 = ambiguous_subgroup(model)
    h2 = minus_eigenline(model)
    if h1 == h2:
        raise ModelInvariantError(
            "the ambiguous line is inverted by tau^2; this pair cannot model the "
            "arithmetic situation (ambiguous classes descend from the real subfield "
            "and are tau^2-fixed)"
        )
    rest = sorted(v for v in ALL_LINES if v not in (h1, h2))
    return (h1, h2, *rest)


def tau2_permutation(model: ClassGroupModel) -> tuple[int, ...]:
    """Permutation induced by tau^2 on H1..H6 (1-indexed images)."""
    lines = build_lattice(model)
    T2 = mat_mul(model.T, model.T)
    return tuple(lines.index(line_of(mat_vec(T2, v))) + 1 for v in lines)


def model_survey() -> dict[str, bool]:
    """Check the ambiguous/principal-genus identities over all valid pairs, by name.

    The order-5 matrices S are the 24 non-identity unipotents, and each
    must fix exactly one line, the kernel line of S - I (the rank-1
    hypothesis); 480 pairs (S, T) satisfy the model relations. For every
    pair, ker(S - I) = im(S - I), read as (S - I)^2 = 0, and tau^2 carries
    it to itself, by +1 or -1 (it is one of the lines the induced
    permutation fixes).
    Whether tau^2 restricts to +1 or -1 on that line is NOT decided by the
    matrix relations: both happen, in equal numbers. The arithmetic situation
    realizes the +1 half (ambiguous classes are tau^2-fixed, a fact imported
    from the strong-ambiguity theory, not from linear algebra); the canonical
    model lies in that half. The survey also checks the repaired ambiguity
    operator S^3 + 3S^2 + 2S - I (it collapses to S - I for unipotent S over
    F5): it maps into the ambiguous line, read as (S - I)(S^3 + ...) = 0.
    """
    mats = [((a, b), (c, d)) for a in range(5) for b in range(5) for c in range(5) for d in range(5)]
    order5 = [m for m in mats if m != I2 and mat_pow(m, 5) == I2]
    pairs = keqi = pfix = pinv = o5dim = 0
    amb_ok = True
    for S in order5:
        SI = mat_poly(S, (-1, 1))
        ker = kernel_line(SI)
        ker_is_im = mat_mul(SI, SI) == Z2
        dim_one = [v for v in ALL_LINES if mat_vec(S, v) == v] == [ker]
        o5dim += dim_one
        amb_ok &= mat_mul(SI, mat_poly(S, (-1, 2, 3, 1))) == Z2
        for T in mats:
            if invariant_violations(S, T):
                continue
            pairs += 1
            keqi += ker_is_im
            w = mat_vec(mat_mul(T, T), ker)
            pfix += w == ker
            pinv += w == ((-ker[0]) % 5, (-ker[1]) % 5)
    return {
        "pair count": pairs == 480,
        "principal genus": keqi == pairs,
        "tau2 sign split": pfix == pinv == 240,
        "ambiguity operator": amb_ok,
        "order-5 fixed lines": len(order5) == o5dim == 24,
    }


def enumerate_capitulation_types() -> tuple[tuple[int, ...], ...]:
    """All admissible capitulation 6-tuples over {0..6}, ascending.

    Entry i_j = 0 means every class capitulates in K_j; i_j in 1..6 means
    exactly the cyclic subgroup H_{i_j} does. Constraints:

      (a) each K_j has a nontrivial capitulation kernel -- automatic in
          this encoding, since every entry value names a nontrivial kernel;
      (b) the ambiguous subgroup H1 capitulates in every K_j, forcing
          i_j in {0, 1};
      (c) the tau^2 conjugacy of K2..K6 forces entries 2..6 to agree.

    Exactly four tuples survive (b) and (c).
    """
    return tuple(
        t for t in product(range(7), repeat=6) if all(e in (0, 1) for e in t) and len(set(t[1:])) == 1
    )


#: what enumerate_capitulation_types() returns: i1 in {0, 1}, and i2..i6 all
#: equal and in {0, 1}
EXPECTED_CAPITULATION_TYPES = (
    (0, 0, 0, 0, 0, 0),
    (0, 1, 1, 1, 1, 1),
    (1, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
)
#: build_lattice(canonical_model()) and tau2_permutation(canonical_model()),
#: the same for every classified radicand; the capitulation suite checks all
#: three literals against those oracles
CANONICAL_LATTICE = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4))
CANONICAL_TAU2 = (1, 2, 6, 5, 4, 3)

#: report's admissible_types, tau2_permutation and subgroups lists, built once
#: and shared by every report
ADMISSIBLE_TYPES = [list(t) for t in EXPECTED_CAPITULATION_TYPES]
TAU2_PERMUTATION = list(CANONICAL_TAU2)
CANONICAL_SUBGROUPS = [
    {"label": f"H{i+1}", "line": list(v), "field": FIELD_NAMES[i]} for i, v in enumerate(CANONICAL_LATTICE)
]


TAU2_PROOF_NOTE = (
    "tau^2 permutes the six intermediate fields as an involution: K1 and K2 are "
    "fixed and the remaining fields swap in two 2-cycles. A 5-cycle account of "
    "this action on K2..K6 (K2->K4->K6->K3->K5->K2) is incompatible with "
    "tau^4 = 1 and is superseded by the computed involution."
)

RESIDUE_READING_NOTE = (
    "residue conditions at p = -1 mod 5 are evaluated in the residue field "
    "F_{p^2} of a prime above p; every rational integer is a fifth power "
    "there (the multiplicative group mod p has order coprime to 5 and lies "
    "inside the fifth powers of F_{p^2}), so such a condition on a rational "
    "value cannot hold and the certificate reports itself inapplicable. The "
    "alternative naive reading modulo p is vacuous in the opposite "
    "direction: x -> x^5 is a bijection mod p."
)


def generator_certificate(form: RadicandForm) -> dict:
    """The family's fixed residue condition, decided; always inapplicable.

    Forms I and II would take generators [P1] above p and [L]^(1-tau^2)
    when 5, resp. q, is a quintic non-residue mod p; Form III would take
    [B1], [B2] above 5 when 5 is. But every family prime p is 4 mod 5
    (Form III's is 24 mod 25), so a prime above p has residue field F_{p^2},
    and for a rational a prime to p, a^((p^2-1)/5) = (a^(p-1))^((p+1)/5) = 1:
    the symbol is 0 (RESIDUE_READING_NOTE). So the fixed condition never
    holds and no generators are emitted. A family prime of another class,
    where it could hold, would expose a classifier bug.
    """
    if form.verdict is Verdict.NONE:
        raise InputError(f"{form.n} is not in any of the three families")
    p = form.p
    if form.verdict is Verdict.FORM_III:
        fixed_value, splitting = 5, "5 O_k = B1^4 B2^4 B3^4 B4^4 B5^4"
    else:
        fixed_value = 5 if form.verdict is Verdict.FORM_I else form.q
        splitting = f"{p} O_k = P1^5 P2^5"
    if p % 5 != 4:
        raise InternalCheckError(f"the family prime {p} of {form.n} is {p % 5} mod 5, not 4")
    return {
        "n": form.n,
        "form": form.verdict.value,
        "applicable": False,
        "conditions": [
            {"description": f"{fixed_value} is not a quintic residue modulo {p}", "symbol": 0, "passed": False}
        ],
        "generators": None,
        "splitting": splitting,
        "auxiliary_prime": None,
    }
