"""Exact-arithmetic analyzer for pure quintic fields Q(n^(1/5)).

Classifies radicands into the three rank-one candidate families, factors
them over Z[zeta5], evaluates quintic residue symbols, constructs absolute
and relative genus fields, checks the ambiguous-rank bookkeeping, and
enumerates the admissible capitulation types on a finite model of the
5-class group.
"""

__version__ = "0.1.0"

from .cyclo import (  # noqa: F401
    CycInt,
    EPSILON,
    LAMBDA,
    ONE,
    ZETA,
    ZERO,
    canonical_associate,
    euclid_divmod,
    exact_div,
    galois_apply,
    gcd,
    hyperprimary_class,
    lambda_valuation,
    norm,
)
from .primes import (  # noqa: F401
    CycPrime,
    factor_radicand,
    factor_rational_prime,
    primary_normalize,
)
from .radicand import (  # noqa: F401
    RadicandForm,
    Verdict,
    classify,
    enumerate_radicands,
    is_fifth_power_free,
)
from .symbols import (  # noqa: F401
    ResidueField,
    brute_force_symbol,
    quintic_symbol,
    residue_field,
)
from .genus import (  # noqa: F401
    absolute_genus,
    build_genus_report,
    corollary_report,
    count_ramified_d,
    infer_qstar,
    period_polynomial,
    relative_genus,
)
from .classgroup import (  # noqa: F401
    ClassGroupModel,
    ambiguous_subgroup,
    build_lattice,
    canonical_model,
    enumerate_capitulation_types,
    generator_certificate,
    model_survey,
    tau2_permutation,
)
