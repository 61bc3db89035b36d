"""Exact-arithmetic analyzer for pure quintic fields Q(n^(1/5)).

Classifies radicands into the three rank-one candidate families, factors
them over Z[zeta5], evaluates quintic residue symbols, constructs absolute
and relative genus fields, checks the ambiguous-rank bookkeeping, and
enumerates the admissible capitulation types on a finite model of the
5-class group.

Importing the package loads none of its modules: each public name below is
imported from the module that defines it on first access (PEP 562), so
``quintic.cli`` starts without compiling code its command does not run.
"""

import importlib

__version__ = "0.1.0"

#: every public name, by the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CycInt", "EPSILON", "LAMBDA", "ONE", "ZETA", "ZERO", "canonical_associate", "euclid_divmod",
                     "exact_div", "galois_apply", "gcd", "hyperprimary_class", "lambda_valuation", "norm"), "cyclo"),
    **dict.fromkeys(("CycPrime", "factor_radicand", "factor_rational_prime", "primary_normalize"), "primes"),
    **dict.fromkeys(("RadicandForm", "Verdict", "classify", "enumerate_radicands", "is_fifth_power_free"),
                    "radicand"),
    **dict.fromkeys(("ResidueField", "brute_force_symbol", "quintic_symbol", "residue_field"), "symbols"),
    **dict.fromkeys(("absolute_genus", "build_genus_report", "corollary_report", "count_ramified_d", "infer_qstar",
                     "period_polynomial", "relative_genus"), "genus"),
    **dict.fromkeys(("ClassGroupModel", "ambiguous_subgroup", "build_lattice", "canonical_model",
                     "enumerate_capitulation_types", "generator_certificate", "model_survey", "tau2_permutation"),
                    "classgroup"),
}
__all__ = [*_EXPORTS]


def __getattr__(name):
    # any other name, a submodule's too, is an AttributeError, so `from quintic import radicand` imports it
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
