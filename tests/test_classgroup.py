import dataclasses
import json
from itertools import product

import pytest
from click.testing import CliRunner

from quintic.classgroup import (
    ADMISSIBLE_TYPES,
    ALL_LINES,
    CANONICAL_LATTICE,
    CANONICAL_SUBGROUPS,
    CANONICAL_TAU2,
    EXPECTED_CAPITULATION_TYPES,
    FIELD_NAMES,
    TAU2_PERMUTATION,
    ClassGroupModel,
    I2,
    ambiguous_subgroup,
    build_lattice,
    canonical_model,
    enumerate_capitulation_types,
    generator_certificate,
    invariant_violations,
    kernel_line,
    mat_mul,
    mat_poly,
    mat_pow,
    mat_vec,
    minus_eigenline,
    plus_eigenline,
    tau2_permutation,
)
from quintic.cli import main
from quintic.cyclo import CycInt
from quintic.errors import InputError, InternalCheckError, ModelInvariantError
from quintic.polyfp import line_of
from quintic.primes import factor_rational_prime
from quintic.radicand import Verdict, classify
from quintic.symbols import brute_force_symbol


def test_canonical_model_satisfies_the_relations():
    m = canonical_model()
    assert mat_pow(m.S, 5) == I2 and m.S != I2
    assert mat_pow(m.T, 4) == I2
    assert mat_mul(m.T, m.T) == ((1, 0), (0, 4))
    assert not invariant_violations(m.S, m.T)


def test_identity_sigma_action_is_rejected():
    with pytest.raises(ModelInvariantError):
        ClassGroupModel(I2, ((1, 0), (0, 3)))


def test_sigma_of_wrong_order_is_rejected():
    with pytest.raises(ModelInvariantError):
        ClassGroupModel(((2, 0), (0, 1)), ((1, 0), (0, 3)))


def test_tau_squared_needs_both_eigenvalues():
    with pytest.raises(ModelInvariantError):
        ClassGroupModel(((1, 1), (0, 1)), I2)


def test_ambiguous_subgroup_of_the_canonical_model():
    m = canonical_model()
    assert ambiguous_subgroup(m) == (1, 0)
    assert plus_eigenline(m) == (1, 0)
    assert minus_eigenline(m) == (0, 1)


@pytest.mark.parametrize("m", [I2, ((2, 0), (0, 3)), ((0, 0), (0, 0))])
def test_kernel_line_refuses_a_kernel_that_is_not_a_line(m):
    with pytest.raises(InputError):
        kernel_line(m)


def test_kernel_line_of_s_minus_i_is_the_fixed_line():
    mats = [((a, b), (c, d)) for a, b, c, d in product(range(5), repeat=4)]
    order5 = [S for S in mats if S != I2 and mat_pow(S, 5) == I2]
    assert len(order5) == 24
    for S in order5:
        fixed = [v for v in product(range(5), repeat=2) if v != (0, 0) and mat_vec(S, v) == v]
        s_minus_i = (((S[0][0] - 1) % 5, S[0][1]), (S[1][0], (S[1][1] - 1) % 5))
        assert mat_poly(S, (-1, 1)) == s_minus_i
        assert {line_of(v) for v in fixed} == {kernel_line(s_minus_i)}


def test_lattice_ordering_follows_the_labeling_rule():
    lines = build_lattice(canonical_model())
    assert lines == ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, 4))
    assert FIELD_NAMES[0].startswith("K1")
    assert CANONICAL_SUBGROUPS[0]["field"] == FIELD_NAMES[0]
    assert set(lines) == set(ALL_LINES)


def test_twisted_model_is_constructible_but_has_no_lattice():
    # T = diag(2, 1) satisfies every stated relation, yet tau^2 inverts the
    # ambiguous line; the arithmetic situation never realizes this twin and
    # the lattice builder refuses it.
    twisted = ClassGroupModel(((1, 1), (0, 1)), ((2, 0), (0, 1)))
    assert plus_eigenline(twisted) != ambiguous_subgroup(twisted)
    with pytest.raises(ModelInvariantError):
        build_lattice(twisted)


def test_tau2_permutation_is_the_expected_involution():
    m = canonical_model()
    perm = tau2_permutation(m)
    assert perm == (1, 2, 6, 5, 4, 3)
    assert perm[0] == 1 and perm[1] == 2
    # an involution made of exactly two transpositions
    assert all(perm[perm[i - 1] - 1] == i for i in range(1, 7))
    assert sum(1 for i, x in enumerate(perm, 1) if x != i) == 4


def test_model_survey_reads_the_fixed_lines_from_the_action(monkeypatch):
    # a sigma-action that fixed every vector would have an ambiguous
    # subgroup of rank 2; the survey must see that in S itself
    import quintic.classgroup as cg
    from quintic.selftest import SUITES

    monkeypatch.setattr(cg, "mat_vec", lambda a, v: v)
    failures = SUITES["capitulation"]().failures
    assert "order-5 fixed lines" in failures


def test_rejected_type_examples():
    # one witness per constraint: (2, 0, ...) has a uniform tail but an entry
    # outside {0, 1}, so it breaks only (b); (1, 1, 1, 1, 1, 0) has every
    # entry in {0, 1} but a tail that is not uniform, so it breaks only (c)
    types = enumerate_capitulation_types()
    assert len(set((2, 0, 0, 0, 0, 0)[1:])) == 1 and (2, 0, 0, 0, 0, 0) not in types
    assert set((1, 1, 1, 1, 1, 0)) <= {0, 1} and (1, 1, 1, 1, 1, 0) not in types


def test_certificate_form_one():
    cert = generator_certificate(classify(95))
    assert cert["form"] == Verdict.FORM_I.value
    assert cert["splitting"] == "19 O_k = P1^5 P2^5"
    fixed = cert["conditions"][0]
    assert "5" in fixed["description"] and "19" in fixed["description"]
    q = factor_rational_prime(19)[0]
    assert fixed["symbol"] == brute_force_symbol(CycInt(5), q)
    assert fixed["passed"] == (fixed["symbol"] != 0)
    assert cert["applicable"] is False
    assert cert["generators"] is None and cert["auxiliary_prime"] is None


def test_certificate_form_two():
    cert = generator_certificate(classify(57))
    assert cert["form"] == Verdict.FORM_II.value
    fixed = cert["conditions"][0]
    assert fixed["description"].startswith("3 ")
    q = factor_rational_prime(19)[0]
    assert fixed["symbol"] == brute_force_symbol(CycInt(3), q)
    assert fixed["passed"] == (fixed["symbol"] != 0)


def test_certificate_form_three():
    cert = generator_certificate(classify(149))
    assert cert["form"] == Verdict.FORM_III.value
    assert cert["splitting"] == "5 O_k = B1^4 B2^4 B3^4 B4^4 B5^4"
    (fixed,) = cert["conditions"]
    assert "5" in fixed["description"] and "149" in fixed["description"]
    assert cert["applicable"] is False and cert["generators"] is None


def test_certificate_conditions_match_the_oracle_for_rational_values():
    # the modulo-pi reading makes every rational value a residue at a
    # degree-2 prime, so these certificates consistently report themselves
    # inapplicable rather than asserting generators
    for n in (95, 57, 149):
        cert = generator_certificate(classify(n))
        assert cert["applicable"] is False
        assert all(c["symbol"] == 0 for c in cert["conditions"])


def test_certificate_rejects_unclassified():
    with pytest.raises(InputError):
        generator_certificate(classify(6))


def test_certificate_json_shape():
    doc = generator_certificate(classify(95))
    assert list(doc) == [
        "n",
        "form",
        "applicable",
        "conditions",
        "generators",
        "splitting",
        "auxiliary_prime",
    ]


@pytest.mark.parametrize("n", [95, 57, 149])
def test_certificate_raises_if_the_fixed_condition_ever_passes(n):
    # the certificate reads the symbol as 0 from p = 4 mod 5, where no rational
    # integer is a quintic non-residue; at p = 11, 1 mod 5, the condition could
    # pass, and such a family prime can only come from a broken classifier
    with pytest.raises(InternalCheckError):
        generator_certificate(dataclasses.replace(classify(n), p=11))


def test_certificate_condition_fails_for_every_classified_radicand():
    from quintic.radicand import is_fifth_power_free

    forms = [classify(n) for n in range(2, 3000) if is_fifth_power_free(n)]
    forms = [f for f in forms if f.verdict is not Verdict.NONE]
    assert len(forms) > 50
    for form in forms:
        cert = generator_certificate(form)
        assert cert["applicable"] is False and cert["conditions"][0]["symbol"] == 0


def test_served_capitulation_constants_match_the_oracles():
    types = enumerate_capitulation_types()
    assert EXPECTED_CAPITULATION_TYPES == types
    model = canonical_model()
    lines = build_lattice(model)
    assert CANONICAL_LATTICE == lines
    assert CANONICAL_TAU2 == tau2_permutation(model) == (1, 2, 6, 5, 4, 3)
    subgroups = [
        {"label": f"H{i}", "line": list(v), "field": field}
        for i, (v, field) in enumerate(zip(lines, FIELD_NAMES, strict=True), 1)
    ]
    served = {
        "admissible_types": [list(t) for t in types],
        "tau2_permutation": list(CANONICAL_TAU2),
        "subgroups": subgroups,
    }
    assert (ADMISSIBLE_TYPES, TAU2_PERMUTATION, CANONICAL_SUBGROUPS) == tuple(served.values())
    # every report serves these lists, so a report must leave them as they were
    res = CliRunner().invoke(main, ["report", "149"], catch_exceptions=False)
    cap = json.loads(res.output)["result"]["capitulation"]
    assert {key: cap[key] for key in served} == served
    assert (ADMISSIBLE_TYPES, TAU2_PERMUTATION, CANONICAL_SUBGROUPS) == tuple(served.values())
