"""Lines and kernel bases over F5, against sympy and the Kummer-class rule."""

import random
from itertools import product

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from quintic.errors import InputError
from quintic.genus import _FORM_I_EXPONENTS, _FORM_III_EXPONENTS
from quintic.polyfp import kernel, line_of

F5 = GF(5)


def _rank(rows, width):
    if not rows:
        return 0
    return DomainMatrix([[F5(x) for x in row] for row in rows], (len(rows), width), F5).rank()


def _check_kernel(m):
    width = len(m[0])
    basis = kernel(m)
    for v in basis:
        assert len(v) == width and all(0 <= x < 5 for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) % 5 == 0 for row in m)
    assert _rank(basis, width) == len(basis) == width - _rank(m, width)
    oracle = DomainMatrix([[F5(x) for x in row] for row in m], (len(m), width), F5).nullspace()
    assert oracle.shape[0] == len(basis)
    # the two bases span one space
    assert _rank([*basis, *([int(x) for x in row] for row in oracle.to_Matrix().tolist())], width) == len(basis)


#: pivot rows already in place with a leading coefficient other than 1, which
#: a swap and a scaling written as one tuple assignment would lose
IN_PLACE_PIVOTS = [
    ((2, 4), (1, 2)),
    ((2, 0), (0, 3)),
    ((3, 1, 4), (0, 2, 2)),
    ((0, 4, 1, 0), (0, 0, 0, 0), (0, 0, 0, 3)),
]


@pytest.mark.parametrize("m", IN_PLACE_PIVOTS)
def test_kernel_with_the_pivot_row_in_place(m):
    _check_kernel(m)


def test_kernel_matches_sympy_on_seeded_low_rank_matrices():
    # a product of r x k and k x c factors has rank at most k; uniform random
    # matrices would almost all have full rank
    rng = random.Random(0xF5)
    for _ in range(2000):
        r, c = rng.randint(1, 6), rng.randint(1, 12)
        k = rng.randint(0, min(r, c))
        a = [[rng.randrange(5) for _ in range(k)] for _ in range(r)]
        b = [[rng.randrange(5) for _ in range(c)] for _ in range(k)]
        m = [tuple(sum(a[i][t] * b[t][j] for t in range(k)) % 5 for j in range(c)) for i in range(r)]
        _check_kernel(m)


def test_line_of_is_the_least_multiple():
    # the Kummer-class rule the exponent lists were first built with
    def least_multiple(v):
        return min(tuple(x * j % 5 for x in v) for j in range(1, 5))

    for k in range(1, 5):
        for v in product(range(5), repeat=k):
            if any(v):
                assert line_of(v) == least_multiple(v)
            else:
                with pytest.raises(InputError):
                    line_of(v)
    assert _FORM_I_EXPONENTS == tuple(e for e in product(range(1, 5), repeat=3) if least_multiple(e) == e)
    assert _FORM_III_EXPONENTS == tuple((0, *e) for e in product(range(1, 5), repeat=2) if least_multiple(e) == e)
    assert (len(_FORM_I_EXPONENTS), len(_FORM_III_EXPONENTS)) == (16, 4)
