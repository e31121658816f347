"""Randomized checks of the deviation theorems and of the folded rank
series under generic parameters.

The Appell-Lerch formulas for D_d(a, M) + D_d(a - 1, M) and for a single
D_d(a, M) hold for every generic choice of z', z'' and z0.  Each test draws
(d, a, M), an order of at most 15 and the three parameters, and compares the
formula route against the rank-table definition.  A parameter is generic
when its root of unity has an order P > 1 prime to 2Md, as in
`default_generics`: the roots the formulas touch have orders dividing 2Md,
so no pole is hit whatever the q-shift.  Setting a parameter that the
formula uses to 1 puts it on a pole, which must raise NonGenericParameter.
The Appell-Lerch form `s_bar_d` of (1 + z) O_d(z;q) is checked the same way
against the single-sum expansion.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrank.appell import o_d_direct, s_bar_d
from qrank.errors import NonGenericParameter
from qrank.overpartitions import (
    deviation_by_definition,
    deviation_pair_by_formula,
    pair_by_definition,
    single_deviation,
)
from qrank.series import Monomial, QSeries

F = Fraction

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=15)

shifts = st.integers(1, 3).flatmap(lambda r: st.builds(lambda k: F(k, r), st.integers(-r, r)))
orders = st.integers(2, 15)


@st.composite
def cases(draw, moduli=st.integers(2, 6)):
    """(d, a, M) and generic (z', z'', z0) sharing one root order P."""
    d = draw(st.integers(1, 4))
    M = draw(moduli)
    a = draw(st.integers(0, M - 1))
    P = draw(st.sampled_from([P for P in range(5, 14) if math.gcd(P, 2 * M * d) == 1]))
    units = st.sampled_from([j for j in range(1, P) if math.gcd(j, P) == 1])
    zp, zpp, z0 = (Monomial.zeta(draw(units), P, draw(shifts)) for _ in range(3))
    return d, a, M, zp, zpp, z0


@PROPERTY
@given(cases(), orders)
def test_pair_formula_matches_definition(case, order):
    d, a, M, zp, zpp, z0 = case
    lhs = deviation_pair_by_formula(d, a, M, order, zp=zp, zpp=zpp, z0=z0)
    assert lhs == pair_by_definition(d, a, M, order)


@PROPERTY
@given(cases(), orders)
def test_single_deviation_matches_definition(case, order):
    d, a, M, zp, _, z0 = case
    lhs = single_deviation(d, a, M, order, zp=zp, z0=z0)
    assert lhs == deviation_by_definition(d, a, M, order)


@PROPERTY
@given(cases(), orders, st.sampled_from(["zp", "zpp", "z0"]))
def test_pair_formula_non_generic_raises(case, order, name):
    # z' enters every case, z'' all but odd d with even M, z0 only odd d
    # with M >= 3 (the tail reads 1 <= j < M/2, none at M = 2)
    d, a, M, zp, zpp, z0 = case
    if name == "zpp" and d % 2 and M % 2 == 0 or name == "z0" and (d % 2 == 0 or M == 2):
        name = "zp"
    params = dict(zp=zp, zpp=zpp, z0=z0)
    params[name] = Monomial.one()
    with pytest.raises(NonGenericParameter):
        deviation_pair_by_formula(d, a, M, order, **params)


@PROPERTY
@given(cases(moduli=st.integers(3, 6)), orders, st.sampled_from(["zp", "z0"]))
def test_single_deviation_non_generic_raises(case, order, name):
    # M = 2 has no inner sum and reads neither parameter; every M >= 3
    # reads z', and z0 only for odd d
    d, a, M, zp, _, z0 = case
    if name == "z0" and d % 2 == 0:
        name = "zp"
    params = dict(zp=zp, z0=z0)
    params[name] = Monomial.one()
    with pytest.raises(NonGenericParameter):
        single_deviation(d, a, M, order, **params)


@st.composite
def fold_cases(draw):
    """d, a root of unity z of order N >= 3 and generic (z0, z') sharing one
    root order P > 1 prime to 2Nd."""
    d = draw(st.integers(1, 4))
    N = draw(st.integers(3, 8))
    z = Monomial.zeta(draw(st.sampled_from([j for j in range(1, N) if math.gcd(j, N) == 1])), N)
    P = draw(st.sampled_from([P for P in range(5, 14) if math.gcd(P, 2 * N * d) == 1]))
    units = st.sampled_from([j for j in range(1, P) if math.gcd(j, P) == 1])
    z0, zp = (Monomial.zeta(draw(units), P, draw(shifts)) for _ in range(2))
    return d, z, z0, zp


@PROPERTY
@given(fold_cases(), orders)
def test_s_bar_d_independent_of_generic_parameters(case, order):
    d, z, z0, zp = case
    lhs = (QSeries.one() + QSeries.from_monomial(z)) * o_d_direct(d, z, order)
    assert lhs == s_bar_d(d, z, z0, zp, order)


@PROPERTY
@given(fold_cases(), orders)
def test_s_bar_d_non_generic_raises(case, order):
    d, z, z0, _ = case
    with pytest.raises(NonGenericParameter):
        s_bar_d(d, z, z0, Monomial.one(), order)
