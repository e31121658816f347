"""Randomized checks of the parameter-free identities.

Each test draws generic monomials (a root of unity of order <= 12 times a
q-power with exponent in [-12, 12] and denominator 1-3) and checks one
identity of Appell-Lerch series or theta functions (Hickerson-Mortenson,
Proc. LMS 2014) below an order of at most 12.  Non-generic draws must raise
NonGenericParameter instead of returning a series.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrank.appell import appell_m, delta, lerch_fold_lhs, o_d_direct
from qrank.catalog import theta_shift_check
from qrank.errors import NonGenericParameter
from qrank.series import Monomial, QSeries, shifted
from qrank.theta import (
    is_theta_zero_pattern,
    theta_j,
    theta_triple_product,
)

F = Fraction
Q = Monomial.q

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

exponents = st.integers(1, 3).flatmap(
    lambda r: st.builds(lambda k: F(k, r), st.integers(-12 * r, 12 * r)))
roots = st.integers(1, 12).flatmap(
    lambda den: st.builds(lambda num: (num, den), st.integers(0, den - 1)))
monomials = st.builds(lambda root, e: Monomial.zeta(root[0], root[1], e), roots, exponents)
bases = st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3)])
orders = st.integers(2, 12)


def _generic_m(x: Monomial, p: Fraction, z: Monomial) -> bool:
    return not (is_theta_zero_pattern(z, p) or is_theta_zero_pattern(x * z, p))


@PROPERTY
@given(monomials, bases, monomials, orders)
def test_m_flip(x, p, z, order):
    # m(x,q,z) = x^{-1} m(x^{-1}, q, z^{-1}), with q -> q^p
    assume(_generic_m(x, p, z))
    lhs = appell_m(x, p, z, order)
    rhs = shifted(lambda o: appell_m(x.inverse(), p, z.inverse(), o), x.inverse(), order)
    assert lhs.agrees_with(rhs, order)


@PROPERTY
@given(monomials, bases, monomials, orders)
def test_m_increment(x, p, z, order):
    # m(x,q,z) = x^{-1} - x^{-1} m(qx, q, z), with q -> q^p
    assume(_generic_m(x, p, z))
    lhs = appell_m(x, p, z, order)
    rhs = (QSeries.from_monomial(x.inverse())
           - shifted(lambda o: appell_m(x * Q(p), p, z, o), x.inverse(), order))
    assert lhs.agrees_with(rhs, order)


@PROPERTY
@given(monomials, bases, monomials, monomials, orders)
def test_m_change_of_z(x, p, z1, z0, order):
    # m(x,q,z1) - m(x,q,z0) = Delta(x,z1,z0;q), with q -> q^p
    assume(_generic_m(x, p, z1) and _generic_m(x, p, z0))
    lhs = appell_m(x, p, z1, order) - appell_m(x, p, z0, order)
    assert lhs.agrees_with(delta(x, z1, z0, p, order), order)


@PROPERTY
@given(monomials, st.integers(-4, 4), bases, orders)
def test_theta_shift(x, n, p, order):
    assert theta_shift_check(x, n, p, order).passed


@st.composite
def triple_product_args(draw):
    p = draw(bases)
    r = draw(st.integers(1, 3))
    e = F(draw(st.integers(0, math.ceil(p * r) - 1)), r)
    num, den = draw(roots)
    return Monomial.zeta(num, den, e), p


@PROPERTY
@given(triple_product_args(), orders)
def test_theta_triple_product(zp, order):
    # the bilateral sum j(z;q^p) against the product, for 0 <= exp(z) < p
    z, p = zp
    assert theta_j(z, p, order).agrees_with(theta_triple_product(z, p, order), order)


@st.composite
def non_generic_calls(draw):
    """A call whose parameters sit on a pole, as a zero-argument function."""
    kind = draw(st.sampled_from(["m-z", "m-xz", "delta", "o_d", "lerch"]))
    x, z1 = draw(monomials), draw(monomials)
    p = draw(bases)
    k = draw(st.integers(-4, 4))
    order = draw(orders)
    if kind == "m-z":
        return lambda: appell_m(x, p, Q(p * k), order)
    if kind == "m-xz":
        return lambda: appell_m(Q(p * k) / z1, p, z1, order)
    if kind == "delta":
        z0 = draw(st.sampled_from([Q(p * k), Q(p * k) / x]))
        assume(z0 != z1)
        return lambda: delta(x, z1, z0, p, order)
    if kind == "o_d":
        d = draw(st.integers(1, 5))
        return lambda: o_d_direct(d, Q(d * k), order)
    return lambda: lerch_fold_lhs(Q(k), order)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(non_generic_calls())
def test_non_generic_draws_raise(call):
    with pytest.raises(NonGenericParameter):
        call()
