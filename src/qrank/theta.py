"""Theta blocks j(z;q^p) for monomial arguments.

j(z;q) = (z;q)_oo (q/z;q)_oo (q;q)_oo = sum_{n in Z} (-1)^n q^C(n,2) z^n.

The bilateral sum is the production route.  It and the other two-sided
sums of the package (m(x,q,z) in `qrank.appell`, the Lerch sums behind
O_d(z;q)) go through the one routine `bilateral`, which stops each direction
by a convexity rule: once the convex lowest exponent of a term has passed its
minimum and reached the order, no later term can fall below it.  That holds
for any monomial z, including ones with negative or fractional q-exponent.
The triple product is kept as an independent oracle for tests and for the
catalog's two-route entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .reports import IdentityReport, compare_series
from .series import Monomial, QSeries, computed_to, eta_quotient, root_sum, shifted


def _base_exp(base) -> Fraction:
    if isinstance(base, Monomial):
        if not base.coeff_is_one:
            raise ValueError("theta base must be a pure power of q")
        p = base.q_exp
    else:
        p = Fraction(base)
    if p <= 0:
        raise ValueError("theta base exponent must be positive")
    return p


def binom2(n: int) -> int:
    """n(n-1)/2, valid for negative n as well (bilateral sums)."""
    return n * (n - 1) // 2


def bilateral(lowest, order):
    """Yield (n, lowest(n)) for every integer n with lowest(n) < order.

    `lowest(n)` is the smallest q-exponent term n contributes, and it must be
    convex in n: its differences lowest(n+1) - lowest(n) never decrease.
    The walk goes up from 0 and down from -1.  A direction stops at the first
    n with lowest(n) >= order and lowest(n +- 1) >= lowest(n): the step
    there is non-negative, so by convexity every later step is too, and no
    further term reaches below `order`.  Every caller's lowest exponent is a
    quadratic with positive leading coefficient, plus max(0, linear) where a
    divisor 1/(1 - u) may flip: p C(n,2) + n e for j(z;q^p),
    p C(r,2) + r e_z + max(0, -exp(u_r)) for m(x,q^p,z), and
    n^2 + kn + max(0, -(e_x + kn)) for the Lerch sums.  These are convex and
    unbounded, so both walks end.
    """
    for n, step in ((0, 1), (-1, -1)):
        low = lowest(n)
        while True:
            nxt = lowest(n + step)
            if low < order:
                yield n, low
            elif nxt >= low:
                break
            n, low = n + step, nxt


def theta_valuation(z: Monomial, base) -> Fraction:
    """The lowest exponent of j(z;q^p), min_n p C(n,2) + n exp(z).

    The quadratic is least at the integers next to 1/2 - exp(z)/p.  Two
    terms tie there only when exp(z) is a multiple of p, and they cancel
    only when j(z;q^p) vanishes identically, so this is the valuation of
    every theta block that can be inverted.  It is 0 for 0 <= exp(z) <= p
    and negative outside, never positive.
    """
    p = _base_exp(base)
    e = z.q_exp
    n = math.floor(Fraction(1, 2) - e / p)
    return min(p * binom2(n) + n * e, p * binom2(n + 1) + (n + 1) * e)


def product_loss(factors, shift: Monomial | None = None) -> Fraction:
    """How much further than a target order to expand every factor of
    m prod_i f_i^{e_i}, so that the product is valid below the target.
    `factors` holds (valuation of f_i, e_i) and m is the monomial `shift`.

    A product or an inverse keeps the least relative precision (order minus
    valuation) of its inputs, so factors known below O give a product known
    below exp(m) + sum_i e_i v_i + O - max_i v_i.  Theta blocks have
    valuation <= 0, so the loss comes from the shift and from factors of
    negative valuation next to higher ones: J_1 j(x;q) with exp(x) = -1
    loses 1, J_1 / j(x;q) gains 1.  The plan never asks for less than the
    target.
    """
    factors = list(factors)
    reach = sum(e * v for v, e in factors) - max(v for v, _ in factors)
    if shift is not None:
        reach += shift.q_exp
    return max(Fraction(0), -reach)


def theta_product(thetas, order, eta: dict | None = None,
                  shift: Monomial | None = None) -> QSeries:
    """shift * eta_quotient(eta) * prod j(z; q^p)^e over the (z, p, e) of
    `thetas` (e = 1 or -1), with every factor expanded `product_loss` beyond
    `order`, so that the first build is valid below `order`."""
    factors = [(theta_valuation(z, p), e) for z, p, e in thetas]
    if eta is not None:
        factors.append((0, 1))
    loss = product_loss(factors, shift)

    def build(o):
        o += loss
        out = None if eta is None else eta_quotient(eta, o)
        for z, p, e in thetas:
            f = theta_j(z, p, o) if e > 0 else theta_j(z, p, o).invert()
            out = f if out is None else out * f
        return out if shift is None else out.shift(shift)
    return computed_to(build, order)


@lru_cache(maxsize=None)
def theta_j(z: Monomial, base, order) -> QSeries:
    """j(z; q^p) truncated below `order`, from the bilateral theta sum."""
    p = _base_exp(base)
    order = Fraction(order)
    e = z.q_exp
    return root_sum(((-1 if n % 2 else 1, z.zeta_num * n, exp)
                     for n, exp in bilateral(lambda n: p * binom2(n) + n * e, order)),
                    z.zeta_den, order)


def theta_j2(z1: Monomial, z2: Monomial, base, order) -> QSeries:
    """j(z1, z2; q^p) = j(z1; q^p) j(z2; q^p)."""
    return theta_j(z1, base, order) * theta_j(z2, base, order)


def theta_triple_product(z: Monomial, base, order) -> QSeries:
    """(z;q^p)_oo (q^p/z;q^p)_oo (q^p;q^p)_oo by direct product accumulation.

    Requires 0 <= exp(z) < p so every factor is 1 + O(q^positive) beyond
    finitely many; this covers the oracle's sampling domain.
    """
    p = _base_exp(base)
    order = Fraction(order)
    if not (0 <= z.q_exp < p):
        raise ValueError("product oracle needs 0 <= exp(z) < base exponent")
    out = QSeries.one(order)
    k = 0
    while z.q_exp + k * p < order:
        factor = QSeries.one(order) - QSeries.from_monomial(
            z * Monomial.q(k * p), order)
        out = out * factor
        k += 1
    k = 1
    zinv = z.inverse()
    while k * p - z.q_exp < order:
        factor = QSeries.one(order) - QSeries.from_monomial(
            zinv * Monomial.q(k * p), order)
        out = out * factor
        k += 1
    k = 1
    while k * p < order:
        factor = QSeries.one(order) - QSeries.from_monomial(Monomial.q(k * p), order)
        out = out * factor
        k += 1
    return out


def is_theta_zero_pattern(z: Monomial, base) -> bool:
    """True when j(z;q^p) vanishes identically, i.e. z is an integral power
    of the base with trivial root-of-unity part."""
    p = _base_exp(base)
    return z.coeff_is_one and (z.q_exp / p).denominator == 1


def theta_shift_check(x: Monomial, n: int, base, order) -> IdentityReport:
    """Verify the two theta rewriting laws at one instance by expansion:
    j(q^n x; q) = (-1)^n q^{-C(n,2)} x^{-n} j(x; q) and
    j(x; q) = j(q/x; q) = -x j(1/x; q), all with q -> q^p.
    """
    p = _base_exp(base)
    order = Fraction(order)
    inst = {"x": x, "n": n, "base": Fraction(p)}
    shift_mono = Monomial.zeta(n, 2, -p * Fraction(binom2(n))) * x ** (-n)
    lhs1 = theta_j(x * Monomial.q(n * p), p, order)
    rhs1 = shifted(lambda o: theta_j(x, p, o), shift_mono, order)
    rep = compare_series("theta-base-shift", lhs1, rhs1, order, inst)
    if not rep.passed:
        return rep
    lhs2 = theta_j(x, p, order)
    rhs2a = theta_j(Monomial.q(p) / x, p, order)
    rep = compare_series("theta-base-shift", lhs2, rhs2a, order, inst)
    if not rep.passed:
        return rep
    rhs2b = -shifted(lambda o: theta_j(x.inverse(), p, o), x, order)
    return compare_series("theta-base-shift", lhs2, rhs2b, order, inst)
