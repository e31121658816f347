"""Appell-Lerch series m(x,q,z) and the derived Delta, Psi, Lambda blocks,
plus the direct expansions of the rank generating function O_d(z;q).

Every free parameter is a Monomial (root of unity times a rational power of
q), which makes each divisor 1/(1 - u) decidable.  The formula side
divides only through `qrank.theta.theta_quotient`, each sum of theta
quotients one quotient with its shared divisors in the node above the
terms that share them: m(x,q,z) is j(z;q^p) over one `MFamily` node
(`m_terms`), its bilateral start planned and expanded on integers with no
node per term, Psi three blocks over its t-sum (`psi_node`), Lambda
j(z0;q^2) over the Psi node and the group of its d Deltas, and S_d(z;q)
the block 1 - z over the nodes 1, m and Lambda (a shifted Psi for even d).

The oracle side, O_d(z;q) and the Lerch-sum fold, divides by j(q;q^2) as
the eta quotient J_2/J_1^2 and never reaches `theta_quotient`.  The folded
series (1+z) O_d(z;q) is the single sum times 1 - z (`s_d_direct`), and
O_d multiplies it by a closed form of 1/(1+z), so the oracle takes no
series or field inverse.  On this side `_geometric` turns
w zeta_L^k q^e / (1 - u) into (weight, zeta-index, exponent) terms, which
`qrank.series.root_sum` adds up over the integers, in three cases:
- exp(u) > 0: the geometric series sum_{j>=0} u^j, each step adding exp(u)
  to the exponent and the zeta-index of u to the index;
- exp(u) < 0: the flip 1/(1 - u) = -u^{-1}/(1 - u^{-1}), the same steps
  with 1/u from j = 1 on and the sign changed;
- exp(u) = 0: u is a root of unity c; of order N > 1 it gives the constant
  1/(1 - c) = -(1/N) sum_{j<N} j c^j, and c = 1 is a pole that raises
  NonGenericParameter.

The two-sided sums, the terms of m(x,q,z) and the Lerch sums behind
O_d(z;q), run through `qrank.theta.bilateral`.  The walk stops where a
convex lowest exponent has passed its minimum at or above the order: for
m the exponent of q^{p C(r,2)} z^r, and for the Lerch sums the lowest
exponent a term reaches, a quadratic in the summation index plus
max(0, -exp(u)) from the flip of 1/(1 - u).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .cyclotomic import inverse_one_plus
from .errors import NonGenericParameter
from .series import (PBAR_ETA, Monomial, QSeries, eta_quotient, exact_below, linear_sum,
                     root_sum, shift_loss)
from .theta import MFamily, _base_exp, bilateral, binom2, is_theta_zero_pattern, theta_quotient

F = Fraction


def _geometric(w, k: int, exp: Fraction, u: Monomial, L: int, order: Fraction):
    """Yield the (weight, zeta_L-index, exponent) terms of
    w zeta_L^k q^exp / (1 - u) below `order`, for `root_sum`; exp is an int
    or a Fraction, and when it and exp(u) are integral the walk steps on
    ints, below ceil(order)."""
    e, ku = u.q_exp, u.zeta_num * (L // u.zeta_den)
    if not e:
        if u.coeff_is_one:
            raise NonGenericParameter("divisor 1 - %s vanishes" % u)
        # u = c of order N > 1: 1/(1 - c) = -(1/N) sum_{j<N} j c^j
        N = u.zeta_den
        if exp < order:
            for j in range(1, N):
                yield w * F(-j, N), k + j * ku, exp
        return
    if e.denominator == 1 == exp.denominator:
        e, exp, order = e.numerator, exp.numerator, -(-order.numerator // order.denominator)
    if e < 0:
        # 1/(1 - u) = -u^{-1}/(1 - u^{-1}), starting at u^{-1}
        w, e, ku = -w, -e, -ku
        k, exp = k + ku, exp + e
    while exp < order:
        yield w, k, exp
        k, exp = k + ku, exp + e


# ---------------------------------------------------------------------------
# m(x, q, z)
# ---------------------------------------------------------------------------


def m_terms(x: Monomial, base, z: Monomial, order, shift=Monomial.one(), weight=1) -> MFamily:
    """The start of m(x, q^p, z) over its divisor j(z;q^p), times shift and
    the int weight: sum_r (-1)^r q^{p C(r,2)} z^r / (1 - q^{p(r-1)} x z) as
    one `MFamily`, over every r whose q^{p C(r,2)} z^r lies below the order,
    a superset of the terms the quotient uses.  The family must sit below
    j(z;q^p), whose field it takes for every z^r.  Raises
    NonGenericParameter when z or xz is an integral power of q^p."""
    p = _base_exp(base)
    # genericity: neither z nor xz may be an integral power of the base
    if is_theta_zero_pattern(z, p):
        raise NonGenericParameter("z = %s is an integral power of the base" % z)
    xz = x * z
    if is_theta_zero_pattern(xz, p):
        raise NonGenericParameter("xz = %s is an integral power of the base" % xz)
    # the walk in steps of q^(1/g), on ints
    g = math.lcm(p.denominator, z.q_exp.denominator, order.denominator)
    P, E, top = (v.numerator * (g // v.denominator) for v in (p, z.q_exp, order))
    return MFamily(xz, p, z, [r for r, _ in bilateral(lambda r: P * binom2(r) + r * E, top)],
                   shift, weight)


@exact_below
def appell_m(x: Monomial, base, z: Monomial, order) -> QSeries:
    """m(x, q^p, z) = (1/j(z;q^p)) sum_r (-1)^r q^{p C(r,2)} z^r / (1 - q^{p(r-1)} x z).

    One theta quotient, its start the one family of `m_terms`, so m lives in
    Q(zeta_lcm(ord x, ord z))."""
    return theta_quotient((), ((z, _base_exp(base)),), order, start=[m_terms(x, base, z, order)])


# ---------------------------------------------------------------------------
# Delta and Psi
# ---------------------------------------------------------------------------


@exact_below
def delta(x: Monomial, z1: Monomial, z0: Monomial, base, order) -> QSeries:
    """Delta(x, z1, z0; q^p) = z0 J_1^3 j(z1/z0) j(x z0 z1) / (j(z0) j(z1) j(x z0) j(x z1)),
    everything at base q^p.  Equal to m(x,q^p,z1) - m(x,q^p,z0)."""
    p = _base_exp(base)
    if z1 == z0:
        # numerator factor j(1;q^p) vanishes identically
        return QSeries.zero(order)
    return theta_quotient(((z1 / z0, p), (x * z0 * z1, p)),
                          ((z0, p), (z1, p), (x * z0, p), (x * z1, p)),
                          order, eta={p: 3}, shift=z0)


def psi_node(k: int, n: int, x: Monomial, z: Monomial, zp: Monomial, base,
             weight=1, over=None) -> tuple:
    """weight * Psi_k^n(x, z, z'; q^p) as a node: its t-sum of quotients
    j(a_t) j(b_t) / j(d_t) q^tau_t under -x^k z^{k+1} J_{n^2}^3 over
    j(z;q^p) j(z';q^{p n^2}) j(c;q^{p n^2}), less `over`, one of those
    three, left for the node above to divide by."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    p = _base_exp(base)
    pn2 = p * n * n
    if p.denominator == 1:
        p = p.numerator  # the exponents below on ints
    c_arg = -(Monomial.q(p * (binom2(n) - n * k)) * (-x) ** n * zp)
    mz, xz_n = -z, (x * z) ** n
    a_head = -(mz ** n / zp)
    terms = []
    for t in range(n):
        a_arg = Monomial.q(p * (binom2(n + 1) + n * k + n * t)) * a_head
        d_arg = Monomial.q(p * n * t) * xz_n
        t_mono = Monomial.q(p * (binom2(t + 1) + k * t)) * mz ** t
        terms.append((((a_arg, pn2), (d_arg * zp, pn2)), ((d_arg, pn2),), t_mono))
    den = [(z, p), (zp, pn2), (c_arg, pn2)]
    if over is not None:
        den.remove(over)
    return (), tuple(den), -(x ** k) * z ** (k + 1), weight, {pn2: 3}, terms


def _quotient(node, order) -> QSeries:
    """A node of weight 1 as one theta quotient, valid below `order`."""
    num, den, shift, _, eta, start = node
    return theta_quotient(num, den, order, eta, shift, start)


@exact_below
def psi(k: int, n: int, x: Monomial, z: Monomial, zp: Monomial, base, order) -> QSeries:
    """Psi_k^n(x, z, z'; q^p), the quotient of `psi_node`."""
    return _quotient(psi_node(k, n, x, z, zp, base), order)


# ---------------------------------------------------------------------------
# Lambda (odd d)
# ---------------------------------------------------------------------------


def _lam_node(d: int, z: Monomial, z0: Monomial, zp: Monomial, weight=1) -> tuple:
    """weight * Lambda(d, z, z0, z') for odd d as a node: the prefactor
    (-1)^{(d+1)/2} q^{-(d-1)^2/4} z^{(d-1)/d} (z^{1/d} on the canonical
    branch) over j(z0;q^2), which Psi and each Delta(zeta_d^{-2t} x,
    zeta_d^t z1, z0; q^2) share, above the Psi node and the group of the
    Deltas (weight 1/d, J_2^3, shift z0, zeta_d^{-t} in each term's shift)."""
    if d < 1 or d % 2 == 0:
        raise ValueError("Lambda is defined for odd d >= 1")
    w = z.root(d)
    pref = Monomial.zeta((d + 1) // 2, 2, -F((d - 1) ** 2, 4)) * w ** (d - 1)
    x_head = w ** (-2) * Monomial.q(d)
    z1 = w * Monomial.q(-F(d - 1, 2))
    terms = []
    for t in range(d):
        x, z1_t = Monomial.zeta(-2 * t, d) * x_head, Monomial.zeta(t, d) * z1
        if z1_t != z0:  # else the numerator j(z1_t/z0) = j(1) vanishes identically
            xz0 = x * z0
            terms.append((((z1_t / z0, 2), (xz0 * z1_t, 2)),
                          ((z1_t, 2), (xz0, 2), (x * z1_t, 2)), Monomial.zeta(-t, d)))
    parts = [psi_node((d - 1) // 2, d, x_head, z0, zp, 2, over=(z0, 2)),
             ((), (), z0, F(1, d), {2: 3}, terms)]
    return (), ((z0, 2),), pref, weight, None, parts


@exact_below
def lam(d: int, z: Monomial, z0: Monomial, zp: Monomial, order) -> QSeries:
    """Lambda(d, z, z0, z') = prefactor * (Psi + (1/d) sum_t zeta_d^{-t} Delta_t)
    for odd d, one quotient (`_lam_node`)."""
    return _quotient(_lam_node(d, z, z0, zp), order)


# ---------------------------------------------------------------------------
# rank generating function expansions
# ---------------------------------------------------------------------------


def _lerch_sum(k: int, x: Monomial, order: Fraction) -> QSeries:
    """sum_n (-1)^n q^{n^2+kn} / (1 - x q^{kn}) below `order`, for k >= 1.

    Callers rule out the poles x q^{kn} = 1 first, each with its own message.
    """
    e = x.q_exp
    if e.denominator == 1:
        e = e.numerator  # then every lowest exponent is an int

    def lowest(n: int) -> Fraction | int:
        return n * n + k * n + max(0, -(e + k * n))  # shift_loss(x q^(kn))

    return root_sum((t for n, _ in bilateral(lowest, order)
                     for t in _geometric(-1 if n % 2 else 1, 0, n * n + k * n,
                                         x * Monomial.q(k * n), x.zeta_den, order)),
                    x.zeta_den, order)


def _check_rank_args(d: int, z: Monomial) -> None:
    """Reject d < 1 and the poles z q^(dn) = 1 of the Lerch sum's divisors."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if z.coeff_is_one and (z.q_exp / d).denominator == 1:
        raise NonGenericParameter("z = %s hits a divisor pole" % z)


def _inverse_one_plus(z: Monomial, order) -> QSeries:
    """1/(1+z) below `order`, in z's own field Q(zeta_n), n = ord(z), with
    no series or field inverse.  For a root of unity z it is the constant
    `qrank.cyclotomic.inverse_one_plus`; with a q-part it is the geometric
    series sum_j (-z)^j, or sum_{j>=1} (-1)^(j-1) z^-j when exp(z) < 0,
    written (1 - z) / (1 - z^2) so that `_geometric` walks it in Q(zeta_n)."""
    if not z.q_exp:
        return QSeries.scalar(inverse_one_plus(z.zeta_num, z.zeta_den), order)
    order, u = F(order), z * z
    return root_sum(chain(_geometric(1, 0, 0, u, z.zeta_den, order),
                          _geometric(-1, z.zeta_num, z.q_exp, u, z.zeta_den, order)),
                    z.zeta_den, order)


@exact_below
def s_d_direct(d: int, z: Monomial, order) -> QSeries:
    """(1+z) O_d(z;q) from its single-sum form:
    (1-z) * (1 + 2z/j(q;q^2) * sum_n (-1)^n q^{n^2+dn} / (1 - z q^{dn})).

    The oracle side of `rank-fold` and `rank-residue-average`, and the
    numerator of `o_d_direct`; it never touches the m/Psi/Lambda machinery.
    Unlike O_d it has no pole at z = -1.
    """
    _check_rank_args(d, z)
    # 1 - z and the shift by z each lose -exp(z)
    inner = order + 2 * shift_loss(z)
    s = _lerch_sum(d, z, inner)
    core = 1 + (s * eta_quotient(PBAR_ETA, inner)).shift(z).scale(2)
    return core * (QSeries.one() - QSeries.from_monomial(z))


@exact_below
def o_d_direct(d: int, z: Monomial, order) -> QSeries:
    """O_d(z;q) from its single-sum form:
    (1-z)/(1+z) * (1 + 2z/j(q;q^2) * sum_n (-1)^n q^{n^2+dn} / (1 - z q^{dn})),
    that is `s_d_direct` times the closed form `_inverse_one_plus` of 1/(1+z).

    This is the independent expansion used as the oracle for every deviation
    identity; it never touches the m/Psi/Lambda machinery.  1/(1+z) starts
    at q^loss, loss = max(0, -exp(z)), and S_d at q^-loss or later, so S_d
    is needed below order - loss and 1/(1+z) below order + loss.
    """
    _check_rank_args(d, z)
    if z == Monomial.minus_one():
        raise NonGenericParameter("z = -1 is a pole of the (1+z) prefactor")
    loss = shift_loss(z)
    return s_d_direct(d, z, order - loss) * _inverse_one_plus(z, order + loss)


@exact_below
def o_d_original(d: int, z: Monomial, order) -> QSeries:
    """O_d(z;q) from the symmetric double-divisor form:
    (J_2/J_1^2) (1 + 2 sum_{n>=1} (1-z)(1-1/z)(-1)^n q^{n^2+dn}
                                   / ((1-z q^{dn})(1-q^{dn}/z))).

    Valid at z = -1, where the single-sum form has a removable prefactor pole;
    this is the route used for O_d(-1;q).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if z.coeff_is_one and z.q_exp == 0:
        raise NonGenericParameter("z = 1 is excluded")
    poly = (QSeries.one() - QSeries.from_monomial(z)) * \
        (QSeries.one() - QSeries.from_monomial(z.inverse()))
    L = z.zeta_den
    inner = order + abs(z.q_exp)  # poly starts at q^{-|exp z|}
    terms = [(1, QSeries.one())]
    n = 1
    while n * n + d * n < inner:
        a = _geometric(-1 if n % 2 else 1, 0, n * n + d * n, z * Monomial.q(d * n), L, inner)
        b = _geometric(1, 0, 0, z.inverse() * Monomial.q(d * n), L, inner)
        terms.append((2, root_sum(a, L, inner) * root_sum(b, L, inner) * poly))
        n += 1
    return linear_sum(terms, inner) * eta_quotient(PBAR_ETA, order)


def o_d_at_minus_one(d: int, order) -> QSeries:
    return o_d_original(d, Monomial.minus_one(), order)


# ---------------------------------------------------------------------------
# S_d: the (1+z)-folded rank series, via Appell-Lerch machinery
# ---------------------------------------------------------------------------


def _tail_node(d: int, z: Monomial, z0: Monomial, zp: Monomial, weight=1) -> tuple:
    """weight times the theta part of the bracket of `s_bar_d` as a node: the
    Lambda node for odd d, else the shift (-1)^{d/2} z q^{-d^2/4} above the
    node of Psi_0^{d/2}(z^{2/d} q^{1-d}, q, z'; q^2)."""
    if d % 2:
        return _lam_node(d, z, z0, zp, weight)
    h, x = d // 2, z.pow_frac(2, d) * Monomial.q(1 - d)
    return ((), (), Monomial.zeta(h, 2, -F(d * d, 4)) * z, weight, None,
            [psi_node(0, h, x, Monomial.q(1), zp, 2)])


def _bracket(d: int, z: Monomial, z0: Monomial, zp: Monomial, order) -> list:
    """The bracket of `s_bar_d` as the start of a quotient that needs it
    below `order`: the nodes 1, m (j(z';q^p) over `m_terms`) and the theta
    part (`_tail_node`), with the bracket's weights."""
    if d % 2:
        x_m, base, sign = z ** (-2) * Monomial.q(d * d), F(2 * d * d), 1
    else:
        x_m, base, sign = Monomial.zeta(d // 2 + 1, 2, F(d * d, 4)) * z, F(d * d, 2), -1
    return [((), (), Monomial.one(), sign),
            ((), ((zp, base),), Monomial.one(), -2 * sign, None, [m_terms(x_m, base, zp, order)]),
            _tail_node(d, z, z0, zp, 2)]


@exact_below
def s_bar_d(d: int, z: Monomial, z0: Monomial, zp: Monomial, order) -> QSeries:
    """(1+z) O_d(z;q) expressed through Appell-Lerch series: the bracket of
    `_bracket` times the numerator block 1 - z, one quotient.

    Odd d:  (1-z) (1 - 2 m(z^{-2} q^{d^2}, q^{2d^2}, z') + 2 Lambda(d, z, z0, z')).
    Even d: (1-z) (-1 + 2 m((-1)^{d/2+1} z q^{d^2/4}, q^{d^2/2}, z')
                       + 2 (-1)^{d/2} z q^{-d^2/4} Psi_0^{d/2}(z^{2/d} q^{1-d}, q, z'; q^2)).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    # the bracket is needed below order + shift_loss(z), where 1 - z starts
    return theta_quotient(((z, None),), (), order,
                          start=_bracket(d, z, z0, zp, order + shift_loss(z)))


@exact_below
def bracket_tail(d: int, z: Monomial, z0: Monomial, zp: Monomial, order) -> QSeries:
    """The theta part of the bracket of `s_bar_d`, the quotient of `_tail_node`.

    At z' = -1 it is odd under z <-> 1/z, and so zero at z = -1.  The
    bracket (1+z)/(1-z) O_d(z) is odd because O_d(1/z) = O_d(z), and at
    z' = -1 so is its part outside the theta part (the m term M obeys
    M(1/z) = 1 - M(z) by `appell-flip` and `appell-increment`).  A deviation
    pair's tail therefore reads only 1 <= j < M/2."""
    return _quotient(_tail_node(d, z, z0, zp), order)


@exact_below
def s_bar_bracket(d: int, z: Monomial, z0: Monomial, zp: Monomial, order) -> QSeries:
    """S_d(z;q) / (1-z): the Appell-Lerch bracket of the folded rank series,
    one quotient over the start of `_bracket`."""
    return theta_quotient((), (), order, start=_bracket(d, z, z0, zp, order))


# ---------------------------------------------------------------------------
# the Lerch-sum-to-m rewriting
# ---------------------------------------------------------------------------


@exact_below
def lerch_fold_lhs(x: Monomial, order) -> QSeries:
    """(1/j(q;q^2)) sum_n (-1)^n q^{n^2+n} / (1 - x q^n)."""
    if x.coeff_is_one and x.q_exp.denominator == 1:
        raise NonGenericParameter("divisor 1 - x q^n vanishes at n = %d" % (-x.q_exp))
    return _lerch_sum(1, x, order) * eta_quotient(PBAR_ETA, order)
