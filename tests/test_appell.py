import json
import math
import random
from fractions import Fraction

import pytest

from qrank import appell
from qrank.appell import (
    appell_m,
    bracket_tail,
    delta,
    lam,
    lerch_fold_lhs,
    m_terms,
    o_d_at_minus_one,
    o_d_direct,
    o_d_original,
    psi,
    s_bar_bracket,
    s_bar_d,
    s_d_direct,
    _geometric,
)
from qrank.catalog import avg_lhs, avg_rhs
from qrank.cyclotomic import Cyclotomic, get_field, root_of_unity
from qrank.errors import NonGenericParameter
from qrank.series import (Monomial, QSeries, computed_to, eta_quotient, linear_sum, root_sum,
                          shift_loss, shifted)
from qrank.theta import bilateral, binom2, is_theta_zero_pattern, theta_quotient
from test_theta import _product_route, _theta_sum

F = Fraction
Z = Monomial.zeta
Q = Monomial.q

SAMPLES = [
    (Z(1, 5), 1, Z(1, 7)),
    (Z(1, 5, 1), 1, Z(3, 7)),
    (Z(2, 7, 2), 2, Z(1, 5, 1)),
]


def test_appell_half_constant():
    # m(q, q^2, -1) = 1/2 exactly
    m = appell_m(Q(1), 2, Z(1, 2), 30)
    assert m.agrees_with(QSeries.scalar(F(1, 2)), 30)


def test_appell_flip_inverse():
    # m(x,q,z) = x^{-1} m(x^{-1}, q, z^{-1})
    for x, p, z in SAMPLES:
        lhs = appell_m(x, p, z, 18)
        rhs = shifted(lambda o: appell_m(x.inverse(), p, z.inverse(), o), x.inverse(), 18)
        assert lhs.agrees_with(rhs, 18), (x, p, z)


def test_appell_increment():
    # m(x,q,z) = x^{-1} - x^{-1} m(qx, q, z)
    for x, p, z in SAMPLES:
        lhs = appell_m(x, p, z, 18)
        rhs = (QSeries.from_monomial(x.inverse())
               - shifted(lambda o: appell_m(x * Q(p), p, z, o), x.inverse(), 18))
        assert lhs.agrees_with(rhs, 18), (x, p, z)


def _root_sum_m(x, p, z, order):
    """m(x, q^p, z) by the route of root sums: the bilateral sum as one
    `root_sum` of `_geometric` terms in Q(zeta_lcm(ord x, ord z)), divided by
    j(z;q^p) through the product route; a zero sum keeps the field and grid
    of both factors."""
    p = F(p)
    if is_theta_zero_pattern(z, p):
        raise NonGenericParameter("z = %s is an integral power of the base" % z)
    xz, L = x * z, math.lcm(x.zeta_den, z.zeta_den)
    if is_theta_zero_pattern(xz, p):
        raise NonGenericParameter("xz = %s is an integral power of the base" % xz)

    def mono(r):
        return p * binom2(r) + r * z.q_exp

    def lowest(r):
        return mono(r) + shift_loss(Q(p * (r - 1)) * xz)

    def build(o):
        series = root_sum((t for r, _ in bilateral(lowest, o)
                           for t in _geometric(-1 if r % 2 else 1, z.zeta_num * r * (L // z.zeta_den),
                                               mono(r), Q(p * (r - 1)) * xz, L, o)), L, o)
        if series.is_zero():
            return linear_sum(((1, series), (0, _theta_sum(z, p, o))), o)
        return _product_route((), ((z, p),), o, start=series)
    return computed_to(build, order)


def test_appell_m_matches_the_root_sum_route():
    # byte-identical, or the same exception, over 600 draws: x and z with
    # root orders 1-12 and exponents +-12 over 1-3, bases 1, 2, 3, 1/2, 3/2
    # and 18, orders -4..30 and halves and thirds; among them poles and
    # results with no term below the order, which still live in
    # Q(zeta_lcm(ord x, ord z))
    rng = random.Random(600)

    def mono():
        N = rng.randint(1, 12)
        return Z(rng.randrange(N), N, F(rng.randint(-12, 12), rng.randint(1, 3)))

    outcomes = {"poles": 0, "zero": 0, "series": 0}
    for _ in range(600):
        x, z = mono(), mono()
        p = rng.choice([1, 2, 3, F(1, 2), F(3, 2), 18])
        order = rng.choice([F(rng.randint(-4, 30)), F(rng.randint(-8, 60), 2),
                            F(rng.randint(-12, 90), 3)])
        try:
            expected = _root_sum_m(x, p, z, order).to_json_dict()
        except NonGenericParameter:
            outcomes["poles"] += 1
            with pytest.raises(NonGenericParameter):
                appell_m(x, p, z, order)
            continue
        assert appell_m(x, p, z, order).to_json_dict() == expected, (x, p, z, order)
        outcomes["series" if expected["terms"] else "zero"] += 1
    assert min(outcomes.values()) > 40, outcomes


def test_appell_pole_detection():
    with pytest.raises(NonGenericParameter):
        appell_m(Q(2), 1, Q(-1), 10)  # xz = q
    with pytest.raises(NonGenericParameter):
        appell_m(Z(1, 5), 1, Q(3), 10)  # z integral power of base


def test_appell_base_substitution_consistency():
    # computing at base q^2 and then reading q -> q^2 matches computing the
    # base-q instance and substituting afterwards
    x, z = Z(1, 5, 1), Z(1, 7)
    direct = appell_m(x, 1, z, 12)
    x2 = Z(1, 5, 2)
    scaled = appell_m(x2, 2, z, 24)
    assert direct.substitute_q_power(2).agrees_with(scaled, 24)


def test_delta_matches_m_difference():
    # Delta(x, z1, z0; q) = m(x,q,z1) - m(x,q,z0)
    cases = [
        (Z(1, 5, 1), Z(1, 7), Z(1, 2), 2),
        (Z(1, 5), Z(2, 7), Z(3, 7), 1),
        (Z(1, 3, 1), Z(1, 5), Z(1, 7, 1), 2),
    ]
    for x, z1, z0, p in cases:
        lhs = delta(x, z1, z0, p, 15)
        rhs = appell_m(x, p, z1, 15) - appell_m(x, p, z0, 15)
        assert lhs.agrees_with(rhs, 15), (x, z1, z0, p)


def test_delta_equal_arguments_is_zero():
    assert delta(Z(1, 5, 1), Z(1, 7), Z(1, 7), 1, 12).agrees_with(QSeries.zero(), 12)


def test_root_averaging_small():
    # sum_t zeta_n^{-kt} m(zeta_n^t x, q, z)
    #   = n q^{-C(k+1,2)} (-x)^k m(-q^{C(n,2)-nk} (-x)^n, q^{n^2}, z') + n Psi_k^n(x,z,z';q)
    from qrank.theta import binom2

    x, z, zp = Z(1, 5, 1), Z(1, 7), Z(2, 7)
    for n in (2, 3):
        for k in range(n):
            lhs = QSeries.zero(12)
            for t in range(n):
                term = appell_m(Z(t, n) * x, 1, z, 12)
                lhs = lhs + term.scale(root_of_unity(-k * t, n))
            head = Monomial.q(F(-binom2(k + 1))) * (-x) ** k
            inner_x = -(Q(binom2(n) - n * k) * (-x) ** n)
            rhs = shifted(lambda o: appell_m(inner_x, n * n, zp, o), head, 12).scale(n)
            rhs = rhs + psi(k, n, x, z, zp, 1, 12).scale(n)
            assert lhs.agrees_with(rhs, 12), (n, k)


def test_psi_vanishing_instance():
    assert psi(0, 3, Q(9), Z(1, 2), Z(1, 2), 18, 40).agrees_with(QSeries.zero(), 40)


def test_htom():
    # the Lerch-sum fold: (1/j(q;q^2)) sum_n (-1)^n q^(n^2+n) / (1 - x q^n)
    # = -x^{-1} m(x^{-2} q, q^2, x)
    for x in (Z(1, 5), Z(1, 7, 1)):
        rhs = shifted(lambda o: appell_m(x ** (-2) * Q(1), 2, x, o), -x.inverse(), 20)
        assert lerch_fold_lhs(x, 20).agrees_with(rhs, 20), x
    with pytest.raises(NonGenericParameter):
        lerch_fold_lhs(Q(1), 10)


def test_o_d_direct_first_coefficients():
    # both overpartitions of 1 have rank 0, so [q] O_1(z;q) = 2
    s = o_d_direct(1, Z(1, 5), 12)
    assert s.coeff(0) == 1
    assert s.coeff(1) == 2


def test_o_d_direct_rational_order():
    # a truncation order with a denominator the series does not have
    half = o_d_direct(1, Z(1, 5), F(13, 2))
    whole = o_d_direct(1, Z(1, 5), 7)
    assert half.order == F(13, 2)
    for k in range(13):
        assert half.coeff(F(k, 2)) == whole.coeff(F(k, 2)), k
    assert half.agrees_with(whole, F(13, 2))


def test_o_d_direct_pole_cases():
    with pytest.raises(NonGenericParameter):
        o_d_direct(1, Monomial.one(), 10)
    with pytest.raises(NonGenericParameter):
        o_d_direct(2, Monomial.minus_one(), 10)
    for d in (1, 2):  # z = q^2 puts 1 - z q^{dn} or 1 - q^{dn}/z on zero
        with pytest.raises(NonGenericParameter):
            o_d_direct(d, Q(2), 10)
        with pytest.raises(NonGenericParameter):
            o_d_original(d, Q(2), 10)


def test_o_d_forms_agree():
    # at a z with a q-part the shift by z and the (1 - z)(1 - 1/z) factor
    # lose order; both forms build past it and are known exactly to the order
    for z in (Z(1, 5), Z(2, 7), Z(1, 3, -3), Z(1, 5, F(-1, 3)), Z(2, 7, -1), Z(1, 5, F(1, 2)),
              Z(1, 3, 2), Z(3, 7, 6)):
        for d in (1, 2, 3):
            for order in (F(-2), F(0), F(13, 2), F(16)):
                a = o_d_direct(d, z, order)
                b = o_d_original(d, z, order)
                assert a.order == b.order == order, (d, z, order)
                assert a.agrees_with(b, order), (d, z, order)


def _inverting_o_d(d, z, order):
    # O_d through a Newton series inverse of 1 + z, whose first coefficient
    # takes a field inverse, as `o_d_direct` was built before its closed form
    def build(order):
        if d < 1:
            raise ValueError("d must be a positive integer")
        if z.coeff_is_one and (z.q_exp / d).denominator == 1:
            raise NonGenericParameter("z = %s hits a divisor pole" % z)
        if z == Monomial.minus_one():
            raise NonGenericParameter("z = -1 is a pole of the (1+z) prefactor")
        inner = order + shift_loss(z)
        s = appell._lerch_sum(d, z, inner)
        core = 1 + (s * eta_quotient({2: 1, 1: -2}, inner)).shift(z).scale(2)
        one_minus = QSeries.one() - QSeries.from_monomial(z)
        one_plus = QSeries.one() + QSeries.from_monomial(z)
        return core * one_minus * one_plus.invert(inner)
    return computed_to(build, order)


def _inverting_s_d(d, z, order):
    # (1 + z) O_d, multiplied back as `rank-fold` built it, with O_d built
    # past the order that 1 + z loses when exp(z) < 0
    return computed_to(lambda o: (QSeries.one() + QSeries.from_monomial(z))
                       * _inverting_o_d(d, z, o + shift_loss(z)), order)


def _outcome(build):
    try:
        return json.dumps(build().to_json_dict())
    except NonGenericParameter as exc:
        return repr(exc)


# roots of odd and even order, and q-parts below, at and above zero; the
# last four are poles of the Lerch sum's divisors for some d
ORACLE_ZS = [Z(1, 5), Z(2, 7), Z(1, 4), Z(3, 8), Z(1, 6), Z(5, 12), Z(4, 9),
             Z(1, 5, F(1, 3)), Z(3, 7, 2), Q(F(1, 2)), Z(1, 2, 1), Z(5, 6, 3),
             Z(1, 6, F(-1, 2)), Z(1, 4, -1), Z(2, 5, -3), Z(1, 2, F(-1, 3)), Q(F(-5, 2)),
             Monomial.one(), Q(2), Q(-3), Q(4)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_oracle_without_inverses_matches_the_inverting_route(d):
    # the same serialized series, or the same pole, at every order
    outcomes = []
    for z in ORACLE_ZS:
        for order in (F(40), F(13, 2), F(0), F(-2)):
            for new, old in ((o_d_direct, _inverting_o_d), (s_d_direct, _inverting_s_d)):
                got = _outcome(lambda: new(d, z, order))
                assert got == _outcome(lambda: old(d, z, order)), (new.__name__, z, order)
                outcomes.append(got)
    assert sum(o.startswith("NonGeneric") for o in outcomes) >= 8  # z = 1 at least
    # z = -1 is a pole of O_d only: there S_d = (1 + z) O_d vanishes
    for order in (F(40), F(13, 2), F(0), F(-2)):
        assert _outcome(lambda: o_d_direct(d, Monomial.minus_one(), order)) == \
            _outcome(lambda: _inverting_o_d(d, Monomial.minus_one(), order))
        s = s_d_direct(d, Monomial.minus_one(), order)
        assert s.order == order and s.agrees_with(QSeries.zero(), order)


def test_o_d_at_minus_one_even_part():
    # O_d(-1;q) counts by rank parity; at q^0 it is 1
    s = o_d_at_minus_one(1, 12)
    assert s.coeff(0) == 1
    # N(0,1)=2 gives coefficient 2 at q^1 for d=1
    assert s.coeff(1) == 2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_s_bar_matches_folded_rank_series(d):
    z = Z(1, 5)
    z0, zp = Z(3, 7), Z(1, 7)
    lhs = s_bar_d(d, z, z0, zp, 14)
    rhs = computed_to(
        lambda o: (QSeries.one() + QSeries.from_monomial(z)) * o_d_direct(d, z, o), 14)
    assert lhs.agrees_with(rhs, 14)


def test_s_bar_parameter_independence():
    z = Z(2, 7)
    a = s_bar_d(1, z, Z(1, 5), Z(2, 5), 12)
    b = s_bar_d(1, z, Z(1, 11), Z(4, 11), 12)
    assert a.agrees_with(b, 12)


def test_lam_collapses_at_d_one():
    # single-term sums: Lambda(1, z, z0, z') = -(Psi_0^1(z^-2 q, z0, z'; q^2)
    #                                            + Delta(z^-2 q, z, z0; q^2))
    z, z0, zp = Z(1, 5), Z(1, 7), Z(2, 7)
    lhs = lam(1, z, z0, zp, 14)
    rhs = -(psi(0, 1, z ** (-2) * Q(1), z0, zp, 2, 14)
            + delta(z ** (-2) * Q(1), z, z0, 2, 14))
    assert lhs.agrees_with(rhs, 14)


def test_lam_rejects_even_d():
    with pytest.raises(ValueError):
        lam(2, Z(1, 5), Z(1, 7), Z(2, 7), 8)


@pytest.mark.parametrize("d", [0, -1])
def test_o_d_forms_reject_a_nonpositive_d(d):
    for fn in (o_d_direct, o_d_original):
        for z in (Z(1, 5), Monomial.minus_one()):
            with pytest.raises(ValueError, match="d must be a positive integer"):
                fn(d, z, 8)


def test_fractional_base_flip():
    # the Puiseux machinery carries fractional exponents end to end
    x, z = Z(1, 5, F(1, 2)), Z(1, 7)
    lhs = appell_m(x, F(1, 2), z, 8)
    assert lhs.den == 2
    rhs = shifted(lambda o: appell_m(x.inverse(), F(1, 2), z.inverse(), o), x.inverse(), 8)
    assert lhs.agrees_with(rhs, 8)


def test_fractional_base_delta():
    x = Z(1, 5, F(3, 2))
    lhs = delta(x, Z(1, 7), Z(2, 7), F(1, 2), 8)
    rhs = appell_m(x, F(1, 2), Z(1, 7), 8) - appell_m(x, F(1, 2), Z(2, 7), 8)
    assert lhs.agrees_with(rhs, 8)


def test_psi_boundary_k_values():
    # Psi is evaluated verbatim for any integer k, not only 0 <= k < n
    minus = Monomial.minus_one()
    for k in (3, -1):
        s = psi(k, 3, Q(9), minus, minus, 18, 24)
        assert s.order >= 24


@pytest.mark.parametrize("k, n, x, z, zp, p", [
    (1, 2, Z(1, 5, 1), Z(1, 7), Z(2, 7), 1),         # appell-root-average
    (2, 3, Z(1, 11, 2), Z(1, 5), Z(1, 7), 1),
    (2, 3, Q(9), Z(1, 2), Z(1, 2), 18),              # psi-difference
    (0, 2, Z(2, 3) * Q(-1), Q(1), Z(1, 2), 2),       # pair-even-d tail, d = 2
    (1, 3, Q(1), Z(1, 2), Z(2, 11, F(1, 2)), 2),     # odd-odd pair, shifted z'
    (0, 1, Z(3, 7, -2), Z(1, 5, 3), Z(1, 9), 2),
])
def test_psi_plan_is_exact(k, n, x, z, zp, p):
    # one build of Psi is known exactly to its target, and a build to a
    # higher target agrees with it there
    import qrank.appell as appell

    order = F(10)
    once = appell.psi.__wrapped__(k, n, x, z, zp, F(p), order)
    assert once.order == order
    assert once.agrees_with(appell.psi.__wrapped__(k, n, x, z, zp, F(p), order + 7), order)


# -- Lambda and the root averages as one quotient each -------------------------

ORDERS = (F(12), F(1), F(1, 2), F(0), F(-2), F(13, 2))


def _lam_by_deltas(d, z, z0, zp, order):
    """Lambda as Psi plus a linear_sum of its d Deltas, each its own quotient."""
    def build(o):
        w = z.root(d)
        pref = Z((d + 1) // 2, 2, -F((d - 1) ** 2, 4)) * w ** (d - 1)
        inner = o + shift_loss(pref)
        x_head = w ** (-2) * Q(d)
        z1 = w * Q(-F(d - 1, 2))
        terms = [(1, psi((d - 1) // 2, d, x_head, z0, zp, 2, inner))]
        terms += [(root_of_unity(-t, d) * F(1, d),
                   delta(Z(-2 * t, d) * x_head, Z(t, d) * z1, z0, 2, inner)) for t in range(d)]
        return linear_sum(terms).shift(pref)
    return computed_to(build, order)


def _avg_by_m(n, k, x, z, order):
    """sum_t zeta_n^{-kt} m(zeta_n^t x, q, z) as a linear_sum of n m's."""
    return linear_sum(((root_of_unity(-k * t, n), appell_m(Z(t, n) * x, 1, z, order))
                       for t in range(n)), order)


def _conjugates(rng, *params):
    """The parameters and one Galois conjugate of them, zeta_N^a -> zeta_N^(a c)."""
    L = math.lcm(*(m.zeta_den for m in params))
    c = rng.choice([c for c in range(1, max(L, 2)) if math.gcd(c, L) == 1])
    return [params, tuple(Monomial(m.zeta_num * c, m.zeta_den, m.q_exp) for m in params)]


def _same_or_both_non_generic(new, old, case):
    try:
        expected = old().to_json_dict()
    except NonGenericParameter:
        with pytest.raises(NonGenericParameter):
            new()
        return False
    assert new().to_json_dict() == expected, case
    return True


def test_lam_matches_the_sum_of_deltas():
    # byte-identical to Psi plus d separately built Deltas, or non-generic
    # on both routes, over draws and their Galois conjugates
    rng = random.Random(2101)

    def mono(exps):
        N = rng.choice((1, 2, 3, 4, 5, 6))
        return Z(rng.randrange(N), N, rng.choice(exps))

    outcomes = [0, 0]  # non-generic, generic
    for d in (1, 3, 5):
        for _ in range(8):
            draw = (mono([0, 0, 1, -1, F(1, 2)]), mono([0, 1, F(1, 2), -1]), mono([0, 1, F(1, 3)]))
            for z, z0, zp in _conjugates(rng, *draw):
                for order in ORDERS:
                    outcomes[_same_or_both_non_generic(
                        lambda: lam(d, z, z0, zp, order),
                        lambda: _lam_by_deltas(d, z, z0, zp, order), (d, z, z0, zp, order))] += 1
    assert min(outcomes) > 60, outcomes


def test_lam_skips_the_delta_whose_z1_is_z0():
    # Delta(x, z1, z0) vanishes at z1 = z0: d = 1 with z0 = z leaves Psi
    # alone, and d = 3 with z0 = zeta_3 z^(1/3) q^-1 drops the Delta at t = 1
    z, zp = Z(1, 5), Z(2, 7)
    cases = [(1, z, z), (3, z, Z(1, 3) * z.root(3) * Q(-1))]
    for d, z, z0 in cases:
        for order in ORDERS:
            assert lam(d, z, z0, zp, order).to_json_dict() == \
                _lam_by_deltas(d, z, z0, zp, order).to_json_dict(), (d, z0, order)
    lone = lam(1, z, z, zp, 12)
    assert lone.agrees_with(-psi(0, 1, z ** (-2) * Q(1), z, zp, 2, 12), 12)


def test_root_average_matches_the_sum_of_m():
    # byte-identical to n separately built twisted m's, or non-generic on
    # both routes, over draws and their Galois conjugates
    rng = random.Random(2102)

    def mono():
        N = rng.choice((1, 2, 3, 5, 7))
        return Z(rng.randrange(N), N, F(rng.randint(-4, 4), rng.choice([1, 1, 2])))

    outcomes = [0, 0]  # non-generic, generic
    for n in (2, 3, 4):
        for _ in range(8):
            k = rng.randrange(n)
            for x, z in _conjugates(rng, mono(), mono()):
                for order in ORDERS:
                    outcomes[_same_or_both_non_generic(
                        lambda: avg_lhs(n, k, x, z, order),
                        lambda: _avg_by_m(n, k, x, z, order), (n, k, x, z, order))] += 1
    assert min(outcomes) > 80, outcomes


def test_m_terms_poles():
    for p in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="base exponent must be positive"):
            m_terms(Z(1, 5), p, Z(1, 7), 5)
    with pytest.raises(NonGenericParameter, match="z = .* is an integral power of the base"):
        m_terms(Z(1, 5), 2, Q(4), 5)
    with pytest.raises(NonGenericParameter, match="xz = .* is an integral power of the base"):
        m_terms(Q(3) / Z(1, 7), 1, Z(1, 7), 5)


def _m_terms_as_series(x, base, z, order, shift=Monomial.one(), weight=1):
    """`m_terms` as plain series, the reference for its family: each term
    (-1)^r weight shift q^(p C(r,2)) z^r / (1 - q^(p(r-1)) x z) one
    `root_sum` of its `_geometric` terms in Q(zeta_L), L = lcm(ord shift,
    ord z, ord xz), and the terms added by `linear_sum`, over the r of
    `m_terms`: those whose q^(p C(r,2)) z^r lies below the order.  Raises
    NonGenericParameter when z or xz is an integral power of q^p."""
    p, xz = F(base), x * z
    for u in (z, xz):
        if u.coeff_is_one and (u.q_exp / p).denominator == 1:
            raise NonGenericParameter("%s is an integral power of the base" % u)
    L, terms = math.lcm(shift.zeta_den, z.zeta_den, xz.zeta_den), []
    for r, _ in bilateral(lambda r: p * binom2(r) + r * z.q_exp, order):
        head = shift * Q(p * binom2(r)) * z ** r
        terms.append((1, root_sum(_geometric(-weight if r % 2 else weight,
                                             head.zeta_num * (L // head.zeta_den), head.q_exp,
                                             Q(p * (r - 1)) * xz, L, order), L, order)))
    return linear_sum(terms, order)


def test_m_family_matches_its_terms_as_plain_series():
    # the family of m_terms as the whole start of a quotient, byte-identical
    # on its least grid to its terms as plain series, or non-generic on
    # both: fractional exponents, negative steps (flips), ties x z = c q^(p j)
    # with c of order > 1, empty ranges, shifts of either sign, int weights
    # and orders <= 0
    rng = random.Random(3400)

    def mono():
        N = rng.choice((1, 2, 3, 4, 5, 6, 7))
        return Z(rng.randrange(N), N, F(rng.randint(-6, 6), rng.choice((1, 2, 3))))

    seen = {"tie": 0, "flip": 0, "empty": 0, "pole": 0, "generic": 0}
    for case in range(400):
        x, z, shift = mono(), mono(), mono()
        p = rng.choice((1, 2, F(1, 2), F(3, 2), F(2, 3)))
        if case % 3 == 0:  # a tie: x z = c q^(p j), c = zeta_N^a != 1
            N = rng.choice((2, 3, 4, 6))
            x = Z(rng.randrange(1, N), N, p * rng.randint(-2, 2)) / z
        order = rng.choice(ORDERS + (F(rng.randint(-3, 24), rng.choice((1, 2, 3))),))
        args = (x, p, z, order, shift, rng.choice((1, -1, 2, -3)))
        try:
            want = _m_terms_as_series(*args)
        except NonGenericParameter:
            seen["pole"] += 1
            with pytest.raises(NonGenericParameter):
                m_terms(*args)
            continue
        family = m_terms(*args)
        seen["tie"] += any(not e for _, _, e in family.raw)
        seen["flip"] += any(e < 0 for _, _, e in family.raw)
        seen["empty"] += not family.raw
        got = theta_quotient((), (), order, start=[family])
        assert got.order == order, args
        assert got.normalize_denominator().to_json_dict() == \
            want.normalize_denominator().to_json_dict(), args
        seen["generic"] += 1
    assert min(seen.values()) >= 40, seen


def test_root_average_pole_in_a_twist():
    # zeta_2 x z = q^2 is a pole of the twist t = 1 alone; x z = -q^2 is not
    z = Z(1, 7)
    x = Z(1, 2) * Q(2) / z
    appell_m(x, 1, z, 4)
    for order in ORDERS:
        with pytest.raises(NonGenericParameter, match="xz = .* is an integral power of the base"):
            avg_lhs(2, 1, x, z, order)
    # zeta_3^2 x z = q^-1 at n = 3
    x = Z(1, 3) * Q(-1) / z
    for order in ORDERS:
        with pytest.raises(NonGenericParameter):
            avg_lhs(3, 0, x, z, order)


def test_lam_and_the_root_average_build_one_quotient(monkeypatch):
    # Lambda, S_d, the bracket and its theta part, and both sides of the
    # root average are one theta_quotient call each, with no m, Delta or Psi
    # built on its own and no linear_sum
    import inspect

    import qrank.appell as appell
    import qrank.catalog as catalog

    def forbidden(*args, **kwargs):
        raise AssertionError("built term by term")

    calls = []

    def counting(theta_quotient):
        def quotient(*args, **kwargs):
            calls.append(inspect.signature(theta_quotient).bind(*args, **kwargs).arguments)
            return theta_quotient(*args, **kwargs)
        return quotient

    for module in (appell, catalog):
        for name in ("appell_m", "delta", "psi", "linear_sum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(module, "theta_quotient", counting(module.theta_quotient))
    z, zp = Z(1, 5), Z(2, 7)
    for z0, deltas in ((Z(1, 7), 3), (Z(1, 3) * z.root(3) * Q(-1), 2)):
        calls.clear()
        appell.lam.__wrapped__(3, z, z0, zp, F(6))
        # the Psi node and the group of the Deltas, over j(z0;q^2)
        assert [(len(a["start"]), len(a["start"][1][5])) for a in calls] == [(2, deltas)]
    for d in range(1, 7):
        for build in (appell.s_bar_d, appell.s_bar_bracket, appell.bracket_tail):
            calls.clear()
            build.__wrapped__(d, z, Z(1, 7), zp, F(6))
            assert len(calls) == 1, (build.__name__, d)
    for n, k in ((2, 1), (3, 1), (3, 2)):
        calls.clear()
        avg_lhs(n, k, Z(1, 5, 1), Z(1, 7), 6)
        avg_rhs(n, k, Z(1, 5, 1), Z(1, 7), Z(2, 7), 6)
        assert len(calls) == 2


# -- S_d, its bracket and the root average against their terms -------------------


def _tail_by_terms(d, z, z0, zp, order):
    """The theta part of the bracket: Psi plus the Deltas for odd d, and the
    shifted Psi, built on its own, for even d."""
    if d % 2:
        return _lam_by_deltas(d, z, z0, zp, order)
    h, x = d // 2, z.pow_frac(2, d) * Q(1 - d)
    return shifted(lambda o: psi(0, h, x, Q(1), zp, 2, o), Z(h, 2, -F(d * d, 4)) * z, order)


def _bracket_by_terms(d, z, z0, zp, order):
    """The bracket of S_d as a linear_sum of 1, m and the theta part."""
    if d % 2:
        x_m, base, sign = z ** (-2) * Q(d * d), 2 * d * d, 1
    else:
        x_m, base, sign = Z(d // 2 + 1, 2, F(d * d, 4)) * z, F(d * d, 2), -1
    return linear_sum(((sign, QSeries.one()), (-2 * sign, appell_m(x_m, base, zp, order)),
                       (2, _tail_by_terms(d, z, z0, zp, order))))


def _s_bar_by_terms(d, z, z0, zp, order):
    """The bracket times 1 - z as a series product, the bracket known below
    the order plus what 1 - z loses."""
    one_minus = QSeries.one() - QSeries.from_monomial(z)
    return computed_to(lambda o: _bracket_by_terms(d, z, z0, zp, o + shift_loss(z)) * one_minus,
                       order)


def _avg_rhs_by_terms(n, k, x, z, zp, order):
    """n times the shifted m at base q^(n^2) plus n Psi, each built on its own."""
    head = Q(F(-binom2(k + 1))) * (-x) ** k
    inner = -(Q(binom2(n) - n * k) * (-x) ** n)
    return linear_sum(((n, shifted(lambda t: appell_m(inner, n * n, zp, t), head, order)),
                       (n, psi(k, n, x, z, zp, 1, order))))


@pytest.mark.parametrize("d", range(1, 7))
def test_s_bar_and_its_bracket_match_their_terms(d):
    # byte-identical to the sum of separately built m, Psi and Deltas, or
    # non-generic on both routes, over draws and their Galois conjugates;
    # z with a negative exponent included, where 1 - z loses order
    rng = random.Random(2200 + d)

    def mono(exps):
        N = rng.choice((1, 2, 3, 4, 5, 6))
        return Z(rng.randrange(N), N, rng.choice(exps))

    outcomes = [0, 0]  # non-generic, generic
    builds = ((s_bar_d, _s_bar_by_terms), (s_bar_bracket, _bracket_by_terms),
              (bracket_tail, _tail_by_terms))
    for _ in range(4):
        draw = (mono([0, 0, 1, -1, F(1, 2)]), mono([0, 1, F(1, 2), -1]), mono([0, 1, F(1, 3)]))
        for z, z0, zp in _conjugates(rng, *draw):
            for order in ORDERS:
                for new, old in builds:
                    outcomes[_same_or_both_non_generic(
                        lambda: new(d, z, z0, zp, order), lambda: old(d, z, z0, zp, order),
                        (new.__name__, d, z, z0, zp, order))] += 1
    assert outcomes[1] >= 36, outcomes


def test_bracket_tail_is_the_same_series_at_every_z0():
    # the theta part of a deviation pair's tail compares equal at three
    # z0, so a pair's tail could be built once per (d, z); its field
    # follows z0 for odd d, where Lambda divides by j(z0;q^2), and not for
    # even d, whose shifted Psi has no z0
    z0s = (Z(3, 7), Z(5, 7), Z(2, 11))
    for d in (1, 2, 3):
        for M in (3, 4, 5):
            tails = [bracket_tail(d, Z(1, M), z0, Z(2, 13), 10) for z0 in z0s]
            assert tails[0] == tails[1] == tails[2], (d, M)
            assert tails[0].order == 10 and tails[0].to_json_dict()["terms"], (d, M)
            Ls = [t.to_json_dict()["L"] for t in tails]
            if d % 2:
                assert Ls[0] == Ls[1] != Ls[2], (d, M, Ls)
                assert all(L % z0.zeta_den == 0 for L, z0 in zip(Ls, z0s)), (d, M, Ls)
            else:
                assert Ls[0] == Ls[1] == Ls[2] and Ls[0] % 7 and Ls[0] % 11, (d, M, Ls)


def test_root_average_right_side_matches_its_terms():
    # byte-identical to n shifted m's plus n Psi built on their own, or
    # non-generic on both routes, over draws and their Galois conjugates
    rng = random.Random(2205)

    def mono():
        N = rng.choice((1, 2, 3, 5, 7))
        return Z(rng.randrange(N), N, F(rng.randint(-3, 3), rng.choice([1, 1, 2])))

    outcomes = [0, 0]  # non-generic, generic
    for n in (1, 2, 3, 4):
        for _ in range(3):
            k = rng.randrange(n)
            for x, z, zp in _conjugates(rng, mono(), mono(), mono()):
                for order in ORDERS:
                    outcomes[_same_or_both_non_generic(
                        lambda: avg_rhs(n, k, x, z, zp, order),
                        lambda: _avg_rhs_by_terms(n, k, x, z, zp, order),
                        (n, k, x, z, zp, order))] += 1
    assert min(outcomes) > 20, outcomes


# -- _geometric ---------------------------------------------------------------


@pytest.mark.parametrize("N", range(2, 14))
def test_geometric_constant_is_field_inverse(N):
    # 1/(1 - c) = -(1/N) sum_{j<N} j c^j for c of order N, in fields that
    # contain c properly and as a subfield
    for L in (N, 2 * N, 3 * N):
        field = get_field(L)
        for a in (a for a in range(1, N) if F(a, N).denominator == N):
            c = Z(a, N)
            const = root_sum(_geometric(1, 0, F(0), c, L, F(1)), L, 1).coeff(0)
            inv = field.inv(field.sub(field.one, c.coeff_raw(field)))
            assert const == Cyclotomic(field, inv), (N, L, a)


@pytest.mark.parametrize("u", [Z(2, 3, F(3, 2)), Z(1, 4, -2), Q(1), Q(F(-1, 3))])
def test_geometric_matches_field_arithmetic(u):
    # 3 zeta_12^5 q^(1/2) / (1 - u) below q^7, term by term
    L, order = 12, F(7)
    field = get_field(L)
    w0 = Cyclotomic(field, field.zeta_pow(5)) * 3
    expected = {}
    if u.q_exp > 0:
        for j in range(30):
            expected[F(1, 2) + j * u.q_exp] = w0 * u.coeff() ** j
    else:
        for j in range(1, 30):
            expected[F(1, 2) - j * u.q_exp] = -w0 * u.coeff() ** (-j)
    got = root_sum(_geometric(3, 5, F(1, 2), u, L, order), L, order)
    for e, c in expected.items():
        if e < order:
            assert got.coeff(e) == c, (u, e)
    assert sum(1 for _ in got.terms()) == sum(1 for e in expected if e < order)


def test_geometric_pole_raises():
    with pytest.raises(NonGenericParameter):
        list(_geometric(1, 0, F(0), Monomial.one(), 5, F(3)))
    # the pole is reported even when the term lies beyond the order
    with pytest.raises(NonGenericParameter):
        list(_geometric(1, 0, F(4), Monomial.one(), 5, F(3)))


def _geometric_on_fractions(w, k, exp, u, L, order):
    """`_geometric` as it was before it stepped on ints: every exponent a
    Fraction, compared with the order itself."""
    exp, order = F(exp), F(order)
    e, ku = u.q_exp, u.zeta_num * (L // u.zeta_den)
    if e == 0:
        if u.coeff_is_one:
            raise NonGenericParameter("divisor 1 - %s vanishes" % u)
        if exp < order:
            for j in range(1, u.zeta_den):
                yield w * F(-j, u.zeta_den), k + j * ku, exp
        return
    if e < 0:
        w, e, ku = -w, -e, -ku
        k, exp = k + ku, exp + e
    while exp < order:
        yield w, k, exp
        k, exp = k + ku, exp + e


def test_geometric_steps_on_ints_where_the_exponents_are_integral():
    # the same terms as the Fraction walk, and int exponents where exp and
    # exp(u) are integral, below fractional, integral and negative orders
    stepped = 0
    for u in (Z(1, 5, 1), Z(2, 7, -2), Q(3), Z(1, 4, F(1, 2)), Z(1, 3, F(-2, 3)), Z(1, 6)):
        for exp in (0, 5, F(-3), F(1, 3)):
            for order in (F(13, 2), F(20, 3), 7, F(1, 2), 0, -2, F(-5, 2)):
                got = list(_geometric(-3, 2, exp, u, 12, order))
                assert got == list(_geometric_on_fractions(-3, 2, exp, u, 12, order)), \
                    (u, exp, order)
                if u.q_exp and u.q_exp.denominator == 1 and F(exp).denominator == 1:
                    assert all(type(e) is int for _, _, e in got), (u, exp, order)
                    stepped += len(got)
    assert stepped > 100


def test_the_oracle_series_match_the_fraction_walk(monkeypatch):
    # O_d by both forms and the Lerch fold, at z = zeta_5 q^(-1/3), at
    # integral exponents and at fractional orders: the same serialized series
    # (or the same pole) with `_geometric` stepping on ints or on Fractions
    zs = [Z(1, 5, F(-1, 3)), Z(1, 5), Z(2, 7, 2), Z(1, 3, -1), Z(3, 8, F(1, 2)), Q(F(1, 2)),
          Z(1, 4, -3), Z(1, 2), Q(-1)]
    orders = [12, F(13, 2), F(1, 2), F(20, 3), 0, -2]

    def build():
        for fn in (o_d_direct, s_d_direct, o_d_original, lerch_fold_lhs):
            fn.cache_clear()
        out = []
        for z in zs:
            for order in orders:
                for make in [lambda: lerch_fold_lhs(z, order)] + [
                        lambda d=d: fn(d, z, order) for d in (1, 2, 3)
                        for fn in (o_d_direct, o_d_original)]:
                    try:
                        out.append(json.dumps(make().to_json_dict()))
                    except NonGenericParameter as exc:
                        out.append(repr(exc))
        return out

    on_ints = build()
    monkeypatch.setattr(appell, "_geometric", _geometric_on_fractions)
    on_fractions = build()
    assert on_ints == on_fractions
    assert sum(s.startswith("{") for s in on_ints) > 250
