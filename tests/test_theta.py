import random
from fractions import Fraction

from qrank.cyclotomic import root_of_unity
from qrank.series import Monomial, eta_quotient
from qrank.theta import (
    bilateral,
    is_theta_zero_pattern,
    product_loss,
    theta_j,
    theta_j2,
    theta_shift_check,
    theta_triple_product,
    theta_valuation,
)

F = Fraction
Z = Monomial.zeta
Q = Monomial.q


def test_theta_sum_matches_triple_product():
    samples = [
        (Z(0, 1), 1),          # j(1;q), vanishes
        (Z(1, 2), 1),          # j(-1;q)
        (Z(1, 5), 1),
        (Z(2, 7, 1), 3),       # zeta_7^2 q, base q^3
        (Z(1, 3, 1), 2),
        (Q(1), 2),
    ]
    for z, p in samples:
        a = theta_j(z, p, 25)
        b = theta_triple_product(z, p, 25)
        assert a.agrees_with(b, 25), (z, p)


def test_theta_vanishing_pattern():
    # j(q^n; q) = 0
    for n in (0, 1, 2, -1):
        s = theta_j(Q(n), 1, 30)
        assert s.is_zero_to(30), n
        assert is_theta_zero_pattern(Q(n), 1)
    assert not is_theta_zero_pattern(Z(1, 2), 1)
    assert not is_theta_zero_pattern(Q(F(1, 2)), 1)


def test_theta_minus_one_closed_form():
    # j(-1;q) = 2 J_2^2 / J_1
    lhs = theta_j(Z(1, 2), 1, 25)
    rhs = eta_quotient({2: 2, 1: -1}, 25).scale(2)
    assert lhs.agrees_with(rhs, 25)


def test_theta_cube_root_closed_form():
    # j(w;q) = (1 - w) J_3 for w a primitive cube root
    for k in (1, 2):
        w = root_of_unity(k, 3)
        lhs = theta_j(Z(k, 3), 1, 25)
        rhs = eta_quotient({3: 1}, 25).scale(1 - w)
        assert lhs.agrees_with(rhs, 25)


def test_theta_j_oddeven_closed_forms():
    # j(q;q^2) = J_1^2/J_2 and j(q;q^3) = J_1
    assert theta_j(Q(1), 2, 30).agrees_with(eta_quotient({1: 2, 2: -1}, 30), 30)
    assert theta_j(Q(1), 3, 30).agrees_with(eta_quotient({1: 1}, 30), 30)


def test_theta_j2_is_product():
    a = theta_j2(Z(1, 3), Z(2, 3), 1, 20)
    b = theta_j(Z(1, 3), 1, 20) * theta_j(Z(2, 3), 1, 20)
    assert a.agrees_with(b, 20)
    # (1 - w)(1 - w^2) = 3, so j(w, w^2; q) = 3 J_3^2
    rhs = eta_quotient({3: 2}, 20).scale(3)
    assert a.agrees_with(rhs, 20)


def test_theta_j2_vanishing_factor():
    assert theta_j2(Q(1), Z(1, 5), 1, 20).is_zero_to(20)


def test_shift_check_passes():
    assert theta_shift_check(Z(1, 5, 1), 2, 1, 20).passed
    assert theta_shift_check(Z(1, 7), 0, 1, 20).passed
    assert theta_shift_check(Q(1), 1, 1, 20).passed  # both sides vanish
    assert theta_shift_check(Z(3, 7, 2), -2, 2, 20).passed


def test_shift_check_fractional_exponent():
    assert theta_shift_check(Z(1, 5, F(1, 2)), 1, 1, 12).passed


def test_theta_negative_exponent_argument():
    # j(q^-1 x; q) via the shift law against direct expansion
    x = Z(1, 5, -1)
    direct = theta_j(x, 1, 15)
    assert direct.valuation is not None and direct.valuation < 0
    assert theta_shift_check(x, 3, 1, 15).passed


def test_bilateral_visits_exactly():
    # convex lowest(n) = (a n^2 + b n + c)/2 + max(0, l n + m): the walk must
    # yield each n with lowest(n) < order once, and nothing else
    rng = random.Random(20141)
    for _ in range(400):
        a, b, c = rng.randint(1, 6), rng.randint(-60, 60), rng.randint(-80, 80)
        l, m = rng.randint(-12, 12), rng.randint(-40, 40)
        order = F(rng.randint(-60, 120), rng.randint(1, 3))

        def lowest(n, a=a, b=b, c=c, l=l, m=m):
            return F(a * n * n + b * n + c, 2) + max(0, l * n + m)

        pairs = list(bilateral(lowest, order))
        expected = [n for n in range(-400, 401) if lowest(n) < order]
        assert sorted(n for n, _ in pairs) == expected, (a, b, c, l, m, order)
        assert all(low == lowest(n) for n, low in pairs)


def test_theta_valuation_matches_expansion():
    rng = random.Random(11)
    for _ in range(300):
        p = F(rng.randint(1, 12), rng.choice([1, 2, 3]))
        z = Z(rng.randint(1, 6), 7, F(rng.randint(-60, 60), rng.choice([1, 2, 5])))
        v = theta_valuation(z, p)
        assert theta_j(z, p, v + 2).valuation == v, (z, p)
    assert theta_valuation(Z(1, 5, 3), 4) == 0     # 0 <= exp(z) < p
    assert theta_valuation(Z(1, 5, 4), 4) == 0     # n = 0 and n = -1 tie
    assert theta_valuation(Z(1, 5, -1), 4) == -1


def test_product_loss_is_the_shortfall():
    # j(z1) j(z2) / j(z3) q^s built at target + loss is valid exactly below target
    rng = random.Random(5)
    for _ in range(60):
        p = rng.randint(1, 4)
        zs = [Z(rng.randint(1, 6), 7, rng.randint(-6, 9)) for _ in range(3)]
        shift = Q(rng.randint(-5, 5))
        factors = [(theta_valuation(zs[0], p), 1), (theta_valuation(zs[1], p), 1),
                   (theta_valuation(zs[2], p), -1)]
        target = 12
        loss = product_loss(factors, shift)
        o = target + loss
        s = (theta_j(zs[0], p, o) * theta_j(zs[1], p, o)
             * theta_j(zs[2], p, o).invert()).shift(shift)
        assert s.order >= target
        assert loss == 0 or s.order == target, (zs, p, shift)
