import math
import random
import sys
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrank import theta
from qrank.appell import appell_m, m_terms, psi_node
from qrank.catalog import run_suite, theta_shift_check
from qrank.cyclotomic import _pack, _slot_mask, _slot_width, _unpack, get_field, root_of_unity
from qrank.errors import NonGenericParameter
from qrank.series import Monomial, QSeries, computed_to, eta_quotient, linear_sum, root_sum
from qrank.theta import (
    _base_exp,
    _block,
    _expand,
    bilateral,
    binom2,
    is_theta_zero_pattern,
    theta_j,
    theta_quotient,
    theta_triple_product,
)

F = Fraction
Z = Monomial.zeta
Q = Monomial.q


def _block_valuation(z, p):
    """The lowest exponent of the block (z, p), as `_block` plans it:
    min_n p C(n,2) + n exp(z) for j(z;q^p), min(0, exp(z)) for 1 - z."""
    s, _, _, v, _ = _block(z, p)
    return F(v, s)


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


def _tree_triple_product(z, p, order):
    """The same binomials as `theta_triple_product`, multiplied as a balanced
    tree of series products."""
    p, order = F(p), F(order)
    factors = [QSeries.one(order)]
    for x, k in ((z, 0), (z.inverse(), 1), (Monomial.one(), 1)):
        while x.q_exp + k * p < order:
            factors.append(QSeries.one(order) - QSeries.from_monomial(x * Q(k * p), order))
            k += 1
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[len(pairs) * 2:]
    return factors[0]


@pytest.mark.parametrize("order", [F(30), F(13, 2), F(1, 2), F(0), F(-2)], ids=str)
def test_triple_product_matches_the_product_tree(order):
    # z = zeta_L^k q^e with 0 <= e < p, e and p integral or fractional; z = 1
    # vanishes, and at order 1/2 with e, p - e >= 1/2 no factor is below it
    rng = random.Random(3031)
    cases = [(Z(0, 1), 1), (Z(1, 6, 1), 2), (Z(5, 12, F(1, 2)), 1), (Q(F(2, 3)), F(3, 2))]
    for _ in range(24):
        L, s = rng.choice((1, 2, 3, 5, 6, 12)), rng.choice((1, 2, 3))
        p = rng.choice((F(rng.randint(1, 4)), F(rng.randint(1, 9), rng.choice((2, 3)))))
        cases.append((Z(rng.randrange(L), L, F(rng.randrange(math.ceil(p * s)), s)), p))
    empty = 0
    for z, p in cases:
        new = theta_triple_product(z, p, order)
        assert new.to_json_dict() == _tree_triple_product(z, p, order).to_json_dict(), (z, p)
        empty += z.q_exp >= order and p - z.q_exp >= order
    assert empty > 0 or order > 1


def test_theta_vanishing_pattern():
    # j(q^n; q) = 0
    for n in (0, 1, 2, -1):
        s = theta_j(Q(n), 1, 30)
        assert s.is_zero_to(30), n
        assert is_theta_zero_pattern(Q(n), 1)
    assert not is_theta_zero_pattern(Z(1, 2), 1)
    assert not is_theta_zero_pattern(Q(F(1, 2)), 1)


@pytest.mark.parametrize("base", [0.1, 0.5, 2.0, "2", 1j])
def test_theta_base_must_be_an_int_or_a_fraction(base):
    # a float base would become its binary fraction, as 0.1 did (a base of
    # None is the two-term block 1 - z)
    with pytest.raises(TypeError):
        _base_exp(base)
    with pytest.raises(TypeError):
        theta_j(Z(1, 5), base, 10)
    with pytest.raises(TypeError):
        theta_quotient((), ((Z(1, 5), base),), 10)
    with pytest.raises(TypeError):
        m_terms(Z(1, 5), base, Z(1, 7), 5)
    with pytest.raises(TypeError):
        psi_node(0, 2, Z(1, 5), Z(1, 7), Z(2, 7), base)


def test_theta_base_as_an_int_a_fraction_or_a_power_of_q():
    for base, p in ((2, F(2)), (F(3, 2), F(3, 2)), (Q(F(1, 3)), F(1, 3)), (True, F(1))):
        assert _base_exp(base) == p and type(_base_exp(base)) is Fraction
    assert theta_j(Z(1, 5), 2, 12) == theta_j(Z(1, 5), F(2), 12) == theta_j(Z(1, 5), Q(2), 12)
    for base in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="theta base exponent must be positive"):
            _base_exp(base)
    with pytest.raises(ValueError, match="pure power of q"):
        _base_exp(Z(1, 3, 1))


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


def _theta_sum(z, p, order):
    """j(z;q^p) below `order` as the bilateral sum of its terms, a reference
    independent of `theta_quotient`; p None is the two-term block 1 - z."""
    order = F(order)
    if p is None:
        terms = [(n, n * z.q_exp) for n in (0, 1) if n * z.q_exp < order]
    else:
        p = F(p)
        terms = bilateral(lambda n: p * binom2(n) + n * z.q_exp, order)
    return root_sum(((-1 if n % 2 else 1, z.zeta_num * n, exp) for n, exp in terms),
                    z.zeta_den, order)


def test_theta_j_matches_bilateral_sum():
    # byte-identical to the bilateral sum over ties, vanishing blocks,
    # negative and fractional exponents, fractional bases and orders
    rng = random.Random(29)
    for case in range(200):
        p = rng.choice([1, 2, 3, F(1, 2), F(3, 2), 18, 27])
        e = rng.choice([rng.randint(-3, 3) * p, rng.randint(-30, 40), F(rng.randint(-20, 20), 3)])
        z = Z(rng.randrange(7), rng.choice([1, 2, 3, 5, 7, 12]), e)
        order = rng.choice([F(rng.randint(-6, 30)), F(rng.randint(-9, 60), rng.choice([2, 3]))])
        assert theta_j(z, p, order).to_json_dict() == _theta_sum(z, p, order).to_json_dict(), \
            (z, p, order)


def test_theta_quotient_of_two_blocks_is_their_product():
    a = theta_quotient(((Z(1, 3), 1), (Z(2, 3), 1)), (), 20)
    b = _theta_sum(Z(1, 3), 1, 20) * _theta_sum(Z(2, 3), 1, 20)
    assert a.order == 20 and a.agrees_with(b, 20)
    # (1 - w)(1 - w^2) = 3, so j(w;q) j(w^2;q) = 3 J_3^2
    rhs = eta_quotient({3: 2}, 20).scale(3)
    assert a.agrees_with(rhs, 20)


def test_theta_quotient_with_a_vanishing_numerator_block():
    assert theta_quotient(((Q(1), 1), (Z(1, 5), 1)), (), 20).is_zero_to(20)
    assert theta_quotient(((Q(0), None), (Z(1, 5), 1)), (), 20).is_zero_to(20)  # 1 - 1


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
        v = _block_valuation(z, p)
        assert theta_j(z, p, v + 2).valuation == v, (z, p)
    assert _block_valuation(Z(1, 5, 3), 4) == 0     # 0 <= exp(z) < p
    assert _block_valuation(Z(1, 5, 4), 4) == 0     # n = 0 and n = -1 tie
    assert _block_valuation(Z(1, 5, -1), 4) == -1


def test_block_grid_against_a_brute_force_minimum():
    # the integer grid of one block: its valuation is the least exponent
    # over a window of n wide enough for |exp(z)/p| <= 144, and it vanishes
    # exactly when z is a power of q^p with no root-of-unity part
    rng = random.Random(16)
    for case in range(200):
        p = F(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6]))
        m = rng.choice([1, 2, 3, 6])
        e = rng.choice([p * rng.randint(-4, 4), F(rng.randint(-24, 24), m)])
        z = Z(rng.choice([0, 0, 1, 2]), rng.choice([1, 3, 5]), e)
        s, P, E, v, vanishes = _block(z, Q(p) if case % 2 else p)
        assert s == math.lcm(p.denominator, e.denominator)
        assert (F(P, s), F(E, s)) == (p, e)
        assert F(v, s) == min(p * binom2(n) + n * e for n in range(-150, 151)), (z, p)
        assert vanishes == (z.coeff_is_one and (e / p).denominator == 1), (z, p)
        assert is_theta_zero_pattern(z, p) == vanishes


# -- theta_quotient against the product-and-Newton route ----------------------


def _product_route(num, den, order, eta=None, shift=None, start=None):
    """shift * start * eta * prod_num j / prod_den j as series products and
    Newton inverses, start a QSeries and 1 - u (a block (u, None)) expanded
    as two terms, every factor expanded far enough that the product is
    known below `order`: a product keeps the least relative precision of its
    factors, so factors of valuation v_i (exponent e_i, the start and the
    eta quotient among them) known below o give a product known below
    exp(shift) + sum e_i v_i + o - max v_i."""
    thetas = [(z, p, 1) for z, p in num] + [(z, p, -1) for z, p in den]
    factors = [(_block_valuation(z, p), e) for z, p, e in thetas]
    if eta is not None:
        factors.append((F(0), 1))
    if start is not None:
        factors.append((start.valuation, 1))
    reach = sum(e * v for v, e in factors) - max(v for v, _ in factors)
    if shift is not None:
        reach += shift.q_exp
    loss = max(F(0), -reach)

    def build(o):
        o += loss
        out = None if eta is None else eta_quotient(eta, o)
        if start is not None:
            out = start if out is None else out * start
        for z, p, e in thetas:
            f = _theta_sum(z, p, o) if e > 0 else _theta_sum(z, p, o).invert()
            out = f if out is None else out * f
        return out if shift is None else out.shift(shift)
    return computed_to(build, order)


def _random_block(rng, roots):
    N = rng.choice(roots)
    p = rng.choice([1, 2, 3, F(1, 2), 18])
    tie = rng.randint(-2, 2) * p  # exp(z) a multiple of p: the two lowest terms tie
    e = rng.choice([tie, tie, rng.randint(-6, 9), F(rng.randint(-9, 9), 2),
                    F(rng.randint(-5, 5), 3)])
    a = rng.randrange(N)
    if a == 0 and (F(e) / p).denominator == 1:  # j(q^(m p);q^p) vanishes identically
        a, e = (1, e) if N > 1 else (0, e + F(1, 3))
    return Z(a, N, e), p


def _random_quotient(rng, roots=None):
    if roots is None:  # one root order 1-12 and its divisors per quotient
        N = rng.randint(1, 12)
        roots = [d for d in range(1, N + 1) if N % d == 0]
    num = [_random_block(rng, roots) for _ in range(rng.randint(0, 2))]
    den = [_random_block(rng, roots) for _ in range(rng.randint(1, 3))]
    eta = rng.choice([None, None, {1: -1}, {2: 2, 1: -1}, {F(1, 2): 1, 3: -2}])
    shift = rng.choice([None, Q(rng.randint(-3, 3)), Z(1, 3, F(1, 2)), Z(2, 5, -2)])
    return num, den, eta, shift


def test_theta_quotient_matches_product_route():
    # byte-identical to the product-and-Newton route over ties and non-ties,
    # bases 1, 2, 3, 1/2 and 18, root orders 1-12, negative and fractional
    # exponents, eta quotients, shifts and orders 1-30 and 13/2
    rng = random.Random(385)
    ties = 0
    for case in range(200):
        num, den, eta, shift = _random_quotient(rng)
        order = F(13, 2) if case % 10 == 0 else F(rng.randint(1, 30))
        ties += sum((z.q_exp / F(p)).denominator == 1 for z, p in den)
        new = theta_quotient(num, den, order, eta, shift)
        old = _product_route(num, den, order, eta, shift)
        assert new.order == order
        assert new.to_json_dict() == old.to_json_dict(), (num, den, order, eta, shift)
    assert 60 < ties < 400


def test_theta_quotient_matches_product_route_in_a_large_field():
    # L = 385: roots of order 5, 7 and 11 in one quotient
    rng = random.Random(7)
    for _ in range(6):
        num = [_random_block(rng, (5, 7, 11))]
        den = [_random_block(rng, (5, 7, 11)) for _ in range(2)]
        z = Z(1, 385, rng.randint(-2, 2))
        den.append((z, 1))
        order = F(rng.randint(4, 12))
        new = theta_quotient(num, den, order, {1: 1})
        assert new.field.L == 385
        assert new.to_json_dict() == _product_route(num, den, order, {1: 1}).to_json_dict()


def _random_two_term(rng, roots):
    # 1 - u with exp(u) > 0, < 0 (integral, halves, thirds) or 0, where u is
    # a root of unity of order N > 1
    N = rng.choice(roots)
    e = rng.choice([F(0), F(rng.randint(1, 4)), F(rng.randint(-3, -1)),
                    F(rng.choice([-5, -3, -1, 1, 3, 5]), 2),
                    F(rng.choice([-4, -2, -1, 1, 2, 4]), 3)])
    a = rng.randrange(N)
    if a == 0 and e == 0:  # 1 - 1 vanishes
        a, e = (1, e) if N > 1 else (0, F(1, 2))
    return Z(a, N, e), None


def _valuation(num, den, shift):
    blocks = [(z, p, 1) for z, p in num] + [(z, p, -1) for z, p in den]
    return (0 if shift is None else shift.q_exp) + sum(
        e * _block_valuation(z, p) for z, p, e in blocks)


def test_theta_quotient_with_two_term_blocks():
    # 1 - u among the numerator and divisor blocks, byte-identical to the
    # product route, which expands 1 - u as two terms and divides by Newton
    rng = random.Random(19)
    roots = (1, 2, 3, 4, 6)
    for case in range(60):
        num, den, eta, shift = _random_quotient(rng, roots)
        num += [_random_two_term(rng, roots) for _ in range(rng.randint(0, 1))]
        den += [_random_two_term(rng, roots) for _ in range(rng.randint(0, 2))]
        order = F(13, 2) if case % 10 == 0 else F(rng.randint(1, 30))
        new = theta_quotient(num, den, order, eta, shift)
        assert new.order == order
        assert new.to_json_dict() == _product_route(num, den, order, eta, shift).to_json_dict(), \
            (num, den, order, eta, shift)


def test_theta_quotient_of_two_term_blocks_alone():
    # only 1 - u blocks, no eta and a negative shift: no theta block of
    # valuation 0 carries the plan to the end of the expansion, so the terms
    # of 1 - u must be listed as far as the expansion runs.  The product
    # route expands every factor past the order and so may count a finer
    # grid than the terms below the order need: its D is a multiple of
    # theta_quotient's, and the two agree once both grids are reduced.
    one = QSeries.one()
    assert theta_quotient((), ((Q(-1), None),), 1, shift=Q(-2)).to_json_dict() == \
        (-one.shift(Q(-1)) - one).truncate(1).to_json_dict()
    assert theta_quotient((), ((Q(-1), None),), 0, shift=Q(-3)).to_json_dict() == \
        (-one.shift(Q(-2)) - one.shift(Q(-1))).truncate(0).to_json_dict()
    rng = random.Random(23)
    roots = (1, 2, 3, 4, 6)
    for case in range(120):
        num = [_random_two_term(rng, roots) for _ in range(rng.randint(0, 2))]
        den = [_random_two_term(rng, roots) for _ in range(rng.randint(1, 3))]
        shift = rng.choice([None, Q(rng.randint(-6, -1)), Q(F(rng.randint(-9, -1), 2)),
                            Z(1, 3, F(-5, 3))])
        order = rng.choice([F(0), F(-2), F(-1, 2), F(13, 2), F(rng.randint(1, 12))])
        new = theta_quotient(num, den, order, shift=shift)
        old = _product_route(num, den, order, None, shift)
        assert new.order == order and old.den % new.den == 0, (num, den, order, shift)
        assert new.normalize_denominator().to_json_dict() == \
            old.normalize_denominator().to_json_dict(), (num, den, order, shift)


def test_theta_quotient_with_a_start():
    # start terms (num, den, shift, weight) of two-term blocks in numerators
    # and divisors, weights +-1 and +-2: byte-identical to the product route
    # with their sum as a series start, known below what the start is needed
    rng = random.Random(11)
    roots, seen = (1, 2, 3, 4, 6), set()
    for case in range(40):
        num, den, eta, shift = _random_quotient(rng, roots)
        order = F(13, 2) if case % 10 == 0 else F(rng.randint(1, 30))
        terms = [([_random_two_term(rng, roots) for _ in range(rng.randint(0, 1))],
                  [_random_two_term(rng, roots) for _ in range(rng.randint(1, 2))],
                  rng.choice([Q(rng.randint(-3, 3)), Z(1, 3, F(1, 2)), Z(2, 5, -2),
                              Q(F(rng.randint(-9, 9), 5))]),
                  rng.choice([1, -1, 2, -2])) for _ in range(rng.randint(1, 3))]
        for n, d, _, w in terms:
            seen |= {(divisor, (u.q_exp > 0) - (u.q_exp < 0))
                     for divisor, blocks in ((False, n), (True, d)) for u, _ in blocks}
            seen.add(w)
        need = order - _valuation(num, den, shift)
        start = linear_sum((w, _product_route(n, d, need + 30, shift=s)) for n, d, s, w in terms)
        new = theta_quotient(num, den, order, eta, shift, terms)
        assert new.order == order
        if start.is_zero():
            assert new.is_zero()
            continue
        old = _product_route(num, den, order, eta, shift, start)
        assert new.to_json_dict() == old.to_json_dict(), (num, den, order, eta, shift, terms)
    assert seen == {1, -1, 2, -2} | {(d, e) for d in (False, True) for e in (-1, 0, 1)}


def test_theta_quotient_sums_its_start_terms():
    # a start given as (num, den, shift) terms is their sum
    rng = random.Random(17)
    for _ in range(20):
        num, den, eta, shift = _random_quotient(rng, (1, 2, 3, 5))
        terms = [_random_quotient(rng, (1, 2, 3, 5)) for _ in range(rng.randint(1, 3))]
        terms = [(n, d, s or Q(0)) for n, d, _, s in terms]
        order = F(rng.randint(1, 20))
        total = theta_quotient(num, den, order, eta, shift, terms)
        one = Monomial.one() if shift is None else shift
        parts = [theta_quotient(num + n, den + d, order, eta, one * s) for n, d, s in terms]
        assert total.order == order
        assert total.agrees_with(sum(parts[1:], parts[0]), order)


def test_theta_quotient_vanishing_divisor_raises():
    for z, p in ((Q(0), 1), (Q(2), 1), (Q(-4), 2), (Q(F(3, 2)), F(1, 2))):
        with pytest.raises(NonGenericParameter):
            theta_quotient([(Z(1, 5), 1)], [(z, p)], 10)
        with pytest.raises(NonGenericParameter):
            theta_quotient([], [], 10, start=[((), ((z, p),), Q(0))])
    # the two-term divisor 1 - q^0, as a block and in a start term
    with pytest.raises(NonGenericParameter):
        theta_quotient([(Z(1, 5), 1)], [(Q(0), None)], 10)
    with pytest.raises(NonGenericParameter):
        theta_quotient([], [], 10, start=[((), ((Q(0), None),), Q(0), -1)])


# -- nested start terms --------------------------------------------------------


def _node_by_node(node, order):
    """A node (num, den, shift[, weight[, eta[, start]]]) of `theta_quotient`
    built node by node: its start the linear_sum of its terms, each built
    below where the node needs it, times its own quotient as a series
    product, the quotient built as far past the order as the start is
    known from (its valuation, or its order when it is zero to it)."""
    num, den, shift, weight, eta, start = (tuple(node) + (1, None, None))[:6]
    if start is None:
        quotient = theta_quotient(num, den, order, eta, shift)
    else:
        need = order - _valuation(num, den, shift)
        start = linear_sum(((1, _node_by_node(t, need)) for t in start), need)
        known_from = start.valuation if start.coeffs else start.order
        quotient = theta_quotient(num, den, order - known_from, eta, shift) * start
    assert quotient.order >= order
    return quotient.scale(weight).truncate(order)


_SHIFTS = [Q(0), Q(-2), Q(F(-1, 2)), Q(F(3, 2)), Z(1, 3, F(-4, 3)), Z(2, 5, 1)]
_WEIGHTS = [1, -1, 2, F(1, 2), F(-2, 3), F(3, 5)]
_ETAS = [None, None, {1: -1}, {2: 2, 1: -1}, {F(1, 2): 1}]


def _random_node(rng, roots, depth):
    """A random node: up to one numerator and two divisor blocks, theta
    blocks of bases 1, 2, 3 and 1/2 or 1 - u, a shift, a weight and an eta
    quotient, with a start of up to three nodes (empty now and then) while
    depth lasts."""
    def block():
        if rng.random() < 0.5:
            return _random_two_term(rng, roots)
        N, p = rng.choice(roots), rng.choice([1, 2, 3, F(1, 2)])
        e = rng.choice([rng.randint(-1, 1) * p, F(rng.randint(-2, 6), rng.choice([1, 2, 3]))])
        a = rng.randrange(N)
        if a == 0 and (F(e) / p).denominator == 1:  # j(q^(m p);q^p) vanishes identically
            a, e = (1, e) if N > 1 else (0, e + F(1, 3))
        return Z(a, N, e), p

    num = [block() for _ in range(rng.randint(0, 1))]
    den = [block() for _ in range(rng.randint(0, 2))]
    start = None
    if depth and rng.random() < 0.7:
        start = [_random_node(rng, roots, depth - 1) for _ in range(rng.choice([0, 1, 2, 2, 3]))]
    return (num, den, rng.choice(_SHIFTS), rng.choice(_WEIGHTS), rng.choice(_ETAS), start)


def _depth(node):
    start = node[5]
    return 0 if start is None else 1 + max(map(_depth, start), default=0)


def test_nested_starts_match_the_tree_built_node_by_node():
    # random trees of depth 2-3 with Fraction weights, an eta quotient per
    # node, empty starts, negative and fractional shifts and 1 - u blocks,
    # against each node its own quotient and each start a linear_sum; both
    # reduced to their least grid, as the node-by-node route lists every
    # block past the order
    rng = random.Random(2201)
    roots, depths, seen = (1, 2, 3, 4, 6), [], set()
    for case in range(60):
        num, den, shift, _, eta, start = _random_node(rng, roots, 3)
        if start is None or _depth((num, den, shift, 1, eta, start)) < 2:
            start = [_random_node(rng, roots, 2), _random_node(rng, roots, 1)]
        tree = (num, den, shift, 1, eta, start)
        depths.append(_depth(tree))
        order = rng.choice([F(13, 2), F(rng.randint(1, 16)), F(rng.randint(1, 30), 3)])
        got = theta_quotient(num, den, order, eta, shift, start)
        ref = _node_by_node(tree, order)
        assert got.order == order
        assert got.normalize_denominator().to_json_dict() == \
            ref.normalize_denominator().to_json_dict(), (tree, order)

        def walk(node):
            seen.add(("weight", type(node[3]).__name__))
            seen.add(("eta", node[4] is not None))
            seen.add(("start", None if node[5] is None else min(len(node[5]), 1)))
            seen.add(("shift", (node[2].q_exp > 0) - (node[2].q_exp < 0)))
            for t in node[5] or ():
                walk(t)
        for t in start:
            walk(t)
    assert {2, 3} <= set(depths)
    assert {("weight", "Fraction"), ("weight", "int"), ("eta", True), ("start", 0),
            ("start", 1), ("start", None), ("shift", -1), ("shift", 1)} <= seen


def test_nested_start_with_a_fraction_weight_is_exact():
    # 1/2 and 1/3 of one quotient sum to 5/6 of it; the weights' denominators
    # join the divisor of the result
    node = (((Z(1, 5), 1),), ((Z(1, 7), 2),), Q(F(-1, 2)))
    order = F(12)
    got = theta_quotient((), (), order, start=[
        ((), (), Q(0), F(1, 2), None, [node]), ((), (), Q(0), F(1, 3), None, [node])])
    assert got.to_json_dict() == theta_quotient(*node[:2], order, shift=node[2]).scale(
        F(5, 6)).to_json_dict()


def test_nested_empty_start_is_zero():
    # a node whose start is empty adds nothing, however its blocks plan;
    # its blocks still count towards the field, as an empty series does in
    # linear_sum
    leaf = (((Z(1, 5), 1),), (), Q(-3))
    for order in (F(1), F(12), F(13, 2)):
        empty = ((), ((Z(1, 7), 1),), Q(-5), 2, {1: -2}, [])
        got = theta_quotient((), (), order, start=[leaf, empty])
        alone = theta_quotient(*leaf[:2], order, shift=leaf[2])
        assert got.order == order and got.field.L == 35 and got.agrees_with(alone, order)
        assert theta_quotient((), (), order, start=[empty]).is_zero()


def test_nested_start_under_a_one_minus_c_numerator():
    # a root 1 - c (c a root of unity, or c q^-1) over two nodes: the two
    # rows at offset 0 of its numerator pass, against the series product
    rng = random.Random(2203)
    for c in (Z(1, 3), Z(1, 4), Z(2, 5), Z(1, 3, -1), Q(F(1, 2))):
        start = [_random_node(rng, (1, 2, 3), 2) for _ in range(2)]
        tree = (((c, None),), (), Q(0), 1, None, start)
        for order in (F(1), F(9), F(17, 2)):
            got = theta_quotient(((c, None),), (), order, start=start)
            assert got.order == order
            assert got.normalize_denominator().to_json_dict() == \
                _node_by_node(tree, order).normalize_denominator().to_json_dict(), (c, order)


def test_nested_vanishing_divisor_raises():
    # a divisor that vanishes identically raises wherever it sits in the
    # tree, also in a node the expansion never reaches
    for z, p in ((Q(0), 1), (Q(2), 1), (Q(F(3, 2)), F(1, 2)), (Q(0), None)):
        bad = ((), ((z, p),), Q(0))
        for start in ([((), (), Q(0), 1, None, [bad])],
                      [((), ((Z(1, 3), 1),), Q(40), F(1, 2), {1: 1}, [bad])],
                      [(((Z(1, 5), 1),), (), Q(0), 1, None, [((), (), Q(1), 2, None, [bad])])]):
            with pytest.raises(NonGenericParameter):
                theta_quotient([], [], 10, start=start)


def test_theta_quotient_vanishing_numerator_is_zero():
    s = theta_quotient([(Q(2), 1)], [(Z(1, 5), 1)], 12, eta={1: 3})
    assert s.is_zero() and s.order == 12


@pytest.mark.parametrize("order", [0, -2, F(-1, 2)])
def test_theta_quotient_at_order_at_most_zero(order):
    # a quotient known to no coefficient is its zero-to-order series
    s = theta_quotient((), ((Q(1), 3),), order)
    assert s.is_zero() and s.order == order
    s = theta_quotient(((Z(1, 5), 1),), ((Z(1, 7, -1), 1),), order, eta={1: 1})
    assert s.order == order and s.agrees_with(
        theta_quotient(((Z(1, 5), 1),), ((Z(1, 7, -1), 1),), 4, eta={1: 1}), order)


@st.composite
def _generic_quotients(draw):
    # one root order N <= 12 per quotient; bases 1, 2, 3; ties exp(z) = m p
    # as often as not; up to two numerator and two divisor blocks, and up to
    # two start terms of up to one of each
    N = draw(st.integers(1, 12))

    def blocks(most, least=0):
        out = []
        for _ in range(draw(st.integers(least, most))):
            p = draw(st.sampled_from([1, 2, 3]))
            e = draw(st.one_of(st.integers(-2, 2).map(lambda m: m * p), st.integers(-4, 8),
                               st.integers(-8, 16).map(lambda k: F(k, 2))))
            a = draw(st.integers(0, N - 1))
            if a == 0 and (F(e) / p).denominator == 1:  # j(q^(m p);q^p) vanishes
                a, e = (1, e) if N > 1 else (0, e + F(1, 2))
            out.append((Z(a, N, e), p))
        return out

    shifts = st.sampled_from([Q(-2), Q(0), Q(1), Z(1, 3, F(1, 2))])
    num, den = blocks(2), blocks(2, 1)
    eta = draw(st.sampled_from([None, {1: -1}, {2: 2, 1: -1}, {3: 1, 1: -2}]))
    shift = draw(st.one_of(st.none(), shifts))
    terms = draw(st.one_of(st.none(), st.lists(
        st.builds(lambda s: (blocks(1), blocks(1), s), shifts), min_size=1, max_size=2)))
    return num, den, F(draw(st.integers(1, 16))), eta, shift, terms


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_generic_quotients())
def test_theta_quotient_agrees_with_the_product_route(case):
    # a start given as terms is the sum of one product route per term
    num, den, order, eta, shift, terms = case
    got = theta_quotient(num, den, order, eta, shift, terms)
    assert got.order == order
    if terms is None:
        assert got.to_json_dict() == _product_route(num, den, order, eta, shift).to_json_dict()
        return
    one = Monomial.one() if shift is None else shift
    parts = [_product_route(num + n, den + d, order, eta, one * s) for n, d, s in terms]
    assert got.agrees_with(sum(parts[1:], parts[0]), order)


@st.composite
def _fractional_quotients(draw):
    # the integer grid against Fractions: bases 1/2, 2/3, 3/2, 1 and 2,
    # exponents over 2, 3 and 6 (ties among them), eta steps 1/2 and 2/3,
    # fractional shifts and orders
    N = draw(st.sampled_from([1, 2, 3, 4, 6]))

    def blocks(most, least=0):
        out = []
        for _ in range(draw(st.integers(least, most))):
            p = draw(st.sampled_from([F(1, 2), F(2, 3), F(3, 2), F(1), F(2)]))
            e = draw(st.one_of(st.integers(-2, 2).map(lambda m: m * p),
                               st.builds(F, st.integers(-18, 30), st.sampled_from([2, 3, 6]))))
            a = draw(st.integers(0, N - 1))
            if a == 0 and (e / p).denominator == 1:  # j(q^(m p);q^p) vanishes
                a, e = (1, e) if N > 1 else (0, e + F(1, 6))
            out.append((Z(a, N, e), p))
        return out

    num, den = blocks(2), blocks(2, 1)
    eta = draw(st.sampled_from([None, {F(1, 2): 1}, {F(2, 3): -1}, {F(1, 2): -1, F(2, 3): 2}]))
    shift = draw(st.sampled_from([None, Q(F(-1, 3)), Z(1, 3, F(1, 2)), Q(F(5, 6))]))
    order = F(draw(st.integers(1, 60)), draw(st.sampled_from([1, 2, 3, 6])))
    return num, den, order, eta, shift


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_fractional_quotients())
def test_theta_quotient_on_fractional_grids_agrees_with_the_product_route(case):
    num, den, order, eta, shift = case
    got = theta_quotient(num, den, order, eta, shift)
    assert got.order == order
    assert got.to_json_dict() == _product_route(num, den, order, eta, shift).to_json_dict()


def test_theta_quotient_wider_than_a_machine_word():
    # coefficients of 83 bits: slots wider than 8 bytes, sized by the
    # majorant pass, against eta, bilateral sums and a Newton inverse
    blocks = [(Z(k, 7), 1) for k in (1, 2, 3)]
    got = theta_quotient((), blocks, 80, eta={1: -9})
    product = _theta_sum(*blocks[0], 80) * _theta_sum(*blocks[1], 80) * _theta_sum(*blocks[2], 80)
    expected = eta_quotient({1: -9}, 80) * product.invert()
    assert expected.order == got.order == 80
    assert got.to_json_dict() == expected.to_json_dict()
    assert max(abs(c) for _, vec in got.coeffs for c in vec).bit_length() > 64


def _recurrence_rows(rows):
    # the majorant rows of a divisor of any rows (d, w, k), w = +-1: the
    # recurrence 1/(1 - sum |w| q^d)
    return [(d, -abs(w)) for d, w, _ in rows]


def test_majorant_bounds_every_packed_coefficient():
    # the width-0 pass of `_expand` bounds the l1 norm of every coefficient
    # that the packed passes make at any stage, start terms, nested terms
    # and divisors included
    rng = random.Random(5)
    for case in range(80):
        L, n = rng.choice([1, 2, 5, 12]), rng.randint(1, 12)

        def elem():
            return {rng.randrange(L): rng.randint(-9, 9) for _ in range(rng.randint(1, 3))}

        def steps():
            out = []
            for _ in range(rng.randint(0, 3)):
                divisor = rng.random() < 0.5
                rows = [(rng.randint(1 if divisor else 0, n), rng.choice([-1, 1]) if divisor
                         else rng.randint(-9, 9), rng.randrange(L))
                        for _ in range(rng.randint(1, 4))]
                rows.sort()
                out.append((_recurrence_rows(rows) if divisor else None, rows))
            return out

        start = {i: elem() for i in rng.sample(range(n), rng.randint(0, n))}
        terms = [(rng.randrange(n), elem(), steps()) for _ in range(rng.randint(0, 2))]
        terms += [(rng.randrange(n), [(0, elem(), steps())], steps())
                  for _ in range(rng.randint(0, 1))]
        outer = steps()
        start = [(i, c, []) for i, c in start.items()] + terms
        bound = _expand([(0, start, outer)], n, L, 0)[1]
        for k in range(len(outer) + 1):
            packed = _expand([(0, start, outer[:k])], n, L, 16)[0]  # wide enough here
            N = L // 2 if L % 2 == 0 else L  # the slots of the half ring
            assert max(sum(map(abs, _unpack([x], N, 16))) for x in packed) <= bound


def _dense_expand(terms, n, L, width):
    # `_expand` with every constant seed a list of its own, put through its
    # steps one pass at a time, and each walk of an m family's seed a
    # constant over the one-row divisor 1/(1 - zeta_L^dk q^d): the
    # reference for the geometric series of the families
    bits, N = 8 * width, L // 2 if L % 2 == 0 else L
    B, M, WL = (_slot_mask(width, N), (1 << bits * N) - 1, bits * N) if width else (0, -1, 0)
    T = 2 * B if N < L else 0
    top = 0

    def elem(c):
        if not width:
            return sum(map(abs, c.values()))
        v = [0] * N
        for k, w in c.items():
            v[k % N] += -w if k >= N else w
        return _pack(v, width)

    def passes(f, steps):
        nonlocal top
        for major, rows in steps:
            if width:
                rows = [(d, -w, WL - bits * (k - N)) if k >= N else (d, w, WL - bits * k)
                        for d, w, k in rows]
                f = (theta._times if major is None else theta._divide)(f, rows, B, T, M, WL)
            else:
                top = max(top, *f)
                f = (theta._times(f, [(d, abs(w), 0) for d, w, _ in rows], 0, 0, -1, 0)
                     if major is None else theta._divide_norms(f, major))
        if not width:
            top = max(top, *f)
        return f

    def add_terms(n, terms):
        f = [0] * n
        for off, seed, part in terms:
            if type(seed) is tuple:
                seed = [(o, {(i + k) % L: sign * w for i, w in c.items()},
                         [([(d, -1)], [(d, -1, dk)])])
                        for c, walks in seed for o, d, k, dk, sign in walks]
            g = passes([elem(seed)] + [0] * (n - off - 1) if isinstance(seed, dict)
                       else add_terms(n - off, seed), part)
            f[off:] = map(add, f[off:], g)
        return f

    return passes(add_terms(n, terms), ()), top


def _random_tree(rng, n, L, depth):
    # terms of `_expand` below n: m families, walks with steps d up to past
    # n, signs +-1 and every rotation k and step dk (k >= N in the half
    # ring), beside constants under mixed steps and nested sums
    def elem():
        return {rng.randrange(L): rng.randint(-9, 9) for _ in range(rng.randint(1, 3))}

    def steps():
        out = []
        for _ in range(rng.randint(0, 3)):
            divisor = rng.random() < 0.5
            rows = [(rng.randint(1 if divisor else 0, n), rng.choice([-1, 1]) if divisor
                     else rng.randint(-9, 9), rng.randrange(L))
                    for _ in range(rng.randint(1, 3))]
            rows.sort()
            out.append((_recurrence_rows(rows) if divisor else None, rows))
        return out

    terms = []
    for _ in range(rng.randint(1, 5)):
        off, kind = rng.randrange(n), rng.random()
        if kind < 0.5:
            terms.append((off, tuple((elem(), [
                (rng.randrange(n), rng.randint(1, n + 2), rng.randrange(L), rng.randrange(L),
                 rng.choice([-1, 1])) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 2))), []))
        elif kind < 0.8 or not depth:
            terms.append((off, elem(), steps()))
        else:
            terms.append((off, _random_tree(rng, n - off, L, depth - 1), steps()))
    return terms


@pytest.mark.parametrize("L", [1, 2, 5, 12, 35])
def test_geometric_nodes_match_the_dense_passes(L):
    # an m family's walks against one-row divisors: the same packed list and
    # the same majorant, slot for slot, with slots narrow enough to wrap as
    # well as wide ones
    rng = random.Random(4100 + L)
    for case in range(30):
        n = rng.randint(1, 16)
        tree = [(0, _random_tree(rng, n, L, 2), [])]
        for width in (0, 1, 8, 9, 12, 16):
            assert _expand(tree, n, L, width) == _dense_expand(tree, n, L, width), (case, width)


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "qrank" or name.startswith("qrank."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_a_term_of_m_is_no_one_row_division(monkeypatch):
    # each term w q^C(r,2) z^r / (1 - x z q^(r-1)) is a walk of m's family
    rows = []
    divide = theta._divide

    def counted(f, rs, *args):
        rows.append(len(rs))
        return divide(f, rs, *args)

    _clear_caches()
    monkeypatch.setattr(theta, "_divide", counted)
    m = appell_m(Z(1, 5), 1, Z(1, 7), 30)
    assert m.order == 30 and 1 not in rows


def test_a_divisor_with_no_rows_is_no_pass(monkeypatch):
    # a tie whose P(q^p) has no term past 1 below the expansion, and a
    # divisor whose only term there is its lowest, divide by 1: no pass
    divide = theta._divide

    def checked(f, rows, *args):
        assert rows, "a division by 1"
        return divide(f, rows, *args)

    _clear_caches()
    monkeypatch.setattr(theta, "_divide", checked)
    result = run_suite("deviation-*", order=12)
    assert result.all_pass and result.counts["total"] > 0


def _recurrence_tree(terms):
    # `_expand` terms with every divisor's majorant the recurrence of its rows
    return [(off, _recurrence_tree(seed) if isinstance(seed, list) else seed,
             [(None if major is None else _recurrence_rows(rows), rows) for major, rows in steps])
            for off, seed, steps in terms]


def _theta_node(rng, L, depth):
    # (num, den, shift, weight, eta, start) of real blocks: ties c q^(m p)
    # with c of order N | L, N > 1; z with exp(z) inside and outside (0, p);
    # two-term blocks 1 - u; and nested nodes below
    def block(tie):
        p = rng.choice([F(1), F(2), F(1, 2), F(3, 2)])
        if tie:
            N = rng.choice([d for d in range(2, L + 1) if L % d == 0])
            a = rng.choice([a for a in range(1, N) if math.gcd(a, N) == 1])
            return Z(a, N, rng.randint(-2, 2) * p), p
        if rng.random() < 0.25:
            return Z(rng.randrange(L), L, F(rng.choice([-3, -2, -1, 1, 2, 3]), 2)), None
        return Z(rng.randrange(L), L, p * (rng.randint(-1, 1) + F(rng.randint(1, 5), 6))), p

    num = [block(rng.random() < 0.3) for _ in range(rng.randint(0, 2))]
    den = [block(rng.random() < 0.6) for _ in range(rng.randint(0, 3))]
    shift = Z(rng.randrange(L), L, F(rng.randint(-2, 2), 2))
    eta = rng.choice([None, {1: -1}, {2: 1, 1: -2}])
    start = None
    if depth and rng.random() < 0.5:
        start = [_theta_node(rng, L, depth - 1) for _ in range(rng.randint(1, 3))]
        # an m family: steps of either sign, and a tie where x z = c q^(p j)
        p, z = rng.choice([1, 2, F(1, 2)]), Z(rng.randrange(L), L, F(rng.randint(-3, 3), 2))
        x = Z(rng.randrange(L), L, F(rng.randint(-4, 4), 2)) / z if rng.random() < 0.5 else \
            Z(rng.randrange(1, L), L, rng.randint(-2, 2) * p) / z
        try:
            start.append(m_terms(x, p, z, F(rng.randint(-2, 16), rng.choice([1, 2])),
                                 Z(rng.randrange(L), L, F(rng.randint(-2, 2), 2)),
                                 rng.choice([1, -2, 3])))
        except NonGenericParameter:
            pass
    return num, den, shift, F(rng.choice([1, -2, 3]), rng.choice([1, 2])), eta, start


@pytest.mark.parametrize("L", [3, 5, 6, 9, 10, 12, 15])
def test_product_majorant_bounds_real_theta_trees(monkeypatch, L):
    # every packed stage of a theta quotient is within the product majorant,
    # and slots sized by it give the series that slots sized by the
    # recurrence 1/(1 - sum |w| q^d) give
    expand, seen = theta._expand, []

    def recorded(fn):
        def run(f, rows, *args):
            g = fn(f, rows, *args)
            seen.extend(f)
            seen.extend(g)
            return g
        return run

    def checked(tree, n, L, width):
        if width:
            return expand(tree, n, L, width)
        f, bound = expand(tree, n, L, 0)
        # wide enough for any kappa, centred or not
        wide = _slot_width(expand(_recurrence_tree(tree), n, L, 0)[1])
        N = L // 2 if L % 2 == 0 else L
        seen.clear()
        seen.extend(expand(tree, n, L, wide)[0])
        slots = _unpack(seen, N, wide)
        assert max(sum(map(abs, slots[k:k + N])) for k in range(0, len(slots), N)) <= bound
        return f, bound

    def recurrence(tree, n, L, width):
        return expand(tree if width else _recurrence_tree(tree), n, L, width)

    monkeypatch.setattr(theta, "_divide", recorded(theta._divide))
    monkeypatch.setattr(theta, "_times", recorded(theta._times))
    rng = random.Random(3200 + L)
    for case in range(12):
        num, den, shift, _, eta, start = node = _theta_node(rng, L, 2)
        order = F(rng.randint(8, 36), rng.choice([1, 1, 2]))
        monkeypatch.setattr(theta, "_expand", checked)
        got = theta_quotient(num, den, order, eta, shift, start)
        monkeypatch.setattr(theta, "_expand", recurrence)
        expected = theta_quotient(num, den, order, eta, shift, start)
        assert got.to_json_dict() == expected.to_json_dict(), (case, node, order)


def _cyclic(a: dict, b: dict, L: int) -> list:
    # the product of {rotation: weight} elements of Z[C_L], as L integers
    out = [0] * L
    for i, x in a.items():
        for j, y in b.items():
            out[(i + j) % L] += x * y
    return out


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 12])
def test_centred_inverse_is_killed_by_the_cycle_sum(N):
    # kappa = N/(1 - c) for c of order N: S kappa = 0 for S = sum_{j<N} c^j,
    # in Z[C_L] for odd N and in the half ring Z[x]/(x^(L/2) + 1) for even
    # N, and (1 - c) kappa = N mod Phi_L
    for L in (N, 2 * N, 3 * N):
        half = L // 2 if L % 2 == 0 else L
        for a in (a for a in range(1, N) if math.gcd(a, N) == 1):
            k = a * (L // N)
            kappa = theta._centred_inverse(k, N, L)
            cycled = _cyclic({j * k % L: 1 for j in range(N)}, kappa, L)
            if N % 2:
                assert cycled == [0] * L, (N, L, a)
            folded = [x - y for x, y in zip(cycled, cycled[half:])] if half < L else cycled
            assert folded == [0] * half, (N, L, a)
            unit = _cyclic({0: 1, k: -1}, kappa, L)
            unit[0] -= N
            assert not any(get_field(L).reduce_vec(unit)), (N, L, a)


def test_the_widest_entries_pack_in_one_word(monkeypatch):
    # every theta quotient of rank-fold and the root averages, at their
    # default orders, packs its slots at 8 bytes or fewer
    expand, widths = theta._expand, []

    def recorded(tree, n, L, width):
        widths.append(width)
        return expand(tree, n, L, width)

    _clear_caches()
    monkeypatch.setattr(theta, "_expand", recorded)
    for pattern in ("rank-fold", "appell-root-average-*"):
        assert run_suite(pattern).all_pass
    packed = [w for w in widths if w]
    assert packed and max(packed) <= 8, sorted(set(packed))
