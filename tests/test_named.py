from fractions import Fraction

import pytest

from qrank import named
from qrank.appell import appell_m
from qrank.catalog import CATALOG
from qrank.errors import UnknownName
from qrank.named import (
    NAMED_BUILDERS,
    _f,
    _g,
    _h,
    _I,
    _W,
    _WF,
    _class_sum,
    _letter,
    b_block,
    build_named_series,
    dissection_lhs,
    dissection_rhs,
    named_series_names,
    psi_difference_rhs,
    script_G,
    script_H,
)
from qrank.series import (Monomial, QSeries, computed_to, eta_J, eta_quotient, linear_sum,
                          shift_loss, shifted)

F = Fraction


def test_named_lookup_roundtrip():
    for name in named_series_names():
        s = build_named_series(name, 6)
        assert s.order is not None and s.order >= 6, name


def test_eta_names():
    assert build_named_series("J3", 10).agrees_with(eta_J(3, 10), 10)


def test_unknown_name():
    with pytest.raises(UnknownName):
        build_named_series("Zz", 5)


@pytest.mark.parametrize("key", ["dis1", "dis2", "dis3", "dis4", "dis5"])
def test_dissections_at_low_order(key):
    assert dissection_lhs(key, 30).agrees_with(dissection_rhs(key, 30), 30)


def test_b_blocks_are_cubic_series():
    for n in range(3):
        block = b_block(n, 15)
        for e, _ in block.terms():
            assert e % 3 == 0, (n, e)


def test_w2_block_is_9_eta_quotient():
    from qrank.series import eta_quotient

    w2 = build_named_series("W2", 12)
    assert w2.agrees_with(eta_quotient({3: 9, 1: -12}, 12).scale(9), 12)


def test_f1_block_sign():
    from qrank.series import Monomial
    from qrank.theta import theta_j
    from qrank.series import eta_quotient

    f1 = build_named_series("f1", 12)
    rhs = -(theta_j(Monomial.q(5), 18, 12) * eta_quotient({1: -1, 2: -1}, 12))
    assert f1.agrees_with(rhs, 12)


def test_triple_sum_blocks_recombine():
    # the residue-filtered triple sums recombine to the product of the three
    # dissected quotients
    from qrank.named import script_G
    from qrank.series import QSeries

    total = QSeries.zero(18)
    for n in range(3):
        comp = script_G(n, 18)
        for e, _ in comp.terms():
            assert e % 3 == n
        total = total + comp
    product = (dissection_lhs("dis3", 18) * dissection_lhs("dis1", 18)
               * dissection_lhs("dis2", 18))
    assert total.agrees_with(product, 18)


@pytest.mark.parametrize("order", [0, -2])
def test_named_builders_at_order_at_most_zero(order):
    # each builder returns what its expansion at a positive order truncates to
    for name, builder in NAMED_BUILDERS.items():
        expected = builder(F(8)).truncate(order).to_json_dict()
        assert builder(F(order)).to_json_dict() == expected, name


def _triple_sum_substituted_first(block, n_class, order):
    """The triple sum with every factor substituted q -> q^3 before the 18
    products."""
    order = F(order)
    inner = -(-order // 3) + 1
    blocks = [block(k, inner).substitute_q_power(3) for k in range(3)]
    Ws = [_W(l, inner).substitute_q_power(3) for l in range(3)]
    fs = [_f(m, inner).substitute_q_power(3) for m in range(3)]
    out = QSeries.zero(order)
    for k in range(3):
        for l in range(3):
            for m in range(3):
                if (k + l + m) % 3 == n_class % 3:
                    term = blocks[k] * Ws[l] * fs[m]
                    out = out + term.shift(Monomial.q(k + l + m)).truncate(order)
    return out


def _pair_sum_substituted_first(block, n_class, order):
    """The pair sum, substituting before multiplying."""
    order = F(order)
    inner = -(-order // 3) + 1
    blocks = [block(k, inner).substitute_q_power(3) for k in range(3)]
    Ws = [_W(l, inner).substitute_q_power(3) for l in range(3)]
    out = QSeries.zero(order)
    for k in range(3):
        for l in range(3):
            if (k + l) % 3 == n_class % 3:
                out = out + (blocks[k] * Ws[l]).shift(Monomial.q(k + l)).truncate(order)
    return out


@pytest.mark.parametrize("block", [_g, _h], ids=["g", "h"])
def test_dissection_sums_match_substitute_first_route(block):
    # multiplying before q -> q^3 gives the same serialized series
    for n_class in range(6):
        for order in list(range(1, 32)) + [F(20, 3)]:
            new = _class_sum(block, _WF, n_class, order).to_json_dict()
            old = _triple_sum_substituted_first(block, n_class, order).to_json_dict()
            assert new == old, ("triple", n_class, order)
            new = _class_sum(block, _W, n_class, order).to_json_dict()
            old = _pair_sum_substituted_first(block, n_class, order).to_json_dict()
            assert new == old, ("pair", n_class, order)


def _per_class_part(n_class, order):
    """The class's part built alone, its letters multiplied for it and its
    class sums keyed by n_class + i."""
    def build(order):
        Q = Monomial.q
        first = eta_quotient({6: 3, 9: 1, 108: 1, 3: -1, 18: -1, 36: -1}, order)
        first = (first * _I(n_class, order).substitute_q_power(3)).shift(Q(3 + n_class))
        outer = eta_quotient({3: 2, 6: 2, 36: 1, 12: -1, 18: -2}, order)
        gw_coeff = eta_quotient({3: 3, 12: 2, 18: 2, 72: 1, 108: 2,
                                 6: -4, 9: -1, 24: -1, 36: -1, 54: -1, 216: -1}, order)
        term_gw = gw_coeff * _class_sum(_g, _W, n_class, order)
        A, B, C, D, E, Fq, G = (_letter(x, order) for x in "ABCDEFG")
        G0, G1, G2 = (script_G(n_class + i, order) for i in range(3))
        g_coeff = eta_quotient({12: 2, 108: 1, 6: -1, 24: -1}, order)
        term_G = linear_sum(((1, linear_sum(((2, A * D), (-1, A * E))) * G1),
                             (-1, linear_sum(((1, B * D), (1, B * E))) * G0),
                             (1, linear_sum(((2, C * E), (-1, C * D))) * G2)))
        term_G = (g_coeff * term_G).shift(Q(2))
        hw_coeff = eta_quotient({3: 3, 18: 1, 24: 1, 36: 2, 216: 1,
                                 6: -3, 9: -1, 12: -1, 72: -1, 108: -1}, order)
        term_hw = (hw_coeff * _class_sum(_h, _W, n_class + 1, order)).shift(Q(5))
        H0, H1, H2 = (script_H(n_class + i, order) for i in range(3))
        h_coeff = eta_quotient({24: 1, 108: 1, 12: -1}, order)
        term_H = linear_sum(((1, linear_sum(((2, A * G), (1, A * Fq))) * H2),
                             (-1, linear_sum(((2, B * Fq), (1, B * G))) * H1),
                             (-1, linear_sum(((1, C * G), (-1, C * Fq))) * H0)))
        term_H = (h_coeff * term_H).shift(Q(1))
        inner = linear_sum(((1, term_gw), (-2, term_G), (1, term_hw), (-2, term_H)))
        return linear_sum(((3, first), (1, outer * inner)))
    return computed_to(build, order)


def _per_class_block(n_class, order):
    """b_block with class n built at order + n, apart from the others."""
    Q = Monomial.q
    if n_class:
        return shifted(lambda o: _per_class_part(n_class, o), Q(-n_class), order)

    def build(o):
        minus = Monomial.minus_one()
        head = appell_m(Q(-27), 162, minus, o + shift_loss(Q(-36))).shift(Q(-36))
        return linear_sum(((6, head), (1, psi_difference_rhs(o)), (1, _per_class_part(0, o))))
    return computed_to(build, order)


@pytest.mark.parametrize("order", [F(15), F(30), F(13, 2), F(1, 2), F(0), F(-2)], ids=str)
def test_b_blocks_match_the_per_class_route(order):
    for n in range(3):
        assert b_block(n, order).to_json_dict() == _per_class_block(n, order).to_json_dict(), n


@pytest.mark.parametrize("n_class", [3, -1, 5])
def test_b_block_rejects_a_class_outside_0_1_2(n_class):
    with pytest.raises(ValueError):
        b_block(n_class, 10)


def test_script_blocks_key_the_class_mod_3():
    for n in range(3):
        for m in (n + 3, n - 3):
            assert script_G(m, 12).to_json_dict() == script_G(n, 12).to_json_dict()
            assert script_H(m, 12).to_json_dict() == script_H(n, 12).to_json_dict()


def test_decomposition_shares_its_pieces_between_classes():
    # one build of the three blocks makes each letter once and each of the
    # 12 class sums (g or h against W or W f, classes 0, 1, 2) once
    for value in vars(named).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    CATALOG["third-root-decomposition"].instances[0].rhs(30)
    assert named._letter.cache_info().misses == 7
    assert named._class_sum.cache_info().misses == 12
