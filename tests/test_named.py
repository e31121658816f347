from fractions import Fraction

import pytest

from qrank.errors import UnknownName
from qrank.named import (
    NAMED_BUILDERS,
    _f,
    _g,
    _h,
    _W,
    _WF,
    _class_sum,
    b_block,
    build_named_series,
    dissection_lhs,
    dissection_rhs,
    named_series_names,
)
from qrank.series import Monomial, QSeries, eta_J

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
