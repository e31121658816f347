from fractions import Fraction

import pytest

from qrank import named
from qrank.appell import appell_m
from qrank.catalog import CATALOG
from qrank.errors import UnknownName
from qrank.named import (
    NAMED_BUILDERS,
    _block,
    _class_sum,
    b_block,
    build_named_series,
    dissection_lhs,
    dissection_rhs,
    named_series_names,
    psi_difference_rhs,
    script_G,
    script_H,
)
from qrank.series import (Monomial, QSeries, computed_to, eta_J, eta_quotient, exact_below,
                          linear_sum, shift_loss, shifted)
from qrank.theta import theta_quotient

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


# the per-block builders that the table replaced, kept as the reference
_H = {3: 9, 1: -12}  # J_3^9 / J_1^12
_SMALL_W = {1: 1, 6: 3, 2: -1, 3: -3}  # w = J_1 J_6^3 / (J_2 J_3^3)


def _head_times_w(k):
    spec = dict(_H)
    for m, e in _SMALL_W.items():
        spec[m] = spec.get(m, 0) + k * e
    return spec


@exact_below
def _old_w(order):
    return eta_quotient(_SMALL_W, order)


@exact_below
def _old_W(i, order):
    if i == 2:
        return eta_quotient(_H, order).scale(9)
    terms = ((-2, 0, 1), (1, 1, 8), (4, 2, 16)) if i == 0 else ((-1, 0, 3), (2, 1, 12))
    return linear_sum(((c, eta_quotient(_head_times_w(k), order).shift(Monomial.q(e)))
                       for k, e, c in terms), order)


@exact_below
def _old_f(i, order):
    z, e = ((Monomial.q(7), 0), (Monomial.q(5), 0), (Monomial.q(1), 1))[i]
    s = theta_quotient(((z, 18),), (), order, eta={1: -1, 2: -1}, shift=Monomial.q(e))
    return -s if i else s


@exact_below
def _old_g(i, order):
    if i == 0:
        return eta_quotient({1: 1, 2: 2, 8: 2, 12: 2, 4: -5, 24: -1}, order)
    if i == 1:
        return eta_quotient({2: 7, 3: 1, 8: 2, 12: 4, 1: -2, 4: -7, 6: -3, 24: -1}, order)
    return eta_quotient({2: 2, 6: 2, 8: 3, 3: -1, 4: -5}, order).scale(-2)


@exact_below
def _old_h(i, order):
    if i == 0:
        return eta_quotient({4: 4, 6: 2, 2: -1, 3: -1, 8: -3}, order)
    if i == 1:
        return eta_quotient({1: 1, 4: 1, 6: 1, 24: 1, 8: -2, 12: -1}, order)
    return -eta_quotient({2: 5, 3: 1, 12: 1, 24: 1, 1: -2, 4: -1, 6: -2, 8: -2}, order)


@exact_below
def _old_I(i, order):
    if i == 0:
        return eta_quotient({2: 2, 6: 3, 4: -6}, order)
    if i == 1:
        return eta_quotient({2: 4, 12: 6, 4: -8, 6: -3}, order) * Monomial.q(1)
    return -eta_quotient({2: 3, 12: 3, 4: -7}, order)


_OLD_LETTERS = {
    "A": (((-Monomial.q(12), 27),), (), 0),
    "B": (((-Monomial.q(21), 27),), (), 1),
    "C": (((-Monomial.q(3), 27),), (), 2),
    "D": (((Monomial.q(60), 108),), ((-Monomial.q(30), 108),), 0),
    "E": (((Monomial.q(84), 108),), ((-Monomial.q(42), 108),), 6),
    "F": (((Monomial.q(24), 108),), ((-Monomial.q(12), 108),), 0),
    "G": (((Monomial.q(96), 108),), ((-Monomial.q(48), 108),), 12),
}


@exact_below
def _old_letter(name, order):
    num, den, e = _OLD_LETTERS[name]
    return theta_quotient(num, den, order, shift=Monomial.q(e))


_OLD_DISSECTIONS = {
    "dis1": ({1: -3}, _old_W),
    "dis2": ({1: 1, 6: 1, 2: -1, 3: -2}, _old_f),
    "dis3": ({2: 4, 8: 1, 1: -1, 4: -3}, _old_g),
    "dis4": ({2: 3, 1: -1, 8: -1}, _old_h),
    "dis5": ({2: 1, 4: -2}, _old_I),
}


def _old_dissection_rhs(block, order):
    inner = -(-F(order) // 3) + 1
    return linear_sum(((1, block(k, inner).substitute_q_power(3).shift(Monomial.q(k)))
                       for k in range(3)), order)


def _old_builders():
    old = {"w": _old_w}
    for name, block in (("W", _old_W), ("f", _old_f), ("g", _old_g), ("h", _old_h),
                        ("I", _old_I)):
        for i in range(3):
            old["%s%d" % (name, i)] = (lambda o, b=block, i=i: b(i, o))
    for x in "ABCDEFG":
        old[x] = (lambda o, x=x: _old_letter(x, o))
    for key, (spec, block) in _OLD_DISSECTIONS.items():
        old[key + "-lhs"] = (lambda o, spec=spec: eta_quotient(spec, o))
        old[key + "-rhs"] = (lambda o, block=block: _old_dissection_rhs(block, o))
    return old


@pytest.mark.parametrize("order", [F(242), F(121), F(62), F(20, 3), F(13, 2), F(7, 3),
                                   F(1, 2), F(0), F(-1, 2), F(-2)], ids=str)
def test_block_table_matches_the_per_block_builders(order):
    # every block, letter and dissection side read from the one table
    # serializes as its own builder did
    old = _old_builders()
    assert len(old) == 33 and set(old) <= set(NAMED_BUILDERS)
    for name, build in old.items():
        assert NAMED_BUILDERS[name](order).to_json_dict() == build(order).to_json_dict(), name


def _triple_sum_substituted_first(block, n_class, order):
    """The triple sum with every factor substituted q -> q^3 before the 18
    products."""
    order = F(order)
    inner = -(-order // 3) + 1
    blocks = [_block(block, k, inner).substitute_q_power(3) for k in range(3)]
    Ws = [_block("W", l, inner).substitute_q_power(3) for l in range(3)]
    fs = [_block("f", m, inner).substitute_q_power(3) for m in range(3)]
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
    blocks = [_block(block, k, inner).substitute_q_power(3) for k in range(3)]
    Ws = [_block("W", l, inner).substitute_q_power(3) for l in range(3)]
    out = QSeries.zero(order)
    for k in range(3):
        for l in range(3):
            if (k + l) % 3 == n_class % 3:
                out = out + (blocks[k] * Ws[l]).shift(Monomial.q(k + l)).truncate(order)
    return out


@pytest.mark.parametrize("block", ["g", "h"])
def test_dissection_sums_match_substitute_first_route(block):
    # multiplying before q -> q^3 gives the same serialized series
    for n_class in range(6):
        for order in list(range(1, 32)) + [F(20, 3)]:
            new = _class_sum(block, "WF", n_class, order).to_json_dict()
            old = _triple_sum_substituted_first(block, n_class, order).to_json_dict()
            assert new == old, ("triple", n_class, order)
            new = _class_sum(block, "W", n_class, order).to_json_dict()
            old = _pair_sum_substituted_first(block, n_class, order).to_json_dict()
            assert new == old, ("pair", n_class, order)


def _per_class_part(n_class, order):
    """The class's part built alone, its letters multiplied for it and its
    class sums keyed by n_class + i."""
    def build(order):
        Q = Monomial.q
        first = eta_quotient({6: 3, 9: 1, 108: 1, 3: -1, 18: -1, 36: -1}, order)
        first = (first * _block("I", n_class, order).substitute_q_power(3)).shift(Q(3 + n_class))
        outer = eta_quotient({3: 2, 6: 2, 36: 1, 12: -1, 18: -2}, order)
        gw_coeff = eta_quotient({3: 3, 12: 2, 18: 2, 72: 1, 108: 2,
                                 6: -4, 9: -1, 24: -1, 36: -1, 54: -1, 216: -1}, order)
        term_gw = gw_coeff * _class_sum("g", "W", n_class, order)
        A, B, C, D, E, Fq, G = (_block(x, 0, order) for x in "ABCDEFG")
        G0, G1, G2 = (script_G(n_class + i, order) for i in range(3))
        g_coeff = eta_quotient({12: 2, 108: 1, 6: -1, 24: -1}, order)
        term_G = linear_sum(((1, linear_sum(((2, A * D), (-1, A * E))) * G1),
                             (-1, linear_sum(((1, B * D), (1, B * E))) * G0),
                             (1, linear_sum(((2, C * E), (-1, C * D))) * G2)))
        term_G = (g_coeff * term_G).shift(Q(2))
        hw_coeff = eta_quotient({3: 3, 18: 1, 24: 1, 36: 2, 216: 1,
                                 6: -3, 9: -1, 12: -1, 72: -1, 108: -1}, order)
        term_hw = (hw_coeff * _class_sum("h", "W", n_class + 1, order)).shift(Q(5))
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


def test_decomposition_shares_its_pieces_between_classes(monkeypatch):
    # one build of the three blocks makes each letter once and each of the
    # 12 class sums (g or h against W or W f, classes 0, 1, 2) once
    for value in vars(named).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    keys, block = set(), named._block

    def recorded(name, i, order):
        keys.add((name, i, order))
        return block(name, i, order)

    monkeypatch.setattr(named, "_block", recorded)
    CATALOG["third-root-decomposition"].instances[0].rhs(30)
    assert block.cache_info().misses == len(keys)  # every table build is recorded
    assert len([k for k in keys if k[0] in "ABCDEFG"]) == 7
    assert named._class_sum.cache_info().misses == 12
