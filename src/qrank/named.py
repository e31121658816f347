"""Named series builders: the blocks of the paper's 3-dissection, and the
assembled three-part decomposition of the rank series at a cube root of unity.

`BLOCKS` is the one table of the dissection's blocks: W, w, f, g, h, I and
the letters A-G, each a tuple of classes, and each class a tuple of rows.
A row (c, e, eta, num, den) is the term

    c q^e prod_m J_m^eta[m] prod_num j(z;q^p) / prod_den j(z;q^p),

c an int, so every class is a sum of eta quotients times theta blocks, and
`_block` expands class i of a name as one `theta_quotient` whose start
nodes are its rows.  The right side of a 3-dissection sums the three
classes of its block, each built by `_block` at the inner order and
substituted q -> q^3, class k under q^k; the left side stays a plain
`eta_quotient`, so each `dissect3-*` entry keeps one side off the theta
engine.  Every class sum of the decomposition, q^r S(q^3) over the
products of a block with W or with the W f products, is one `_class_sum`.

Builder names are short stable identifiers shared by the catalog and the CLI
(`expand --series`).  Every builder takes an order and returns a QSeries that
is exact below that order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .appell import appell_m, psi
from .cyclotomic import root_of_unity
from .errors import UnknownName
from .series import (PBAR_ETA, Monomial, QSeries, computed_to, eta_J, eta_quotient,
                     exact_below, linear_sum, shift_loss)
from .theta import theta_quotient

F = Fraction
Z = Monomial.zeta
Q = Monomial.q


# -- the blocks of the three-dissection ---------------------------------------


_J12 = {1: -1, 2: -1}  # 1/(J_1 J_2), the eta part of every f_i

# name: one tuple of rows (c, e, eta, num, den) per class.  W_0 = H (w^-2 +
# 8 q w + 16 q^2 w^4), W_1 = H (3 w^-1 + 12 q w^2) and W_2 = 9 H, with
# H = J_3^9/J_1^12 and w = J_1 J_6^3/(J_2 J_3^3), H w^k one eta quotient.
BLOCKS = {
    "W": (((1, 0, {1: -14, 2: 2, 3: 15, 6: -6}, (), ()),
           (8, 1, {1: -11, 2: -1, 3: 6, 6: 3}, (), ()),
           (16, 2, {1: -8, 2: -4, 3: -3, 6: 12}, (), ())),
          ((3, 0, {1: -13, 2: 1, 3: 12, 6: -3}, (), ()),
           (12, 1, {1: -10, 2: -2, 3: 3, 6: 6}, (), ())),
          ((9, 0, {1: -12, 3: 9}, (), ()),)),
    "w": (((1, 0, {1: 1, 6: 3, 2: -1, 3: -3}, (), ()),),),
    "f": (((1, 0, _J12, ((Q(7), 18),), ()),),
          ((-1, 0, _J12, ((Q(5), 18),), ()),),
          ((-1, 1, _J12, ((Q(1), 18),), ()),)),
    "g": (((1, 0, {1: 1, 2: 2, 8: 2, 12: 2, 4: -5, 24: -1}, (), ()),),
          ((1, 0, {2: 7, 3: 1, 8: 2, 12: 4, 1: -2, 4: -7, 6: -3, 24: -1}, (), ()),),
          ((-2, 0, {2: 2, 6: 2, 8: 3, 3: -1, 4: -5}, (), ()),)),
    "h": (((1, 0, {4: 4, 6: 2, 2: -1, 3: -1, 8: -3}, (), ()),),
          ((1, 0, {1: 1, 4: 1, 6: 1, 24: 1, 8: -2, 12: -1}, (), ()),),
          ((-1, 0, {2: 5, 3: 1, 12: 1, 24: 1, 1: -2, 4: -1, 6: -2, 8: -2}, (), ()),)),
    "I": (((1, 0, {2: 2, 6: 3, 4: -6}, (), ()),),
          ((1, 1, {2: 4, 12: 6, 4: -8, 6: -3}, (), ()),),
          ((-1, 0, {2: 3, 12: 3, 4: -7}, (), ()),)),
    # the theta blocks and ratios of the assembled decomposition's letter brackets
    "A": (((1, 0, {}, ((-Q(12), 27),), ()),),),
    "B": (((1, 1, {}, ((-Q(21), 27),), ()),),),
    "C": (((1, 2, {}, ((-Q(3), 27),), ()),),),
    "D": (((1, 0, {}, ((Q(60), 108),), ((-Q(30), 108),)),),),
    "E": (((1, 6, {}, ((Q(84), 108),), ((-Q(42), 108),)),),),
    "F": (((1, 0, {}, ((Q(24), 108),), ((-Q(12), 108),)),),),
    "G": (((1, 12, {}, ((Q(96), 108),), ((-Q(48), 108),)),),),
}


@exact_below
def _block(name: str, i: int, order) -> QSeries:
    """Class i of the `BLOCKS` entry `name`."""
    return theta_quotient((), (), order, start=[(num, den, Q(e), c, eta)
                                                for c, e, eta, num, den in BLOCKS[name][i]])


def _inner_order(order) -> int:
    """The order in q^3 that a component must reach to be valid below
    `order` after q -> q^3 and a shift by at most q^2."""
    return -(-F(order) // 3) + 1


DISSECTION_TARGETS = {
    "dis1": ({1: -3}, "W"),
    "dis2": ({1: 1, 6: 1, 2: -1, 3: -2}, "f"),
    "dis3": ({2: 4, 8: 1, 1: -1, 4: -3}, "g"),
    "dis4": ({2: 3, 1: -1, 8: -1}, "h"),
    "dis5": ({2: 1, 4: -2}, "I"),
}


def dissection_lhs(key: str, order) -> QSeries:
    spec, _ = DISSECTION_TARGETS[key]
    return eta_quotient(spec, order)


def dissection_rhs(key: str, order) -> QSeries:
    """sum_k q^k block_k(q^3) over the three classes of the key's block."""
    name, inner = DISSECTION_TARGETS[key][1], _inner_order(order)
    return linear_sum(((1, _block(name, k, inner).substitute_q_power(3).shift(Q(k)))
                       for k in range(3)), order)


# -- class sums and theta identities of the assembled decomposition ----------


def _class_pairs(r: int):
    """The (k, j, x^{(k+j-r)/3}) over k, j in {0,1,2} with k+j = r (mod 3),
    0 <= r < 3, with x = q: the pairing of every class sum."""
    return [(k, (r - k) % 3, Q((k + (r - k) % 3 - r) // 3)) for k in range(3)]


@exact_below
def _WF(j: int, order) -> QSeries:
    """sum over l, m in {0,1,2} with l+m = j (mod 3) of x^{(l+m-j)/3} W_l f_m:
    the partner of a block in the class sums of `script_G` and `script_H`."""
    return linear_sum(((1, (_block("W", l, order) * _block("f", m, order)).shift(x))
                       for l, m, x in _class_pairs(j)), order)


@exact_below
def _class_sum(block: str, partner: str, n_class: int, order) -> QSeries:
    """sum over k, j in {0,1,2} with k+j = n_class (mod 3) of
    q^{k+j} block_k(q^3) partner_j(q^3).

    With r = n_class mod 3 the sum is q^r S(q^3), where S sums
    x^{(k+j-r)/3} block_k partner_j.  S is built at the inner order, one
    product per block, and substituted once; q -> q^3 is a ring map, so
    this is the same series as substituting every factor first.  block_k
    is class k of the `BLOCKS` entry `block`, and partner_j class j of "W",
    or `_WF(j)` for "WF", the triple sums over block_k W_l f_m.
    """
    r = n_class % 3
    inner = _inner_order(order)
    part = _WF if partner == "WF" else (lambda j, o: _block(partner, j, o))
    total = linear_sum(((1, _block(block, k, inner) * part(j, inner).shift(x))
                        for k, j, x in _class_pairs(r)), inner)
    return total.substitute_q_power(3).shift(Q(r)).truncate(order)


def script_G(n_class: int, order) -> QSeries:
    return _class_sum("g", "WF", n_class % 3, order)


def script_H(n_class: int, order) -> QSeries:
    return _class_sum("h", "WF", n_class % 3, order)


def psi_difference_lhs(order) -> QSeries:
    """4 Psi_2^3(q^9,-1,-1;q^18) - 2 Psi_1^3(q^9,-1,-1;q^18)."""
    minus = Monomial.minus_one()
    return linear_sum(((4, psi(2, 3, Q(9), minus, minus, 18, order)),
                       (-2, psi(1, 3, Q(9), minus, minus, 18, order))))


def _ratio_terms(zs, base):
    """The start terms of sum_z j(z;q^p)/j(-z;q^p)."""
    return [(((z, base),), ((-z, base),), Monomial.one()) for z in zs]


def psi_difference_rhs(order) -> QSeries:
    """-(3/2) q^{-9} (J_18 J_27 J_108 J_162^5 / (J_36^2 J_54 J_81 J_324^3))
    ( j(q^27;q^162)/j(-q^27;q^162) + j(q^81;q^162)/j(-q^81;q^162) )."""
    return theta_quotient((), (), order, eta={18: 1, 27: 1, 108: 1, 162: 5,
                                              36: -2, 54: -1, 81: -1, 324: -3},
                          shift=Q(-9), start=_ratio_terms((Q(27), Q(81)), 162)).scale(F(-3, 2))


# the two ratios of `ratio_sum_lhs`, also the start of `bracket_reduction_lhs`
_RATIO_SUM = _ratio_terms((Z(1, 3, 15), Z(1, 3, 21)), 18)


def ratio_sum_lhs(order) -> QSeries:
    """j(w q^15;q^18)/j(-w q^15;q^18) + j(w q^21;q^18)/j(-w q^21;q^18), w = zeta_3."""
    return theta_quotient((), (), order, start=_RATIO_SUM)


def ratio_sum_rhs(order) -> QSeries:
    """-2 q^3 zeta_3^2 (1 - zeta_3^2) J_6^2 J_9^2 J_36^2 J_54^2 / (J_3 J_18^6 J_27)."""
    w2 = root_of_unity(2, 3)
    quo = eta_quotient({6: 2, 9: 2, 36: 2, 54: 2, 3: -1, 18: -6, 27: -1}, order)
    return (quo * Q(3)).scale(w2 * (1 - w2)).scale(-2)


def bracket_reduction_lhs(order) -> QSeries:
    """-(zeta_3 - zeta_3^2) J_2 J_6 J_18^4 / (2 J_4^2 J_36^2 j(-zeta_3 q^9;q^18))
    times the two-ratio sum above."""
    w = root_of_unity(1, 3)
    return theta_quotient((), ((-Z(1, 3, 9), 18),), order, eta={2: 1, 6: 1, 18: 4, 4: -2, 36: -2},
                          start=_RATIO_SUM).scale((w - w ** 2) * F(-1, 2))


def bracket_reduction_rhs(order) -> QSeries:
    """3 q^3 J_2 J_6^3 J_9 J_108 / (J_3 J_4^2 J_18 J_36)."""
    quo = eta_quotient({2: 1, 6: 3, 9: 1, 108: 1, 3: -1, 4: -2, 18: -1, 36: -1}, order)
    return (quo * Q(3)).scale(3)


# -- the assembled three-part decomposition ----------------------------------


# the letter brackets of `_B_part`, the same for every class: 2AD - AE, BD + BE,
# 2CE - CD against script_G and 2AG + AF, 2BF + BG, CG - CF against script_H
_BRACKETS = (((2, "AD"), (-1, "AE")), ((1, "BD"), (1, "BE")), ((2, "CE"), (-1, "CD")),
             ((2, "AG"), (1, "AF")), ((2, "BF"), (1, "BG")), ((1, "CG"), (-1, "CF")))


@lru_cache(maxsize=None)
def _letter_brackets(order) -> tuple[QSeries, ...]:
    letter = {x: _block(x, 0, order) for x in "ABCDEFG"}
    return tuple(linear_sum((w, letter[x] * letter[y]) for w, (x, y) in t) for t in _BRACKETS)


@exact_below
def _B_part(n_class: int, order) -> QSeries:
    """q^n_class b_block(n_class) without the head and theta term of class
    0; the classes share the letter brackets and the class sums (keyed by
    the class mod 3) of their one order."""
    first = eta_quotient({6: 3, 9: 1, 108: 1, 3: -1, 18: -1, 36: -1}, order)
    first = (first * _block("I", n_class, order).substitute_q_power(3)).shift(Q(3 + n_class))
    outer = eta_quotient({3: 2, 6: 2, 36: 1, 12: -1, 18: -2}, order)
    gw_coeff = eta_quotient({3: 3, 12: 2, 18: 2, 72: 1, 108: 2,
                             6: -4, 9: -1, 24: -1, 36: -1, 54: -1, 216: -1}, order)
    term_gw = gw_coeff * _class_sum("g", "W", n_class, order)
    AD_AE, BD_BE, CE_CD, AG_AF, BF_BG, CG_CF = _letter_brackets(order)
    G0, G1, G2 = (script_G(n_class + i, order) for i in range(3))
    g_coeff = eta_quotient({12: 2, 108: 1, 6: -1, 24: -1}, order)
    term_G = linear_sum(((1, AD_AE * G1), (-1, BD_BE * G0), (1, CE_CD * G2)))
    term_G = (g_coeff * term_G).shift(Q(2))
    hw_coeff = eta_quotient({3: 3, 18: 1, 24: 1, 36: 2, 216: 1,
                             6: -3, 9: -1, 12: -1, 72: -1, 108: -1}, order)
    term_hw = (hw_coeff * _class_sum("h", "W", (n_class + 1) % 3, order)).shift(Q(5))
    H0, H1, H2 = (script_H(n_class + i, order) for i in range(3))
    h_coeff = eta_quotient({24: 1, 108: 1, 12: -1}, order)
    term_H = linear_sum(((1, AG_AF * H2), (-1, BF_BG * H1), (-1, CG_CF * H0)))
    term_H = (h_coeff * term_H).shift(Q(1))
    inner = linear_sum(((1, term_gw), (-2, term_G), (1, term_hw), (-2, term_H)))
    return linear_sum(((3, first), (1, outer * inner)))


def b_block(n_class: int, order) -> QSeries:
    """Component n_class of the three-part decomposition, normalized so the
    full series is b_block(0) + q b_block(1) + q^2 b_block(2), each block a
    series in q^3.  Class 0 carries the Appell-Lerch head and the
    Psi-difference theta term.  Every class reads `_B_part` at order + 2,
    which class 2 needs after its shift by q^-2, so the three blocks of one
    order share one build.  A class outside 0, 1, 2 raises ValueError."""
    if n_class not in (0, 1, 2):
        raise ValueError("the decomposition has classes 0, 1 and 2, not %r" % (n_class,))

    def build(o):
        part = _B_part(n_class, o + 2).shift(Q(-n_class))
        if n_class:
            return part
        minus = Monomial.minus_one()
        head = appell_m(Q(-27), 162, minus, o + shift_loss(Q(-36))).shift(Q(-36))
        return linear_sum(((6, head), (1, psi_difference_rhs(o)), (1, part)))
    return computed_to(build, order)


# -- registry ----------------------------------------------------------------


def _named_builders():
    builders = {}
    for name, classes in BLOCKS.items():
        for i in range(len(classes)):
            # a block of one class is named alone: w and the letters A-G
            label = name if len(classes) == 1 else "%s%d" % (name, i)
            builders[label] = (lambda o, x=name, i=i: _block(x, i, o))
    for i in range(3):
        builders["G%d" % i] = (lambda o, i=i: script_G(i, o))
        builders["H%d" % i] = (lambda o, i=i: script_H(i, o))
    for key in DISSECTION_TARGETS:
        builders["%s-lhs" % key] = (lambda o, k=key: dissection_lhs(k, o))
        builders["%s-rhs" % key] = (lambda o, k=key: dissection_rhs(k, o))
    builders["Bbar0"] = (lambda o: b_block(0, o))
    builders["B1"] = (lambda o: b_block(1, o))
    builders["B2"] = (lambda o: b_block(2, o))
    builders["pbar"] = (lambda o: eta_quotient(PBAR_ETA, o))
    return builders


NAMED_BUILDERS = _named_builders()


def build_named_series(name: str, order) -> QSeries:
    """Look up a named series and expand it below `order`."""
    if name.startswith("J") and name[1:].isdigit():
        return eta_J(int(name[1:]), F(order))
    try:
        builder = NAMED_BUILDERS[name]
    except KeyError:
        raise UnknownName("no series named %r" % name) from None
    return builder(F(order))


def named_series_names() -> list[str]:
    return sorted(NAMED_BUILDERS)
