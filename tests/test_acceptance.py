"""Acceptance suite: one test per criterion, exact arithmetic throughout.

"To order q^N" is read inclusively: both sides must agree on every exponent
e <= N, so comparisons run with bound N + 1 in the exclusive convention the
series type uses.  Tolerance is zero everywhere: a single differing
coefficient in Q(zeta_L) fails the criterion.
"""

from fractions import Fraction

from qrank.appell import o_d_direct, s_bar_d
from qrank.catalog import CATALOG, verify
from qrank.overpartitions import p_bar, enumerate_overpartitions, rank_tables
from qrank.series import Monomial

F = Fraction
Z = Monomial.zeta


def _run(entry_id, order):
    reports = verify(CATALOG[entry_id], order)
    bad = [r for r in reports if r.verdict != "pass"]
    assert not bad, "%s: %s" % (entry_id, [(r.instantiation, r.first_mismatch,
                                            r.note) for r in bad])
    return reports


def _announce(k, name):
    print("ACCEPTANCE %2d %s: PASS" % (k, name))


def test_criterion_01_pairs_even_even():
    # (d,a,M) in {(1,2,2), (3,2,4), (1,4,6), (3,4,4)}, through q^30
    _run("deviation-pair-even-even", 31)
    _announce(1, "deviation pairs, odd d with a and M even")


def test_criterion_02_pairs_even_odd():
    # (d,a,M) in {(1,2,3), (3,2,3), (1,2,5)}
    _run("deviation-pair-even-odd", 31)
    _announce(2, "deviation pairs, odd d with a even and M odd")


def test_criterion_03_pairs_odd_odd():
    # (d,a,M) in {(1,1,3), (1,3,3), (3,3,3), (1,3,5)}, boundary constant included
    _run("deviation-pair-odd-odd", 31)
    _announce(3, "deviation pairs, odd d with a and M odd")


def test_criterion_04_pairs_even_d():
    # (d,a,M) in {(2,1,2), (2,1,3), (2,2,3), (4,1,3)}, boundary constant included
    _run("deviation-pair-even-d", 31)
    _announce(4, "deviation pairs, even d")


def test_criterion_05_folded_series_formula():
    # S_d(z;q) = (1+z) O_d(z;q) for d in 1..4 at z in {zeta_5, zeta_7^2},
    # two generic parameter choices each, through q^40; the two choices must
    # yield the identical series.
    _run("rank-fold", 41)
    choices = {
        Z(1, 5): [(Z(3, 7), Z(1, 7)), (Z(2, 11), Z(1, 11))],
        Z(2, 7): [(Z(3, 11), Z(1, 11)), (Z(2, 13), Z(1, 13))],
    }
    for d in (1, 2, 3, 4):
        for z, gens in choices.items():
            (z0a, zpa), (z0b, zpb) = gens
            a = s_bar_d(d, z, z0a, zpa, 41)
            b = s_bar_d(d, z, z0b, zpb, 41)
            assert a == b, (d, z)
    _announce(5, "folded rank series via Appell-Lerch formulas, "
                 "parameter independent")


def test_criterion_06_combinatorial_anchoring():
    # enumeration of all overpartitions of n <= 20 reproduces the
    # generating-function tables for the rank and the M2-rank
    _run("rank-enumeration-d1", 21)
    _run("rank-enumeration-d2", 21)
    assert p_bar(4) == 14
    assert len(enumerate_overpartitions(4)) == 14
    _announce(6, "enumeration matches generating function to n = 20, "
                 "14 overpartitions of 4")


def test_criterion_07_three_dissections():
    # all five 3-dissections, coefficient-exact through q^120
    for k in range(1, 6):
        _run("dissect3-%d" % k, 121)
    _announce(7, "five 3-dissections through q^120")


def test_criterion_08_third_root_decomposition():
    _run("third-root-decomposition", 61)
    # cross-check against the rank tables: the coefficients of O_3(zeta_3;q)
    # are N_3(0,3,n) - N_3(2,3,n)
    tables = rank_tables(3, 30)
    series = o_d_direct(3, Z(1, 3), 31)
    for n in range(31):
        row = tables.rows[n]
        expected = sum(row[n % 3::3]) - sum(row[(2 + n) % 3::3])
        assert series.coeff(n) == expected, n
    _announce(8, "three-part decomposition at the cube root, "
                 "with table cross-check to n = 30")


MICRO_AT_30 = (
    "appell-half-constant", "appell-flip", "appell-increment",
    "appell-change-of-z", "appell-root-average-n2", "appell-root-average-n3",
    "lerch-fold", "theta-base-shift", "theta-shifted-pair",
    "theta-inverse-ratio", "theta-power-split-n2", "theta-power-split-n3",
    "theta-cubic-pair", "theta-even-base-split", "theta-ratio-difference",
    "theta-shift-multiplier-n2", "theta-shift-multiplier-n3",
    "theta-cube-root", "theta-negative-cube-root",
    "theta-cube-root-even-base", "theta-cube-root-cubic-base",
    "theta-cube-root-sextic-base", "theta-cube-root-product",
)


def test_criterion_09_identity_micro_suite():
    for entry_id in MICRO_AT_30:
        _run(entry_id, 31)
    for entry_id in ("theta-ratio-sum", "theta-bracket-reduction",
                     "psi-difference-closed-form"):
        _run(entry_id, 61)
    _run("psi-vanishing", 101)
    _announce(9, "identity micro-suite (30/60/100 as stated)")


def test_criterion_10_structural_invariants():
    _run("deviation-residue-sum", 31)
    _run("deviation-reflection", 31)
    _run("deviation-single-odd-modulus", 26)
    _run("deviation-single-even-modulus", 26)
    _announce(10, "residue sums, reflection symmetry, single-deviation routes")
