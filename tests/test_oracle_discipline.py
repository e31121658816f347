"""The two sides of every formula check share no expansion code.

The oracle side never touches m, Psi or Lambda, nor the theta-quotient
engine they are built on: with the library caches cleared and `appell_m`,
`psi`, `lam` and `theta_quotient` rebound to raisers in every qrank module
that holds them, both sides of the enumeration and two-forms entries and
the definition route of the deviations must still build, and the formula
side must raise, which shows the rebinding took hold.  So must the
triple-product oracle for theta blocks, while `theta_j` raises, and the
eta-quotient side of every 3-dissection, while its block side raises.

The formula side never touches the oracle's geometric root sums: with
`root_sum` and `_geometric` rebound to raisers instead, m, Delta, Psi,
Lambda, the folded series and the formula deviations must still build, and
the direct expansion of O_d must raise.
"""

import sys

import pytest

from qrank import overpartitions
from qrank.appell import appell_m, delta, lam, o_d_direct, psi, s_bar_d
from qrank.catalog import CATALOG
from qrank.overpartitions import (deviation_by_definition, deviation_pair_by_formula,
                                  single_deviation)
from qrank.series import Monomial
from qrank.theta import theta_j, theta_triple_product

ORDER = 8


class Forbidden(Exception):
    pass


def _forbidden(*args, **kwargs):
    raise Forbidden("the oracle route reached the Appell-Lerch machinery")


def _forbid(monkeypatch, names):
    """Clear the library caches and rebind `names` to raisers in every
    qrank module that holds them."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "qrank" or name.startswith("qrank.")]
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _forbidden)
    overpartitions._TABLE_CACHE.clear()


@pytest.fixture
def no_appell_lerch(monkeypatch):
    _forbid(monkeypatch, ("appell_m", "psi", "lam", "theta_quotient"))


@pytest.fixture
def no_root_sums(monkeypatch):
    _forbid(monkeypatch, ("root_sum", "_geometric"))


@pytest.mark.parametrize("entry_id", ["rank-enumeration-d1", "rank-enumeration-d2",
                                      "rank-series-two-forms"])
def test_oracle_entries_avoid_appell_lerch(no_appell_lerch, entry_id):
    for inst in CATALOG[entry_id].instances:
        assert inst.lhs(ORDER) == inst.rhs(ORDER)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_deviation_definition_avoids_appell_lerch(no_appell_lerch, d):
    for M in (2, 3, 5):
        deviation_by_definition(d, 1, M, ORDER)
    with pytest.raises(Forbidden):
        deviation_pair_by_formula(d, 1, 3, ORDER)


def test_triple_product_avoids_the_theta_engine(no_appell_lerch):
    Z = Monomial.zeta
    for z, p in [(Z(1, 2), 1), (Z(1, 5), 1), (Z(2, 7, 1), 3), (Z(1, 3, 1), 2)]:
        assert theta_triple_product(z, p, ORDER).coeffs
        with pytest.raises(Forbidden):
            theta_j(z, p, ORDER)


@pytest.mark.parametrize("entry_id", ["dissect3-%d" % k for k in range(1, 6)])
def test_dissection_lhs_avoids_the_theta_engine(no_appell_lerch, entry_id):
    (inst,) = CATALOG[entry_id].instances
    assert inst.lhs(ORDER).coeffs
    with pytest.raises(Forbidden):
        inst.rhs(ORDER)


def test_formula_side_avoids_the_oracle_sums(no_root_sums):
    Z = Monomial.zeta
    x, z, z0, zp = Z(1, 5, 1), Z(1, 7), Z(3, 7), Z(2, 7)
    appell_m(x, 1, z, ORDER)
    appell_m(Z(1, 3), 2, Z(1, 5, -2), ORDER)  # 1 - q^(2(r-1)) x z at r = 2 is 1 - c
    delta(x, z, z0, 1, ORDER)
    psi(1, 3, x, z, zp, 1, ORDER)
    lam(3, Z(1, 5), z0, zp, ORDER)
    for d in (1, 2, 3, 4):
        s_bar_d(d, Z(1, 5), z0, zp, ORDER)
        deviation_pair_by_formula(d, 1, 3, ORDER)
    # odd M only: for even M the single deviation reads O_d(-1;q) from the
    # double-divisor form `o_d_original` by design, since the single-sum form
    # has a (1 + z) pole at z = -1, and that form is an oracle expansion
    for M in (3, 5):
        single_deviation(2, 1, M, ORDER)
    with pytest.raises(Forbidden):
        o_d_direct(1, Z(1, 5), ORDER)
