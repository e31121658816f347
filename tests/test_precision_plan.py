"""Every builder asks its inputs for the order it needs.

Shifts by q^{-k}, theta blocks of negative valuation and inverted theta
products each lose a known amount of order, and the builders plan for it, so
`computed_to` builds each series once and raises on a result that falls
short.  With the library caches cleared, every catalog instantiation must
pass over a grid of integer and fractional orders; at orders <= 0 every
cached builder must be exact to the order asked for.
"""

import sys
from fractions import Fraction as F

import pytest

from qrank import named, overpartitions
from qrank.appell import (appell_m, delta, lam, lerch_fold_lhs, o_d_direct, o_d_original,
                          psi, s_bar_d)
from qrank.catalog import CATALOG, CatalogEntry, verify
from qrank.series import Monomial, QSeries, computed_to

Z = Monomial.zeta
Q = Monomial.q


@pytest.fixture
def cold_caches():
    for name, mod in list(sys.modules.items()):
        if name == "qrank" or name.startswith("qrank."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    overpartitions._TABLE_CACHE.clear()


@pytest.mark.parametrize("order", [F(-2), F(-1, 2), F(0), F(1), F(3), F(8), F(13, 2), F(20, 3)],
                         ids=str)
def test_catalog_passes_at_every_order(cold_caches, order):
    for entry_id, entry in CATALOG.items():
        for inst in entry.instances:
            single = CatalogEntry(entry.id, entry.description, entry.default_order, [inst])
            (report,) = verify(single, order)
            assert report.verdict == "pass", (entry_id, report.instantiation, report.note)


BUILDERS = {
    "appell_m": lambda o: appell_m(Z(1, 5, 1), 1, Z(1, 7), o),
    "delta": lambda o: delta(Z(1, 5, 1), Z(1, 7), Z(2, 7), 2, o),
    "psi": lambda o: psi(1, 3, Q(1), Z(1, 2), Z(2, 11, F(1, 2)), 2, o),
    "lam": lambda o: lam(3, Z(1, 5), Z(3, 7), Z(1, 7), o),
    "o_d_direct": lambda o: o_d_direct(2, Z(1, 5), o),
    "o_d_original": lambda o: o_d_original(1, Monomial.minus_one(), o),
    "s_bar_d": lambda o: s_bar_d(2, Z(2, 7), Z(3, 11), Z(1, 11), o),
    "lerch_fold_lhs": lambda o: lerch_fold_lhs(Z(1, 5), o),
    "b_block": lambda o: named.b_block(0, o),
    "_f": lambda o: named._block("f", 0, o),
}


@pytest.mark.parametrize("order", [F(0), F(-2), F(-1, 2)], ids=str)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_orders_at_most_zero_are_exact(cold_caches, name, order):
    build = BUILDERS[name]
    s = build(order)
    assert s.order == order
    assert s.agrees_with(build(F(4)), order)


def test_computed_to_raises_on_a_short_build():
    with pytest.raises(RuntimeError):
        computed_to(lambda o: QSeries.one(o - 1), 5)
    with pytest.raises(RuntimeError):
        computed_to(lambda o: QSeries.one(F(1, 2)), -2)
