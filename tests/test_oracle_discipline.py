"""The oracle side of every formula check never touches m, Psi or Lambda,
nor the theta-quotient engine they are built on.

With the library caches cleared and `appell_m`, `psi`, `lam` and
`theta_quotient` rebound to raisers in every qrank module that holds them,
both sides of the enumeration and two-forms entries and the definition
route of the deviations must still build.  The formula side must raise,
which shows the rebinding took hold.
"""

import sys

import pytest

from qrank import overpartitions
from qrank.catalog import CATALOG
from qrank.overpartitions import deviation_by_definition, deviation_pair_by_formula

ORDER = 8


class Forbidden(Exception):
    pass


def _forbidden(*args, **kwargs):
    raise Forbidden("the oracle route reached the Appell-Lerch machinery")


@pytest.fixture
def no_appell_lerch(monkeypatch):
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "qrank" or name.startswith("qrank.")]
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        for name in ("appell_m", "psi", "lam", "theta_quotient"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _forbidden)
    overpartitions._TABLE_CACHE.clear()


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
