"""Every builder asks its inputs for the order it needs.

Shifts by q^{-k}, theta blocks of negative valuation and inverted theta
products each lose a known amount of order, and the builders plan for it, so
`computed_to` never has to rebuild.  With the library caches cleared and
`computed_to` rebound to a counting wrapper in every qrank module that holds
it, every catalog instantiation must pass with each builder run once.
"""

import sys

import pytest

from qrank import overpartitions, series
from qrank.catalog import CATALOG, verify

ORDER = 8


@pytest.fixture
def attempts(monkeypatch):
    """(builder runs, target) of every computed_to call, caches cleared."""
    seen = []
    original = series.computed_to

    def counting(builder, order, *args, **kwargs):
        runs = [0]

        def counted(o):
            runs[0] += 1
            return builder(o)

        try:
            return original(counted, order, *args, **kwargs)
        finally:
            seen.append((runs[0], order))

    modules = [mod for name, mod in list(sys.modules.items())
               if name == "qrank" or name.startswith("qrank.")]
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        if getattr(mod, "computed_to", None) is original:
            monkeypatch.setattr(mod, "computed_to", counting)
    overpartitions._TABLE_CACHE.clear()
    return seen


def test_catalog_builds_every_series_on_the_first_attempt(attempts):
    for entry_id, entry in CATALOG.items():
        for report in verify(entry, ORDER):
            assert report.verdict == "pass", (entry_id, report.instantiation)
    assert len(attempts) > 600
    retried = [a for a in attempts if a[0] != 1]
    assert not retried, "%d computed_to calls rebuilt" % len(retried)
