"""Report records produced by identity checks, and the plain record base
the library's record classes share."""

from __future__ import annotations

from fractions import Fraction

PASS = "pass"
FAIL = "fail"
NON_GENERIC = "non-generic"


class Record:
    """Value equality and a dataclass-style ``repr`` over the instance
    ``__dict__``, field by field in the order ``__init__`` sets them.

    The library's records are plain classes on this base rather than
    dataclasses: importing ``dataclasses`` loads ``inspect``, ``ast`` and
    ``tokenize``, and each decoration execs generated code, which a cold
    ``qrank`` process would pay for on every start.  Records keep their
    ``__dict__``, so their attributes can be rebound through ``vars()``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % kv for kv in vars(self).items()))


class IdentityReport(Record):
    """Outcome of one coefficient-exact comparison.

    A `pass` verdict means both sides agree on every exponent below `order`.
    Entries that assert exact vanishing carry a truncation-limited note, since
    expansion can only establish vanishing up to the computed order.
    """

    def __init__(self, entry_id: str, instantiation: dict | None = None, order: str = "",
                 verdict: str = PASS, first_mismatch: dict | None = None,
                 note: str | None = None, wall_ms: float = 0.0):
        self.entry_id = entry_id
        self.instantiation = {} if instantiation is None else instantiation
        self.order = order
        self.verdict = verdict
        self.first_mismatch = first_mismatch
        self.note = note
        self.wall_ms = wall_ms

    def to_dict(self) -> dict:
        return {
            "entry": self.entry_id,
            "instantiation": dict(self.instantiation),
            "order": self.order,
            "verdict": self.verdict,
            "first_mismatch": self.first_mismatch,
            "note": self.note,
            "wall_ms": round(self.wall_ms, 3),
        }

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def compare_series(entry_id: str, lhs, rhs, order, instantiation=None,
                   note=None) -> IdentityReport:
    """Coefficient-exact comparison of two series below `order`."""
    order = Fraction(order)
    diff = lhs.first_difference(rhs, order)
    report = IdentityReport(
        entry_id=entry_id,
        instantiation={k: str(v) for k, v in (instantiation or {}).items()},
        order=str(order),
        note=note,
    )
    if diff is not None:
        e, ca, cb = diff
        report.verdict = FAIL
        report.first_mismatch = {"exponent": str(e), "lhs": str(ca), "rhs": str(cb)}
    return report
