"""The library's plain record classes: constructors, defaults, value equality,
and for Overpartition hashing, immutability and pickling."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from qrank.catalog import CatalogEntry, Instance, SuiteResult
from qrank.overpartitions import Overpartition, RankTables
from qrank.reports import IdentityReport

REPORT_FIELDS = {
    "entry_id": "e",
    "instantiation": {"x": "q"},
    "order": "7",
    "verdict": "fail",
    "first_mismatch": {"exponent": "3", "lhs": "1", "rhs": "2"},
    "note": "n",
    "wall_ms": 1.5,
}


def test_report_defaults_and_fresh_instantiation():
    a, b = IdentityReport("e"), IdentityReport("e")
    assert a.instantiation == {} and a.instantiation is not b.instantiation
    a.instantiation["x"] = "1"
    assert b.instantiation == {}
    assert (b.order, b.verdict, b.first_mismatch, b.note, b.wall_ms) == ("", "pass", None, None, 0.0)
    assert b.passed


def test_report_builds_positionally_and_by_keyword():
    positional = IdentityReport(*REPORT_FIELDS.values())
    assert positional == IdentityReport(**REPORT_FIELDS)
    assert [getattr(positional, name) for name in REPORT_FIELDS] == list(REPORT_FIELDS.values())
    assert not positional.passed


@pytest.mark.parametrize("name", list(REPORT_FIELDS))
def test_reports_compare_field_by_field(name):
    base = IdentityReport(**REPORT_FIELDS)
    assert base == IdentityReport(**copy.deepcopy(REPORT_FIELDS))
    other = dict(REPORT_FIELDS, **{name: "changed"})
    assert base != IdentityReport(**other)
    assert IdentityReport(**other) != base


def test_records_of_different_classes_are_unequal_and_unhashable():
    report = IdentityReport("e")
    assert report != SuiteResult([]) and report != "e"
    assert report.__eq__(SuiteResult([])) is NotImplemented
    for record in (report, SuiteResult([]), Instance({}), RankTables(1, 0, [[1]]),
                   CatalogEntry("e", "d", Fraction(5), [])):
        with pytest.raises(TypeError):
            hash(record)


def test_report_to_dict():
    report = IdentityReport(**REPORT_FIELDS)
    report.wall_ms = 1.23456
    assert report.to_dict() == {
        "entry": "e",
        "instantiation": {"x": "q"},
        "order": "7",
        "verdict": "fail",
        "first_mismatch": {"exponent": "3", "lhs": "1", "rhs": "2"},
        "note": "n",
        "wall_ms": 1.235,
    }
    assert report.to_dict()["instantiation"] is not report.instantiation


def test_report_repr_lists_the_fields_in_order():
    assert repr(IdentityReport("e", {"x": "1"})) == (
        "IdentityReport(entry_id='e', instantiation={'x': '1'}, order='', "
        "verdict='pass', first_mismatch=None, note=None, wall_ms=0.0)")


def test_overpartition_is_an_immutable_hashable_value():
    parts = ((3, True), (3, False), (1, False))
    a, b = Overpartition(parts), Overpartition(tuple(parts))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Overpartition(((3, False), (3, False), (1, False)))
    assert a != parts
    assert repr(a) == "Overpartition(parts=((3, True), (3, False), (1, False)))"
    for name in ("parts", "other"):
        with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
            setattr(a, name, ())
        with pytest.raises(FrozenInstanceError, match="cannot delete field"):
            delattr(a, name)
    assert a.parts is parts
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert pickle.loads(pickle.dumps(a)).rank() == a.rank() == 0


def test_suite_result_gets_a_fresh_counts_dict():
    a, b = SuiteResult([]), SuiteResult([])
    assert a.counts == {} and a.counts is not b.counts
    assert a == b
    assert SuiteResult([{"verdict": "pass"}], {"total": 1}) == \
        SuiteResult(reports=[{"verdict": "pass"}], counts={"total": 1})


def test_instance_catalog_entry_and_rank_tables_build_both_ways():
    def lhs(order):
        return order

    inst = Instance({"x": 1}, lhs, lhs, "note")
    assert inst == Instance(params={"x": 1}, lhs=lhs, rhs=lhs, note="note", check=None)
    assert (inst.params, inst.lhs, inst.rhs, inst.note, inst.check) == ({"x": 1}, lhs, lhs, "note", None)
    bare = Instance({})
    assert (bare.lhs, bare.rhs, bare.note, bare.check) == (None, None, None, None)
    assert Instance({}, check=lhs).check is lhs
    # the perfbench tracer rebinds builders through the instance __dict__
    assert vars(inst)["lhs"] is lhs

    entry = CatalogEntry("e", "d", Fraction(5), [inst])
    assert entry == CatalogEntry(id="e", description="d", default_order=Fraction(5), instances=[inst])
    assert (entry.id, entry.description, entry.default_order, entry.instances) == \
        ("e", "d", Fraction(5), [inst])
    assert entry != CatalogEntry("e", "d", Fraction(6), [inst])

    tables = RankTables(1, 1, [[1], [1, 0, 1]])
    assert tables == RankTables(d=1, max_n=1, rows=[[1], [1, 0, 1]])
    assert tables != RankTables(2, 1, [[1], [1, 0, 1]])
    assert (tables.count(-1, 1), tables.count(0, 1)) == (1, 0)
