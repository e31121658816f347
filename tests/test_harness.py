import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qrank

from qrank.appell import o_d_original
from qrank.catalog import (
    CATALOG,
    REQUIRED_ENTRY_IDS,
    CatalogEntry,
    Instance,
    run_suite,
    verify,
)
from qrank.cli import main, parse_root_spec
from qrank.errors import UnknownName
from qrank.series import Monomial, QSeries


def test_catalog_matches_manifest():
    assert set(CATALOG) == set(REQUIRED_ENTRY_IDS)
    assert len(REQUIRED_ENTRY_IDS) == len(set(REQUIRED_ENTRY_IDS))


def test_catalog_entries_well_formed():
    for entry in CATALOG.values():
        assert entry.instances, entry.id
        assert entry.description
        assert entry.default_order > 0


# sha256 of every two-sided instantiation's serialized sides at default orders
CATALOG_SERIALIZATION_SHA256 = "5375236c92fe653d9dcd44c029883791675c1e17e5c3d528ffd1b6cbb575d73d"
# the same at other orders, each built at order 1 and truncated, or on a grid of q^(1/2)
CATALOG_SERIALIZATION_SHA256_AT = {
    "0": "72fc208d73e76b9d2ef977c5a3a338c2657ccae061694852328bd0ab7e42ed80",
    "-2": "f0296bb41b96e64b2948d27416a4ba7c843a4c6ccf66e4f64a8a6eadb30a043f",
    "13/2": "f941bb327a80be7cf3538db8ff01fb0e977f2d48dd2a35050d341b7606b89930",
}


def _serialization_digest(order=None):
    # every to_json_dict() stays byte-identical: L, D, the order and each
    # coefficient, lhs then rhs, in sorted entry order and catalog instance order
    digest, count = hashlib.sha256(), 0
    for eid in sorted(CATALOG):
        entry = CATALOG[eid]
        for inst in entry.instances:
            if inst.check is not None:
                continue
            for side in (inst.lhs, inst.rhs):
                doc = side(entry.default_order if order is None else order).to_json_dict()
                digest.update(json.dumps(doc, sort_keys=True).encode())
            count += 1
    assert count == 223
    return digest.hexdigest()


def test_catalog_serialization_is_pinned():
    assert _serialization_digest() == CATALOG_SERIALIZATION_SHA256


@pytest.mark.parametrize("order", sorted(CATALOG_SERIALIZATION_SHA256_AT))
def test_catalog_serialization_is_pinned_at_other_orders(order):
    assert _serialization_digest(Fraction(order)) == CATALOG_SERIALIZATION_SHA256_AT[order]


def test_every_comparison_reaches_its_order():
    # a two-sided comparison fails at exactly q^(order - 1/D), the last
    # exponent below its order, when the right side gains that term, and
    # passes when it gains q^order: no comparison stops short of its order
    count = 0
    for eid in sorted(CATALOG):
        entry = CATALOG[eid]
        order = entry.default_order
        for inst in entry.instances:
            if inst.check is not None:
                continue
            lhs, rhs = inst.lhs(order), inst.rhs(order)
            last = order - Fraction(1, math.lcm(lhs.den, rhs.den, order.denominator))
            diff = lhs.first_difference(rhs + Monomial.q(last), order)
            assert diff is not None and diff[0] == last, (eid, inst.params)
            assert lhs.agrees_with(rhs + Monomial.q(order), order), (eid, inst.params)
            count += 1
    assert count == 223


def test_verify_produces_reports():
    reports = verify(CATALOG["appell-half-constant"], 10)
    assert len(reports) == 1
    r = reports[0]
    assert r.verdict == "pass"
    assert r.order == "10"
    assert r.wall_ms >= 0
    doc = r.to_dict()
    assert set(doc) == {"entry", "instantiation", "order", "verdict",
                        "first_mismatch", "note", "wall_ms"}


def test_verify_reports_failure_with_mismatch():
    entry = CatalogEntry(
        "synthetic-fail", "always fails", Fraction(5),
        [Instance({}, lambda o: QSeries.one(o),
                  lambda o: QSeries.one(o) + QSeries.from_monomial(Monomial.q(2), o))])
    reports = verify(entry)
    assert reports[0].verdict == "fail"
    assert reports[0].first_mismatch["exponent"] == "2"


def test_verify_reports_non_generic():
    from qrank.appell import o_d_direct

    entry = CatalogEntry(
        "synthetic-pole", "hits a pole", Fraction(5),
        [Instance({}, lambda o: o_d_direct(1, Monomial.one(), o),
                  lambda o: QSeries.zero(o))])
    reports = verify(entry)
    assert reports[0].verdict == "non-generic"


def test_run_suite_filter_and_exit_logic():
    res = run_suite("root-*", order=1)
    assert res.all_pass
    assert res.counts["total"] == 6
    with pytest.raises(UnknownName):
        run_suite("no-such-entry-*")


def test_run_suite_deterministic():
    a = run_suite("theta-vanishing", order=6)
    b = run_suite("theta-vanishing", order=6)

    def strip(reports):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in reports]

    assert strip(a.reports) == strip(b.reports)


def test_run_suite_parallel_matches_serial():
    a = run_suite("theta-cube-root*", order=8, jobs=1)
    b = run_suite("theta-cube-root*", order=8, jobs=2)

    def strip(reports):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in reports]

    assert strip(a.reports) == strip(b.reports)


def test_run_suite_writes_reports(tmp_path):
    jpath = tmp_path / "run.json"
    cpath = tmp_path / "run.csv"
    run_suite("root-power-sums", order=1, json_path=str(jpath), csv_path=str(cpath))
    doc = json.loads(jpath.read_text())
    assert doc["run"]["filter"] == "root-power-sums"
    assert doc["summary"]["pass"] == 6
    assert len(doc["reports"]) == 6
    lines = cpath.read_text().splitlines()
    assert lines[0] == "entry,instantiation,order,verdict,wall_ms"
    assert len(lines) == 7


def test_vanishing_note_in_reports():
    reports = verify(CATALOG["psi-vanishing"], 20)
    assert reports[0].verdict == "pass"
    assert "truncation" in reports[0].note


# -- CLI ----------------------------------------------------------------------


def test_parse_root_spec():
    assert parse_root_spec("zeta7") == Monomial.zeta(1, 7)
    assert parse_root_spec("zeta7^3") == Monomial.zeta(3, 7)
    assert parse_root_spec("zeta7^3*q^2") == Monomial.zeta(3, 7, 2)
    assert parse_root_spec("zeta5*q^1/2") == Monomial.zeta(1, 5, Fraction(1, 2))
    assert parse_root_spec("-1") == Monomial.minus_one()
    assert parse_root_spec("1") == Monomial.one()
    with pytest.raises(ValueError):
        parse_root_spec("zeta")


def test_cli_expand(capsys):
    assert main(["expand", "--series", "J2", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "q^2: -1" in out and "q^4: -1" in out


def test_cli_expand_named_block_at_order_zero(capsys):
    # W0 inverts an eta quotient; at order 0 it is 0 + O(q^0), not an error
    assert main(["expand", "--series", "W0", "--order", "0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["# order 0  D=1  L=1", "0"]


def test_cli_expand_od(capsys):
    assert main(["expand", "--series", "Od", "--d", "1", "--z", "zeta5",
                 "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "q^1: 2" in out


def test_cli_expand_od_rational_order(capsys):
    assert main(["expand", "--series", "Od", "--d", "1", "--z", "zeta5",
                 "--order", "13/2"]) == 0
    out = capsys.readouterr().out
    assert "q^1: 2" in out and "q^6: " in out


def test_cli_expand_od_at_z_with_a_q_part(capsys):
    # the shift by z = zeta_5 q^(-1/3) loses order that the build plans for
    z = parse_root_spec("zeta5^1*q^-1/3")
    assert main(["expand", "--series", "Od", "--d", "1", "--z", "zeta5^1*q^-1/3",
                 "--order", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = o_d_original(1, z, 5)
    assert lines[0] == "# order 5  D=3  L=5"
    assert lines[1:] == ["q^%s: %s" % (e, c) for e, c in expected.terms()]


def test_cli_expand_json(capsys):
    assert main(["expand", "--series", "Od", "--d", "1", "--z", "zeta5",
                 "--order", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["L"] == 5 and doc["D"] == 1 and doc["order"] == "3"
    assert [1, ["2", "0", "0", "0"]] in doc["terms"]


def test_cli_expand_unknown_series(capsys):
    assert main(["expand", "--series", "nope", "--order", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_deviation_both(capsys):
    assert main(["deviation", "--d", "1", "--a", "0", "--M", "2",
                 "--order", "6", "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "agrees" in out


def test_cli_deviation_at_a_rational_order(capsys):
    # deviations have integer exponents: both routes are known below 13/2
    assert main(["deviation", "--d", "1", "--a", "1", "--M", "3",
                 "--order", "13/2", "--method", "both"]) == 0
    assert "agrees with the definition route below q^13/2" in capsys.readouterr().out


def test_cli_dissect(capsys):
    assert main(["dissect", "--series", "dis1-lhs", "--parts", "3",
                 "--order", "9"]) == 0
    out = capsys.readouterr().out
    assert "component 0" in out and "component 2" in out


def test_cli_dissect_at_a_fractional_order(capsys):
    # the exponents are integral: below 13/2 is below 7
    for series in ("pbar", "dis1-lhs"):
        assert main(["dissect", "--series", series, "--parts", "3", "--order", "13/2"]) == 0
        half = capsys.readouterr().out
        assert main(["dissect", "--series", series, "--parts", "3", "--order", "7"]) == 0
        assert half == capsys.readouterr().out and "component 2" in half


def test_cli_verify(capsys, tmp_path):
    jpath = tmp_path / "r.json"
    code = main(["verify", "--filter", "root-power-sums", "--order", "1",
                 "--json", str(jpath)])
    out = capsys.readouterr().out
    assert code == 0
    assert "6 pass, 0 fail" in out
    assert jpath.exists()


def test_cli_expand_at_order_zero(capsys):
    assert main(["expand", "--series", "pbar", "--order", "0"]) == 0
    assert capsys.readouterr().out == "# order 0  D=1  L=1\n0\n"


@pytest.fixture
def no_worker_processes(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.mark.parametrize("argv", [
    ["deviation", "--d", "1", "--a", "0", "--M", "0"],
    ["deviation", "--d", "1", "--a", "0", "--M", "-3"],
    ["dissect", "--series", "pbar", "--parts", "0"],
    ["dissect", "--series", "pbar", "--parts", "-2"],
    ["verify", "--filter", "root-power-sums", "--jobs", "0"],
    ["verify", "--filter", "root-power-sums", "--jobs", "-4"],
])
def test_cli_rejects_bad_arguments(no_worker_processes, capsys, argv):
    assert main(argv + ["--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("d, M", [(1, -2), (1, 0), (1, 1), (0, 3)])
def test_cli_formula_deviation_rejects_bad_arguments(capsys, d, M):
    argv = ["deviation", "--d", str(d), "--a", "0", "--M", str(M), "--method", "formula"]
    assert main(argv + ["--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need M >= 2 and d >= 1\n"
    assert captured.out == ""


def test_cli_tables(capsys, tmp_path):
    path = tmp_path / "t.csv"
    assert main(["tables", "--d", "1", "--maxN", "4", "--csv", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("d,m,n,count")
    assert "1,0,1,2" in text


def test_cli_tables_rejects_bad_d(capsys):
    assert main(["tables", "--d", "0", "--maxN", "5"]) != 0
    assert "error:" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "deviation-pair-even-even" in out
    assert "Bbar0" in out


@pytest.mark.parametrize("argv, env", [
    (["verify", "--order", "1/0"], None),
    (["expand", "--series", "J1"], "1/0"),
    (["verify", "--filter", "root-power-sums"], "1/0"),
    (["expand", "--series", "Od", "--d", "1", "--z", "zeta5*q^1/0"], None),
])
def test_cli_rejects_a_zero_denominator(capsys, monkeypatch, argv, env):
    # reported as an error with exit code 2, as for any other bad rational
    if env is None:
        monkeypatch.delenv("QRANK_DEFAULT_ORDER", raising=False)
    else:
        monkeypatch.setenv("QRANK_DEFAULT_ORDER", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: zero denominator in '1/0'\n"
    assert captured.out == ""


def test_env_default_order(capsys, monkeypatch):
    monkeypatch.setenv("QRANK_DEFAULT_ORDER", "4")
    assert main(["expand", "--series", "J1"]) == 0
    out = capsys.readouterr().out
    assert "# order 4" in out


def test_reimport_releases_the_previous_generation():
    # a fresh import of qrank, as a benchmark set-up does, must leave nothing
    # that holds the previous generation's classes (and so its module
    # globals and filled caches) alive
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrank.__file__)))
    code = "\n".join([
        "import gc, sys, weakref",
        "import qrank.catalog, qrank.cli",
        "qrank.catalog.verify(qrank.catalog.CATALOG['appell-change-of-z'], 6)",
        "old = weakref.ref(sys.modules['qrank.series'].QSeries)",
        "for name in [m for m in sys.modules if m == 'qrank' or m.startswith('qrank.')]:",
        "    del sys.modules[name]",
        "import qrank.catalog, qrank.cli",
        "gc.collect()",
        "assert old() is None, gc.get_referrers(old())",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_closed_stdout_exits_quietly():
    # the table is larger than the pipe's buffer, so the writer is still
    # writing when the reader goes away
    src = os.path.dirname(os.path.dirname(os.path.abspath(qrank.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "qrank.cli", "tables", "--d", "1",
                             "--maxN", "120"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"d,m,n,count\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
