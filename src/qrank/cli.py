"""Command line interface.

Subcommands: expand, deviation, dissect, verify, tables.  All numeric output
is exact: rationals as p/q, cyclotomic coefficients as [c0,c1,...]@zeta<L>.
The environment variable QRANK_DEFAULT_ORDER overrides built-in default
orders when no --order is given.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .appell import o_d_direct
from .catalog import CATALOG, run_suite
from .errors import QRankError
from .named import build_named_series, named_series_names
from .overpartitions import (
    deviation_by_definition,
    rank_tables,
    single_deviation,
)
from .series import Monomial, QSeries

_ROOT_RE = re.compile(
    r"^(?:(?P<sign>-?1)|zeta(?P<den>\d+)(?:\^(?P<num>-?\d+))?)"
    r"(?:\*q\^(?P<exp>-?\d+(?:/\d+)?))?$")


def parse_root_spec(text: str) -> Monomial:
    """Parse `zeta<order>^<num>` with optional `*q^<rational>`, or 1 / -1."""
    m = _ROOT_RE.match(text.strip())
    if not m:
        raise ValueError(
            "cannot parse %r; expected e.g. zeta7, zeta7^3, zeta7^3*q^2, -1" % text)
    if m.group("sign"):
        num, den = (1, 2) if m.group("sign") == "-1" else (0, 1)
    else:
        den = int(m.group("den"))
        num = int(m.group("num") or 1)
    return Monomial(num, den, parse_rational(m.group("exp") or "0"))


def parse_rational(text: str) -> Fraction:
    """A rational such as 7, -2 or 13/2; ValueError for anything else, a zero
    denominator included."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _order(text, fallback):
    """--order if given, else QRANK_DEFAULT_ORDER if set, else `fallback`."""
    text = text or os.environ.get("QRANK_DEFAULT_ORDER") or fallback
    return None if text is None else parse_rational(text)


def _print_series(s: QSeries) -> None:
    if s.order is not None:
        print("# order %s  D=%d  L=%d" % (s.order, s.den, s.field.L))
    terms = list(s.terms())
    if not terms:
        print("0")
    for e, c in terms:
        print("q^%s: %s" % (e, c))


def cmd_expand(args) -> int:
    order = _order(args.order, "20")
    if args.series == "Od":
        if args.d is None or args.z is None:
            print("expand --series Od needs --d and --z", file=sys.stderr)
            return 2
        s = o_d_direct(args.d, parse_root_spec(args.z), order)
    else:
        s = build_named_series(args.series, order)
    if args.json:
        import json

        print(json.dumps(s.to_json_dict(), indent=2))
    else:
        _print_series(s)
    return 0


def cmd_deviation(args) -> int:
    order = _order(args.order, "20")
    if args.method in ("definition", "both"):
        by_def = deviation_by_definition(args.d, args.a, args.M, order)
    if args.method in ("formula", "both"):
        by_formula = single_deviation(args.d, args.a, args.M, order)
    if args.method == "definition":
        _print_series(by_def)
        return 0
    if args.method == "formula":
        _print_series(by_formula)
        return 0
    _print_series(by_def)
    diff = by_def.first_difference(by_formula, order)
    if diff is None:
        print("# formula route agrees with the definition route below q^%s" % order)
        return 0
    e, ca, cb = diff
    print("# MISMATCH at q^%s: definition %s, formula %s" % (e, ca, cb))
    return 1


def cmd_dissect(args) -> int:
    order = _order(args.order, "20")
    s = build_named_series(args.series, order)
    for k, comp in enumerate(s.dissect(args.parts)):
        print("# component %d (coefficient of q^%d, in q^%d)" % (k, k, args.parts))
        _print_series(comp)
    return 0


def cmd_verify(args) -> int:
    result = run_suite(args.filter, order=_order(args.order, None), jobs=args.jobs,
                       json_path=args.json, csv_path=args.csv)
    for r in result.reports:
        inst = " ".join("%s=%s" % kv for kv in sorted(r["instantiation"].items()))
        line = "%-32s %-12s %s" % (r["entry"], r["verdict"], inst)
        if r["first_mismatch"]:
            line += "  first mismatch at q^%s" % r["first_mismatch"]["exponent"]
        print(line.rstrip())
    c = result.counts
    print("verified %d instantiation(s): %d pass, %d fail, %d non-generic"
          % (c["total"], c["pass"], c["fail"], c["non-generic"]))
    return 0 if result.all_pass else 1


def cmd_tables(args) -> int:
    tables = rank_tables(args.d, args.maxN)
    if args.csv:
        with open(args.csv, "w") as fh:
            tables.write_csv(fh)
        print("wrote %s" % args.csv)
    else:
        tables.write_csv(sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrank",
        description="exact q-series kernel for overpartition rank deviations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print a named or generating series")
    p.add_argument("--series", required=True,
                   help="a named series (see --list) or 'Od'")
    p.add_argument("--d", type=int, help="statistic index for Od")
    p.add_argument("--z", help="root spec for Od, e.g. zeta5 or zeta7^3*q^2")
    p.add_argument("--order", help="truncation order (rational)")
    p.add_argument("--json", action="store_true",
                   help="emit the series as a JSON document")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("deviation", help="print a rank deviation D_d(a, M)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--order")
    p.add_argument("--method", choices=("definition", "formula", "both"),
                   default="definition")
    p.set_defaults(func=cmd_deviation)

    p = sub.add_parser("dissect", help="print the N residue components of a series")
    p.add_argument("--series", required=True)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--order")
    p.set_defaults(func=cmd_dissect)

    p = sub.add_parser("verify", help="run catalog entries and report verdicts")
    p.add_argument("--filter", default="*", help="glob over entry ids")
    p.add_argument("--order", help="override every entry's default order")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", help="write the full report document here")
    p.add_argument("--csv", help="write a CSV summary here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="export rank tables as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--maxN", type=int, required=True)
    p.add_argument("--csv", help="output path (default: stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("list", help="list catalog entries and named series")
    p.set_defaults(func=cmd_list)
    return parser


def cmd_list(args) -> int:
    print("catalog entries:")
    for eid in sorted(CATALOG):
        e = CATALOG[eid]
        print("  %-32s order %-4s %s" % (eid, e.default_order, e.description))
    print("named series:")
    print("  " + " ".join(named_series_names()))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QRankError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's last flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
