"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about a minute:
  * the tracer rebinds every copy of every traced function (no original left
    in a qrank module, class or catalog Instance) and restores them after;
  * the seeded generator is deterministic and every draw has a recorded digest;
  * a short traced run of each workload gives a nonzero value for every layer
    metric predicted to move on it, zero where zero is predicted, and the
    predicted majority layer (cyclotomic.mul on appell-fold, rank tables on
    deviation) takes more than half of the traced pass;
  * every per-layer metric in BENCHMARK.json is predicted nonzero somewhere;
  * run.py exits non-zero, printing no result, without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from tracer import Tracer
from workloads import WORKLOADS

NONZERO = {
    "appell-fold": (
        "cyclotomic.mul.calls", "cyclotomic.mul.self_s", "cyclotomic.mul.total_s",
        "cyclotomic.reduce_vec.self_s",
        "cyclotomic.convolve_int.self_s", "cyclotomic.inv.calls", "cyclotomic.inv.self_s",
        "cyclotomic.fields", "cyclotomic.max_phi", "series.mul.calls", "series.mul.self_s",
        "series.invert.calls", "series.invert.self_s", "series.computed_to.calls",
        "series.computed_to.attempts", "series.computed_to.first_try_ratio",
        "theta.theta_j.calls", "theta.theta_j.self_s", "appell.appell_m.self_s",
        "appell.delta.self_s", "appell.psi.self_s", "appell.lam.self_s",
        "appell.s_bar_d.self_s", "appell.o_d_direct.calls", "appell.o_d_direct.self_s",
        "catalog.compare_series.self_s", "tracer.wall_s"),
    "deviation": (
        "overpartitions.rank_tables.calls", "overpartitions.rank_tables.builds",
        "overpartitions.rank_tables.self_s", "overpartitions.rank_tables.total_s",
        "overpartitions.deviation_pair_by_formula.self_s",
        "overpartitions.deviation_by_definition.self_s", "appell.o_d_direct.calls",
        "appell.o_d_direct.self_s", "cyclotomic.mul.calls", "tracer.wall_s"),
    "catalog-light": (
        "catalog.compare_series.self_s", "named.builders.self_s", "catalog.instance.self_s",
        "theta.theta_j.calls", "theta.theta_j.self_s", "theta.theta_j.hit_ratio",
        "series.mul.calls", "cyclotomic.mul.calls", "tracer.wall_s"),
    "verify-cold": (
        "cli.process_overhead_s", "overpartitions.rank_tables.calls",
        "named.builders.self_s", "cyclotomic.mul.calls", "tracer.wall_s"),
}
ZERO = {
    "appell-fold": ("overpartitions.rank_tables.calls", "overpartitions.rank_tables.builds",
                    "cli.process_overhead_s"),
}
MAJORITY = {
    "appell-fold": "cyclotomic.mul.total_s",
    "deviation": "overpartitions.rank_tables.total_s",
}
UNPREDICTED = ("tracer.overhead_s",)  # may read zero or below when tracing is cheap


def check_rebinding(problems: list) -> None:
    run.load_library()
    modules = {n: m for n, m in sys.modules.items() if n == "qrank" or n.startswith("qrank.")}
    catalog = sys.modules["qrank.catalog"]
    QSeries = sys.modules["qrank.series"].QSeries
    # ids only: a container holding the originals would itself be rebound
    before = {(n, k): id(v) for n, m in modules.items() for k, v in vars(m).items()
              if callable(v)}
    tracer = Tracer()
    missed = tracer.install()
    try:
        problems += ["tracer: " + m for m in missed]
        wrapped = {v for (n, k), v in before.items() if id(getattr(modules[n], k)) != v}
        for (n, k), v in before.items():
            if v in wrapped and id(getattr(modules[n], k)) == v:
                problems.append("tracer: %s.%s still bound to the original" % (n, k))
        for name, entry in catalog.CATALOG.items():
            for inst in entry.instances:
                for fn in (inst.lhs, inst.rhs, inst.check):
                    if fn is not None and id(fn) in wrapped:
                        problems.append("tracer: an Instance of %s holds an original" % name)
        if QSeries.__rmul__ is not QSeries.__mul__:
            problems.append("tracer: QSeries.__rmul__ was not rebound with __mul__")
        for name in ("computed_to", "theta_j", "appell_m", "psi", "lam", "delta",
                     "o_d_direct", "rank_tables"):
            copies = [n for n, m in modules.items() if name in vars(m)]
            stale = [n for n in copies if before.get((n, name)) not in wrapped]
            if stale:
                problems.append("tracer: %s not wrapped in %s" % (name, stale))
    finally:
        tracer.uninstall()
    for (n, k), v in before.items():
        if id(getattr(modules[n], k)) != v:
            problems.append("tracer: %s.%s not restored" % (n, k))


def check_inputs(problems: list) -> None:
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)
    for workload in WORKLOADS.values():
        if workload.cold:
            for entry, order in workload.cold_commands(0, 0):
                if "%s@%s|1" % (entry, order or "default") not in recorded[workload.name]:
                    problems.append("digests: %s has no record for %s" % (workload.name, entry))
            continue
        templates = workload.templates()
        for t in templates:
            for k in t.menu:
                if "%s|%d" % (t.key, k) not in recorded[workload.name]:
                    problems.append("digests: %s has no record for %s|%d"
                                    % (workload.name, t.key, k))
        a = [b.digest_key for b in workload.draw(templates, 7, 2)]
        b = [b.digest_key for b in workload.draw(workload.templates(), 7, 2)]
        if a != b:
            problems.append("inputs: %s draws differ for the same seed" % workload.name)
        if any(b.k != 1 for b in workload.draw(templates, 0, 5)):
            problems.append("inputs: seed 0 must keep the catalog's parameters")


def last_json(text: str):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def check_workloads(problems: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    predicted = {name for names in NONZERO.values() for name in names} | set(UNPREDICTED)
    for name in declared:
        if name not in predicted:
            problems.append("metrics: %s is predicted nonzero on no workload" % name)
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                               "--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "1"], cwd=run.ROOT, capture_output=True,
                              text=True, timeout=300)
        result = last_json(proc.stdout)
        if proc.returncode or not result or not result["correct"]:
            problems.append("%s: traced run failed (exit %d): %s" % (
                workload, proc.returncode, proc.stderr[-500:]))
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if set(metrics) != set(declared):
            problems.append("%s: reported metrics differ from BENCHMARK.json: %s" % (
                workload, sorted(set(metrics) ^ set(declared))))
        for name in NONZERO[workload]:
            if not metrics.get(name):
                problems.append("%s: %s reads zero" % (workload, name))
        for name in ZERO.get(workload, ()):
            if metrics.get(name):
                problems.append("%s: %s should read zero, reads %s" % (workload, name, metrics[name]))
        if workload in MAJORITY:
            share = metrics[MAJORITY[workload]] / metrics["tracer.wall_s"]
            print("%s: %s is %.0f%% of the traced pass" % (workload, MAJORITY[workload], 100 * share))
            if share <= 0.5:
                problems.append("%s: %s is only %.0f%% of the pass" % (
                    workload, MAJORITY[workload], 100 * share))
        print("%s: ok" % workload if not problems else "%s: checked" % workload, flush=True)


def check_bare_directory(problems: list) -> None:
    bare = os.path.join(run.RESULTS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "appell-fold",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("bare directory: run.py did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(run.RESULTS, exist_ok=True)
    problems: list[str] = []
    for check in (check_rebinding, check_inputs, check_bare_directory, check_workloads):
        check(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
