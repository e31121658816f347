"""qrank benchmark: certify one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload appell-fold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  A run measures set-up, then certifies the workload in passes
(caches cleared before each pass, one instantiation at a time) until the
time is spent.  Every verdict must be ``pass`` and every output digest must
match ``digests.json``.  The last line of standard output is one JSON object;
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics from a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPS_FIRST = 3     # set-ups before the first pass; one more before each later pass
MIN_PASSES = 3
TAIL_BEYOND = 10          # samples a tail percentile must leave above it
HARD_LIMIT_S = 150.0      # stop adding passes past this, whatever the minimums
# Times are reported at a fixed processor speed: each is multiplied by
# REF_NOMINAL_S / r, with r the time of reference() measured next to the work.
# REF_NOMINAL_S is about reference()'s median time on the machine the bounds
# were set on (x86_64, CPython 3.11.7).
REF_NOMINAL_S = 0.0008
SETUP_REFS = 5            # reference() timings around each set-up
COLD_TIMEOUT_S = 60.0

END_TO_END = (("wall_s", "s"), ("instance_ms_p50", "ms"), ("instance_ms_tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_SPANS = (
    ("cyclotomic.mul", ("calls", "self_s", "total_s")),
    ("cyclotomic.reduce_vec", ("self_s",)),
    ("cyclotomic.convolve_int", ("self_s",)),
    ("cyclotomic.inv", ("calls", "self_s")),
    ("series.mul", ("calls", "self_s")),
    ("series.invert", ("calls", "self_s")),
    ("series.computed_to", ("calls",)),
    ("theta.theta_j", ("calls", "self_s")),
    ("appell.appell_m", ("self_s",)),
    ("appell.delta", ("self_s",)),
    ("appell.psi", ("self_s",)),
    ("appell.lam", ("self_s",)),
    ("appell.s_bar_d", ("self_s",)),
    ("appell.o_d_direct", ("calls", "self_s")),
    ("overpartitions.rank_tables", ("calls", "self_s", "total_s")),
    ("overpartitions.deviation_pair_by_formula", ("self_s",)),
    ("overpartitions.deviation_by_definition", ("self_s",)),
    ("catalog.compare_series", ("self_s",)),
    ("named.builders", ("self_s",)),
    ("catalog.instance", ("self_s",)),
)


def load_library():
    """Import qrank from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "qrank", "__init__.py")):
        raise SystemExit("error: %s/qrank not found; run from a qrank checkout" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "qrank" or m.startswith("qrank.")]:
        del sys.modules[name]
    import qrank.catalog  # noqa: F401  (builds the catalog)
    import qrank.cli  # noqa: F401
    if not os.path.abspath(qrank.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported qrank from %s, not %s" % (qrank.__file__, SRC))


def library_caches() -> list:
    """Every lru cache of the library, plus the rank-table cache, as clearers."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "qrank" or name.startswith("qrank."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    seen[id(value)] = value.cache_clear
    seen["tables"] = sys.modules["qrank.overpartitions"]._TABLE_CACHE.clear
    return list(seen.values())


def series_digest(lhs, rhs, report) -> str:
    if lhs is None:
        doc = {k: v for k, v in report.to_dict().items() if k != "wall_ms"}
    else:
        doc = [lhs.to_json_dict(), rhs.to_json_dict()]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def reference() -> int:
    """A fixed, library-independent piece of the same kind of work as the
    library's (big-integer convolution, Fractions, dicts), about 1 ms."""
    a = [(i * 7919) % 1000003 - 500000 for i in range(48)]
    b = [(i * 104729) % 1000003 - 500000 for i in range(48)]
    out = [0] * 95
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k, k * k + 1)
    d = {k: k * k for k in range(1600)}
    return sum(out) + len(d) + f.numerator


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


@dataclass
class PassResult:
    wall_s: float                                    # raw seconds
    samples: list = field(default_factory=list)      # raw seconds per instantiation
    outcomes: list = field(default_factory=list)     # (digest key, verdict, digest)
    overhead_s: float = 0.0                          # verify-cold: process minus report time
    layer: dict = field(default_factory=dict)        # verify-cold traced children
    refs: list = field(default_factory=list)         # reference() timings around the items

    @property
    def speed(self) -> float:
        """Factor that takes this pass's raw times to the nominal speed."""
        return REF_NOMINAL_S / statistics.mean(self.refs)


def run_pass(instances, clear_caches, tracer=None) -> PassResult:
    reports = sys.modules["qrank.reports"]
    catalog = sys.modules["qrank.catalog"]
    NonGeneric = sys.modules["qrank.errors"].NonGenericParameter

    def execute(bi):
        if bi.check is not None:
            return None, None, bi.check(bi.order)
        lhs = bi.lhs(bi.order)
        rhs = bi.rhs(bi.order)
        return lhs, rhs, catalog.compare_series(bi.entry, lhs, rhs, bi.order,
                                                bi.params, note=bi.note)

    for clear in clear_caches:
        clear()
    gc.collect()
    result = PassResult(0.0)
    excluded = 0.0  # reference timing and digest hashing
    start = time.perf_counter()
    for bi in instances:
        r0 = time.perf_counter()
        result.refs.append(timed_reference())
        t0 = time.perf_counter()
        excluded += t0 - r0
        lhs = rhs = None
        try:
            if tracer is None:
                lhs, rhs, report = execute(bi)
            else:
                lhs, rhs, report = tracer.root(execute, bi)
            verdict = report.verdict
        except NonGeneric:
            verdict = reports.NON_GENERIC
        except Exception as exc:  # an instantiation that raises is a failed one
            verdict = "error: %r" % (exc,)
        t1 = time.perf_counter()
        result.samples.append(t1 - t0)
        digest = series_digest(lhs, rhs, report) if verdict == reports.PASS else None
        result.outcomes.append((bi.digest_key, verdict, digest))
        excluded += time.perf_counter() - t1
    result.wall_s = time.perf_counter() - start - excluded
    return result


def run_cold_pass(jobs, trace: bool, work_dir: str) -> PassResult:
    """verify-cold: each entry as `qrank verify --filter <id> --json` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("QRANK_DEFAULT_ORDER", None)
    result = PassResult(0.0)
    for i, (entry, order) in enumerate(jobs):
        out = os.path.join(work_dir, "verify-%d.json" % i)
        stats = os.path.join(work_dir, "layers-%d.json" % i)
        for path in (out, stats):
            if os.path.exists(path):
                os.remove(path)
        argv = ["verify", "--filter", entry, "--json", out]
        if order is not None:
            argv += ["--order", str(order)]
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "cold_child.py"), stats] + argv
        else:
            cmd = [sys.executable, "-m", "qrank.cli"] + argv
        key = "%s@%s|1" % (entry, order or "default")
        result.refs.append(timed_reference())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=COLD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            result.outcomes.append((key, "error: no result in %g s" % COLD_TIMEOUT_S, None))
            continue
        process_s = time.perf_counter() - t0
        result.wall_s += process_s
        result.refs.append(timed_reference())
        try:
            with open(out) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            result.outcomes.append((key, "error: exit %d %s" % (
                proc.returncode, proc.stderr.decode(errors="replace")[-300:]), None))
            continue
        # a cold workload's unit of work is one invocation, as a user runs it
        result.samples.append(process_s)
        result.overhead_s += process_s - sum(r["wall_ms"] for r in doc["reports"]) / 1000.0
        for r in doc["reports"]:
            r.pop("wall_ms")
        verdicts = {r["verdict"] for r in doc["reports"]}
        verdict = "pass" if proc.returncode == 0 and verdicts == {"pass"} else \
            "fail: exit %d, verdicts %s" % (proc.returncode, sorted(verdicts))
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        result.outcomes.append((key, verdict, hashlib.sha256(blob.encode()).hexdigest()[:20]))
        if trace:
            with open(stats) as fh:
                merge_layers(result.layer, json.load(fh))
    return result


def merge_layers(acc: dict, stats: dict) -> None:
    """Add one traced process's layer totals into acc (max_phi is a maximum)."""
    for name, value in stats.items():
        if name == "cyclotomic.max_phi":
            acc[name] = max(acc.get(name, 0), value)
        else:
            acc[name] = acc.get(name, 0) + value


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def set_up(workload, seed: int):
    """One timed set-up: import (which builds the catalog) and input generation.

    Returns the seconds taken (raw, and at the nominal speed from reference
    timings taken around it), the workload's templates and the library's
    cache clearers, all bound to the freshly imported modules."""
    refs = [timed_reference() for _ in range(SETUP_REFS // 2)]
    t0 = time.perf_counter()
    load_library()
    templates = None
    if workload.cold:
        workload.cold_commands(seed, 0)
    else:
        templates = workload.templates()
        workload.draw(templates, seed, 0)
    elapsed = time.perf_counter() - t0
    refs += [timed_reference() for _ in range(SETUP_REFS - SETUP_REFS // 2)]
    nominal = elapsed * REF_NOMINAL_S / statistics.mean(refs)
    return (elapsed, nominal), templates, [] if workload.cold else library_caches()


def layer_metrics(tracer, traced_passes: int, cold_layers: dict) -> dict:
    n = max(traced_passes, 1)
    out = {}
    if cold_layers:
        def stat(name, kind):
            return cold_layers.get("%s.%s" % (name, kind), 0)

        def counter(name):
            return cold_layers.get(name, 0)
    else:
        stat = tracer.stat

        def counter(name):
            return tracer.counters.get(name, 0)
    for name, kinds in PER_LAYER_SPANS:
        for kind in kinds:
            out["%s.%s" % (name, kind)] = stat(name, kind) / n
    for name in ("cyclotomic.fields", "overpartitions.rank_tables.builds",
                 "series.computed_to.attempts"):
        out[name] = counter(name) / n
    out["cyclotomic.max_phi"] = counter("cyclotomic.max_phi")
    calls = stat("series.computed_to", "calls")
    out["series.computed_to.first_try_ratio"] = \
        counter("series.computed_to.first_try") / calls if calls else 0.0
    hits, misses = counter("theta.theta_j.hits"), counter("theta.theta_j.misses")
    out["theta.theta_j.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def environment(seed: int) -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qrank")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    with open(DIGESTS) as fh:
        recorded = json.load(fh)[workload.name]
    env = environment(args.seed)  # before pinning, so nproc counts every CPU
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its children, so that the reference timings
        # see the same processor as the work they scale
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # set-up repeats across the run, so its median samples the machine as
    # the passes do and not one moment before them
    setup_reps = []
    for _ in range(SETUP_REPS_FIRST):
        seconds, templates, caches = set_up(workload, args.seed)
        setup_reps.append(seconds)
    tracer = None
    if args.trace and not workload.cold:
        from tracer import Tracer

        tracer = Tracer()
    os.makedirs(RESULTS, exist_ok=True)

    def one_pass(p: int, traced: bool) -> PassResult:
        if workload.cold:
            return run_cold_pass(workload.cold_commands(args.seed, p), traced, RESULTS)
        inputs = workload.draw(templates, args.seed, p)
        if not traced:
            return run_pass(inputs, caches)
        missed = tracer.install()
        try:
            if missed:
                raise RuntimeError("tracer could not rebind: %s" % "; ".join(missed))
            res = run_pass(inputs, caches, tracer)
            info = tracer.theta_cache.cache_info()
            tracer.bump("theta.theta_j.hits", info.hits)
            tracer.bump("theta.theta_j.misses", info.misses)
        finally:
            tracer.uninstall()
        return res

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        p = len(plain)
        if p:
            seconds, templates, caches = set_up(workload, args.seed)
            setup_reps.append(seconds)
        plain.append(one_pass(p, False))
        if args.trace:
            traced.append(one_pass(p, True))
        elapsed = time.perf_counter() - start
        samples = sum(len(r.samples) for r in plain)
        beyond = samples * (1 - workload.tail_pct / 100.0)
        per_pass = elapsed / len(plain)
        if elapsed > HARD_LIMIT_S:
            break
        # a traced run reports no tail, so it needs no minimum sample count
        enough = args.trace or (len(plain) >= MIN_PASSES and beyond >= TAIL_BEYOND)
        if enough and elapsed + per_pass > args.seconds:
            break

    outcomes = [o for r in plain + traced for o in r.outcomes]
    failed = [o for o in outcomes if o[1] != "pass"]
    mismatched = [o for o in outcomes if o[1] == "pass" and recorded.get(o[0]) != o[2]]
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def timings(scaled: bool) -> dict:
        """The timing metrics, at the nominal speed or as measured."""
        def f(r):
            return r.speed if scaled else 1.0
        samples = [s * f(r) for r in plain for s in r.samples]
        return {
            "wall_s": statistics.median(r.wall_s * f(r) for r in plain),
            "instance_ms_p50": statistics.median(samples) * 1000.0,
            "instance_ms_tail": percentile(samples, workload.tail_pct) * 1000.0,
            "setup_s": statistics.median(rep[1 if scaled else 0] for rep in setup_reps),
        }

    end_to_end = dict(timings(True), peak_rss_mb=(
        rss_children if workload.cold else rss_self) / 1024.0)
    samples = [s * r.speed for r in plain for s in r.samples]
    n_beyond = sum(1 for s in samples if s > end_to_end["instance_ms_tail"] / 1000.0)
    info = {
        "workload": workload.name, "seconds": args.seconds, "trace": args.trace,
        "env": env, "passes": len(plain), "pass_wall_s": [r.wall_s for r in plain],
        "pass_speed": [r.speed for r in plain], "measured": timings(False),
        "pass_samples_s": [r.samples for r in plain],
        "attempted": len(outcomes), "failed": len(failed),
        "failed_share": len(failed) / len(outcomes),
        "digest_mismatches": len(mismatched),
        "tail_percentile": workload.tail_pct, "tail_samples": len(samples),
        "tail_beyond": n_beyond, "setup_reps_s": setup_reps,
        "end_to_end": end_to_end,
    }
    if args.trace:
        if workload.cold:
            cold_layers = {}
            for r in traced:
                merge_layers(cold_layers, r.layer)
            layers = layer_metrics(None, len(traced), cold_layers)
        else:
            layers = layer_metrics(tracer, len(traced), {})
            # one span file per workload, the last traced run's: they run to tens of MB
            tracer.write_spans(os.path.join(RESULTS, "%s.spans" % workload.name))
            info["spans_kept"] = tracer.spans_kept()
        layers["cli.process_overhead_s"] = \
            statistics.median(r.overhead_s for r in plain) if workload.cold else 0.0
        layers["tracer.wall_s"] = statistics.median(r.wall_s for r in traced)
        layers["tracer.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for t, u in zip(traced, plain))
        info["per_layer"] = layers
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
            workload.name, args.seed, args.trace)), "w") as fh:
        json.dump(dict(info, failures=failed[:20], mismatches=mismatched[:20]), fh, indent=1)

    correct = not failed and not mismatched
    print("# qrank benchmark  workload=%s seed=%d seconds=%g trace=%d" % (
        workload.name, args.seed, args.seconds, args.trace))
    print("# env  python=%(python)s nproc=%(nproc)s machine=%(machine)s "
          "commit=%(commit)s src_sha256=%(src_sha256)s" % env)
    print("# passes=%d attempted=%d failed=%d failed_share=%g digest_mismatches=%d" % (
        len(plain), len(outcomes), len(failed), info["failed_share"], len(mismatched)))
    if not args.trace:
        print("# tail=p%g over %d samples (%d beyond)" % (
            workload.tail_pct, len(samples), n_beyond))
        print("# speed factor per pass %s; as measured: %s" % (
            " ".join("%.3f" % r.speed for r in plain),
            " ".join("%s=%.6g" % kv for kv in info["measured"].items())))
    for name, m in metrics.items():
        print("%-46s %.6g %s" % (name, m["value"], m["unit"]))
    for key, verdict, _ in failed[:10]:
        print("# FAILED %s: %s" % (key, verdict))
    for key, _, digest in mismatched[:10]:
        print("# DIGEST MISMATCH %s: got %s, recorded %s" % (key, digest, recorded.get(key)))
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
