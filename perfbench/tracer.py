"""Outside-in span tracer for the qrank layers.

The tracer replaces each traced public function or method with a wrapper
that records a span (name, start, end, parent) and per-name call counts,
inclusive time and self time (duration minus the time of child spans).
Nothing under ``src/qrank`` changes: the wrappers are bound from here, into
every place that holds a reference to the original (module globals copied by
``from ... import``, class attributes such as ``QSeries.__rmul__``, catalog
``Instance`` fields, closure cells).  ``install`` returns the references it
could not rebind, which the self-test requires to be empty.

lru-cached functions are wrapped outside the cache, so a cache hit still
counts as a call; their hit ratio comes from ``cache_info()``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import types
from array import array

# (span name, module, class, method names) and (span name, module, function names)
METHOD_TARGETS = (
    ("cyclotomic.mul", "qrank.cyclotomic", "CyclotomicField", ("mul",)),
    ("cyclotomic.reduce_vec", "qrank.cyclotomic", "CyclotomicField", ("reduce_vec",)),
    ("cyclotomic.inv", "qrank.cyclotomic", "CyclotomicField", ("inv",)),
    ("series.mul", "qrank.series", "QSeries", ("__mul__",)),
    ("series.invert", "qrank.series", "QSeries", ("invert",)),
)
FUNCTION_TARGETS = (
    ("cyclotomic.convolve_int", "qrank.cyclotomic", ("convolve_int",)),
    ("theta.theta_j", "qrank.theta", ("theta_j",)),
    ("appell.appell_m", "qrank.appell", ("appell_m",)),
    ("appell.delta", "qrank.appell", ("delta",)),
    ("appell.psi", "qrank.appell", ("psi",)),
    ("appell.lam", "qrank.appell", ("lam",)),
    ("appell.s_bar_d", "qrank.appell", ("s_bar_d",)),
    ("appell.o_d_direct", "qrank.appell", ("o_d_direct",)),
    ("overpartitions.deviation_pair_by_formula", "qrank.overpartitions",
     ("deviation_pair_by_formula",)),
    ("overpartitions.deviation_by_definition", "qrank.overpartitions",
     ("deviation_by_definition",)),
    ("catalog.compare_series", "qrank.reports", ("compare_series",)),
    ("named.builders", "qrank.named",
     ("build_named_series", "dissection_lhs", "dissection_rhs", "b_block",
      "script_G", "script_H", "ratio_sum_lhs", "ratio_sum_rhs",
      "bracket_reduction_lhs", "bracket_reduction_rhs",
      "psi_difference_lhs", "psi_difference_rhs")),
)
ROOT_SPAN = "catalog.instance"
SPAN_CAP = 1_500_000  # spans kept in memory; counts and times are kept for all


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child time, name id]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo: list[tuple] = []
        self.theta_cache = None
        self._tables_seen: dict[int, object] = {}

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def _traced(self, nid: int, fn, count: bool = True):
        """Wrap fn so that each call records one span named names[nid].

        With count=False the span adds self time only; it is used for a
        builder run on behalf of a caller whose own span already counts the
        call and its inclusive time."""
        stack = self._stack
        clock = time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        sn, sp, ss, se = self.span_name, self.span_parent, self.span_start, self.span_end

        def traced(*args, **kwargs):
            if len(ss) < SPAN_CAP:
                idx = len(ss)
                sn.append(nid)
                sp.append(stack[-1][0] if stack else -1)
                ss.append(0.0)
                se.append(0.0)
            else:
                idx = -1
            frame = [idx, 0.0, nid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if idx >= 0:
                    ss[idx] = t0
                    se[idx] = t1
                self_time[nid] += d - frame[1]
                if count:
                    calls[nid] += 1
                    total[nid] += d
                if stack:
                    stack[-1][1] += d

        traced.__qualname__ = traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def root(self, fn, *args):
        """Run fn(*args) under the per-instantiation root span."""
        return self._traced(self._id(ROOT_SPAN), fn)(*args)

    def bump(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- special wrappers ---------------------------------------------------

    def _wrap_computed_to(self, orig):
        nid = self._id("series.computed_to")
        traced_orig = self._traced(nid, orig)
        stack = self._stack
        builder_spans: dict[int, object] = {}

        def computed_to(builder, order, *args, **kwargs):
            # the builder's work belongs to whoever called computed_to
            caller = stack[-1][2] if stack else self._id(ROOT_SPAN)
            attempts = [0]

            def counted(o):
                attempts[0] += 1
                return builder(o)

            run = builder_spans.get(caller)
            if run is None:
                run = builder_spans[caller] = self._traced(caller, lambda f, o: f(o), count=False)
            try:
                return traced_orig(lambda o: run(counted, o), order, *args, **kwargs)
            finally:
                self.bump("series.computed_to.attempts", attempts[0])
                if attempts[0] == 1:
                    self.bump("series.computed_to.first_try")

        return computed_to

    def _wrap_rank_tables(self, orig):
        traced = self._traced(self._id("overpartitions.rank_tables"), orig)
        seen = self._tables_seen

        def rank_tables(*args, **kwargs):
            tables = traced(*args, **kwargs)
            if id(tables) not in seen:
                seen[id(tables)] = tables
                self.bump("overpartitions.rank_tables.builds")
            return tables

        return rank_tables

    def _wrap_field_init(self, orig):
        def __init__(field, L):
            orig(field, L)
            self.bump("cyclotomic.fields")
            if field.phi > self.counters.get("cyclotomic.max_phi", 0):
                self.counters["cyclotomic.max_phi"] = field.phi

        return __init__

    # -- binding --------------------------------------------------------------

    def install(self) -> list[str]:
        """Bind every wrapper; return the references that could not be rebound."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._tables_seen.clear()
        modules = sys.modules
        plan: list[tuple[object, object]] = []
        for name, modname, clsname, attrs in METHOD_TARGETS:
            cls = getattr(modules[modname], clsname)
            nid = self._id(name)
            for attr in attrs:
                orig = cls.__dict__[attr]
                wrapper = self._traced(nid, orig)
                # aliases such as QSeries.__rmul__ = __mul__ get the same wrapper
                for alias, value in list(cls.__dict__.items()):
                    if value is orig:
                        self._undo.append((cls, alias, orig))
                        setattr(cls, alias, wrapper)
                plan.append((orig, wrapper))
        field_cls = modules["qrank.cyclotomic"].CyclotomicField
        self._undo.append((field_cls, "__init__", field_cls.__dict__["__init__"]))
        field_cls.__init__ = self._wrap_field_init(field_cls.__dict__["__init__"])
        for name, modname, attrs in FUNCTION_TARGETS:
            nid = self._id(name)
            for attr in attrs:
                orig = getattr(modules[modname], attr)
                plan.append((orig, self._traced(nid, orig)))
        series = modules["qrank.series"]
        plan.append((series.computed_to, self._wrap_computed_to(series.computed_to)))
        over = modules["qrank.overpartitions"]
        plan.append((over.rank_tables, self._wrap_rank_tables(over.rank_tables)))
        self.theta_cache = modules["qrank.theta"].theta_j
        own = {id(plan), id(self.__dict__), id(self._undo)}
        own.update(id(entry) for entry in self._undo)
        for pair in plan:
            own.add(id(pair))
            own.update(_closure_cells(pair[1]))
        namespaces = {id(vars(m)) for m in list(modules.values()) if m is not None}
        missed = []
        for orig, wrapper in plan:
            missed += self._rebind(orig, wrapper, own, namespaces)
        return missed

    def _rebind(self, orig, wrapper, own: set[int], namespaces: set[int]) -> list[str]:
        missed = []
        for ref in gc.get_referrers(orig):
            if id(ref) in own or isinstance(ref, types.FrameType):
                continue
            if id(ref) in namespaces:
                for key, value in list(ref.items()):
                    if value is orig:
                        self._undo.append((ref, key, orig))
                        ref[key] = wrapper
            elif isinstance(ref, types.CellType):
                self._undo.append((ref, None, orig))
                ref.cell_contents = wrapper
            elif type(ref) is list:
                for i, value in enumerate(ref):
                    if value is orig:
                        self._undo.append((ref, i, orig))
                        ref[i] = wrapper
            elif getattr(ref, "__self__", None) is orig:
                continue  # a bound method of orig itself, e.g. cache_clear
            elif (owner := _attribute_owner(ref)) is not None:
                # an attribute of an object, e.g. the lhs of a catalog Instance
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._undo.append((owner, key, orig))
                        setattr(owner, key, wrapper)
            else:
                missed.append("%s held by a %s" % (
                    getattr(orig, "__name__", orig), type(ref).__name__))
        return missed

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            if isinstance(holder, types.CellType):
                holder.cell_contents = orig
            elif isinstance(holder, (dict, list)):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._undo.clear()
        self._tables_seen.clear()

    # -- results ----------------------------------------------------------------

    def stat(self, name: str, kind: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "self_s": self.self_time,
                "total_s": self.total}[kind][nid]

    def spans_kept(self) -> int:
        return len(self.span_start)

    def write_spans(self, path_prefix: str) -> None:
        """Write the kept spans as four binary arrays plus a name table."""
        with open(path_prefix + ".names.json", "w") as fh:
            json.dump({"names": self.names, "arrays": {
                "name": "i", "parent": "i", "start": "d", "end": "d"}}, fh)
        for suffix, arr in (("name", self.span_name), ("parent", self.span_parent),
                            ("start", self.span_start), ("end", self.span_end)):
            with open("%s.%s.bin" % (path_prefix, suffix), "wb") as fh:
                arr.tofile(fh)


def _attribute_owner(ref):
    """The plain object whose attributes ref is (ref itself, when they are
    stored inline), or None."""
    if isinstance(ref, dict):
        for owner in gc.get_referrers(ref):
            if getattr(owner, "__dict__", None) is ref:
                ref = owner
                break
        else:
            return None
    if isinstance(ref, (type, types.ModuleType, types.FunctionType)) or \
            not hasattr(ref, "__dict__"):
        return None
    return ref


def _closure_cells(fn, seen=None) -> set[int]:
    """ids of the closure cells of fn and of the functions those cells hold
    that were defined in this file: the wrappers' own references."""
    seen = set() if seen is None else seen
    for cell in getattr(fn, "__closure__", None) or ():
        if id(cell) in seen:
            continue
        seen.add(id(cell))
        try:
            inner = cell.cell_contents
        except ValueError:
            continue
        if isinstance(inner, types.FunctionType) and inner.__code__.co_filename == __file__:
            _closure_cells(inner, seen)
    return seen
