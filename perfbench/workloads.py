"""Workload definitions and the seeded input generator.

A workload is a list of catalog instantiations (or, for ``verify-cold``, of
``qrank verify`` invocations).  The seed picks, for every instantiation and
every pass, one exponent k coprime to the instantiation's root order L and
maps every root-of-unity parameter zeta_n^a to zeta_n^(a k): a Galois
conjugate of the catalog's parameters, generic whenever the original is.
Seed 0 keeps the catalog's own parameters.  k is drawn from ``MENU_SIZE``
units of L, so ``digests.json`` can record the output of every possible draw.
"""

from __future__ import annotations

import importlib
import math
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

MENU_SIZE = 4

# rank-fold at order 40 through both Lambda routes (d = 1, 3) and both Psi
# routes (d = 2, 4), plus the cheaper root averages; indices into each
# entry's instance list
APPELL_FOLD = (
    ("rank-fold", (0, 2, 5, 7, 8, 12)),
    ("appell-root-average-n2", (0, 1)),
    ("appell-root-average-n3", (0, 2)),
)
# The definition-only entries come first at 4/5 of their default order, so
# the pass builds the four rank tables once, at max_n 23; the formula entries
# reuse them at 1/3 of their default order, which keeps a pass near 5 s and
# the tables most of it.
DEVIATION = (
    ("deviation-residue-sum", Fraction(4, 5)),
    ("deviation-reflection", Fraction(4, 5)),
    ("deviation-root-average", Fraction(4, 5)),
    ("rank-residue-average", Fraction(4, 5)),
    ("deviation-pair-even-even", Fraction(1, 3)),
    ("deviation-pair-even-odd", Fraction(1, 3)),
    ("deviation-pair-odd-odd", Fraction(1, 3)),
    ("deviation-pair-even-d", Fraction(1, 3)),
    ("deviation-single-odd-modulus", Fraction(1, 3)),
    ("deviation-single-even-modulus", Fraction(1, 3)),
)
VERIFY_COLD = (
    ("theta-shift-multiplier-n2", None),
    ("rank-enumeration-d2", None),
    ("dissect3-1", None),
    ("deviation-single-odd-modulus", 15),
    ("deviation-pair-even-odd", 15),
)


def _lib(name: str):
    return importlib.import_module("qrank." + name)


# ---------------------------------------------------------------------------
# Galois conjugation of parameters
# ---------------------------------------------------------------------------


def units(L: int, count: int = MENU_SIZE) -> list[int]:
    """The first `count` exponents in [1, L) coprime to L (just [1] for L <= 2)."""
    out = [k for k in range(1, max(L, 2)) if math.gcd(k, L) == 1]
    return out[:count]


def root_order(values) -> int:
    Monomial = _lib("series").Monomial
    L = 1
    for v in values:
        if isinstance(v, Monomial):
            L = L * v.zeta_den // math.gcd(L, v.zeta_den)
    return L


def conjugate(value, k: int):
    Monomial = _lib("series").Monomial
    if isinstance(value, Monomial) and k != 1:
        return Monomial(value.zeta_num * k, value.zeta_den, value.q_exp)
    return value


def _conjugate_fn(fn: Optional[Callable], k: int) -> Optional[Callable]:
    """A copy of a catalog lambda with its bound parameters conjugated."""
    if fn is None or k == 1 or not getattr(fn, "__defaults__", None):
        return fn
    defaults = tuple(conjugate(v, k) for v in fn.__defaults__)
    out = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                             defaults, fn.__closure__)
    out.__kwdefaults__ = fn.__kwdefaults__
    return out


def _fn_defaults(*fns) -> list:
    return [v for fn in fns if fn is not None for v in (getattr(fn, "__defaults__", None) or ())]


# ---------------------------------------------------------------------------
# instantiations
# ---------------------------------------------------------------------------


@dataclass
class BenchInstance:
    key: str                 # "<entry>#<index>"; the digest key adds "|k"
    entry: str
    order: Fraction
    k: int
    params: dict
    lhs: Optional[Callable] = None
    rhs: Optional[Callable] = None
    check: Optional[Callable] = None
    note: Optional[str] = None

    @property
    def digest_key(self) -> str:
        return "%s|%d" % (self.key, self.k)


@dataclass
class Template:
    """One catalog instantiation before a conjugation exponent is chosen."""

    key: str
    build: Callable[[int], BenchInstance]
    menu: list[int]      # the exponents k a seed may draw


def _catalog_template(entry_id: str, index: int, order: Fraction) -> Template:
    inst = _lib("catalog").CATALOG[entry_id].instances[index]
    key = "%s#%d" % (entry_id, index)
    L = root_order(list(inst.params.values()) + _fn_defaults(inst.lhs, inst.rhs, inst.check))

    def build(k: int) -> BenchInstance:
        params = {name: conjugate(v, k) for name, v in inst.params.items()}
        if k == 1:
            # read through the Instance so a traced run sees rebound builders
            return BenchInstance(key, entry_id, order, k, params,
                                 lhs=inst.lhs and (lambda o: inst.lhs(o)),
                                 rhs=inst.rhs and (lambda o: inst.rhs(o)),
                                 check=inst.check and (lambda o: inst.check(o)),
                                 note=inst.note)
        return BenchInstance(key, entry_id, order, k, params,
                             lhs=_conjugate_fn(inst.lhs, k),
                             rhs=_conjugate_fn(inst.rhs, k),
                             check=_conjugate_fn(inst.check, k), note=inst.note)

    return Template(key, build, units(L))


def _deviation_template(entry_id: str, index: int, order: Fraction) -> Template:
    """Deviation entries carry no root parameters of their own; the formula
    side's generic parameters z', z'' and z0 are the ones conjugated."""
    base = _catalog_template(entry_id, index, order)
    if not entry_id.startswith(("deviation-pair-", "deviation-single-")):
        return base
    inst = _lib("catalog").CATALOG[entry_id].instances[index]
    d, a, M = inst.params["d"], inst.params["a"], inst.params["M"]
    over = _lib("overpartitions")
    generics = over.default_generics(M, d)
    pair = entry_id.startswith("deviation-pair-")

    def build(k: int) -> BenchInstance:
        zp, zpp, z0 = (conjugate(g, k) for g in generics)
        bi = base.build(1)
        bi.k = k
        bi.params = dict(inst.params, zp=zp, zpp=zpp, z0=z0)
        if pair:
            bi.rhs = lambda o: over.deviation_pair_by_formula(d, a, M, o, zp=zp, zpp=zpp, z0=z0)
        else:
            # single_deviation passes z' and z0 on only for even M
            bi.rhs = lambda o: over.single_deviation(d, a, M, o, zp=zp, z0=z0)
        return bi

    return Template(base.key, build, units(root_order(generics)))


def _fold_templates() -> list[Template]:
    catalog = _lib("catalog").CATALOG
    return [_catalog_template(eid, i, catalog[eid].default_order)
            for eid, indices in APPELL_FOLD for i in indices]


def _deviation_templates() -> list[Template]:
    catalog = _lib("catalog").CATALOG
    out = []
    for eid, scale in DEVIATION:
        entry = catalog[eid]
        order = Fraction(round(entry.default_order * scale))
        out += [_deviation_template(eid, i, order) for i in range(len(entry.instances))]
    return out


def _light_templates() -> list[Template]:
    catalog = _lib("catalog").CATALOG
    heavy = {eid for eid, _ in APPELL_FOLD} | {eid for eid, _ in DEVIATION}
    return [_catalog_template(eid, i, entry.default_order)
            for eid, entry in catalog.items() if eid not in heavy
            for i in range(len(entry.instances))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    tail_pct: float          # fixed per workload; a run keeps >= 10 samples beyond it
    templates: Optional[Callable[[], list[Template]]] = None
    cold: bool = False

    def draw(self, templates: list[Template], seed: int, pass_index: int) -> list[BenchInstance]:
        """The pass's inputs: one conjugation exponent per instantiation.

        The seed shuffles each instantiation's menu, and pass p takes entry
        p of the shuffled menu (cyclically), so any len(menu) consecutive
        passes certify every exponent once: seeds change which exponents
        meet in a pass, not the work a run does."""
        if seed == 0:
            return [t.build(1) for t in templates]
        rng = random.Random("%d" % seed)
        out = []
        for t in templates:
            menu = list(t.menu)
            rng.shuffle(menu)
            out.append(t.build(menu[pass_index % len(menu)]))
        return out

    def fixed(self, templates: list[Template], menu_index: int) -> list[BenchInstance]:
        """Inputs with the menu_index-th exponent of every menu (for recording)."""
        return [t.build(t.menu[menu_index % len(t.menu)]) for t in templates]

    def cold_commands(self, seed: int, pass_index: int) -> list[tuple[str, Optional[int]]]:
        """verify-cold: the entries of one pass, in a seed-shuffled order."""
        jobs = list(VERIFY_COLD)
        if seed:
            random.Random("%d/%d" % (seed, pass_index)).shuffle(jobs)
        return jobs


WORKLOADS = {
    w.name: w for w in (
        Workload("appell-fold", 75.0, _fold_templates),
        Workload("deviation", 95.0, _deviation_templates),
        Workload("catalog-light", 95.0, _light_templates),
        Workload("verify-cold", 70.0, cold=True),
    )
}
