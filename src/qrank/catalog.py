"""Identity catalog and verification driver.

Each entry pairs independently-built left and right sides for one identity,
at one or more concrete instantiations.  Oracle discipline: wherever an entry
certifies a formula against ground truth, the oracle side is built from
enumeration or direct series expansion only; the Appell-Lerch machinery
(m, Psi, Lambda) appears on the formula side alone.  Shared low-level
primitives (eta products, theta blocks) are allowed on both sides.
"""

from __future__ import annotations

import fnmatch
import math
import time
from collections.abc import Callable
from fractions import Fraction

from . import named
from .appell import (
    appell_m,
    delta,
    lerch_fold_lhs,
    m_terms,
    o_d_direct,
    o_d_original,
    psi,
    psi_node,
    s_bar_d,
    s_d_direct,
)
from .cyclotomic import Cyclotomic, root_of_unity
from .errors import NonGenericParameter, UnknownName
from .overpartitions import (
    deviation_by_definition,
    deviation_by_root_average,
    deviation_pair_by_formula,
    enumeration_rank_counts,
    pair_by_definition,
    single_deviation,
)
from .reports import NON_GENERIC, PASS, IdentityReport, Record, compare_series
from .series import (Monomial, QSeries, computed_to, eta_quotient, linear_sum, root_sum,
                     shift_loss, shifted)
from .theta import _base_exp, binom2, theta_j, theta_quotient, theta_triple_product

F = Fraction
Z = Monomial.zeta
Q = Monomial.q
MINUS = Monomial.minus_one()


class Instance(Record):
    def __init__(self, params: dict, lhs: Callable[[Fraction], QSeries] | None = None,
                 rhs: Callable[[Fraction], QSeries] | None = None, note: str | None = None,
                 check: Callable[[Fraction], IdentityReport] | None = None):
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.note = note
        # entries wrapping a multi-part check supply a report builder instead
        self.check = check


class CatalogEntry(Record):
    def __init__(self, id: str, description: str, default_order: Fraction,
                 instances: list[Instance]):
        self.id = id
        self.description = description
        self.default_order = default_order
        self.instances = instances


def _scaled_eta(spec: dict[int, int], s: int, order) -> QSeries:
    return eta_quotient({m * s: e for m, e in spec.items()}, order)


def avg_lhs(n: int, k: int, x: Monomial, z: Monomial, order) -> QSeries:
    """sum_t zeta_n^{-kt} m(zeta_n^t x, q, z) over t < n, valid below `order`:
    one quotient by the common divisor j(z;q), the terms of every twist
    (`m_terms`) in its start, with zeta_n^{-kt} in their shifts."""
    return computed_to(lambda o: theta_quotient((), ((z, 1),), o, start=[
        (num, den, Z(-k * t, n) * shift, w)
        for t in range(n) for num, den, shift, w in m_terms(Z(t, n) * x, 1, z, o)]), order)


def avg_rhs(n: int, k: int, x: Monomial, z: Monomial, zp: Monomial, order) -> QSeries:
    """n q^{-C(k+1,2)} (-x)^k m(-q^{C(n,2)-nk} (-x)^n, q^{n^2}, z') + n Psi_k^n(x, z, z'; q)
    below `order`: one quotient by j(z';q^{n^2}) over the m node and the Psi node."""
    head = Q(F(-binom2(k + 1))) * (-x) ** k
    inner = -(Q(binom2(n) - n * k) * (-x) ** n)
    return computed_to(lambda o: theta_quotient((), ((zp, n * n),), o, start=[
        ((), (), head, n, None, m_terms(inner, n * n, zp, o + shift_loss(head))),
        psi_node(k, n, x, z, zp, 1, n, over=(zp, n * n))]), order)


def theta_shift_check(x: Monomial, n: int, base, order) -> IdentityReport:
    """Verify the two theta rewriting laws at one instance by expansion:
    j(q^n x; q) = (-1)^n q^{-C(n,2)} x^{-n} j(x; q) and
    j(x; q) = j(q/x; q) = -x j(1/x; q), all with q -> q^p.
    """
    p = _base_exp(base)
    order = Fraction(order)
    inst = {"x": x, "n": n, "base": Fraction(p)}
    shift_mono = Monomial.zeta(n, 2, -p * Fraction(binom2(n))) * x ** (-n)
    sides = ((lambda: theta_j(x * Monomial.q(n * p), p, order),
              lambda: shifted(lambda o: theta_j(x, p, o), shift_mono, order)),
             (lambda: theta_j(x, p, order), lambda: theta_j(Monomial.q(p) / x, p, order)),
             (lambda: theta_j(x, p, order),
              lambda: -shifted(lambda o: theta_j(x.inverse(), p, o), x, order)))
    for lhs, rhs in sides:
        rep = compare_series("theta-base-shift", lhs(), rhs(), order, inst)
        if not rep.passed:
            break
    return rep


# ---------------------------------------------------------------------------
# entry builders, grouped
# ---------------------------------------------------------------------------


def _appell_entries() -> list[CatalogEntry]:
    entries = []
    entries.append(CatalogEntry(
        "appell-half-constant",
        "m(q, q^2, -1) equals the constant 1/2",
        F(30),
        [Instance({}, lambda o: appell_m(Q(1), 2, MINUS, o),
                  lambda o: QSeries.scalar(F(1, 2)))]))

    samples = [(Z(1, 5), 1, Z(1, 7)), (Z(1, 5, 1), 1, Z(3, 7)), (Z(2, 7, 2), 2, Z(1, 5, 1))]
    entries.append(CatalogEntry(
        "appell-flip",
        "m(x,q,z) = x^{-1} m(x^{-1}, q, z^{-1})",
        F(30),
        [Instance({"x": x, "base": p, "z": z},
                  lambda o, x=x, p=p, z=z: appell_m(x, p, z, o),
                  lambda o, x=x, p=p, z=z: shifted(
                      lambda t: appell_m(x.inverse(), p, z.inverse(), t), x.inverse(), o))
         for x, p, z in samples]))

    entries.append(CatalogEntry(
        "appell-increment",
        "m(x,q,z) = x^{-1} - x^{-1} m(qx, q, z)",
        F(30),
        [Instance({"x": x, "base": p, "z": z},
                  lambda o, x=x, p=p, z=z: appell_m(x, p, z, o),
                  lambda o, x=x, p=p, z=z: QSeries.from_monomial(x.inverse())
                  - shifted(lambda t: appell_m(x * Q(p), p, z, t), x.inverse(), o))
         for x, p, z in samples]))

    switch = [(Z(1, 5, 1), Z(1, 7), Z(1, 2), 2), (Z(1, 5), Z(2, 7), Z(3, 7), 1),
              (Z(1, 3, 1), Z(1, 5), Z(1, 7, 1), 2)]
    entries.append(CatalogEntry(
        "appell-change-of-z",
        "m(x,q,z1) - m(x,q,z0) equals the theta quotient Delta(x,z1,z0;q)",
        F(30),
        [Instance({"x": x, "z1": z1, "z0": z0, "base": p},
                  lambda o, x=x, z1=z1, z0=z0, p=p: delta(x, z1, z0, p, o),
                  lambda o, x=x, z1=z1, z0=z0, p=p:
                  appell_m(x, p, z1, o) - appell_m(x, p, z0, o))
         for x, z1, z0, p in switch]))

    avg_samples = [(Z(1, 5, 1), Z(1, 7), Z(2, 7)), (Z(2, 7, 1), Z(1, 5), Z(2, 5)),
                   (Z(1, 11, 2), Z(1, 5), Z(1, 7))]
    for n in (2, 3):
        entries.append(CatalogEntry(
            "appell-root-average-n%d" % n,
            "averaging m over the order-%d twists of x collapses to a single "
            "m at base q^%d plus a Psi block" % (n, n * n),
            F(30),
            [Instance({"x": x, "z": z, "zp": zp, "k": k},
                      lambda o, n=n, k=k, x=x, z=z: avg_lhs(n, k, x, z, o),
                      lambda o, n=n, k=k, x=x, z=z, zp=zp: avg_rhs(n, k, x, z, zp, o))
             for x, z, zp in avg_samples for k in range(n)]))

    entries.append(CatalogEntry(
        "lerch-fold",
        "the odd-base Lerch sum folds into -x^{-1} m(x^{-2} q, q^2, x)",
        F(30),
        [Instance({"x": x},
                  lambda o, x=x: lerch_fold_lhs(x, o),
                  lambda o, x=x: shifted(
                      lambda t: appell_m(x ** (-2) * Q(1), 2, x, t), -x.inverse(), o))
         for x in (Z(1, 5), Z(1, 7, 1), Z(3, 11, 2))]))
    return entries


def _theta_entries() -> list[CatalogEntry]:
    entries = []
    tp = [(Z(1, 2), 1), (Z(1, 5), 1), (Z(2, 7, 1), 3), (Z(1, 3, 1), 2)]
    entries.append(CatalogEntry(
        "theta-triple-product",
        "bilateral theta sum equals the infinite triple product",
        F(30),
        [Instance({"z": z, "base": p},
                  lambda o, z=z, p=p: theta_j(z, p, o),
                  lambda o, z=z, p=p: theta_triple_product(z, p, o))
         for z, p in tp]))

    shift = [(Z(1, 5, 1), 2, 1), (Z(1, 7), 0, 1), (Z(3, 7, 2), -2, 2), (Q(1), 1, 1)]
    entries.append(CatalogEntry(
        "theta-base-shift",
        "j(q^n x;q) = (-1)^n q^{-C(n,2)} x^{-n} j(x;q) and j(x;q) = j(q/x;q)"
        " = -x j(1/x;q)",
        F(30),
        [Instance({"x": x, "n": n, "base": p},
                  check=lambda o, x=x, n=n, p=p: theta_shift_check(x, n, p, o))
         for x, n, p in shift]))

    entries.append(CatalogEntry(
        "theta-vanishing",
        "j(q^n; q) vanishes identically",
        F(30),
        [Instance({"n": n},
                  lambda o, n=n: theta_j(Q(n), 1, o),
                  lambda o: QSeries.zero(o),
                  note="vanishing confirmed by the structural zero pattern")
         for n in (0, 1, 2, -1)]))

    closed = [
        (Q(1), 2, {1: 2, 2: -1}, 1, "j(q;q^2) = J_1^2/J_2"),
        (Q(1), 3, {1: 1}, 1, "j(q;q^3) = J_1"),
        (Q(1), 6, {1: 1, 6: 2, 2: -1, 3: -1}, 1, "j(q;q^6) = J_1 J_6^2/(J_2 J_3)"),
        (Z(1, 2), 1, {2: 2, 1: -1}, 2, "j(-1;q) = 2 J_2^2/J_1"),
        (-Q(1), 3, {2: 1, 3: 2, 1: -1, 6: -1}, 1, "j(-q;q^3) = J_2 J_3^2/(J_1 J_6)"),
        (-Q(1), 6, {2: 2, 3: 1, 12: 1, 1: -1, 4: -1, 6: -1}, 1,
         "j(-q;q^6) = J_2^2 J_3 J_12/(J_1 J_4 J_6)"),
    ]
    entries.append(CatalogEntry(
        "theta-closed-forms",
        "the six frequently used eta-quotient evaluations of j",
        F(30),
        [Instance({"form": desc},
                  lambda o, z=z, p=p: theta_j(z, p, o),
                  lambda o, spec=spec, c=c: eta_quotient(spec, o).scale(c))
         for z, p, spec, c, desc in closed]))

    xs = (Z(1, 5), Z(1, 7, 1), Z(2, 11, 2))
    entries.append(CatalogEntry(
        "theta-shifted-pair",
        "j(x/q;q^2) j(q^2/x;q^2) = x^2 q^{-1} j(1/x;q) J_2^2/J_1",
        F(30),
        [Instance({"x": x},
                  lambda o, x=x: theta_quotient(((x * Q(-1), 2), (x.inverse() * Q(2), 2)), (), o),
                  lambda o, x=x: theta_quotient(((x.inverse(), 1),), (), o, eta={2: 2, 1: -1},
                                                shift=x ** 2 * Q(-1)))
         for x in xs]))

    entries.append(CatalogEntry(
        "theta-inverse-ratio",
        "j(-x;q)/(j(-x^2 q;q^2) j(x;q)) is odd under x -> 1/x",
        F(30),
        [Instance({"x": x},
                  lambda o, x=x: theta_quotient(((-x, 1),), ((-(x ** 2) * Q(1), 2), (x, 1)), o),
                  lambda o, x=x: -theta_quotient(((-x.inverse(), 1),),
                                                 ((-(x ** -2) * Q(1), 2), (x.inverse(), 1)), o))
         for x in xs]))

    def power_split_rhs(z, n, o):
        # sum_k (-1)^k q^C(k,2) z^k j((-1)^(n+1) q^(C(n,2)+nk) z^n;q^(n^2))
        terms = [(((Z(n + 1, 2) * Q(binom2(n) + n * k) * z ** n, n * n),), (),
                  Z(k, 2, binom2(k)) * z ** k) for k in range(n)]
        return theta_quotient((), (), o, start=terms)

    for n in (2, 3):
        entries.append(CatalogEntry(
            "theta-power-split-n%d" % n,
            "j(z;q) decomposes into %d theta blocks at base q^%d" % (n, n * n),
            F(30),
            [Instance({"z": z, "n": n},
                      lambda o, z=z: theta_j(z, 1, o),
                      lambda o, z=z, n=n: power_split_rhs(z, n, o))
             for z in xs]))

    entries.append(CatalogEntry(
        "theta-cubic-pair",
        "j(q x^3;q^3) + x j(q^2 x^3;q^3) = J_1 j(x^2;q)/j(x;q)",
        F(30),
        [Instance({"x": x},
                  lambda o, x=x: theta_quotient((), (), o, start=[
                      (((Q(1) * x ** 3, 3),), (), Monomial.one()),
                      (((Q(2) * x ** 3, 3),), (), x)]),
                  lambda o, x=x: theta_quotient(((x ** 2, 1),), ((x, 1),), o, eta={1: 1}))
         for x in (Z(1, 5), Z(2, 7, 1), Z(3, 7))]))

    pairs = [(Z(1, 5), Z(1, 7)), (Z(1, 7, 1), Z(1, 5)), (Z(2, 11), Z(3, 11, 1))]
    entries.append(CatalogEntry(
        "theta-even-base-split",
        "j(x;q) j(y;q) = j(-xy;q^2) j(-qy/x;q^2) - x j(-qxy;q^2) j(-y/x;q^2)",
        F(30),
        [Instance({"x": x, "y": y},
                  lambda o, x=x, y=y: theta_quotient(((x, 1), (y, 1)), (), o),
                  lambda o, x=x, y=y: theta_quotient((), (), o, start=[
                      (((-(x * y), 2), (-(y / x) * Q(1), 2)), (), Monomial.one()),
                      (((-(x * y) * Q(1), 2), (-(y / x), 2)), (), -x)]))
         for x, y in pairs]))

    entries.append(CatalogEntry(
        "theta-ratio-difference",
        "j(y;q)/j(-y;q) - j(x;q)/j(-x;q) = 2x j(y/x;q^2) j(qxy;q^2)/(j(-x;q) j(-y;q))",
        F(30),
        [Instance({"x": x, "y": y},
                  lambda o, x=x, y=y: theta_quotient(((y, 1),), ((-y, 1),), o)
                  - theta_quotient(((x, 1),), ((-x, 1),), o),
                  lambda o, x=x, y=y: theta_quotient(((y / x, 2), (x * y * Q(1), 2)),
                                                     ((-x, 1), (-y, 1)), o, shift=x).scale(2))
         for x, y in pairs]))

    def mult_shift_rhs(x, z, n, o):
        # the k-sum of x^k j(z x^n q^k;q^n)/j(z q^k;q^n) is the start of
        # J_n^3 j(z;q) / (J_1^3 j(x^n;q^n))
        terms = [(((z * x ** n * Q(k), n),), ((z * Q(k), n),), x ** k) for k in range(n)]
        return theta_quotient(((z, 1),), ((x ** n, n),), o, eta={n: 3, 1: -3}, start=terms)

    for n in (2, 3):
        entries.append(CatalogEntry(
            "theta-shift-multiplier-n%d" % n,
            "j(zx;q)/j(x;q) as a %d-term sum of base-q^%d theta quotients" % (n, n),
            F(30),
            [Instance({"x": x, "z": z, "n": n},
                      lambda o, x=x, z=z: theta_quotient(((z * x, 1),), ((x, 1),), o),
                      lambda o, x=x, z=z, n=n: mult_shift_rhs(x, z, n, o))
             for x, z in [(Z(1, 5), Z(1, 7)), (Z(1, 7, 1), Z(2, 5)), (Z(2, 11), Z(1, 5, 1))]]))
    return entries


def _cube_root_entries() -> list[CatalogEntry]:
    entries = []
    ws = [Z(1, 3), Z(2, 3)]
    entries.append(CatalogEntry(
        "theta-cube-root",
        "j(w;q) = (1-w) J_3 for a primitive cube root w",
        F(30),
        [Instance({"w": w, "scale": s},
                  lambda o, w=w, s=s: theta_j(w, s, o),
                  lambda o, w=w, s=s: _scaled_eta({3: 1}, s, o).scale(1 - w.coeff()))
         for w in ws for s in (1, 2)]))
    entries.append(CatalogEntry(
        "theta-negative-cube-root",
        "j(-w;q) = (1+w) J_1^2 J_6/(J_2 J_3)",
        F(30),
        [Instance({"w": w, "scale": s},
                  lambda o, w=w, s=s: theta_j(-w, s, o),
                  lambda o, w=w, s=s: _scaled_eta({1: 2, 6: 1, 2: -1, 3: -1}, s, o)
                  .scale(1 + w.coeff()))
         for w in ws for s in (1, 2)]))
    entries.append(CatalogEntry(
        "theta-cube-root-even-base",
        "j(-wq;q^2) = J_1 J_4 J_6^2/(J_2 J_3 J_12)",
        F(30),
        [Instance({"w": w, "scale": s},
                  lambda o, w=w, s=s: theta_j(-w * Q(s), 2 * s, o),
                  lambda o, s=s: _scaled_eta({1: 1, 4: 1, 6: 2, 2: -1, 3: -1, 12: -1}, s, o))
         for w in ws for s in (1, 2)]))

    def cubic_base_rhs(w, s, o):
        return theta_quotient((), (), o, eta={9 * s: 1}, start=[
            (((Q(2 * s), 9 * s),), ((-Q(s), 9 * s),), Monomial.one()),
            (((Q(8 * s), 9 * s),), ((-Q(4 * s), 9 * s),), -(w * w) * Q(s))])

    entries.append(CatalogEntry(
        "theta-cube-root-cubic-base",
        "j(-wq;q^3) = J_9 (j(q^2;q^9)/j(-q;q^9) - w^2 q j(q^8;q^9)/j(-q^4;q^9))",
        F(30),
        [Instance({"w": w, "scale": s},
                  lambda o, w=w, s=s: theta_j(-w * Q(s), 3 * s, o),
                  lambda o, w=w, s=s: cubic_base_rhs(w, s, o))
         for w in ws for s in (1, 2)]))

    def sextic_base_rhs(w, s, o):
        return theta_quotient((), (), o, eta={18 * s: 1}, start=[
            (((Q(10 * s), 18 * s),), ((-Q(5 * s), 18 * s),), Monomial.one()),
            (((Q(14 * s), 18 * s),), ((-Q(7 * s), 18 * s),), w * Q(s))])

    entries.append(CatalogEntry(
        "theta-cube-root-sextic-base",
        "j(-wq;q^6) = J_18 (j(q^10;q^18)/j(-q^5;q^18) + w q j(q^14;q^18)/j(-q^7;q^18))",
        F(30),
        [Instance({"w": w, "scale": s},
                  lambda o, w=w, s=s: theta_j(-w * Q(s), 6 * s, o),
                  lambda o, w=w, s=s: sextic_base_rhs(w, s, o))
         for w in ws for s in (1, 2)]))

    w = Z(1, 3)
    entries.append(CatalogEntry(
        "theta-cube-root-product",
        "j(x;q) j(xw;q) j(xw^2;q) = (J_1^3/J_3) j(x^3;q^3)",
        F(30),
        [Instance({"x": x},
                  lambda o, x=x: theta_quotient(((x, 1), (x * w, 1), (x * w * w, 1)), (), o),
                  lambda o, x=x: theta_quotient(((x ** 3, 3),), (), o, eta={1: 3, 3: -1}))
         for x in (Z(1, 5), Z(1, 7, 1), Z(2, 11, 2))]))
    return entries


def _root_sum_entries() -> list[CatalogEntry]:
    cases = [(5, 0), (5, 10), (5, 7), (6, 3), (7, 14), (9, 4)]

    def lhs(n, s, _):
        total = Cyclotomic.from_fraction(0)
        for j in range(n):
            total = total + root_of_unity(s * j, n)
        return QSeries.scalar(total)

    return [CatalogEntry(
        "root-power-sums",
        "sum of zeta_n^{sj} over j is n when n divides s, else 0",
        F(1),
        [Instance({"n": n, "s": s},
                  lambda o, n=n, s=s: lhs(n, s, o),
                  lambda o, n=n, s=s: QSeries.scalar(n if s % n == 0 else 0))
         for n, s in cases])]


def _rank_series_entries() -> list[CatalogEntry]:
    entries = []
    entries.append(CatalogEntry(
        "rank-series-two-forms",
        "the single-divisor and double-divisor expansions of the rank series agree",
        F(30),
        [Instance({"d": d, "z": z},
                  lambda o, d=d, z=z: o_d_direct(d, z, o),
                  lambda o, d=d, z=z: o_d_original(d, z, o))
         for d in (1, 2) for z in (Z(1, 5), Z(2, 7))]))

    def enum_series(d, z, o):
        # sum of N(m, n) z^m q^n for a root of unity z
        counts = enumeration_rank_counts(d, math.ceil(o) - 1)
        # the order of z^m = zeta_N^(km), z = zeta_N^k, over the ranks m that occur
        L = math.lcm(*{z.zeta_den // math.gcd(z.zeta_den, z.zeta_num * m) for m, _ in counts})
        return root_sum(((c, z.zeta_num * m * L // z.zeta_den, n)
                         for (m, n), c in counts.items()), L, o)

    for d in (1, 2):
        stat = "rank" if d == 1 else "M2-rank"
        entries.append(CatalogEntry(
            "rank-enumeration-d%d" % d,
            "direct enumeration of overpartitions by %s matches the "
            "generating function" % stat,
            F(21),
            [Instance({"d": d, "z": z},
                      lambda o, d=d, z=z: enum_series(d, z, o),
                      lambda o, d=d, z=z: o_d_direct(d, z, o))
             for z in (Z(1, 5), Z(1, 7))]))

    fold_cases = []
    for d in (1, 2, 3, 4):
        for z, gens in ((Z(1, 5), [(Z(3, 7), Z(1, 7)), (Z(2, 11), Z(1, 11))]),
                        (Z(2, 7), [(Z(3, 11), Z(1, 11)), (Z(2, 13), Z(1, 13))])):
            for z0, zp in gens:
                fold_cases.append((d, z, z0, zp))
    entries.append(CatalogEntry(
        "rank-fold",
        "(1+z) O_d(z;q) equals its Appell-Lerch form, independently of the "
        "generic parameters",
        F(40),
        [Instance({"d": d, "z": z, "z0": z0, "zp": zp},
                  lambda o, d=d, z=z: s_d_direct(d, z, o),
                  lambda o, d=d, z=z, z0=z0, zp=zp: s_bar_d(d, z, z0, zp, o))
         for d, z, z0, zp in fold_cases]))

    def residue_avg_lhs(d, a, M, o):
        return linear_sum(((root_of_unity(-a * j, M) * F(1, M), s_d_direct(d, Z(j, M), o))
                           for j in range(1, M)), o)

    entries.append(CatalogEntry(
        "rank-residue-average",
        "averaging (1+z) O_d over the nontrivial M-th roots of unity yields "
        "the deviation pair",
        F(30),
        [Instance({"d": d, "a": a, "M": M},
                  lambda o, d=d, a=a, M=M: residue_avg_lhs(d, a, M, o),
                  lambda o, d=d, a=a, M=M: pair_by_definition(d, a, M, o))
         for d, a, M in ((1, 2, 3), (2, 1, 3), (1, 1, 5))]))
    return entries


def _deviation_entries() -> list[CatalogEntry]:
    entries = []
    groups = [
        ("deviation-pair-even-even", "odd d with a, M even",
         [(1, 2, 2), (3, 2, 4), (1, 4, 6), (3, 4, 4)]),
        ("deviation-pair-even-odd", "odd d with a even, M odd",
         [(1, 2, 3), (3, 2, 3), (1, 2, 5)]),
        ("deviation-pair-odd-odd", "odd d with a, M odd",
         [(1, 1, 3), (1, 3, 3), (3, 3, 3), (1, 3, 5)]),
        ("deviation-pair-even-d", "even d",
         [(2, 1, 2), (2, 1, 3), (2, 2, 3), (4, 1, 3)]),
    ]
    for entry_id, label, tuples in groups:
        entries.append(CatalogEntry(
            entry_id,
            "deviation pair D_d(a,M) + D_d(a-1,M): Appell-Lerch formula (%s) "
            "against the rank-table route" % label,
            F(40),
            [Instance({"d": d, "a": a, "M": M},
                      lambda o, d=d, a=a, M=M: pair_by_definition(d, a, M, o),
                      lambda o, d=d, a=a, M=M: deviation_pair_by_formula(d, a, M, o))
             for d, a, M in tuples]))

    singles_odd = [(d, M, a) for d, M in ((1, 3), (2, 3), (3, 3)) for a in range(M)]
    entries.append(CatalogEntry(
        "deviation-single-odd-modulus",
        "single deviation via the root-of-unity average of the Appell-Lerch "
        "bracket (odd modulus) against the rank-table route",
        F(25),
        [Instance({"d": d, "a": a, "M": M},
                  lambda o, d=d, a=a, M=M: deviation_by_definition(d, a, M, o),
                  lambda o, d=d, a=a, M=M: single_deviation(d, a, M, o))
         for d, M, a in singles_odd]))

    singles_even = [(d, M, a) for d, M in ((1, 2), (2, 2)) for a in range(M)]
    entries.append(CatalogEntry(
        "deviation-single-even-modulus",
        "single deviation via the root-of-unity average with O_d(-1;q) "
        "(even modulus) against the rank-table route",
        F(25),
        [Instance({"d": d, "a": a, "M": M},
                  lambda o, d=d, a=a, M=M: deviation_by_definition(d, a, M, o),
                  lambda o, d=d, a=a, M=M: single_deviation(d, a, M, o))
         for d, M, a in singles_even]))

    def residue_sum(d, M, o):
        return linear_sum(((1, deviation_by_definition(d, a, M, o)) for a in range(M)), o)

    entries.append(CatalogEntry(
        "deviation-residue-sum",
        "the deviations over a full residue system sum to zero",
        F(30),
        [Instance({"d": d, "M": M},
                  lambda o, d=d, M=M: residue_sum(d, M, o),
                  lambda o: QSeries.zero(o))
         for d in (1, 2, 3, 4) for M in (2, 3, 4, 5, 6)]))

    entries.append(CatalogEntry(
        "deviation-reflection",
        "D_d(a, M) = D_d(M - a, M)",
        F(30),
        [Instance({"d": d, "a": a, "M": M},
                  lambda o, d=d, a=a, M=M: deviation_by_definition(d, a, M, o),
                  lambda o, d=d, a=a, M=M: deviation_by_definition(d, M - a, M, o))
         for d in (1, 2, 3, 4) for M in (2, 3, 4, 5, 6)
         for a in range(1, M // 2 + 1)]))

    entries.append(CatalogEntry(
        "deviation-root-average",
        "the root-of-unity average of O_d recovers each single deviation",
        F(25),
        [Instance({"d": d, "a": a, "M": M},
                  lambda o, d=d, a=a, M=M: deviation_by_definition(d, a, M, o),
                  lambda o, d=d, a=a, M=M: deviation_by_root_average(d, a, M, o))
         for d, a, M in ((1, 1, 2), (2, 1, 3), (1, 2, 4), (3, 0, 2))]))
    return entries


def _dissection_entries() -> list[CatalogEntry]:
    labels = {
        "dis1": "1/J_1^3",
        "dis2": "J_1 J_6/(J_2 J_3^2)",
        "dis3": "J_2^4 J_8/(J_1 J_4^3)",
        "dis4": "J_2^3/(J_1 J_8)",
        "dis5": "J_2/J_4^2",
    }
    return [CatalogEntry(
        "dissect3-%s" % key[-1],
        "3-dissection of %s into the catalog's component blocks" % labels[key],
        F(120),
        [Instance({"series": labels[key]},
                  lambda o, k=key: named.dissection_lhs(k, o),
                  lambda o, k=key: named.dissection_rhs(k, o))])
        for key in ("dis1", "dis2", "dis3", "dis4", "dis5")]


def _decomposition_entries() -> list[CatalogEntry]:
    entries = []
    entries.append(CatalogEntry(
        "third-root-decomposition",
        "O_3(zeta_3;q) equals its three-part Appell-Lerch/theta decomposition",
        F(60),
        [Instance({"z": "zeta3"},
                  lambda o: o_d_direct(3, Z(1, 3), o),
                  lambda o: computed_to(
                      lambda t: named.b_block(0, t)
                      + named.b_block(1, t).shift(Q(1))
                      + named.b_block(2, t).shift(Q(2)), o))]))
    entries.append(CatalogEntry(
        "theta-ratio-sum",
        "the two cube-root theta ratios at q^15 and q^21 collapse to a single "
        "eta quotient",
        F(60),
        [Instance({}, named.ratio_sum_lhs, named.ratio_sum_rhs)]))
    entries.append(CatalogEntry(
        "theta-bracket-reduction",
        "the bracketed ratio sum with its theta multiplier reduces to "
        "3 q^3 J_2 J_6^3 J_9 J_108/(J_3 J_4^2 J_18 J_36)",
        F(60),
        [Instance({}, named.bracket_reduction_lhs, named.bracket_reduction_rhs)]))
    entries.append(CatalogEntry(
        "psi-difference-closed-form",
        "4 Psi_2^3 - 2 Psi_1^3 at (q^9,-1,-1;q^18) equals its closed theta form",
        F(60),
        [Instance({}, named.psi_difference_lhs, named.psi_difference_rhs)]))
    entries.append(CatalogEntry(
        "psi-vanishing",
        "Psi_0^3(q^9,-1,-1;q^18) vanishes",
        F(100),
        [Instance({},
                  lambda o: psi(0, 3, Q(9), MINUS, MINUS, 18, o),
                  lambda o: QSeries.zero(o),
                  note="zero to truncation order; expansion cannot prove "
                       "identical vanishing")]))
    return entries


def build_catalog() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []
    entries += _appell_entries()
    entries += _theta_entries()
    entries += _cube_root_entries()
    entries += _root_sum_entries()
    entries += _rank_series_entries()
    entries += _deviation_entries()
    entries += _dissection_entries()
    entries += _decomposition_entries()
    catalog = {}
    for e in entries:
        if e.id in catalog:
            raise ValueError("duplicate catalog id %r" % e.id)
        catalog[e.id] = e
    return catalog


CATALOG = build_catalog()

# Checked manifest: the exact set of capabilities the catalog must certify.
REQUIRED_ENTRY_IDS = (
    "appell-half-constant", "appell-flip", "appell-increment",
    "appell-change-of-z", "appell-root-average-n2", "appell-root-average-n3",
    "lerch-fold",
    "theta-triple-product", "theta-base-shift", "theta-vanishing",
    "theta-closed-forms", "theta-shifted-pair", "theta-inverse-ratio",
    "theta-power-split-n2", "theta-power-split-n3", "theta-cubic-pair",
    "theta-even-base-split", "theta-ratio-difference",
    "theta-shift-multiplier-n2", "theta-shift-multiplier-n3",
    "theta-cube-root", "theta-negative-cube-root", "theta-cube-root-even-base",
    "theta-cube-root-cubic-base", "theta-cube-root-sextic-base",
    "theta-cube-root-product",
    "root-power-sums",
    "rank-series-two-forms", "rank-enumeration-d1", "rank-enumeration-d2",
    "rank-fold", "rank-residue-average",
    "deviation-pair-even-even", "deviation-pair-even-odd",
    "deviation-pair-odd-odd", "deviation-pair-even-d",
    "deviation-single-odd-modulus", "deviation-single-even-modulus",
    "deviation-residue-sum", "deviation-reflection", "deviation-root-average",
    "dissect3-1", "dissect3-2", "dissect3-3", "dissect3-4", "dissect3-5",
    "third-root-decomposition", "theta-ratio-sum", "theta-bracket-reduction",
    "psi-difference-closed-form", "psi-vanishing",
)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def verify(entry: CatalogEntry, order=None) -> list[IdentityReport]:
    """Expand both sides of every instantiation and compare coefficient-exactly."""
    order = F(order) if order is not None else entry.default_order
    reports = []
    for inst in entry.instances:
        start = time.perf_counter()
        try:
            if inst.check is not None:
                report = inst.check(order)
                report.entry_id = entry.id
                report.instantiation = {k: str(v) for k, v in inst.params.items()}
                report.order = str(order)
            else:
                lhs = inst.lhs(order)
                rhs = inst.rhs(order)
                report = compare_series(entry.id, lhs, rhs, order, inst.params,
                                        note=inst.note)
        except NonGenericParameter as exc:
            report = IdentityReport(entry.id,
                                    {k: str(v) for k, v in inst.params.items()},
                                    str(order), NON_GENERIC, note=str(exc))
        report.wall_ms = (time.perf_counter() - start) * 1000.0
        reports.append(report)
    return reports


def _run_entry_task(args: tuple[str, str | None]) -> list[dict]:
    entry_id, order = args
    entry = CATALOG[entry_id]
    return [r.to_dict() for r in verify(entry, F(order) if order else None)]


class SuiteResult(Record):
    def __init__(self, reports: list[dict], counts: dict | None = None):
        self.reports = reports
        self.counts = {} if counts is None else counts

    @property
    def all_pass(self) -> bool:
        return all(r["verdict"] == PASS for r in self.reports)

    def to_document(self, pattern: str, order) -> dict:
        return {
            "run": {
                "filter": pattern,
                "order_override": None if order is None else str(order),
                "entries_run": sorted({r["entry"] for r in self.reports}),
            },
            "summary": self.counts,
            "reports": self.reports,
        }


def run_suite(pattern: str = "*", order=None, jobs: int = 1,
              json_path: str | None = None,
              csv_path: str | None = None) -> SuiteResult:
    """Run all catalog entries whose id matches the glob pattern."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    order = None if order is None else F(order)
    ids = sorted(eid for eid in CATALOG if fnmatch.fnmatch(eid, pattern))
    if not ids:
        raise UnknownName("no catalog entry matches %r" % pattern)
    tasks = [(eid, None if order is None else str(order)) for eid in ids]
    if jobs > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_entry_task, tasks))
    else:
        chunks = [_run_entry_task(t) for t in tasks]
    reports = [r for chunk in chunks for r in chunk]
    counts = {"total": len(reports), "pass": 0, "fail": 0, "non-generic": 0}
    for r in reports:
        key = r["verdict"] if r["verdict"] in counts else "fail"
        counts[key] = counts.get(key, 0) + 1
    result = SuiteResult(reports, counts)
    if json_path:
        # imported here: a run that writes no document need not load json
        import json

        with open(json_path, "w") as fh:
            json.dump(result.to_document(pattern, order), fh, indent=2)
            fh.write("\n")
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("entry,instantiation,order,verdict,wall_ms\n")
            for r in reports:
                inst = ";".join("%s=%s" % kv for kv in sorted(r["instantiation"].items()))
                fh.write("%s,%s,%s,%s,%.1f\n" % (
                    r["entry"], inst.replace(",", ";"), r["order"],
                    r["verdict"], r["wall_ms"]))
    return result
