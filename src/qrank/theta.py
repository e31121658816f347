"""Theta blocks j(z;q^p) for monomial arguments.

j(z;q) = (z;q)_oo (q/z;q)_oo (q;q)_oo = sum_{n in Z} (-1)^n q^C(n,2) z^n.

`theta_quotient` builds every theta expression of the package: shift *
start * eta quotient * prod blocks / prod blocks, where a block is j(z;q^p)
or the two-term factor 1 - u (its terms n = 0 and 1), and the start may be
a weighted sum of such quotients.  So m(x,q,z) in `qrank.appell` is one
quotient, each term of its bilateral sum a start term over 1 - u.  It plans
on integers, every exponent of a call in steps of one q^(1/G), and runs in
the half ring of `qrank.cyclotomic` (N = L/2 slots, x^N = -1, for even L;
Z[C_L] for odd L), one packed integer per coefficient, with a sparse pass
per block and one batched reduction mod Phi_L of all output coefficients.
A single block j(z;q^p) is `theta_j`, the quotient with one numerator
block.

The terms of each block are listed by `bilateral`, the routine that also
walks the other two-sided sums of the package (the terms of m(x,q,z), the
Lerch sums behind O_d(z;q)).  It stops each direction by a convexity
rule: once the convex lowest exponent of a term has passed its minimum and
reached the order, no later term can fall below it.  That holds for any
monomial z, including ones with negative or fractional q-exponent.  The
triple product is kept as an independent oracle for tests and for the
catalog's two-route entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .cyclotomic import _pack, _slot_mask, _slot_width, get_field
from .errors import NonGenericParameter
from .reports import IdentityReport, compare_series
from .series import Monomial, QSeries, eta_quotient, shifted


def _base_exp(base) -> Fraction:
    if isinstance(base, Monomial):
        if not base.coeff_is_one:
            raise ValueError("theta base must be a pure power of q")
        p = base.q_exp
    else:
        p = Fraction(base)
    if p <= 0:
        raise ValueError("theta base exponent must be positive")
    return p


def binom2(n: int) -> int:
    """n(n-1)/2, valid for negative n as well (bilateral sums)."""
    return n * (n - 1) // 2


def bilateral(lowest, order):
    """Yield (n, lowest(n)) for every integer n with lowest(n) < order.

    `lowest(n)` is the smallest q-exponent term n contributes, and it must be
    convex in n: its differences lowest(n+1) - lowest(n) never decrease.
    The walk goes up from 0 and down from -1.  A direction stops at the first
    n with lowest(n) >= order and lowest(n +- 1) >= lowest(n): the step
    there is non-negative, so by convexity every later step is too, and no
    further term reaches below `order`.  Every caller's lowest exponent is a
    quadratic with positive leading coefficient, plus max(0, linear) where a
    divisor 1/(1 - u) may flip: p C(n,2) + n e for j(z;q^p) and for the
    terms of m(x,q^p,z) (with e = exp(z)), and
    n^2 + kn + max(0, -(e_x + kn)) for the Lerch sums.  These are convex and
    unbounded, so both walks end.
    """
    for n, step in ((0, 1), (-1, -1)):
        low = lowest(n)
        while True:
            nxt = lowest(n + step)
            if low < order:
                yield n, low
            elif nxt >= low:
                break
            n, low = n + step, nxt


def _block(z: Monomial, base) -> tuple[int, int, int, int, bool]:
    """j(z;q^p) on the grid q^(1/s), s the least common denominator of p and
    exp(z): (s, P = p s, E = exp(z) s, valuation v times s, whether the block
    vanishes identically, E % P == 0 with z a power of q).  P C(n,2) + n E is
    least at n = (P - 2E) // 2P or n + 1; those tie only when E % P == 0, and
    cancel only when the block vanishes, so v is the valuation of every block
    that can be inverted: 0 for 0 <= E <= P and negative outside.

    Base None is the two-term block 1 - z, the terms n = 0 and 1 with P = 0:
    its valuation is min(0, E), and it vanishes when z = 1."""
    e = z.q_exp
    if base is None:
        return e.denominator, 0, e.numerator, min(0, e.numerator), z.coeff_is_one and not e
    p = _base_exp(base)
    s = math.lcm(p.denominator, e.denominator)
    P, E = p.numerator * (s // p.denominator), e.numerator * (s // e.denominator)
    n = (P - 2 * E) // (2 * P)
    v = min(P * binom2(n) + n * E, P * binom2(n + 1) + (n + 1) * E)
    return s, P, E, v, z.coeff_is_one and E % P == 0


def is_theta_zero_pattern(z: Monomial, base) -> bool:
    """True when j(z;q^p) vanishes identically, i.e. z is an integral power
    of the base with trivial root-of-unity part (`_block`)."""
    return _block(z, base)[4]


# ---------------------------------------------------------------------------
# theta quotients over the half ring
# ---------------------------------------------------------------------------


def theta_quotient(num, den, order, eta: dict | None = None,
                   shift: Monomial | None = None, start=None) -> QSeries:
    """shift * start * eta_quotient(eta) * prod_num blocks / prod_den blocks,
    exact below `order`.

    `num` and `den` hold blocks: (z, p) for j(z;q^p), and (u, None) for the
    two-term factor 1 - u, the terms n = 0 and 1 of a theta block with
    p = 0.  `start` is None (the constant 1) or a sequence of
    (num, den, shift[, weight]) terms, weight an integer (default 1), whose
    weighted sum is the start; the terms are added unreduced and their sum
    is reduced once, with the rest.

    The expansion runs in the half ring: a coefficient is one integer whose
    N slots hold its integers at zeta_L^0 .. zeta_L^(N-1), N = L/2 for even
    L and L for odd L, so multiplying by +-zeta_L^k rotates the slots,
    negating those that wrap when L is even (`_expand`), and the slots
    are as wide as a first run of the same passes on l1 norms proves
    enough.  A numerator block is a sparse shift-and-add pass.  A
    divisor whose lowest term is a single +-zeta^k q^v divides by a sparse
    recurrence after that term is taken out; for 1 - u that is a one-row
    pass, after 1/(1 - u) = -u^(-1)/(1 - u^(-1)) when exp(u) < 0.  A
    divisor with a tie, exp(z) = m p and z = c q^(m p) with c a root of
    unity of order N > 1, is j(z;q^p) = (-1)^m q^(-p C(m,2)) c^(-m) (1 - c)
    P(q^p) with P = sum_{n>=1} (-1)^(n+1) q^(p C(n,2)) sum_{|j|<n} c^j,
    whose lowest coefficient is 1, so P also divides by a recurrence; a
    two-term divisor 1 - c is the tie with m = 0 and P = 1.  The (1 - c) of
    every tie divide the start once: 1/(1 - c) = -(1/N) sum_{j<N} j c^j.
    Both steps use that the sum of the N powers of c is 0 in Q(zeta_L): it
    drops out of P's coefficients, and the identities need only hold after
    the reduction mod Phi_L, which is a ring map and comes last, once for
    all coefficients together (`CyclotomicField.reduce_all`).  The plan is
    made on integers, every exponent of the call (order, shifts, each p and
    exp(z)) in steps of one q^(1/G).  It knows the valuation of every block
    (`_block`), so it knows how far to expand each block and the result is
    exact below `order` the first time.  A divisor that vanishes
    identically raises NonGenericParameter.
    """
    order = Fraction(order)
    outer = _Quotient(num, den, Monomial.one() if shift is None else shift)
    parts = [] if start is None else [_Quotient(*t) for t in start]
    # every exponent from here on is an integer, in steps of q^(1/G)
    G = math.lcm(order.denominator, *(q.grid for q in [outer] + parts))
    for q in [outer] + parts:
        q.regrid(G)
    reach = [order.numerator * (G // order.denominator)]
    need = reach[0] - outer.val  # the start is needed below this
    # the start is used from s0, its least term below need (need if none)
    L, D = outer.L, order.denominator
    s0 = 0 if start is None else min([t.val for t in parts if t.val < need], default=need)
    if start is not None:
        reach.append(need)
    if eta:
        reach.append(need - s0)
        D = math.lcm(D, *(Fraction(m).denominator for m, e in eta.items() if e))
    # every block is listed below one bound: the order, or the furthest any
    # factor reaches when the start is needed below `need`, if that is more
    begins = [(outer, s0)] + [(t, t.val) for t in parts]
    for q, s in begins:
        L = math.lcm(L, q.L)
        reach += [v + need - s for *_, v, _ in q.blocks]
    top = max(reach)
    for q, s in begins:
        D = math.lcm(D, q.plan(top, max(top, need) - s))
    field = get_field(L)
    prec, n = reach[0] * D // G, max(need - s0, 0) * D // G
    if n <= 0:
        return QSeries(field, D, 0, (), prec, _normalized=True)
    outer.prepare(n, D, L)
    # the passes commute, so the final rotation is applied to the start
    kappa, terms = _ring_mul(outer.kappa, {outer.rot: 1}, L), []
    for t in parts:
        off = (t.val - s0) * D // G
        if off < n:
            t.prepare(n - off, D, L)
            terms.append((off, t))
    div = math.lcm(*(t.div for _, t in terms))
    # each start term from kappa times its own tie constant, rotation and
    # weight on the common denominator, through its own passes
    terms = [(off, _ring_mul(kappa, _ring_mul(t.kappa, {t.rot: t.sign * t.weight * (div // t.div)},
                                              L), L), t.steps) for off, t in terms]
    steps = []
    if eta:
        e = eta_quotient(eta, Fraction(n, D))
        steps.append((False, [((e.val + i) * (D // e.den), c[1][0], 0)
                              for i, c in enumerate(e.coeffs) if c[1][0]]))
    steps += outer.steps
    f = {0: kappa} if start is None else {}
    bound = _expand(f, terms, steps, n, L, 0)[1]
    width = _slot_width(bound)
    f = _expand(f, terms, steps, n, L, width)[0]
    nz = [i for i, x in enumerate(f) if x]
    den, coeffs = outer.sign * div * outer.div, [field.zero] * n
    for i, v in zip(nz, field.reduce_all([f[i] for i in nz], field.N, width, bound)):
        coeffs[i] = field.normalize(den, v)
    return QSeries(field, D, (s0 + outer.val) * D // G, tuple(coeffs), prec)


class _Quotient:
    """weight * shift * prod_num blocks / prod_den blocks: its root order L,
    its blocks as (z, s, p s, exp(z) s, valuation s, is a divisor) on a grid
    q^(1/s) (`_block`, p = 0 for 1 - z), and `grid`, the lcm of their s and
    of the shift's denominator."""

    def __init__(self, num, den, shift: Monomial, weight: int = 1):
        self.shift, self.weight, self.L, self.blocks = shift, weight, shift.zeta_den, []
        self.grid = shift.q_exp.denominator
        for divisor, blocks in ((False, num), (True, den)):
            for z, p in blocks:
                s, P, E, v, vanishes = _block(z, p)
                if divisor and vanishes:
                    raise NonGenericParameter("divisor 1 - %s vanishes" % z if p is None else
                                              "theta divisor j(%s; q^%s) vanishes"
                                              % (z, Fraction(P, s)))
                self.L, self.grid = math.lcm(self.L, z.zeta_den), math.lcm(self.grid, s)
                self.blocks.append((z, s, P, E, v, divisor))

    def regrid(self, G: int) -> None:
        """Move every block to the grid q^(1/G), G a multiple of `grid`, and
        give the valuation of the quotient there as `val`."""
        self.blocks = [(z, G, P * (G // s), E * (G // s), v * (G // s), divisor)
                       for z, s, P, E, v, divisor in self.blocks]
        e = self.shift.q_exp
        self.val = e.numerator * (G // e.denominator) + sum(
            -v if divisor else v for *_, v, divisor in self.blocks)

    def plan(self, top: int, ahead: int) -> int:
        """List each block's terms, as (offset, n) for the term
        (-1)^n z^n q^(p C(n,2)) at q^(offset/s) above the block's valuation,
        s the grid of the call: a theta block's below q^(top/s), and the
        terms of 1 - z less than q^(ahead/s) above it, `ahead` at least
        the length of the quotient's expansion, so the step of z counts only
        where the expansion reaches it; return the lcm of the denominators of
        their exponents and of the shift's."""
        den, self.terms = self.shift.q_exp.denominator, []
        for _, s, P, E, v, _ in self.blocks:
            if P:
                block = list(bilateral(lambda n: P * binom2(n) + n * E, top))
            else:
                block = [(n, n * E) for n in (0, 1) if n * E - v < ahead]
            den = math.lcm(den, s // math.gcd(s, *(low for _, low in block)))
            self.terms.append([(low - v, n) for n, low in block])
        return den

    def prepare(self, n: int, D: int, L: int) -> None:
        """The passes of the blocks below n steps of q^(1/D), as `steps`.
        The lowest term of each divisor is taken out, so the product is
        sign zeta_L^rot q^val kappa / div times the passes.  `kappa`
        ({rotation: weight}) is the product of the -sum_{j<N} j c^j of the
        ties and div that of their N."""
        self.sign, self.rot, self.div = 1, self.shift.zeta_num * (L // self.shift.zeta_den), 1
        self.kappa, self.steps = {0: 1}, []
        for (z, s, P, E, _, divisor), block in zip(self.blocks, self.terms):
            k, i0 = z.zeta_num * (L // z.zeta_den), 0
            m, tie = divmod(E, P) if P else (0, E)
            if divisor and not tie:
                N = z.zeta_den
                self.sign *= -1 if m % 2 else 1
                self.rot += m * k
                self.div *= N
                self.kappa = _ring_mul(self.kappa, {j * k % L: -j for j in range(1, N)}, L)
                if P:  # 1 - c has no P(q^p) to divide by
                    self.steps.append((True, _tie_rows(k, N, P, s, n, D, L)))
                continue
            if divisor:
                i0 = min(block)[1]
                self.sign *= -1 if i0 % 2 else 1
                self.rot -= i0 * k
            self.steps.append((divisor, sorted(
                (off * D // s, -1 if (i - i0) % 2 else 1, (i - i0) * k % L)
                for off, i in block if not divisor or i != i0)))
        self.rot %= L


def _ring_mul(a: dict, b: dict, L: int) -> dict:
    """The product of two sparse elements {rotation: weight} of Z[C_L]."""
    out: dict[int, int] = {}
    for k, w in a.items():
        for l, x in b.items():
            r = (k + l) % L
            out[r] = out.get(r, 0) + w * x
    return {k: w for k, w in out.items() if w}


def _tie_rows(k_c: int, N: int, ps: int, s: int, n: int, D: int, L: int):
    """The terms of P(q^p) - 1 below n steps of q^(1/D), for c = zeta_L^k_c
    of order N > 1 and p = ps/s, as (offset, sign, rotation).  Row r of P is
    (-1)^(r+1) sum_{|j|<r} c^j; whole cycles of N powers sum to 0 and drop,
    and a remainder of more than N/2 powers becomes minus the rest of its
    cycle."""
    rows, r, end = [], 2, n * s
    while ps * binom2(r) * D < end:
        off, sign = ps * binom2(r) * D // s, 1 if r % 2 else -1
        lo, cnt = 1 - r, (2 * r - 1) % N
        if 2 * cnt > N:
            lo, cnt, sign = lo + cnt, N - cnt, -sign
        rows += [(off, sign, (lo + j) * k_c % L) for j in range(cnt)]
        r += 1
    return rows


def _expand(start: dict, terms, steps, n: int, L: int, width: int):
    """The coefficients below n of start ({index: {rotation: weight}}) plus
    the sum of the (offset, seed, steps) `terms`, times the (is a divisor,
    rows) `steps`; and the largest value of any stage.

    A coefficient is one integer whose slot i < N, `width` bytes wide, holds
    its integer at zeta_L^i in two's complement, as in `_pack`: N = L for odd
    L, and the N = L/2 slots of the half ring Z[x]/(x^N + 1) for even L.
    With B the slots' top bits, y = x + B has non-negative slots, so for
    k < N x zeta_L^k is (((lo | y << WL) >> s) & M) - B, WL = 8 width N,
    s = WL - 8 width k, where lo = y, or in the half ring lo = 2B - y, which
    negates the slots that wrap (`_slot_width` keeps every slot below half),
    and zeta_L^k = -zeta_L^(k - N) for k >= N.  Width 0 is the majorant: an
    element is its l1 norm and a row (d, w, k) is (d, |w|, 0), or
    (d, -|w|, 0) in a divisor, so every value bounds the l1 norm, and so
    every slot, of the packed one at its place, and the largest bounds every
    slot that the packed passes rotate or unpack."""
    bits, N = 8 * width, L // 2 if L % 2 == 0 else L
    B, M, WL = (_slot_mask(width, N), (1 << bits * N) - 1, bits * N) if width else (0, -1, 0)
    T = 2 * B if N < L else 0  # lo = T - y in the half ring

    def elem(c: dict) -> int:
        if not width:
            return sum(map(abs, c.values()))
        v = [0] * N
        for k, w in c.items():
            v[k % N] += -w if k >= N else w
        return _pack(v, width)

    def passes(f, steps, top):
        for divisor, rows in steps:
            if width:
                rows = [(d, -w, WL - bits * (k - N)) if k >= N else (d, w, WL - bits * k)
                        for d, w, k in rows]
            else:
                top = max(top, *f)
                rows = [(d, -abs(w) if divisor else abs(w), 0) for d, w, _ in rows]
            f = (_divide if divisor else _times)(f, rows, B, T, M, WL)
        return f, top if width else max(top, *f)

    f, top = [0] * n, 0
    for i, c in start.items():
        f[i] = elem(c)
    for off, seed, part in terms:
        g, top = passes([elem(seed)] + [0] * (n - off - 1), part, top)
        f[off:] = map(add, f[off:], g)
    return passes(f, steps, top)


def _times(f, terms, B: int, T: int, M: int, WL: int):
    """f times sum w zeta_L^k q^d over the (d, w, s) of `terms`, sorted by d,
    s the shift of `_expand` for zeta_L^k, below len(f); each f_i is doubled
    once, and the B of every sum taken off once."""
    n = len(f)
    out, cor = [0] * n, [0] * n
    for i, x in enumerate(f):
        if x:
            y = x + B
            y = (T - y if T else y) | y << WL
            for d, w, s in terms:
                if i + d >= n:
                    break
                out[i + d] += w * ((y >> s) & M)
                cor[i + d] += w
    return [x - c * B for x, c in zip(out, cor)] if B else out


def _divide(f, rows, B: int, T: int, M: int, WL: int):
    """f / (1 + sum w zeta_L^k q^d) over the (d, w, s) of `rows`, sorted by
    d >= 1 and with w = +-1, below len(f): g_i = f_i - sum w zeta_L^k g_(i-d),
    with each g_i doubled once, when it is made."""
    g, doubled = [], []
    for i, acc in enumerate(f):
        c = 0
        for d, w, s in rows:
            if d > i:
                break
            if w > 0:
                acc -= (doubled[i - d] >> s) & M
            else:
                acc += (doubled[i - d] >> s) & M
            c += w
        acc += c * B
        g.append(acc)
        y = acc + B
        doubled.append((T - y if T else y) | y << WL)
    return g


@lru_cache(maxsize=None)
def theta_j(z: Monomial, base, order) -> QSeries:
    """j(z; q^p) truncated below `order`: the quotient with one numerator block."""
    return theta_quotient(((z, base),), (), order)


def theta_triple_product(z: Monomial, base, order) -> QSeries:
    """(z;q^p)_oo (q^p/z;q^p)_oo (q^p;q^p)_oo by direct product accumulation.

    Requires 0 <= exp(z) < p so every factor is 1 + O(q^positive) beyond
    finitely many; this covers the oracle's sampling domain.
    """
    p = _base_exp(base)
    order = Fraction(order)
    if not (0 <= z.q_exp < p):
        raise ValueError("product oracle needs 0 <= exp(z) < base exponent")
    out = QSeries.one(order)
    k = 0
    while z.q_exp + k * p < order:
        factor = QSeries.one(order) - QSeries.from_monomial(
            z * Monomial.q(k * p), order)
        out = out * factor
        k += 1
    k = 1
    zinv = z.inverse()
    while k * p - z.q_exp < order:
        factor = QSeries.one(order) - QSeries.from_monomial(
            zinv * Monomial.q(k * p), order)
        out = out * factor
        k += 1
    k = 1
    while k * p < order:
        factor = QSeries.one(order) - QSeries.from_monomial(Monomial.q(k * p), order)
        out = out * factor
        k += 1
    return out


def theta_shift_check(x: Monomial, n: int, base, order) -> IdentityReport:
    """Verify the two theta rewriting laws at one instance by expansion:
    j(q^n x; q) = (-1)^n q^{-C(n,2)} x^{-n} j(x; q) and
    j(x; q) = j(q/x; q) = -x j(1/x; q), all with q -> q^p.
    """
    p = _base_exp(base)
    order = Fraction(order)
    inst = {"x": x, "n": n, "base": Fraction(p)}
    shift_mono = Monomial.zeta(n, 2, -p * Fraction(binom2(n))) * x ** (-n)
    lhs1 = theta_j(x * Monomial.q(n * p), p, order)
    rhs1 = shifted(lambda o: theta_j(x, p, o), shift_mono, order)
    rep = compare_series("theta-base-shift", lhs1, rhs1, order, inst)
    if not rep.passed:
        return rep
    lhs2 = theta_j(x, p, order)
    rhs2a = theta_j(Monomial.q(p) / x, p, order)
    rep = compare_series("theta-base-shift", lhs2, rhs2a, order, inst)
    if not rep.passed:
        return rep
    rhs2b = -shifted(lambda o: theta_j(x.inverse(), p, o), x, order)
    return compare_series("theta-base-shift", lhs2, rhs2b, order, inst)
