"""Theta blocks j(z;q^p) for monomial arguments.

j(z;q) = (z;q)_oo (q/z;q)_oo (q;q)_oo = sum_{n in Z} (-1)^n q^C(n,2) z^n.

`theta_quotient` builds every theta expression of the package: shift *
start * eta quotient * prod blocks / prod theta blocks, where a block is
j(z;q^p) or, in a numerator only, the two-term factor 1 - u (its terms
n = 0 and 1), and the start is a sum of weighted nodes of the same form, so
a weighted sum of quotients is one call (m(x,q,z), Lambda and S_d(z;q) in
`qrank.appell`).  It plans on integers, in steps of one q^(1/G), and runs
in the half ring of `qrank.cyclotomic`, one packed integer per coefficient,
with a sparse pass per block and one batched reduction mod Phi_L at the
end.  The start of m(x,q,z) is one node (`MFamily`), not a node per term:
its term (r, t), at an offset quadratic and a step linear in r, is one
rotation of the family's packed seed, added straight in.  Its slots are as
wide as a first pass on l1 norms proves enough, where each divisor is its
product majorant prod 1/(1 - q^|e|) over its binomial exponents e, sound
for a tie j(c q^(mp);q^p) because the N/(1 - c) taken out of it is
centred, with sum_{j<N} c^j kappa = 0 (`_Quotient.prepare`).  A single
block j(z;q^p) is `theta_j`, the quotient with one numerator block.

The terms of each block are listed by `bilateral`, the routine that also
walks the other two-sided sums of the package (the terms of m(x,q,z), the
Lerch sums behind O_d(z;q)); it stops each direction by a convexity rule
that holds for any monomial z, including ones with negative or fractional
q-exponent.  The triple product is an independent oracle for tests and for
the catalog's two-route entry, built in Z[C_L] with no code of the packed
engine or of `QSeries.__mul__`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .cyclotomic import _slot_mask, _slot_width, get_field
from .errors import NonGenericParameter
from .series import Monomial, QSeries, _frac, eta_quotient


def _base_exp(base) -> Fraction:
    """The exponent p of a theta base q^p, given as p (an int or a Fraction)
    or as the Monomial q^p."""
    if type(base) is Fraction:
        p = base
    elif isinstance(base, Monomial):
        if not base.coeff_is_one:
            raise ValueError("theta base must be a pure power of q")
        p = base.q_exp
    elif isinstance(base, (int, Fraction)):
        p = Fraction(base)
    else:
        raise TypeError("theta base must be an int, a Fraction or a power of q, not %r" % (base,))
    if p.numerator <= 0:
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

    Base None is the two-term numerator 1 - z, the terms n = 0 and 1 with
    P = 0: its valuation is min(0, E), and it vanishes when z = 1."""
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

    `num` and `den` hold blocks (z, p) for j(z;q^p); `num` may also hold
    blocks of base None, the two-term factor 1 - z (the terms n = 0 and 1
    of a theta block with p = 0), which in any `den` raise ValueError.
    `start` is None (the constant 1) or a sequence of nodes, whose sum it
    is (0 when empty); a node (num, den, shift[, weight[, eta[, start]]])
    is weight, an int or a Fraction, times a quotient of this same form, so
    blocks that terms share sit in the node above them.

    Each node's expansion is its passes applied to the sum of its start's
    expansions, each added in at its offset, all packed in the half ring of
    the call's one field (`_expand`): a numerator block or an eta quotient
    is a sparse shift-and-add pass, a divisor a sparse recurrence once its
    lowest term is taken out (`_Quotient.prepare`); a first pass on l1
    norms, each divisor its product majorant, sizes the slots.  All
    coefficients are reduced mod Phi_L once, together
    (`CyclotomicField.reduce_all`).  The plan is made on integers, in
    steps of one q^(1/G), from each block's valuation (`_block`), so the
    result is exact below `order` the first time.  A divisor that vanishes
    identically, in any node, raises NonGenericParameter.
    """
    order = _frac(order)
    root = _Quotient(num, den, Monomial.one() if shift is None else shift, 1, eta, start)
    # every exponent from here on is an integer, in steps of q^(1/G)
    G = math.lcm(order.denominator, root.grid)
    reach = [order.numerator * (G // order.denominator)]
    root.bound(G, reach[0], reach)
    # every block is listed below one bound: the order, or the furthest any
    # block reaches where its node is needed, if that is more
    top = max(reach)
    D = math.lcm(order.denominator, root.plan(top, max(top, root.need) - root.s0))
    L, field = root.L, get_field(root.L)
    prec, n = reach[0] * D // G, max(root.need - root.s0, 0) * D // G
    if n <= 0:
        return QSeries(field, D, 0, (), prec, _normalized=True)
    tree = [(0, *root.prepare(n, D, G, L, {0: 1}))]
    bound = _expand(tree, n, L, 0)[1]
    width = _slot_width(bound)
    f = _expand(tree, n, L, width)[0]
    nz = [i for i, x in enumerate(f) if x]
    coeffs = [field.zero] * n
    for i, v in zip(nz, field.reduce_all([f[i] for i in nz], field.N, width, bound)):
        coeffs[i] = field.normalize(root.total, v)
    return QSeries(field, D, (root.s0 + root.val) * D // G, tuple(coeffs), prec)


class _Quotient:
    """A node of `theta_quotient`, weight * shift * eta quotient * blocks *
    its start (1, or the sum of its `parts`), its blocks (z, s, p s,
    exp(z) s, valuation s, is a divisor) on a grid q^(1/s) (`_block`); L
    and `grid` cover its parts, and `div` is the product of its ties' N."""

    def __init__(self, num, den, shift: Monomial, weight=1, eta: dict | None = None,
                 start=None):
        self.shift, self.weight, self.eta = shift, weight, eta
        self.parts = None if start is None else [
            t if type(t) is MFamily else _Quotient(*t) for t in start]
        self.L, self.grid, self.div, self.blocks = shift.zeta_den, shift.q_exp.denominator, 1, []
        for divisor, blocks in ((False, num), (True, den)):
            for z, p in blocks:
                if divisor and p is None:
                    raise ValueError("divisor 1 - %s is not a theta block j(z;q^p)" % z)
                s, P, E, v, vanishes = _block(z, p)
                if divisor and vanishes:
                    raise NonGenericParameter("theta divisor j(%s; q^%s) vanishes"
                                              % (z, Fraction(P, s)))
                if divisor and not E % P:
                    self.div *= z.zeta_den
                self.L, self.grid = math.lcm(self.L, z.zeta_den), math.lcm(self.grid, s)
                self.blocks.append((z, s, P, E, v, divisor))
        for t in self.parts or ():
            self.L, self.grid = math.lcm(self.L, t.L), math.lcm(self.grid, t.grid)

    def bound(self, G: int, order: int, reach: list) -> None:
        """On the grid q^(1/G): `val`, the valuation without the start, and
        `need`, below which the start is needed for the node below `order`;
        `s0`, the least val + s0 of the `used` parts (those below need; 0 for
        the start 1); `total`, the divisor; and in `reach`, how far to list."""
        self.blocks = [(z, G, P * (G // s), E * (G // s), v * (G // s), divisor)
                       for z, s, P, E, v, divisor in self.blocks]
        e = self.shift.q_exp
        self.val = e.numerator * (G // e.denominator) + sum(
            -v if divisor else v for *_, v, divisor in self.blocks)
        need = self.need = order - self.val
        self.s0, self.used = 0, []
        if self.parts is not None:
            for t in self.parts:
                t.bound(G, need, reach)
            self.used = [t for t in self.parts if t.val + t.s0 < need]
            self.s0 = min([t.val + t.s0 for t in self.used], default=need)
            reach.append(need)
        self.total = self.div * self.weight.denominator * math.lcm(*(t.total for t in self.used))
        if self.eta:
            reach.append(need - self.s0)
        reach += [v + need - self.s0 for *_, v, _ in self.blocks]

    def plan(self, top: int, ahead: int) -> int:
        """List each block's terms (offset, n), the term (-1)^n z^n q^(p C(n,2))
        at q^(offset/G) above its valuation: a theta block's below q^(top/G),
        and a numerator 1 - z's below q^(ahead/G), ahead at least the length
        of the expansion (a part's: max(top, need) above its lowest exponent).
        Return the lcm of the denominators of their exponents, the shifts
        and the eta quotients' steps."""
        den, self.terms = self.shift.q_exp.denominator, []
        for _, s, P, E, v, _ in self.blocks:
            if P:
                block = list(bilateral(lambda n: P * binom2(n) + n * E, top))
            else:
                block = [(n, n * E) for n in (0, 1) if n * E - v < ahead]
            den = math.lcm(den, s // math.gcd(s, *(low for _, low in block)))
            self.terms.append([(low - v, n) for n, low in block])
        if self.eta:
            den = math.lcm(den, *(m.denominator for m, e in self.eta.items() if e))
        for t in self.parts or ():
            den = math.lcm(den, t.plan(top, max(top, self.need) - t.val - t.s0))
        return den

    def prepare(self, n: int, D: int, G: int, L: int, mult: dict):
        """The node below n steps of q^(1/D), times mult, as (seed, steps)
        for `_expand`: the passes of its eta quotient and blocks, and its
        constant or its used parts, on the divisor `total`.  A step is
        (major, rows), major None for a product and a divisor's majorant rows
        for a divisor.  Every divisor is a theta block, and its lowest term
        is taken out, into sign zeta_L^rot q^val; a tie j(c q^(m p);q^p) =
        (-1)^m q^(-p C(m,2)) c^(-m) (1 - c) P(q^p) divides by P
        (`_tie_rows`), and N/(1 - c) goes into kappa, N into div: true after
        the reduction mod Phi_L, a ring map that comes last.

        Without its lowest term, j(z;q^p) is the product of the 1 - root q^e
        over its binomial exponents E + kP (k >= 0), kP - E and kP (k >= 1),
        each taken as an absolute value, every root a power of zeta_L (a tie
        takes kP three times).  1/(1 - root q^e) has coefficients of l1 norm
        1 and the l1 norm is submultiplicative, so the norms of f/divisor
        are at most the norms of f times prod 1/(1 - q^e).  By the triple
        product, prod (1 - q^e) is the divisor's own rows with every root
        set to 1, or (q^p;q^p)^3 for a tie: those rows are `major`.

        A tie's rows drop whole cycles of c, so they are P only modulo
        S = sum_{j<N} c^j.  So kappa is centred, S kappa = 0: it is
        sum_j ((N-1)/2 - j) c^j for odd N, and for even N that sum folded by
        c^(N/2) = -1 in the half ring, (N/2) sum_{j<N/2} c^j, where S = 0
        already.  Both times (1 - c) kappa = N - S, so kappa = N/(1 - c) mod
        Phi_L.  Every value of the node is a multiple of kappa, through its
        seed or its parts' mult, so S kills it; and S v = 0 gives S g = 0 for
        g = v/rows, as S g rows = S v, so g P = g rows = v: each pass is v/P,
        and the majorant bounds it."""
        sign, rot, kappa, steps = 1, self.shift.zeta_num * (L // self.shift.zeta_den), None, []
        if self.eta:
            e = eta_quotient(self.eta, Fraction(n, D))
            steps.append((None, [((e.val + i) * (D // e.den), c[1][0], 0)
                                  for i, c in enumerate(e.coeffs) if c[1][0]]))
        for (z, s, P, E, _, divisor), block in zip(self.blocks, self.terms):
            k, i0 = z.zeta_num * (L // z.zeta_den), 0
            if divisor and not E % P:
                m, N = E // P, z.zeta_den
                sign *= -1 if m % 2 else 1
                rot += m * k
                inv = _centred_inverse(k, N, L)
                kappa = inv if kappa is None else _ring_mul(kappa, inv, L)
                rows, major = _tie_rows(k, N, P, s, n, D, L)
            else:
                if divisor:
                    i0 = min(block)[1]
                    sign *= -1 if i0 % 2 else 1
                    rot -= i0 * k
                rows = sorted((off * D // s, -1 if (i - i0) % 2 else 1, (i - i0) * k % L)
                              for off, i in block if not divisor or i != i0)
                major = [(d, w) for d, w, _ in rows] if divisor else None  # every root 1
            if rows or not divisor:  # a divisor with no rows below n is 1
                steps.append((major, rows))
        k = {(r + rot) % L: w * sign * self.weight.numerator for r, w in mult.items()}
        if kappa is not None:
            k = _ring_mul(k, kappa, L)
        if self.parts is None:
            return k, steps
        below, terms = self.total // (self.div * self.weight.denominator), []
        for t in self.used:
            off = (t.val + t.s0 - self.s0) * D // G
            terms.append((off, *t.prepare(n - off, D, G, L,
                                          {r: w * (below // t.total) for r, w in k.items()})))
        return terms, steps


class MFamily:
    """shift * weight * sum_r (-1)^r q^(p C(r,2)) z^r / (1 - q^(p(r-1)) y)
    over r in rs, weight an int: the start of m(y/z, q^p, z) over j(z;q^p)
    as one node of `theta_quotient`, each term r only the exponents s/g of
    its shift and e/g of u = q^(p(r-1)) y, on the grid q^(1/g).  It sits
    below j(z;q^p), so L covers shift, y and z, whatever the z^r; L and
    grid are 1 for an empty rs."""

    def __init__(self, y: Monomial, p: Fraction, z: Monomial, rs, shift: Monomial, weight=1):
        self.y, self.z, self.shift, self.weight, exps = y, z, shift, weight, (
            p, z.q_exp, y.q_exp, shift.q_exp)
        g = self.g = math.lcm(*(e.denominator for e in exps))
        P, Ez, Ey, ES = (int(e * g) for e in exps)
        self.raw = [(r, ES + P * binom2(r) + r * Ez, P * (r - 1) + Ey) for r in rs]
        self.L, self.grid = (math.lcm(shift.zeta_den, z.zeta_den, y.zeta_den), g) if rs else (1, 1)

    def bound(self, G: int, order: int, reach: list) -> None:
        """`_Quotient.bound` of each term r as (r, val, s, e) on the grid
        q^(1/G), val = s + max(0, -e) past the flip of a negative step: the
        family's val is the least, its total N if it uses the tie e = 0."""
        c, self.G = G // self.g, G
        self.terms = [(r, c * (s - min(0, e)), c * s, c * e) for r, s, e in self.raw]
        reach += [order - val + min(0, e) for _, val, _, e in self.terms]
        self.used = [t for t in self.terms if t[1] < order]
        self.val, self.s0 = min([t[1] for t in self.terms], default=order), 0
        self.total = self.y.zeta_den if any(not t[3] for t in self.used) else 1

    def plan(self, top: int, ahead: int) -> int:
        """`_Quotient.plan` of each term: the denominators of its shift and,
        where 1 - u lists it below the term's own ahead, of its step."""
        G, den = self.G, 1
        for r, val, s, e in self.terms:
            a = ahead + self.val - val
            den = math.lcm(den, G // math.gcd(G, s),
                           G // math.gcd(G, e) if 0 < e < a or e < 0 < a else 1)
        return den

    def prepare(self, n: int, D: int, G: int, L: int, mult: dict):
        """The family times mult for `_expand`, a tuple of (seed, walks), a
        walk (o, d, k, dk, sign) the terms sign zeta_L^(k + t dk) seed at
        o + t d, t >= 0.  Term (r, t) is (-1)^r zeta_L^(kS + r kz + t ky) at
        val + t e, or past the flip 1/(1 - u) = -u^(-1)/(1 - u^(-1)) of an
        e < 0, -(-1)^r zeta_L^(kS + r kz - (t + 1) ky) at val + t |e|; a
        step d past the end leaves the first alone.  The tie is one term,
        its seed times kappa (`_Quotient.prepare`)."""
        kS, kz, ky = (m.zeta_num * (L // m.zeta_den) for m in (self.shift, self.z, self.y))
        walks, seeds = [], []
        for r, val, s, e in self.used:
            o, k, sign = (val - self.val) * D // G, kS + r * kz, -1 if r % 2 else 1
            if not e:
                c = {(i + k) % L: w * sign * self.weight for i, w in mult.items()}
                seeds.append((_ring_mul(c, _centred_inverse(ky, self.y.zeta_den, L), L),
                              [(o, n, 0, 0, 1)]))
            else:
                walks.append((o, abs(e) * D // G or n, (k - (e < 0) * ky) % L,
                              (ky if e > 0 else -ky) % L, sign if e > 0 else -sign))
        c = {i: w * self.total * self.weight for i, w in mult.items()}
        return tuple(([(c, walks)] if walks else []) + seeds), []


def _centred_inverse(k_c: int, N: int, L: int) -> dict:
    """N/(1 - c) mod Phi_L for c = zeta_L^k_c of order N > 1, as {rotation:
    weight}, centred: sum_j ((N-1)/2 - j) c^j for odd N, and for even N
    that sum folded by c^(N/2) = -1, (N/2) sum_{j<N/2} c^j.  In the half
    ring sum_{j<N} c^j times it is 0 (`_Quotient.prepare`)."""
    if N % 2:
        return {j * k_c % L: N // 2 - j for j in range(N)}
    return {j * k_c % L: N // 2 for j in range(N // 2)}


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
    of order N > 1 and p = ps/s, as (offset, sign, rotation), where
    P = sum_{r>=1} (-1)^(r+1) q^(p C(r,2)) sum_{|j|<r} c^j has lowest
    coefficient 1.  Whole cycles of N powers sum to 0 and drop, and a
    remainder of more than N/2 powers becomes minus the rest of its cycle.
    Also, as (offset, weight), the majorant rows, P - 1 at c = 1: by
    Jacobi, (q^p;q^p)^3 = sum_{r>=1} (-1)^(r+1) (2r - 1) q^(p C(r,2))."""
    rows, major, r, end = [], [], 2, n * s
    while ps * binom2(r) * D < end:
        off, sign = ps * binom2(r) * D // s, 1 if r % 2 else -1
        major.append((off, sign * (2 * r - 1)))
        lo, cnt = 1 - r, (2 * r - 1) % N
        if 2 * cnt > N:
            lo, cnt, sign = lo + cnt, N - cnt, -sign
        rows += [(off, sign, (lo + j) * k_c % L) for j in range(cnt)]
        r += 1
    return rows, major


def _expand(terms, n: int, L: int, width: int):
    """The coefficients below n of the sum of the (offset, seed, steps)
    `terms`, and the largest value of any stage.  A term is its seed, a
    constant {rotation: weight} or a list of terms summed, times its
    (major, rows) steps, major None for a product and a divisor's majorant
    rows (d, w) for a divisor, or an m family's (seeds, walks)
    (`MFamily.prepare`), added straight in: each of its terms one rotation
    of its seed, packed and doubled once, with no list or pass of its own.

    A coefficient is one integer whose slot i < N, `width` bytes wide, holds
    its integer at zeta_L^i (`_pack`), N = L for odd L and N = L/2 in the
    half ring Z[x]/(x^N + 1) for even L.  With B the slots' top bits, for
    k < N x zeta_L^k is (((lo | y << WL) >> s) & M) - B, y = x + B,
    WL = 8 width N, s = WL - 8 width k, lo = y, or 2B - y in the half ring
    to negate the slots that wrap; zeta_L^k = -zeta_L^(k - N) for k >= N.
    Width 0 is the majorant: an element is its l1 norm, a product's row
    (d, w, k) is (d, |w|, 0), and a divisor divides by its majorant rows
    (`_Quotient.prepare`), so every value bounds every slot of the packed
    one at its place; a family's values are rotations of its seeds, so it
    adds a seed's norm at each of its terms and raises the largest value to
    it."""
    bits, N = 8 * width, L // 2 if L % 2 == 0 else L
    B, M, WL = (_slot_mask(width, N), (1 << bits * N) - 1, bits * N) if width else (0, -1, 0)
    T = 2 * B if N < L else 0  # lo = T - y in the half ring
    top = 0

    def elem(c: dict) -> int:
        if not width:
            return sum(map(abs, c.values()))
        # sum_k w zeta_L^k packed: only the slots of c can be non-zero
        return sum(w << bits * k if k < N else -w << bits * (k - N) for k, w in c.items())

    def passes(f, steps):
        nonlocal top
        for major, rows in steps:
            if width:
                rows = [(d, -w, WL - bits * (k - N)) if k >= N else (d, w, WL - bits * k)
                        for d, w, k in rows]
                f = (_times if major is None else _divide)(f, rows, B, T, M, WL)
            else:
                top = max(top, *f)
                f = (_times(f, [(d, abs(w), 0) for d, w, _ in rows], 0, 0, -1, 0)
                     if major is None else _divide_norms(f, major))
        if not width:
            top = max(top, *f)
        return f

    def add_terms(n, terms):
        nonlocal top
        f = None
        for off, seed, part in terms:
            if type(seed) is tuple:  # an m family (`MFamily.prepare`)
                f = f or [0] * n
                for c, walks in seed:
                    x = elem(c)
                    if width:  # doubled once, each term one shift and mask
                        y = x + B
                        x = (T - y if T else y) | y << WL
                    top = top if width else max(top, x)
                    for o, d, k, dk, sign in walks:
                        for i in range(off + o, n, d):  # zeta_L^k = -zeta_L^(k - N), k >= N
                            v = (x >> WL - bits * (k % N)) & M
                            f[i] += v - B if not width or (sign > 0) == (k < N) else B - v
                            k = (k + dk) % L
                continue
            g = passes([elem(seed)] + [0] * (n - off - 1) if isinstance(seed, dict)
                       else add_terms(n - off, seed), part)
            if f is None and not off:
                f = g
            else:
                f = f or [0] * n
                f[off:] = map(add, f[off:], g)
        return f or [0] * n

    return passes(add_terms(n, terms), ()), top


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


def _divide_norms(f, rows):
    """f / (1 + sum w q^d) over the (d, w) of `rows`, sorted by d >= 1, on
    plain integers: g_i = f_i - sum w g_(i-d)."""
    g = []
    for i, acc in enumerate(f):
        for d, w in rows:
            if d > i:
                break
            acc -= w * g[i - d]
        g.append(acc)
    return g


def _divide(f, rows, B: int, T: int, M: int, WL: int):
    """f / (1 + sum w zeta_L^k q^d) over the (d, w, s) of `rows`, at least
    one, sorted by d >= 1 and with w = +-1, below len(f):
    g_i = f_i - sum w zeta_L^k g_(i-d), with each g_i doubled once, when it
    is made."""
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
    """(z;q^p)_oo (q^p/z;q^p)_oo (q^p;q^p)_oo by direct product of its
    binomials below `order` in Z[C_L], a coefficient a list of L integers:
    each factor 1 - zeta_L^a q^e is applied in place from the top index
    down, acc_i -= zeta_L^a acc_(i-e) by a list slice, and each coefficient
    is reduced mod Phi_L once.  Field and denominator are the lcm over the
    factors below `order`.

    Requires 0 <= exp(z) < p so every factor is 1 + O(q^positive) beyond
    finitely many; this covers the oracle's sampling domain.
    """
    p = _base_exp(base)
    order = Fraction(order)
    if not (0 <= z.q_exp < p):
        raise ValueError("product oracle needs 0 <= exp(z) < base exponent")
    # the factors 1 - z q^(kp) (k >= 0), 1 - q^(kp)/z and 1 - q^(kp) (k >= 1)
    factors = []
    for x, k in ((z, 0), (z.inverse(), 1), (Monomial.one(), 1)):
        while x.q_exp + k * p < order:
            factors.append((x, x.q_exp + k * p))
            k += 1
    L = math.lcm(1, *(x.zeta_den for x, _ in factors))
    den = math.lcm(order.denominator, *(e.denominator for _, e in factors))
    field, n = get_field(L), order.numerator * (den // order.denominator)
    # no coefficient below an order n <= 0; the slots not yet written share
    # one zero list, which `reduce_vec` (in place) must not be given
    zero = [0] * L
    acc, hi = [[1] + zero[1:]][:n] + [zero] * (n - 1), 1  # acc_i = 0 for i >= hi
    for x, e in factors:
        a, e = x.zeta_num * (L // x.zeta_den), e.numerator * (den // e.denominator)
        for i in range(min(n, hi + e) - 1, e - 1, -1):
            v = acc[i - e]
            acc[i] = list(map(sub, acc[i], v[-a:] + v[:-a]))
        hi = min(n, hi + e)
    coeffs = [field.normalize(1, field.reduce_vec(v)) if any(v) else field.zero for v in acc]
    return QSeries(field, den, 0, coeffs, n)
