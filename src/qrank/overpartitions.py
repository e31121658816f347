"""Overpartition combinatorics and rank deviations.

Ground truth comes from three independent routes that the test suite plays
against each other: direct enumeration (d = 1, 2), rank tables read off the
double-divisor form of the rank generating function expanded as an integer
series in z and q (any d), and the Appell-Lerch formulas for deviation pairs
and single deviations.  The catalog entries `rank-series-two-forms` and
`rank-enumeration-d1/d2` tie the double-divisor form to the single-sum form
and the single-sum form to enumeration.

Enumeration is one iterative depth-first walk over the plain partitions of
every n <= max_n at once.  It keeps each partition's statistics as it
appends parts, groups the partitions by them and counts the overlinings of
each group in closed form (see `enumeration_rank_counts`), so it never
builds the overpartitions themselves.  The counts are cached per
(d, max_n).  `Overpartition` with `rank()` and `m2_rank()`, fed by
`enumerate_overpartitions` and its recursive `_partitions`, is the object
route the tests hold those counts to.

The formula route builds each pair as one `linear_sum` of its terms:

    D_d(a, M) + D_d(a-1, M) = chi + T(a, z') - T(a-1, z'') + tail(a),

with chi = [a = M] for odd d and [a = 1] for even d.  One table of m and
Psi terms (`_residue_piece`) gives T for all three cases; odd d with even M
takes a single piece at modulus M/2 and no T(a-1, z'').  The tail terms are
the theta part of the bracket of `s_bar_d` at z = zeta_M^j and z' = -1
(`appell.bracket_tail`), weighted by (2/M) zeta_M^{-aj} (1 - zeta_M^j); odd
under z <-> 1/z and zero at z = -1, it is built only for 1 <= j < M/2.
A single deviation takes one route for every M: the root-of-unity average
of O_d(zeta_M^k;q), folded onto 1 <= k < M/2 by O_d(1/z;q) = O_d(z;q), each
term the Appell-Lerch bracket `appell.s_bar_bracket` at z = zeta_M^k times
(1 - z)/(1 + z), plus for even M the k = M/2 term O_d(-1;q) from the
double-divisor form.

A rank table is one integer row N_d(-n..n, n) per n, and a deviation by
definition one integer over M per coefficient.  Deviations have integer
exponents: at a fractional order every route builds to the next integer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .appell import appell_m, bracket_tail, o_d_at_minus_one, o_d_direct, psi, s_bar_bracket
from .cyclotomic import get_field, inverse_one_plus, root_of_unity
from .errors import NonGenericParameter, UnsupportedCase
from .series import PBAR_ETA, Monomial, QSeries, eta_quotient, linear_sum, shifted

F = Fraction


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Overpartition:
    """Parts in weakly decreasing order; within equal values the overlined
    copy (at most one per distinct value) comes first."""

    parts: tuple[tuple[int, bool], ...]

    @property
    def weight(self) -> int:
        return sum(v for v, _ in self.parts)

    def rank(self) -> int:
        """Largest part minus number of parts; 0 for the empty overpartition."""
        if not self.parts:
            return 0
        return self.parts[0][0] - len(self.parts)

    def m2_rank(self) -> int:
        """ceil(l/2) - #parts + #(odd non-overlined parts) - chi(largest part
        is odd and non-overlined); 0 for the empty overpartition."""
        if not self.parts:
            return 0
        largest = self.parts[0][0]
        odd_plain = sum(1 for v, ov in self.parts if v % 2 and not ov)
        largest_overlined = any(v == largest and ov for v, ov in self.parts)
        chi = 1 if (largest % 2 and not largest_overlined) else 0
        return -(-largest // 2) - len(self.parts) + odd_plain - chi

    def __str__(self):
        return "+".join(("%d~" % v if ov else str(v)) for v, ov in self.parts) or "0"


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_overpartitions(n: int) -> list[Overpartition]:
    """All overpartitions of n, each exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for plain in _partitions(n, n):
        distinct = sorted(set(plain), reverse=True)
        for mask in range(1 << len(distinct)):
            overlined = {distinct[i] for i in range(len(distinct)) if mask >> i & 1}
            parts = []
            for v in plain:
                if v in overlined:
                    parts.append((v, True))
                    overlined.discard(v)
                else:
                    parts.append((v, False))
            out.append(Overpartition(tuple(parts)))
    return out


def p_bar_series(order) -> QSeries:
    """Generating function of overpartition counts, J_2 / J_1^2."""
    return eta_quotient(PBAR_ETA, order)


@lru_cache(maxsize=None)
def p_bar(n: int) -> int:
    return int(p_bar_series(n + 1).coeff(n).as_fraction())


def enumeration_rank_counts(d: int, max_n: int) -> dict[tuple[int, int], int]:
    """Counts of overpartitions of n by rank (d=1) or M2-rank (d=2), as a
    fresh dict {(statistic, n): count} for 0 <= n <= max_n ({} if max_n < 0).

    One depth-first walk visits every nonempty partition of every n <= max_n
    and groups them by the statistics below; the 2^k overlinings of a
    partition with k distinct values are then counted in closed form.
    Overlining never moves the rank, so a partition adds 2^k at
    largest - #parts.  For a set S of overlined values the M2-rank is

        ceil(l/2) - #parts + #odd parts - [l odd] - |S & odd values other than l|

    with l the largest part, so S lowers it by j in 2^(#even values)
    (2 if l is odd else 1) C(#odd values other than l, j) ways.  The walk
    is built once per (d, max_n) and kept in a module-level cache.  The test
    suite checks the counts against `enumerate_overpartitions` with `rank()`
    and `m2_rank()`.
    """
    if d not in (1, 2):
        raise ValueError("enumeration covers the rank (d=1) and M2-rank (d=2)")
    return dict(_walk_rank_counts(d, max_n))


@lru_cache(maxsize=None)
def _walk_rank_counts(d: int, max_n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The items of `enumeration_rank_counts(d, max_n)`, as an immutable tuple."""
    if max_n < 0:
        return ()
    groups: dict[tuple[int, int, int, int], int] = {}
    # a node is a partition with parts in weakly decreasing order:
    # (n, last part, largest, #parts, #distinct values, #odd parts, #odd distinct values)
    stack = [(v, v, v, 1, 1, v & 1, v & 1) for v in range(1, max_n + 1)]
    pop, push = stack.pop, stack.append
    while stack:
        n, last, largest, parts, values, odd_parts, odd_values = pop()
        if d == 1:
            key = (largest - parts, n, values, 0)
        else:  # an odd largest part adds -[l odd] and overlines freely
            odd_largest = largest & 1
            key = (-(-largest // 2) - parts + odd_parts - odd_largest, n,
                   values - odd_values + odd_largest, odd_values - odd_largest)
        groups[key] = groups.get(key, 0) + 1
        room = max_n - n  # the largest part a child may append
        if last <= room:  # repeat the last value
            push((n + last, last, largest, parts + 1, values, odd_parts + (last & 1), odd_values))
        for v in range(min(last - 1, room), 0, -1):  # a new, smaller value
            odd = v & 1
            push((n + v, v, largest, parts + 1, values + 1, odd_parts + odd, odd_values + odd))
    # (m, n, free, others): the statistic is m - j in C(others, j) 2^free ways
    counts = {(0, 0): 1}
    for (m, n, free, others), c in groups.items():
        for j in range(others + 1):
            key = (m - j, n)
            counts[key] = counts.get(key, 0) + (c * math.comb(others, j) << free)
    return tuple(counts.items())


# ---------------------------------------------------------------------------
# rank tables from the double-divisor form over the integers
# ---------------------------------------------------------------------------


@dataclass
class RankTables:
    """N_d(m, n) for 0 <= n <= max_n and all m: rows[n][m + n] for
    -n <= m <= n, and 0 for every other m.  Those with m = a mod M are the
    slice rows[n][(a + n) % M::M]."""

    d: int
    max_n: int
    rows: list[list[int]]

    def _row(self, n: int) -> list[int]:
        if n > self.max_n:
            raise ValueError("table only covers n <= %d" % self.max_n)
        return self.rows[n] if n >= 0 else []

    def count(self, m: int, n: int) -> int:
        row = self._row(n)
        return row[m + n] if -n <= m <= n else 0

    def residue_count(self, a: int, M: int, n: int) -> int:
        """Number of overpartitions of n with statistic congruent to a mod M."""
        return sum(self._row(n)[(a + n) % M::M])

    def column_sum(self, n: int) -> int:
        return sum(self._row(n))

    def write_csv(self, fh) -> None:
        fh.write("d,m,n,count\n")
        for n, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    fh.write("%d,%d,%d,%d\n" % (self.d, j - n, n, c))


_TABLE_CACHE: dict[int, RankTables] = {}


def rank_tables(d: int, max_n: int) -> RankTables:
    if d < 1:
        raise ValueError("d must be a positive integer")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    cached = _TABLE_CACHE.get(d)
    if cached is not None and cached.max_n >= max_n:
        return cached
    built = _build_rank_tables(d, max_n)
    _TABLE_CACHE[d] = built
    return built


def _build_rank_tables(d: int, max_n: int) -> RankTables:
    """Expand the double-divisor form of O_d(z;q) over the integers:

        (J_2/J_1^2) (1 + 2 sum_{j>=1} (-1)^j q^{j^2+dj} (2 - z - 1/z)
                                        sum_{a,b>=0} z^{a-b} q^{dj(a+b)}).

    The bracket is an integer array indexed by (q-exponent, z-exponent); its
    product with the overpartition counts gives N_d(m, n) directly.  No
    Appell-Lerch series enters.  The catalog entries `rank-series-two-forms`
    and `rank-enumeration-d1/d2` tie this form to the single-sum form and to
    enumeration.
    """
    # bracket[n][max_n + m] is the coefficient of z^m q^n
    bracket = [[0] * (2 * max_n + 1) for _ in range(max_n + 1)]
    bracket[0][max_n] = 1
    j = 1
    while j * j + d * j <= max_n:
        coeff = 2 if j % 2 == 0 else -2  # 2 (-1)^j
        n = j * j + d * j
        s = 0  # s = a + b, so a - b runs over -s, -s+2, ..., s
        while n <= max_n:
            row = bracket[n]
            for k in range(max_n - s, max_n + s + 1, 2):
                row[k] += 2 * coeff
                row[k - 1] -= coeff
                row[k + 1] -= coeff
            n += d * j
            s += 1
        j += 1
    p_bar_n = p_bar_series(max_n + 1)
    p_bar_coeffs = [int(p_bar_n.coeff(k).as_fraction()) for k in range(max_n + 1)]
    rows = []  # N_d(m, n) = sum_k p_bar(k) bracket[n - k][m], one column per m
    for n in range(max_n + 1):
        cols = zip(*(bracket[n - k][max_n - n:max_n + n + 1] for k in range(n + 1)))
        rows.append([sum(map(operator.mul, p_bar_coeffs, col)) for col in cols])
    if min(map(min, rows)) < 0:
        raise ArithmeticError("a count N_%d(m,n) with n <= %d is negative" % (d, max_n))
    return RankTables(d, max_n, rows)


# ---------------------------------------------------------------------------
# deviations: definition route
# ---------------------------------------------------------------------------


def deviation_by_definition(d: int, a: int, M: int, order) -> QSeries:
    """Sum over n of (N_d(a, M, n) - p(n)/M) q^n with exact rational
    coefficients, straight from the rank tables."""
    if M < 1:
        raise ValueError("the modulus M must be positive, got %d" % M)
    order = F(order)
    max_n = math.ceil(order) - 1
    if max_n < 0:  # no coefficient below the order
        return QSeries.zero(order)
    field = get_field(1)
    coeffs = [field.normalize(M, [M * sum(row[(a + n) % M::M]) - sum(row)])
              for n, row in zip(range(max_n + 1), rank_tables(d, max_n).rows)]
    return QSeries(field, 1, 0, tuple(coeffs), max_n + 1).truncate(order)


def pair_by_definition(d: int, a: int, M: int, order) -> QSeries:
    return deviation_by_definition(d, a, M, order) + \
        deviation_by_definition(d, a - 1, M, order)


def deviation_by_root_average(d: int, a: int, M: int, order) -> QSeries:
    """(1/M) sum_{k=1}^{M-1} O_d(zeta_M^k; q) zeta_M^{-ka}, the root-of-unity
    average that recovers a single deviation for every M."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if M < 1:
        raise ValueError("the modulus M must be positive, got %d" % M)
    return linear_sum(((root_of_unity(-k * a, M) * F(1, M),
                        o_d_at_minus_one(d, order) if 2 * k == M
                        else o_d_direct(d, Monomial.zeta(k, M), order)) for k in range(1, M)),
                      order)


# ---------------------------------------------------------------------------
# deviations: Appell-Lerch formula route
# ---------------------------------------------------------------------------


def default_generics(M: int, d: int) -> tuple[Monomial, Monomial, Monomial]:
    """Generic parameters zeta_P, zeta_P^2, zeta_P^3 with P coprime to every
    root order the instantiated formulas touch."""
    relevant = 2 * M * d
    for P in (7, 11, 13):
        if relevant % P:
            return (Monomial.zeta(1, P), Monomial.zeta(2, P), Monomial.zeta(3, P))
    raise NonGenericParameter("no default generic parameter available")


def _residue_piece(d: int, b: int, M: int, zp: Monomial, order) -> list:
    """T(b, z') as (weight, series) terms, its m and its Psi, of residue b in
    D_d(a, M) + D_d(a-1, M) = chi + T(a, z') - T(a-1, z'') + tail(a).  Odd d
    with even M (so even b) has the m of even d and, for its Psi, the
    root-averaging identity at modulus M/2, k = b/2 - 1, x = q^{-d^2}."""
    dd = d * d
    minus_one = Monomial.minus_one()
    if d % 2 and M % 2:
        k = -b * ((M + 1) // 2) % M  # k = -b/2 mod M
        x_m = Monomial.q(dd * M * (M - 2 * k))
        base, head = 2 * dd * M * M, Monomial.zeta(k + 1, 2, -dd * k * k)
        psi_term = (-2, psi(k, M, Monomial.q(dd), minus_one, zp, 2 * dd, order))
    else:
        x_m = Monomial.zeta(1 + (d * M) // 2, 2, F(dd * (M * M - 2 * M * b), 4))
        base, head = F(dd * M * M, 2), Monomial.zeta((d * b) // 2, 2, -F(dd * b * b, 4))
        if d % 2:
            psi_term = (-2, shifted(lambda o: psi(b // 2 - 1, M // 2, Monomial.q(-dd), minus_one,
                                                 zp, 2 * dd, o), Monomial.q(-dd), order))
        else:
            x_psi = Monomial.zeta(d // 2 + 1, 2, F(dd, 4))
            psi_term = (2, psi(b, M, x_psi, minus_one, zp, F(dd, 2), order))
    return [(2, shifted(lambda o: appell_m(x_m, base, zp, o), head, order)), psi_term]


def deviation_pair_by_formula(d: int, a: int, M: int, order,
                              zp: Monomial | None = None,
                              zpp: Monomial | None = None,
                              z0: Monomial | None = None) -> QSeries:
    """D_d(a, M) + D_d(a-1, M) assembled from the Appell-Lerch formulas.

    Residues outside each formula's stated range are reached through the
    reflection D_d(a, M) = D_d(M - a, M), which sends the pair at a to the
    pair at M - a + 1: into 2..M for odd d, into 1..M-1 for even d.  Every
    pair is chi + T(a, z') - T(a-1, z'') + tail(a) (`_residue_piece`), with
    T(a, z') alone for odd d with even M.  The tail reads zeta_M^j only for
    1 <= j < M/2, so z0 is read only for odd d with M >= 3.
    """
    order, built = F(order), F(math.ceil(F(order)))
    if M < 2 or d < 1:
        raise UnsupportedCase("need M >= 2 and d >= 1")
    if zp is None or zpp is None or z0 is None:
        g1, g2, g3 = default_generics(M, d)
        zp = zp or g1
        zpp = zpp or g2
        z0 = z0 or g3
    a = a % M or M
    if d % 2:
        if a == 1 or (a % 2 == 1 and M % 2 == 0):
            a = M - a + 1
        chi = a == M
    else:
        if a == M:
            a = 1
        chi = a == 1
    terms = _residue_piece(d, a, M, zp, built)
    if d % 2 == 0 or M % 2:
        terms += [(-w, s) for w, s in _residue_piece(d, a - 1, M, zpp, built)]
    # tail(a) = (2/M) sum_j zeta_M^{-aj} (1 - zeta_M^j) bracket_tail(d, zeta_M^j, z0, -1),
    # folded by bracket_tail(1/z) = -bracket_tail(z) and bracket_tail(-1) = 0
    for j in range(1, (M + 1) // 2):
        weight = (root_of_unity(-a * j, M) * (1 - root_of_unity(j, M))
                  - root_of_unity(a * j, M) * (1 - root_of_unity(-j, M))) * F(2, M)
        terms.append((weight, bracket_tail(d, Monomial.zeta(j, M), z0, Monomial.minus_one(), built)))
    if chi:
        terms.append((1, QSeries.one()))
    out = linear_sum(terms, built).normalize_denominator()
    if out.den != 1:
        raise ArithmeticError("deviation pair has fractional exponents")
    return out.truncate(order)


# ---------------------------------------------------------------------------
# single deviations
# ---------------------------------------------------------------------------


def single_deviation(d: int, a: int, M: int, order,
                     zp: Monomial | None = None,
                     z0: Monomial | None = None) -> QSeries:
    """One deviation D_d(a, M) from the formula route, for every M >= 2.

    The root-of-unity average (1/M) sum_{k=1}^{M-1} zeta_M^{-ka} O_d(zeta_M^k;q)
    folded by O_d(1/z;q) = O_d(z;q): each 1 <= k < M/2 carries
    (zeta_M^{-ka} + zeta_M^{ka}) / M times O_d(zeta_M^k;q) = (1-z)/(1+z) times
    the Appell-Lerch bracket `s_bar_bracket` at z = zeta_M^k.  Even M adds
    the self-paired k = M/2 term (-1)^a/M O_d(-1;q), from the symmetric
    double-divisor expansion (the single-sum form has a (1+z) pole there).
    z' is read for every M >= 3 and z0 only for odd d (through Lambda);
    M = 2 has no bracket and reads neither.
    """
    order, built = F(order), F(math.ceil(F(order)))
    if M < 2 or d < 1:
        raise UnsupportedCase("need M >= 2 and d >= 1")
    if zp is None or z0 is None:
        g1, _, g3 = default_generics(M, d)
        zp = zp or g1
        z0 = z0 or g3
    a %= M
    terms = []
    if M % 2 == 0:
        # k = M/2, with a rational weight: at orders <= 0 the empty sum
        # takes its field from the weights
        terms.append((F(1 if a % 2 == 0 else -1, M), o_d_at_minus_one(d, built)))
    for k in range(1, (M + 1) // 2):
        weight = ((1 - root_of_unity(k, M)) * inverse_one_plus(k, M)
                  * (root_of_unity(-k * a, M) + root_of_unity(k * a, M)))
        terms.append((weight * F(1, M), s_bar_bracket(d, Monomial.zeta(k, M), z0, zp, built)))
    return linear_sum(terms, order)
