import functools
import json
import math
from fractions import Fraction

import pytest

from qrank.appell import bracket_tail, o_d_direct
from qrank.cyclotomic import root_of_unity
from qrank import overpartitions
from qrank.errors import UnsupportedCase
from qrank.overpartitions import (
    Overpartition,
    RankTables,
    default_generics,
    deviation_by_definition,
    deviation_by_root_average,
    deviation_pair_by_formula,
    enumerate_overpartitions,
    enumeration_rank_counts,
    p_bar,
    p_bar_series,
    pair_by_definition,
    rank_tables,
    single_deviation,
)
from qrank.series import Monomial, QSeries, linear_sum, root_sum
from qrank.theta import theta_triple_product

F = Fraction


def test_enumeration_counts():
    assert len(enumerate_overpartitions(0)) == 1
    assert len(enumerate_overpartitions(2)) == 4  # 2, 2~, 1+1, 1~+1
    assert len(enumerate_overpartitions(4)) == 14
    for n in range(9):
        assert len(enumerate_overpartitions(n)) == p_bar(n)


def test_enumeration_no_duplicates():
    for n in range(8):
        ops = enumerate_overpartitions(n)
        assert len(set(ops)) == len(ops)
        for p in ops:
            assert p.weight == n
            seen = set()
            for v, ov in p.parts:
                if ov:
                    assert v not in seen
                    seen.add(v)


@pytest.mark.parametrize("d", [1, 2])
def test_enumeration_rank_counts_match_objects(d):
    # the closed-form overlining counts against rank() / m2_rank() of every
    # overpartition object
    expected = {}
    for n in range(21):
        for p in enumerate_overpartitions(n):
            key = (p.rank() if d == 1 else p.m2_rank(), n)
            expected[key] = expected.get(key, 0) + 1
    assert enumeration_rank_counts(d, 20) == expected


def _recursive_rank_counts(d, max_n):
    # the counts as one recursive tuple-building walk per n, each partition
    # weighed in closed form on its own
    def partitions(n, max_part):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    counts = {(0, 0): 1} if max_n >= 0 else {}
    for n in range(1, max_n + 1):
        for plain in partitions(n, n):
            largest, values = plain[0], set(plain)
            if d == 1:
                key = (largest - len(plain), n)
                counts[key] = counts.get(key, 0) + (1 << len(values))
                continue
            odd_parts = sum(v & 1 for v in plain)
            odd_values = sum(v & 1 for v in values)
            free = len(values) - odd_values
            if largest & 1:
                odd_values -= 1
                free += 1
            base = -(-largest // 2) - len(plain) + odd_parts - (largest & 1)
            for j in range(odd_values + 1):
                key = (base - j, n)
                counts[key] = counts.get(key, 0) + (math.comb(odd_values, j) << free)
    return counts


@pytest.mark.parametrize("max_n", [-1, 0, 1, 2, 7, 30])
@pytest.mark.parametrize("d", [1, 2])
def test_enumeration_rank_counts_match_the_recursive_walk(d, max_n):
    assert enumeration_rank_counts(d, max_n) == _recursive_rank_counts(d, max_n)


@pytest.mark.parametrize("d", [1, 2])
def test_enumeration_rank_counts_match_the_rank_tables_deep(d):
    # the packed program against the double-divisor form for every m and
    # n <= 60, on 4-byte slots
    t = rank_tables(d, 60)
    assert enumeration_rank_counts(d, 60) == {
        (m, n): t.count(m, n) for n in range(61) for m in range(-n, n + 1) if t.count(m, n)}


@pytest.mark.parametrize("d", [1, 2])
def test_enumeration_rank_counts_are_symmetric_and_sum_to_p_bar(d):
    # n <= 120 on 6-byte slots, read back as two 8-byte limbs
    counts = enumeration_rank_counts(d, 120)
    totals = [0] * 121
    for (m, n), c in counts.items():
        assert c > 0 and counts.get((-m, n)) == c, (d, m, n)
        totals[n] += c
    s = p_bar_series(121)
    assert totals == [int(s.coeff(n).as_fraction()) for n in range(121)]


def test_enumeration_walk_is_a_module_level_lru_cache():
    packed = overpartitions._packed_rank_counts
    assert isinstance(packed, functools._lru_cache_wrapper)
    assert vars(overpartitions)["_packed_rank_counts"] is packed
    packed.cache_clear()
    assert packed.cache_info().currsize == 0
    first = enumeration_rank_counts(2, 9)
    assert packed.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert enumeration_rank_counts(2, 9) == first
    assert packed.cache_info()[:2] == (1, 1)
    packed.cache_clear()
    assert packed.cache_info() == (0, 0, None, 0)


def test_enumeration_rank_counts_are_a_fresh_dict():
    first = enumeration_rank_counts(1, 6)
    expected = dict(first)
    first[0, 6] += 100
    first[99, 99] = 1
    del first[0, 0]
    second = enumeration_rank_counts(1, 6)
    assert second == expected and second is not first
    assert enumeration_rank_counts(2, -3) == {}


@pytest.mark.parametrize("d", [0, 3, -1])
def test_enumeration_rejects_a_bad_statistic_before_the_cache(d):
    packed = overpartitions._packed_rank_counts
    before = packed.cache_info()
    with pytest.raises(ValueError):
        enumeration_rank_counts(d, 5)
    assert packed.cache_info() == before


def _sequential_triple_product(z, p, order):
    # the factors multiplied into one growing product, left to right
    out = QSeries.one(order)
    for x, k in ((z, 0), (z.inverse(), 1), (Monomial.one(), 1)):
        while x.q_exp + k * p < order:
            out = out * (QSeries.one(order) - QSeries.from_monomial(x * Monomial.q(k * p), order))
            k += 1
    return out


@pytest.mark.parametrize("order", [F(30), F(13, 2), F(0)], ids=str)
def test_triple_product_tree_matches_the_sequential_product(order):
    Z = Monomial.zeta
    for z, p in [(Z(1, 2), 1), (Z(1, 5), 1), (Z(2, 7, 1), 3), (Z(1, 3, 1), 2)]:
        assert theta_triple_product(z, p, order).to_json_dict() == \
            _sequential_triple_product(z, p, order).to_json_dict(), (z, p)


def test_rank_values():
    assert Overpartition(((3, False), (1, False))).rank() == 1
    assert Overpartition(((1, True), (1, False), (1, False), (1, False))).rank() == -3
    assert Overpartition(()).rank() == 0


def test_m2_rank_values():
    assert Overpartition(((3, False),)).m2_rank() == 1
    assert Overpartition(((3, True),)).m2_rank() == 1
    assert Overpartition(()).m2_rank() == 0


def test_pbar_series_matches_enumeration():
    s = p_bar_series(9)
    for n in range(9):
        assert s.coeff(n).as_fraction() == len(enumerate_overpartitions(n))


@pytest.mark.parametrize("d", [1, 2])
def test_tables_match_enumeration(d):
    t = rank_tables(d, 10)
    e = enumeration_rank_counts(d, 10)
    for n in range(11):
        for m in range(-n, n + 1):
            assert t.count(m, n) == e.get((m, n), 0), (d, m, n)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("L", [5, 7])
def test_tables_match_single_sum_form(d, L):
    # the tables come from the double-divisor form; o_d_direct is the single sum
    t = rank_tables(d, 20)
    series = o_d_direct(d, Monomial.zeta(1, L), 21)
    for n in range(21):
        value = sum(t.count(m, n) * root_of_unity(m, L) for m in range(-n, n + 1))
        assert series.coeff(n) == value, (d, L, n)


@pytest.mark.parametrize("d, max_n", [(0, 5), (-2, 3), (1, -1)])
def test_tables_reject_bad_arguments(d, max_n):
    with pytest.raises(ValueError):
        rank_tables(d, max_n)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_definition_matches_a_fraction_reference(d):
    # the integer rows against the definition read off `count` one m at a
    # time, a Fraction per coefficient through root_sum, byte for byte
    t = rank_tables(d, 39)
    for M in range(1, 9):
        columns, residues = [], [[0] * M for _ in range(40)]
        for n in range(40):
            for m in range(-n, n + 1):
                residues[n][m % M] += t.count(m, n)
            columns.append(sum(t.count(m, n) for m in range(-n, n + 1)))
        for order in (F(0), F(1), F(13, 2), F(24), F(40)):

            def reference(a, M=M, order=order):
                return [F(residues[n][a % M]) - F(columns[n], M) for n in range(math.ceil(order))]

            for a in range(-M, 2 * M + 1):
                one, pair = reference(a), map(sum, zip(reference(a), reference(a - 1)))
                assert deviation_by_definition(d, a, M, order).to_json_dict() == root_sum(
                    ((w, 0, n) for n, w in enumerate(one)), 1, order).to_json_dict(), (a, M, order)
                assert pair_by_definition(d, a, M, order).to_json_dict() == root_sum(
                    ((w, 0, n) for n, w in enumerate(pair)), 1, order).to_json_dict(), (a, M, order)


def test_tables_raise_past_max_n():
    t = rank_tables(1, 6)
    t = RankTables(1, 6, t.rows[:7])  # exactly n <= 6, whatever the cache holds
    assert (t.count(0, 6), t.count(-5, 6), t.count(7, 6), t.count(0, -1)) == (8, 2, 0, 0)
    assert (sum(t.rows[6][0::2]), sum(t.rows[6])) == (16, p_bar(6))  # m even; every m
    with pytest.raises(ValueError):
        t.count(0, 7)


@pytest.mark.parametrize("order", [F(0), F(-2), F(-1, 2)], ids=str)
def test_deviation_below_order_one_is_zero(order):
    # no coefficient lies below the order, so the tables are not consulted
    s = deviation_by_definition(1, 1, 3, order)
    assert s.is_zero() and s.order == order


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_table_invariants(d):
    t = rank_tables(d, 10)
    for n in range(11):
        assert sum(t.rows[n]) == p_bar(n)
        for m in range(-n, n + 1):
            assert t.count(m, n) == t.count(-m, n)


def test_residue_counts_partition_everything():
    t = rank_tables(1, 8)
    for n in range(9):
        for M in (2, 3, 5):
            assert sum(sum(t.rows[n][(a + n) % M::M]) for a in range(M)) == p_bar(n)


def test_deviations_sum_to_zero():
    for d, M in [(1, 2), (2, 3), (3, 4)]:
        total = QSeries.zero(10)
        for a in range(M):
            total = total + deviation_by_definition(d, a, M, 10)
        assert total.agrees_with(QSeries.zero(), 10)


def test_deviation_reflection_symmetry():
    for d, M in [(1, 3), (2, 4), (3, 5)]:
        for a in range(M + 1):
            lhs = deviation_by_definition(d, a, M, 10)
            rhs = deviation_by_definition(d, M - a, M, 10)
            assert lhs.agrees_with(rhs, 10)


def test_pair_formula_small_instances():
    for (d, a, M) in [(1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 1, 2), (2, 1, 3)]:
        lhs = pair_by_definition(d, a, M, 10)
        rhs = deviation_pair_by_formula(d, a, M, 10)
        assert lhs.agrees_with(rhs, 10), (d, a, M)


def test_pair_formula_out_of_range_residues():
    # a = 0 and a = 1 are reached through the reflection symmetry
    for (d, a, M) in [(1, 0, 3), (1, 1, 3), (3, 1, 2), (2, 2, 2)]:
        lhs = pair_by_definition(d, a, M, 8)
        rhs = deviation_pair_by_formula(d, a, M, 8)
        assert lhs.agrees_with(rhs, 8), (d, a, M)


def test_pair_formula_parameter_independence():
    Z = Monomial.zeta
    a = deviation_pair_by_formula(1, 2, 3, 8, zp=Z(1, 7), zpp=Z(2, 7), z0=Z(3, 7))
    b = deviation_pair_by_formula(1, 2, 3, 8, zp=Z(1, 11), zpp=Z(5, 11), z0=Z(2, 11))
    assert a == b


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
def test_deviation_grid_matches_definition(d):
    # every residue of every modulus 2..7 at order 12, through both formula
    # routes at their default generic parameters
    for M in range(2, 8):
        for a in range(M):
            pair = deviation_pair_by_formula(d, a, M, 12)
            assert pair == pair_by_definition(d, a, M, 12), (M, a)
            assert single_deviation(d, a, M, 12) == deviation_by_definition(d, a, M, 12), (M, a)


@pytest.mark.parametrize("z0", [Monomial.zeta(3, 7), Monomial.zeta(2, 11)], ids=str)
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bracket_tail_is_odd_under_inversion(d, z0):
    # at z' = -1 the tail is odd under z <-> 1/z, so zero at z = -1
    minus_one = Monomial.minus_one()
    assert bracket_tail(d, minus_one, z0, minus_one, 12) == QSeries.zero(12)
    for M in range(3, 8):
        for j in range(1, M):
            z = Monomial.zeta(j, M)
            assert bracket_tail(d, z.inverse(), z0, minus_one, 12) == \
                -bracket_tail(d, z, z0, minus_one, 12), (M, j)


def _unfolded_pair(d, a, M, order, zp, zpp, z0):
    """The pair with its tail summed over every j in 1..M-1, unfolded."""
    built = F(math.ceil(F(order)))
    a = a % M or M
    if d % 2:
        if a == 1 or (a % 2 == 1 and M % 2 == 0):
            a = M - a + 1
        chi = a == M
    else:
        if a == M:
            a = 1
        chi = a == 1
    terms = overpartitions._residue_piece(d, a, M, zp, built)
    if d % 2 == 0 or M % 2:
        terms += [(-w, s) for w, s in overpartitions._residue_piece(d, a - 1, M, zpp, built)]
    terms += [(root_of_unity(-a * j, M) * (1 - root_of_unity(j, M)) * F(2, M),
               bracket_tail(d, Monomial.zeta(j, M), z0, Monomial.minus_one(), built))
              for j in range(1, M)]
    if chi:
        terms.append((1, QSeries.one()))
    return linear_sum(terms, built).normalize_denominator().truncate(order)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_pair_formula_matches_the_unfolded_tail(d):
    # the folded tail serializes exactly as the unfolded one, for every
    # residue, at default and conjugated generics; odd d >= 3 with M = 2 is
    # the zero series, whose field no longer carries the j = 1 term's roots
    for M in range(2, 8):
        generics = default_generics(M, d)
        for order in (12, F(13, 2), 0, -2):
            for k in (1, 2):
                zp, zpp, z0 = (_conjugate(g, k) for g in generics)
                for a in range(M):
                    got = deviation_pair_by_formula(d, a, M, order, zp=zp, zpp=zpp, z0=z0)
                    want = _unfolded_pair(d, a, M, order, zp, zpp, z0)
                    if d % 2 and d >= 3 and M == 2:
                        assert got == want and got.is_zero(), (M, a, order, k)
                    else:
                        assert json.dumps(got.to_json_dict(), sort_keys=True) == \
                            json.dumps(want.to_json_dict(), sort_keys=True), (M, a, order, k)


def test_pair_formula_builds_the_tail_on_half_the_roots(monkeypatch):
    calls = []

    def counted(d, z, z0, zp, order):
        calls.append(z)
        return bracket_tail(d, z, z0, zp, order)

    monkeypatch.setattr(overpartitions, "bracket_tail", counted)
    for d in (1, 2, 3):
        for M in range(2, 8):
            calls.clear()
            deviation_pair_by_formula(d, 2, M, 8)
            assert calls == [Monomial.zeta(j, M) for j in range(1, (M + 1) // 2)], (d, M)


def test_pair_formula_rejects_bad_shape():
    with pytest.raises(UnsupportedCase):
        deviation_pair_by_formula(1, 1, 1, 8)


def test_single_deviation_routes():
    for (d, M) in [(1, 3), (1, 2), (2, 2)]:
        for a in range(M):
            lhs = deviation_by_definition(d, a, M, 8)
            rhs = single_deviation(d, a, M, 8)
            assert lhs.agrees_with(rhs, 8), (d, M, a)


def test_single_deviation_even_modulus_with_inner_sum():
    # M = 4 exercises the nonempty root-of-unity sum of the even-M route
    for d in (1, 2):
        for a in (0, 1):
            lhs = deviation_by_definition(d, a, 4, 8)
            rhs = single_deviation(d, a, 4, 8)
            assert lhs.agrees_with(rhs, 8), (d, a)


def test_single_deviation_central_symmetry():
    # for odd M the two central deviations coincide
    for d, M in [(1, 3), (2, 5)]:
        hi = single_deviation(d, (M + 1) // 2, M, 8)
        lo = single_deviation(d, (M - 1) // 2, M, 8)
        assert hi.agrees_with(lo, 8)


def _telescoped_single_deviation(d, a, M, order, zp, z0):
    """An independent odd-M route: the pairs at b = lead, ..., top, where
    top = max(a, M - a) and lead = M + 1 - top, with signs +, -, ..., +
    telescope to D_d(lead - 1, M) + D_d(top, M) = 2 D_d(a, M)."""
    built = F(math.ceil(F(order)))
    top = max(a % M, M - a % M)
    lead = M + 1 - top
    return linear_sum(((F((-1) ** (b - lead), 2),
                        deviation_pair_by_formula(d, b, M, built, zp=zp, z0=z0))
                       for b in range(lead, top + 1)), order)


def _conjugate(g, k):
    return Monomial(g.zeta_num * k, g.zeta_den, g.q_exp)


@pytest.mark.parametrize("d, M", [(d, M) for d in (1, 2, 3) for M in (3, 5, 7)] + [(5, 9)])
def test_single_deviation_matches_the_telescoped_pairs(d, M):
    # the folded root-of-unity average serializes exactly as the telescoped
    # pair sum, for every residue, at default and conjugated generics
    g1, _, g3 = default_generics(M, d)
    for order in (8,) if M == 9 else (12, F(13, 2), 1, 0, -2):
        for k in (1, 2, 3):
            zp, z0 = _conjugate(g1, k), _conjugate(g3, k)
            for a in range(M):
                got = single_deviation(d, a, M, order, zp=zp, z0=z0).to_json_dict()
                want = _telescoped_single_deviation(d, a, M, order, zp, z0).to_json_dict()
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), \
                    (d, M, a, order, k)


def test_single_deviation_builds_no_pair(monkeypatch):
    def no_pair(*args, **kwargs):
        raise AssertionError("single_deviation built a deviation pair")

    monkeypatch.setattr(overpartitions, "deviation_pair_by_formula", no_pair)
    for d, M in [(1, 3), (2, 5), (3, 7), (2, 4)]:
        for a in range(M):
            assert single_deviation(d, a, M, 10) == deviation_by_definition(d, a, M, 10), (d, M, a)


@pytest.mark.parametrize("d, M, message", [
    (0, 2, "d must be a positive integer"),
    (-1, 5, "d must be a positive integer"),
    (1, 0, "the modulus M must be positive, got 0"),
    (2, -3, "the modulus M must be positive, got -3"),
])
def test_both_deviation_oracles_reject_bad_arguments(d, M, message):
    for route in (deviation_by_definition, deviation_by_root_average):
        with pytest.raises(ValueError, match=message):
            route(d, 0, M, 8)


def test_root_average_matches_definition():
    for (d, a, M) in [(1, 0, 2), (2, 1, 3), (1, 2, 4)]:
        lhs = deviation_by_definition(d, a, M, 8)
        rhs = deviation_by_root_average(d, a, M, 8)
        assert lhs.agrees_with(rhs, 8)


def test_csv_export(tmp_path):
    t = rank_tables(1, 4)
    path = tmp_path / "tables.csv"
    with open(path, "w") as fh:
        t.write_csv(fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "d,m,n,count"
    assert "1,0,1,2" in lines  # both overpartitions of 1 have rank 0
