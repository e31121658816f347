import math
import random
from fractions import Fraction

import pytest
import sympy

from qrank import cyclotomic
from qrank.cyclotomic import (
    Cyclotomic,
    convolve_int,
    cyclo_polynomial,
    descent,
    get_field,
    inverse_one_plus,
    root_of_unity,
    totient,
)
from qrank.errors import InverseOfZero
from qrank.theta import _expand


def zeta(num, den):
    return root_of_unity(num, den)


def rat(x):
    return Cyclotomic.from_fraction(Fraction(x))


def test_cyclo_polynomial_small():
    assert cyclo_polynomial(1) == (-1, 1)
    assert cyclo_polynomial(3) == (1, 1, 1)
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 by hand: x^4 - x^2 + 1
    assert cyclo_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 6, 8, 9, 12, 15, 21, 30, 63, 84, 105,
                               385, 1155, 2310])
def test_cyclo_polynomial_against_sympy(L):
    x = sympy.Symbol("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs()[::-1]
    assert list(cyclo_polynomial(L)) == [int(c) for c in expected]
    assert len(cyclo_polynomial(L)) == totient(L) + 1


def test_root_of_unity_orders():
    assert zeta(1, 1) == 1
    assert zeta(3, 6) == -1
    # zeta_3 embedded into Q(zeta_12) is zeta_12^4
    assert zeta(1, 3).embed(12) == zeta(4, 12)


def test_root_of_unity_relations():
    z3 = zeta(1, 3)
    assert z3 * zeta(2, 3) == 1
    assert z3 + zeta(2, 3) == -1
    assert z3 ** 3 == 1


def test_power_sums_of_roots():
    # sum_{j<n} zeta_n^{s j} is n when n | s and 0 otherwise
    for n in (1, 2, 3, 5, 6, 9):
        for s in range(-2 * n, 2 * n + 1):
            total = rat(0)
            for j in range(n):
                total = total + zeta(s * j, n)
            assert total == (n if s % n == 0 else 0), (n, s)


def test_inverse_examples():
    z3 = zeta(1, 3)
    inv = (1 - z3).inv()
    assert inv == (2 + z3) / 3
    assert inv * (1 - z3) == 1
    with pytest.raises(InverseOfZero):
        rat(0).inv()


def test_rtruediv_is_multiplication_by_the_inverse():
    for c in (1 - zeta(1, 3), zeta(2, 5) + 3, zeta(1, 12) - zeta(5, 12) + Fraction(1, 2)):
        assert 1 / c == c.inv()
        assert Fraction(3, 4) / c == c.inv() * Fraction(3, 4)
        assert (7 / c) * c == 7
    with pytest.raises(InverseOfZero):
        1 / rat(0)


@pytest.mark.parametrize("L", [5, 12, 21, 35, 63])
def test_inverse_matches_sympy(L):
    # an oracle independent of the norm route: inversion mod Phi_L in Q[x]
    x = sympy.Symbol("x")
    rng = random.Random(4100 + L)
    f = get_field(L)
    vec = [rng.randint(-10**6, 10**6) for _ in range(f.phi)]
    den = rng.randint(1, 10**3)
    a = Cyclotomic(f, f.normalize(den, vec))
    poly = sum(sympy.Rational(c, den) * x**i for i, c in enumerate(vec))
    expected = sympy.Poly(sympy.invert(poly, sympy.cyclotomic_poly(L, x)), x)
    coeffs = expected.all_coeffs()[::-1]
    coeffs += [0] * (f.phi - len(coeffs))
    got = a.inv()
    out_den, out_vec = got.raw
    assert [sympy.Rational(c, out_den) for c in out_vec] == coeffs


def _random_element(rng, L, size=4):
    f = get_field(L)
    vec = [rng.randint(-size, size) for _ in range(f.phi)]
    den = rng.choice([1, 1, 2, 3])
    return Cyclotomic(f, f.normalize(den, vec))


@pytest.mark.parametrize("L", [1, 4, 6, 9, 12, 21])
def test_field_axioms_randomized(L):
    rng = random.Random(20240 + L)
    for _ in range(25):
        a = _random_element(rng, L)
        b = _random_element(rng, L)
        c = _random_element(rng, L)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == 1


def test_embedding_transitivity():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_element(rng, 3)
        assert a.embed(6).embed(36) == a.embed(36)
        assert a.embed(36) == a.embed(6).embed(12).embed(36)
        assert (a.embed(12) == a) is True  # embedding preserves equality


def test_cross_field_arithmetic():
    z3 = zeta(1, 3)
    z4 = zeta(1, 4)
    prod = z3 * z4
    assert prod == zeta(7, 12)
    assert prod.field.L == 12


def test_convolve_matches_schoolbook():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(1, 90)
        m = rng.randint(1, 90)
        a = [rng.randint(-10**6, 10**6) for _ in range(n)]
        b = [rng.randint(-10**6, 10**6) for _ in range(m)]
        if trial % 3 == 0:
            for k in rng.sample(range(n), k=n // 2):
                a[k] = 0
        expected = [0] * (n + m - 1)
        for i in range(n):
            for j in range(m):
                expected[i + j] += a[i] * b[j]
        got = convolve_int(a, b)
        got = got + [0] * (len(expected) - len(got))
        assert got == expected


def _school(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


DEGENERATE_CASES = [
    ([5] * 60, [5] * 60),                      # constant vectors
    ([-3] * 50, list(range(-25, 25))),          # constant times ramp
    ([10**40, -10**39] * 30, [7, -11] * 40),    # huge entries
    ([0] * 40 + [1], [1] + [0] * 40),           # sparse ends
    ([2**200] * 45, [-(2**180)] * 45),          # giant magnitudes
    ([-27] * 40, [27] * 40),                    # peak -29160 fills a 2-byte slot
    ([3], [-4]),                                # one term each
    ([0, 0, -1], [0, 2]),                       # leading zeros
    ([0, 0], [300, -7]),                        # zero factor
    ([10**30, 1], [0]),                         # zero factor against a wide one
    ([], [5]),                                  # empty factor
]


def test_convolve_degenerate_shapes():
    for a, b in DEGENERATE_CASES:
        got = convolve_int(a, b)
        expected = _school(a, b)
        got = got + [0] * (len(expected) - len(got))
        assert got == expected


def test_str_formats():
    assert str(rat(Fraction(3, 2))) == "3/2"
    assert str(zeta(1, 5)) == "[0,1,0,0]@zeta5"
    assert str((1 - zeta(1, 3)).inv()) == "[2/3,1/3]@zeta3"


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 20])
def test_kronecker_every_slot_width(width):
    # b is chosen so that the l1 bound 6b of the first three pairs needs
    # exactly `width` bytes and is reached with both signs; widths 1-8 round
    # up to an array item size, 9 and 20 unpack in 8-byte limbs
    b = ((1 << (8 * width - 1)) - 1) // 6
    assert (6 * b).bit_length() // 8 + 1 == width
    rng = random.Random(width)
    cases = [
        ([3, 3, 3], [b, b]),
        ([-3, -3, -3], [b, b]),
        ([3, -3, 3], [b, -b]),
        ([3] + [rng.randint(-3, 3) for _ in range(6)],
         [b // 5, -(b // 5)] + [rng.randint(-(b // 5), b // 5) for _ in range(3)]),
    ]
    seen = set()
    for x, y in cases:
        expected = _school(x, y)
        seen.update(expected)
        for got in (convolve_int(x, y), convolve_int(y, x)):
            assert got + [0] * (len(expected) - len(got)) == expected
    assert {6 * b, -6 * b} <= seen


def _norm_route_inv(f, a):
    # the inverse as it was before the tower: every conjugate, one by one
    den, vec = a
    rest = f.one
    for k in range(2, f.L):
        if math.gcd(k, f.L) == 1:
            rest = f.mul(rest, (1, tuple(f.reindex(vec, k))))
    norm = f.mul((1, vec), rest)[1][0]
    return f.normalize(norm, [c * den for c in rest[1]])


@pytest.mark.parametrize("L, trials", [(1, 12), (2, 12), (3, 12), (8, 12), (12, 12),
                                       (35, 12), (105, 12), (110, 12), (154, 12), (385, 1)])
def test_tower_inverse_matches_norm_route(L, trials):
    rng = random.Random(8800 + L)
    f = get_field(L)
    for trial in range(trials):
        size = [1, 5, 10**6][trial % 3]
        vec = [rng.randint(-size, size) for _ in range(f.phi)]
        if trial % 4 == 3:
            vec = [v if rng.random() < 0.2 else 0 for v in vec]
        if not any(vec):
            continue
        a = f.normalize(rng.choice([1, 2, 3, 7]), vec)
        assert f.inv(a) == _norm_route_inv(f, a)


def test_unit_tower_generates_units():
    assert cyclotomic.unit_tower(385) == ((2, 60), (3, 2), (13, 2))
    for L in range(1, 401):
        tower = cyclotomic.unit_tower(L)
        assert math.prod(r for _, r in tower) == totient(L)
        units = {1 % L}
        for g, r in tower:
            units = {u * pow(g, e, L) % L for u in units for e in range(r)}
        assert units == {k % L for k in range(1, L + 1) if math.gcd(k, L) == 1}


def _check_rows_by_long_division(f, top):
    # row k - phi is x^k mod f.modulus, by long division carried one degree
    # at a time in plain lists, for phi <= k < top, grown in two calls;
    # _red_max[j] is max(1, the largest |coefficient| of rows 0 .. j)
    phi, mod = f.phi, f.modulus
    f._ensure_red(phi + (top - phi) // 3)
    f._ensure_red(top - 1)
    assert len(f._red) == len(f._red_max) == top - phi
    rem, most = [0] * (phi - 1) + [1], 1  # x^(phi - 1)
    for k in range(phi, top):
        rem = [0] + rem  # x^k, of degree phi
        rem = [a - rem[phi] * b for a, b in zip(rem, mod)][:phi]
        most = max([most] + [abs(c) for c in rem])
        nz = tuple(i for i, c in enumerate(rem) if c)
        assert f._red[k - phi] == (nz, tuple(rem[i] for i in nz)), (mod, k)
        assert f._red_max[k - phi] == most, (mod, k)


@pytest.mark.parametrize("Ls", [range(1, 151), range(151, 301), (385, 770, 1155)])
def test_reduction_rows_are_the_remainders_of_long_division(Ls):
    # rows up to max(N, 2 phi); those of 385, 770 and 1155 outgrow the
    # bound of their first slots and go on from the last row on new ones
    for L in Ls:
        f = cyclotomic.CyclotomicField(L)  # a field of its own: no rows yet
        _check_rows_by_long_division(f, max(f.N, 2 * f.phi))


def test_reduction_rows_go_on_wider_slots_as_they_grow():
    # x^6 - 2x^5 + x - 5 in place of Phi_7: its remainders grow about as 2^k,
    # out of slots of 1, 2, 4, 8 and 16 bytes into wider ones
    f = cyclotomic.CyclotomicField(7)
    f.modulus = (-5, 1, 0, 0, 0, -2, 1)
    _check_rows_by_long_division(f, 400)
    assert f._red_max[-1].bit_length() > 300


@pytest.mark.parametrize("L", [1, 2, 3, 4, 6, 7, 35, 70, 105, 210, 1155, 2310])
def test_reduce_all_matches_reduce_vec(L):
    # vectors of length L and 2 phi - 1, entries up to the extremes of 1-,
    # 2-, 4-, 8-, 9-, 12-, 16- and 17-byte slots, and all-zero columns,
    # packed in those slots (which the reduced entries outgrow) and in slots
    # wide enough for them
    rng = random.Random(L)
    f = get_field(L)
    count = 3 if L > 1000 else 12
    for m in sorted({L, 2 * f.phi - 1}):
        for w in (1, 2, 4, 8, 9, 12, 16, 17):
            top = (1 << (8 * w - 1)) - 1
            zero = set(rng.sample(range(m), m // 3))
            vecs = [[0 if j in zero else rng.choice([top, -top, rng.randint(-top, top)])
                     for j in range(m)] for _ in range(count)]
            vecs.append([0] * m)
            bound = max(sum(map(abs, v)) for v in vecs)
            for slot in sorted({w, cyclotomic._slot_width(bound * 9)}):
                got = f.reduce_all([cyclotomic._pack(v, slot) for v in vecs], m, slot, bound)
                assert [list(v) for v in got] == [f.reduce_vec(list(v)) for v in vecs]
    # a lone entry at the top of its slot, at the row with the largest
    # coefficient: only the row maximum makes room for what it reduces to
    m = 2 * f.phi - 1
    if m > f.phi:
        f._ensure_red(m - 1)
        k = max(range(f.phi, m), key=lambda k: max(map(abs, f._red[k - f.phi][1])))
        for w in (1, 2, 4, 8):
            v = [0] * m
            v[k] = (1 << (8 * w - 1)) - 1
            assert list(f.reduce_all([cyclotomic._pack(v, w)], m, w, v[k])[0]) == f.reduce_vec(v)
    assert f.reduce_all([], L, 1, 0) == []


def test_unpack_inverts_pack_at_every_width():
    # slots at both ends of [-half, half) and at 0, one slot or many, one
    # packed integer or several: array items at 1, 2, 4 and 8 bytes, whole
    # 8-byte limbs, sign-extended, at every other width
    rng = random.Random(17)
    for width in range(1, 41):
        half = 1 << (8 * width - 1)
        for n in (1, 2, 5):
            vecs = [[rng.choice([-half, half - 1, 0, rng.randrange(-half, half)])
                     for _ in range(n)] for _ in range(4)]
            vecs += [[-half] * n, [half - 1] * n, [0] * n]
            xs = [cyclotomic._pack(v, width) for v in vecs]
            assert cyclotomic._unpack(xs, n, width) == [c for v in vecs for c in v]
            assert cyclotomic._unpack(xs[:1], n, width) == vecs[0]
            # a mask of more slots packs the same integer, as convolve_int's
            # one mask for both factors and their product does
            mask = cyclotomic._slot_mask(width, n + 3)
            assert [cyclotomic._pack(v, width, mask) for v in vecs] == xs


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("L", [1, 2, 5, 12, 35])
def test_packed_rotation_is_the_list_rotation(L, width):
    # x zeta_L^k by shift and mask of the doubled x + B, for every k: for odd
    # L the cyclic rotation of L slots, with slots at both ends of their
    # range [-half, half); for even L the negacyclic rotation of N = L/2
    # slots, where a slot that wraps past x^N is negated, so slots reach
    # +-(half - 1), and k >= N is -zeta_L^(k - N)
    half = 1 << (8 * width - 1)
    N = L // 2 if L % 2 == 0 else L
    lo = -half if N == L else 1 - half
    rng = random.Random(width * 100 + L)
    for trial in range(3):
        v = [rng.choice([lo, half - 1, 0, rng.randrange(lo, half)]) for _ in range(N)]
        x = cyclotomic._pack(v, width)
        assert cyclotomic._unpack([x], N, width) == v
        for k in range(L):
            expected = [0] * N
            for i, c in enumerate(v):
                j, r = divmod(i + k, N)
                expected[r] = -c if N < L and j % 2 else c
            rotated, _ = _expand([(0, dict(enumerate(v)), [(None, [(0, 1, k)])])], 1, L, width)
            assert cyclotomic._unpack(rotated, N, width) == expected


def test_slot_width_leaves_every_bound_below_half():
    # a slot of _slot_width(b) bytes holds [-b, b] with b < half, so negating
    # a wrapped slot, half - x for x + half, never leaves the slot
    bounds = list(range(600)) + [(1 << e) + d for e in range(7, 90) for d in (-1, 0, 1)]
    for b in bounds:
        assert b < 1 << (8 * cyclotomic._slot_width(b) - 1)


# ---------------------------------------------------------------------------
# the half ring and the fused move, against long division by Phi_L
# ---------------------------------------------------------------------------


def _reduce_by_division(vec, L):
    # vec mod Phi_L by folding mod x^L - 1 (no signs) and long division by
    # the monic Phi_L, independent of the half ring and of the reduction rows
    poly = cyclo_polynomial(L)
    phi = len(poly) - 1
    terms = [(i, p) for i, p in enumerate(poly[:phi]) if p]
    v = [0] * max(L, phi)
    for j, c in enumerate(vec):
        v[j % L] += c
    for k in range(len(v) - 1, phi - 1, -1):
        c = v[k]
        if c:
            for i, p in terms:
                v[k - phi + i] -= c * p
    return v[:phi]


def _half_ring_fold(vec, L):
    # exponent j to slot j mod N, negated when L is even and floor(j/N) is odd
    N = L // 2 if L % 2 == 0 else L
    out = [0] * N
    for j, c in enumerate(vec):
        out[j % N] += -c if N < L and j // N % 2 else c
    return out


_MOVE_FIELDS = [1, 2, 3, 4, 6, 7, 10, 12, 14, 15, 18, 21, 28, 30, 36, 42, 45, 60, 70, 84,
                90, 105, 126, 154, 165, 182, 210, 330, 385, 770, 1155, 2310]


def test_reduce_vec_is_the_reduction_of_the_half_ring_fold():
    # any vector of length up to 2L, dense or sparse, with entries of both
    # signs: reduce_vec, the reduction of its fold and long division agree
    rng = random.Random(20)
    for trial in range(60):
        L = rng.choice(_MOVE_FIELDS if trial % 3 else _MOVE_FIELDS[:20])
        f = get_field(L)
        vec = [rng.randint(-50, 50) if rng.random() < 0.5 else 0
               for _ in range(rng.randint(1, 2 * L))]
        expected = _reduce_by_division(vec, L)
        assert _reduce_by_division(_half_ring_fold(vec, L), L) == expected
        assert f.reduce_vec(list(vec)) == expected
        assert f.reduce_vec(_half_ring_fold(vec, L)) == expected


def _draw_weight(rng, L):
    # an int, a Fraction, a root of unity, a sum of two roots, or one of the
    # last two times a rational, in a field dividing L
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([-3, -1, 2, 5])
    if kind == 1:
        return Fraction(rng.choice([-7, 1, 3]), rng.choice([2, 5, 12]))
    a, b = rng.choice(divisors), rng.choice(divisors)
    w = root_of_unity(rng.randrange(a), a)
    if kind in (3, 5):
        w = w + root_of_unity(rng.randrange(b), b)
    if kind >= 4:
        w = w * Fraction(rng.choice([-5, 2, 9]), rng.choice([1, 3, 4]))
    return w


def test_fused_move_is_embed_then_mul():
    # a -> weight a from Q(zeta_L') into Q(zeta_L), L' | L of both parities,
    # equals the unweighted move then field.mul byte for byte, for m = L/L'
    # with and without primes that divide L'; a part of the draws is also
    # checked against the product of the spread vectors by long division
    rng = random.Random(2310)
    kinds = set()
    for trial in range(120):
        L = rng.choice(_MOVE_FIELDS[-6:] if trial % 4 == 0 else _MOVE_FIELDS[:26])
        f = get_field(L)
        src = get_field(rng.choice([d for d in range(1, L + 1) if L % d == 0]))
        m = L // src.L
        kinds.add((L % 2, src.L % 2, all(src.L % p == 0 for p in cyclotomic._primes(m))))
        w = _draw_weight(rng, L)
        if isinstance(w, Cyclotomic) and w.is_rational():
            w = w.as_fraction()
        wraw = (f.mover(w.field)(w.raw) if isinstance(w, Cyclotomic)
                else f.from_fraction(w))
        move = f.mover(src, w)
        for _ in range(3):
            vec = [rng.randint(-40, 40) if rng.random() < 0.6 else 0 for _ in range(src.phi)]
            a = src.normalize(rng.choice([1, 1, 2, 6, 35]), vec)
            got = move(a)
            assert got == f.mul(f.mover(src)(a), wraw)
            if trial % 4 == 0 and any(vec):
                wden, wvec = w.raw if isinstance(w, Cyclotomic) else (w.denominator, (w.numerator,))
                k = L // (w.field.L if isinstance(w, Cyclotomic) else 1)
                spread = [0] * (2 * L)
                for i, c in enumerate(a[1]):
                    for j, x in enumerate(wvec):
                        spread[i * m % L + j * k % L] += c * x
                assert got == f.normalize(a[0] * wden, _reduce_by_division(spread, L))
    assert {(1, 1), (0, 1), (0, 0)} <= {k[:2] for k in kinds}
    assert {True, False} <= {k[2] for k in kinds if not k[0]}


def test_equal_values_of_different_fields_hash_alike():
    # the same values built in Q(zeta_3), Q(zeta_6) and Q(zeta_12)
    values = [
        (zeta(1, 3), zeta(2, 6), zeta(4, 12)),
        (zeta(2, 3), zeta(4, 6), zeta(8, 12)),
        (zeta(1, 3) * Fraction(-5, 7) + 2, zeta(2, 6) * Fraction(-5, 7) + 2,
         zeta(4, 12) * Fraction(-5, 7) + 2),
        (zeta(1, 3) + zeta(2, 3), zeta(3, 6), zeta(6, 12)),
        (zeta(1, 3) - zeta(2, 3), zeta(1, 3) - zeta(4, 6), zeta(1, 3) - zeta(8, 12)),
    ]
    for built in values:
        assert {b.field.L for b in built} >= {3, 6} or built[0] == -1
        assert all(b == built[0] for b in built)
        assert len({hash(b) for b in built}) == 1
        assert len(set(built)) == 1
    assert hash(zeta(3, 6)) == hash(-1) and -1 in {zeta(6, 12)}
    assert hash(rat(Fraction(3, 4)).embed(12)) == hash(Fraction(3, 4))
    assert len({zeta(1, 3), zeta(2, 3), zeta(1, 4)}) == 3


# field pairs for the comparison route: odd and even parts, L = 2 mod 4,
# nested and coprime fields, and the suite's (105, 70), (110, 770) and
# (165, 770), whose common subfields are Q(zeta_35), Q(zeta_110) and Q(zeta_55)
_FIELD_SIZES = list(range(1, 31)) + [36, 42, 45, 60, 63, 66, 70, 84, 90, 105, 110, 165, 770]
_SUITE_PAIRS = [(105, 70), (110, 770), (165, 770), (770, 165), (5, 10), (6, 3), (3, 2)]


def _field_pairs(rng, count):
    return _SUITE_PAIRS + [(rng.choice(_FIELD_SIZES), rng.choice(_FIELD_SIZES))
                           for _ in range(count)]


def _element(rng, L, den=True):
    f = get_field(L)
    return Cyclotomic(f, f.normalize(rng.randint(1, 4) if den else 1,
                                     [rng.randint(-3, 3) for _ in range(f.phi)]))


def _in_subfield(a, g):
    # a is in Q(zeta_g) exactly when every sigma_k with k = 1 mod g fixes it
    f = a.field
    return all(f._conjugate(a.raw, k) == a.raw for k in range(1, f.L + 1, g)
               if math.gcd(k, f.L) == 1)


def _compositum_eq(a, b):
    # the route before the common subfield: both sides in Q(zeta_lcm)
    L = math.lcm(a.field.L, b.field.L)
    return a.embed(L).raw == b.embed(L).raw


def test_cross_field_equality_matches_the_compositum():
    rng = random.Random(29)
    verdicts = set()
    for L1, L2 in _field_pairs(rng, 120):
        g = math.gcd(L1, L2)
        x = _element(rng, g)
        for a, b in [(x.embed(L1), x.embed(L2)),
                     (x.embed(L1), (x + _element(rng, g)).embed(L2)),
                     (_element(rng, L1), x.embed(L2)),
                     (x.embed(L1), _element(rng, L2)),
                     (x.embed(L1) + _element(rng, L1, den=False), x.embed(L2))]:
            want = _compositum_eq(a, b)
            assert (a == b) == want == (b == a), (L1, L2, a, b)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_descent_keeps_members_and_rejects_the_rest():
    rng = random.Random(31)
    kinds = set()
    for L1, L2 in _field_pairs(rng, 120):
        g = math.gcd(L1, L2)
        src, dst = get_field(L1), get_field(L2)
        move = descent(src, dst)
        x = _element(rng, g)
        assert move(x.embed(L1).raw) == x.embed(L2).raw, (L1, L2, x)
        assert move(src.zero) == dst.zero
        a = _element(rng, L1)
        member = _in_subfield(a, g)
        got = move(a.raw)
        assert (got is not None) == member, (L1, L2, a)
        if member:
            assert Cyclotomic(dst, got).embed(math.lcm(L1, L2)) == a.embed(math.lcm(L1, L2))
        kinds.add((member, src.phi == totient(g)))
    # both routes, the reindex and the projector, and both outcomes
    assert {(True, True), (False, False), (True, False)} <= kinds


@pytest.mark.parametrize("L, g", [(165, 55), (12, 4), (30, 6), (63, 9), (770, 110),
                                  (105, 15), (7, 1), (84, 6), (45, 1)])
def test_projector_inverts_the_embedding_on_its_pivots(L, g):
    # A R = D I, A the rows of the embedding Q(zeta_g) -> Q(zeta_L) at the pivots
    pivots, den, rows = cyclotomic._projector(L, g)
    n = totient(g)
    assert len(set(pivots)) == len(pivots) == len(rows) == n and den > 0
    f = get_field(L)
    images = [f.zeta_pow(j * (L // g))[1] for j in range(n)]
    A = [[image[k] for image in images] for k in pivots]
    for i in range(n):
        for j in range(n):
            assert sum(A[i][t] * rows[t][j] for t in range(n)) == (den if i == j else 0)


def test_inverse_one_plus_is_the_field_inverse():
    for den in range(1, 41):
        for num in range(den):
            c = root_of_unity(num, den)
            if den // math.gcd(num, den) == 2:
                with pytest.raises(InverseOfZero):
                    inverse_one_plus(num, den)
                continue
            got = inverse_one_plus(num, den)
            assert got.field.L == den
            assert got.raw == (1 + c).inv().raw, (num, den)
