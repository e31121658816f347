import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qrank import series as series_module
from qrank.cyclotomic import Cyclotomic, get_field, root_of_unity
from qrank.errors import FractionalExponents, NonGenericParameter
from qrank.series import Monomial, QSeries, eta_J, eta_quotient, linear_sum, root_sum

F = Fraction


def poly(coeffs, order=None, start=0):
    """Series with integer coefficients coeffs[i] at exponent start + i."""
    if order is None:
        order = start + len(coeffs) + 10
    return root_sum(((c, 0, F(start + i)) for i, c in enumerate(coeffs) if c), 1, order)


def naive_eta(m, order):
    """Independent oracle: expand prod_{k <= order/m} (1 - q^{mk}) directly."""
    coeffs = {0: 1}
    k = 1
    while m * k < order:
        new = dict(coeffs)
        for e, c in coeffs.items():
            if e + m * k < order:
                new[e + m * k] = new.get(e + m * k, 0) - c
        coeffs = {e: c for e, c in new.items() if e < order}
        k += 1
    return coeffs


# -- monomials ----------------------------------------------------------------


def test_monomial_normalization():
    assert Monomial.zeta(2, 6) == Monomial.zeta(1, 3)
    assert Monomial.zeta(6, 6) == Monomial.one()
    assert -Monomial.one() == Monomial.minus_one()


def test_monomial_roots_consistent():
    z = Monomial.zeta(2, 7, F(3))
    w = z.root(3)
    assert w ** 3 == z
    assert z.pow_frac(2, 3) == w ** 2
    assert z.pow_frac(-2, 3) == (w ** 2).inverse()
    one = z * z.inverse()
    assert one.coeff_is_one and one.q_exp == 0


def test_monomial_coeff_value():
    m = Monomial.zeta(1, 4)
    assert m.coeff() == root_of_unity(1, 4)
    assert (m ** 2).coeff() == -1


@dataclass(frozen=True)
class _DataclassMonomial:
    """The frozen-dataclass Monomial that the slotted class replaced, kept as
    the reference for its values, equality, hash, str and repr."""

    __qualname__ = "Monomial"  # so the dataclass repr reads as the library's

    zeta_num: int
    zeta_den: int
    q_exp: Fraction

    def __post_init__(self):
        num, den = self.zeta_num, self.zeta_den
        if den < 1:
            raise ValueError("root order must be positive")
        num %= den
        g = math.gcd(num, den)
        if num == 0:
            num, den = 0, 1
        elif g > 1:
            num, den = num // g, den // g
        object.__setattr__(self, "zeta_num", num)
        object.__setattr__(self, "zeta_den", den)
        object.__setattr__(self, "q_exp", Fraction(self.q_exp))

    @staticmethod
    def q(exp=1):
        return _DataclassMonomial(0, 1, Fraction(exp))

    @staticmethod
    def zeta(num, den, exp=0):
        return _DataclassMonomial(num, den, Fraction(exp))

    def __mul__(self, other):
        den = math.lcm(self.zeta_den, other.zeta_den)
        num = self.zeta_num * (den // self.zeta_den) + other.zeta_num * (den // other.zeta_den)
        return _DataclassMonomial(num, den, self.q_exp + other.q_exp)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        return _DataclassMonomial(-self.zeta_num, self.zeta_den, -self.q_exp)

    def __neg__(self):
        return self * _DataclassMonomial(1, 2, 0)

    def __pow__(self, n):
        return _DataclassMonomial(self.zeta_num * n, self.zeta_den, self.q_exp * n)

    def pow_frac(self, p, r):
        return _DataclassMonomial(self.zeta_num * p, self.zeta_den * r, self.q_exp * Fraction(p, r))

    def root(self, r):
        return self.pow_frac(1, r)

    def is_one(self):
        return self.zeta_num == 0 and self.q_exp == 0

    def __str__(self):
        parts = []
        if self.zeta_num:
            if (self.zeta_num, self.zeta_den) == (1, 2):
                parts.append("-1")
            else:
                parts.append("zeta%d^%d" % (self.zeta_den, self.zeta_num))
        if self.q_exp:
            parts.append("q^%s" % self.q_exp)
        return "*".join(parts) if parts else "1"


def _monomial_draws(rng, count):
    """(zeta_num, zeta_den, q_exp) with negative and zero numerators,
    non-reduced roots, and int, integral Fraction and fractional exponents."""
    draws = [(0, 1, 2), (0, 1, F(2)), (0, 1, 0), (3, 6, F(-4, 6)), (-7, 7, F(0)), (1, 2, 0)]
    for _ in range(count):
        den = rng.randint(1, 24)
        num = rng.choice([0, den, -den, rng.randint(-3 * den, 3 * den)])
        exp = rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9)),
                          F(rng.randint(-12, 12), rng.randint(1, 6))])
        draws.append((num, den, exp))
    return draws


def _same(new, ref):
    assert isinstance(new, Monomial) and type(new.q_exp) is Fraction, (new, ref)
    assert (new.zeta_num, new.zeta_den, new.q_exp) == (ref.zeta_num, ref.zeta_den, ref.q_exp)
    assert (str(new), repr(new), hash(new)) == (str(ref), repr(ref), hash(ref))


def test_monomial_matches_the_dataclass_reference():
    rng = random.Random(2311)
    draws = _monomial_draws(rng, 300)
    pairs = [(Monomial(*d), _DataclassMonomial(*d)) for d in draws]
    for new, ref in pairs:
        _same(new, ref)
        _same(Monomial.q(new.q_exp), _DataclassMonomial.q(ref.q_exp))
        _same(Monomial.zeta(new.zeta_num, new.zeta_den),
              _DataclassMonomial.zeta(ref.zeta_num, ref.zeta_den))
        for op in (lambda m: m.inverse(), lambda m: -m, lambda m: m.root(3),
                   lambda m: m.pow_frac(-2, 5), lambda m: m ** 0, lambda m: m ** 3,
                   lambda m: m ** -2):
            _same(op(new), op(ref))
        assert (new.coeff_is_one and new.q_exp == 0) == ref.is_one()
        assert new.coeff_is_one == (ref.zeta_num == 0)
    for (a, ra), (b, rb) in zip(pairs, pairs[1:] + pairs[:1]):
        _same(a * b, ra * rb)
        _same(a / b, ra / rb)
        _same(a * a, ra * ra)
        _same(a / a, ra / ra)
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
    # equal values hash alike, whatever the exponent was built from
    assert Monomial(0, 1, 2) == Monomial(0, 1, F(2)) == Monomial.q(2)
    assert hash(Monomial(0, 1, 2)) == hash(Monomial(0, 1, F(2))) \
        == hash(_DataclassMonomial(0, 1, 2))
    assert Monomial(2, 6, 1) == Monomial(1, 3, F(2, 2)) and Monomial(1, 3, 1) != Monomial(1, 3, 2)
    assert Monomial(0, 1, 2) != (0, 1, F(2))
    assert len({Monomial(0, 1, 2), Monomial(0, 1, F(2)), Monomial(5, 5, F(4, 2))}) == 1
    for bad in ((1, 0, 0), (1, -3, 0)):
        with pytest.raises(ValueError):
            Monomial(*bad)
        with pytest.raises(ValueError):
            _DataclassMonomial(*bad)


def test_monomial_is_immutable():
    for m, ref in ((Monomial(1, 5, F(1, 3)), _DataclassMonomial(1, 5, F(1, 3))),
                   (Monomial.one(), _DataclassMonomial(0, 1, 0))):
        for name in ("zeta_num", "zeta_den", "q_exp", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, 1)
            with pytest.raises(FrozenInstanceError):
                setattr(ref, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(m, name)
        assert not hasattr(m, "__dict__")
        assert copy.copy(m) == copy.deepcopy(m) == pickle.loads(pickle.dumps(m)) == m
    assert (Monomial(1, 5, F(1, 3)).zeta_num, Monomial.one().q_exp) == (1, 0)


@pytest.mark.parametrize("exp", [0.1, 0.5, 2.0, "1/3", None, 1j])
def test_monomial_rejects_an_exponent_that_is_not_an_int_or_a_fraction(exp):
    # a float would become its binary fraction: 0.1 -> 3602879701896397/2^55
    with pytest.raises(TypeError):
        Monomial(1, 2, exp)
    with pytest.raises(TypeError):
        Monomial.zeta(1, 2, exp)
    with pytest.raises(TypeError):
        Monomial.q(exp)


# -- series ring operations -----------------------------------------------------


def test_basic_products():
    one_plus = poly([1, 1], order=10)
    one_minus = poly([1, -1], order=10)
    prod = one_plus * one_minus
    assert prod.agrees_with(poly([1, 0, -1], order=10), 10)


def test_add_identity_and_truncation_propagation():
    a = poly([2, 0, 5], order=7)
    z = QSeries.zero(4)
    s = a + z
    assert s.order == 4
    assert s.agrees_with(a, 4)
    b = poly([1], order=3)
    assert (a * b).order == 3


def test_mul_prec_uses_valuations():
    # (q^2 + O(q^5)) * (q^3 + O(q^4)) is known through q^6
    a = poly([1], order=5, start=2)
    b = poly([1], order=4, start=3)
    assert (a * b).order == 6


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(20):
        a = poly([rng.randint(-4, 4) for _ in range(6)], order=8)
        b = poly([rng.randint(-4, 4) for _ in range(6)], order=8)
        c = poly([rng.randint(-4, 4) for _ in range(6)], order=8)
        assert ((a + b) + c).agrees_with(a + (b + c), 8)
        assert ((a * b) * c).agrees_with(a * (b * c), 8)
        assert (a * (b + c)).agrees_with(a * b + a * c, 8)


def test_invert_geometric():
    inv = poly([1, -1], order=8).invert()
    assert inv.agrees_with(poly([1] * 8, order=8), 8)


def test_invert_two_sided():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(7)]
        a = poly(coeffs, order=8)
        inv = a.invert()
        assert (a * inv).agrees_with(QSeries.one(), 8)
        assert (inv * a).agrees_with(QSeries.one(), 8)


def test_invert_negative_valuation():
    # q^-2 * (1 - q), inverse must carry valuation +2 and gain precision
    a = poly([1, -1], order=4, start=-2)
    inv = a.invert()
    assert inv.valuation == 2
    assert (a * inv).agrees_with(QSeries.one(), 4)


def test_invert_zero_series_raises():
    with pytest.raises(NonGenericParameter):
        QSeries.zero(5).invert()


def test_invert_partition_counts():
    # 1/J_1 is the partition generating function; sympy provides the oracle
    from sympy.functions.combinatorial.numbers import partition

    inv = eta_J(1, 12).invert()
    for n in range(12):
        assert inv.coeff(n).as_fraction() == partition(n), n
    assert inv.coeff(4).as_fraction() == 5  # five partitions of 4


def test_eta_J_matches_naive_product():
    for m in (1, 2, 3):
        J = eta_J(m, 20)
        oracle = naive_eta(m, 20)
        for n in range(20):
            assert J.coeff(n).as_fraction() == oracle.get(n, 0), (m, n)


def test_eta_J_pentagonal():
    J = eta_J(1, 13)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    for n in range(13):
        assert J.coeff(n).as_fraction() == expected.get(n, 0)
    J2 = eta_J(2, 5)
    assert str(J2).startswith("1 - q^2 - q^4")


def test_eta_J_beyond_order_is_one():
    assert eta_J(9, 5).agrees_with(QSeries.one(), 5)


@pytest.mark.parametrize("order", [0, -2])
def test_eta_products_at_order_at_most_zero_are_zero(order):
    # like theta_j and QSeries.zero: 0 + O(q^order), nothing stored
    for s in (eta_J(1, order), eta_J(F(1, 2), order),
              eta_quotient({2: 1, 1: -2}, order), QSeries.one(order),
              QSeries.scalar(5, order), QSeries.scalar(root_of_unity(1, 3), order)):
        assert s.is_zero() and s.order == order
        assert str(s) == "0 + O(q^%d)" % order


def test_eta_quotient_overpartitions():
    # J_2 / J_1^2 generates overpartition counts; 14 overpartitions of 4
    pbar = eta_quotient({2: 1, 1: -2}, 10)
    assert [pbar.coeff(n).as_fraction() for n in range(7)] == [1, 2, 4, 8, 14, 24, 40]


def _eta_quotient_by_products(spec, order):
    """The route `eta_quotient` replaced: one eta_J per step, raised to its
    power through repeated series products and a Newton inverse."""
    if order <= 0:
        return QSeries.zero(order)
    out = None
    for m, e in sorted(spec.items()):
        J = eta_J(F(m), F(order))
        J, factor = J if e > 0 else J.invert(), QSeries.one()
        for _ in range(abs(e)):
            factor = factor * J
        out = factor if out is None else out * factor
    return QSeries.one(F(order)) if out is None else out


def _eta_quotient_cases():
    steps = list(range(1, 37)) + [F(1, 2), F(2, 3), F(3, 2)]
    orders = list(range(1, 61)) + [F(13, 2), 0, -2, F(-1, 2)]
    cases = [({}, 7), ({}, F(13, 2)), ({}, 0),
             ({40: 3, 61: -2}, 30), ({5: 2, 7: -1}, 5), ({36: -12, 2: 1}, 36),
             ({1: -2}, 0), ({F(1, 2): 3}, -2)]
    rng = random.Random(1018)
    for _ in range(300):
        spec = {rng.choice(steps): rng.randint(-12, 12) for _ in range(rng.randint(1, 6))}
        cases.append((spec, rng.choice(orders)))
    return cases


def test_eta_quotient_matches_product_route():
    # the integer recurrence gives the same serialized series as products
    # and inverses of eta_J, including L, D and the order
    for spec, order in _eta_quotient_cases():
        expected = _eta_quotient_by_products(spec, order)
        if order > 0 and spec and not any(spec.values()):
            # J^0 = 1: the product route returned the exact series 1 here
            expected = QSeries.one(F(order))
        assert eta_quotient(spec, order).to_json_dict() == expected.to_json_dict(), (spec, order)


def test_eta_quotient_rejects_nonpositive_steps():
    with pytest.raises(ValueError):
        eta_quotient({0: 1}, 5)
    with pytest.raises(ValueError):
        eta_quotient({-2: 0}, 5)


def _eta_recurrence(spec, order):
    """`eta_quotient` without its cache: the integer recurrence, run afresh."""
    order = F(order)
    if order <= 0:
        return QSeries.zero(order)
    spec = {F(m): e for m, e in spec.items()}
    den = math.lcm(order.denominator, *(m.denominator for m, e in spec.items() if e))
    prec = int(order * den)
    steps = [(int(m * den), e) for m, e in spec.items() if e and m * den < prec]
    g = math.gcd(*(s for s, _ in steps)) if steps else prec
    size = -(-prec // g)
    c = [0] * size
    for s, e in steps:
        for d in range(s // g, size, s // g):
            for n in range(d, size, d):
                c[n] -= e * d
    f = [1]
    for n in range(1, size):
        f.append(sum(c[k] * f[n - k] for k in range(1, n + 1)) // n)
    field = get_field(1)
    vec = [field.zero] * ((size - 1) * g + 1)
    for i, x in enumerate(f):
        if x:
            vec[i * g] = (1, (x,))
    return QSeries(field, den, 0, tuple(vec), prec)


@pytest.mark.parametrize("order", [0, -2, F(1, 2), F(13, 2), 7, F(20, 3)])
def test_eta_quotient_cache_matches_the_uncached_recurrence(order):
    # reordered specs, int and Fraction keys and zero exponents name one
    # expansion, and each gives the uncached recurrence's series
    series_module._eta_expansion.cache_clear()
    specs = [{2: 1, 1: -2}, {1: -2, 2: 1}, {F(2): 1, F(1): -2}, {2: 1, 1: -2, 5: 0},
             {F(1, 2): 3, 3: -1}, {3: -1, F(1, 2): 3}, {F(3, 2): 2, 6: 0, 4: -1}, {}, {7: 0}]
    for spec in specs:
        got = eta_quotient(spec, order)
        assert got.to_json_dict() == _eta_recurrence(spec, order).to_json_dict(), (spec, order)
        assert eta_quotient(dict(reversed(list(spec.items()))), order) is got
    assert eta_quotient({1: -2, 2: 1}, order) is eta_quotient({F(2): 1, F(1): -2}, F(order))
    info = series_module._eta_expansion.cache_info()
    assert info.currsize == len(specs) - 3 and info.hits > info.misses


def test_eta_quotient_cache_is_a_module_level_lru_cache():
    # found and cleared like every other library cache, by attribute
    caches = [v for v in vars(series_module).values() if hasattr(v, "cache_clear")]
    assert series_module._eta_expansion in caches
    eta_quotient({2: 1, 1: -2}, 11)
    assert series_module._eta_expansion.cache_info().currsize > 0
    series_module._eta_expansion.cache_clear()
    assert series_module._eta_expansion.cache_info().currsize == 0
    with pytest.raises(ValueError):
        eta_quotient({0: 1, 1: 1}, 5)  # raised again, not cached
    with pytest.raises(ValueError):
        eta_quotient({1: 1, 0: 1}, 5)


def test_dissect_roundtrip():
    a = poly([1, 1, 1, 1], order=4)
    parts = a.dissect(2)
    assert parts[0].agrees_with(poly([1, 1], order=2), 2)
    assert parts[1].agrees_with(poly([1, 1], order=2), 2)
    J = eta_J(1, 15)
    comps = J.dissect(3)
    rebuilt = QSeries.zero(15)
    for k, c in enumerate(comps):
        rebuilt = rebuilt + c.substitute_q_power(3).shift(Monomial.q(k))
    assert rebuilt.agrees_with(J, 15)


@pytest.mark.parametrize("parts", [0, -2])
def test_dissect_rejects_fewer_than_one_part(parts):
    with pytest.raises(ValueError):
        eta_J(1, 6).dissect(parts)


def test_dissect_fractional_raises():
    s = eta_J(1, 6).substitute_q_power(F(1, 2))
    with pytest.raises(FractionalExponents):
        s.dissect(2)
    # a fractional order does not hide a fractional exponent
    with pytest.raises(FractionalExponents):
        eta_J(1, 6).substitute_q_power(F(1, 2)).truncate(F(7, 3)).dissect(2)


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_dissect_at_a_fractional_order(parts):
    # integral exponents known below 13/2 are known through q^6, as below 7:
    # component k is known below ceil((13/2 - k) / parts)
    J = eta_J(1, 20)
    for order in (F(13, 2), F(20, 3), F(-3, 2)):
        got = J.truncate(order).dissect(parts)
        whole = J.truncate(math.ceil(order)).dissect(parts)
        assert [c.to_json_dict() for c in got] == [c.to_json_dict() for c in whole]
        assert [c.order for c in got] == [math.ceil((order - k) / parts) for k in range(parts)]


def test_substitute_q_power():
    assert poly([1, 1], order=5).substitute_q_power(2).agrees_with(
        poly([1, 0, 1], order=10), 10)
    assert eta_J(1, 7).substitute_q_power(3).agrees_with(eta_J(3, 21), 21)
    a = poly([1, 2, 3], order=6)
    assert a.substitute_q_power(1) == a


def test_substitute_fractional_and_back():
    a = eta_J(1, 8)
    half = a.substitute_q_power(F(1, 2))
    assert half.order == 4
    assert half.substitute_q_power(2).agrees_with(a, 8)


def test_shift_by_monomial():
    a = poly([1, 1], order=6)
    m = Monomial.zeta(1, 3, F(2))
    shifted = a.shift(m)
    assert shifted.valuation == 2
    assert shifted.coeff(2) == root_of_unity(1, 3)
    assert shifted.order == 8


def test_cyclotomic_coefficients_mix():
    z = QSeries.from_monomial(Monomial.zeta(1, 3), order=5)
    s = z + QSeries.one(5)
    assert s.coeff(0) == 1 + root_of_unity(1, 3)
    prod = s * s
    expected = (1 + root_of_unity(1, 3)) ** 2
    assert prod.coeff(0) == expected


def test_zero_normal_form():
    s = poly([1], order=6) - poly([1], order=6)
    assert s.is_zero()
    assert s.coeffs == ()
    assert s.order == 6


def test_first_difference_reports_mismatch():
    a = poly([1, 2, 3], order=6)
    b = poly([1, 2, 4], order=6)
    diff = a.first_difference(b, 6)
    assert diff[0] == 2
    assert diff[1].as_fraction() == 3
    assert diff[2].as_fraction() == 4


def _compositum_first_difference(a, b, order):
    # the route before the common subfield: both series in Q(zeta_lcm)
    field, den = get_field(math.lcm(a.field.L, b.field.L)), math.lcm(a.den, b.den)
    a, b = a._with(field, den), b._with(field, den)
    bound = math.ceil(order * den)
    lo = min(a.val if a.coeffs else bound, b.val if b.coeffs else bound)
    for k in range(lo, bound):
        ca, cb = a.coeff(F(k, den)), b.coeff(F(k, den))
        if ca.raw != cb.raw:
            return F(k, den), ca, cb
    return None


def _random_cyclotomic(rng, L):
    f = get_field(L)
    if rng.random() < 0.2:
        return Cyclotomic(f, f.zero)
    return Cyclotomic(f, f.normalize(rng.randint(1, 3), [rng.randint(-3, 3) for _ in range(f.phi)]))


def test_first_difference_matches_the_compositum_route():
    # random field pairs with odd and even parts and L = 2 mod 4; both sides
    # hold members of the common subfield Q(zeta_g), equal or not, and one
    # coefficient may be replaced by an element of its own field, a
    # non-member unless that field is Q(zeta_g)
    rng = random.Random(41)
    sizes = list(range(1, 31)) + [42, 63, 70, 84, 90, 105, 110, 165, 770]
    pairs = [(105, 70), (110, 770), (165, 770), (770, 165), (6, 3)]
    pairs += [(rng.choice(sizes), rng.choice(sizes)) for _ in range(60)]
    seen = set()
    for L1, L2 in pairs:
        g = math.gcd(L1, L2)
        for _ in range(4):
            vals = [_random_cyclotomic(rng, g) for _ in range(rng.randint(0, 6))]
            left, right = [v.embed(L1) for v in vals], [v.embed(L2) for v in vals]
            kind = rng.choice(["equal", "member", "own field", "tail"])
            if vals and kind != "equal":
                i = rng.randrange(len(vals))
                if kind == "member":
                    right[i] = (vals[i] + _random_cyclotomic(rng, g)).embed(L2)
                elif kind == "own field":
                    left[i] = _random_cyclotomic(rng, L1)
                else:
                    right.append(_random_cyclotomic(rng, g).embed(L2))
            den1, den2 = rng.choice([(1, 1), (1, 2), (2, 1), (3, 2)])
            val = rng.randint(-2, 2)
            a = QSeries(get_field(L1), den1, val * den1,
                        tuple(c.raw for c in left), (val + 9) * den1)
            b = QSeries(get_field(L2), den2, val * den2,
                        tuple(c.raw for c in right), (val + 9) * den2)
            for order in (F(val + 9), F(val + 3), F(2 * val + 7, 2)):
                got, want = a.first_difference(b, order), _compositum_first_difference(a, b, order)
                assert (got is None) == (want is None), (L1, L2, order)
                if got is not None:
                    L = math.lcm(L1, L2)
                    assert got[0] == want[0]
                    assert got[1].field.L == L1 and got[2].field.L == L2
                    assert got[1].embed(L).raw == want[1].raw and got[2].embed(L).raw == want[2].raw
                seen.add(got is None)
            assert (a == b) == (a.first_difference(b, F(val + 9)) is None) == (b == a)
    assert seen == {True, False}


def test_compare_beyond_order_raises():
    a = poly([1], order=3)
    with pytest.raises(ValueError):
        a.first_difference(poly([1], order=10), 5)


@pytest.mark.parametrize("order", [F(13, 2), F(20, 3), F(25, 4)], ids=str)
def test_orders_finer_than_the_series_denominator(order):
    # series over q and q^{1/2} meet an order with a finer denominator
    for e in (F(1), F(3, 2)):
        m = QSeries.from_monomial(Monomial.zeta(1, 3, e), order)
        assert m.order == order
        assert m.coeff(e) == root_of_unity(1, 3)
    a = poly([1, 2, 3, 4, 5, 6, 7, 8], order=8)
    b = poly([1, 2, 3, 4, 5, 6, 0, 8], order=8)
    assert a.first_difference(b, order)[0] == 6
    assert a.agrees_with(b, 6)
    with pytest.raises(ValueError):
        a.first_difference(poly([1], order=6), order)


def test_json_serialization():
    s = (QSeries.from_monomial(Monomial.zeta(1, 3), order=3) + QSeries.one(3))
    doc = s.to_json_dict()
    assert doc["L"] == 3
    assert doc["D"] == 1
    assert doc["order"] == "3"
    assert doc["terms"] == [[0, ["1", "1"]]]


# -- packed product and Newton inversion against naive references ------------------


def random_series(rng, L, den, val, length, prec_gap):
    """Series over Q(zeta_L) with exponents (val + i) / den, dense random
    coordinates, a random denominator per coefficient and about a quarter of
    the coefficients after the first zero; prec_gap None makes it exact."""
    field = get_field(L)
    coeffs = []
    for i in range(length):
        if i and rng.random() < 0.25:
            coeffs.append(field.zero)
        else:
            vec = [rng.randint(-9, 9) for _ in range(field.phi)]
            vec[0] = vec[0] or 1
            coeffs.append(field.normalize(rng.choice((1, 1, 2, 3, 10, 12)), vec))
    prec = None if prec_gap is None else val + length + prec_gap
    return QSeries(field, den, val, coeffs, prec)


def naive_mul(a, b):
    """Schoolbook product, one term product per pair of terms.  A term
    product embeds both coefficients in Q(zeta_L) (`Cyclotomic.embed`),
    convolves their vectors by a schoolbook loop and reduces mod Phi_L, so
    it never runs `CyclotomicField.product`, the multiply under test."""
    L = math.lcm(a.field.L, b.field.L)
    field = get_field(L)

    def times(x, y):
        (dx, vx), (dy, vy) = x.embed(L).raw, y.embed(L).raw
        conv = [0] * (len(vx) + len(vy) - 1)
        for i, c in enumerate(vx):
            for j, d in enumerate(vy):
                conv[i + j] += c * d
        return Cyclotomic(field, field.normalize(dx * dy, field.reduce_vec(conv)))

    den = math.lcm(a.den, b.den)
    bounds = []
    for s, o in ((a, b), (b, a)):
        if s.order is not None:
            # unknown terms of s enter shifted by o's lowest exponent
            v = o.valuation if o.coeffs else o.order
            bounds.append(s.order + (v if v is not None else 0))
    order = min(bounds, default=None)
    acc = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            e = ea + eb
            if order is None or e < order:
                acc[e] = acc.get(e, Cyclotomic.from_fraction(0, L)) + times(ca, cb)
    prec = None if order is None else int(order * den)
    if not acc:
        return QSeries(field, den, 0, (), prec)
    val = int(min(acc) * den)
    vec = [field.zero] * (int(max(acc) * den) - val + 1)
    for e, c in acc.items():
        vec[int(e * den) - val] = c.embed(L).raw
    return QSeries(field, den, val, vec, prec)


@pytest.mark.parametrize("L", [1, 3, 5, 12, 21, 72])
def test_packed_product_matches_naive(L):
    rng = random.Random(L)
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    # (length, prec_gap) shapes: dense, exact, one-term, zero-to-order
    shapes = [(9, 2), (14, None), (1, 0), (1, None), (0, 3), (0, None), (6, 0)]
    if L in (1, 72):
        shapes.append((100 if L == 1 else 10, 1))  # long factors
    for sa in shapes:
        for sb in shapes:
            a = random_series(rng, L, rng.choice((1, 2, 3)), rng.randint(-6, 4), *sa)
            b = random_series(rng, rng.choice(divisors), rng.choice((1, 2)),
                              rng.randint(-4, 6), *sb)
            expect = naive_mul(a, b)
            got = a * b
            assert got == expect, (L, sa, sb)
            assert got.to_json_dict() == expect.to_json_dict(), (L, sa, sb)
            assert (b * a).to_json_dict() == expect.to_json_dict(), (L, sa, sb)


def recurrence_invert(s, order=None):
    """The O(n^2) coefficient recurrence for 1/s, over s's own denominator."""
    field = s.field
    target = None if order is None else int(F(order) * s.den)
    out_prec = None if s.prec is None else s.prec - 2 * s.val
    if target is not None:
        out_prec = target if out_prec is None else min(out_prec, target)
    u = s.coeffs
    inv = [field.inv(u[0])]
    neg_c0i = field.neg(inv[0])
    for k in range(1, out_prec + s.val):
        acc = field.zero
        for i in range(1, min(k, len(u) - 1) + 1):
            acc = field.add(acc, field.mul(u[i], inv[k - i]))
        inv.append(field.mul(neg_c0i, acc))
    return QSeries(field, s.den, -s.val, inv, out_prec)


@pytest.mark.parametrize("rel_len", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17])
def test_newton_invert_matches_recurrence(rel_len):
    rng = random.Random(100 + rel_len)
    for L, den in ((1, 1), (5, 2), (12, 1), (21, 3)):
        val = rng.randint(-3, 3)
        # truncated: 1/s is known to rel_len terms past its valuation
        s = random_series(rng, L, den, val, rel_len, 0)
        got = s.invert()
        assert len(got.coeffs) <= rel_len and got.prec - got.val == rel_len
        assert got.to_json_dict() == recurrence_invert(s).to_json_dict(), (L, val)
        # exact: the target order fixes the length
        e = random_series(rng, L, den, abs(val), rng.randint(1, 6), None)
        order = F(rel_len - e.val, den)
        got = e.invert(order)
        assert got.prec - got.val == rel_len
        assert got.to_json_dict() == recurrence_invert(e, order).to_json_dict(), (L, val)
        prod = e * got
        assert prod.order >= order
        assert prod.agrees_with(QSeries.one(), order)


def test_newton_invert_vanishing_raises():
    field = get_field(12)
    with pytest.raises(NonGenericParameter):
        QSeries(field, 2, 0, (), 7, _normalized=True).invert()
    with pytest.raises(NonGenericParameter):
        poly([0, 0, 0, 1], order=10).truncate(3).invert(10)


def test_repeated_products_and_inverses_match_naive():
    # the repeated products and Newton inverses the library builds powers
    # from (eta quotients run a recurrence instead): a chain of packed
    # products against schoolbook ones, and the inverse of a product
    # against the product of inverses
    rng = random.Random(3)
    for L, den, val, gap in ((1, 1, 0, 0), (5, 2, -1, 3), (12, 1, 2, None), (3, 3, 0, 0)):
        s = random_series(rng, L, den, val, 5, gap)
        if gap is None:
            s = s.truncate(F(val + 9, den))
        packed = naive = QSeries.one()
        for n in range(1, 6):
            packed, naive = packed * s, naive_mul(naive, s)
            assert packed.to_json_dict() == naive.to_json_dict(), (L, n)
        inv = s.invert()
        cube = s * s * s
        cubed = naive_mul(naive_mul(inv, inv), inv)
        assert (inv * inv * inv).to_json_dict() == cubed.to_json_dict()
        assert cube.invert().agrees_with(inv * inv * inv, min(cube.invert().order, inv.order))
        product = cube * (inv * inv * inv)
        assert product.order is not None and product.agrees_with(QSeries.one(), product.order)


# -- root_sum ---------------------------------------------------------------


@pytest.mark.parametrize("L", [1, 2, 5, 12, 21])
def test_root_sum_matches_field_arithmetic(L):
    # colliding exponents, zeta-indices beyond L and negative, Fraction
    # weights, terms at and beyond the order
    rng = random.Random(L)
    field = get_field(L)
    order = F(7, 2)
    terms = [(rng.choice([1, -1, 3, F(2, 3), F(-5, 4)]), rng.randrange(-3 * L, 3 * L),
              F(rng.randrange(-4, 9), rng.choice([1, 2])))
             for _ in range(40)]
    expected = {}
    for w, k, e in terms:
        if e < order:
            expected[e] = expected.get(e, Cyclotomic(field, field.zero)) + \
                Cyclotomic(field, field.zeta_pow(k)) * w
    got = root_sum(terms, L, order)
    assert got.field.L == L and got.order == order and got.den == 2
    for e, c in got.terms():
        assert e < order and c == expected.pop(e)
    assert all(c.is_zero() for c in expected.values())


def test_root_sum_cancellation_and_empty():
    assert root_sum([(1, 1, 2), (-1, 4, 2), (7, 0, 5)], 3, 5).is_zero()
    s = root_sum([], 6, F(5, 2))
    assert s.is_zero() and s.order == F(5, 2) and s.field.L == 6
    # 1 + zeta_4^2 q = 1 - q: coefficients land in the reduced basis
    assert str(root_sum([(1, 0, 0), (1, 2, 1)], 4, 3)) == "1 - q + O(q^3)"


# -- division: `/` is multiplication by the inverse ----------------------------

DIVIDEND = root_sum([(1, 0, 0), (2, 1, 1), (-3, 4, 3), (F(1, 2), 7, 4), (5, 2, 9)], 15, 12)


def test_truediv_by_a_series():
    # q^-1 (1 + zeta_5^2 q - q^3): the quotient gains one order and lands in Q(zeta_15)
    divisor = root_sum([(1, 0, -1), (1, 2, 0), (-1, 0, 2)], 5, 12)
    got = DIVIDEND / divisor
    assert got == DIVIDEND * divisor.invert()
    assert got.field.L == 15 and got.order == 13
    assert (got * divisor).agrees_with(DIVIDEND, 12)


def test_truediv_by_an_exact_series():
    # the dividend's order fixes the quotient's, so an exact divisor is
    # inverted as far as the quotient needs
    one_plus_q = QSeries.one() + QSeries.from_monomial(Monomial.q(1))
    got = QSeries.one(10) / one_plus_q
    assert str(got) == "1 - q + q^2 - q^3 + q^4 - q^5 + q^6 - q^7 + q^8 - q^9 + O(q^10)"
    divisor = linear_sum([(1, QSeries.from_monomial(Monomial.q(-1))),
                          (root_of_unity(2, 5), QSeries.one()),
                          (-1, QSeries.from_monomial(Monomial.q(2)))])
    got = DIVIDEND / divisor
    assert got.order == 13 and got == DIVIDEND / divisor.truncate(30)
    half = DIVIDEND.shift(Monomial.q(F(1, 2)))
    assert half / divisor == got.shift(Monomial.q(F(1, 2)))
    assert QSeries.zero(7) / divisor == QSeries.zero(8)
    with pytest.raises(ValueError, match="requires a target order"):
        QSeries.one() / one_plus_q


@pytest.mark.parametrize("c", [3, -2, F(7, 4)], ids=str)
def test_truediv_by_a_rational(c):
    got = DIVIDEND / c
    assert got == DIVIDEND.scale(F(1) / F(c))
    assert got.scale(c) == DIVIDEND


def test_truediv_by_a_cyclotomic():
    c = 2 + root_of_unity(1, 3) - root_of_unity(2, 5)
    got = DIVIDEND / c
    assert got == DIVIDEND.scale(c.inv())
    assert got.field.L == 15 and got.scale(c) == DIVIDEND


def test_truediv_by_a_monomial():
    m = Monomial.zeta(2, 3, F(-1, 2))
    got = DIVIDEND / m
    assert got == DIVIDEND.shift(m.inverse())
    assert got.order == F(25, 2) and got.coeff(F(1, 2)) == root_of_unity(-2, 3)
    assert got.shift(m).agrees_with(DIVIDEND, 12)


def test_truediv_by_something_else_is_a_type_error():
    with pytest.raises(TypeError):
        DIVIDEND / "q"


# -- linear_sum against coefficient-wise Cyclotomic arithmetic ---------------


def _raw(field, draw):
    """A random element of `field` with a denominator in 1..3, as a Raw."""
    vec = draw(st.lists(st.integers(-4, 4), min_size=field.phi, max_size=field.phi))
    return field.normalize(draw(st.integers(1, 3)), vec)


@st.composite
def _sum_series(draw):
    field = get_field(draw(st.sampled_from([1, 3, 5, 7, 15, 35])))
    den, val = draw(st.integers(1, 3)), draw(st.integers(-4, 4))
    coeffs = [_raw(field, draw) for _ in range(draw(st.integers(0, 5)))]
    prec = draw(st.none() | st.integers(val - 2, val + len(coeffs) + 2))
    if prec is not None:
        coeffs = coeffs[:max(prec - val, 0)]
    return QSeries(field, den, val, coeffs, prec)


@st.composite
def _sum_weights(draw):
    kind = draw(st.sampled_from(["int", "fraction", "root", "dense"]))
    if kind == "int":
        return draw(st.integers(-2, 2))
    if kind == "fraction":
        return F(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    if kind == "root":
        n = draw(st.sampled_from([1, 2, 3, 5, 15]))
        return root_of_unity(draw(st.integers(0, n - 1)), n)
    field = get_field(draw(st.sampled_from([1, 3, 5, 7, 15, 35])))
    return Cyclotomic(field, _raw(field, draw))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.tuples(_sum_weights(), _sum_series()), max_size=4),
       st.none() | st.builds(F, st.integers(-6, 12), st.integers(1, 3)))
def test_linear_sum_matches_coefficientwise_sums(terms, order):
    out = linear_sum(terms, order)
    L, D, top = 1, 1 if order is None else order.denominator, order
    for w, s in terms:
        L = math.lcm(L, s.field.L, w.field.L if isinstance(w, Cyclotomic) else 1)
        D = math.lcm(D, s.den)
        if s.order is not None:
            top = s.order if top is None else min(top, s.order)
    assert (out.field.L, out.den, out.order) == (L, D, top)
    lows = [s.valuation for _, s in terms if s.coeffs]
    highs = [F(s.val + len(s.coeffs), s.den) for _, s in terms if s.coeffs]
    if not lows:
        assert out.is_zero()
        return
    lo, hi = min(lows), max(highs) if top is None else min(max(highs), top)
    assert all(lo <= e < hi for e, _ in out.terms())
    for k in range(math.floor(lo * D), math.ceil(hi * D)):
        e = F(k, D)
        want = Cyclotomic.from_fraction(0)
        for w, s in terms:
            want = want + s.coeff(e) * w
        assert out.coeff(e) == want


def test_equal_series_of_different_fields_and_denominators_hash_alike():
    z3, q2 = Monomial.zeta(1, 3), Monomial.q(2)
    a = QSeries.from_monomial(z3 * q2, 5) + QSeries.one(5)
    b = a._with(get_field(6), 1)
    c = QSeries.from_monomial(q2, 5).scale(root_of_unity(4, 12)) + QSeries.one(5)
    d = (QSeries.from_monomial(z3 * q2, Fraction(11, 2)) + QSeries.one(Fraction(11, 2))).truncate(5)
    half = a._with(get_field(12), 2)  # the same series over Q(zeta_12), in steps of q^(1/2)
    assert [s.field.L for s in (a, b, c, d, half)] == [3, 6, 12, 3, 12]
    assert [s.den for s in (a, b, c, d, half)] == [1, 1, 1, 2, 2]
    for s in (b, c, d, half):
        assert s == a and hash(s) == hash(a)
    assert len({a, b, c, d, half}) == 1
    assert len({a, a + QSeries.from_monomial(Monomial.q(4), 5)}) == 2
    assert hash(QSeries.zero(3)) == hash(QSeries.zero(3)._with(get_field(4), 2))
