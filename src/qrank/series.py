"""Truncated Laurent/Puiseux series in q over cyclotomic coefficients.

A ``QSeries`` stores exponents as integers over a fixed positive denominator
``den`` (the Puiseux denominator), a scaled valuation ``val``, a dense
coefficient vector starting at ``val``, and a scaled truncation bound
``prec``: coefficients of q^e are known exactly for all e*den < prec.  A
``prec`` of ``None`` marks an exact (polynomial) value.  Truncation is
explicit data and propagates through arithmetic via the usual min rule, so an
identity check can never claim agreement beyond what was actually computed.
``linear_sum`` is the one weighted sum: ``+``, ``-``, ``scale`` and every
sum of the formula layer pick their field, denominator and order once there,
and each term's coefficients below the sum's precision are moved into that
field and multiplied by the term's weight in one step, one reduction each.

A product is one call of ``CyclotomicField.product``, the one multiply
path of `qrank.cyclotomic`: one integer convolution and one reduction mod
Phi_L per output coefficient.  Inverses use Newton iteration,
g <- g + g (1 - u g), which doubles the number of correct terms per step and
runs every product through the same call.  Two series are compared with
each in its own field (`first_difference`, ``==``), coefficient by
coefficient through `qrank.cyclotomic.equality`.  Products, quotients and
sums of theta blocks and eta quotients are not built here but by
`qrank.theta.theta_quotient`, in the half ring of `qrank.cyclotomic`.
``root_sum`` builds a sum of signed roots of unity times powers of q (the
Lerch sums and double-divisor factors of the O_d oracle, the enumeration
series of the catalog's `rank-enumeration-d1/d2`) over the integers, with
one reduction mod Phi_L per exponent.  ``eta_quotient`` expands a product of
powers of J_m = (q^m; q^m)_oo by the integer recurrence of its logarithmic
derivative, with no series product or inverse, once per (spec, order): the
expansions sit in a module-level lru cache keyed by the sorted (m, e) pairs.

A ``Monomial`` is a symbolic value zeta_N^k * q^e with rational e.  It is the
only admissible shape for the z/x/z' parameters of the theta and Appell-Lerch
constructors, and it supports exact fractional powers through the canonical
root branch (zeta_N^k)^(1/d) = zeta_{N d}^k.  It is a slotted immutable
value, normalized once when built; its exponent is always a Fraction, and
integral exponents are added and multiplied as ints.  Exponent helpers
(``_scale_exp``, ``truncate``, ``computed_to``) keep a Fraction they are
given instead of wrapping it again.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, wraps

from .cyclotomic import Cyclotomic, CyclotomicField, Raw, equality, get_field, root_of_unity
from .errors import FractionalExponents, NonGenericParameter


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


_set = object.__setattr__  # Monomial's one way to fill its slots


def _frozen(verb: str, name: str) -> Exception:
    """The error a frozen dataclass raises when asked to `verb` field `name`."""
    # imported here: dataclasses loads inspect and ast, which start-up need not pay for
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError("cannot %s field %r" % (verb, name))


class Monomial:
    """zeta_den^num * q^exp with the root of unity stored in lowest terms.

    An immutable value: the root is reduced once, in ``__init__``, and
    ``q_exp`` is always a Fraction, built from an int or kept as the Fraction
    given (any other exponent raises TypeError).  Products, powers and
    inverses add integral exponents as ints.  Equality, hashing, ``repr``
    and the error on assignment are those of a frozen dataclass with the
    three fields."""

    __slots__ = ("zeta_num", "zeta_den", "q_exp")

    def __init__(self, zeta_num: int, zeta_den: int, q_exp: Fraction | int):
        if type(q_exp) is not Fraction:
            if not isinstance(q_exp, (int, Fraction)):
                raise TypeError("q-exponent must be an int or a Fraction, not %r" % (q_exp,))
            q_exp = Fraction(q_exp)
        if zeta_den < 1:
            raise ValueError("root order must be positive")
        zeta_num %= zeta_den
        if zeta_num == 0:
            zeta_den = 1
        else:
            g = math.gcd(zeta_num, zeta_den)
            if g > 1:
                zeta_num, zeta_den = zeta_num // g, zeta_den // g
        _set(self, "zeta_num", zeta_num)
        _set(self, "zeta_den", zeta_den)
        _set(self, "q_exp", q_exp)

    def __setattr__(self, name, value):
        raise _frozen("assign to", name)

    def __delattr__(self, name):
        raise _frozen("delete", name)

    def __reduce__(self):
        return Monomial, (self.zeta_num, self.zeta_den, self.q_exp)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.zeta_num == other.zeta_num and self.zeta_den == other.zeta_den
                and self.q_exp == other.q_exp)

    def __hash__(self):
        return hash((self.zeta_num, self.zeta_den, self.q_exp))

    def __repr__(self):
        return "%s(zeta_num=%r, zeta_den=%r, q_exp=%r)" % (
            type(self).__qualname__, self.zeta_num, self.zeta_den, self.q_exp)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "Monomial":
        return _ONE

    @staticmethod
    def q(exp=1) -> "Monomial":
        return _Q if exp == 1 else Monomial(0, 1, exp)

    @staticmethod
    def zeta(num: int, den: int, exp=0) -> "Monomial":
        return Monomial(num, den, exp)

    @staticmethod
    def minus_one() -> "Monomial":
        return _MINUS_ONE

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "Monomial", sign=1) -> "Monomial":
        d1, d2 = self.zeta_den, other.zeta_den
        if d1 == d2:
            num, den = self.zeta_num + sign * other.zeta_num, d1
        else:
            den = math.lcm(d1, d2)
            num = self.zeta_num * (den // d1) + sign * other.zeta_num * (den // d2)
        a, b = self.q_exp, other.q_exp
        if a.denominator == 1 == b.denominator:
            return Monomial(num, den, a.numerator + sign * b.numerator)
        return Monomial(num, den, a + b if sign == 1 else a - b)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self.__mul__(other, -1)

    def inverse(self) -> "Monomial":
        e = self.q_exp
        return Monomial(-self.zeta_num, self.zeta_den,
                        -e.numerator if e.denominator == 1 else -e)

    def __neg__(self) -> "Monomial":
        # zeta_N^k * zeta_2 = zeta_2N^(2k + N)
        return Monomial(2 * self.zeta_num + self.zeta_den, 2 * self.zeta_den, self.q_exp)

    def __pow__(self, n: int) -> "Monomial":
        e = self.q_exp
        return Monomial(self.zeta_num * n, self.zeta_den,
                        e.numerator * n if e.denominator == 1 else e * n)

    def pow_frac(self, p: int, r: int) -> "Monomial":
        """Canonical branch of self^(p/r)."""
        if r < 1:
            raise ValueError("root index must be positive")
        return Monomial(self.zeta_num * p, self.zeta_den * r, self.q_exp * Fraction(p, r))

    def root(self, r: int) -> "Monomial":
        return self.pow_frac(1, r)

    # -- queries ----------------------------------------------------------

    @property
    def coeff_is_one(self) -> bool:
        return self.zeta_num == 0

    def is_one(self) -> bool:
        return self.coeff_is_one and self.q_exp == 0

    def coeff(self) -> Cyclotomic:
        return root_of_unity(self.zeta_num, self.zeta_den)

    def coeff_raw(self, field: CyclotomicField) -> Raw:
        if field.L % self.zeta_den != 0:
            raise ValueError("field does not contain this root of unity")
        return field.zeta_pow(self.zeta_num * (field.L // self.zeta_den))

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


_ONE, _Q, _MINUS_ONE = Monomial(0, 1, 0), Monomial(0, 1, 1), Monomial(1, 2, 0)  # built once
_ZERO_EXP, _ONE_EXP = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


class QSeries:
    """Dense truncated series; immutable once constructed."""

    __slots__ = ("field", "den", "val", "coeffs", "prec")

    def __init__(self, field: CyclotomicField, den: int, val: int,
                 coeffs: tuple[Raw, ...], prec: int | None, _normalized=False):
        if not _normalized:
            coeffs = tuple(coeffs)
            lo = 0
            hi = len(coeffs)
            while lo < hi and field.is_zero(coeffs[lo]):
                lo += 1
            while hi > lo and field.is_zero(coeffs[hi - 1]):
                hi -= 1
            if lo == hi:
                val, coeffs = 0, ()
            else:
                val += lo
                coeffs = coeffs[lo:hi]
            if prec is not None and coeffs and val + len(coeffs) > prec:
                raise ValueError("stored coefficients extend beyond the truncation bound")
        self.field = field
        self.den = den
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order: Fraction | int | None = None) -> "QSeries":
        return linear_sum((), order)

    @staticmethod
    def scalar(value, order: Fraction | int | None = None) -> "QSeries":
        if isinstance(value, Cyclotomic):
            field, raw = value.field, value.raw
        else:
            field = get_field(1)
            raw = field.from_fraction(Fraction(value))
        den, prec = 1, None
        if order is not None:
            order = Fraction(order)
            den, prec = order.denominator, order.numerator
        if field.is_zero(raw) or (prec is not None and prec <= 0):
            return QSeries(field, den, 0, (), prec, _normalized=True)
        return QSeries(field, den, 0, (raw,), prec, _normalized=True)

    @staticmethod
    def one(order: Fraction | int | None = None) -> "QSeries":
        return QSeries.scalar(1, order)

    @staticmethod
    def from_monomial(m: Monomial, order: Fraction | int | None = None) -> "QSeries":
        field = get_field(m.zeta_den)
        den = m.q_exp.denominator
        if order is not None:
            order = _frac(order)
            den = math.lcm(den, order.denominator)
        val = _scale_exp(m.q_exp, den)
        prec = None if order is None else _scale_exp(order, den)
        return QSeries(field, den, val, (m.coeff_raw(field),), prec)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> Fraction | None:
        """Truncation order as a rational exponent (None when exact)."""
        return None if self.prec is None else Fraction(self.prec, self.den)

    @property
    def valuation(self) -> Fraction | None:
        return Fraction(self.val, self.den) if self.coeffs else None

    def coeff(self, e) -> Cyclotomic:
        e = Fraction(e)
        if self.prec is not None and e * self.den >= self.prec:
            raise ValueError("coefficient of q^%s is beyond the truncation order" % e)
        k = e * self.den
        if k.denominator != 1:
            return Cyclotomic(self.field, self.field.zero)
        i = int(k) - self.val
        if 0 <= i < len(self.coeffs):
            return Cyclotomic(self.field, self.coeffs[i])
        return Cyclotomic(self.field, self.field.zero)

    def terms(self):
        """Yield (exponent, Cyclotomic) for stored nonzero coefficients."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                yield Fraction(self.val + i, self.den), Cyclotomic(self.field, c)

    # -- alignment helpers ---------------------------------------------------

    def _with(self, field: CyclotomicField, den: int, weight=1) -> "QSeries":
        """weight * self over `field` and `den`, each coefficient moved and
        weighted in one step (`CyclotomicField.mover`)."""
        if field is self.field and den == self.den and weight == 1:
            return self
        if den % self.den:
            raise ValueError("denominator rescale must be integral")
        f, coeffs = den // self.den, self.coeffs
        if field is not self.field or weight != 1:
            coeffs = tuple(map(field.mover(self.field, weight), coeffs))
        if f != 1 and coeffs:
            spread: list[Raw] = [field.zero] * ((len(coeffs) - 1) * f + 1)
            spread[::f] = coeffs
            coeffs = tuple(spread)
        return QSeries(field, den, self.val * f, coeffs,
                       None if self.prec is None else self.prec * f, _normalized=True)

    @staticmethod
    def _min_prec(p1: int | None, p2: int | None) -> int | None:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        return min(p1, p2)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other, sign=1):
        other = _coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return linear_sum(((1, self), (sign, other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return linear_sum(((-1, self),))

    def __mul__(self, other):
        if isinstance(other, Monomial):
            return self.shift(other)
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        field, den = _plan((self, other))
        a, b = self._with(field, den), other._with(field, den)
        # unknown terms of a factor enter the product shifted by the other
        # factor's lowest exponent (its prec when it is zero-to-order)
        va = a.val if a.coeffs else a.prec
        vb = b.val if b.coeffs else b.prec
        pa = None if a.prec is None else a.prec + (vb if vb is not None else 0)
        pb = None if b.prec is None else b.prec + (va if va is not None else 0)
        prec = QSeries._min_prec(pa, pb)
        if not a.coeffs or not b.coeffs:
            return QSeries(field, a.den, 0, (), prec, _normalized=True)
        base = a.val + b.val
        out_len = len(a.coeffs) + len(b.coeffs) - 1
        if prec is not None:
            out_len = min(out_len, prec - base)
        if out_len <= 0:
            return QSeries(field, a.den, 0, (), prec, _normalized=True)
        return QSeries(field, a.den, base,
                       tuple(field.product(a.coeffs, b.coeffs, out_len)), prec)

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        if not isinstance(c, (int, Fraction, Cyclotomic)):
            raise TypeError("cannot scale by %r" % (c,))
        return linear_sum(((c, self),))

    def shift(self, m: Monomial) -> "QSeries":
        """Multiply by a monomial: scale coefficients, shift all exponents."""
        den = math.lcm(self.den, m.q_exp.denominator)
        L = math.lcm(self.field.L, m.zeta_den)
        s = self._with(get_field(L), den, m.coeff() if m.zeta_num else 1)
        delta = _scale_exp(m.q_exp, den)
        return QSeries(s.field, den, s.val + delta, s.coeffs,
                       None if s.prec is None else s.prec + delta, _normalized=True)

    def truncate(self, order: Fraction | int) -> "QSeries":
        order = _frac(order)
        s = self._with(self.field, math.lcm(self.den, order.denominator))
        prec = _scale_exp(order, s.den)
        if s.prec is not None and s.prec <= prec:
            return s
        return QSeries(s.field, s.den, s.val, s.coeffs[:max(prec - s.val, 0)], prec)

    def invert(self, order: Fraction | int | None = None) -> "QSeries":
        """Multiplicative inverse up to the available truncation order.

        Raises NonGenericParameter when the series is zero to its truncation
        order: the leading coefficient of a vanishing divisor signals a
        non-generic parameter choice upstream.
        """
        if not self.coeffs:
            raise NonGenericParameter("inverting a series that vanishes to its order")
        if self.prec is None and order is None:
            raise ValueError("inverting an exact series requires a target order")
        if order is not None:
            order = _frac(order)
            den = math.lcm(self.den, order.denominator)
            if den != self.den:
                return self._with(self.field, den).invert(order)
        target = None if order is None else _scale_exp(order, self.den)
        # self = q^val * u with u a unit; 1/self known to prec - 2*val
        out_prec = self.prec - 2 * self.val if self.prec is not None else None
        out_prec = QSeries._min_prec(out_prec, target)
        out_val = -self.val
        rel_len = out_prec - out_val
        if rel_len <= 0:
            return QSeries(self.field, self.den, 0, (), out_prec, _normalized=True)
        field = self.field
        u = self.coeffs
        # Newton: if u g = 1 + O(q^m) then g + g (1 - u g) = 1/u + O(q^2m)
        inv: list[Raw] = [field.inv(u[0])]
        while len(inv) < rel_len:
            m = len(inv)
            n = min(2 * m, rel_len)
            err = field.product(u, inv, n)[m:]
            step = field.product(inv, err, n - m)
            inv.extend(field.neg(c) for c in step)
        return QSeries(field, self.den, out_val, tuple(inv), out_prec)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            order = None
            if self.prec is not None and other.coeffs:
                # self * (1/other) is known to self's order minus other's
                # valuation once 1/other is known to that minus self's
                lead = self.valuation if self.coeffs else self.order
                order = self.order - lead - other.valuation
            return self * other.invert(order)
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / Fraction(other))
        if isinstance(other, Cyclotomic):
            return self.scale(other.inv())
        if isinstance(other, Monomial):
            return self.shift(other.inverse())
        return NotImplemented

    # -- structural operations ------------------------------------------------

    def substitute_q_power(self, r: Fraction | int) -> "QSeries":
        """Replace q by q^r (r a positive rational): exponents scale by r."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("substitution power must be positive")
        den = self.den * r.denominator
        num = r.numerator
        coeffs = self.coeffs
        if coeffs and num != 1:
            spread: list[Raw] = [self.field.zero] * ((len(coeffs) - 1) * num + 1)
            spread[::num] = coeffs
            coeffs = tuple(spread)
        out = QSeries(self.field, den, self.val * num, coeffs,
                      None if self.prec is None else self.prec * num,
                      _normalized=True)
        return out.normalize_denominator()

    def normalize_denominator(self) -> "QSeries":
        """Reduce the Puiseux denominator to the smallest consistent value."""
        if self.den == 1:
            return self
        g = self.den
        g = math.gcd(g, self.val if self.coeffs else 0)
        if self.prec is not None:
            g = math.gcd(g, self.prec)
        if self.coeffs:
            for i, c in enumerate(self.coeffs):
                if not self.field.is_zero(c):
                    g = math.gcd(g, self.val + i)
                if g == 1:
                    break
        if g == 1:
            return self
        coeffs = tuple(self.coeffs[i] for i in range(0, len(self.coeffs), g))
        return QSeries(self.field, self.den // g, self.val // g, coeffs,
                       None if self.prec is None else self.prec // g,
                       _normalized=True)

    def dissect(self, parts: int) -> list["QSeries"]:
        """Split into residue classes: self = sum_k q^k F_k(q^parts).

        The stored exponents must be integral; the order need not be, since
        below an order o they are known below ceil(o), so F_k is known below
        ceil((o - k) / parts)."""
        if parts < 1:
            raise ValueError("a dissection needs at least one part, got %d" % parts)
        s = QSeries(self.field, self.den, self.val, self.coeffs, None,
                    _normalized=True).normalize_denominator()
        if s.den != 1:
            raise FractionalExponents("dissection requires integral exponents")
        top = None if self.prec is None else -(-self.prec // self.den)  # ceil(order)
        out = []
        for k in range(parts):
            terms: list[tuple[int, Raw]] = []
            for i, c in enumerate(s.coeffs):
                e = s.val + i
                if e % parts == k % parts and not s.field.is_zero(c):
                    terms.append(((e - k) // parts, c))
            prec = None if top is None else -((k - top) // parts)  # ceil((top - k) / parts)
            if terms:
                val = terms[0][0]
                vec: list[Raw] = [s.field.zero] * (terms[-1][0] - val + 1)
                for t, c in terms:
                    vec[t - val] = c
                out.append(QSeries(s.field, 1, val, tuple(vec), prec))
            else:
                out.append(QSeries(s.field, 1, 0, (), prec, _normalized=True))
        return out

    # -- comparison -------------------------------------------------------

    def _aligned(self, other: "QSeries") -> tuple["QSeries", "QSeries"]:
        """Both series over their common denominator, each in its own field."""
        den = math.lcm(self.den, other.den)
        return self._with(self.field, den), other._with(other.field, den)

    def first_difference(self, other: "QSeries", order: Fraction | int):
        """First exponent below `order` where the two series differ, with both
        coefficients, or None if they agree on every exponent below `order`.

        Coefficients of two fields are compared in the one with the larger
        phi, the other side's coefficients moved there through the common
        subfield (`qrank.cyclotomic.equality`), so the compositum is never
        built; a difference then gives each coefficient in its own field."""
        order = Fraction(order)
        a, b = self._aligned(other)
        bound = math.ceil(order * a.den)  # the first scaled exponent at or past `order`
        for p in (a.prec, b.prec):
            if p is not None and p < bound:
                raise ValueError(
                    "series only known to order %s, cannot compare to order %s"
                    % (Fraction(p, a.den), order))
        eq, za, zb = equality(a.field, b.field), a.field.zero, b.field.zero
        lo = min(a.val if a.coeffs else bound, b.val if b.coeffs else bound)
        for k in range(lo, bound):
            ca = a.coeffs[k - a.val] if a.coeffs and 0 <= k - a.val < len(a.coeffs) else za
            cb = b.coeffs[k - b.val] if b.coeffs and 0 <= k - b.val < len(b.coeffs) else zb
            if not eq(ca, cb):
                return (Fraction(k, a.den), Cyclotomic(a.field, ca), Cyclotomic(b.field, cb))
        return None

    def agrees_with(self, other: "QSeries", order: Fraction | int) -> bool:
        return self.first_difference(other, order) is None

    def is_zero_to(self, order: Fraction | int) -> bool:
        return self.agrees_with(QSeries.zero(), order)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return (a.val == b.val and a.prec == b.prec and len(a.coeffs) == len(b.coeffs)
                and all(map(equality(a.field, b.field), a.coeffs, b.coeffs)))

    def __hash__(self):
        # equal series agree in these in every field and over every denominator
        lead = Cyclotomic(self.field, self.coeffs[0]) if self.coeffs else None
        return hash((self.valuation, self.order, lead))

    # -- presentation --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "L": self.field.L,
            "D": self.den,
            "order": None if self.prec is None else str(Fraction(self.prec, self.den)),
            "terms": [
                [self.val + i, [str(Fraction(c, d)) for c in vec]]
                for i, (d, vec) in enumerate(self.coeffs)
                if not self.field.is_zero(self.coeffs[i])
            ],
        }

    def __str__(self):
        terms = []
        for e, c in self.terms():
            cs = str(c)
            q = "1" if e == 0 else ("q" if e == 1 else "q^%s" % e)
            if e == 0:
                terms.append(cs)
            elif cs == "1":
                terms.append(q)
            elif cs == "-1":
                terms.append("-%s" % q)
            elif c.is_rational():
                terms.append("%s*%s" % (cs, q))
            else:
                terms.append("(%s)*%s" % (cs, q))
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        tail = "" if self.prec is None else " + O(q^%s)" % Fraction(self.prec, self.den)
        return body + tail

    def __repr__(self):
        return "QSeries(%s)" % str(self)


def linear_sum(terms, order=None) -> QSeries:
    """sum w s over the (weight, series) pairs of `terms`, w an int, a
    Fraction or a Cyclotomic, below `order` when one is given.

    The sum lives in Q(zeta_L), L the lcm of the fields of every series and
    every Cyclotomic weight (the field a weight lives in, not the least one
    holding its value), over the lcm of the series' denominators and
    `order`'s, and is known below the least precision of its terms, capped
    at `order`; a zero weight or an empty series counts towards all three.
    Each term is moved into that field and weighted in one step, one
    reduction a coefficient (`CyclotomicField.mover`), below that precision
    only, and the terms are merged in one pass.
    """
    terms = tuple(terms)
    order = None if order is None else _frac(order)
    den = 1 if order is None else order.denominator
    weights, series = zip(*terms) if terms else ((), ())
    field, den = _plan(series, weights, den)
    prec = None if order is None else _scale_exp(order, den)
    live = []
    for w, s in terms:
        if s.prec is not None:
            p = s.prec * (den // s.den)
            prec = p if prec is None else min(prec, p)
        if isinstance(w, Cyclotomic) and w.is_rational():
            w = w.as_fraction()
        if s.coeffs and w != 0:  # an irrational weight is never zero
            live.append((w, s))
    lo = min([s.val * (den // s.den) for _, s in live], default=0)
    hi = max([(s.val + len(s.coeffs) - 1) * (den // s.den) + 1 for _, s in live], default=0)
    if prec is not None and prec < hi:
        hi = prec
    if hi <= lo:
        return QSeries(field, den, 0, (), prec, _normalized=True)
    add, zero = field.add, field.zero
    vec = [zero] * (hi - lo)
    for i, (w, s) in enumerate(live):
        # the coefficients below hi, moved and weighted in one step, every f-th slot
        f = den // s.den
        coeffs, k = s.coeffs[:max(-(-hi // f) - s.val, 0)], s.val * f - lo
        if s.field is not field or w != 1:
            coeffs = tuple(map(field.mover(s.field, w), coeffs))
        if not i:
            vec[k:k + f * len(coeffs):f] = coeffs
            continue
        for c in coeffs:
            vec[k] = c if vec[k] is zero else add(vec[k], c)
            k += f
    return QSeries(field, den, lo, tuple(vec), prec)


def root_sum(terms, L: int, order) -> QSeries:
    """sum w zeta_L^k q^e over the (w, k, e) of `terms`, below `order`.

    The weights w (ints or Fractions) of one exponent go into one integer
    vector over zeta_L^0 .. zeta_L^(L-1), reduced mod Phi_L once, so a
    signed-root sum does no field arithmetic per term.  k may be any
    integer; terms at or beyond `order` are dropped.
    """
    order = _frac(order)
    field = get_field(L)
    vecs: dict[Fraction | int, list] = {}
    fractional = set()
    for w, k, e in terms:
        if e < order:
            vec = vecs.get(e)
            if vec is None:
                vec = vecs[e] = [0] * L
            vec[k % L] += w
            if type(w) is not int:
                fractional.add(e)
    den = math.lcm(order.denominator, *(e.denominator for e in vecs))
    prec = _scale_exp(order, den)
    if not vecs:
        return QSeries(field, den, 0, (), prec, _normalized=True)
    coeffs = {}
    for e, vec in vecs.items():
        d = 1
        if e in fractional:
            d = math.lcm(*(v.denominator for v in vec))
            vec = [v.numerator * (d // v.denominator) for v in vec]
        coeffs[_scale_exp(e, den)] = field.normalize(d, field.reduce_vec(vec))
    val = min(coeffs)
    out = [field.zero] * (max(coeffs) - val + 1)
    for i, c in coeffs.items():
        out[i - val] = c
    return QSeries(field, den, val, tuple(out), prec)


def computed_to(builder, order) -> QSeries:
    """Run a series builder once and return its result truncated at `order`.

    Builders plan their own precision loss: a factor q^{-k} costs k, and a
    quotient of theta blocks is expanded by `qrank.theta.theta_quotient`
    from the blocks' valuations, so each builder asks its inputs for what it
    needs and its one result is valid below `order`.  Below an order <= 0 a
    unit has no known coefficient to invert and a product of truncations
    loses precision, so there the builder runs at order 1.  This is the
    guard that keeps a wrong plan from over-claiming: a result known to less
    than the order it was built at raises instead of being returned.
    """
    target = _frac(order)
    built_at = target if target.numerator > 0 else _ONE_EXP
    s = builder(built_at)
    if s.prec is not None and s.prec * built_at.denominator < built_at.numerator * s.den:
        raise RuntimeError("a build at order %s is known only below %s" % (built_at, s.order))
    return s.truncate(target)


def exact_below(build):
    """Decorate `build(*params, order)` into a cached builder that is exact
    below its order: `build` is lru-cached and runs once through
    `computed_to`, and the cache's `cache_clear` and `cache_info` are the
    builder's own."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def builder(*args):
        *params, order = args
        return computed_to(lambda o: cached(*params, o), order)

    builder.cache_clear, builder.cache_info = cached.cache_clear, cached.cache_info
    return builder


def shift_loss(m: Monomial) -> Fraction:
    """How much order a product with the monomial m loses: max(0, -exp(m))."""
    e = m.q_exp
    return -e if e.numerator < 0 else _ZERO_EXP


def shifted(builder, m: Monomial, order) -> QSeries:
    """m * builder(.), valid below `order`: the builder is asked for
    `shift_loss(m)` more than `order`."""
    return computed_to(lambda o: builder(o + shift_loss(m)).shift(m), order)


def _scale_exp(e: Fraction | int, den: int) -> int:
    """e * den, which must be an integer."""
    f, r = divmod(den, e.denominator)
    if r:
        raise FractionalExponents(
            "exponent %s is not representable over denominator %d" % (e, den))
    return e.numerator * f


def _frac(x) -> Fraction:
    """x as a Fraction, x itself when it is one."""
    return x if type(x) is Fraction else Fraction(x)


def _plan(series, weights=(), den: int = 1) -> tuple[CyclotomicField, int]:
    """The field and denominator for a sum or product of `series`: the lcm of
    the fields of the series and the Cyclotomic `weights`, and of `den` and theirs."""
    L = 1
    for s in series:
        L, den = math.lcm(L, s.field.L), math.lcm(den, s.den)
    for w in weights:
        if isinstance(w, Cyclotomic):
            L = math.lcm(L, w.field.L)
    return get_field(L), den


def _coerce_series(x):
    if isinstance(x, QSeries):
        return x
    if isinstance(x, (int, Fraction, Cyclotomic)):
        return QSeries.scalar(x)
    if isinstance(x, Monomial):
        return QSeries.from_monomial(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# eta products
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eta_J(m, order) -> QSeries:
    """J_m = (q^m; q^m)_infinity, truncated at order, by direct product
    accumulation; only the factors with m*k below the order contribute.

    This is the `J<m>` named series and an independent oracle for
    `eta_quotient`, which every product of eta factors goes through.
    """
    m = Fraction(m)
    order = Fraction(order)
    if m <= 0:
        raise ValueError("eta step must be positive")
    den = math.lcm(m.denominator, order.denominator)
    prec = int(order * den)
    step0 = int(m * den)
    field = get_field(1)
    if prec <= 0:
        return QSeries(field, den, 0, (), prec, _normalized=True)
    coeffs = [1] + [0] * max(prec - 1, 0)
    k = 1
    while k * step0 < prec:
        step = k * step0
        for i in range(len(coeffs) - 1, step - 1, -1):
            if coeffs[i - step]:
                coeffs[i] -= coeffs[i - step]
        k += 1
    vec = tuple((1, (c,)) if c else field.zero for c in coeffs)
    return QSeries(field, den, 0, vec, prec)


# J_2/J_1^2 = 1/j(q;q^2), the generating function of the overpartitions
PBAR_ETA = {2: 1, 1: -2}


def eta_quotient(spec: dict[int, int], order) -> QSeries:
    """Product of J_m^e over the (m, e) pairs of `spec`, truncated at order.

    One pass over the integers, with no series product or inverse.  In
    t = q^(1/den) the factor J_m is (t^s; t^s)_oo with s = m den, and the
    logarithmic derivative of f = prod J_m^e gives n f_n = sum_{k=1..n}
    c_k f_(n-k), where c_n = -sum_m e_m (sum of the divisors of n that are
    multiples of s_m).  The coefficients of f are integers, so the division
    by n is exact.  The steps below the order share a gcd g, and the
    recurrence runs in t^g.  Each (spec, order) is expanded once, by
    `_eta_expansion`, whose cache is keyed by the sorted (m, e) pairs.
    """
    return _eta_expansion(tuple(sorted(spec.items())), order)


@lru_cache(maxsize=None)
def _eta_expansion(spec: tuple, order) -> QSeries:
    """`eta_quotient` of the sorted (m, e) pairs `spec`."""
    order = _frac(order)
    if order <= 0:
        return QSeries.zero(order)
    spec = {_frac(m): e for m, e in spec}
    if any(m <= 0 for m in spec):
        raise ValueError("eta step must be positive")
    den = math.lcm(order.denominator, *(m.denominator for m, e in spec.items() if e))
    prec = int(order * den)
    steps = [(int(m * den), e) for m, e in spec.items() if e and m * den < prec]
    g = math.gcd(*(s for s, _ in steps)) if steps else prec
    size = -(-prec // g)  # the exponents 0, g, 2g, ... below prec
    c = [0] * size
    for s, e in steps:
        s //= g
        for d in range(s, size, s):
            w = e * d
            for n in range(d, size, d):
                c[n] -= w
    f = [1]
    for n in range(1, size):
        f.append(sum(map(operator.mul, c[1:n + 1], f[n - 1::-1])) // n)
    field = get_field(1)
    vec = [field.zero] * ((size - 1) * g + 1)
    for i, x in enumerate(f):
        if x:
            vec[i * g] = (1, (x,))
    return QSeries(field, den, 0, tuple(vec), prec)
