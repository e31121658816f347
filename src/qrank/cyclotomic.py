"""Exact arithmetic in cyclotomic fields Q(zeta_L).

An element is a polynomial in zeta_L reduced modulo the L-th cyclotomic
polynomial Phi_L.  Internally it is a pair ``(den, vec)`` where ``vec`` is an
integer tuple of length phi(L) and ``den`` is a positive integer with
``gcd(den, *vec) == 1`` whenever ``den > 1``.  Reduction mod Phi_L is a normal
form, so two elements are equal iff their pairs are equal.  Keeping a single
denominator per element (instead of one Fraction per coordinate) keeps the
series convolution loops on plain machine/big integers.

Unreduced vectors live in the half ring of N slots: Z[x]/(x^N + 1), N = L/2,
for even L (zeta_L^N = -1, the wrap of Schoenhage-Strassen), Z[x]/(x^L - 1)
for odd L, so the reduction rows run only from x^(N-1) down.  A move between
fields and a weight are applied with one reduction (`CyclotomicField.mover`).

Everything stays on integers.  An inverse is the product of the other Galois
conjugates divided by the norm; the conjugates are multiplied level by level
along a polycyclic sequence of (Z/L)^x (``unit_tower``), each orbit product
by doubling, so an inverse in Q(zeta_385) costs about 15 field products
instead of 239.

There is one multiply path.  ``CyclotomicField.product`` multiplies two
vectors of field elements (the q-coefficients of two series, or one element
each for ``mul``) as one integer convolution, ``convolve_int``, which packs
signed coefficients into one big integer (Kronecker substitution): slots are
two's complement, sized by the l1 bound max|a| sum|b| and rounded up to 1,
2, 4 or 8 bytes, so ``array`` packs and unpacks them in C, and XOR with the
slots' top bits moves between two's complement and the value-plus-half form
that carries cleanly.  The same packing batches the reduction of many
vectors mod Phi_L (``reduce_all``): column j packs entry j of every vector,
so a reduction row costs one big multiply-add per non-zero for all of them.

Elements of two fields are compared in one of them, never in the compositum
(`equality`): equal elements lie in the common subfield Q(zeta_g),
g = gcd(L1, L2), so the side whose field has the smaller phi descends to
Q(zeta_g) and moves into the other side's field (`descent`).  1/(1 + c) for
a root of unity c has a closed form (`inverse_one_plus`), so no
certification path calls the norm-route inverse.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress

from .errors import InverseOfZero

Raw = tuple[int, tuple[int, ...]]  # (denominator, numerator vector)


def _primes(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient defined for n >= 1")
    for p in _primes(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def cyclo_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L (constant term first), from the Moebius product
    Phi_L = prod_{d | L} (x^d - 1)^mu(L/d) over d = L/s, s a squarefree
    divisor of L.  Multiplying by x^d - 1 is a shift and subtract; the
    divisions come last, each exact, as the running recurrence
    q_i = q_(i-d) - p_i of p = q (x^d - 1)."""
    if L < 1:
        raise ValueError("L must be positive")
    primes = _primes(L)
    poly, divisors = [1], []
    for r in range(len(primes) + 1):
        for s in combinations(primes, r):
            d = L // math.prod(s)
            if r % 2:
                divisors.append(d)
            else:
                up = [0] * d + poly
                for i, c in enumerate(poly):
                    up[i] -= c
                poly = up
    for d in divisors:
        q = [0] * (len(poly) - d)
        for i in range(len(q)):
            q[i] = (q[i - d] if i >= d else 0) - poly[i]
        poly = q
    return tuple(poly)


# ---------------------------------------------------------------------------
# integer vector convolution by Kronecker substitution
# ---------------------------------------------------------------------------

# array typecodes by item size; slots of these widths pack and unpack in C,
# and `_unpack` reads slots of up to 16 bytes as two 8-byte limbs
_ARRAY_CODES = {array(code).itemsize: code for code in "qihb"}
_BIG_ENDIAN = sys.byteorder == "big"
_SIGN_BYTE = bytes(255 if c > 127 else 0 for c in range(256))  # a byte's sign, extended
# _ROUNDED_WIDTH[w]: the least array item size >= w, for w up to the widest item
_ROUNDED_WIDTH = tuple(min(s for s in _ARRAY_CODES if s >= w)
                       for w in range(max(_ARRAY_CODES) + 1))


def _slot_mask(width: int, n: int) -> int:
    # the top bit of each of n slots of width bytes
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n, "little")


def _slot_width(bound: int) -> int:
    # bytes per slot for values in [-bound, bound], rounded up to an array
    # item size when one is wide enough
    width = bound.bit_length() // 8 + 1
    return _ROUNDED_WIDTH[width] if width < len(_ROUNDED_WIDTH) else width


def _pack(v: Sequence[int], width: int, mask: int | None = None) -> int:
    # sum_i v[i] 2^(8 width i): the slots hold v[i] in two's complement,
    # little-endian on every machine, and flipping every top bit turns that
    # into v[i] + half, so subtracting the mask leaves the signed sum.  Any
    # mask of len(v) slots or more does: the top bits above the slots of v
    # are added by the flip and taken away again
    if mask is None:
        mask = _slot_mask(width, len(v))
    code = _ARRAY_CODES.get(width)
    if code is None:
        data = b"".join([x.to_bytes(width, "little", signed=True) for x in v])
    else:
        data = array(code, v)
        if _BIG_ENDIAN:
            data.byteswap()
    return (int.from_bytes(data, "little") ^ mask) - mask


def _slot_bytes(xs: Iterable[int], n: int, width: int, mask: int | None = None) -> bytes:
    # the n slots of each of xs, two's complement and little-endian, as bytes;
    # mask is _slot_mask(width, n)
    if mask is None:
        mask = _slot_mask(width, n)
    size = n * width
    return b"".join([((x + mask) ^ mask).to_bytes(size, "little") for x in xs])


def _unpack(xs: Iterable[int], n: int, width: int, mask: int | None = None) -> list[int]:
    # inverse of _pack: the n slots of each of xs, whose values lie in
    # [-half, half), as one list; mask is _slot_mask(width, n).  A width of
    # 9 to 16 bytes is widened to two 8-byte limbs, its bytes above `width`
    # copying the sign, the high limb read signed and the low one unsigned;
    # a wider slot is one int.from_bytes, cheaper than a shift-or a limb
    data = _slot_bytes(xs, n, width, mask)
    code = _ARRAY_CODES.get(width)
    if code is not None:
        out = array(code)
        out.frombytes(data)
        if _BIG_ENDIAN:
            out.byteswap()
        return out.tolist()
    if width > 16:
        return [int.from_bytes(data[k:k + width], "little", signed=True)
                for k in range(0, len(data), width)]
    cells = bytearray(len(data) // width * 16)
    for b in range(width):
        cells[b::16] = data[b::width]
    sign = data[width - 1::width].translate(_SIGN_BYTE)
    for b in range(width, 16):
        cells[b::16] = sign
    signed, unsigned = array("q", cells), array("Q", cells)
    if _BIG_ENDIAN:
        signed.byteswap()
        unsigned.byteswap()
    return [hi << 64 | lo for hi, lo in zip(signed[1::2], unsigned[::2])]


def convolve_int(a: list[int] | tuple[int, ...], b: list[int] | tuple[int, ...]) -> list[int]:
    """Full convolution of integer vectors by one big multiply, or [] when
    either vector has no non-zero entry.

    Every output coefficient lies in [-bound, bound], since
    |sum_i a_i b_(k-i)| <= max|a| sum|b|, which sizes the slots.  A zero
    factor returns before any slot is sized: its bound is 0, too narrow
    for the other factor's entries.
    """
    if not any(a) or not any(b):
        return []
    bound = min(max(map(abs, a)) * sum(map(abs, b)), max(map(abs, b)) * sum(map(abs, a)))
    width, n = _slot_width(bound), len(a) + len(b) - 1
    mask = _slot_mask(width, n)  # one mask packs both factors and unpacks the product
    return _unpack([_pack(a, width, mask) * _pack(b, width, mask)], n, width, mask)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class CyclotomicField:
    """Q(zeta_L) with dense power-basis representation mod Phi_L."""

    __slots__ = ("L", "N", "phi", "modulus", "_red", "_red_max", "zero", "one")

    def __init__(self, L: int):
        self.L = L
        self.N = L // 2 if L % 2 == 0 else L  # the slots of the half ring
        self.phi = totient(L)
        self.modulus = cyclo_polynomial(L)
        # _red[k - phi] = x^k mod Phi_L, k < N, as a sparse row (indices,
        # coefficients): two tuples per row, not one per term, keep few objects
        self._red: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        # _red_max[j] = max(1, the largest |coefficient| of rows 0 .. j)
        self._red_max: list[int] = []
        self.zero: Raw = (1, (0,) * self.phi)
        one = [0] * self.phi
        one[0] = 1
        self.one: Raw = (1, tuple(one))

    # -- reduction rows ------------------------------------------------

    def _ensure_red(self, k: int) -> None:
        # row j, x^(phi + j), is row j - 1 packed, shifted a slot, less c
        # Phi_L for c its top slot: while M, a bound on the rows that grows by
        # |c| max|Phi_L| a row, stays below half a slot; then on wider slots
        phi, red = self.phi, self._red
        while len(red) <= k - phi:
            idx, row = red[-1] if red else ((phi - 1,), (1,))  # x^(phi-1) is reduced
            M, most = self._red_max[-1] if red else 1, max(map(abs, self.modulus))
            width = _slot_width(M * (most + 1) << 4)
            bits, rows = 8 * width, []
            mod, low, half = _pack(self.modulus, width), _slot_mask(width, phi), 1 << bits - 1
            x = sum(c << bits * i for i, c in zip(idx, row))
            while len(red) + len(rows) <= k - phi:
                x <<= bits
                c = (x + low) >> bits * phi
                M += abs(c) * most
                if M >= half:
                    break
                x -= c * mod
                rows.append(x)
            flat = _unpack(rows, phi, width)
            for j in range(0, len(flat), phi):
                row = flat[j:j + phi]
                cs = tuple(compress(row, row))
                red.append((tuple(compress(range(phi), row)), cs))
                self._red_max.append(max(self._red_max[-1:] + [max(cs), -min(cs), 1]))

    def reduce_vec(self, vec: list[int]) -> list[int]:
        """Reduce a coefficient list of any length mod Phi_L, in place: slot j
        goes to j mod N, negated when L is even and floor(j/N) is odd, then
        the rows reduce slots N - 1 .. phi.  All of it is linear, so the
        entries may be packed columns (`reduce_all`)."""
        N, phi, n = self.N, self.phi, len(vec)
        if n > N:
            for j in range(N, n):
                if vec[j]:
                    vec[j % N] += -vec[j] if N < self.L and j // N % 2 else vec[j]
            del vec[N:]
            n = N
        if n > phi:
            self._ensure_red(n - 1)
            for k in range(n - 1, phi - 1, -1):
                c = vec[k]
                if c:
                    for i, rc in zip(*self._red[k - phi]):
                        vec[i] += c * rc
            del vec[phi:]
        elif n < phi:
            vec.extend([0] * (phi - n))
        return vec

    def reduce_all(self, xs: Sequence[int], m: int, width: int,
                   bound: int) -> list[tuple[int, ...]]:
        """`reduce_vec` of each vector of m entries packed in xs by `_pack`,
        `width` bytes a slot, whose l1 norms are at most `bound`, as tuples.

        Column j packs entry j of every vector into one integer, so each
        non-zero of a reduction row is one big multiply-add for all the
        vectors at once.  A folded entry is at most `bound`, and a reduced one
        at most bound max(1, max |row entry|), which sizes the column slots.
        """
        phi, n = self.phi, len(xs)
        if m <= phi or not n:
            flat, pad = _unpack(xs, m, width), (0,) * (phi - m)
            return [tuple(flat[k:k + m]) + pad for k in range(0, n * m, m)]
        top = min(m, self.N) - 1
        self._ensure_red(top)
        wide = max(width, _slot_width(bound * (self._red_max[top - phi] if top >= phi else 1)))
        # the n x m slots as m x n slots of `wide` bytes, moved one byte of
        # every slot at a time; the bytes above `width` copy the sign
        data, cells = _slot_bytes(xs, m, width), bytearray(n * m * wide)
        for b in range(width):
            plane = data[b::width]
            cells[b::wide] = plane = b"".join([plane[j::m] for j in range(m)])
        for b in range(width, wide):
            cells[b::wide] = plane.translate(_SIGN_BYTE)
        mask, size = _slot_mask(wide, n), n * wide
        cols = [(int.from_bytes(cells[k:k + size], "little") ^ mask) - mask
                for k in range(0, len(cells), size)]
        out = _unpack(self.reduce_vec(cols), n, wide)
        return list(zip(*[out[k:k + n] for k in range(0, phi * n, n)]))

    # -- raw element helpers --------------------------------------------

    def normalize(self, den: int, vec: list[int]) -> Raw:
        if den == 1:
            return (1, tuple(vec))
        if den < 0:
            den = -den
            vec = [-v for v in vec]
        g = math.gcd(den, *vec)
        if g == 1:
            return (den, tuple(vec))
        if g == den and not any(vec):
            return self.zero
        return (den // g, tuple(v // g for v in vec))

    def from_fraction(self, fr: Fraction | int) -> Raw:
        fr = Fraction(fr)
        vec = [0] * self.phi
        vec[0] = fr.numerator
        return (fr.denominator, tuple(vec))

    def zeta_pow(self, k: int) -> Raw:
        j, k = divmod(k % self.L, self.N)  # zeta_L^N = -1 when L is even
        return (1, tuple(self.reduce_vec([0] * k + [-1 if j else 1])))

    def is_zero(self, a: Raw) -> bool:
        return not any(a[1])

    def is_rational(self, a: Raw) -> bool:
        return not any(a[1][1:])

    def as_fraction(self, a: Raw) -> Fraction:
        if not self.is_rational(a):
            raise ValueError("element is not rational")
        return Fraction(a[1][0], a[0])

    def add(self, a: Raw, b: Raw) -> Raw:
        da, va = a
        db, vb = b
        if da == db:
            if da == 1:
                return (1, tuple(x + y for x, y in zip(va, vb)))
            return self.normalize(da, [x + y for x, y in zip(va, vb)])
        l = math.lcm(da, db)
        fa = l // da
        fb = l // db
        return self.normalize(l, [x * fa + y * fb for x, y in zip(va, vb)])

    def neg(self, a: Raw) -> Raw:
        return (a[0], tuple(-v for v in a[1]))

    def sub(self, a: Raw, b: Raw) -> Raw:
        return self.add(a, self.neg(b))

    def mul(self, a: Raw, b: Raw) -> Raw:
        return self.product((a,), (b,), 1)[0]

    def product(self, a: Sequence[Raw], b: Sequence[Raw], out_len: int) -> list[Raw]:
        """The first out_len coefficients of the product of two vectors of
        elements (the q-coefficients of two series), by one `convolve_int`.

        Each factor is scaled to one common denominator and laid out flat
        with stride 2 phi - 1, so index i and zeta-index j sit at
        i (2 phi - 1) + j and the zeta-products of two terms never reach the
        next slot; each output coefficient is reduced once.
        """
        phi = self.phi
        stride = 2 * phi - 1

        def pack(coeffs: Sequence[Raw]) -> tuple[int, list[int]]:
            den = 1
            for d, _ in coeffs:
                if d != 1:
                    den = math.lcm(den, d)
            flat = [0] * ((len(coeffs) - 1) * stride + phi)
            for i, (d, vec) in enumerate(coeffs):
                f = den // d
                flat[i * stride:i * stride + phi] = vec if f == 1 else [v * f for v in vec]
            return den, flat

        da, fa = pack(a[:out_len])
        db, fb = pack(b[:out_len])
        conv = convolve_int(fa, fb)
        del fa, fb  # release the packed inputs before unpacking the output
        den = da * db
        reduce_vec, normalize = self.reduce_vec, self.normalize
        out: list[Raw] = []
        for k in range(out_len):
            vec = conv[k * stride:(k + 1) * stride]
            out.append(normalize(den, reduce_vec(vec)) if any(vec) else self.zero)
        return out

    def scale(self, a: Raw, num: int, den: int = 1) -> Raw:
        """a num/den, for num/den in lowest terms with den > 0."""
        if num == den:
            return a
        d, vec = a
        return self.normalize(d * den, [v * num for v in vec])

    def reindex(self, vec: Sequence[int], k: int) -> list[int]:
        """sum_i vec[i] zeta_L^(i k), reduced mod Phi_L.

        For k coprime to L this is the Galois conjugate sigma_k; for
        k = L / L' it embeds an element of Q(zeta_L') into Q(zeta_L).
        """
        out = [0] * self.L
        for i, c in enumerate(vec):
            if c:
                out[i * k % self.L] += c
        return self.reduce_vec(out)

    def _conjugate(self, a: Raw, k: int) -> Raw:
        """The Galois conjugate sigma_k(a), zeta_L -> zeta_L^k, k a unit mod L."""
        return (a[0], tuple(self.reindex(a[1], k)))

    def inv(self, a: Raw) -> Raw:
        """Inverse by the norm: 1/a = prod_{sigma != 1} sigma(a) / N(a).

        The conjugates are multiplied level by level along ``unit_tower(L)``:
        with ``part`` the product of sigma(a) over the subgroup generated so
        far, the next level multiplies in sigma_g^e(part) for 0 < e < r.
        """
        if self.is_zero(a):
            raise InverseOfZero("cannot invert zero")
        den, vec = a
        part: Raw = (1, vec)  # becomes the norm at the top of the tower
        rest = self.one  # part without the factor a
        for g, r in unit_tower(self.L):
            orbit = self._conjugate(self._orbit_product(part, g, r - 1), g)
            rest = self.mul(rest, orbit)
            part = self.mul(part, orbit)
        return self.normalize(part[1][0], [c * den for c in rest[1]])

    def _orbit_product(self, x: Raw, g: int, n: int) -> Raw:
        """prod_{e < n} sigma_g^e(x), by doubling along the bits of n >= 1."""
        out, m = x, 1
        for bit in bin(n)[3:]:
            out = self.mul(out, self._conjugate(out, pow(g, m, self.L)))
            m *= 2
            if bit == "1":
                out = self.mul(x, self._conjugate(out, g))
                m += 1
        return out

    def mover(self, src: "CyclotomicField", weight=1):
        """a -> weight a from Q(zeta_src) into Q(zeta_L) on raw elements,
        weight an int, a Fraction or a `Cyclotomic` of a field inside: the
        terms of a spread by L/src, times those of the weight's vector in its
        own field spread by L/L_w, reduced once by `reduce_vec`."""
        if self.L % src.L:
            raise ValueError("no embedding: %d does not divide %d" % (src.L, self.L))
        m = self.L // src.L
        if isinstance(weight, Cyclotomic):
            k, (wden, wvec) = self.L // weight.field.L, weight.raw
        elif m == 1:
            return lambda a: self.scale(a, weight.numerator, weight.denominator)
        else:
            k, wden, wvec = 0, weight.denominator, (weight.numerator,)
        terms = [(j * k, w) for j, w in enumerate(wvec) if w] or [(0, 0)]

        def move(a: Raw) -> Raw:
            d, vec = a
            if not any(vec):
                return self.zero
            out = [0] * ((len(vec) - 1) * m + terms[-1][0] + 1)  # below x^(2L - 1)
            for i, c in enumerate(vec):
                if c:
                    for e, w in terms:
                        out[i * m + e] += c * w
            return self.normalize(d * wden, self.reduce_vec(out))
        return move


@lru_cache(maxsize=None)
def unit_tower(L: int) -> tuple[tuple[int, int], ...]:
    """A polycyclic sequence (g_i, r_i) of the unit group (Z/L)^x.

    g_i is the least unit outside H_(i-1) = <g_1, ..., g_(i-1)> and r_i is
    its order modulo H_(i-1), so every unit is prod g_i^(e_i) mod L with
    0 <= e_i < r_i in exactly one way, and prod r_i = phi(L).
    """
    group = {1 % L}
    tower = []
    for g in range(2, L):
        if g in group or math.gcd(g, L) != 1:
            continue
        r, power = 1, g
        while power not in group:
            power = power * g % L
            r += 1
        group = {h * pow(g, e, L) % L for h in group for e in range(r)}
        tower.append((g, r))
    return tuple(tower)


@lru_cache(maxsize=None)
def _trace_weights(L: int) -> tuple[Fraction, ...]:
    """Tr(zeta_L^i)/phi(L) for i < phi(L): mu(d)/phi(d) with d = L/gcd(i, L),
    and mu(d) is minus the coefficient of x^(phi(d) - 1) in Phi_d."""
    ds = [L // math.gcd(i, L) for i in range(totient(L))]
    return tuple(Fraction(-cyclo_polynomial(d)[-2], totient(d)) for d in ds)


@lru_cache(maxsize=None)
def get_field(L: int) -> CyclotomicField:
    return CyclotomicField(L)


# ---------------------------------------------------------------------------
# comparison across fields
# ---------------------------------------------------------------------------


def equality(fa: CyclotomicField, fb: CyclotomicField) -> Callable[[Raw, Raw], bool]:
    """The test a == b for a of Q(zeta_fa.L) and b of Q(zeta_fb.L).

    Equal elements lie in Q(zeta_fa.L) ∩ Q(zeta_fb.L) = Q(zeta_g),
    g = gcd(fa.L, fb.L), so the side whose field has the smaller phi is
    moved into the other side's field by `descent` (None, and so unequal,
    when it is not in Q(zeta_g)) and compared there: the compositum
    Q(zeta_lcm) is never built.
    """
    if fa is fb:
        return operator.eq
    if (fb.phi, fb.L) < (fa.phi, fa.L):
        move = descent(fb, fa)
        return lambda a, b: move(b) == a
    move = descent(fa, fb)
    return lambda a, b: move(a) == b


@lru_cache(maxsize=None)
def descent(src: CyclotomicField, dst: CyclotomicField) -> Callable[[Raw], Raw | None]:
    """a -> a as an element of Q(zeta_dst.L), for a of Q(zeta_src.L), or None
    when a lies outside Q(zeta_dst.L), that is outside the common subfield
    Q(zeta_g), g = gcd(src.L, dst.L).

    When Q(zeta_src.L) is Q(zeta_g) itself the descent is a plain reindex,
    one reduction in dst: zeta_g -> zeta_dst^(dst.L/g) when src.L = g, and
    zeta_2g = -zeta_g^((g+1)/2) when src.L = 2g with g odd.  Otherwise a's
    coordinates at the pivots of `_projector` give the only candidate b in
    Q(zeta_g); a is in Q(zeta_g) exactly when moving b back into
    Q(zeta_src.L) gives a, and then b is moved into dst.  A wrong projector
    can thus only make a member look like a non-member, never the reverse.
    """
    g = math.gcd(src.L, dst.L)
    if src.phi == totient(g):
        k = dst.L // g
        doubled = src.L != g  # src.L = 2g: zeta_src -> -zeta_dst^(k (g+1)/2)
        if doubled:
            k *= (g + 1) // 2

        def reindex(a: Raw) -> Raw | None:
            d, vec = a
            if not any(vec):
                return dst.zero
            if doubled:
                vec = [-c if i % 2 else c for i, c in enumerate(vec)]
            return dst.normalize(d, dst.reindex(vec, k))
        return reindex
    sub = get_field(g)
    pivots, den, rows = _projector(src.L, g)
    back, into = src.mover(sub), dst.mover(sub)

    def project(a: Raw) -> Raw | None:
        d, vec = a
        if not any(vec):
            return dst.zero
        coords = [vec[i] for i in pivots]
        b = sub.normalize(d * den, [sum(map(operator.mul, row, coords)) for row in rows])
        return into(b) if back(b) == a else None
    return project


_PIVOT_PRIME = (1 << 61) - 1


@lru_cache(maxsize=None)
def _projector(L: int, g: int) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """(P, D, R) for the embedding Q(zeta_g) -> Q(zeta_L), g | L: phi(g)
    coordinates P of Q(zeta_L) on which the embedding is invertible, and
    that block's inverse R / D, R integral, so that an element a of the image
    is sum_j (R a[P])_j zeta_g^j / D.

    P are the pivots of an echelon form of the images of the basis
    zeta_g^j modulo a word-size prime; a block invertible there is
    invertible over Q.  The block is inverted exactly by fraction-free
    Gauss-Jordan elimination (Bareiss), every entry an integer minor.
    """
    m, p = L // g, _PIVOT_PRIME
    images = [get_field(L).zeta_pow(j * m)[1] for j in range(totient(g))]
    pivots: list[int] = []
    echelon: list[list[int]] = []
    for image in images:
        row = [c % p for c in image]
        for k, r in zip(pivots, echelon):
            if row[k]:
                c = row[k]
                row = [(x - c * y) % p for x, y in zip(row, r)]
        k = next((i for i, c in enumerate(row) if c), None)
        if k is None:
            raise ArithmeticError("no pivot modulo %d for Q(zeta_%d) in Q(zeta_%d)" % (p, g, L))
        inv = pow(row[k], -1, p)
        pivots.append(k)
        echelon.append([x * inv % p for x in row])
    n = len(pivots)
    # [A | I] with A[i][j] the coordinate pivots[i] of image j, eliminated
    # to [D I | D A^-1]
    rows = [[image[k] for image in images] + [int(i == j) for j in range(n)]
            for i, k in enumerate(pivots)]
    prev = 1
    for k in range(n):
        r = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[r] = rows[r], rows[k]
        top = rows[k]
        pk = top[k]
        for i in range(n):
            c = rows[i][k]
            if i != k and (c or pk != prev):
                rows[i] = [(x * pk - c * y) // prev for x, y in zip(rows[i], top)]
        prev = pk
    if prev < 0:
        prev, rows = -prev, [[-x for x in row] for row in rows]
    inverse = [row[n:] for row in rows]
    h = math.gcd(prev, *(x for row in inverse for x in row))
    return (tuple(pivots), prev // h, tuple(tuple(x // h for x in row) for row in inverse))


# ---------------------------------------------------------------------------
# public wrapper
# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_L); immutable, canonical, hashable."""

    __slots__ = ("field", "raw")

    def __init__(self, field: CyclotomicField, raw: Raw):
        self.field = field
        self.raw = raw

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_fraction(value: Fraction | int, L: int = 1) -> "Cyclotomic":
        f = get_field(L)
        return Cyclotomic(f, f.from_fraction(value))

    # -- coercion ----------------------------------------------------------

    def _pair(self, other) -> tuple["CyclotomicField", Raw, Raw]:
        if isinstance(other, (int, Fraction)):
            return self.field, self.raw, self.field.from_fraction(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented  # type: ignore[return-value]
        fa, fb = self.field, other.field
        if fa.L == fb.L:
            return fa, self.raw, other.raw
        f = get_field(math.lcm(fa.L, fb.L))
        return f, f.mover(fa)(self.raw), f.mover(fb)(other.raw)

    def embed(self, L: int) -> "Cyclotomic":
        f = get_field(L)
        return Cyclotomic(f, f.mover(self.field)(self.raw))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        p = self._pair(other)
        if p is NotImplemented:
            return NotImplemented
        f, a, b = p
        return Cyclotomic(f, f.add(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._pair(other)
        if p is NotImplemented:
            return NotImplemented
        f, a, b = p
        return Cyclotomic(f, f.sub(a, b))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclotomic(self.field, self.field.neg(self.raw))

    def __mul__(self, other):
        p = self._pair(other)
        if p is NotImplemented:
            return NotImplemented
        f, a, b = p
        return Cyclotomic(f, f.mul(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._pair(other)
        if p is NotImplemented:
            return NotImplemented
        f, a, b = p
        return Cyclotomic(f, f.mul(a, f.inv(b)))

    def __rtruediv__(self, other):
        p = self._pair(other)
        if p is NotImplemented:
            return NotImplemented
        f, a, b = p
        return Cyclotomic(f, f.mul(b, f.inv(a)))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = Cyclotomic(self.field, self.field.one)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inv(self) -> "Cyclotomic":
        return Cyclotomic(self.field, self.field.inv(self.raw))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.field.is_zero(self.raw)

    def is_rational(self) -> bool:
        return self.field.is_rational(self.raw)

    def as_fraction(self) -> Fraction:
        return self.field.as_fraction(self.raw)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return equality(self.field, other.field)(self.raw, other.raw)

    def __hash__(self):
        # Tr(a)/phi(L): the same in every field holding a, and a if rational
        den, vec = self.raw
        return hash(sum((c * t for c, t in zip(vec, _trace_weights(self.field.L)) if c),
                        Fraction(0)) / den)

    def __repr__(self):
        return "Cyclotomic(%s)" % str(self)

    def __str__(self):
        if self.is_rational():
            fr = self.as_fraction()
            return str(fr.numerator) if fr.denominator == 1 else "%d/%d" % (
                fr.numerator, fr.denominator)
        den, vec = self.raw
        coords = ",".join(
            str(c) if den == 1 else str(Fraction(c, den)) for c in vec)
        return "[%s]@zeta%d" % (coords, self.field.L)


def root_of_unity(num: int, den: int) -> Cyclotomic:
    """zeta_den^num as an element of Q(zeta_den).

    This is the canonical branch for fractional powers of roots of unity:
    (zeta_M^j)^(1/d) is root_of_unity(j, M*d).
    """
    if den < 1:
        raise ValueError("den must be positive")
    f = get_field(den)
    return Cyclotomic(f, f.zeta_pow(num))


def inverse_one_plus(num: int, den: int) -> Cyclotomic:
    """1/(1 + c) for c = zeta_den^num, as an element of Q(zeta_den), with no
    field inverse.  With n the order of c: (1/2) sum_{j<n} (-c)^j for odd n,
    since (1 + c) sum_{j<n} (-c)^j = 1 + c^n = 2; for even n, -c has
    (-c)^n = 1, and 1/(1 - eta) = -(1/n) sum_{j<n} j eta^j for eta = -c.
    c = -1 raises InverseOfZero."""
    f = get_field(den)
    n = den // math.gcd(num, den)
    if n == 2:
        raise InverseOfZero("1 + zeta_%d^%d is zero" % (den, num))
    vec = [0] * den
    for j in range(n):
        vec[j * num % den] += (1 if n % 2 else -j) * (-1) ** j
    return Cyclotomic(f, f.normalize(2 if n % 2 else n, f.reduce_vec(vec)))
