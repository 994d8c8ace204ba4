"""Exact scalars: rationals and the real quadratic field Q(sqrt(7)).

Scalars are either `fractions.Fraction` (kept in lowest terms with positive
denominator by the stdlib) or `QuadExt` values (u + v*sqrt(7)) / d, stored as
one reduced integer triple: every field operation is integer arithmetic and
one gcd on its result.  Arithmetic between the two promotes to QuadExt and
demotes back to Fraction whenever the sqrt(7) part cancels, so equal values
always compare equal and hash alike.  All comparisons are exact: no floating
point is used anywhere in this module except in the final float conversions
of `Interval`.  Integer pairs (u, v) stand for u + v*sqrt(7) in Z[sqrt7]:
`integer_pairs` scales scalars to them, `pair_scalar` reads one back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class DivisionByZero(ZeroDivisionError):
    pass


def _sign(x) -> int:
    """Sign of an exact scalar.  A difference of two QuadExt values whose
    sqrt7 parts cancel has been demoted to a Fraction, so both kinds occur."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def sign_sqrt7(a, b) -> int:
    """Sign of a + b*sqrt(7) for rational a and b (ints or Fractions),
    decided by comparing a^2 against 7 b^2 when the signs differ."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > 7 * b * b else sb     # never equal: sqrt7 is irrational


class QuadExt:
    """An element a + b*sqrt(7) of the real quadratic field Q(sqrt(7)).

    It is stored as the integer triple (u, v, d) of (u + v*sqrt7) / d, with
    gcd(u, v, d) = 1 and d > 0, so equal values have equal triples.  `a` and
    `b` are the Fractions u / d and v / d, built when read.
    """

    __slots__ = ("_u", "_v", "_d")

    def __init__(self, a, b) -> None:
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)       # then gcd(u, v, d) = 1
        self._u, self._v = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._u, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._v, self._d)

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._u + other._u, self._v + other._v, d)
        return _make(self._u * e + other._u * d, self._v * e + other._v * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return _triple(-self._u, -self._v, self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._u - other._u, self._v - other._v, d)
        return _make(self._u * e - other._u * d, self._v * e - other._v * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(other._u - self._u, other._v - self._v, d)
        return _make(other._u * d - self._u * e, other._v * d - self._v * e, d * e)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b s)(c + e s) = (ac + 7be) + (ae + bc) s  with s = sqrt(7)
        a, b, c, e = self._u, self._v, other._u, other._v
        return _make(a * c + 7 * b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # d / (u + v s) = d (u - v s) / (u^2 - 7 v^2)
        u, v, d = self._u, self._v, self._d
        norm = u * u - 7 * v * v
        if norm == 0:
            raise DivisionByZero("division by zero in Q(sqrt7)")
        if norm < 0:
            return _make(-d * u, d * v, -norm)
        return _make(d * u, -d * v, norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._u and not other._v:
            raise DivisionByZero("division by zero in Q(sqrt7)")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result: Scalar = Fraction(1)
        base: Scalar = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- exact order ----------------------------------------------------

    def sign(self) -> int:
        """Sign of a + b*sqrt(7)."""
        return sign_sqrt7(self._u, self._v)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._u == other._u and self._v == other._v and self._d == other._d

    def __hash__(self):
        if self._v == 0:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt7"))

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sign(self - other) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sign(self - other) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sign(self - other) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sign(self - other) >= 0

    def __bool__(self) -> bool:
        return self._u != 0 or self._v != 0


Scalar = Union[Fraction, QuadExt]
Pair = tuple[int, int]


def _triple(u: int, v: int, d: int) -> QuadExt:
    """The QuadExt of a triple already reduced, with d > 0."""
    x = object.__new__(QuadExt)
    x._u, x._v, x._d = u, v, d
    return x


def _coerce(x):
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return _triple(x.numerator, 0, x.denominator)
    return NotImplemented


def _make(u: int, v: int, d: int) -> Scalar:
    """(u + v*sqrt7) / d in lowest terms, for d > 0: a Fraction when v == 0."""
    if v == 0:
        return Fraction(u, d)
    g = math.gcd(u, v, d)
    if g == 1:
        return _triple(u, v, d)
    return _triple(u // g, v // g, d // g)


def as_scalar(x) -> Scalar:
    if isinstance(x, QuadExt):
        return x if x._v else Fraction(x._u, x._d)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def integer_pairs(scalars) -> tuple[list[Pair], int]:
    """The integer pairs (u, v) of d x = u + v sqrt7, one per exact scalar x,
    and d > 0, the least common denominator of all their parts."""
    triples = [_coerce(x) for x in scalars]
    d = math.lcm(*(x._d for x in triples))
    return [(x._u * (d // x._d), x._v * (d // x._d)) for x in triples], d


def _integer_weight(nu: Scalar) -> tuple[Pair, int]:
    """Write nu = (m_a + m_b sqrt7) / d with integers m_a, m_b and d > 0."""
    (m,), d = integer_pairs([nu])
    return m, d


def pair_mul(x: Pair, y: Pair) -> Pair:
    """The product of two integer pairs: (a + b sqrt7)(c + e sqrt7)."""
    (a, b), (c, e) = x, y
    return a * c + 7 * b * e, a * e + b * c


def pair_scalar(pair: Pair, d: int) -> Scalar:
    """The exact scalar (u + v sqrt7) / d of the integer pair (u, v), d > 0."""
    return _make(pair[0], pair[1], d)


# ---------------------------------------------------------------------------
# text grammar: "p/q" and "p/q + r/s*sqrt7"
# ---------------------------------------------------------------------------

def format_scalar(x: Scalar) -> str:
    x = as_scalar(x)
    if isinstance(x, QuadExt):
        return f"{_fmt_fraction(x.a)} + {_fmt_fraction(x.b)}*sqrt7"
    return _fmt_fraction(x)


def _fmt_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q" or "p/q + r/s*sqrt7" (also "- r/s*sqrt7", "sqrt7"...)."""
    s = text.replace(" ", "")
    if s in ("nu_c",):
        return NU_C
    if s in ("y_c",):
        return Y_C
    if "sqrt7" in s:
        head, _, _ = s.partition("sqrt7")
        if head.endswith("*"):
            head = head[:-1]
        # split the rational part from the sqrt7 coefficient at the last +/-
        # that is not a leading sign or an exponent of a fraction component
        a_part, b_part = _split_quad(head)
        a = Fraction(a_part) if a_part else Fraction(0)
        if b_part in ("", "+"):
            b = Fraction(1)
        elif b_part == "-":
            b = Fraction(-1)
        else:
            if b_part.startswith("+"):
                b_part = b_part[1:]
            b = Fraction(b_part)
        return as_scalar(QuadExt(a, b))
    return Fraction(s)


def _split_quad(head: str) -> tuple[str, str]:
    # head is e.g. "1+1/7", "-55/864+25/864", "1/7", "-1/7", "+1"
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] not in "+-/*":
            return head[:i], head[i:]
    return "", head


# ---------------------------------------------------------------------------
# interval enclosures with exact rational endpoints
# ---------------------------------------------------------------------------

class Interval:
    """A closed interval [lo, hi] with Fraction endpoints.

    Arithmetic is exact on endpoints (conservative for mul/div), so any
    chain of operations yields a guaranteed enclosure of the exact result.
    `rounded(bits)` widens the endpoints outward onto the dyadic grid
    2^-bits to keep denominators bounded in long computations.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None) -> None:
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("empty interval")

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.mid)

    def float_bounds(self) -> tuple[float, float]:
        lo = float(self.lo)
        hi = float(self.hi)
        # float() rounds to nearest: widen one ulp outward to stay safe
        if Fraction(lo) > self.lo:
            lo = math.nextafter(lo, -math.inf)
        if Fraction(hi) < self.hi:
            hi = math.nextafter(hi, math.inf)
        return lo, hi

    def contains(self, x) -> bool:
        x = Fraction(x) if not isinstance(x, Fraction) else x
        return self.lo <= x <= self.hi

    def __add__(self, other) -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-_as_interval(other))

    def __rsub__(self, other) -> "Interval":
        return _as_interval(other) + (-self)

    def __mul__(self, other) -> "Interval":
        other = _as_interval(other)
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise DivisionByZero("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * _as_interval(other).inverse()

    def __rtruediv__(self, other) -> "Interval":
        return _as_interval(other) * self.inverse()

    def powi(self, n: int) -> "Interval":
        if n < 0:
            return self.inverse().powi(-n)
        result = Interval(Fraction(1))
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def rounded(self, bits: int) -> "Interval":
        scale = 1 << bits
        lo = Fraction(math.floor(self.lo * scale), scale)
        hi = Fraction(math.ceil(self.hi * scale), scale)
        return Interval(lo, hi)

    def min(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, Fraction)):
        return Interval(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as an interval")


def sqrt7_interval(bits: int) -> Interval:
    """Dyadic enclosure [k, k + 1] / 2^bits of sqrt(7), k = isqrt(7 * 4^bits)."""
    k = math.isqrt(7 << 2 * bits)
    return Interval(Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits))


def scalar_to_float(a: Scalar, precision_bits: int = 53) -> Interval:
    """Enclosing interval of an exact scalar, at roughly 2^-precision_bits width."""
    if precision_bits < 24:
        raise ValueError("precision_bits must be at least 24")
    a = as_scalar(a)
    if isinstance(a, QuadExt):
        iv = Interval(a.a) + Interval(a.b) * sqrt7_interval(precision_bits + 8)
        return iv.rounded(precision_bits)
    return Interval(a)


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an integer n >= 0, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // 3)
    while x and (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


def cbrt_interval(x: Interval, bits: int) -> Interval:
    """Enclosure of the real cube root of a nonnegative interval.

    Each endpoint is where bisecting [0, w], w = max(1, v), to width 2^-bits
    ends: w k / 2^j below v^(1/3) and w (k + 1) / 2^j above, with j least such
    that w 2^bits <= 2^j and k < 2^j largest with k^3 <= 8^j v / w^3.
    """
    if x.lo < 0:
        raise ValueError("cbrt_interval expects a nonnegative interval")

    def cbrt_fraction(v: Fraction, round_up: bool) -> Fraction:
        if v == 0:
            return Fraction(0)
        w = max(Fraction(1), v)
        j = bits + (math.ceil(w) - 1).bit_length()
        r = v / w ** 3
        k = min(_icbrt((r.numerator << 3 * j) // r.denominator), (1 << j) - 1)
        return w * Fraction(k + round_up, 1 << j)

    return Interval(cbrt_fraction(x.lo, False), cbrt_fraction(x.hi, True))


# frequently used exact constants
NU_C = QuadExt(Fraction(1), Fraction(1, 7))          # 1 + 1/sqrt7
RHO_NU_C = QuadExt(Fraction(-55, 864), Fraction(25, 864))   # (25 sqrt7 - 55)/864
Y_C = QuadExt(Fraction(3, 5), Fraction(3, 5))        # (3/5)(1 + sqrt7)
