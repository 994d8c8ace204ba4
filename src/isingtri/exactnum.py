"""Exact scalars: rationals and the real quadratic field Q(sqrt(7)).

Scalars are either `fractions.Fraction` (kept in lowest terms with positive
denominator by the stdlib) or `QuadExt` values a + b*sqrt(7) with Fraction
components.  Arithmetic between the two promotes to QuadExt and demotes back
to Fraction whenever the sqrt(7) part cancels, so equal values always compare
equal and hash alike.  All comparisons are exact: no floating point is used
anywhere in this module except in the final float conversions of `Interval`.
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
    """An element a + b*sqrt(7) of the real quadratic field Q(sqrt(7))."""

    __slots__ = ("_a", "_b")

    def __init__(self, a, b) -> None:
        self._a = Fraction(a)
        self._b = Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    def __repr__(self) -> str:
        return f"QuadExt({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self._a, -self._b)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self._a - other._a, self._b - other._b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(other._a - self._a, other._b - self._b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b s)(c + d s) = (ac + 7bd) + (ad + bc) s  with s = sqrt(7)
        return _make(
            self._a * other._a + 7 * self._b * other._b,
            self._a * other._b + self._b * other._a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self._a * self._a - 7 * self._b * self._b
        if norm == 0:
            raise DivisionByZero("division by zero in Q(sqrt7)")
        return _make(self._a / norm, -self._b / norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._a == 0 and other._b == 0:
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
        return sign_sqrt7(self._a, self._b)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, "sqrt7"))

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
        return self._a != 0 or self._b != 0


Scalar = Union[Fraction, QuadExt]


def _coerce(x):
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadExt(Fraction(x), Fraction(0))
    return NotImplemented


def _make(a: Fraction, b: Fraction) -> Scalar:
    """Normalize a + b*sqrt7: demote to plain a (a Fraction, or an int) when b == 0."""
    if b == 0:
        return a
    return QuadExt(a, b)


def as_scalar(x) -> Scalar:
    if isinstance(x, QuadExt):
        return _make(x.a, x.b)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


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
        return _make(a, b)
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


_SQRT7_CACHE: dict[int, Interval] = {}


def sqrt7_interval(bits: int) -> Interval:
    """Dyadic enclosure of sqrt(7) with width 2^-bits, by bisection."""
    iv = _SQRT7_CACHE.get(bits)
    if iv is not None:
        return iv
    lo, hi = Fraction(2), Fraction(3)
    target = Fraction(1, 1 << bits)
    while hi - lo > target:
        mid = (lo + hi) / 2
        if mid * mid <= 7:
            lo = mid
        else:
            hi = mid
    iv = Interval(lo, hi)
    _SQRT7_CACHE[bits] = iv
    return iv


def scalar_to_float(a: Scalar, precision_bits: int = 53) -> Interval:
    """Enclosing interval of an exact scalar, at roughly 2^-precision_bits width."""
    if precision_bits < 24:
        raise ValueError("precision_bits must be at least 24")
    a = as_scalar(a)
    if isinstance(a, QuadExt):
        iv = Interval(a.a) + Interval(a.b) * sqrt7_interval(precision_bits + 8)
        return iv.rounded(precision_bits)
    return Interval(a)


def cbrt_interval(x: Interval, bits: int) -> Interval:
    """Enclosure of the real cube root of a nonnegative interval."""
    if x.lo < 0:
        raise ValueError("cbrt_interval expects a nonnegative interval")

    def cbrt_fraction(v: Fraction, round_up: bool) -> Fraction:
        if v == 0:
            return Fraction(0)
        lo, hi = Fraction(0), max(Fraction(1), v)
        target = Fraction(1, 1 << bits)
        while hi - lo > target:
            mid = (lo + hi) / 2
            if mid ** 3 <= v:
                lo = mid
            else:
                hi = mid
        return hi if round_up else lo

    return Interval(cbrt_fraction(x.lo, False), cbrt_fraction(x.hi, True))


# frequently used exact constants
NU_C = QuadExt(Fraction(1), Fraction(1, 7))          # 1 + 1/sqrt7
RHO_NU_C = QuadExt(Fraction(-55, 864), Fraction(25, 864))   # (25 sqrt7 - 55)/864
Y_C = QuadExt(Fraction(3, 5), Fraction(3, 5))        # (3/5)(1 + sqrt7)
