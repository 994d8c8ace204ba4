"""A plain model of the field Q(sqrt7) that `exactnum.QuadExt` is tested against.

`Q7(a, b)` is a + b sqrt7 for two Fractions, with the textbook operations and
no normalisation beyond the Fractions' own.  Its sign is read from 60 decimal
digits of sqrt7, not from the a^2 against 7 b^2 comparison the engine uses.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction


class Q7:
    """The number a + b sqrt7, for Fractions a and b."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return Q7(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Q7(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Q7(self.a * o.a + 7 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - 7 * self.b * self.b
        return Q7(self.a / norm, -self.b / norm)      # norm == 0 raises ZeroDivisionError

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n: int):
        base, out = self.inverse() if n < 0 else self, Q7(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """The sign, exact for the small operands of the tests: their nonzero
        values are far above the 1e-50 error of the decimal sum."""
        if self.is_zero():
            return 0
        with localcontext() as ctx:
            ctx.prec = 60
            x = (Decimal(self.a.numerator) / self.a.denominator
                 + Decimal(self.b.numerator) / self.b.denominator * Decimal(7).sqrt())
        return 1 if x > 0 else -1

    def triple(self) -> tuple[int, int, int]:
        """(u, v, d) with a = u / d and b = v / d for the least d > 0."""
        d = math.lcm(self.a.denominator, self.b.denominator)
        return (self.a.numerator * d // self.a.denominator,
                self.b.numerator * d // self.b.denominator, d)
