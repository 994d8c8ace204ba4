"""Plain models of two numeric loops of `isingtri.criticality`, which the
engine is tested against endpoint for endpoint.

`perron_bracket` is the Collatz-Wielandt iteration on Fractions: the iterate
v is rounded down onto the grid 2^-192 after each product (never to 0), and a
bound is final once it moves by less than 10^-8.  `series_at` is the partial
sum with one `powi` per term and the power-law tail fitted on the last two
support points, each term computed afresh.
"""

import math
from fractions import Fraction

from isingtri.criticality import NonConvergence, _tail_sum
from isingtri.exactnum import Interval, scalar_to_float


def perron_bracket(entries: list[list[Interval]]) -> Interval:
    """[min_i (Av)_i/v_i, max_i (Av)_i/v_i] of the entrywise-lower and the
    entrywise-upper matrix, each clamped at 0."""
    def cw(matrix, want_upper):
        n = len(matrix)
        v = [Fraction(1)] * n
        best = prev = None
        for _ in range(20000):
            w = [sum(matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
            if any(x <= 0 for x in w):
                raise NonConvergence("iteration left the positive cone")
            quotients = [w[i] / v[i] for i in range(n)]
            bound = max(quotients) if want_upper else min(quotients)
            if best is None:
                best = bound
            else:
                best = min(best, bound) if want_upper else max(best, bound)
            if prev is not None and abs(bound - prev) < Fraction(1, 10 ** 8):
                return best
            prev = bound
            scale = max(w)
            v = [Fraction(math.floor(x / scale * (1 << 192)), 1 << 192) or Fraction(1, 1 << 192)
                 for x in w]
        raise NonConvergence("Collatz-Wielandt bounds did not settle")

    lower = cw([[e.lo if e.lo > 0 else Fraction(0) for e in row] for row in entries], False)
    upper = cw([[e.hi if e.hi > 0 else Fraction(0) for e in row] for row in entries], True)
    return Interval(lower, upper)


def series_at(series, t: Interval, alpha) -> Interval:
    """The partial sum at t with 96-bit rounding, plus the fitted tail and its
    heuristic band; the rounded partial sum alone below three support points."""
    if series.is_zero():
        return Interval(Fraction(0))
    ks = series.support()
    partial = Interval(Fraction(0))
    partials = {}
    for k in ks:
        partial = (partial + scalar_to_float(series.coeff(k), 96) * t.powi(k)).rounded(96)
        partials[k] = partial
    if len(ks) < 3:
        return partial
    a = float(alpha)
    estimates = []
    for k in ks[-2:]:
        term = scalar_to_float(series.coeff(k), 96) * t.powi(k)
        kappa = float(term.mid) * (k / 3.0) ** a
        estimates.append(float(partials[k].mid) + kappa * _tail_sum(a, (k + 3) / 3.0))
    value = estimates[-1]
    band = (abs(estimates[-1] - estimates[-2]) * (ks[-1] / 3.0) + abs(value) * 1e-12
            + float(partial.width))
    return Interval(Fraction(value - band), Fraction(value + band))
