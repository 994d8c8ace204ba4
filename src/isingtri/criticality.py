"""Critical data, series evaluation at the singularity, coefficient
asymptotics and the five-type branching mean matrix.

The dominant-singularity location rho_nu is a root of one of two explicit
polynomials, the quadratic branch below the critical weight and the cubic
branch above it; at the critical weight itself both vanish at the exact
quadratic-field point (25 sqrt7 - 55)/864.  Which positive root is the true
radius is decided by the growth fit of `estimate_asymptotics` on the sphere
series: the one root whose inverse lies in the fit's band, and the relative
distance from the band's centre is recorded.

Everything downstream of the exact layer works with rational-endpoint
intervals: evaluation at t_nu adds a power-law tail fitted to the known
singular exponent (the error band is heuristic, not a proof), and the Perron
root of the mean matrix is bracketed by Collatz-Wielandt bounds, which are
rigorous for the given entry intervals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .exactnum import (
    NU_C,
    RHO_NU_C,
    Y_C,
    Interval,
    QuadExt,
    Scalar,
    as_scalar,
    cbrt_interval,
    format_scalar,
    scalar_to_float,
)

if TYPE_CHECKING:
    from .series import TSeries

# binary digits after the point kept by every interval rounding in this module
_BITS = 96


class NoPositiveRoot(ArithmeticError):
    """The regime polynomial has no admissible positive root."""


class InsufficientOrder(ValueError):
    pass


class NegativeEntry(ArithmeticError):
    pass


class NonConvergence(ArithmeticError):
    pass


def p1_poly(nu: Scalar, rho: Scalar) -> Scalar:
    """Cubic branch of the critical curve (supercritical weights)."""
    return _eval_poly(_poly_coeffs(as_scalar(nu), "supercritical_P1"), as_scalar(rho))


def p2_poly(nu: Scalar, rho: Scalar) -> Scalar:
    """Quadratic branch of the critical curve (subcritical weights)."""
    return _eval_poly(_poly_coeffs(as_scalar(nu), "subcritical_P2"), as_scalar(rho))


def _poly_coeffs(nu: Scalar, regime: str) -> list[Scalar]:
    """Coefficients [c0, c1, ...] in rho of the regime polynomial."""
    if regime == "subcritical_P2":
        return [
            (7 * nu ** 2 - 14 * nu - 9) * (nu - 2) ** 2,
            864 * nu * (nu - 1) * (nu ** 2 - 2 * nu - 1),
            Fraction(27648) * nu ** 4,
        ]
    return [
        (nu - 1) * (4 * nu ** 2 - 8 * nu - 23),
        -48 * nu ** 3 * (nu - 1) ** 2,
        -192 * nu ** 6 * (3 * nu + 5) * (nu - 1) * (3 * nu - 11),
        Fraction(131072) * nu ** 9,
    ]


def _eval_poly(coeffs: list[Scalar], x: Scalar) -> Scalar:
    acc: Scalar = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _isolate_positive_roots(coeffs: list[Fraction], width: Fraction) -> list[Interval]:
    """Isolating intervals of the distinct positive real roots (degree <= 3).

    Splits the positive axis into monotone pieces at the derivative's roots
    and bisects each sign change; exact Fraction arithmetic throughout.
    """
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    coeffs = coeffs[:deg + 1]
    if deg == 0:
        return []
    # Cauchy bound for positive roots
    lead = abs(coeffs[-1])
    bound = Fraction(1) + max(abs(c) for c in coeffs[:-1]) / lead

    breakpoints = [Fraction(0), bound]
    if deg >= 2:
        deriv = [c * (i + 1) for i, c in enumerate(coeffs[1:])]
        for iv in _isolate_positive_roots(deriv, width):
            breakpoints.extend((iv.lo, iv.hi))
    breakpoints = sorted(set(b for b in breakpoints if 0 <= b <= bound))

    roots: list[Interval] = []
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        flo, fhi = _eval_poly(coeffs, lo), _eval_poly(coeffs, hi)
        if flo == 0:
            if not any(r.contains(lo) for r in roots):
                roots.append(Interval(lo, lo))
            continue
        if fhi == 0:
            continue  # picked up as the endpoint of the next piece
        if (flo > 0) == (fhi > 0):
            continue
        while hi - lo > width:
            mid = (lo + hi) / 2
            fm = _eval_poly(coeffs, mid)
            if fm == 0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(Interval(lo, hi))
    # endpoint-exact roots from the tail pieces
    for b in breakpoints[1:]:
        if _eval_poly(coeffs, b) == 0 and not any(r.contains(b) for r in roots):
            roots.append(Interval(b, b))
    roots.sort(key=lambda r: r.lo)
    return roots


def decay_exponent(nu: Scalar) -> Fraction:
    """Exponent alpha of the coefficient asymptotics c_n ~ kappa rho^-n n^-alpha:
    7/3 at the critical weight nu_c, 5/2 at every other positive weight."""
    nu = as_scalar(nu)
    if not nu > 0:
        raise ValueError("nu must be positive")
    return Fraction(7, 3) if nu == NU_C else Fraction(5, 2)


class CriticalData:
    """Regime, singularity location and derived constants for one weight."""

    def __init__(self, nu: Scalar, regime: str, rho: Interval, rho_exact: Scalar | None,
                 t_nu: Interval, selection_margin: float | None = None):
        self.nu = nu
        self.regime = regime                  # subcritical_P2 | supercritical_P1 | critical
        self.rho = rho
        self.rho_exact = rho_exact            # set when rho lies in the working field
        self.t_nu = t_nu
        self.selection_margin = selection_margin

    @property
    def alpha(self) -> Fraction:
        """Polynomial decay exponent of coefficient asymptotics."""
        return decay_exponent(self.nu)

    def to_json(self) -> dict:
        out = {
            "nu": format_scalar(self.nu),
            "regime": self.regime,
            "rho": [str(self.rho.lo), str(self.rho.hi)],
            "t_nu": [str(self.t_nu.lo), str(self.t_nu.hi)],
            "rho_float": float(self.rho),
            "t_nu_float": float(self.t_nu),
        }
        if self.rho_exact is not None:
            out["rho_exact"] = format_scalar(self.rho_exact)
        if self.selection_margin is not None:
            out["selection_margin"] = self.selection_margin
        return out


def critical_point(nu: Scalar, width: Fraction = Fraction(1, 10 ** 30)) -> CriticalData:
    """Locate rho_nu on the correct branch and certify it to the given width."""
    nu = as_scalar(nu)
    if not nu > 0:
        raise ValueError("nu must be positive")
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    # floor(log2(1/width)) exactly: 1/width is in (2^(k-1), 2^(k+1)), and k < 25 gives 32
    num, den = width.numerator, width.denominator
    k = den.bit_length() - num.bit_length()
    if k > 0 and den < num << k:
        k -= 1
    bits = max(32, k + 8)

    if nu == NU_C:
        rho = RHO_NU_C
        if p1_poly(nu, rho) != 0 or p2_poly(nu, rho) != 0:
            raise NoPositiveRoot("critical point fails both branch polynomials")
        rho_iv = scalar_to_float(rho, bits)
        return CriticalData(nu, "critical", rho_iv, rho, cbrt_interval(rho_iv, bits))

    if isinstance(nu, QuadExt):
        raise NotImplementedError("root isolation implemented for rational nu and nu_c")

    regime = "subcritical_P2" if nu < NU_C else "supercritical_P1"
    coeffs = _poly_coeffs(nu, regime)
    roots = [r for r in _isolate_positive_roots(coeffs, width) if r.hi > 0]
    if not roots:
        raise NoPositiveRoot(f"no positive root of {regime} at nu={format_scalar(nu)}")

    # the sphere series' growth band estimates 1/rho: admit the roots whose
    # inverse meets it, and measure each against 1/g for g the band's centre
    from .partition import sphere_series

    growth = _growth_fit(sphere_series(nu, 33), 1.0)[3]
    admissible = [r for r in roots if r.lo * growth.lo <= 1 <= r.hi * growth.hi]
    g = float(growth.mid)
    if len(admissible) == 1:
        chosen = admissible[0]
    else:
        chosen = min(roots, key=lambda r: abs(float(r.mid) * g - 1))
    margin = abs(float(chosen.mid) * g - 1)

    rho_exact = None
    if chosen.width == 0:
        rho_exact = chosen.lo
    return CriticalData(nu, regime, chosen, rho_exact, cbrt_interval(chosen, bits),
                        selection_margin=margin)


# ---------------------------------------------------------------------------
# evaluation at the singularity with a power-law tail
# ---------------------------------------------------------------------------

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)   # B_2 .. B_12


def _tail_sum(alpha: float, n_start: float) -> float:
    """sum_{j>=0} (n_start + j)^-alpha, the Hurwitz zeta zeta(alpha, n_start).

    Euler-Maclaurin: ten terms directly, then at x = n_start + 10 the
    integral x^(1-alpha)/(alpha-1), the half term and the Bernoulli
    corrections B_2k/(2k)! alpha(alpha+1)...(alpha+2k-2) x^(1-alpha-2k)
    for k = 1..6.  For 1 < alpha <= 4 and n_start >= 1 the first omitted
    correction is below 2e-16 of the sum.
    """
    total = math.fsum((n_start + j) ** -alpha for j in range(10))
    x = n_start + 10
    total += x ** (1 - alpha) / (alpha - 1) + x ** -alpha / 2
    rising, factorial = alpha, 2.0
    for k, b in enumerate(_BERNOULLI, 1):
        total += b / factorial * rising * x ** (1 - alpha - 2 * k)
        rising *= (alpha + 2 * k - 1) * (alpha + 2 * k)
        factorial *= (2 * k + 1) * (2 * k + 2)
    return total


def eval_series_interval(series: TSeries, t: Interval, alpha: Fraction | float) -> Interval:
    """Partial sum at an interval point t >= 0 plus a fitted tail.

    The tail models c_k t^k ~ kappa (k/3)^-alpha along the series' support
    class; kappa is fitted on the last support points and the reported band
    is the spread of the last two tail-corrected estimates (heuristic).
    Each power t^k is the running product of the powers between support
    points, which for t >= 0 is the exact interval [t.lo^k, t.hi^k].
    """
    if series.is_zero():
        return Interval(Fraction(0))
    ks = series.support()
    partial, power, prev = Interval(Fraction(0)), Interval(Fraction(1)), 0
    last = []                       # (k, c_k t^k, partial sum to k) at the last two k
    for k in ks:
        power = power * t.powi(k - prev)
        prev = k
        term = scalar_to_float(series.coeff(k), _BITS) * power
        partial = (partial + term).rounded(_BITS)
        last = [*last[-1:], (k, term, partial)]
    if len(ks) < 3:
        return partial
    a = float(alpha)
    estimates = [float(upto.mid) + float(term.mid) * (k / 3.0) ** a * _tail_sum(a, (k + 3) / 3.0)
                 for k, term, upto in last]
    value = estimates[-1]
    # successive estimates drift like a slow power of n; scale the spread by
    # n to cover the remaining systematic part (heuristic, not a proof)
    n_last = ks[-1] / 3.0
    band = abs(estimates[-1] - estimates[-2]) * n_last + abs(value) * 1e-12 + float(partial.width)
    return Interval(Fraction(value - band), Fraction(value + band))


def eval_at_tnu(series: TSeries, crit: CriticalData) -> Interval:
    """Evaluate a nonnegative series at t_nu with the regime's tail model."""
    if series.is_zero():
        return Interval(Fraction(0))
    if series.order < 30:
        raise InsufficientOrder("evaluation at t_nu needs series order >= 30")
    return eval_series_interval(series, crit.t_nu, crit.alpha)


def boundary_at_tnu(words, crit: CriticalData, order: int) -> tuple[Interval, Interval, Interval]:
    """Z_+, Z_++ and Z_+- at t_nu, each from its series in the word table
    `words` (a `partition.WordTable`) cut at t^order: the spectral inputs."""
    return tuple(eval_at_tnu(words.series(w).with_order(order), crit) for w in ("+", "++", "+-"))


# ---------------------------------------------------------------------------
# coefficient asymptotics from the series themselves
# ---------------------------------------------------------------------------

class AsymptoticFit:
    """Growth rate, decay exponent and constant fitted to series coefficients."""

    def __init__(self, growth: Interval, alpha: Interval, kappa: Interval, diagnostics: dict):
        self.growth = growth              # estimate of rho^-1 = t_nu^-3
        self.alpha = alpha                # polynomial decay exponent
        self.kappa = kappa                # multiplicative constant
        self.diagnostics = diagnostics

    def to_json(self) -> dict:
        return {
            "growth": [float(self.growth.lo), float(self.growth.hi)],
            "alpha": [float(self.alpha.lo), float(self.alpha.hi)],
            "kappa": [float(self.kappa.lo), float(self.kappa.hi)],
            "diagnostics": self.diagnostics,
        }


def _log_scalar(c: Scalar) -> float:
    if isinstance(c, QuadExt):
        iv = scalar_to_float(c, 64)
        num, den = iv.mid.numerator, iv.mid.denominator
    else:
        num, den = c.numerator, c.denominator
    if num <= 0:
        raise ValueError("asymptotics expects positive coefficients")
    return math.log(num) - math.log(den)


def _solve_linear(rows: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve a square float system by Gaussian elimination with partial pivoting."""
    size = len(rhs)
    a = [row[:] + [v] for row, v in zip(rows, rhs)]
    for c in range(size):
        p = max(range(c, size), key=lambda r: abs(a[r][c]))
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            for k in range(c, size + 1):
                a[r][k] -= f * a[c][k]
    x = [0.0] * size
    for r in reversed(range(size)):
        x[r] = (a[r][size] - sum(a[r][k] * x[k] for k in range(r + 1, size))) / a[r][r]
    return x


def _fit(ns: list[float], ys: list[float], eps: float, m: int, growth: bool) -> float:
    """The exact interpolant y = A [+ n L] - alpha log n + sum_{j<=m} b_j n^(-j eps)
    through the points: L if `growth`, else alpha (with no n L term)."""
    rows = [[1.0] + ([n] if growth else []) + [-math.log(n)]
            + [n ** (-j * eps) for j in range(1, m + 1)] for n in ns]
    return _solve_linear(rows, ys)[1]


def _band(values: list[float]) -> tuple[float, Interval]:
    """The median of `values` and the band around it reaching the farthest value."""
    ordered = sorted(values)
    mid = (ordered[len(ordered) // 2] + ordered[~(len(ordered) // 2)]) / 2
    half = max(abs(v - mid) for v in values)
    return mid, Interval(Fraction(mid - half), Fraction(mid + half))


def _growth_fit(series: TSeries, eps: float) -> tuple[list[float], list[float], list, Interval]:
    """The points past the burn-in, as n and log c_n, the growth fits [m, e^L]
    of the last m + 3 points for m = 1..7, and their band (see
    `estimate_asymptotics`)."""
    ks = series.support()
    if len(ks) < 10:
        raise InsufficientOrder("need at least 10 nonzero coefficients")
    if len({k % 3 for k in ks}) != 1:
        raise ValueError("series support must lie in one residue class mod 3")
    ks = ks[3:]
    offset = (-ks[0]) % 3
    ns = [(k + offset) / 3.0 for k in ks]
    logs = [_log_scalar(series.coeff(k)) for k in ks]
    fits = [[m, math.exp(_fit(ns[-m - 3:], logs[-m - 3:], eps, m, True))]
            for m in range(1, min(7, len(ns) - 3) + 1)]
    return ns, logs, fits, _band([f[1] for f in fits])[1]


def estimate_asymptotics(series: TSeries, crit: CriticalData) -> AsymptoticFit:
    """Growth rate, exponent and constant from the coefficients.

    Both come from exact fits on consecutive points past the first three
    (the burn-in).  The growth rate is e^L from fits of

        log c_n = A + n L - alpha log n + sum_{j=1..m} b_j n^(-j eps)

    on the last m + 3 points, m = 1..7; alpha comes from fits with L fixed
    at -log rho on m + 2 points ending at each of the last four n, m = 2..7.
    At the critical weight the singular expansion runs in powers of
    (1 - t^3/rho)^(1/3), so eps = 1/3; off it eps = 1.  Each band is centred
    on the median of its fits and reaches the fit farthest from it: a
    heuristic spread, not an error bound.
    """
    eps = 1.0 / 3.0 if crit.regime == "critical" else 1.0
    ns, logs, growth_fits, growth = _growth_fit(series, eps)

    log_rho = math.log(float(crit.rho.mid))
    ratios = [l1 - l0 for l0, l1 in zip(logs, logs[1:])]          # log(c_{n+1}/c_n)
    growth_raw = [math.exp(r) for r in ratios]

    alpha_raw = [-(r + log_rho) / math.log(n1 / n0)
                 for r, n0, n1 in zip(ratios, ns, ns[1:])]
    ys = [l + n * log_rho for l, n in zip(logs, ns)]
    fits = [[m, ns[end - 1], _fit(ns[end - m - 2:end], ys[end - m - 2:end], eps, m, False)]
            for m in range(2, 8) for end in range(max(len(ns) - 3, m + 2), len(ns) + 1)]
    a_star, alpha = _band([f[2] for f in fits])

    kappa_raw = [math.exp(l + n * 3 * math.log(float(crit.t_nu.mid)) + a_star * math.log(n))
                 for l, n in zip(logs, ns)]
    kappa = Interval(Fraction(min(kappa_raw[-2:])), Fraction(max(kappa_raw[-2:])))

    diag = {
        "n_points": len(ns),
        "growth_raw_tail": growth_raw[-4:],
        "growth_fits": growth_fits,
        "alpha_raw_tail": alpha_raw[-4:],
        "alpha_fits": fits,
        "correction_exponent": eps,
        "kappa_tail": kappa_raw[-4:],
    }
    return AsymptoticFit(growth, alpha, kappa, diag)


# ---------------------------------------------------------------------------
# the five-type branching mean matrix
# ---------------------------------------------------------------------------

TYPE_ORDER = ("+", "++", "W++", "-+", "W-+")


class MeanMatrix:
    """Mean offspring counts for the root-degree-dominating branching process."""

    def __init__(self, nu: Scalar, entries: list[list[Interval]]):
        self.nu = nu
        self.entries = entries

    def to_json(self) -> dict:
        return {
            "nu": format_scalar(self.nu),
            "types": list(TYPE_ORDER),
            "entries": [[[float(e.lo), float(e.hi)] for e in row] for row in self.entries],
        }


def mean_matrix(crit: CriticalData, z1: Interval, z2: Interval, zm: Interval) -> MeanMatrix:
    """The 5x5 mean matrix, transcribed entry by entry.

    The inputs z1, z2, zm are Z_+, Z_++ and Z_+- at t_nu; the rho^(2/3)
    factors are t_nu^2 (single source of truth for the cube root), and the
    min/max guards against 1 use the exact nu.
    """
    nu = crit.nu
    T = crit.t_nu
    nmin = scalar_to_float(nu if nu < 1 else Fraction(1), _BITS)   # 1 ^ nu (min)
    nuv = scalar_to_float(nu, _BITS)
    zero = Interval(Fraction(0))
    one = Interval(Fraction(1))

    denom = one - (nmin * T * z1) * 2
    q_pp = nmin * nmin * T * T * z2 / denom
    q_mp = nmin * nmin * T * T * zm / denom

    rows = [
        [nuv * T * z1 * 2, nuv * T * z2 / z1, zero, nuv * T * zm / z1, zero],
        [nuv * T * z1, nuv * T * z1 * 2, one - nuv * T * z1 * 2 - nuv * T / z2, zero, zero],
        [nuv * T * z1, q_pp, one - q_pp, zero, zero],
        [T * z1, zero, zero, T * z1 * 2, one - T * z1 * 2 - T / zm],
        [T * z1, zero, zero, q_mp, one - q_mp],
    ]
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e.hi < 0:
                raise NegativeEntry(f"entry ({i},{j}) is negative: {e}")
    return MeanMatrix(nu, rows)


def spectral_radius(m: MeanMatrix) -> Interval:
    """Perron-root bracket via Collatz-Wielandt bounds.

    The bounds min_i (Av)_i/v_i <= r(A) <= max_i (Av)_i/v_i hold for every
    positive v and nonnegative A, so power iteration with rounded vectors is
    still rigorous: the lower bound is run on the entrywise-lower matrix and
    the upper bound on the entrywise-upper one, each clamped at 0.

    The iteration runs on integers.  The matrix is scaled by the common
    denominator D of its entries, and the iterate is v = k / 2^192 for
    integers k: each step rounds v / max(v) down onto the grid 2^-192, and
    up to 2^-192 where it would reach 0.  Then (Av)_i / v_i = W_i / (D k_i)
    with W = (D A) k.  A bound is final once it moves by less than 10^-8.
    """
    def cw(matrix: list[list[Fraction]], sign: int) -> Fraction:
        """The upper bound (max_i) for sign 1, the lower one (min_i) for -1."""
        den = math.lcm(*(x.denominator for row in matrix for x in row))
        scaled = [[x.numerator * (den // x.denominator) for x in row] for row in matrix]
        k = [1] * len(scaled)
        best = prev = None             # bounds as pairs (numerator, denominator)
        for _ in range(20000):
            w = [sum(map(mul, row, k)) for row in scaled]
            if min(w) <= 0:
                raise NonConvergence("iteration left the positive cone")
            i = 0
            for j in range(1, len(w)):
                if sign * (w[j] * k[i] - w[i] * k[j]) > 0:
                    i = j
            num, dnm = w[i], den * k[i]
            if best is None or sign * (num * best[1] - best[0] * dnm) < 0:
                best = (num, dnm)
            if prev is not None and abs(num * prev[1] - prev[0] * dnm) * 10 ** 8 < dnm * prev[1]:
                return Fraction(*best)
            prev = (num, dnm)
            top = max(w)
            k = [(x << 192) // top or 1 for x in w]
        raise NonConvergence("Collatz-Wielandt bounds did not settle in 20000 iterations")

    lower = cw([[max(e.lo, 0) for e in row] for row in m.entries], -1)
    upper = cw([[max(e.hi, 0) for e in row] for row in m.entries], 1)
    if lower > upper:
        raise NonConvergence("bracket inverted; entry intervals inconsistent")
    return Interval(lower, upper)


# ---------------------------------------------------------------------------
# the hull constant
# ---------------------------------------------------------------------------

def hull_slot_factor(crit: CriticalData, z2: Interval, zm: Interval) -> Interval:
    """t_nu times the larger 2-gon value, of Z_++ (z2) and Z_+- (zm) at t_nu:
    the per-slot factor bounding the radius-1 hull perimeter tail.  At the
    critical weight this equals the closed form below (ferromagnetic side, so
    the monochromatic 2-gon wins)."""
    return crit.t_nu * z2.max(zm)


def hull_constant_closed_form() -> Interval:
    """(131/600)(4 - sqrt7) / (50 sqrt7 - 110)^(1/3) as an interval."""
    num = scalar_to_float(QuadExt(Fraction(4), Fraction(-1)), _BITS) * Fraction(131, 600)
    den = cbrt_interval(scalar_to_float(QuadExt(Fraction(-110), Fraction(50)), _BITS), _BITS)
    return num / den


def hull_constant_below_yc() -> bool:
    """Exact check of the closed form against y_c, by cubing both sides."""
    lhs = Fraction(131, 600) ** 3 * QuadExt(Fraction(148), Fraction(-55))  # (4-sqrt7)^3 scaled
    rhs = Y_C ** 3 * QuadExt(Fraction(-110), Fraction(50))
    return lhs < rhs
