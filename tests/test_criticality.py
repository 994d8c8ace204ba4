import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from criticality_spec import perron_bracket, series_at
from isingtri.criticality import (
    AsymptoticFit,
    InsufficientOrder,
    MeanMatrix,
    NegativeEntry,
    NonConvergence,
    _growth_fit,
    _isolate_positive_roots,
    _poly_coeffs,
    _tail_sum,
    boundary_at_tnu,
    critical_point,
    decay_exponent,
    estimate_asymptotics,
    eval_at_tnu,
    eval_series_interval,
    hull_constant_below_yc,
    hull_constant_closed_form,
    mean_matrix,
    p1_poly,
    p2_poly,
    spectral_radius,
)
from isingtri.exactnum import NU_C, RHO_NU_C, Y_C, Interval, scalar_to_float
from isingtri.partition import WordTable, sphere_series
from isingtri.series import TSeries


def test_exact_critical_constants():
    assert p1_poly(NU_C, RHO_NU_C) == 0
    assert p2_poly(NU_C, RHO_NU_C) == 0


def test_critical_point_at_nu_c():
    crit = critical_point(NU_C)
    assert crit.regime == "critical"
    assert crit.rho_exact == RHO_NU_C
    assert abs(float(crit.t_nu) - 0.23451626301100736) < 1e-12
    assert crit.alpha == decay_exponent(NU_C) == Fraction(7, 3)


def test_critical_point_nu_one():
    crit = critical_point(Fraction(1))
    assert crit.regime == "subcritical_P2"
    # rho is the positive root of 27648 rho^2 - 16, so rho^2 = 1/1728
    sq = crit.rho.mid ** 2
    assert abs(sq - Fraction(1, 1728)) < Fraction(1, 10 ** 25)
    assert crit.selection_margin < 0.05
    assert crit.alpha == decay_exponent(Fraction(1)) == Fraction(5, 2)


def test_regimes_and_monotone_rho():
    rhos = {}
    for nu in (Fraction(1, 2), Fraction(1), Fraction(2)):
        crit = critical_point(nu)
        rhos[nu] = float(crit.rho)
        expected = "subcritical_P2" if nu < NU_C else "supercritical_P1"
        assert crit.regime == expected
        poly = p2_poly if nu < NU_C else p1_poly
        lo = poly(nu, crit.rho.lo)
        hi = poly(nu, crit.rho.hi)
        assert (lo <= 0 <= hi) or (hi <= 0 <= lo)
    # the radius grows as the weight shrinks
    assert rhos[Fraction(1, 2)] > rhos[Fraction(1)] > rhos[Fraction(2)]


@pytest.mark.parametrize("nu, chosen, other", [
    (Fraction(18, 5), 9.414e-4, 6.881e-6),
    (Fraction(37, 10), 8.695e-4, 3.575e-4),
    (Fraction(4), 6.934e-4, 1.328e-3),
    (Fraction(5), 3.614e-4, 3.809e-3),
    (Fraction(10), 4.669e-5, 8.770e-3),
    (Fraction(100), 4.797e-8, 1.278e-2),
], ids=["18/5", "37/10", "4", "5", "10", "100"])
def test_critical_point_picks_one_of_two_positive_P1_roots(nu, chosen, other):
    # above nu = 1 + 3 sqrt(3)/2 the coefficient signs of P1 are (+, -, +-, +), so
    # it has two positive roots; the sphere series' growth fit picks the larger
    # up to 37/10 and the smaller from 4 on, which no "least positive root" rule
    # gives at both
    crit = critical_point(nu)
    assert crit.regime == "supercritical_P1"
    assert p1_poly(nu, crit.rho.lo) * p1_poly(nu, crit.rho.hi) <= 0
    assert float(crit.rho) == pytest.approx(chosen, rel=1e-3)
    rho = Fraction(other)
    assert not crit.rho.contains(rho)
    assert p1_poly(nu, rho * Fraction(999, 1000)) * p1_poly(nu, rho * Fraction(1001, 1000)) < 0


# rho_nu at each weight, as chosen before the growth fit selected it
RHO_BY_WEIGHT = {
    "1/1000": 4.164815e+01, "1/100": 4.148160e+00, "1/10": 3.982602e-01, "1/3": 1.068311e-01,
    "1/2": 6.531781e-02, "3/4": 3.775121e-02, "1": 2.405626e-02, "5/4": 1.590426e-02,
    "13/10": 1.465729e-02, "137/100": 1.306820e-02, "138/100": 1.285470e-02,
    "7/5": 1.243733e-02, "3/2": 1.054834e-02, "2": 4.967886e-03, "5/2": 2.672311e-03,
    "3": 1.591435e-03, "7/2": 1.021267e-03, "359/100": 9.489608e-04, "18/5": 9.413515e-04,
    "37/10": 8.695342e-04, "4": 6.933987e-04, "5": 3.614056e-04, "10": 4.668800e-05,
    "100": 4.797331e-08,
}


def test_the_growth_fit_admits_exactly_one_root():
    for weight, rho in RHO_BY_WEIGHT.items():
        nu = Fraction(weight)
        crit = critical_point(nu)
        growth = _growth_fit(sphere_series(nu, 33), 1.0)[3]
        roots = _isolate_positive_roots(_poly_coeffs(nu, crit.regime), Fraction(1, 10 ** 30))
        admitted = [(r.lo, r.hi) for r in roots if r.lo * growth.lo <= 1 <= r.hi * growth.hi]
        assert admitted == [(crit.rho.lo, crit.rho.hi)], weight
        assert float(crit.rho) == pytest.approx(rho, rel=1e-6), weight
        assert crit.selection_margin < 1e-3, weight


def test_eval_zero_series():
    crit = critical_point(NU_C)
    z = TSeries.zero(NU_C, 50)
    iv = eval_at_tnu(z, crit)
    assert iv.lo == iv.hi == 0


def test_eval_requires_order():
    crit = critical_point(NU_C)
    s = TSeries(NU_C, 10, {2: Fraction(1)})
    with pytest.raises(InsufficientOrder):
        eval_at_tnu(s, crit)


def test_eval_geometric_regime_matches_partial_sums():
    # far below the radius the tail is negligible: band must cover plain sums
    crit = critical_point(Fraction(1))
    from isingtri.partition import sphere_series

    s = sphere_series(Fraction(1), 30)
    t_half = Interval(crit.t_nu.lo / 2, crit.t_nu.hi / 2)
    with_tail = eval_series_interval(s, t_half, Fraction(5, 2))
    plain = Interval(Fraction(0))
    for k, c in sorted(s.coeffs.items()):
        plain = (plain + scalar_to_float(c, 96) * t_half.powi(k)).rounded(96)
    assert with_tail.lo <= plain.hi and plain.lo <= with_tail.hi


@pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(2), NU_C], ids=["1/2", "2", "nu_c"])
def test_eval_matches_the_per_term_powers(nu):
    # the running power t^k gives the same exact interval as t.powi(k) for t >= 0
    crit = critical_point(nu)
    words = WordTable(nu, 31)
    for word in ("+", "++", "+-"):
        s = words.series(word).with_order(30)
        got = eval_at_tnu(s, crit)
        ref = series_at(s, crit.t_nu, crit.alpha)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)


def test_eval_below_three_support_points_is_the_rounded_partial_sum():
    s = TSeries(Fraction(2), 10, {1: Fraction(2), 4: Fraction(1, 3)})
    t = scalar_to_float(Fraction(1, 20), 96)
    got = eval_series_interval(s, t, Fraction(5, 2))
    ref = series_at(s, t, Fraction(5, 2))
    assert (got.lo, got.hi) == (ref.lo, ref.hi)
    plain = ((scalar_to_float(Fraction(2), 96) * t).rounded(96)
             + scalar_to_float(Fraction(1, 3), 96) * t.powi(4)).rounded(96)
    assert (got.lo, got.hi) == (plain.lo, plain.hi)


@pytest.mark.parametrize("alpha", [Fraction(5, 2), Fraction(7, 3)])
@pytest.mark.parametrize("n_start", [Fraction(4, 3), Fraction(5, 3), Fraction(2), Fraction(3),
                                     Fraction(11, 3), Fraction(11), Fraction(100)])
def test_tail_sum_matches_hurwitz_zeta(alpha, n_start):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = mpmath.zeta(mpmath.mpf(alpha.numerator) / alpha.denominator,
                          mpmath.mpf(n_start.numerator) / n_start.denominator)
        rel = abs((_tail_sum(float(alpha), float(n_start)) - ref) / ref)
    assert rel <= 1e-13


def test_asymptotics_on_synthetic_model():
    # c_n = rho^-n n^(-5/2) fitted back to alpha = 2.5 within 0.02 by n = 20
    crit = critical_point(Fraction(1))
    rho = crit.rho.mid
    # c_{3n} is the float rho^-n n^-2.5 as a fraction
    coeffs = {}
    for n in range(1, 21):
        value = float(1 / rho) ** n * n ** -2.5
        coeffs[3 * n] = Fraction(value).limit_denominator(10 ** 30)
    series = TSeries(Fraction(1), 60, coeffs)
    fit = estimate_asymptotics(series, crit)
    assert abs(float(fit.alpha.mid) - 2.5) <= 0.02
    assert abs(float(fit.growth.mid) * float(rho) - 1) <= 0.01



@pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.0, -0.5)])
def test_asymptotics_on_synthetic_critical_model(a, b):
    # c_n = rho_c^-n n^(-7/3) (1 + a n^(-1/3) + b/n) to n = 15 fitted back to
    # alpha = 7/3 within 0.05; the pure 1/n case (0, -0.5) is one that a
    # single n^(-1/3) Richardson step overshoots (about 2.41)
    crit = critical_point(NU_C)
    rho = float(crit.rho.mid)
    coeffs = {}
    for n in range(1, 16):
        value = rho ** -n * n ** (-7 / 3) * (1 + a * n ** (-1 / 3) + b / n)
        coeffs[3 * n] = Fraction(value).limit_denominator(10 ** 30)
    series = TSeries(Fraction(1), 45, coeffs)
    fit = estimate_asymptotics(series, crit)
    assert abs(float(fit.alpha.mid) - 7 / 3) <= 0.05

def test_asymptotics_requires_points():
    crit = critical_point(Fraction(1))
    s = TSeries(Fraction(1), 12, {3: Fraction(1), 6: Fraction(2)})
    with pytest.raises(InsufficientOrder):
        estimate_asymptotics(s, crit)


def _dummy_crit():
    return critical_point(NU_C)


def test_mean_matrix_entries():
    crit = _dummy_crit()
    z1 = Interval(Fraction(26, 100), Fraction(27, 100))
    z2 = Interval(Fraction(44, 100), Fraction(45, 100))
    zm = Interval(Fraction(29, 100), Fraction(30, 100))
    m = mean_matrix(crit, z1, z2, zm)
    nu_iv = scalar_to_float(NU_C, 96)
    t = crit.t_nu
    first = m.entries[0][0]
    expect = nu_iv * t * z1 * 2
    assert first.lo == expect.lo and first.hi == expect.hi
    # type + row: second entry nu t Z_++ / Z_+
    second = m.entries[0][1]
    expect = nu_iv * t * z2 / z1
    assert second.lo == expect.lo and second.hi == expect.hi
    for row in m.entries:
        for e in row:
            assert e.hi >= 0


def test_mean_matrix_negative_entry():
    crit = _dummy_crit()
    bad = Interval(Fraction(-2), Fraction(-1))
    with pytest.raises(NegativeEntry):
        mean_matrix(crit, bad, bad, bad)


def _const_matrix(entries):
    return MeanMatrix(NU_C, [[Interval(Fraction(x)) for x in row] for row in entries])


_U, _V = [1, 2, 3, 4, 5], [5, 4, 3, 2, 1]
_CONST_MATRICES = {
    "identity": [[1 if i == j else 0 for j in range(5)] for i in range(5)],
    "rank-one": [[ui * vj for vj in _V] for ui in _U],
    "banded": [[Fraction(1, 2) if abs(i - j) <= 1 else Fraction(1, 10) for j in range(5)]
               for i in range(5)],
}


def test_spectral_radius_identity():
    r = spectral_radius(_const_matrix(_CONST_MATRICES["identity"]))
    assert r.contains(1) and r.width < Fraction(1, 10 ** 6)


def test_spectral_radius_rank_one():
    r = spectral_radius(_const_matrix(_CONST_MATRICES["rank-one"]))
    dot = sum(a * b for a, b in zip(_U, _V))
    assert r.contains(dot)


def test_collatz_wielandt_sandwich():
    r = spectral_radius(_const_matrix(_CONST_MATRICES["banded"]))
    assert r.lo <= r.hi


@pytest.mark.parametrize("name", list(_CONST_MATRICES))
def test_spectral_radius_matches_the_fraction_iteration(name):
    m = _const_matrix(_CONST_MATRICES[name])
    r, ref = spectral_radius(m), perron_bracket(m.entries)
    assert (r.lo, r.hi) == (ref.lo, ref.hi)


def test_spectral_radius_at_nu_c_matches_the_fraction_iteration():
    crit = critical_point(NU_C)
    m = mean_matrix(crit, *boundary_at_tnu(WordTable(NU_C, 31), crit, 30))
    r, ref = spectral_radius(m), perron_bracket(m.entries)
    assert (r.lo, r.hi) == (ref.lo, ref.hi)
    assert r.hi < 1


_ENTRY = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=5, max_size=5),
                min_size=5, max_size=5))
def test_spectral_radius_matches_on_random_positive_matrices(rows):
    m = MeanMatrix(NU_C, [[Interval(min(a, b), max(a, b)) for a, b in row] for row in rows])
    r, ref = spectral_radius(m), perron_bracket(m.entries)
    assert (r.lo, r.hi) == (ref.lo, ref.hi)


def test_spectral_radius_zero_row_leaves_the_positive_cone():
    m = _const_matrix([[0] * 5] + [[1] * 5] * 4)
    with pytest.raises(NonConvergence, match="left the positive cone"):
        spectral_radius(m)


def test_hull_constant():
    iv = hull_constant_closed_form()
    assert abs(float(iv) - 0.1050664982) < 1e-9
    assert hull_constant_below_yc()
    assert iv.hi < scalar_to_float(Y_C, 96).lo
