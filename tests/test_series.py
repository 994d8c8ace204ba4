import random
from fractions import Fraction

import pytest

from isingtri.exactnum import QuadExt
from isingtri.series import (
    BivSeries,
    DegreeOverflow,
    NotContractive,
    TSeries,
    ValuationError,
    solve_fixed_point,
)

from picard_spec import FixedPointSpec

NU = Fraction(1)


def ts(coeffs, order=8, nu=NU):
    return TSeries(nu, order, {k: Fraction(v) for k, v in coeffs.items()})


def test_basic_product():
    a = ts({0: 1, 1: 1}, order=2)
    b = ts({0: 1, 1: -1}, order=2)
    assert (a * b).coeffs == {0: Fraction(1), 2: Fraction(-1)}


def test_monomial_algebra():
    nu = Fraction(3)
    m = BivSeries.monomial(nu, 3, 6, 6, 1, 2, 0, nu)     # nu t x^2
    sq = m * m
    out = sq.mul_monomial(0, -1, 0)
    assert out.coeffs == {(2, 3, 0): nu * nu}


def test_valuation_errors():
    s = ts({0: 1, 2: 5})
    with pytest.raises(ValuationError):
        s.shift(-1)
    b = BivSeries.monomial(NU, 3, 3, 3, 1, 0, 0)
    with pytest.raises(ValuationError):
        b.mul_monomial(0, -1, 0)


def test_degree_overflow():
    b = BivSeries.monomial(NU, 6, 2, 2, 0, 2, 0)
    with pytest.raises(DegreeOverflow):
        b * b


def test_inverse():
    s = ts({0: 1, 1: -2}, order=6)
    inv = s.inverse()
    assert (s * inv).coeffs == {0: Fraction(1)}
    with pytest.raises(ValuationError):
        ts({1: 1}).inverse()


def test_fixed_point_geometric():
    def update(state, order):
        one = TSeries.monomial(NU, order, 0)
        return {"F": one + state["F"].shift(1)}

    sol = solve_fixed_point(FixedPointSpec({"F": TSeries.zero(NU, 0)}, update), 3)
    assert sol["F"].coeffs == {0: 1, 1: 1, 2: 1, 3: 1}


def test_fixed_point_catalan_type():
    # F = t + t F^2: the odd Catalan pattern, [t^3] = 1 and [t^4] = 0
    def update(state, order):
        f = state["F"]
        return {"F": TSeries.monomial(NU, order, 1) + (f * f).shift(1)}

    sol = solve_fixed_point(FixedPointSpec({"F": TSeries.zero(NU, 0)}, update), 5)
    f = sol["F"]
    assert f.coeff(3) == 1 and f.coeff(4) == 0 and f.coeff(5) == 2


def test_fixed_point_idempotence_and_stabilization():
    def update(state, order):
        f = state["F"]
        return {"F": TSeries.monomial(NU, order, 1) + (f * f).shift(1)}

    order = 7
    sol = solve_fixed_point(FixedPointSpec({"F": TSeries.zero(NU, 0)}, update), order)
    again = update({"F": sol["F"]}, order)
    assert again["F"].eq_to_order(sol["F"], order)


def test_not_contractive_detected():
    def update(state, order):
        # no t-gain: alternates and never stabilizes
        one = TSeries.monomial(NU, order, 0)
        return {"F": one - state["F"]}

    with pytest.raises(NotContractive):
        solve_fixed_point(FixedPointSpec({"F": TSeries.zero(NU, 0)}, update), 4)


def _random_series(rng, nu, order):
    coeffs = {}
    for k in range(order + 1):
        if rng.random() < 0.5:
            coeffs[k] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return TSeries(nu, order, coeffs)


def test_mul_ring_axioms_randomized():
    rng = random.Random(99)
    nu = QuadExt(1, Fraction(1, 7))
    for _ in range(40):
        order = rng.randrange(3, 7)
        a = _random_series(rng, nu, order)
        b = _random_series(rng, nu, order)
        c = _random_series(rng, nu, order)
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


def test_biv_extraction_and_swap():
    b = BivSeries(NU, 5, 5, 5, {(1, 2, 1): Fraction(3), (2, 1, 2): Fraction(5)})
    assert b.swap_xy().coeffs == {(1, 1, 2): Fraction(3), (2, 2, 1): Fraction(5)}
    t = b.extract_tseries(2, 1)
    assert t.coeffs == {1: Fraction(3)}


def test_json_serialization():
    s = ts({1: Fraction(3, 2)}, order=4)
    js = s.to_json()
    assert js == {"nu": "1", "order": 4, "coeffs": {"1": "3/2"}}
    b = BivSeries.monomial(NU, 2, 2, 2, 1, 1, 0)
    assert b.to_json()["coeffs"] == {"1,1,0": "1"}


def test_incompatible_nu_rejected():
    a = ts({0: 1})
    b = TSeries(Fraction(2), 8, {0: Fraction(1)})
    with pytest.raises(ValueError):
        a + b
