import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isingtri.exactnum import (
    NU_C,
    RHO_NU_C,
    Y_C,
    DivisionByZero,
    Interval,
    QuadExt,
    cbrt_interval,
    format_scalar,
    parse_scalar,
    scalar_to_float,
    sqrt7_interval,
)
from quadext_spec import Q7


def test_conjugate_product():
    a = QuadExt(1, 1)
    b = QuadExt(1, -1)
    assert a * b == Fraction(-6)


def test_nu_c_square():
    sq = NU_C * NU_C
    assert sq == QuadExt(Fraction(8, 7), Fraction(2, 7))


def test_lowest_terms():
    assert parse_scalar("3/6") == Fraction(1, 2)
    assert Fraction(3, 6).denominator == 2


def test_demotion_to_rational():
    x = QuadExt(2, 3) - QuadExt(1, 3)
    assert isinstance(x, Fraction) and x == 1
    assert QuadExt(0, 1) * QuadExt(0, 1) == Fraction(7)


def test_cmp_examples():
    assert NU_C > Fraction(1)
    assert NU_C < Fraction(2)                         # 1/sqrt7 < 1 since 7 < 49
    assert QuadExt(0, 0) == Fraction(0) and QuadExt(0, 0) <= 0 <= QuadExt(0, 0)


def test_cmp_when_sqrt7_parts_cancel():
    # the difference demotes to a Fraction, whose sign decides the order
    a, b = QuadExt(1, 1), QuadExt(2, 1)
    assert a < b and a <= b and b > a and b >= a
    assert not (a > b or a >= b or b < a or b <= a)
    assert a <= QuadExt(1, 1) and a >= QuadExt(1, 1)
    assert QuadExt(3, 2) > 2 and QuadExt(Fraction(1, 2), 0) < 1


def test_division():
    x = NU_C / NU_C
    assert x == 1
    with pytest.raises(DivisionByZero):
        Fraction(1) / QuadExt(0, 0)


def test_equality_across_types():
    assert QuadExt(Fraction(1, 2), 0) == Fraction(1, 2)
    assert hash(QuadExt(Fraction(1, 2), 0)) == hash(Fraction(1, 2))


def test_float_enclosures():
    iv = scalar_to_float(NU_C, 64)
    assert abs(float(iv) - 1.3779644730092272) < 1e-14
    assert iv.width <= Fraction(1, 2 ** 63)
    iv = scalar_to_float(Y_C, 64)
    assert abs(float(iv) - 2.1874507866387546) < 1e-14
    iv = scalar_to_float(Fraction(1, 2), 64)
    assert iv.lo == iv.hi == Fraction(1, 2)


def test_float_interval_monotone_in_precision():
    prev = None
    for bits in (32, 48, 64, 96):
        iv = scalar_to_float(NU_C, bits)
        if prev is not None:
            assert prev.lo <= iv.lo and iv.hi <= prev.hi
        prev = iv
    tight = scalar_to_float(NU_C, 160)
    assert prev.lo <= tight.mid <= prev.hi


def _random_scalar(rng):
    a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
    if rng.random() < 0.5:
        return a
    b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
    return QuadExt(a, b) if b else a


def test_field_axioms_randomized():
    rng = random.Random(42)
    for _ in range(200):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if y != 0 and not (isinstance(y, Fraction) and y == 0):
            q = x / y
            assert q * y == x


def test_cmp_total_order_randomized():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x < y) == (y > x) and (x <= y) == (y >= x)
        assert [x < y, x == y, x > y].count(True) == 1
        if x <= y and y <= z:
            assert x <= z


def test_parse_format_roundtrip():
    for text in ("7/3", "-5", "1 + 1/7*sqrt7", "-55/864 + 25/864*sqrt7", "0 + -1*sqrt7"):
        value = parse_scalar(text)
        assert parse_scalar(format_scalar(value)) == value
    assert parse_scalar("nu_c") == NU_C
    assert parse_scalar("y_c") == Y_C


def test_constants():
    assert NU_C == QuadExt(1, Fraction(1, 7))
    assert RHO_NU_C == QuadExt(Fraction(-55, 864), Fraction(25, 864))
    # 1 + 1/sqrt7 == 1 + sqrt7/7
    assert NU_C * QuadExt(0, 1) == QuadExt(1, 1)  # (1 + s/7) s = s + 1 with s = sqrt7


def test_interval_arithmetic():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    b = Interval(Fraction(-2), Fraction(3))
    prod = a * b
    assert prod.lo == -1 and prod.hi == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        b.inverse()
    assert (a / a).contains(1)
    r = a.rounded(16)
    assert r.lo <= a.lo and a.hi <= r.hi


def test_sqrt7_and_cbrt():
    s = sqrt7_interval(80)
    assert s.lo * s.lo <= 7 <= s.hi * s.hi
    c = cbrt_interval(Interval(Fraction(8)), 60)
    assert c.contains(2)
    c = cbrt_interval(scalar_to_float(RHO_NU_C, 90), 90)
    cube = c.powi(3)
    rho = scalar_to_float(RHO_NU_C, 90)
    assert cube.lo <= rho.hi and rho.lo <= cube.hi


# -- the field against the Fraction-pair model ------------------------------

# denominators that share factors with each other, and ones that do not
_SHARED = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 4, 6, 12, 18, 36]))
_COPRIME = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 5, 7, 11, 13, 49]))
_RATIONAL = st.one_of(st.integers(-9, 9), _SHARED, _COPRIME)
_QUAD = st.one_of(st.builds(QuadExt, _SHARED, _SHARED), st.builds(QuadExt, _COPRIME, _COPRIME),
                  st.builds(QuadExt, _SHARED, _COPRIME), st.builds(QuadExt, _RATIONAL, _RATIONAL))


def _model(x) -> Q7:
    return Q7(x.a, x.b) if isinstance(x, QuadExt) else Q7(x)


def _agrees(got, want: Q7) -> None:
    """`got` is the value `want`, demoted to a Fraction exactly when its sqrt7 part is 0."""
    if want.b == 0:
        assert type(got) is Fraction and got == want.a
        return
    assert type(got) is QuadExt and (got.a, got.b) == (want.a, want.b)
    assert (got._u, got._v, got._d) == want.triple()        # equal values, equal triples
    assert hash(got) == hash((want.a, want.b, "sqrt7"))
    assert got == QuadExt(want.a, want.b)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=_QUAD, y=st.one_of(_RATIONAL, _QUAD))
def test_field_matches_the_fraction_pair_model(x, y):
    mx, my = _model(x), _model(y)
    assert (x.a, x.b) == (mx.a, mx.b)
    assert hash(x) == (hash(mx.a) if mx.b == 0 else hash((mx.a, mx.b, "sqrt7")))
    for p, q, mp, mq in ((x, y, mx, my), (y, x, my, mx)):
        _agrees(p + q, mp + mq)
        _agrees(p - q, mp - mq)
        _agrees(p * q, mp * mq)
        if not mq.is_zero():
            _agrees(p / q, mp / mq)
        s = (mp - mq).sign()
        assert (p < q, p <= q, p == q, p != q, p >= q, p > q) == (
            s < 0, s <= 0, s == 0, s != 0, s >= 0, s > 0)
    if not mx.is_zero():
        _agrees(x.inverse(), mx.inverse())
        for n in range(-3, 4):
            _agrees(x ** n, mx ** n)


@pytest.mark.parametrize("zero", [0, Fraction(0), QuadExt(0, 0), QuadExt(Fraction(0, 3), 0)])
def test_division_by_zero_raises(zero):
    x = QuadExt(Fraction(3, 4), Fraction(-1, 6))
    with pytest.raises(DivisionByZero):
        x / zero
    if isinstance(zero, QuadExt):
        for call in (zero.inverse, lambda: zero ** -2, lambda: 1 / zero, lambda: x / zero):
            with pytest.raises(DivisionByZero):
                call()


# -- the root enclosures against the bisection they replace -----------------

def _bisect_sqrt7(bits):
    lo, hi = Fraction(2), Fraction(3)
    while hi - lo > Fraction(1, 1 << bits):
        mid = (lo + hi) / 2
        if mid * mid <= 7:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bisect_cbrt(v, bits, round_up):
    if v == 0:
        return Fraction(0)
    lo, hi = Fraction(0), max(Fraction(1), v)
    while hi - lo > Fraction(1, 1 << bits):
        mid = (lo + hi) / 2
        if mid ** 3 <= v:
            lo = mid
        else:
            hi = mid
    return hi if round_up else lo


_CBRT_VALUES = [
    Fraction(1, 3), Fraction(1, 10 ** 40), Fraction(999, 1000), Fraction(2, 3),   # below 1
    Fraction(2), Fraction(2229, 100), Fraction(10 ** 30, 7), Fraction(65, 64),    # above 1
    Fraction(1), Fraction(8), Fraction(27, 64), Fraction(1, 8), Fraction(1000),   # exact cubes
]


@pytest.mark.parametrize("bits", [24, 53, 64, 96, 104, 128, 200])
def test_root_enclosures_equal_the_bisection_bit_for_bit(bits):
    s = sqrt7_interval(bits)
    assert (s.lo, s.hi) == _bisect_sqrt7(bits)
    for lo in _CBRT_VALUES:
        for hi in (lo, lo * Fraction(3, 2)):
            c = cbrt_interval(Interval(lo, hi), bits)
            assert (c.lo, c.hi) == (_bisect_cbrt(lo, bits, False), _bisect_cbrt(hi, bits, True))
    assert cbrt_interval(Interval(0, 0), bits).hi == 0
