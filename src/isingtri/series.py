"""Truncated power series in t, optionally with catalytic variables x and y.

Coefficients are exact scalars (Fraction or QuadExt) attached to a fixed Ising
weight nu.  Storage is sparse: partition-function series only populate one
residue class of the t-exponent mod 3, so dense arrays would waste most slots.
Arithmetic truncates at the minimum order of the operands.

`solve_fixed_point` turns a t-contracting update rule into an order-by-order
solver: starting from zero, each application of the rule freezes at least one
more t-layer, and stabilization is verified at the end.  No production engine
calls it: `partition` solves every series layer by layer.  It remains here as
the Picard reference that the tests check those engines against, and because
the benchmark tracer (`perfbench/traced.py`) wraps it by name.  Its systems
are specified by the tests, which hold the spec type.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import Scalar, as_scalar, format_scalar


class DegreeOverflow(Exception):
    """A nonzero term exceeded the declared catalytic degree caps."""


class NotContractive(Exception):
    """Fixed-point iterates failed to stabilize (mis-transcribed equation)."""


class ValuationError(ArithmeticError):
    """Division by a variable the series does not vanish in."""


class TSeries:
    """Truncated series sum_k c_k t^k with exact coefficients, 0 <= k <= order."""

    __slots__ = ("nu", "order", "coeffs")

    def __init__(self, nu: Scalar, order: int, coeffs: dict[int, Scalar] | None = None):
        self.nu = as_scalar(nu)
        self.order = order
        self.coeffs: dict[int, Scalar] = {}
        if coeffs:
            for k, c in coeffs.items():
                if k <= order and c:
                    self.coeffs[k] = c

    @classmethod
    def zero(cls, nu: Scalar, order: int) -> "TSeries":
        return cls(nu, order)

    @classmethod
    def monomial(cls, nu: Scalar, order: int, k: int, c: Scalar = Fraction(1)) -> "TSeries":
        return cls(nu, order, {k: as_scalar(c)})

    def coeff(self, k: int) -> Scalar:
        return self.coeffs.get(k, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def with_order(self, order: int) -> "TSeries":
        return TSeries(self.nu, order, {k: c for k, c in self.coeffs.items() if k <= order})

    def __repr__(self) -> str:
        terms = ", ".join(f"t^{k}: {format_scalar(c)}" for k, c in sorted(self.coeffs.items())[:6])
        return f"TSeries(order={self.order}, {{{terms}{', ...' if len(self.coeffs) > 6 else ''}}})"

    def _check_compat(self, other: "TSeries") -> None:
        if self.nu != other.nu:
            raise ValueError("series with different nu cannot be combined")

    def __add__(self, other: "TSeries") -> "TSeries":
        self._check_compat(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TSeries(self.nu, order, out)

    def __neg__(self) -> "TSeries":
        return TSeries(self.nu, self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def scale(self, c: Scalar) -> "TSeries":
        c = as_scalar(c)
        if not c:
            return TSeries(self.nu, self.order)
        return TSeries(self.nu, self.order, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "TSeries") -> "TSeries":
        self._check_compat(other)
        order = min(self.order, other.order)
        out: dict[int, Scalar] = {}
        items = sorted(other.coeffs.items())
        for k1, c1 in sorted(self.coeffs.items()):
            if k1 > order:
                break
            for k2, c2 in items:
                k = k1 + k2
                if k > order:
                    break
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return TSeries(self.nu, order, out)

    def shift(self, k: int) -> "TSeries":
        """Multiply by t^k (k may be negative: exact division, ValuationError)."""
        if k >= 0:
            return TSeries(self.nu, self.order, {kk + k: c for kk, c in self.coeffs.items() if kk + k <= self.order})
        if any(kk + k < 0 for kk in self.coeffs):
            raise ValuationError(f"series not divisible by t^{-k}")
        return TSeries(self.nu, self.order, {kk + k: c for kk, c in self.coeffs.items()})

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeff(0)
        if not c0:
            raise ValuationError("series with zero constant term has no inverse")
        inv0 = Fraction(1) / c0 if not hasattr(c0, "inverse") else c0.inverse()
        out: dict[int, Scalar] = {0: inv0}
        items = sorted((k, c) for k, c in self.coeffs.items() if k > 0)
        for n in range(1, self.order + 1):
            acc: Scalar = Fraction(0)
            for k, c in items:
                if k > n:
                    break
                b = out.get(n - k)
                if b:
                    acc = acc + c * b
            if acc:
                out[n] = -(inv0 * acc)
        return TSeries(self.nu, self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.nu == other.nu and self.order == other.order and self.coeffs == other.coeffs

    def eq_to_order(self, other: "TSeries", order: int) -> bool:
        for k in range(order + 1):
            if self.coeff(k) != other.coeff(k):
                return False
        return True

    def first_difference(self, other: "TSeries", order: int) -> int | None:
        for k in range(order + 1):
            if self.coeff(k) != other.coeff(k):
                return k
        return None

    def to_json(self) -> dict:
        return {
            "nu": format_scalar(self.nu),
            "order": self.order,
            "coeffs": {str(k): format_scalar(c) for k, c in sorted(self.coeffs.items())},
        }


class BivSeries:
    """Series in t with catalytic variables: sum c_{k,i,j} t^k x^i y^j.

    Degrees are capped at (dx, dy); producing a nonzero term beyond a cap
    raises DegreeOverflow so truncation is never silently wrong.
    """

    __slots__ = ("nu", "order", "dx", "dy", "coeffs")

    def __init__(self, nu: Scalar, order: int, dx: int, dy: int,
                 coeffs: dict[tuple[int, int, int], Scalar] | None = None):
        self.nu = as_scalar(nu)
        self.order = order
        self.dx = dx
        self.dy = dy
        self.coeffs: dict[tuple[int, int, int], Scalar] = {}
        if coeffs:
            for key, c in coeffs.items():
                if not c:
                    continue
                k, i, j = key
                if k > order:
                    continue
                if i > dx or j > dy:
                    raise DegreeOverflow(f"term t^{k} x^{i} y^{j} exceeds caps ({dx}, {dy})")
                self.coeffs[key] = c

    @classmethod
    def zero(cls, nu: Scalar, order: int, dx: int, dy: int) -> "BivSeries":
        return cls(nu, order, dx, dy)

    @classmethod
    def monomial(cls, nu: Scalar, order: int, dx: int, dy: int,
                 k: int, i: int, j: int, c: Scalar = Fraction(1)) -> "BivSeries":
        return cls(nu, order, dx, dy, {(k, i, j): as_scalar(c)})

    def coeff(self, k: int, i: int, j: int) -> Scalar:
        return self.coeffs.get((k, i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def with_order(self, order: int) -> "BivSeries":
        return BivSeries(self.nu, order, self.dx, self.dy,
                         {key: c for key, c in self.coeffs.items() if key[0] <= order})

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"BivSeries(order={self.order}, dx={self.dx}, dy={self.dy}, {n} terms)"

    def _check_compat(self, other: "BivSeries") -> None:
        if self.nu != other.nu:
            raise ValueError("series with different nu cannot be combined")

    def __add__(self, other: "BivSeries") -> "BivSeries":
        self._check_compat(other)
        order = min(self.order, other.order)
        dx, dy = min(self.dx, other.dx), min(self.dy, other.dy)
        out = BivSeries(self.nu, order, dx, dy)
        for src in (self.coeffs, other.coeffs):
            for key, c in src.items():
                if key[0] > order:
                    continue
                if key[1] > dx or key[2] > dy:
                    raise DegreeOverflow(f"term {key} exceeds caps ({dx}, {dy})")
                s = out.coeffs.get(key, Fraction(0)) + c
                if s:
                    out.coeffs[key] = s
                else:
                    out.coeffs.pop(key, None)
        return out

    def __neg__(self) -> "BivSeries":
        out = BivSeries(self.nu, self.order, self.dx, self.dy)
        out.coeffs = {key: -c for key, c in self.coeffs.items()}
        return out

    def __sub__(self, other: "BivSeries") -> "BivSeries":
        return self + (-other)

    def scale(self, c: Scalar) -> "BivSeries":
        c = as_scalar(c)
        out = BivSeries(self.nu, self.order, self.dx, self.dy)
        if c:
            out.coeffs = {key: c * v for key, v in self.coeffs.items()}
        return out

    def __mul__(self, other: "BivSeries") -> "BivSeries":
        self._check_compat(other)
        order = min(self.order, other.order)
        dx, dy = min(self.dx, other.dx), min(self.dy, other.dy)
        acc: dict[tuple[int, int, int], Scalar] = {}
        items = sorted(other.coeffs.items())
        for (k1, i1, j1), c1 in sorted(self.coeffs.items()):
            if k1 > order:
                break
            for (k2, i2, j2), c2 in items:
                k = k1 + k2
                if k > order:
                    break
                key = (k, i1 + i2, j1 + j2)
                s = acc.get(key, Fraction(0)) + c1 * c2
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        for (k, i, j), c in acc.items():
            if i > dx or j > dy:
                raise DegreeOverflow(f"product term t^{k} x^{i} y^{j} exceeds caps ({dx}, {dy})")
        out = BivSeries(self.nu, order, dx, dy)
        out.coeffs = acc
        return out

    def mul_monomial(self, k: int, i: int, j: int, c: Scalar = Fraction(1)) -> "BivSeries":
        """Multiply by c * t^k x^i y^j; negative i or j divide exactly."""
        c = as_scalar(c)
        out = BivSeries(self.nu, self.order, self.dx, self.dy)
        if not c:
            return out
        for (k0, i0, j0), v in self.coeffs.items():
            kk, ii, jj = k0 + k, i0 + i, j0 + j
            if ii < 0 or jj < 0:
                raise ValuationError(f"term x^{i0} y^{j0} not divisible by x^{-i} y^{-j}")
            if kk > self.order:
                continue
            if ii > self.dx or jj > self.dy:
                raise DegreeOverflow(f"term t^{kk} x^{ii} y^{jj} exceeds caps")
            out.coeffs[(kk, ii, jj)] = c * v
        return out

    def extract_tseries(self, i: int, j: int) -> TSeries:
        """The t-series standing in front of x^i y^j."""
        return TSeries(self.nu, self.order,
                       {k: c for (k, ii, jj), c in self.coeffs.items() if ii == i and jj == j})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivSeries):
            return NotImplemented
        return self.nu == other.nu and self.coeffs == other.coeffs

    def eq_to_order(self, other: "BivSeries", order: int) -> bool:
        keys = set(self.coeffs) | set(other.coeffs)
        for key in keys:
            if key[0] <= order and self.coeffs.get(key, 0) != other.coeffs.get(key, 0):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "nu": format_scalar(self.nu),
            "order": self.order,
            "dx": self.dx,
            "dy": self.dy,
            "coeffs": {f"{k},{i},{j}": format_scalar(c)
                       for (k, i, j), c in sorted(self.coeffs.items())},
        }


# ---------------------------------------------------------------------------
# generic order-by-order fixed-point solver
# ---------------------------------------------------------------------------

def solve_fixed_point(spec, order: int) -> dict:
    """Solve a t-contracting system F = Phi(F) of named series unknowns to the
    requested t-order and verify stabilization.

    `spec.zero` maps each unknown name to its zero initialization (a TSeries
    or BivSeries at order 0).  `spec.update` receives the current iterates,
    all lifted to the working truncation order, and must return the next
    iterates at that order.  Every occurrence of an unknown on the right-hand
    side must carry at least `spec.min_gain` powers of t, which is what makes
    coefficients below the iteration count final.
    """
    state = {name: z.with_order(0) for name, z in spec.zero.items()}
    steps = (order + spec.min_gain - 1) // spec.min_gain + 1
    for step in range(1, steps + 1):
        work = min(step * spec.min_gain, order)
        lifted = {name: s.with_order(work) for name, s in state.items()}
        state = spec.update(lifted, work)
        if set(state) != set(spec.zero):
            raise ValueError("update rule changed the set of unknowns")
    final = spec.update({name: s.with_order(order) for name, s in state.items()}, order)
    for name in state:
        if not state[name].eq_to_order(final[name], order):
            raise NotContractive(f"unknown {name!r} failed to stabilize at order {order}")
    return state
