"""Output checks made apart from the engine that produced each output.

Each check receives the parsed JSON that one command printed and raises
CheckFailed when the output is wrong.  The references are, in order of
preference: closed forms (the rooted-triangulation count, the critical
constants, recomputed with sympy and mpmath), the benchmark's own series and
map code below, and the program's brute-force oracle and exhaustive Gibbs law,
which share no code with the series engines and samplers they check.  None of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A correct sampler fails a chi-square test at this level once in 1e5 seeds.
# A run holds two tests, so two sets of ten runs stay clear of a false alarm.
CHI2_LEVEL = 1e-5


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact scalars: Fraction, or a + b*sqrt7 as a pair of Fractions
# ---------------------------------------------------------------------------

class Q7:
    """a + b*sqrt(7), just enough of the field for series residuals."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(x) -> "Q7":
        return x if isinstance(x, Q7) else Q7(x)

    def __add__(self, o):
        o = Q7.of(o)
        return Q7(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Q7(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-Q7.of(o))

    def __rsub__(self, o):
        return Q7.of(o) - self

    def __mul__(self, o):
        o = Q7.of(o)
        return Q7(self.a * o.a + 7 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, o):
        return not (self - o)

    def __gt__(self, o):
        d = self - o
        if d.a >= 0 and d.b >= 0:
            return bool(d)
        if d.a <= 0 and d.b <= 0:
            return False
        return (d.a * d.a > 7 * d.b * d.b) == (d.a > 0)


def parse_scalar(text: str):
    """'p/q', 'a + b*sqrt7', or the tokens nu_c and y_c."""
    text = text.strip()
    if text == "nu_c":
        return Q7(1, Fraction(1, 7))
    if text.endswith("*sqrt7"):
        a, b = text[: -len("*sqrt7")].split(" + ")
        return Q7(Fraction(a), Fraction(b))
    return Fraction(text)


def series_coeffs(payload: dict) -> tuple[int, dict[int, object]]:
    series = payload["result"]["series"]
    return series["order"], {int(k): parse_scalar(v) for k, v in series["coeffs"].items()}


def _mul(p: list, q: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, a in enumerate(p):
        if a:
            for j in range(min(len(q), order + 1 - i)):
                if q[j]:
                    out[i + j] = out[i + j] + a * q[j]
    return out


# ---------------------------------------------------------------------------
# maps: the text format read by the benchmark's own code
# ---------------------------------------------------------------------------

def parse_map(text: str) -> tuple[list[int], list[int], int, list[int]]:
    fields = dict(part.split("=", 1) for part in text.split())
    alpha = [int(x) for x in fields["alpha"].strip("[]").split(",")]
    sigma = [int(x) for x in fields["sigma"].strip("[]").split(",")]
    spins = [1 if c == "+" else -1 for c in fields["spins"].strip("[]").split(",")]
    return alpha, sigma, int(fields["root"]), spins


def _cycles(perm) -> list[list[int]]:
    seen, out = set(), []
    for d in range(len(perm)):
        if d not in seen:
            cyc, e = [], d
            while e not in seen:
                seen.add(e)
                cyc.append(e)
                e = perm[e]
            out.append(cyc)
    return out


def check_map(text: str, edges: int, root_face: int, mono: int, boundary: str | None = None) -> None:
    """A genus-0 triangulation with `edges` edges whose root face has degree
    `root_face`, whose other faces are triangles, and whose monochromatic edge
    count (loops included) is `mono`."""
    alpha, sigma, root, spins = parse_map(text)
    n = len(alpha)
    require(n == 2 * edges, f"map has {n // 2} edges, expected {edges}")
    require(sorted(sigma) == list(range(n)), "sigma is not a permutation")
    require(all(alpha[d] != d and alpha[alpha[d]] == d for d in range(n)),
            "alpha is not a fixed-point-free involution")
    vertex = [0] * n
    verts = _cycles(sigma)
    for v, cyc in enumerate(verts):
        for d in cyc:
            vertex[d] = v
    require(len(spins) == len(verts), "one spin per vertex expected")
    faces = _cycles([sigma[alpha[d]] for d in range(n)])
    require(len(verts) - edges + len(faces) == 2, "map is not planar")
    root_cycle = next(f for f in faces if alpha[root] in f)
    require(len(root_cycle) == root_face, f"root face has degree {len(root_cycle)}")
    require(all(len(f) == 3 for f in faces if f is not root_cycle), "inner face is not a triangle")
    recount = sum(1 for d in range(n) if d < alpha[d] and spins[vertex[d]] == spins[vertex[alpha[d]]])
    require(recount == mono, f"reported mono {mono}, recount {recount}")
    if boundary is not None:
        bverts = {vertex[d] for d in root_cycle}
        require(len(bverts) == root_face, "boundary is not simple")
        word = "".join("+" if spins[v] > 0 else "-" for v in sorted(bverts))
        require(sorted(word) == sorted(boundary), f"boundary spins {word}, expected {boundary}")


# ---------------------------------------------------------------------------
# the checker: one per run, caching references that do not depend on the seed
# ---------------------------------------------------------------------------

def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def sphere_count_nu1(n: int) -> int:
    """[t^{3n}] at nu = 1: 2^{n+2} spin assignments times the rooted type-I
    triangulations with 2n faces, 2^{2n+1} (3n)!! / ((n+2)! n!!) (OEIS A002005)."""
    maps, rem = divmod(2 ** (2 * n + 1) * _double_factorial(3 * n),
                       math.factorial(n + 2) * _double_factorial(n))
    assert rem == 0
    return 2 ** (n + 2) * maps


class Checker:
    """Checks one run's outputs.  sympy, mpmath, scipy and isingtri itself are
    imported only when a check first needs them, after the timed rounds, so
    the harness stays smaller than the commands whose peak memory it reads."""

    def __init__(self, run_cli):
        self.run_cli = run_cli        # argv -> parsed JSON of an untimed isingtri command
        self._refs: dict = {}

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def check(self, name: str, payload: dict, params: dict) -> None:
        getattr(self, "check_" + name)(payload, **params)

    # -- series --------------------------------------------------------------

    def check_sphere_nu1(self, payload: dict, order: int) -> None:
        got_order, coeffs = series_coeffs(payload)
        require(got_order == order, "wrong truncation order")
        want = {3 * n: Fraction(sphere_count_nu1(n)) for n in range(1, order // 3 + 1)}
        for k in sorted(set(want) | set(coeffs)):
            require(coeffs.get(k, 0) == want.get(k, 0),
                    f"sphere [t^{k}] = {coeffs.get(k, 0)}, expected {want.get(k, 0)}")

    def check_sphere_oracle(self, payload: dict, nu: str, order: int) -> None:
        got_order, coeffs = series_coeffs(payload)
        require(got_order == order, "wrong truncation order")
        support = set(range(3, order + 1, 3))
        require(set(coeffs) == support, f"sphere support {sorted(coeffs)} != {sorted(support)}")
        require(all(c > 0 for c in coeffs.values()), "a sphere coefficient is not positive")
        _, ref = series_coeffs(self._ref(("oracle", nu, "sphere"), lambda: self.run_cli(
            ["oracle", "--nu", nu, "--target", "sphere", "--order", "9"])))
        low = {k: c for k, c in coeffs.items() if k <= 9}
        require(low == ref, "sphere series differs from the oracle below order 10")

    def check_u_series(self, payload: dict, nu: str, order: int) -> None:
        got_order, coeffs = series_coeffs(payload)
        require(got_order == order, "wrong truncation order")
        require(all(k % 3 == 0 for k in coeffs), "U has a term outside t^{3n}")
        v = parse_scalar(nu)
        require(coeffs.get(3) == 4 * v * v, "[t^3] U is not 4 nu^2")
        u = [coeffs.get(k, 0) for k in range(order + 1)]
        one = [1] + [0] * order

        def poly(cs):           # sum_i cs[i] U^i, truncated
            out, power = [0] * (order + 1), one
            for c in cs:
                out = [x + c * y for x, y in zip(out, power)]
                power = _mul(power, u, order)
            return out

        one_minus_2u = poly([1, -2])
        lhs = [0, 0, 0] + [32 * v * v * v * c for c in _mul(one_minus_2u, one_minus_2u, order)][: order - 2]
        lin = poly([-2, 1 + v])
        quart = poly([-4 * v, 2 * (v + 3) * (2 * v + 1), -(11 * v + 13) * (v + 1), 8 * v * (1 + v) * (1 + v)])
        rhs = _mul(_mul(u, lin, order), quart, order)
        bad = [k for k in range(order + 1) if lhs[k] - rhs[k]]
        require(not bad, f"U-equation residual nonzero at t^{bad[:1]}")

    def check_boundary(self, payload: dict, nu: str, word: str, order: int,
                       zplus4_order: int | None = None) -> None:
        got_order, coeffs = series_coeffs(payload)
        require(got_order == order, "wrong truncation order")
        p = len(word)
        support = {k for k in range(2 * p - 3, order + 1) if (2 * k - p) % 3 == 0}
        require(set(coeffs) == support, f"support {sorted(coeffs)} != {sorted(support)}")
        require(all(c > 0 for c in coeffs.values()), "a coefficient is not positive")
        flipped = word.translate(str.maketrans("+-", "-+"))
        for w in (word, flipped):       # the oracle enumerates maps; the flip checks symmetry
            _, ref = series_coeffs(self._ref(("oracle", nu, w), lambda w=w: self.run_cli(
                ["oracle", "--nu", nu, "--target", "word:" + w, "--order", "9"])))
            low = {k: c for k, c in coeffs.items() if k <= 9}
            require(low == ref, f"word {word} differs from the oracle for {w} below order 10")
        if zplus4_order is not None:
            # the y^p recursion and the word closure are separate engines
            zp4, w4 = self._ref(("zplus4", nu, zplus4_order), lambda: tuple(
                series_coeffs(self.run_cli(["coeffs", "--nu", nu, "--target", t,
                                            "--order", str(zplus4_order)]))[1]
                for t in ("zplus:4", "word:++++")))
            require(zp4 == w4, f"zplus:4 and word:++++ differ to order {zplus4_order}")

    def check_verify(self, payload: dict) -> None:
        require(payload["result"]["all_ok"] is True, "verify did not report all_ok")

    # -- critical data -------------------------------------------------------

    def check_critical_nuc(self, payload: dict) -> None:
        import sympy

        res = payload["result"]
        require(res["regime"] == "critical", "nu_c not classified critical")
        rho = (25 * sympy.sqrt(7) - 55) / 864
        got = parse_scalar(res["rho_exact"])
        require(sympy.simplify(sympy.Rational(got.a) + sympy.Rational(got.b) * sympy.sqrt(7) - rho) == 0,
                "rho_c is not (25 sqrt7 - 55)/864")
        lo, hi = (sympy.Rational(x) for x in res["t_nu"])
        require(bool(lo ** 3 <= rho) and bool(rho <= hi ** 3), "t_nu does not contain rho_c^(1/3)")

    def check_spectral_nuc(self, payload: dict) -> None:
        import mpmath

        res = payload["result"]
        lo, hi = res["radius"]
        require(0.98985 - 0.02 <= lo <= hi <= 0.98985 + 0.02, f"radius {lo}..{hi} off 0.98985")
        require(hi < 1 and res["below_one"] is True, "radius not below 1")
        mid = {k: sum(v) / 2 for k, v in res["inputs"].items()}
        slot = mid["t_nu"] * max(mid["Z_++"], mid["Z_+-"])
        mpmath.mp.dps = 30
        s7 = mpmath.sqrt(7)
        closed = mpmath.mpf(131) / 600 * (4 - s7) / mpmath.cbrt(50 * s7 - 110)
        require(abs(slot - 0.105) <= 0.01, f"hull slot factor {slot} off 0.105")
        require(abs(slot - float(closed)) <= 0.005, f"hull slot factor {slot} off {closed}")
        require(slot < float(mpmath.mpf(3) / 5 * (1 + s7)), "hull slot factor not below y_c")

    # -- samplers ------------------------------------------------------------

    def check_sphere_samples(self, payload: dict, edges: int, reps: int, gibbs_n: int | None = None) -> None:
        samples = payload["result"]["samples"]
        require(len(samples) == reps, f"{len(samples)} samples, expected {reps}")
        for s in samples:
            require(s["edges"] == edges, f"sample reports {s['edges']} edges, expected {edges}")
            check_map(s["map"], edges, 3, s["mono"])
        if gibbs_n is not None:
            self._chi2(samples, gibbs_n)

    def check_gon_samples(self, payload: dict, word: str, reps: int) -> None:
        samples = payload["result"]["samples"]
        require(len(samples) == reps, f"{len(samples)} samples, expected {reps}")
        for s in samples:
            check_map(s["map"], s["edges"], len(word), s["mono"], boundary=word)

    def check_stats(self, payload: dict, reps: int) -> None:
        res = payload["result"]
        require(res["count"] == reps, f"stats count {res['count']} != {reps}")
        for key in ("root_degree", "hull_perimeter_1"):
            require(sum(res[key].values()) == reps, f"stats {key} does not sum to {reps}")

    def _chi2(self, samples: list, n: int) -> None:
        """Chi-square against the exhaustive size-3n Gibbs law at nu = 2."""
        from isingtri.acceptance import gibbs_law
        from isingtri.maps.combmap import CombMap
        from scipy.stats import chi2

        law = self._ref(("gibbs", n), lambda: gibbs_law(Fraction(2), n))
        counts: dict = {}
        for s in samples:
            key = CombMap.from_text(s["map"]).canonical_key()
            require(key in law, "a sample lies outside the support of the Gibbs law")
            counts[key] = counts.get(key, 0) + 1
        total = len(samples)
        cells, acc_n, acc_e = [], 0, 0.0
        for key, prob in sorted(law.items(), key=lambda kv: kv[1], reverse=True):
            acc_n += counts.get(key, 0)
            acc_e += float(prob) * total
            if acc_e >= 5:
                cells.append((acc_n, acc_e))
                acc_n, acc_e = 0, 0.0
        if acc_e:
            last_n, last_e = cells.pop()
            cells.append((last_n + acc_n, last_e + acc_e))
        stat = sum((o - e) ** 2 / e for o, e in cells)
        p = float(chi2.sf(stat, len(cells) - 1))
        require(p > CHI2_LEVEL, f"chi-square p = {p:.2e} at n = {n}")
