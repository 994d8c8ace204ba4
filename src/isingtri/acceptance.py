"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion function returns its verdict and the measured quantities;
`CRITERIA` names it, and `run_criterion` times it and labels the result.
`run_acceptance` executes a selection and reuses the expensive series tables
across criteria through a shared context.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .criticality import (
    CriticalData,
    boundary_at_tnu,
    critical_point,
    estimate_asymptotics,
    hull_constant_below_yc,
    hull_constant_closed_form,
    hull_slot_factor,
    mean_matrix,
    p1_poly,
    p2_poly,
    spectral_radius,
)
from .exactnum import NU_C, RHO_NU_C, Y_C, Interval, format_scalar, scalar_to_float
from .maps import enumerate_maps, flip_word, min_degree, oracle_sphere
from .partition import (
    WordTable,
    check_q_identities,
    check_U,
    oracle_mismatches,
    sphere_series,
    solve_U,
    verify_catalytic,
)
from .sampler import ExactSamplerContext, exact_sample, mcmc_sample, spun_map


class CriterionResult:
    """One criterion's verdict, measured quantities and runtime."""

    def __init__(self, cid: int, name: str, passed: bool, details: dict, runtime_s: float):
        self.cid = cid
        self.name = name
        self.passed = passed
        self.details = details
        self.runtime_s = runtime_s

    def to_json(self) -> dict:
        return {"id": self.cid, "name": self.name, "passed": self.passed,
                "runtime_s": round(self.runtime_s, 2), "details": self.details}

    def line(self) -> str:
        """The one-line verdict that `report` and the pytest gate print."""
        return (f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.cid}: {self.name} "
                f"({self.runtime_s:.1f}s)")


class AcceptanceContext:
    """Caches for the expensive shared computations: word tables and critical data."""

    def __init__(self):
        self._tables: dict = {}
        self._crits: dict = {}

    def table(self, nu, order) -> WordTable:
        key = (format_scalar(nu), order)
        hit = self._tables.get(key)
        if hit is None:
            hit = WordTable(nu, order)
            self._tables[key] = hit
        return hit

    def crit(self, nu) -> CriticalData:
        key = format_scalar(nu)
        hit = self._crits.get(key)
        if hit is None:
            hit = critical_point(nu)
            self._crits[key] = hit
        return hit


NU_GRID = (Fraction(1, 2), Fraction(1), Fraction(2), NU_C)


def criterion_1(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Exact critical constants in the quadratic field."""
    v1 = p1_poly(NU_C, RHO_NU_C)
    v2 = p2_poly(NU_C, RHO_NU_C)
    return v1 == 0 and v2 == 0, {"P1": format_scalar(v1), "P2": format_scalar(v2),
                                 "rho_c": format_scalar(RHO_NU_C)}


def criterion_2(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Engine coefficients equal brute-force coefficients, all words to t^9."""
    order, max_len = 9, 4
    mismatches = []
    for nu in NU_GRID:
        words = ctx.table(nu, order + 1)
        sph = sphere_series(nu, order, words)
        if not sph.eq_to_order(oracle_sphere(nu, order), order):
            mismatches.append((format_scalar(nu), "sphere"))
        mismatches += [(format_scalar(nu), w) for w in oracle_mismatches(words, order, max_len)]
    checked = len(NU_GRID) * sum(2 ** p for p in range(1, max_len + 1))
    return not mismatches, {"series_checked": checked, "mismatches": mismatches}


def criterion_3(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """One-catalytic-variable residual identically zero."""
    runs = []
    ok = True
    for nu, order in ((Fraction(1, 2), 15), (Fraction(2), 15), (NU_C, 12)):
        rep = verify_catalytic(nu, order, ctx.table(nu, order + 2))
        runs.append({"nu": format_scalar(nu), "order": order,
                     "residual_zero": rep.ok, "degenerate": rep.degenerate})
        ok = ok and rep.ok
    return ok, {"runs": runs}


def criterion_4(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Q-series identities exactly to order 9 (corrected pinched-boundary form)."""
    runs = []
    ok = True
    for nu in (Fraction(1, 2), Fraction(2), NU_C):
        results = check_q_identities(ctx.table(nu, 9), 9)
        for r in results:
            ok = ok and r.ok
        runs.append({"nu": format_scalar(nu),
                     "identities": [r.to_json() for r in results]})
    return ok, {"runs": runs}


def criterion_5(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Substitution series: residual zero to order >= 30 and leading term."""
    order = 30
    runs = []
    ok = True
    for nu in (Fraction(1, 2), Fraction(2), NU_C):
        u = solve_U(nu, order)
        res = check_U(u, order)
        lead = u.coeff(3) == 4 * nu * nu
        support = all(k % 3 == 0 for k in u.support())
        runs.append({"nu": format_scalar(nu), "residual_zero": res.is_zero(),
                     "t3_is_4nu2": lead, "t3_support": support})
        ok = ok and res.is_zero() and lead and support
    return ok, {"runs": runs}


def criterion_6(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Spectral radius of the mean matrix at the critical weight."""
    order = 46
    crit = ctx.crit(NU_C)
    n_eval = order - 1
    z1, z2, zm = boundary_at_tnu(ctx.table(NU_C, order), crit, n_eval)
    matrix = mean_matrix(crit, z1, z2, zm)
    radius = spectral_radius(matrix)
    lo, hi = radius.float_bounds()
    passed = (0.98985 - 0.02 <= lo and hi <= 0.98985 + 0.02 and hi < 1.0)
    return passed, {"radius": [lo, hi], "target": 0.98985,
                    "series_order": n_eval,
                    "Z_+": z1.float_bounds(), "Z_++": z2.float_bounds(),
                    "Z_+-": zm.float_bounds()}


def criterion_7(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Hull slot factor ~ 0.105 and exactly below y_c."""
    order = 46
    crit = ctx.crit(NU_C)
    _, z2, zm = boundary_at_tnu(ctx.table(NU_C, order), crit, order - 1)
    slot = hull_slot_factor(crit, z2, zm)
    closed = hull_constant_closed_form()
    exact_below = hull_constant_below_yc()
    # the spec's literal min-over-t ratio, also required below y_c
    ratio = z2.min(zm) / crit.t_nu
    yc = scalar_to_float(Y_C, 96)
    slot_lo, slot_hi = slot.float_bounds()
    passed = (abs(float(slot) - 0.105) <= 0.01
              and abs(float(slot) - float(closed)) <= 0.005
              and exact_below
              and ratio.hi < yc.lo
              and slot.hi < yc.lo)
    return passed, {"slot_factor": [slot_lo, slot_hi],
                    "closed_form": float(closed),
                    "exact_below_yc": exact_below,
                    "min_ratio": ratio.float_bounds(),
                    "y_c": float(yc)}


def criterion_8(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Exponent estimates: 5/2 off criticality, 7/3 at criticality."""
    n1, nc = 61, 46
    crit1 = ctx.crit(Fraction(1))
    critc = ctx.crit(NU_C)
    sph1 = sphere_series(Fraction(1), n1 - 1, ctx.table(Fraction(1), n1))
    sphc = sphere_series(NU_C, nc - 1, ctx.table(NU_C, nc))
    fit1 = estimate_asymptotics(sph1, crit1)
    fitc = estimate_asymptotics(sphc, critc)
    a1 = float(fit1.alpha.mid)
    ac = float(fitc.alpha.mid)
    passed = (abs(a1 - 2.5) <= 0.15 and abs(ac - 7 / 3) <= 0.15
              and ac < a1 - 0.05)
    # heuristic, outside the gate: whether the nu_c band itself rules out 5/2
    separates = not fitc.alpha.lo <= Fraction(5, 2) <= fitc.alpha.hi
    return passed, {"alpha_nu1": a1, "alpha_nuc": ac,
                    "band_separates_regimes": separates,
                    "orders": [n1 - 1, nc - 1],
                    "alpha_band_nu1": fit1.alpha.float_bounds(),
                    "alpha_band_nuc": fitc.alpha.float_bounds(),
                    "n_fits": [len(fit1.diagnostics["alpha_fits"]),
                               len(fitc.diagnostics["alpha_fits"])]}


def criterion_9(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Growth rate of the sphere series at nu = 1 within 1% of 1/rho."""
    n1 = 61
    crit1 = ctx.crit(Fraction(1))
    sph1 = sphere_series(Fraction(1), n1 - 1, ctx.table(Fraction(1), n1))
    fit = estimate_asymptotics(sph1, crit1)
    inv_rho = 1 / float(crit1.rho.mid)
    growth = float(fit.growth.mid)
    rel = abs(growth - inv_rho) / inv_rho
    # rho is the positive root of the quadratic branch at nu = 1
    poly_val = p2_poly(Fraction(1), crit1.rho.mid)
    return rel <= 0.01, {"growth_estimate": growth, "inv_rho": inv_rho,
                         "relative_error": rel,
                         "P2(1, rho_mid)": float(poly_val)}


# ---------------------------------------------------------------------------
# sampler statistics helpers
# ---------------------------------------------------------------------------

def gibbs_law(nu, n: int) -> dict:
    """Exact size-3n law over canonical keys, by enumeration."""
    law: dict = {}
    total = Fraction(0)
    for m in enumerate_maps(3 * n, "sphere"):
        V = m.n_vertices()
        for bits in itertools.product((1, -1), repeat=V):
            mm = m.with_spins(bits)
            w = nu ** mm.monochromatic_count()
            key = mm.canonical_key()
            law[key] = law.get(key, Fraction(0)) + w
            total += w
    return {k: v / total for k, v in law.items()}


def _chi2_sf(x: float, dof: int) -> float:
    """Survival function of chi-square via the regularized incomplete gamma."""
    a, half = dof / 2.0, x / 2.0
    if half <= 0:
        return 1.0
    if half < a + 1:
        # lower series
        term = 1.0 / a
        total = term
        k = a
        while True:
            k += 1
            term *= half / k
            total += term
            if term < total * 1e-12:
                break
        p = total * math.exp(-half + a * math.log(half) - math.lgamma(a))
        return max(0.0, 1.0 - p)
    # upper continued fraction (Lentz)
    tiny = 1e-300
    b = half + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-12:
            break
    return h * math.exp(-half + a * math.log(half) - math.lgamma(a))


def chi2_test(counts: dict, law: dict, total: int) -> tuple[float, float, int]:
    """Chi-square with merging of low-expectation cells; returns (stat, p, dof)."""
    cells = sorted(law.items(), key=lambda kv: kv[1], reverse=True)
    groups = []
    acc_p = Fraction(0)
    acc_n = 0
    for key, p in cells:
        acc_p += p
        acc_n += counts.get(key, 0)
        if float(acc_p) * total >= 5:
            groups.append((acc_n, float(acc_p) * total))
            acc_p = Fraction(0)
            acc_n = 0
    if groups and (acc_n or acc_p):
        n, e = groups[-1]
        groups[-1] = (n + acc_n, e + float(acc_p) * total)
    stat = sum((n - e) ** 2 / e for n, e in groups)
    dof = len(groups) - 1
    return stat, _chi2_sf(stat, max(dof, 1)), dof


def criterion_10(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Sampler correctness: MCMC TV, exact-sampler chi-square, m bookkeeping."""
    nu = Fraction(2)
    steps = 120_000
    law1 = gibbs_law(nu, 1)

    raw: dict = {}
    burn = steps // 10

    seen = {"step": 0}

    def collector(state):
        # count raw states; each distinct one is canonicalised once below
        seen["step"] += 1
        if seen["step"] > burn:
            key = (tuple(state.alpha), tuple(state.sigma), state.root, tuple(state.spin))
            raw[key] = raw.get(key, 0) + 1

    mcmc_sample(nu, 1, steps, seed=20240601, collector=collector)
    counts: dict = {}
    for state, n in raw.items():
        key = spun_map(*state).canonical_key()
        counts[key] = counts.get(key, 0) + n
    n_obs = steps - burn
    tv = float(sum(abs(Fraction(counts.get(k, 0), n_obs) - p) for k, p in law1.items())) / 2
    tv += sum(v for k, v in counts.items() if k not in law1) / n_obs / 2

    reps1 = 6000
    ctx1 = ExactSamplerContext(nu, 4)
    c1: dict = {}
    for i in range(reps1):
        key = exact_sample(nu, 1, seed=777_000 + i, ctx=ctx1).canonical_key()
        c1[key] = c1.get(key, 0) + 1
    stat1, p1, dof1 = chi2_test(c1, law1, reps1)

    law2 = gibbs_law(nu, 2)
    reps2 = 4000
    ctx2 = ExactSamplerContext(nu, 7)
    c2: dict = {}
    for i in range(reps2):
        key = exact_sample(nu, 2, seed=888_000 + i, ctx=ctx2).canonical_key()
        c2[key] = c2.get(key, 0) + 1
    stat2, p2, dof2 = chi2_test(c2, law2, reps2)

    outside = (sum(v for k, v in c1.items() if k not in law1)
               + sum(v for k, v in c2.items() if k not in law2))
    passed = tv < 0.02 and p1 > 0.01 and p2 > 0.01 and outside == 0
    return passed, {"mcmc_tv": tv, "mcmc_steps": steps,
                    "chi2_n1": [stat1, p1, dof1],
                    "chi2_n2": [stat2, p2, dof2],
                    "outside_support": outside}


def criterion_11(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Structural invariants on randomized (nu, word, order) draws."""
    rng = random.Random(11_2024)
    failures = []
    for trial in range(6):
        nu = rng.choice([Fraction(1, 3), Fraction(3, 4), Fraction(1), Fraction(5, 3),
                         Fraction(3), NU_C])
        order = rng.randrange(6, 11)
        words = ctx.table(nu, order + 1)
        p = rng.randrange(1, 5)
        w = "".join(rng.choice("+-") for _ in range(p))
        series = words.series(w).with_order(order)
        for k, c in series.coeffs.items():
            if (k + p) % 3 or k < min_degree(p):
                failures.append((trial, "support", w, k))
            if not c > 0:
                failures.append((trial, "nonnegative", w, k))
        flipped = words.series(flip_word(w))
        if not series.eq_to_order(flipped, order):
            failures.append((trial, "spin-flip", w, None))
        mixed = words.layers[0][:order + 1]           # the t-layers of S(x, y)
        if any(layer != {(j, i): c for (i, j), c in layer.items()} for layer in mixed):
            failures.append((trial, "xy-symmetry", "", None))
    return not failures, {"failures": failures}


CRITERIA = {
    1: ("exact critical constants", criterion_1),
    2: ("oracle equivalence |w|<=4, n<=9", criterion_2),
    3: ("catalytic equation residual", criterion_3),
    4: ("Q-identities to order 9", criterion_4),
    5: ("U-equation consistency to order 30", criterion_5),
    6: ("spectral radius at nu_c", criterion_6),
    7: ("hull constant 0.105 < y_c", criterion_7),
    8: ("exponent transition 5/2 vs 7/3", criterion_8),
    9: ("growth rate vs exact radius at nu=1", criterion_9),
    10: ("sampler correctness (TV, chi2, bookkeeping)", criterion_10),
    11: ("structural invariants (randomized)", criterion_11),
}


def run_criterion(cid: int, ctx: AcceptanceContext) -> CriterionResult:
    """Run one criterion on the shared context, timed and labelled."""
    name, check = CRITERIA[cid]
    t0 = time.time()
    passed, details = check(ctx)
    return CriterionResult(cid, name, passed, details, time.time() - t0)


def run_acceptance(which: list[int] | None = None) -> list[CriterionResult]:
    """Each selected criterion once, in ascending id order (all by default)."""
    ctx = AcceptanceContext()
    return [run_criterion(cid, ctx) for cid in sorted(set(which or CRITERIA))]
