"""Production coefficient engines for spin-decorated triangulation series.

All engines share the boundary-word convention of `maps.combmap`: the word
w_1..w_p lists the root-face vertex spins starting at the target of the root
edge and walking away from the root vertex, so the root edge joins w_p (root
vertex) to w_1 (target).  Under this reading the mixed Dobrushin series
S(x, y) = sum_{p,q >= 1} Z_{+^p -^q} x^p y^q (rooted on the interface edge)
and the pure series Z+(x) = sum_p Z_{+^p} x^p close under peeling the root
edge, which is the system `solve_dobrushin` solves.  The specializations
[y] S(x, y) and [x] S(x, y) enter exactly as resolved in CONVENTIONS.md: the
system reproduces the brute-force oracle through every tested order.

`solve_dobrushin` computes each t-layer once, in one pass, from the layers
below it only, over the integers (rational nu) or Z[sqrt7] (nu in Q(sqrt7)),
forming each S Z+ product once and mirroring S in x and y; it returns those
scaled integer layers and nothing else.  `WordTable` is the one boundary
table: it solves the layers at its own (nu, order), reads every word of at
most two cyclic blocks from them, and computes each state of any other word
once, on demand, from the smaller states the root-edge peeling identity
reads.  A state becomes an exact scalar only when a coefficient or a series
is read; every boundary series below (sphere, catalytic check, Q-identities)
is read from the table.  `peeling_cases` is the one list of peeling cases,
read by the word table and by both samplers; the exact sampler's case
weights are the word table's own integer terms.  `solve_U` likewise
computes each t^3-layer of the U series once, from the layers below it, in
exact scalars.  No engine here calls the generic Picard solver
`series.solve_fixed_point`.
"""

from __future__ import annotations

from fractions import Fraction

from . import series
from .exactnum import Pair, Scalar, _integer_weight, as_scalar, format_scalar, pair_mul, pair_scalar


# ---------------------------------------------------------------------------
# the Dobrushin system: mixed words +^p -^q with two catalytic variables
# ---------------------------------------------------------------------------

def _dobrushin_terms(M: list, Z: list, k: int, cap: int):
    """The x-side right-hand terms of t-layer k, read from layers 0..k-1.

    With nu = m / d as in `_integer_weight`, layer a of M maps (i, j) to the
    pair (u, v) standing for (u + v sqrt7) / d^a = [t^a x^i y^j] S(x, y);
    layer a of Z maps i to the pair of [t^a x^i] Z+(x) likewise.  The
    peeling equations are

        S  = t x y + t S Z+(x) / x + t S Z+(y) / y
               + t (S - x [x] S) / x + t (S - y [y] S) / y
        Z+ = nu t x^2 + nu t Z+^2 / x + nu t (Z+ - x [x] Z+) / x + nu t [y] S

    and this yields (0, (i, j), u, v) for each x-side contribution to
    [x^i y^j] S (the y side mirrors it, S being symmetric) and (1, i, u, v)
    for each one to [x^i] Z+, before the factor t or nu t.  Pre-division
    product degrees above `cap` raise DegreeOverflow.
    """
    if k == 1:
        yield 1, 2, 1, 0
    for a in range(k):
        Ma, Za, Zb = M[a], Z[a], Z[k - 1 - a]
        if not Zb:
            continue
        if Ma and max(map(max, Ma)) + max(Zb) > cap or Za and max(Za) + max(Zb) > cap:
            raise series.DegreeOverflow(f"a product at t^{k - 1} exceeds degree {cap}")
        for l, (r, s) in Zb.items():
            for (i, j), (p, q) in Ma.items():
                yield 0, (i + l - 1, j), p * r + 7 * q * s, p * s + q * r     # S Z+(x) / x
            for i, (p, q) in Za.items():
                yield 1, i + l - 1, p * r + 7 * q * s, p * s + q * r
    for (i, j), (p, q) in M[k - 1].items():
        if i > 1:
            yield 0, (i - 1, j), p, q
        if j == 1:
            yield 1, i, p, q
    for i, (p, q) in Z[k - 1].items():
        if i > 1:
            yield 1, i - 1, p, q


def _dobrushin_layer(M: list, Z: list, k: int, m: tuple[int, int], d: int, cap: int):
    """t-layer k of S and Z+, scaled by d^k where nu = m / d.

    Layer k of S is T + T^t for the half table T of the x-side terms, plus
    the seed t x y at k = 1.  The factor t of every term becomes d and nu t
    becomes m, so the scaled layer is an integer combination of the scaled
    layers below it and no division ever happens.
    """
    acc: tuple[dict, dict] = ({}, {})
    for which, key, u, v in _dobrushin_terms(M, Z, k, cap):
        c = acc[which].get(key)
        if c is None:
            acc[which][key] = [u, v]
        else:
            c[0] += u
            c[1] += v
    half, zplus = acc
    new_m = {(1, 1): (d, 0)} if k == 1 else {}        # the seed t x y; half is empty at k = 1
    for i, j in half.keys() | {(j, i) for i, j in half}:
        (u, v), (p, q) = half.get((i, j), (0, 0)), half.get((j, i), (0, 0))
        if u + p or v + q:
            new_m[i, j] = (d * (u + p), d * (v + q))
    mu, mv = m
    new_z = {key: (mu * u + 7 * mv * v, mv * u + mu * v)
             for key, (u, v) in zplus.items() if u or v}
    return new_m, new_z


def solve_dobrushin(nu: Scalar, order: int) -> tuple[list[dict], list[dict]]:
    """The t-layers 0..order of S and Z+, (M, Z), scaled as in `_dobrushin_terms`.

    Every right-hand term carries a power of t, so t-layer k follows from the
    layers below it: each coefficient is computed once, over Z (rational nu)
    or Z[sqrt7] (nu in Q(sqrt7)) after scaling layer k by d^k, and never
    converted to an exact scalar here.  S is mirrored from its x side.  The
    layer lists grow as layers are solved, so a rule reading layer k or
    above raises NotContractive.  Catalytic degrees are capped at
    max(order, (order + 7) / 2), which the Euler support bound makes
    unreachable, so DegreeOverflow only fires on a transcription bug.
    """
    nu = as_scalar(nu)
    if not nu > 0:
        raise ValueError("nu must be positive")
    if order < 1:
        raise ValueError("order must be >= 1")
    cap = max(order, (order + 7) // 2)
    m, d = _integer_weight(nu)
    M, Z = [{}], [{}]                   # t-layer 0 of S and of Z+ is empty
    for k in range(1, order + 1):
        try:
            new_m, new_z = _dobrushin_layer(M, Z, k, m, d, cap)
        except IndexError as exc:
            raise series.NotContractive(f"t-layer {k} reads a layer not yet solved") from exc
        M.append(new_m)
        Z.append(new_z)
    return M, Z


# ---------------------------------------------------------------------------
# arbitrary boundary words via root-edge deletion
# ---------------------------------------------------------------------------

def peeling_cases(word: str) -> list[tuple[tuple, tuple[str, ...]]]:
    """The root-edge peeling cases of `word`, each with its child words.

    In this order: ("edge",) for the bare edge (p = 2 only, no child), then
    ("insert", c) for a new third vertex of spin c (child c + word), then
    ("split", i) for the third vertex at boundary corner i = 1..p (children
    word[:i] and word[i-1:]).  Every case carries one power of t and the
    root-edge weight, nu for a monochromatic root edge (w_1 = w_p) and 1
    otherwise.  The word table reads this one list, and the samplers its terms.
    """
    p = len(word)
    cases: list[tuple[tuple, tuple[str, ...]]] = [(("edge",), ())] if p == 2 else []
    cases += [(("insert", c), (c + word,)) for c in "+-"]
    cases += [(("split", i), (word[:i], word[i - 1:])) for i in range(1, p + 1)]
    return cases


_FLIP = str.maketrans("+-", "-+")


class WordTable:
    """Every boundary-word series at one (nu, order), computed state by state.

    This is the one boundary table: each Z_w, the Dobrushin words +^p -^q
    and +^p included, is read from it.  The state c(w, n) = d^n [t^n] Z_w,
    with nu = m / d, is an integer (or a pair u, v standing for
    u + v sqrt7).  Re-rooting along the boundary and mirroring are
    bijections, so words are keyed by their least rotation or reversal, of
    themselves or of their spin flip.  A key +^a -^b (at most two cyclic
    blocks) is read from `layers` = (M, Z), the integer layers that
    `solve_dobrushin` returns at the table's (nu, order); any other
    key is computed by the root-edge peeling identity over `peeling_cases`,

        Z_w = weight t (sum_c Z_{c+w} + sum_i Z_{w[:i]} Z_{w[i-1:]}),

    from states of size below n only, each once, on demand.  A p-gon has at
    least 2p - 3 edges, so c(w, n) = 0 for n < 2p - 3: this size budget
    bounds the states one coefficient reaches.  `terms` lists the identity's
    nonzero terms, which the exact sampler reads as its case weights, and
    `total` weighs them by the root edge.  `state` reads one integer state;
    `series` assembles the nonzero states of t^0..t^order into `entries`,
    which keeps the scalars (the samplers read states only).
    `sphere_classes` weighs the sphere relation's root classes on states.
    """

    def __init__(self, nu: Scalar, order: int):
        self.nu = as_scalar(nu)
        self.order = order
        self.layers = solve_dobrushin(self.nu, order)
        self.p_max = max(2, (order + 3) // 2)    # longer words vanish below the order
        self.entries: dict[str, series.TSeries] = {}
        self._m, self._d = _integer_weight(self.nu)
        self._states: dict[tuple[str, int], tuple[int, int] | None] = {}
        self._read: dict[tuple[str, int], tuple[int, int]] = {}   # _state results, by word
        self._spheres: dict[int, tuple[list[Pair], list[int], list[Pair]]] = {}

    def _key(self, word: str) -> str:
        """The least rotation or reversal of `word` or of its spin flip."""
        flip = word.translate(_FLIP)
        return min(w[i:] + w[:i] for w in (word, word[::-1], flip, flip[::-1])
                   for i in range(len(w)))

    def series(self, word: str) -> series.TSeries:
        if len(word) > self.p_max:
            return series.TSeries.zero(self.nu, self.order)
        key = self._key(word)
        if key not in self.entries:
            states = ((n, self.state(key, n)) for n in range(self.order + 1))
            self.entries[key] = series.TSeries(self.nu, self.order, {
                n: pair_scalar(c, self._d ** n) for n, c in states if c != (0, 0)})
        return self.entries[key]

    def state(self, word: str, n: int) -> tuple[int, int]:
        """c(word, n) = d^n [t^n] Z_word as the pair (u, v) of u + v sqrt7, for n <= order."""
        if n > self.order:
            raise ValueError(f"t^{n} is beyond the table order {self.order}")
        return self._state(word, n)

    def _state(self, word: str, n: int) -> tuple[int, int]:
        """`state` without its checks, memoised by the word as read and over keys."""
        if n < 2 * len(word) - 3:
            return 0, 0
        c = self._read.get((word, n))
        if c is not None:
            return c
        key = self._key(word)
        plus = key.rstrip("-")
        if "-" not in plus:                     # +^a -^b: at most two cyclic blocks
            M, Z = self.layers
            b = len(key) - len(plus)
            c = (M[n].get((len(plus), b)) if b else Z[n].get(len(plus))) or (0, 0)
        else:
            state = (key, n)
            c = self._states.get(state)
            if c is None:
                if state in self._states:
                    raise series.NotContractive(
                        f"state ({key}, t^{n}) is read while it is computed")
                self._states[state] = None          # open: reading it now is a cycle
                c = self._states[state] = self._rule(key, n)
        self._read[word, n] = c
        return c

    def _rule(self, word: str, n: int) -> tuple[int, int]:
        """c(word, n) by the peeling identity."""
        return self.total(word, self.terms(word, n))

    def terms(self, word: str, n: int):
        """The nonzero terms of c(word, n)'s peeling identity, in sampling order.

        Each is (case, ((child, size), ...), (u, v)), the case and children as
        in `peeling_cases` with the children's sizes summing to n - 1, and
        (u, v) the product of the children's states.  The bare edge is the
        term 1 at n = 1.  The terms are read before the root-edge factor, so
        `total(word, terms)` is c(word, n); for n <= order.
        """
        state = self._state
        for case, children in peeling_cases(word):
            if case[0] == "edge":
                if n == 1:
                    yield case, (), (1, 0)
            elif case[0] == "insert":
                c = state(children[0], n - 1)
                if c != (0, 0):
                    yield case, ((children[0], n - 1),), c
            else:
                left, right = children
                for a in range(n):
                    p, q = state(left, a)
                    if p or q:
                        r, s = state(right, n - 1 - a)
                        if r or s:
                            yield (case, ((left, a), (right, n - 1 - a)),
                                   (p * r + 7 * q * s, p * s + q * r))

    def total(self, word: str, terms) -> tuple[int, int]:
        """The root-edge factor of `word` times the sum of `terms`.

        The factor weight t of the identity becomes m for a monochromatic
        root edge and d otherwise, so a state is an integer combination of
        smaller states and nothing divides.
        """
        u = v = 0
        for *_, (p, q) in terms:
            u += p
            v += q
        if word[0] != word[-1]:
            return self._d * u, self._d * v
        return pair_mul(self._m, (u, v))

    def sphere_classes(self, size: int) -> tuple[list[Pair], list[int], list[Pair]]:
        """The sphere relation's root classes at size s, tabulated once per size:
        the class weights d c(++, s), m c(+-, s), d sum_k c(+, k) c(+, s - k),
        and the loop split sizes k with their nonzero weights c(+, k) c(+, s - k).

        The weights sum to nu d^(s+1) / 2 times [t^(s-1)] of the sphere series
        (see `sphere_series`), so they are its root classes up to one scale.
        """
        entry = self._spheres.get(size)
        if entry is None:
            state, d = self.state, (self._d, 0)
            split_sizes, split_weights = [], []
            for k1 in range(2, size - 1):
                c1, c2 = state("+", k1), state("+", size - k1)
                if c1 != (0, 0) and c2 != (0, 0):
                    split_sizes.append(k1)
                    split_weights.append(pair_mul(c1, c2))
            loops = (sum(u for u, _ in split_weights), sum(v for _, v in split_weights))
            weights = [pair_mul(d, state("++", size)), pair_mul(self._m, state("+-", size)),
                       pair_mul(d, loops)]
            entry = self._spheres[size] = (weights, split_sizes, split_weights)
        return entry


# ---------------------------------------------------------------------------
# sphere series
# ---------------------------------------------------------------------------

def sphere_series(nu: Scalar, order: int, words: WordTable | None = None) -> series.TSeries:
    """The sphere partition series from the 1- and 2-gon states of `words`,
    a word table at nu to order + 1 (built here when not given).

    The root-edge opening bijection sends sphere triangulations rooted on a
    non-loop to 2-gon triangulations *other than* the bare edge (closing the
    bare edge leaves a single edge on the sphere, which has no triangular
    face), and those rooted on a loop to pairs of 1-gons, so

        Z_sphere = 2 ((Z_{++} - nu t) / nu + (Z_{+-} - t) + Z_+^2 / nu) / t.

    With nu = m / d and states c = d^s [t^s] Z, [t^(s-1)] Z_sphere is twice
    the sum of `words.sphere_classes(s)`'s weights over nu d^(s+1); the
    support is s = 4, 7, ..., and the bare edge only enters at s = 1.
    """
    nu = as_scalar(nu)
    if words is None:
        words = WordTable(nu, order + 1)
    if words.nu != nu or words.order < order + 1:
        raise ValueError("the word table must be at nu and reach order + 1")
    coeffs = {}
    for s in range(4, order + 2, 3):
        weights = words.sphere_classes(s)[0]
        total = (2 * sum(u for u, _ in weights), 2 * sum(v for _, v in weights))
        coeffs[s - 1] = pair_scalar(total, words._d ** (s + 1)) / nu
    return series.TSeries(nu, order, coeffs)


# ---------------------------------------------------------------------------
# the algebraic substitution series U(t^3)
# ---------------------------------------------------------------------------

def _u_polynomial(nu: Scalar) -> list[Scalar]:
    """Coefficients a_0..a_5 of P(U) = U lin(U) quart(U), lowest first.

    The U equation is P(U) = 32 nu^3 (1 - 2U)^2 t^3; `solve_U` and `check_U`
    both read it from here.
    """
    lin = [Fraction(-2), 1 + nu]
    quart = [-4 * nu, 2 * (nu + 3) * (2 * nu + 1), -(11 * nu + 13) * (nu + 1),
             8 * nu * (1 + nu) ** 2]
    a: list[Scalar] = [Fraction(0)] * 6
    for i, c in enumerate(lin):
        for j, e in enumerate(quart):
            a[1 + i + j] = a[1 + i + j] + c * e
    return a


def solve_U(nu: Scalar, order: int) -> series.TSeries:
    """The unique series in t^3 with zero constant term solving the cubic-root
    substitution equation P(U) = 32 nu^3 (1 - 2U)^2 t^3, one t^3-layer at a time.

    With s = t^3, U = sum_k u_k s^k and P(U) = sum_j a_j U^j, layer k reads

        a_1 u_k = 32 nu^3 ([k = 1] - 4 u_{k-1} + 4 [s^{k-1}] U^2)
                  - sum_{j >= 2} a_j [s^k] U^j,

    and [s^k] U^j for j >= 2 involves only u_1..u_{k-1}.  a_1 = 8 nu is
    nonzero for nu > 0.

    Measured: the radius of this series in s, the maximum of
    P(U) / (32 nu^3 (1 - 2U)^2) along U > 0, equals the sphere series' rho_nu
    at nu = 1 (0.024056) but not elsewhere: 0.011543 against rho_c = 0.012898
    at nu_c, 0.004439 against 0.004968 at nu = 2.
    """
    nu = as_scalar(nu)
    if not nu > 0:
        raise ValueError("nu must be positive")
    a = _u_polynomial(nu)
    inv_a1 = Fraction(1) / a[1]
    lead = 32 * nu ** 3
    zero = Fraction(0)
    u = [zero]
    powers = {j: u if j == 1 else [zero] for j in range(1, 6)}   # powers[j][k] = [s^k] U^j
    for k in range(1, order // 3 + 1):
        for j in range(2, 6):
            lower = powers[j - 1]
            powers[j].append(sum((u[i] * lower[k - i] for i in range(1, k)), zero))
        rhs = lead * (int(k == 1) - 4 * u[k - 1] + 4 * powers[2][k - 1])
        u.append((rhs - sum((a[j] * powers[j][k] for j in range(2, 6)), zero)) * inv_a1)
    return series.TSeries(nu, order, {3 * k: uk for k, uk in enumerate(u)})


def check_U(u: series.TSeries, order: int | None = None) -> series.TSeries:
    """Residual 32 nu^3 (1-2U)^2 t^3 - P(U), identically 0 for the solution."""
    nu = u.nu
    order = u.order if order is None else order
    a = _u_polynomial(nu)
    p = series.TSeries.zero(nu, u.order)
    for j in range(5, 0, -1):                     # Horner: P(U) = U (a_1 + U (a_2 + ...))
        p = (p + series.TSeries.monomial(nu, u.order, 0, a[j])) * u
    one_minus_2u = series.TSeries.monomial(nu, u.order, 0) - u.scale(Fraction(2))
    lhs = (one_minus_2u * one_minus_2u).scale(32 * nu ** 3).shift(3)
    return (lhs - p).with_order(order)


# ---------------------------------------------------------------------------
# the one-catalytic-variable equation and its uses
# ---------------------------------------------------------------------------

def _catalytic_combination(v: series.BivSeries, z1: series.TSeries,
                           z2: series.TSeries) -> series.BivSeries:
    """Residual of the one-catalytic-variable equation, in the normalization
    V(y) = sum_p t^p Z_{+^p} y^p (every term polynomial, no divisions).

    The equation appears in four renderings in the source material; only the
    coefficient-recursion rendering is free of typos, which this function
    transcribes.  It was certified term-by-term against the brute-force
    oracle series; see CONVENTIONS.md.  Identically zero when V, Z_1, Z_2 are
    the genuine series, for every nu (at nu = 1 the cubic and several linear
    terms vanish but the residual check stays meaningful).
    """
    nu = v.nu
    one = Fraction(1)
    order, dx, dy = v.order, v.dx, v.dy

    def mono(k: int, j: int, c: Scalar) -> series.BivSeries:
        return series.BivSeries.monomial(nu, order, dx, dy, k, 0, j, c)

    def from_t(s: series.TSeries) -> series.BivSeries:
        out = series.BivSeries(nu, order, dx, dy)
        out.coeffs = {(k, 0, 0): c for k, c in s.coeffs.items() if k <= order}
        return out

    z1b = from_t(z1)
    z2b = from_t(z2)
    v_sq = v * v
    v_cu = v_sq * v
    c = nu * (one - nu)

    return (
        v.scale(-2 * c)
        + z1b.mul_monomial(1, 0, 1, 2 * c)                   # 2 nu (1-nu) t Z1 y
        + (z1b * z1b).mul_monomial(2, 0, 2, 2 * c)           # (1-nu) 2 nu (t Z1)^2 y^2
        + z2b.mul_monomial(2, 0, 2, 2 * c)                   # (1-nu) 2 nu t^2 Z2 y^2
        - z1b.mul_monomial(1, 0, 2, (one - nu) * (nu + 2))   # -(1-nu)(nu+2) t Z1 y^2
        - z1b.mul_monomial(4, 0, 3, 2 * nu * nu)             # -nu t^3 (2 nu t Z1) y^3
        + mono(3, 3, nu * (nu - one))                        # -nu t^3 (-nu+1) y^3
        - mono(3, 4, nu * (nu - one))                        # -t^3 nu (nu-1) y^4
        + mono(6, 5, nu * nu)                                # nu^2 t^6 y^5
        + v.mul_monomial(3, 0, 3, nu * (2 * nu - 3))         # nu t^3 (2nu-3) y^3 V
        + v.mul_monomial(0, 0, 2, nu - one)                  # (nu - 1) y^2 V
        + v.mul_monomial(3, 0, 2, 2 * nu * nu)               # 2 nu^2 t^3 y^2 V
        - v.mul_monomial(0, 0, 1, (nu - one) * (nu + 2))     # -(nu-1)(nu+2) y V
        - (z1b * v).mul_monomial(1, 0, 1, 2 * nu * (nu - one))  # -(nu-1) 2 nu t Z1 y V
        + v_sq.mul_monomial(3, 0, 2, nu * nu)                # nu^2 t^3 y^2 V^2
        - v_sq.mul_monomial(0, 0, 1, (nu + 2) * (nu - one))  # -(nu+2)(nu-1) y V^2
        + v_sq.scale(4 * nu * (nu - one))                    # 4 nu (nu-1) V^2
        + v_cu.scale(2 * nu * (nu - one))                    # 2 nu (nu-1) V^3
    )


class CatalyticReport:
    """The one-catalytic-variable equation's residual at one nu and order."""

    def __init__(self, nu: Scalar, order: int, degenerate: bool, residual: series.BivSeries):
        self.nu = nu
        self.order = order
        self.degenerate = degenerate
        self.residual = residual

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()

    def to_json(self) -> dict:
        return {
            "nu": format_scalar(self.nu),
            "order": self.order,
            "degenerate": self.degenerate,
            "residual_zero": self.ok,
            "residual_terms": len(self.residual.coeffs),
        }


def _v_normalized(words: WordTable, order: int, dy: int) -> series.BivSeries:
    """V(y) = sum_p t^p Z_{+^p} y^p through t^order, from the word table."""
    v = series.BivSeries(words.nu, order, 0, dy)
    for p in range(1, words.p_max + 1):
        for k, c in words.series("+" * p).coeffs.items():
            if k + p <= order:
                v.coeffs[(k + p, 0, p)] = c
    return v


def verify_catalytic(nu: Scalar, order: int, words: WordTable) -> CatalyticReport:
    """Evaluate the one-catalytic-variable equation on the solved system.

    Returns the residual through the requested t-order, over all y-degrees.
    At nu = 1 the factor 1-nu kills the equation's normal-form left side and
    the check degenerates to the surviving polynomial side (still a strict
    identity); the report flags this.
    """
    nu = as_scalar(nu)
    if words.nu != nu or words.order < order + 2:
        raise ValueError("the word table must reach order + 2 at the same nu")
    work = order + 2
    v = _v_normalized(words, work, work + 9)
    z1 = words.series("+").with_order(work)
    z2 = words.series("++").with_order(work)
    residual = _catalytic_combination(v, z1, z2).with_order(order)
    return CatalyticReport(nu, order, degenerate=(nu == 1), residual=residual)


def zplus_recursion(p: int, nu: Scalar, order: int, words: WordTable) -> series.TSeries:
    """Z_{+^p} for p >= 3 rebuilt from Z_+ and Z_++ alone, via the
    y^p-coefficient extraction of the one-catalytic-variable equation.

    The equation degenerates at nu = 1 (every term carries a 1-nu factor that
    survives the extraction), so that value is rejected.
    """
    nu = as_scalar(nu)
    if p < 3:
        raise ValueError("recursion applies to p >= 3")
    if nu == 1:
        raise ValueError("the y^p recursion degenerates at nu = 1")
    # the t^p Z_p normalization costs p working orders at the top
    work = order + p
    if words.nu != nu or words.order < work:
        raise ValueError(f"the word table must reach order+p = {work} at the same nu")
    z1 = words.series("+").with_order(work)
    z2 = words.series("++").with_order(work)
    inv_c = Fraction(1) / (2 * nu * (Fraction(1) - nu))
    zs: dict[int, series.TSeries] = {1: z1, 2: z2}
    for q in range(3, p + 1):
        v = series.BivSeries(nu, work, 0, 3 * q + 6)
        for r, s in zs.items():
            for k, cc in s.coeffs.items():
                if k + r <= work:
                    v.coeffs[(k + r, 0, r)] = cc
        combo = _catalytic_combination(v, z1, z2)
        # with t^q Z_q missing, the y^q defect is exactly 2 nu (1-nu) t^q Z_q
        defect = combo.extract_tseries(0, q)
        zs[q] = defect.scale(inv_c).shift(-q)
    return zs[p].with_order(order)


# ---------------------------------------------------------------------------
# identities against the non-simple-boundary series
# ---------------------------------------------------------------------------

class IdentityResult:
    """One series identity, checked through `checked_to`."""

    def __init__(self, name: str, ok: bool, checked_to: int, first_fail: int | None = None):
        self.name = name
        self.ok = ok
        self.checked_to = checked_to
        self.first_fail = first_fail

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "checked_to": self.checked_to,
                "first_fail": self.first_fail}


def check_q_identities(words: WordTable, order: int) -> list[IdentityResult]:
    """Cross-check the engine Z-series against brute-force Q-series.

    Q3 - Q1 Q2 removes exactly the maps whose root edge is a boundary loop;
    the boundary walks that are pinched away from the root edge contribute a
    further 2 Q1 (Q2 - Q1^2) before what is left is the simple-boundary sum
    Z_+++ + 3 Z_++-.  (The shorter form without that term, as sometimes
    quoted, fails at the first order with a pinched non-root boundary; the
    corrected form is the one consistent with the Z_++ formula below, which
    holds verbatim.)

    Checks through `order`, which the word table must reach.  The
    brute-force Q-series grow fast with the order: callers keep it at 9 or
    below.
    """
    from .maps import oracle_Q

    nu, n = words.nu, order
    if n > words.order:
        raise ValueError("the word table must reach the check order")
    q1 = oracle_Q(1, nu, n)
    q2 = oracle_Q(2, nu, n)
    q3 = oracle_Q(3, nu, n)
    z_p, z_pp, z_pm, z_ppp, z_ppm = (words.series(w).with_order(n)
                                     for w in ("+", "++", "+-", "+++", "++-"))

    results = []

    def record(name: str, lhs: series.TSeries, rhs: series.TSeries) -> None:
        fail = lhs.first_difference(rhs, n)
        results.append(IdentityResult(name, fail is None, n, fail))

    record("Q1 = nu t Q2", q1, q2.shift(1).scale(nu))
    record("Q1 = Z_+", q1, z_p)
    record("Z_++ + Z_+- = Q2 - Q1^2", z_pp + z_pm, q2 - q1 * q1)
    record("Z_+++ + 3 Z_++- = Q3 - Q1 Q2 - 2 Q1 (Q2 - Q1^2)",
           z_ppp + z_ppm.scale(Fraction(3)),
           q3 - q1 * q2 - (q1 * (q2 - q1 * q1)).scale(Fraction(2)))
    if nu != 1:
        inv_1mn = Fraction(1) / (Fraction(1) - nu)
        rhs = (
            series.TSeries.monomial(nu, n, 1, 2 * nu * inv_1mn)
            + q3.shift(1).scale(nu * inv_1mn)
            - q1.shift(-1).scale(inv_1mn)
            - q1 * q1
        )
        record("Z_++ in Q1, Q3", z_pp, rhs)
    return results
