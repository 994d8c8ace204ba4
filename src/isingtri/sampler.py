"""Random generation of spin-decorated triangulations.

Three samplers share one dart-level builder: an exact finite-size sampler
(recursive decomposition with size-conditioned coefficient weights), a
Boltzmann peeling sampler at or below the critical fugacity, and an edge-flip
plus heat-bath Markov chain for sizes beyond exact reach.

Case selection is exact for exact scalars: a uniform variate is drawn lazily
bit by bit as a shrinking dyadic interval and compared against cumulative
weights with exact arithmetic, so no case probability is ever rounded.  The
choice depends only on the ratios of the weights, so the exact sampler reads
its case weights as the word table's integer peeling terms, before the
common root-edge factor and scale d^n (nu = m / d), and the Markov chain
weighs spins and flips by integer powers of m and d.  Every sample records
its seed; replicas derive independent streams by hashing.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left, insort
from fractions import Fraction

from .criticality import eval_series_interval
from .exactnum import Interval, QuadExt, Scalar, _make, as_scalar, scalar_to_float, sign_sqrt7
from .maps.combmap import CombMap, normalize_word, spins_to_word, word_to_spins
from .partition import WordTable, _integer_weight, peeling_cases, solve_dobrushin

RNG_ALGORITHM = "python-mt19937/sha256-derived-streams"


class CoefficientsMissing(ValueError):
    pass


class StepCapExceeded(RuntimeError):
    pass


class EvaluationTooCoarse(RuntimeError):
    pass


def derive_seed(seed: int, stream: int | str) -> int:
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# exact weighted choice via lazily refined dyadic uniform
# ---------------------------------------------------------------------------

def pick_weighted(weights: list[Scalar], rng: random.Random) -> int:
    """Index i with probability weights[i]/sum, exactly, for exact scalars.

    A uniform variate on [0, total) is represented as the dyadic interval
    [lo, lo+1)/2^k * total and refined one random bit at a time until it fits
    inside a single cumulative segment; all comparisons are exact.  Scaling
    every weight by one positive constant changes no choice, so weights that
    are not all integers are first scaled to integer pairs (u, v) standing for
    u + v sqrt7 (`_pick_integer_pairs`), with the same random bits and result.
    """
    cum: list[int] = []
    acc = 0
    for w in weights:
        if type(w) is not int:
            return _pick_integer_pairs(weights, rng)
        if w < 0:
            raise ValueError("negative weight")
        acc = acc + w
        cum.append(acc)
    total = acc
    if not total > 0:
        raise ValueError("all weights vanish")
    lo = 0
    k = 0
    while True:
        scale = 1 << k
        u_lo = lo * total
        u_hi = (lo + 1) * total
        # first segment whose upper cumulative strictly exceeds u_lo
        for i, c in enumerate(cum):
            sc = scale * c
            if sc > u_lo:
                if u_hi <= sc:
                    return i
                break
        lo = (lo << 1) | rng.getrandbits(1)
        k += 1


def _pick_integer_pairs(weights: list[Scalar], rng: random.Random) -> int:
    """`pick_weighted` for Fraction or Q(sqrt7) weights.

    Every weight is scaled by the one common denominator D of its parts, to
    the integer pair (u, v) of D w = u + v sqrt7; the refinement then makes
    the same comparisons as `pick_weighted`, as integer sign tests.
    """
    parts = [(w.a, w.b) if isinstance(w, QuadExt) else (w, 0) for w in weights]
    den = math.lcm(*(x.denominator for ab in parts for x in ab))
    cum: list[tuple[int, int]] = []
    acc_u = acc_v = 0
    for a, b in parts:
        u, v = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        if sign_sqrt7(u, v) < 0:
            raise ValueError("negative weight")
        acc_u += u
        acc_v += v
        cum.append((acc_u, acc_v))
    tot_u, tot_v = acc_u, acc_v
    if sign_sqrt7(tot_u, tot_v) <= 0:
        raise ValueError("all weights vanish")
    lo = 0
    k = 0
    while True:
        lo_u, lo_v = lo * tot_u, lo * tot_v
        # first segment whose upper cumulative strictly exceeds lo * total
        for i, (cu, cv) in enumerate(cum):
            du, dv = (cu << k) - lo_u, (cv << k) - lo_v
            if sign_sqrt7(du, dv) > 0:
                if sign_sqrt7(du - tot_u, dv - tot_v) >= 0:
                    return i
                break
        lo = (lo << 1) | rng.getrandbits(1)
        k += 1


def bernoulli(num: Scalar, den: Scalar, rng: random.Random) -> bool:
    """True with exact probability min(1, num / den), for num, den > 0."""
    if num >= den:
        return True
    return pick_weighted([num, den - num], rng) == 0


def _weight_ratio(nu: Scalar) -> tuple[Scalar, int]:
    """(m, d) with nu = m / d, m in Z or Z[sqrt7] and the integer d > 0."""
    m, d = _integer_weight(nu)
    return _make(*m), d


# ---------------------------------------------------------------------------
# dart-level builder for peeling reconstructions
# ---------------------------------------------------------------------------

class _Piece:
    """A triangulation of the p-gon under construction.

    Spins are stored per dart (constant on each vertex).
    """

    __slots__ = ("alpha", "sigma", "root", "spin")

    def __init__(self, alpha: list[int], sigma: list[int], root: int, spin: list[int]):
        self.alpha = alpha
        self.sigma = sigma
        self.root = root
        self.spin = spin

    def to_map(self) -> CombMap:
        return spun_map(self.alpha, self.sigma, self.root, self.spin)

    def root_face_cycle(self) -> list[int]:
        start = self.alpha[self.root]
        cyc = [start]
        d = self.sigma[self.alpha[start]]
        while d != start:
            cyc.append(d)
            d = self.sigma[self.alpha[d]]
        return cyc

    def word(self) -> str:
        cyc = self.root_face_cycle()
        order = [cyc[0]] + cyc[:0:-1]
        return spins_to_word(self.spin[d] for d in order)


def _edge_piece(w1: int, w2: int) -> _Piece:
    # single edge: dart 0 = root (from the w2 vertex to the w1 vertex)
    return _Piece(alpha=[1, 0], sigma=[0, 1], root=0, spin=[w2, w1])


def _attach_new_vertex(inner: _Piece) -> _Piece:
    """Inverse peeling, new-vertex case: inner has word c w, result has word w.

    Adds the root edge of the result across the corner at the new vertex c,
    so the triangle (w_p, c, w_1) becomes an internal face.
    """
    p1 = inner
    cyc = p1.root_face_cycle()          # [rbar, y1 .. yp], tail(y_j) = w_{p+1-j}
    rbar, ys = cyc[0], cyc[1:]
    p = len(ys)
    if p < 1:
        raise ValueError("inner word must have length >= 2")
    n = len(p1.alpha)
    d1, d2 = n, n + 1                   # new root edge darts: d1 at w_p, d2 at w_1
    alpha = p1.alpha + [d2, d1]
    sigma = p1.sigma + [0, 0]
    spin = p1.spin + [p1.spin[ys[0]], p1.spin[ys[-1]]]
    rootp = p1.root
    if p == 1:
        sigma[d1] = d2                  # new root face is the loop face [d2]
        sigma[d2] = ys[0]
        sigma[rootp] = d1
    else:
        sigma[d1] = ys[0]               # phi(d2) = y1
        sigma[d2] = ys[-1]              # phi(d1) = yp
        sigma[rootp] = d1               # phi(rbar) = d1
        sigma[alpha[ys[-2]]] = d2       # phi(y_{p-1}) = d2
    return _finish(_Piece(alpha, sigma, d1, spin))


def _attach_split(left: _Piece, right: _Piece) -> _Piece:
    """Inverse peeling, boundary-vertex case.

    left has word w_1..w_i, right has word w_i..w_p; the pieces share the
    vertex w_i and the result has word w_1..w_p with a fresh root edge from
    w_p to w_1; the triangle (w_p, w_1, w_i) is made of the new edge and the
    two pieces' root edges.
    """
    off = len(left.alpha)
    alpha = left.alpha + [d + off for d in right.alpha]
    sigma = left.sigma + [d + off for d in right.sigma]
    spin = left.spin + right.spin
    cyc1 = left.root_face_cycle()
    rbar1, us = cyc1[0], cyc1[1:]
    cyc2 = [d + off for d in right.root_face_cycle()]
    rbar2, ss = cyc2[0], cyc2[1:]
    r1 = left.root
    r2 = right.root + off
    n = len(alpha)
    d1, d2 = n, n + 1
    alpha += [d2, d1]
    sigma += [0, 0]
    w1_spin = left.spin[rbar1]
    wp_spin = spin[ss[0]] if ss else spin[rbar2]
    spin += [wp_spin, w1_spin]
    # triangle [d1, rbar1, rbar2]
    sigma[d2] = rbar1
    sigma[r1] = rbar2
    sigma[r2] = d1
    # new root face [d2] + ss + us
    cycle = [d2] + ss + us
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        sigma[alpha[x]] = y
    return _finish(_Piece(alpha, sigma, d1, spin))


def _finish(piece: _Piece) -> _Piece:
    piece.to_map().validate("pgon", len(piece.root_face_cycle()))
    return piece


def _compact(alpha: list[int], sigma: list[int], spin: list[int], root: int,
             dead: set[int]) -> CombMap:
    """Drop deleted darts and renumber; returns the rooted map with spins."""
    keep = [d for d in range(len(alpha)) if d not in dead]
    new = {d: i for i, d in enumerate(keep)}
    return spun_map([new[alpha[d]] for d in keep], [new[sigma[d]] for d in keep],
                    new[root], [spin[d] for d in keep])


def _close_2gon(piece: _Piece) -> CombMap:
    """Sew the two boundary edges of a 2-gon into one sphere edge."""
    cyc = piece.root_face_cycle()
    if len(cyc) != 2:
        raise ValueError("need a 2-gon")
    rbar, u1 = cyc
    alpha = list(piece.alpha)
    sigma = list(piece.sigma)
    root = piece.root
    inner2 = alpha[u1]
    # splice the boundary darts out of their rotations
    for d in (rbar, u1):
        prev = sigma.index(d)
        sigma[prev] = sigma[d]
    alpha[root] = inner2
    alpha[inner2] = root
    return _compact(alpha, sigma, piece.spin, root, {rbar, u1})


def _close_loop_pair(p1: _Piece, p2: _Piece) -> CombMap:
    """Sew two 1-gons along their boundary loops into a loop-rooted sphere."""
    off = len(p1.alpha)
    alpha = p1.alpha + [d + off for d in p2.alpha]
    sigma = p1.sigma + [d + off for d in p2.sigma]
    spin = p1.spin + p2.spin
    r1 = p1.root
    rb1 = p1.alpha[r1]
    r2 = p2.root + off
    rb2 = alpha[r2]
    # cross-splice the two vertex rotations, deleting the outer loop sides
    b1 = sigma.index(rb1)
    a1 = sigma[rb1]
    b2 = sigma.index(rb2)
    a2 = sigma[rb2]
    sigma[b1] = a2
    sigma[b2] = a1
    alpha[r1] = r2
    alpha[r2] = r1
    return _compact(alpha, sigma, spin, r1, {rb1, rb2})


# ---------------------------------------------------------------------------
# decision-tree sampling shared by the exact and Boltzmann samplers
# ---------------------------------------------------------------------------

class _Node:
    """One peeling step of a decision tree: its word, its case from
    `peeling_cases` and the nodes of the case's child words, in order."""

    __slots__ = ("word", "case", "children")

    def __init__(self, word: str, case: tuple = (), children: list | None = None):
        self.word = word
        self.case = case
        self.children = children if children is not None else []


def _build_from_tree(root: _Node) -> _Piece:
    # iterative post-order construction
    done: dict[int, _Piece] = {}
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            kids = [done.pop(id(ch)) for ch in node.children]
            if node.case[0] == "edge":
                s = word_to_spins(node.word)
                done[id(node)] = _edge_piece(s[0], s[1])
            elif node.case[0] == "insert":
                done[id(node)] = _attach_new_vertex(kids[0])
            else:
                done[id(node)] = _attach_split(kids[0], kids[1])
        else:
            stack.append((node, True))
            stack.extend((ch, False) for ch in node.children)
    piece = done[id(root)]
    if piece.word() != normalize_word(root.word):
        raise AssertionError("reconstructed boundary word mismatch")
    return piece


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------

class ExactSamplerContext:
    """Coefficient tables for size-conditioned exact sampling at one nu.

    The case weights are the word table's integer peeling terms of the
    state c(word, n) = d^n [t^n] Z_word, read before the root-edge factor:
    they differ from the case probabilities times [t^n] Z_word by one
    positive constant per (word, n), and the choice is scale-invariant.
    Each (word, n) is tabulated once, when it is first drawn from, after
    checking that its terms sum to the state.
    """

    def __init__(self, nu: Scalar, max_edges: int):
        self.nu = as_scalar(nu)
        self.order = max_edges
        self.words = WordTable(self.nu, self.order, solve_dobrushin(self.nu, self.order))
        self._cases: dict[tuple[str, int], tuple[list[tuple], list[Scalar]]] = {}

    def case_weights(self, word: str, n: int) -> tuple[list[tuple], list[Scalar]]:
        """The nonzero terms (case, ((child, size), ...), (u, v)) of c(word, n),
        and their weights u + v sqrt7 as exact scalars.

        A split case is listed once per size of its first child; the
        children of every case share the size n - 1 (the bare edge has
        size 1).  See `WordTable.terms`.
        """
        entry = self._cases.get((word, n))
        if entry is None:
            words = self.words
            terms = list(words.terms(word, n))
            if words.total(word, terms) != words.state(word, n):
                raise AssertionError("peeling case weights do not sum to the coefficient")
            entry = self._cases[word, n] = (terms, [_make(*c) for *_, c in terms])
        return entry


def _sample_gon_exact(ctx: ExactSamplerContext, word: str, n: int,
                      rng: random.Random) -> _Piece:
    if ctx.words.state(word, n) == (0, 0):
        raise CoefficientsMissing(f"[t^{n}] Z_{word} = 0")

    def make_node(w: str, size: int) -> _Node:
        terms, weights = ctx.case_weights(w, size)
        case, children, _ = terms[pick_weighted(weights, rng)]
        return _Node(w, case, [make_node(cw, cn) for cw, cn in children])

    return _build_from_tree(make_node(word, n))


def exact_sample(nu: Scalar, n: int, seed: int,
                 ctx: ExactSamplerContext | None = None) -> CombMap:
    """A spin-decorated sphere triangulation with 3n edges, exactly from the
    size-n Gibbs law: the root edge is classified loop/non-loop through the
    sphere relation, the corresponding gon is sampled by recursive peeling
    with coefficient weights, and the boundary is sewn back up.

    With nu = m / d and S the word table's integer states, the three root
    classes weigh d S(++, s), m S(+-, s) and d sum_k S(+, k) S(+, s - k) at
    s = 3n + 1: the sphere relation's weights times nu d^s.
    """
    if n < 1:
        raise ValueError("a sphere triangulation has 3n >= 3 edges")
    nu = as_scalar(nu)
    size = 3 * n + 1
    if ctx is None:
        ctx = ExactSamplerContext(nu, size)
    if ctx.order < size:
        raise CoefficientsMissing("context solved to insufficient order")
    rng = random.Random(derive_seed(seed, "exact"))
    m, den = _weight_ratio(nu)
    state = ctx.words.state

    loop_splits: list[tuple[int, Scalar]] = []
    for k1 in range(2, size - 1):
        c1, c2 = state("+", k1), state("+", size - k1)
        if c1 != (0, 0) and c2 != (0, 0):
            loop_splits.append((k1, _make(*c1) * _make(*c2)))
    w_loop = sum(w for _, w in loop_splits)

    case = pick_weighted([den * _make(*state("++", size)), m * _make(*state("+-", size)),
                          den * w_loop], rng)
    if case == 0:
        piece = _sample_gon_exact(ctx, "++", size, rng)
        result = _close_2gon(piece)
    elif case == 1:
        piece = _sample_gon_exact(ctx, "+-", size, rng)
        result = _close_2gon(piece)
    else:
        k = pick_weighted([w for _, w in loop_splits], rng)
        k1 = loop_splits[k][0]
        piece1 = _sample_gon_exact(ctx, "+", k1, rng)
        piece2 = _sample_gon_exact(ctx, "+", size - k1, rng)
        result = _close_loop_pair(piece1, piece2)
    if pick_weighted([1, 1], rng) == 1:
        result = result.flipped_spins()
    result.validate("sphere")
    if result.n_edges != 3 * n:
        raise AssertionError("sampled map has wrong size")
    return result


# ---------------------------------------------------------------------------
# Boltzmann sampler
# ---------------------------------------------------------------------------

class BoltzmannContext:
    """Evaluations Z_omega(t) for peeling at fugacity t <= t_nu.

    Values are the midpoints of `eval_series_interval` on the word-series
    table: the partial sum at t plus, whenever `alpha` is given, the
    power-law tail model kappa (k/3)^-alpha fitted to the last coefficients,
    whatever t is; with `alpha` None, the partial sum alone.  Below t_nu the
    true tail decays geometrically, so there the model over-estimates it
    (heuristic).  Case probabilities are renormalized to sum to one; the
    discrepancy is logged and must stay below `tolerance`.
    """

    def __init__(self, nu: Scalar, t: Interval, series_order: int = 30,
                 alpha: Fraction | None = None, length_cap: int = 12,
                 tolerance: float = 1e-3):
        self.nu = as_scalar(nu)
        self.t = t
        self.order = series_order
        self.alpha = alpha
        self.length_cap = length_cap
        self.tolerance = tolerance
        table = solve_dobrushin(self.nu, series_order)
        self.words = WordTable(self.nu, series_order, table)
        self._values: dict[str, Fraction] = {}
        self.max_discrepancy = 0.0

    def value(self, word: str) -> Fraction:
        v = self._values.get(word)
        if v is None:
            series = self.words.series(word)
            iv = eval_series_interval(series, self.t, self.alpha)
            v = iv.mid
            self._values[word] = v
        return v

    def case_distribution(self, word: str) -> tuple[list[tuple], list[Fraction]]:
        """Peeling cases with their child words, and their weights at t.

        Insertions past `length_cap` are left out.
        """
        mono = self.nu if word[0] == word[-1] else Fraction(1)
        weight_t = scalar_to_float(mono, 96).mid * self.t.mid
        cases: list[tuple] = []
        weights: list[Fraction] = []
        for case, children in peeling_cases(word):
            if all(len(w) <= self.length_cap for w in children):
                weight = weight_t
                for w in children:
                    weight = weight * self.value(w)
                cases.append((case, children))
                weights.append(weight)
        total = sum(weights)
        target = self.value(word)
        discrepancy = abs(float(total - target)) / abs(float(target))
        self.max_discrepancy = max(self.max_discrepancy, discrepancy)
        if discrepancy > self.tolerance:
            raise EvaluationTooCoarse(
                f"case weights off by {discrepancy:.2e} at word {word}")
        # absorb the discrepancy into the largest case
        imax = max(range(len(weights)), key=lambda i: weights[i])
        weights[imax] = weights[imax] + (target - total)
        if weights[imax] < 0:
            raise EvaluationTooCoarse("renormalization produced a negative weight")
        return cases, weights


def boltzmann_sample(omega: str, nu: Scalar, ctx: BoltzmannContext, seed: int,
                     step_cap: int = 4000) -> CombMap:
    """A Boltzmann triangulation with boundary word omega at the context's
    fugacity, by recursive peeling; raises StepCapExceeded on runaway runs."""
    rng = random.Random(derive_seed(seed, "boltzmann"))
    steps = 0

    root = _Node(omega)
    work = [root]
    while work:
        node = work.pop()
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(f"peeling exceeded {step_cap} steps")
        if len(node.word) > ctx.length_cap:
            raise StepCapExceeded(f"boundary length exceeded {ctx.length_cap}")
        cases, weights = ctx.case_distribution(node.word)
        node.case, children = cases[pick_weighted(weights, rng)]
        node.children = [_Node(w) for w in children]
        work.extend(node.children)

    m = _build_from_tree(root).to_map()
    m.validate("pgon", len(omega))
    return m


# ---------------------------------------------------------------------------
# Markov chain sampler
# ---------------------------------------------------------------------------

def spun_map(alpha, sigma, root: int, spin) -> CombMap:
    """The spin-decorated map of darts `alpha`, `sigma`, `root` and per-dart
    `spin`; it keeps the vertex table it reads the spins through."""
    m = CombMap(alpha, sigma, root)
    vo = m.vertex_of()
    spins = [0] * (max(vo) + 1)
    for d, v in enumerate(vo):
        spins[v] = spin[d]
    return m.with_spins(spins)


class McmcState:
    """The Markov chain's map, with per-dart spins and two maintained counts."""

    __slots__ = ("alpha", "sigma", "root", "spin", "mono", "vmins")

    def __init__(self, alpha: list[int], sigma: list[int], root: int, spin: list[int],
                 mono: int, vmins: list[int]):
        self.alpha = alpha
        self.sigma = sigma
        self.root = root
        self.spin = spin          # per dart, constant on vertices
        self.mono = mono          # monochromatic edges
        self.vmins = vmins        # least dart of each vertex, sorted

    def to_map(self) -> CombMap:
        return spun_map(self.alpha, self.sigma, self.root, self.spin)

    def recompute_mono(self) -> int:
        m = 0
        for d in range(len(self.alpha)):
            e = self.alpha[d]
            if d < e and self.spin[d] == self.spin[e]:
                m += 1
        return m

    def recompute_vmins(self) -> list[int]:
        # `vertex_of` numbers the vertices in order of their least darts
        out: list[int] = []
        for d, v in enumerate(CombMap(self.alpha, self.sigma).vertex_of()):
            if v == len(out):
                out.append(d)
        return out


def _fan_triangulation(n: int) -> tuple[list[int], list[int]]:
    """A deterministic 3n-edge type-I triangulation: n-fold loop-with-pendant
    spheres are awkward, so build the n = 1 double triangle and grow it by
    repeated vertex insertion into a face (each insertion adds 3 edges)."""
    alpha = [1, 0, 3, 2, 5, 4]
    sigma = [5, 2, 1, 4, 3, 0]   # double triangle: faces (0 2 4) and (1 5 3)
    for _ in range(n - 1):
        _insert_vertex_in_face(alpha, sigma)
    CombMap(alpha, sigma, 0).validate("sphere")
    return alpha, sigma


def _insert_vertex_in_face(alpha: list[int], sigma: list[int]) -> None:
    """Split, in place, the face holding the highest dart into three triangles."""
    face = [len(alpha) - 1]
    for _ in range(2):
        face.append(sigma[alpha[face[-1]]])
    if len(set(face)) != 3 or sigma[alpha[face[2]]] != face[0]:
        raise ValueError("expected a triangle")
    i = face.index(min(face))
    x, y, z = face[i:] + face[:i]
    n = len(alpha)
    px, qx, py, qy, pz, qz = n, n + 1, n + 2, n + 3, n + 4, n + 5
    alpha += [qx, px, qy, py, qz, pz]
    sigma += [0] * 6
    # spokes p_* run from the face corners to the new vertex
    _set_faces(alpha, sigma, ((x, py, qx), (y, pz, qy), (z, px, qz)))


def _set_faces(alpha: list[int], sigma: list[int], faces) -> None:
    """Rewire sigma so that each given dart cycle is a face (a phi-cycle)."""
    for face in faces:
        for u, v in zip(face, face[1:] + face[:1]):
            sigma[alpha[u]] = v


def mcmc_sample(nu: Scalar, n: int, steps: int, seed: int,
                validate_every: int = 10_000,
                collector=None) -> CombMap:
    """Heat-bath spins + edge flips + uniform re-rooting targeting the
    size-3n Gibbs law; detailed balance holds move by move (the re-rooting
    proposal is symmetric on rooted maps and the law only depends on the
    unrooted content, so it mixes rootings without changing the target).
    Moves cost time in proportion to the degrees they touch; the map and the
    maintained counts are fully checked every `validate_every` steps and at
    the end."""
    if n < 1:
        raise ValueError("a sphere triangulation has 3n >= 3 edges")
    m, den = _weight_ratio(as_scalar(nu))
    rng = random.Random(derive_seed(seed, "mcmc"))
    alpha, sigma = _fan_triangulation(n)
    state = McmcState(alpha, sigma, 0, [1] * len(alpha), 0, [])
    state.mono, state.vmins = state.recompute_mono(), state.recompute_vmins()

    for step in range(steps):
        _heat_bath(state, m, den, rng)
        _flip_move(state, m, den, rng)
        state.root = rng.randrange(len(state.alpha))
        if collector is not None:
            collector(state)
        if validate_every and (step + 1) % validate_every == 0:
            _checked_map(state)
    return _checked_map(state)


def _checked_map(state: McmcState) -> CombMap:
    """The state's map, after a full check of it and of the maintained counts."""
    m = state.to_map()
    m.validate("sphere")
    if state.mono != state.recompute_mono():
        raise AssertionError("incremental monochromatic count drifted")
    if state.vmins != state.recompute_vmins():
        raise AssertionError("incremental vertex index drifted")
    return m


def _vertex_mins(sigma: list[int], darts) -> set[int]:
    """The least dart of each vertex through `darts`."""
    out = set()
    for d in darts:
        low, e = d, sigma[d]
        while e != d:
            if e < low:
                low = e
            e = sigma[e]
        out.add(low)
    return out


def _heat_bath(state: McmcState, m: Scalar, den: int, rng: random.Random) -> None:
    """Resample one vertex spin: with nu = m / den, the weights nu^k+ : nu^k-
    of the two spins scale to m^k+ den^k- : m^k- den^k+."""
    start = state.vmins[rng.randrange(len(state.vmins))]
    cyc = [start]           # the vertex's darts, from its least one
    d = state.sigma[start]
    while d != start:
        cyc.append(d)
        d = state.sigma[d]
    darts = set(cyc)
    # spins across the edges to other vertices: loops stay monochromatic
    nbrs = [state.spin[state.alpha[d]] for d in cyc if state.alpha[d] not in darts]
    k_plus = nbrs.count(1)
    k_minus = len(nbrs) - k_plus
    w_plus = m ** k_plus * den ** k_minus
    w_minus = m ** k_minus * den ** k_plus
    new_spin = 1 if pick_weighted([w_plus, w_minus], rng) == 0 else -1
    if new_spin != state.spin[cyc[0]]:
        state.mono += (k_plus - k_minus) * new_spin
        for d in cyc:
            state.spin[d] = new_spin


def _flip_edge(alpha: list[int], sigma: list[int],
               darts: tuple[int, ...]) -> tuple[set[int], set[int]] | None:
    """Turn the faces (g x1 x2) and (gb y1 y2), darts = (g, x1, x2, gb, y1,
    y2), into (g y2 x1) and (gb x2 y1), in place.  Faces stay triangles and
    the map stays connected, so it stays a sphere exactly when V is kept.
    Only vertices through the six darts change: those of the corners x1, x2,
    y1, y2, as g and gb lie at y1, x1 before and at x2, y2 after.  Returns
    their least darts before and after; None, sigma restored, if V changes."""
    g, x1, x2, gb, y1, y2 = darts
    corners = (x1, x2, y1, y2)
    before = _vertex_mins(sigma, corners)
    saved = [(alpha[u], sigma[alpha[u]]) for u in darts]
    _set_faces(alpha, sigma, ((g, y2, x1), (gb, x2, y1)))
    after = _vertex_mins(sigma, corners)
    if len(after) != len(before):
        for d, s in saved:
            sigma[d] = s
        return None
    return before, after


def _flip_move(state: McmcState, m: Scalar, den: int, rng: random.Random) -> None:
    """Flip one edge, accepted with probability min(1, nu^delta), nu = m / den."""
    sigma, alpha, spin = state.sigma, state.alpha, state.spin
    g = rng.randrange(len(alpha))
    gb = alpha[g]

    def phi(d):
        return sigma[alpha[d]]

    x1 = phi(g)
    x2 = phi(x1)
    if phi(x2) != g:
        raise AssertionError("face of degree != 3")
    y1 = phi(gb)
    y2 = phi(y1)
    if {g, x1, x2} == {gb, y1, y2}:
        return  # the two sides of the edge bound the same face: unflippable
    # g runs a -> b, from the tail of y1 to that of x1; after the flip it
    # runs c -> d, from the tail of x2 to that of y2
    delta = (spin[x2] == spin[y2]) - (spin[y1] == spin[x1])
    if delta and not (bernoulli(m, den, rng) if delta > 0 else bernoulli(den, m, rng)):
        return
    changed = _flip_edge(alpha, sigma, (g, x1, x2, gb, y1, y2))
    if changed is None:
        return
    spin[g], spin[gb] = spin[x2], spin[y2]
    state.mono += delta
    before, after = changed
    for d in before - after:
        del state.vmins[bisect_left(state.vmins, d)]
    for d in after - before:
        insort(state.vmins, d)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class SampleStats:
    """Empirical local statistics of a list of sampled maps."""

    def __init__(self, count: int, meta: dict | None = None):
        self.count = count
        self.root_degree: dict[int, int] = {}
        self.hull_perimeter_1: dict[int, int] = {}
        self.ball_volumes: dict[int, list[int]] = {}
        self.mono_fraction: list[float] = []
        self.meta = meta if meta is not None else {}

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "root_degree": {str(k): v for k, v in sorted(self.root_degree.items())},
            "hull_perimeter_1": {str(k): v for k, v in sorted(self.hull_perimeter_1.items())},
            "ball_volumes": {str(r): v for r, v in sorted(self.ball_volumes.items())},
            "mono_fraction_mean": (sum(self.mono_fraction) / len(self.mono_fraction)
                                   if self.mono_fraction else None),
            "meta": self.meta,
        }


def vertex_distances(m: CombMap) -> list[int]:
    vo = m.vertex_of()
    nv = max(vo) + 1
    adj: list[set[int]] = [set() for _ in range(nv)]
    for u, v in m.edges_as_vertex_pairs():
        adj[u].add(v)
        adj[v].add(u)
    root = vo[m.root]
    dist = [-1] * nv
    dist[root] = 0
    queue = [root]
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    return dist


def ball_face_counts(m: CombMap, r_max: int) -> list[int]:
    """|B_R| for R = 1..r_max: faces with a vertex at distance < R."""
    vo = m.vertex_of()
    dist = vertex_distances(m)
    faces = m.faces()
    out = []
    for r in range(1, r_max + 1):
        count = 0
        for cyc in faces:
            if any(dist[vo[d]] < r for d in cyc):
                count += 1
        out.append(count)
    return out


def root_degree(m: CombMap) -> int:
    vo = m.vertex_of()
    root_v = vo[m.root]
    return sum(1 for d in range(m.n_darts) if vo[d] == root_v)


def hull_perimeter_radius1(m: CombMap) -> int:
    """Perimeter of the radius-1 hull: faces at the root vertex, plus every
    complement component except the largest (by face count)."""
    vo = m.vertex_of()
    root_v = vo[m.root]
    faces = m.faces()
    face_id = {}
    for i, cyc in enumerate(faces):
        for d in cyc:
            face_id[d] = i
    in_ball = [any(vo[d] == root_v for d in cyc) for cyc in faces]
    outside = [i for i in range(len(faces)) if not in_ball[i]]
    if not outside:
        return 0
    # face adjacency across edges, restricted to outside faces
    comp = {i: -1 for i in outside}
    comps: list[list[int]] = []
    for start in outside:
        if comp[start] >= 0:
            continue
        cid = len(comps)
        comps.append([])
        stack = [start]
        comp[start] = cid
        while stack:
            f = stack.pop()
            comps[cid].append(f)
            for d in faces[f]:
                g = face_id[m.alpha[d]]
                if not in_ball[g] and comp[g] < 0:
                    comp[g] = cid
                    stack.append(g)
    keep = max(range(len(comps)), key=lambda c: (len(comps[c]), -c))
    hull_faces = set(range(len(faces))) - {f for f in comps[keep]}
    per = 0
    for f in hull_faces:
        for d in faces[f]:
            if face_id[m.alpha[d]] not in hull_faces:
                per += 1
    return per


def collect_stats(samples: list[CombMap], r_max: int = 4, meta: dict | None = None) -> SampleStats:
    stats = SampleStats(count=len(samples), meta=meta or {})
    for r in range(1, r_max + 1):
        stats.ball_volumes[r] = []
    for m in samples:
        deg = root_degree(m)
        stats.root_degree[deg] = stats.root_degree.get(deg, 0) + 1
        per = hull_perimeter_radius1(m)
        stats.hull_perimeter_1[per] = stats.hull_perimeter_1.get(per, 0) + 1
        for r, count in zip(range(1, r_max + 1), ball_face_counts(m, r_max)):
            stats.ball_volumes[r].append(count)
        stats.mono_fraction.append(m.monochromatic_count() / m.n_edges)
    return stats
