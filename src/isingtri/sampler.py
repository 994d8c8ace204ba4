"""Random generation of spin-decorated triangulations.

Two samplers share one dart-level builder: an exact finite-size sampler
(recursive peeling with size-conditioned coefficient weights) and an
edge-flip plus heat-bath Markov chain for sizes beyond exact reach.  The
Boltzmann sampler adds no peeling path of its own: it draws the size from the
exact series at its fugacity and the map of that size from the exact sampler.

Every weight is an integer pair (u, v) standing for u + v sqrt7, v = 0 at
rational nu.  A choice is exact: a uniform variate is drawn lazily bit by bit
as a shrinking dyadic interval and compared against cumulative weights by
integer sign tests.  It depends only on the ratios of the weights, so each
caller scales its weights by one positive constant: the exact sampler reads
the word table's integer peeling terms, before the root-edge factor and
scale d^n (nu = m / d), the Boltzmann sampler weighs sizes by integer
states, and the Markov chain weighs spins and flips by integer powers of m
and d.  Every sample records its seed; replicas derive independent streams
by hashing.  The chain reads a uniform index below N as CPython 3.11's
randrange(N) does, N.bit_length() bits from getrandbits drawn again while
>= N: this rule, like the bit-by-bit choice, is part of what a seed fixes.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import accumulate

from . import partition, sha256
from .exactnum import (Pair, Scalar, _integer_weight, as_scalar, integer_pairs, pair_mul,
                       pair_scalar, sign_sqrt7)
from .maps import CombMap, normalize_word, spins_to_word, word_to_spins

RNG_ALGORITHM = "python-mt19937/sha256-derived-streams"


class CoefficientsMissing(ValueError):
    pass


def derive_seed(seed: int, stream: int | str) -> int:
    digest = sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# exact weighted choice via lazily refined dyadic uniform
# ---------------------------------------------------------------------------

def pick_weighted(weights: list[Pair], rng: random.Random) -> int:
    """Index i with probability w_i / sum(w), exactly, for weights w_i given
    as integer pairs (u, v) standing for u + v sqrt7.

    A uniform variate on [0, total) is represented as the dyadic interval
    [lo, lo+1)/2^k * total and refined one random bit at a time until it fits
    inside a single cumulative segment.  Every comparison is the sign of an
    integer pair, read directly when its sqrt7 part is 0.  Scaling every
    weight by one positive constant changes no comparison, so it changes
    neither the result nor the random bits read.
    """
    cum: list[Pair] = []
    tot_u = tot_v = 0
    for u, v in weights:
        if u < 0 if not v else sign_sqrt7(u, v) < 0:
            raise ValueError("negative weight")
        tot_u += u
        tot_v += v
        cum.append((tot_u, tot_v))
    if tot_u <= 0 if not tot_v else sign_sqrt7(tot_u, tot_v) <= 0:
        raise ValueError("all weights vanish")
    lo = k = 0
    while True:
        lo_u, lo_v = lo * tot_u, lo * tot_v
        # first segment whose upper cumulative strictly exceeds lo * total; a
        # counter, not enumerate, as unpacking its nested pairs slows every pick
        i = 0
        for cu, cv in cum:
            du = (cu << k) - lo_u
            dv = (cv << k) - lo_v
            if du > 0 if not dv else sign_sqrt7(du, dv) > 0:
                du -= tot_u
                dv -= tot_v
                if du >= 0 if not dv else sign_sqrt7(du, dv) >= 0:
                    return i
                break
            i += 1
        lo = (lo << 1) | rng.getrandbits(1)
        k += 1


def bernoulli(num: Pair, den: Pair, rng: random.Random) -> bool:
    """True with exact probability min(1, num / den), for pairs num, den > 0."""
    du, dv = den[0] - num[0], den[1] - num[1]
    if du <= 0 if not dv else sign_sqrt7(du, dv) <= 0:
        return True
    return pick_weighted([num, (du, dv)], rng) == 0


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
    cyc = inner.root_face_cycle()       # [rbar, y1 .. yp], tail(y_j) = w_{p+1-j}
    rbar, ys = cyc[0], cyc[1:]
    if not ys:
        raise ValueError("inner word must have length >= 2")
    n = len(inner.alpha)
    d1, d2 = n, n + 1                   # new root edge darts: d1 at w_p, d2 at w_1
    alpha = inner.alpha + [d2, d1]
    sigma = inner.sigma + [0, 0]
    spin = inner.spin + [inner.spin[ys[0]], inner.spin[ys[-1]]]
    # the internal triangle, and the new root face (the loop [d2] when p = 1)
    _set_faces(alpha, sigma, ([d1, ys[-1], rbar], [d2] + ys[:-1]))
    return _Piece(alpha, sigma, d1, spin)


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
    n = len(alpha)
    d1, d2 = n, n + 1
    alpha += [d2, d1]
    sigma += [0, 0]
    w1_spin = left.spin[rbar1]
    wp_spin = spin[ss[0]] if ss else spin[rbar2]
    spin += [wp_spin, w1_spin]
    # the triangle, and the new root face
    _set_faces(alpha, sigma, ([d1, rbar1, rbar2], [d2] + ss + us))
    return _Piece(alpha, sigma, d1, spin)


def _set_faces(alpha: list[int], sigma: list[int], faces) -> None:
    """Rewire sigma so that each given dart cycle is a face (a phi-cycle)."""
    for face in faces:
        for u, v in zip(face, face[1:] + face[:1]):
            sigma[alpha[u]] = v


def _finish(piece: _Piece, p: int) -> _Piece:
    """`piece`, once its darts are checked to make a triangulation of the p-gon."""
    CombMap(piece.alpha, piece.sigma, piece.root).validate("pgon", p)
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
# exact sampler
# ---------------------------------------------------------------------------

class ExactSamplerContext:
    """Coefficient tables for size-conditioned exact sampling at one nu.

    Every weight is an integer pair (u, v) standing for u + v sqrt7.  The
    case weights are the word table's integer peeling terms of the state
    c(word, n) = d^n [t^n] Z_word (nu = m / d), read before the root-edge
    factor: they differ from the case probabilities times [t^n] Z_word by
    one positive constant per (word, n), and the choice is scale-invariant.
    Each (word, n) is tabulated once, when it is first drawn from, after
    checking that its terms sum to the state.
    """

    def __init__(self, nu: Scalar, max_edges: int):
        self.nu = as_scalar(nu)
        self.order = max_edges
        self.words = partition.WordTable(self.nu, self.order)
        self._cases: dict[tuple[str, int], tuple[list[tuple], list[Pair]]] = {}

    def case_weights(self, word: str, n: int) -> tuple[list[tuple], list[Pair]]:
        """The nonzero terms (case, ((child, size), ...), (u, v)) of c(word, n),
        and their weights, the pairs (u, v).

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
            entry = self._cases[word, n] = (terms, [c for *_, c in terms])
        return entry


def _sample_gon_exact(ctx: ExactSamplerContext, word: str, n: int,
                      rng: random.Random) -> _Piece:
    if ctx.words.state(word, n) == (0, 0):
        raise CoefficientsMissing(f"[t^{n}] Z_{word} = 0")
    piece = _draw_piece(ctx, word, n, rng)
    if piece.word() != normalize_word(word):
        raise AssertionError("reconstructed boundary word mismatch")
    return piece


def _draw_piece(ctx: ExactSamplerContext, word: str, n: int, rng: random.Random) -> _Piece:
    """A p-gon of size n with boundary `word`: its peeling case, then its
    children's pieces in order (so the draws read the RNG in pre-order),
    glued by the inverse peeling step and checked as a p-gon."""
    terms, weights = ctx.case_weights(word, n)
    case, children, _ = terms[pick_weighted(weights, rng)]
    kids = [_draw_piece(ctx, cw, cn, rng) for cw, cn in children]
    if case[0] == "edge":
        return _edge_piece(*word_to_spins(word))
    glue = _attach_new_vertex if case[0] == "insert" else _attach_split
    return _finish(glue(*kids), len(word))


def exact_sample(nu: Scalar, n: int, seed: int,
                 ctx: ExactSamplerContext | None = None) -> CombMap:
    """A spin-decorated sphere triangulation with 3n edges, exactly from the
    size-n Gibbs law: the root edge is classified loop/non-loop through the
    sphere relation, the corresponding gon is sampled by recursive peeling
    with coefficient weights, and the boundary is sewn back up.

    The three root classes are weighed by `ctx.words.sphere_classes(3n + 1)`:
    at s = 3n + 1, the sphere relation's weights times m d^s = nu d^(s+1).
    """
    if n < 1:
        raise ValueError("a sphere triangulation has 3n >= 3 edges")
    nu = as_scalar(nu)
    size = 3 * n + 1
    if ctx is None:
        ctx = ExactSamplerContext(nu, size)
    if ctx.nu != nu:
        raise ValueError("the sampler context was built at another nu")
    if ctx.order < size:
        raise CoefficientsMissing("context solved to insufficient order")
    rng = random.Random(derive_seed(seed, "exact"))
    weights, split_sizes, split_weights = ctx.words.sphere_classes(size)
    case = pick_weighted(weights, rng)
    if case < 2:
        result = _close_2gon(_sample_gon_exact(ctx, ("++", "+-")[case], size, rng))
    else:
        k1 = split_sizes[pick_weighted(split_weights, rng)]
        result = _close_loop_pair(_sample_gon_exact(ctx, "+", k1, rng),
                                  _sample_gon_exact(ctx, "+", size - k1, rng))
    if pick_weighted([(1, 0), (1, 0)], rng) == 1:
        result = result.flipped_spins()
    result.validate("sphere")
    if result.n_edges != 3 * n:
        raise AssertionError("sampled map has wrong size")
    return result


# ---------------------------------------------------------------------------
# Boltzmann sampler
# ---------------------------------------------------------------------------

class BoltzmannContext(ExactSamplerContext):
    """The Boltzmann law at an exact fugacity t > 0, truncated at the series
    order: a map with boundary word w and n <= order edges has probability
    nu^mono t^n / value(w).

    The size n is drawn with weight [t^n] Z_w t^n (`size_weights`), and the
    map of that size from the size-n Gibbs law by the exact sampler's peeling
    weights (Duchon-Flajolet-Louchard-Schaeffer), so every probability is
    exact.  Sizes past the order are left out.  With t = tp / tden and
    nu = m / d, the size weights are integer pairs, all scaled by the one
    constant (d tden)^order, which `value` divides out.
    """

    def __init__(self, nu: Scalar, t: Scalar, series_order: int = 30):
        self.t = as_scalar(t)
        if not self.t > 0:
            raise ValueError("the fugacity t must be positive")
        super().__init__(nu, series_order)
        (self._tp,), tden = integer_pairs([self.t])
        self._step = _integer_weight(self.nu)[1] * tden
        self._sizes: dict[str, list[Pair]] = {}

    def size_weights(self, word: str) -> list[Pair]:
        """[t^n] Z_word t^n (d tden)^order for n = 0..order, tabulated once per
        word: the state d^n [t^n] Z_word times tp^n (d tden)^(order - n)."""
        weights = self._sizes.get(word)
        if weights is None:
            state, order = self.words.state, self.order
            weights, tp_n = [], (1, 0)
            for n in range(order + 1):
                u, v = pair_mul(state(word, n), tp_n)
                scale = self._step ** (order - n)
                weights.append((u * scale, v * scale))
                tp_n = pair_mul(tp_n, self._tp)
            self._sizes[word] = weights
        return weights

    def value(self, word: str) -> Scalar:
        """Z_word(t) truncated at the order, exactly."""
        weights = self.size_weights(word)
        total = (sum(u for u, _ in weights), sum(v for _, v in weights))
        return pair_scalar(total, self._step ** self.order)


def boltzmann_sample(omega: str, nu: Scalar, ctx: BoltzmannContext, seed: int) -> CombMap:
    """A Boltzmann triangulation with boundary word omega at the context's
    fugacity: the size from `ctx.size_weights(omega)`, then the shape by
    exact recursive peeling at that size."""
    if ctx.nu != as_scalar(nu):
        raise ValueError("the sampler context was built at another nu")
    rng = random.Random(derive_seed(seed, "boltzmann"))
    n = pick_weighted(ctx.size_weights(omega), rng)
    m = _sample_gon_exact(ctx, omega, n, rng).to_map()
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


def mcmc_sample(nu: Scalar, n: int, steps: int, seed: int,
                validate_every: int = 10_000,
                collector=None) -> CombMap:
    """Heat-bath spins + edge flips + uniform re-rooting targeting the
    size-3n Gibbs law; detailed balance holds move by move (the re-rooting
    proposal is symmetric on rooted maps and the law only depends on the
    unrooted content, so it mixes rootings without changing the target).
    Moves cost time in proportion to the degrees they touch; the map and the
    maintained counts are fully checked every `validate_every` steps and at
    the end.  With nu = m / den, a heat-bath move weighs the two spins of a
    vertex nu^k+ : nu^k- as m^D : den^D, D = |k+ - k-|, in this order when
    k+ >= k-, and a flip is accepted with probability min(1, nu^delta)."""
    if n < 1:
        raise ValueError("a sphere triangulation has 3n >= 3 edges")
    m, d = _integer_weight(as_scalar(nu))
    den = (d, 0)
    powers = [((1, 0), (1, 0)), (m, den)]       # (m^D, den^D), grown on demand
    rng = random.Random(derive_seed(seed, "mcmc"))
    getrandbits = rng.getrandbits
    alpha, sigma = _fan_triangulation(n)
    state = McmcState(alpha, sigma, 0, [1] * len(alpha), 0, [])
    state.mono, state.vmins = state.recompute_mono(), state.recompute_vmins()
    spin, vmins = state.spin, state.vmins
    # index bounds: flips that change V are refused, so V = n + 2 stays fixed
    nv, nd = len(vmins), len(alpha)
    kv, kd = nv.bit_length(), nd.bit_length()

    for step in range(steps):
        i = getrandbits(kv)
        while i >= nv:
            i = getrandbits(kv)
        start = vmins[i]        # heat bath at vertex i
        cyc = [start]           # the vertex's darts, from its least one
        e = sigma[start]
        while e != start:
            cyc.append(e)
            e = sigma[e]
        darts = set(cyc)
        # spins across the edges to other vertices: loops stay monochromatic
        nbrs = [spin[alpha[e]] for e in cyc if alpha[e] not in darts]
        k_plus = nbrs.count(1)
        k_minus = len(nbrs) - k_plus
        D = abs(k_plus - k_minus)
        while len(powers) <= D:
            powers.append(tuple(map(pair_mul, powers[-1], powers[1])))
        weights = powers[D] if k_plus >= k_minus else powers[D][::-1]
        new_spin = 1 if pick_weighted(weights, rng) == 0 else -1
        if new_spin != spin[start]:
            state.mono += (k_plus - k_minus) * new_spin
            for e in cyc:
                spin[e] = new_spin

        g = getrandbits(kd)
        while g >= nd:
            g = getrandbits(kd)
        gb = alpha[g]           # flip proposed at the edge of dart g
        x1 = sigma[gb]
        x2 = sigma[alpha[x1]]
        if sigma[alpha[x2]] != g:
            raise AssertionError("face of degree != 3")
        # gb in the face (g x1 x2): both sides of the edge bound that one
        # face, and the edge cannot be flipped
        if gb not in (x1, x2):
            y1 = sigma[g]
            y2 = sigma[alpha[y1]]
            # g runs a -> b, from the tail of y1 to that of x1; after the flip
            # it runs c -> d, from the tail of x2 to that of y2
            delta = (spin[x2] == spin[y2]) - (spin[y1] == spin[x1])
            if not delta or (bernoulli(m, den, rng) if delta > 0 else bernoulli(den, m, rng)):
                changed = _flip_edge(alpha, sigma, (g, x1, x2, gb, y1, y2))
                if changed is not None:
                    spin[g], spin[gb] = spin[x2], spin[y2]
                    state.mono += delta
                    before, after = changed
                    for e in before - after:
                        del vmins[bisect_left(vmins, e)]
                    for e in after - before:
                        insort(vmins, e)

        g = getrandbits(kd)
        while g >= nd:
            g = getrandbits(kd)
        state.root = g          # re-rooted at dart g
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
    vo, alpha = m.vertex_of(), m.alpha
    adj: list[list[int]] = [[] for _ in range(max(vo) + 1)]
    for d, u in enumerate(vo):
        adj[u].append(vo[alpha[d]])
    root = vo[m.root]
    dist = [-1] * len(adj)
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
    """|B_R| for R = 1..r_max: faces with a vertex at distance < R.  A vertex
    the root does not reach has distance -1 and lies in every ball."""
    vo = m.vertex_of()
    dist = vertex_distances(m)
    near = [0] * r_max      # faces by their nearest vertex's distance, -1 as 0
    for cyc in m.faces():
        r = min([dist[vo[d]] for d in cyc])
        if r < r_max:
            near[max(r, 0)] += 1
    return list(accumulate(near))


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
    face_id = [0] * m.n_darts
    in_ball = []
    for i, cyc in enumerate(faces):
        inside = False
        for d in cyc:
            face_id[d] = i
            inside = inside or vo[d] == root_v
        in_ball.append(inside)
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
