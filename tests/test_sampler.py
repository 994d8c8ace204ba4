import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isingtri import partition
from isingtri.acceptance import gibbs_law
from isingtri.criticality import critical_point
from isingtri.exactnum import NU_C, QuadExt, integer_pairs, pair_mul, sign_sqrt7
from isingtri.maps import enumerate_maps
from isingtri.maps.combmap import CombMap, InvalidMap
from isingtri.partition import WordTable
from isingtri.sampler import (
    BoltzmannContext,
    ExactSamplerContext,
    McmcState,
    _attach_new_vertex,
    _attach_split,
    _edge_piece,
    _fan_triangulation,
    _flip_edge,
    _vertex_mins,
    boltzmann_sample,
    collect_stats,
    ball_face_counts,
    exact_sample,
    hull_perimeter_radius1,
    mcmc_sample,
    pick_weighted,
    root_degree,
    vertex_distances,
)

NU = Fraction(2)


def test_pick_weighted_exact_frequencies():
    rng = random.Random(11)
    w, _ = integer_pairs([Fraction(3), Fraction(0), Fraction(1)])
    counts = [0, 0, 0]
    n = 20000
    for _ in range(n):
        counts[pick_weighted(w, rng)] += 1
    assert counts[1] == 0
    assert abs(counts[0] / n - 0.75) < 0.02


def test_pick_weighted_quadratic_field_weights():
    rng = random.Random(12)
    w, _ = integer_pairs([NU_C, QuadExt(3, Fraction(-1, 7))])      # total = 4
    counts = [0, 0]
    n = 20000
    for _ in range(n):
        counts[pick_weighted(w, rng)] += 1
    expected = float((1 + 1 / 7 * 7 ** 0.5) / 4)
    assert abs(counts[0] / n - expected) < 0.02


def reference_pick_weighted(weights, rng):
    """`pick_weighted` in the weights' own exact arithmetic, for any scalars."""
    cum, acc = [], 0
    for w in weights:
        acc = acc + w
        cum.append(acc)
    lo = k = 0
    while True:
        for i, c in enumerate(cum):
            if (1 << k) * c > lo * acc:
                if (lo + 1) * acc <= (1 << k) * c:
                    return i
                break
        lo = (lo << 1) | rng.getrandbits(1)
        k += 1


_exact_weights = st.one_of(
    st.integers(0, 50),
    st.fractions(min_value=0, max_value=50, max_denominator=60),
    st.builds(lambda a, b: QuadExt(a, b) if QuadExt(a, b) >= 0 else QuadExt(-a, -b),
              st.fractions(-20, 20, max_denominator=30),
              st.fractions(-20, 20, max_denominator=30)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(weights=st.lists(_exact_weights, min_size=1, max_size=6), seed=st.integers(0, 2**32))
def test_pick_weighted_matches_reference_bit_for_bit(weights, seed):
    if not sum(weights) > 0:
        return
    rng, ref_rng = random.Random(seed), random.Random(seed)
    pairs, _ = integer_pairs(weights)
    for _ in range(3):
        assert pick_weighted(pairs, rng) == reference_pick_weighted(weights, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


_positive_pairs = st.builds(lambda a, b: (a, b) if sign_sqrt7(a, b) > 0 else (-a, -b),
                            st.integers(-40, 40), st.integers(-15, 15)).filter(lambda p: p != (0, 0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(weights=st.lists(_exact_weights, min_size=1, max_size=6), scale=_positive_pairs,
       seed=st.integers(0, 2**32))
def test_pick_weighted_ignores_a_common_positive_scale(weights, scale, seed):
    # every caller scales its weights by one positive constant of Z[sqrt7]
    if not sum(weights) > 0:
        return
    pairs, _ = integer_pairs(weights)
    scaled = [pair_mul(scale, w) for w in pairs]
    rng, scaled_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert pick_weighted(pairs, rng) == pick_weighted(scaled, scaled_rng)
        assert rng.getstate() == scaled_rng.getstate()


def test_pick_weighted_rejects_negative_and_vanishing_weights():
    rng = random.Random(1)
    with pytest.raises(ValueError, match="negative weight"):
        pick_weighted([(3, 0), (1, -1)], rng)          # 1 - sqrt7 < 0
    with pytest.raises(ValueError, match="negative weight"):
        pick_weighted([(-1, 0), (2, 0)], rng)
    with pytest.raises(ValueError, match="all weights vanish"):
        pick_weighted([(0, 0), (0, 0)], rng)


def reference_case_weights(words, word, n):
    """The exact sampler's case weights in Fractions, with their own case list.

    The bare edge (2-gons at size 1), then a new vertex of spin + and of
    spin -, then the third vertex at boundary corner i = 1..p, listed once
    per size n1 of the first piece; each weighs nu^[w_1 = w_p] times the
    coefficients of its pieces, and cases of weight zero are left out.
    """
    nu = words.nu
    mono = nu if word[0] == word[-1] else Fraction(1)

    def coeff(w, k):
        return words.series(w).coeff(k)

    out = []
    if len(word) == 2 and n == 1:
        out.append((("edge",), (), mono))
    for c in "+-":
        w = coeff(c + word, n - 1) if n >= 1 else 0
        if w:
            out.append((("insert", c), ((c + word, n - 1),), mono * w))
    for i in range(1, len(word) + 1):
        left, right = word[:i], word[i - 1:]
        for n1 in range(n):
            w = coeff(left, n1) * coeff(right, n - 1 - n1)
            if w:
                out.append((("split", i), ((left, n1), (right, n - 1 - n1)), mono * w))
    return out


@pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(3, 2), Fraction(2), NU_C],
                         ids=["1/2", "3/2", "2", "nu_c"])
def test_case_weights_proportional_to_reference(nu):
    order = 10
    ctx = ExactSamplerContext(nu, order)
    for p in range(1, 5):
        for bits in itertools.product("+-", repeat=p):
            word = "".join(bits)
            for n in range(order + 1):
                ref = reference_case_weights(ctx.words, word, n)
                terms, weights = ctx.case_weights(word, n)
                assert [t[:2] for t in terms] == [r[:2] for r in ref]
                assert weights == [c for *_, c in terms]
                if not ref:
                    continue
                scalars = [QuadExt(u, v) for u, v in weights]
                scale = ref[0][2] / scalars[0]
                assert scale > 0
                assert all(r[2] == scale * w for r, w in zip(ref, scalars))


def test_builder_pieces():
    edge = _edge_piece(1, 1)
    assert edge.word() == "++"
    grown = _attach_new_vertex(_edge_piece(-1, 1))   # word "-+" -> "+"
    assert grown.word() == "+"
    left = _edge_piece(1, 1)
    right = _edge_piece(1, -1)
    glued = _attach_split(left, right)               # "++" and "+-" -> "++-"
    assert glued.word() == "++-"
    glued.to_map().validate("pgon", 3)


def test_each_glued_piece_is_checked_against_its_word(monkeypatch):
    # a glue step that drops the new root edge leaves a (p + 1)-gon behind
    from isingtri import sampler

    monkeypatch.setattr(sampler, "_attach_new_vertex", lambda inner: inner)
    ctx = ExactSamplerContext(NU, 10)
    with pytest.raises(InvalidMap, match="root face has degree"):
        for seed in range(20):
            exact_sample(NU, 3, seed=seed, ctx=ctx)


def test_exact_sample_deterministic():
    ctx = ExactSamplerContext(NU, 4)
    a = exact_sample(NU, 1, seed=123, ctx=ctx)
    b = exact_sample(NU, 1, seed=123, ctx=ctx)
    assert a == b
    # one seed may repeat another's map, but not twenty seeds all the same one
    keys = {exact_sample(NU, 1, seed=124 + i, ctx=ctx).canonical_key() for i in range(20)}
    assert len(keys) > 1


def test_exact_sample_sizes_and_validity():
    for n in (1, 2):
        ctx = ExactSamplerContext(NU, 3 * n + 1)
        for i in range(20):
            m = exact_sample(NU, n, seed=500 + i, ctx=ctx)
            assert m.n_edges == 3 * n
            m.validate("sphere")


def test_exact_sample_matches_gibbs_law_tv():
    law = gibbs_law(NU, 1)
    ctx = ExactSamplerContext(NU, 4)
    counts = Counter()
    reps = 3000
    for i in range(reps):
        counts[exact_sample(NU, 1, seed=9000 + i, ctx=ctx).canonical_key()] += 1
    assert sum(v for k, v in counts.items() if k not in law) == 0
    tv = sum(abs(counts.get(k, 0) / reps - float(p)) for k, p in law.items()) / 2
    assert tv < 0.05


def test_exact_sample_nu_one_spin_marginal():
    # at weight 1 the spins are product-uniform
    ctx = ExactSamplerContext(Fraction(1), 4)
    plus = total = 0
    for i in range(400):
        m = exact_sample(Fraction(1), 1, seed=31_000 + i, ctx=ctx)
        plus += sum(1 for s in m.spins if s == 1)
        total += len(m.spins)
    assert abs(plus / total - 0.5) < 0.05


def test_gibbs_law_flip_invariance():
    law = gibbs_law(NU, 1)
    for key, p in law.items():
        alpha, sigma, spins = key
        m = CombMap(alpha, sigma, 0)
        vo = m.vertex_of()
        vspin = [0] * (max(vo) + 1)
        for d, v in enumerate(vo):
            vspin[v] = spins[d]
        flipped = CombMap(alpha, sigma, 0, tuple(-s for s in vspin))
        assert law[flipped.canonical_key()] == p


@pytest.mark.parametrize("sample", [
    lambda n: exact_sample(NU, n, seed=1),
    lambda n: mcmc_sample(NU, n, 10, seed=1),
], ids=["exact", "mcmc"])
def test_samplers_reject_empty_sizes(sample):
    for n in (0, -1):
        with pytest.raises(ValueError):
            sample(n)


@pytest.mark.parametrize("nu", [Fraction(0), Fraction(-1), 1 - NU_C])
def test_mcmc_rejects_nonpositive_nu(nu):
    # nu = 0 would run a chain on a degenerate law, and nu < 0 fail inside pick_weighted
    with pytest.raises(ValueError, match="nu must be positive"):
        mcmc_sample(nu, 2, 10, seed=1)


def test_exact_sample_rejects_a_context_at_another_nu():
    ctx = ExactSamplerContext(NU, 4)
    with pytest.raises(ValueError):
        exact_sample(Fraction(3), 1, seed=1, ctx=ctx)


def test_fan_construction():
    for n in (1, 2, 3, 5):
        alpha, sigma = _fan_triangulation(n)
        m = CombMap(tuple(alpha), tuple(sigma), 0)
        m.validate("sphere")
        assert m.n_edges == 3 * n


def test_mcmc_preserves_structure_and_bookkeeping(monkeypatch):
    from isingtri import sampler

    calls = []
    validate = CombMap.validate

    def counting(self, *args, **kwargs):
        calls.append(self.n_edges)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(CombMap, "validate", counting)
    monkeypatch.setattr(sampler, "VALIDATE_EVERY", 500)
    final = mcmc_sample(NU, 2, 3000, seed=42)
    assert len(calls) == 8          # the start map, six periodic checks, the returned map
    final.validate("sphere")
    assert final.n_edges == 6


def _least_darts(sigma):
    """The least dart of each sigma-cycle, in increasing order."""
    seen = set()
    out = []
    for d in range(len(sigma)):
        if d not in seen:
            out.append(d)
            while d not in seen:
                seen.add(d)
                d = sigma[d]
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32), steps=st.integers(0, 300),
       pick=st.integers(0, 10**6))
def test_local_flip_test_matches_full_validation(n, seed, steps, pick):
    # the chain's vertex index is a fresh least-dart walk after every step
    last = {}

    def collector(state):
        assert state.vmins == _least_darts(state.sigma)
        last["state"] = state

    mcmc_sample(NU, n, steps, seed=seed, collector=collector)
    if steps:
        alpha, sigma = last["state"].alpha, list(last["state"].sigma)
    else:
        alpha, sigma = _fan_triangulation(n)

    def phi(d):
        return sigma[alpha[d]]

    g = pick % len(alpha)
    gb = alpha[g]
    darts = (g, phi(g), phi(phi(g)), gb, phi(gb), phi(phi(gb)))
    if set(darts[:3]) == set(darts[3:]):
        return
    _, x1, x2, _, y1, y2 = darts
    rewired = list(sigma)
    for face in ((g, y2, x1), (gb, x2, y1)):
        for u, v in zip(face, face[1:] + face[:1]):
            rewired[alpha[u]] = v
    try:
        CombMap(tuple(alpha), tuple(rewired), 0).validate("sphere")
        valid = True
    except InvalidMap:
        valid = False

    work = list(sigma)
    changed = _flip_edge(alpha, work, darts)
    assert (changed is not None) == valid
    if changed is None:
        assert work == sigma
    else:
        assert work == rewired
        before, after = changed
        vmins = set(_least_darts(sigma))
        assert before <= vmins
        assert sorted((vmins - before) | after) == _least_darts(rewired)


def test_local_vertex_count_sees_a_split_cycle():
    joined = [1, 2, 3, 0]           # one vertex (0 1 2 3)
    split = [1, 0, 3, 2]            # two vertices (0 1) and (2 3)
    assert _vertex_mins(joined, (0, 2)) == {0}
    assert _vertex_mins(split, (0, 2)) == {0, 2}
    # on the double triangle, faces (0 2 4) and (1 5 3), the triple (1 3 5)
    # runs the wrong way round: rewiring it as a face splits a vertex, so the
    # flip is refused and sigma is restored
    alpha, sigma = _fan_triangulation(1)
    work = list(sigma)
    assert _flip_edge(alpha, work, (0, 2, 4, 1, 3, 5)) is None
    assert work == sigma


def test_mcmc_validates_the_map_only_at_build_and_end(monkeypatch):
    calls = []
    validate = CombMap.validate

    def counting(self, *args, **kwargs):
        calls.append(self.n_edges)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(CombMap, "validate", counting)
    mcmc_sample(NU, 8, 500, seed=1)
    assert calls == [24, 24]        # the start map and the returned map


def test_mcmc_spin_marginal_at_nu_one():
    counts = {"plus": 0, "total": 0}

    def collector(state):
        counts["plus"] += sum(1 for s in state.spin if s == 1)
        counts["total"] += len(state.spin)

    mcmc_sample(Fraction(1), 1, 4000, seed=7, collector=collector)
    assert abs(counts["plus"] / counts["total"] - 0.5) < 0.05


def test_mcmc_tv_convergence_small():
    law = gibbs_law(NU, 1)
    counts = Counter()
    state_count = {"i": 0}

    def collector(state):
        state_count["i"] += 1
        if state_count["i"] > 2000:
            counts[state.to_map().canonical_key()] += 1

    mcmc_sample(NU, 1, 22_000, seed=2024, collector=collector)
    n = sum(counts.values())
    tv = sum(abs(counts.get(k, 0) / n - float(p)) for k, p in law.items()) / 2
    assert tv < 0.06


@pytest.mark.parametrize("nu, digest", [
    (Fraction(2), "7e3992067985521b"),
    (Fraction(1, 3), "db60761fe7f2254a"),
    (NU_C, "6f815d22eb399460"),
], ids=["2", "1/3", "nu_c"])
def test_mcmc_trajectory_is_pinned_step_by_step(nu, digest):
    # every state the collector sees: the maintained counts, the root and, as
    # criterion 10's collector reads them, the rotations and the spins
    h = hashlib.sha256()

    def collector(state):
        key = (state.mono, state.root, len(state.vmins), state.sigma, state.spin)
        h.update(repr(key).encode())

    mcmc_sample(nu, 3, 500, seed=0, collector=collector)
    assert h.hexdigest()[:16] == digest


def test_boltzmann_small_fugacity_terminates_at_edge():
    # far below the radius the 2-gon collapses to the bare edge almost surely
    ctx = BoltzmannContext(NU, Fraction(1, 100), series_order=15)
    m = boltzmann_sample("++", NU, ctx, seed=5)
    assert m.n_edges >= 1
    edge_hits = 0
    for i in range(50):
        m = boltzmann_sample("++", NU, ctx, seed=100 + i)
        if m.n_edges == 1:
            edge_hits += 1
    assert edge_hits >= 45


def test_boltzmann_case1_probability():
    # termination probability of the 2-gon equals nu t / Z_++(t)
    t = Fraction(1, 20)
    ctx = BoltzmannContext(NU, t, series_order=21)
    z = ctx.value("++")
    p_edge = float(NU * t / z)
    hits = 0
    reps = 1500
    for i in range(reps):
        if boltzmann_sample("++", NU, ctx, seed=40_000 + i).n_edges == 1:
            hits += 1
    se = math.sqrt(p_edge * (1 - p_edge) / reps)
    assert abs(hits / reps - p_edge) < 4 * se + 0.01


def test_boltzmann_mean_size_identity():
    # E|T| = sum k c_k t^k / sum c_k t^k within 3 standard errors
    t = Fraction(1, 18)
    order = 24
    ctx = BoltzmannContext(NU, t, series_order=order)
    series = WordTable(NU, order).series("++")
    num = sum(k * float(c) * float(t) ** k for k, c in series.coeffs.items())
    den = sum(float(c) * float(t) ** k for k, c in series.coeffs.items())
    mean_expected = num / den
    sizes = []
    for i in range(800):
        sizes.append(boltzmann_sample("++", NU, ctx, seed=60_000 + i).n_edges)
    mean = sum(sizes) / len(sizes)
    var = sum((s - mean) ** 2 for s in sizes) / (len(sizes) - 1)
    se = math.sqrt(var / len(sizes))
    assert abs(mean - mean_expected) <= 3 * se + 0.02


def test_boltzmann_sample_matches_enumerated_law_tv():
    # the law nu^mono t^E over every 2-gon with boundary ++ and E <= 7 edges,
    # by enumeration and a sweep over the spins
    t, order = Fraction(1, 6), 7
    law, total = {}, Fraction(0)
    for edges in range(1, order + 1):
        for m in enumerate_maps(edges, "pgon", 2):
            for bits in itertools.product((1, -1), repeat=m.n_vertices()):
                mm = m.with_spins(bits)
                if mm.boundary_word() == "++":
                    w = NU ** mm.monochromatic_count() * t ** edges
                    key = mm.canonical_key()
                    law[key] = law.get(key, Fraction(0)) + w
                    total += w
    ctx = BoltzmannContext(NU, t, series_order=order)
    assert ctx.value("++") == total
    counts = Counter()
    reps = 3000
    for i in range(reps):
        counts[boltzmann_sample("++", NU, ctx, seed=80_000 + i).canonical_key()] += 1
    assert sum(v for k, v in counts.items() if k not in law) == 0
    tv = sum(abs(counts.get(k, 0) / reps - float(p / total)) for k, p in law.items()) / 2
    assert tv < 0.05


def test_boltzmann_context_checks_the_fugacity_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before checking t")

    monkeypatch.setattr(partition, "solve_dobrushin", no_solve)
    for t in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="fugacity"):
            BoltzmannContext(NU, t)


# the QuadExt arithmetic that the benchmark tracer counts as exactnum.quadext_ops
_QUADEXT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")


def test_sampler_context_creates_no_exact_scalar(monkeypatch):
    # the exact sampler reads integer states only: no layer or state becomes a scalar
    monkeypatch.setattr(partition, "pair_scalar", lambda *args: pytest.fail("exact scalar made"))
    ctx = ExactSamplerContext(NU_C, 10)
    for i in range(10):
        exact_sample(NU_C, 3, seed=i, ctx=ctx).validate("sphere")


def test_samplers_do_no_quadext_arithmetic_at_nu_c(monkeypatch):
    ctx = ExactSamplerContext(NU_C, 10)
    ops = [0]
    for name in _QUADEXT_OPS:
        def counted(*args, _f=getattr(QuadExt, name)):
            ops[0] += 1
            return _f(*args)
        monkeypatch.setattr(QuadExt, name, counted)
    mcmc_sample(NU_C, 3, 400, seed=9)
    assert ops[0] == 0
    for i in range(30):
        exact_sample(NU_C, 3, seed=i, ctx=ctx)
    assert ops[0] == 0


def test_boltzmann_validates_boundary():
    ctx = BoltzmannContext(NU, Fraction(1, 30), series_order=15)
    m = boltzmann_sample("+-+", NU, ctx, seed=77)
    m.validate("pgon", 3)
    assert m.boundary_word() == "+-+"


def test_stats_on_single_triangle():
    alpha, sigma = _fan_triangulation(1)
    m = CombMap(tuple(alpha), tuple(sigma), 0, (1, 1, -1))
    stats = collect_stats([m], r_max=3)
    assert stats.count == 1
    # every face touches the root vertex: ball of radius 1 is everything
    assert stats.ball_volumes[1] == [2]
    assert stats.hull_perimeter_1 == {0: 1}
    assert root_degree(m) == 2
    vols = ball_face_counts(m, 3)
    assert vols[0] <= vols[1] <= vols[2]


def test_ball_monotone_on_samples():
    ctx = ExactSamplerContext(NU, 7)
    maps = [exact_sample(NU, 2, seed=70_000 + i, ctx=ctx) for i in range(15)]
    stats = collect_stats(maps, r_max=4)
    for i in range(len(maps)):
        seq = [stats.ball_volumes[r][i] for r in range(1, 5)]
        assert all(a <= b for a, b in zip(seq, seq[1:]))


# the local statistics as first written, the reference for the one-pass ones

def reference_vertex_distances(m):
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


def reference_ball_face_counts(m, r_max):
    """|B_R| for R = 1..r_max: faces with a vertex at distance < R."""
    vo = m.vertex_of()
    dist = reference_vertex_distances(m)
    faces = m.faces()
    out = []
    for r in range(1, r_max + 1):
        count = 0
        for cyc in faces:
            if any(dist[vo[d]] < r for d in cyc):
                count += 1
        out.append(count)
    return out


def reference_hull_perimeter_radius1(m):
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


def test_local_statistics_match_the_reference_at_every_root():
    cases = [("sphere", None, n) for n in (3, 6, 9)] + [("pgon", 2, n) for n in (1, 4, 7)]
    seen = 0
    for kind, p, n in cases:
        for base in enumerate_maps(n, kind, p):
            for root in range(base.n_darts):
                m = CombMap(base.alpha, base.sigma, root)
                assert vertex_distances(m) == reference_vertex_distances(m)
                assert hull_perimeter_radius1(m) == reference_hull_perimeter_radius1(m)
                for r_max in (1, 4, 6):
                    assert ball_face_counts(m, r_max) == reference_ball_face_counts(m, r_max)
                seen += 1
    assert seen == 24 + 384 + 6048 + 2 + 24 + 336
    # two disjoint double triangles: the far one's vertices have distance -1,
    # and its faces count in every ball
    alpha, sigma = _fan_triangulation(1)
    twice = CombMap(alpha + [a + 6 for a in alpha], sigma + [g + 6 for g in sigma], 0)
    assert vertex_distances(twice) == reference_vertex_distances(twice) == [0, 1, 1, -1, -1, -1]
    assert ball_face_counts(twice, 3) == reference_ball_face_counts(twice, 3) == [4, 4, 4]


def test_case_weight_check_runs_when_an_entry_is_filled(monkeypatch):
    ctx = ExactSamplerContext(NU, 7)
    for word in ("++", "+-"):
        ctx.words.state(word, 7)            # memoise the states before perturbing
    for k in range(8):
        ctx.words.state("+", k)
    terms = WordTable.terms

    def perturbed(self, word, n):
        out = list(terms(self, word, n))
        if out:
            case, children, (u, v) = out[0]
            out[0] = (case, children, (u + 1, v))
        return iter(out)

    monkeypatch.setattr(WordTable, "terms", perturbed)
    with pytest.raises(AssertionError, match="do not sum"):
        exact_sample(NU, 2, seed=1, ctx=ctx)


def test_exact_draws_tabulate_each_case_list_once(monkeypatch):
    ctx = ExactSamplerContext(NU, 10)
    drawn, calls = set(), []
    case_weights, terms = ExactSamplerContext.case_weights, WordTable.terms

    def recording(self, word, n):
        drawn.add((word, n))
        return case_weights(self, word, n)

    def counting(self, word, n):
        calls.append((word, n))
        return terms(self, word, n)

    monkeypatch.setattr(ExactSamplerContext, "case_weights", recording)
    monkeypatch.setattr(WordTable, "terms", counting)
    first = exact_sample(NU, 3, seed=5, ctx=ctx)
    seen = set(drawn)
    del calls[:]
    assert exact_sample(NU, 3, seed=5, ctx=ctx) == first
    assert calls == []
    for seed in range(6, 12):
        exact_sample(NU, 3, seed=seed, ctx=ctx)
    assert drawn > seen
    assert not seen & set(calls)
