import ast
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isingtri.exactnum import NU_C, QuadExt
from isingtri.maps import (
    CapExceeded,
    CombMap,
    InvalidMap,
    count_maps,
    enumerate_maps,
    flip_word,
    min_degree,
    oracle,
    oracle_Q,
    oracle_series,
    oracle_sphere,
    spins_to_word,
)


def test_empty_small_spheres():
    assert list(enumerate_maps(1, "sphere")) == []
    assert list(enumerate_maps(2, "sphere")) == []


def test_single_edge_two_gon():
    maps = list(enumerate_maps(1, "pgon", 2))
    assert len(maps) == 1
    m = maps[0]
    assert m.n_edges == 1 and m.n_vertices() == 2


def test_minimal_one_gon():
    maps = list(enumerate_maps(2, "pgon", 1))
    assert len(maps) == 1
    m = maps[0]
    assert m.n_vertices() == 2 and len(m.root_face()) == 1


def test_sphere_counts_match_known_sequence():
    # rooted type-I triangulations with 2n faces: 4, 32, 336 (classical counts)
    assert count_maps("sphere", 0, 3) == 4
    assert count_maps("sphere", 0, 6) == 32
    assert count_maps("sphere", 0, 9) == 336


def test_no_duplicates_and_deterministic():
    runs = []
    for _ in range(2):
        maps = list(enumerate_maps(6, "pgon", 3))
        keys = [m.canonical_key() for m in maps]
        assert len(keys) == len(set(keys))
        runs.append(keys)
    assert runs[0] == runs[1]


def test_every_emitted_map_validates():
    for kind, p, n in (("sphere", None, 6), ("pgon", 3, 6), ("nonsimple", 2, 4)):
        for m in enumerate_maps(n, kind, p):
            m.validate(kind if kind != "sphere" else "sphere", p)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        list(enumerate_maps(10, "sphere"))
    with pytest.raises(CapExceeded):
        oracle_series("+", Fraction(1), 12)


def test_validators_reject_broken_maps():
    # genus 1: one vertex, two edges, one face (the torus rotation)
    torus = CombMap((1, 0, 3, 2), (2, 3, 1, 0), 0)
    with pytest.raises(InvalidMap):
        torus.validate("sphere")
    # alpha with a fixed point
    with pytest.raises(InvalidMap):
        CombMap((0, 1), (0, 1), 0).validate("sphere")


def test_canonical_key_invariant_under_relabeling():
    maps = list(enumerate_maps(5, "pgon", 2))
    rng = random.Random(3)
    for m in maps[:5]:
        n = m.n_darts
        perm = list(range(1, n))
        rng.shuffle(perm)
        perm = [0] + perm          # keep the root dart name
        alpha = [0] * n
        sigma = [0] * n
        for d in range(n):
            alpha[perm[d]] = perm[m.alpha[d]]
            sigma[perm[d]] = perm[m.sigma[d]]
        relabeled = CombMap(tuple(alpha), tuple(sigma), 0)
        assert relabeled.canonical_key() == m.canonical_key()


def reference_histograms(kind, p, n_edges, cap=9):
    """The two-pass tables the one-enumeration oracle replaced: each kind
    enumerated on its own, every spin assignment scored edge by edge.

    For "pgon", {word: [count of assignments with m mono edges]}; for
    "sphere" and "nonsimple", all spins free under the key "".
    """
    hists = {}
    for m in enumerate_maps(n_edges, kind, p if kind != "sphere" else None, cap=cap):
        edges = m.edges_as_vertex_pairs()
        bverts = m.boundary_vertices() if kind == "pgon" else []
        masks = [(1 << u) | (1 << v) if u != v else 0 for u, v in edges]
        for s in range(1 << m.n_vertices()):
            mono = len(edges) - sum((s & mk).bit_count() & 1 for mk in masks)
            word = spins_to_word(1 if (s >> b) & 1 else -1 for b in bverts)
            hists.setdefault(word, [0] * (len(edges) + 1))[mono] += 1
    return hists


def oracle_histograms(kind, p, n_edges):
    """The oracle's table read in the reference's per-kind layout."""
    free, words, n_maps, _ = oracle._table(3 if kind == "sphere" else p, n_edges, 9)
    if kind == "pgon":
        return words
    return {"": free} if n_maps else {}


KIND_P = [("sphere", 0)] + [(kind, p) for kind in ("pgon", "nonsimple") for p in (1, 2, 3)]


def test_histogram_tables_pinned():
    # sha256 of every table at p <= 3, n <= 9, measured on the two-pass oracle
    tables = {f"{kind}/{p}/{n}": oracle_histograms(kind, p, n)
              for kind, p in KIND_P for n in range(1, 10)}
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "ad8768097e06f5880197213c04da839148e4b7996e38db9b1e5501c41a213407")


@pytest.mark.parametrize("kind, p", KIND_P)
def test_histograms_match_two_pass_reference(kind, p):
    for n in range(1, 9):
        assert oracle_histograms(kind, p, n) == reference_histograms(kind, p, n)


def test_map_labels_and_order_pinned():
    # sha256 of every map's text in enumeration order, so a relabelling or a
    # reordering shows (the histograms and counts above do not depend on either)
    texts = {f"{kind}/{p}/{n}": [m.to_text() for m in enumerate_maps(n, kind, p)]
             for kind, p in KIND_P for n in range(1, 10)}
    text = json.dumps(texts, sort_keys=True, separators=(",", ":"))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "82c2335b77303a2c60bb39481e64b46bfecd34e115988dde027abb46294087ed")


def test_sphere_count_past_the_default_cap():
    assert count_maps("sphere", 0, 12, cap=12) == 4096     # OEIS A002005


def test_map_counts_pinned():
    counts = {(kind, p): [count_maps(kind, p, n) for n in range(1, 10) if (2 * n - p) % 3 == 0]
              for kind in ("pgon", "nonsimple") for p in (1, 2, 3)}
    assert counts == {("pgon", 1): [1, 4, 32], ("pgon", 2): [1, 3, 24], ("pgon", 3): [1, 10, 120],
                      ("nonsimple", 1): [1, 4, 32], ("nonsimple", 2): [1, 4, 32],
                      ("nonsimple", 3): [4, 32, 336]}


def test_sphere_is_the_nonsimple_triangle():
    # a sphere triangulation is one rooted on a triangular face: same maps, same order
    for n in (3, 6, 9):
        assert list(enumerate_maps(n, "sphere")) == list(enumerate_maps(n, "nonsimple", 3))


def test_only_valid_maps_are_validated_and_counted(monkeypatch):
    # the Euler shortcut leaves `validate` only the maps it keeps, and the
    # oracle checks every simple-root-face map as a p-gon before counting it
    calls = []
    validate = CombMap.validate

    def recording(self, kind="sphere", p=None):
        calls.append(kind)
        validate(self, kind, p)

    monkeypatch.setattr(CombMap, "validate", recording)
    oracle._table.cache_clear()
    try:
        for p in (1, 2, 3):
            for n in range(1, 10):
                if (2 * n - p) % 3:
                    continue
                calls.clear()
                _, _, n_maps, n_simple = oracle._table(p, n, 9)
                assert calls.count("nonsimple") == len(calls) - n_simple == n_maps
                assert calls.count("pgon") == n_simple
    finally:
        oracle._table.cache_clear()


def test_oracle_imports_no_engine():
    # the oracle checks the engines, so it must not share their code
    maps_dir = Path(oracle.__file__).parent
    for path in maps_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not {"partition", "sampler", "criticality"} & set(name.split(".")), path


def test_seed_oracle_values():
    nu = Fraction(5)
    assert oracle_series("++", nu, 1).coeff(1) == nu
    assert oracle_series("+", nu, 2).coeff(2) == nu * nu + nu
    assert oracle_series("+-+", nu, 3).coeff(3) == nu


def test_support_and_mindeg():
    nu = Fraction(2)
    for word in ("+", "++", "+-", "+++", "++-", "++++"):
        p = len(word)
        series = oracle_series(word, nu, 8)
        for k in series.support():
            assert (k + p) % 3 == 0
            assert k >= min_degree(p)


def test_spin_flip_symmetry():
    nu = Fraction(3)
    for word in ("++-", "+--", "+-+-"):
        a = oracle_series(word, nu, 7)
        b = oracle_series(flip_word(word), nu, 7)
        assert a.coeffs == b.coeffs


def test_sphere_oracle_at_nu_one_counts():
    series = oracle_sphere(Fraction(1), 9)
    # spins contribute 2^V = 2^(n+2) per unspun map of 3n edges
    for n in (1, 2, 3):
        assert series.coeff(3 * n) == count_maps("sphere", 0, 3 * n) * 2 ** (n + 2)


def test_sphere_support():
    series = oracle_sphere(Fraction(2), 9)
    assert series.support() == [3, 6, 9]


def test_oracle_q_identities():
    nu = Fraction(3)
    q1 = oracle_Q(1, nu, 9)
    q2 = oracle_Q(2, nu, 9)
    assert q1.eq_to_order(q2.shift(1).scale(nu), 9)
    # a degree-1 root face is automatically a simple loop
    z1 = oracle_series("+", nu, 8)
    assert q1.eq_to_order(z1, 8)


def test_oracle_quadext_weight():
    series = oracle_series("++", NU_C, 4)
    assert series.coeff(1) == NU_C
    c4 = series.coeff(4)
    assert isinstance(c4, QuadExt) and c4 > 0


def test_text_roundtrip():
    for m in itertools.islice(enumerate_maps(4, "pgon", 2), 3):
        mm = m.with_spins([1] * m.n_vertices())
        back = CombMap.from_text(mm.to_text())
        assert back == mm


def test_boundary_word_extraction():
    m = next(enumerate_maps(1, "pgon", 2))
    word_pp = m.with_spins([1, 1]).boundary_word()
    assert word_pp == "++"
    spins = [0, 0]
    vo = m.vertex_of()
    spins[vo[m.alpha[m.root]]] = 1      # target gets +
    spins[vo[m.root]] = -1
    assert m.with_spins(spins).boundary_word() == "+-"


def test_monochromatic_count_loops():
    # loop with pendant edge: the loop is always monochromatic
    m = next(enumerate_maps(2, "pgon", 1))
    for s in ((1, 1), (1, -1)):
        mm = m.with_spins(s)
        assert mm.monochromatic_count() == (2 if s[0] == s[1] else 1)


def test_derived_tables_are_tuples():
    m = next(enumerate_maps(4, "pgon", 2))
    assert isinstance(m.vertex_of(), tuple)
    assert isinstance(m.faces(), tuple)
    assert all(isinstance(cyc, tuple) for cyc in m.faces())
    assert m.faces() is m.faces() and m.vertex_of() is m.vertex_of()


def reference_validate(m, kind="sphere", p=None):
    """The multi-pass validator `CombMap.validate` replaced, on its own
    vertex and face walks: same checks, order and messages."""
    alpha, sigma, root = m.alpha, m.sigma, m.root
    n = len(alpha)
    if n == 0 or n % 2:
        raise InvalidMap("dart count must be positive and even")
    if sorted(alpha) != list(range(n)) or sorted(sigma) != list(range(n)):
        raise InvalidMap("alpha and sigma must be permutations of the darts")
    for d in range(n):
        if alpha[d] == d or alpha[alpha[d]] != d:
            raise InvalidMap("alpha must be a fixed-point-free involution")
    if not 0 <= root < n:
        raise InvalidMap("root dart out of range")
    seen = [False] * n
    stack = [root]
    seen[root] = True
    count = 1
    while stack:
        d = stack.pop()
        for e in (alpha[d], sigma[d]):
            if not seen[e]:
                seen[e] = True
                count += 1
                stack.append(e)
    if count != n:
        raise InvalidMap("map is not connected")

    def cycles(perm):
        done, out = [False] * n, []
        for d in range(n):
            cyc = []
            while not done[d]:
                done[d] = True
                cyc.append(d)
                d = perm(d)
            if cyc:
                out.append(cyc)
        return out

    vertex_of = [0] * n
    for v, cyc in enumerate(cycles(lambda d: sigma[d])):
        for d in cyc:
            vertex_of[d] = v
    faces = cycles(lambda d: sigma[alpha[d]])
    V, E, F = max(vertex_of) + 1, n // 2, len(faces)
    if V - E + F != 2:
        raise InvalidMap(f"genus is not 0 (V={V}, E={E}, F={F})")
    root_face = next(cyc for cyc in faces if alpha[root] in cyc)
    for cyc in faces:
        if set(cyc) == set(root_face):
            continue
        if len(cyc) != 3:
            raise InvalidMap(f"inner face of degree {len(cyc)}")
    rf_len = len(root_face)
    if kind == "sphere":
        if rf_len != 3:
            raise InvalidMap("sphere triangulation with non-triangular root face")
    elif kind in ("pgon", "nonsimple"):
        if p is None:
            raise ValueError("p required for boundary kinds")
        if rf_len != p:
            raise InvalidMap(f"root face has degree {rf_len}, expected {p}")
        if kind == "pgon" and len({vertex_of[d] for d in root_face}) != p:
            raise InvalidMap("root face boundary is not simple")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if m.spins is not None and len(m.spins) != V:
        raise InvalidMap("spin table does not match vertex count")


def _sampler_maps():
    """Spheres from the exact sampler and p-gons (p = 1..4) from its peeling."""
    from isingtri.sampler import ExactSamplerContext, _sample_gon_exact, exact_sample

    nu = Fraction(2)
    ctx = ExactSamplerContext(nu, 10)
    maps = [exact_sample(nu, n, seed, ctx) for n in (1, 2, 3) for seed in range(4)]
    rng = random.Random(5)
    for word, size in (("+", 5), ("++", 4), ("+-", 7), ("+-+", 6), ("++--", 8), ("+-+-", 8)):
        for _ in range(3):
            maps.append(_sample_gon_exact(ctx, word, size, rng).to_map())
    return maps


SAMPLER_MAPS = _sampler_maps()
TORUS = CombMap((1, 0, 3, 2), (2, 3, 1, 0), 0)


def _disjoint_union(a, b):
    off = a.n_darts
    return (list(a.alpha) + [d + off for d in b.alpha],
            list(a.sigma) + [d + off for d in b.sigma], off)


def _join_at_root_faces(a, b, i, j):
    """Merge a root-face corner of `a` with one of `b` into one vertex: the
    two root faces become one face, through that vertex twice."""
    alpha, sigma, off = _disjoint_union(a, b)
    fa, fb = a.root_face(), b.root_face()
    e, f = alpha[fa[i % len(fa)]], alpha[fb[j % len(fb)] + off]
    sigma[e], sigma[f] = sigma[f], sigma[e]
    return alpha, sigma


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pick=st.integers(0, len(SAMPLER_MAPS) - 1), other=st.integers(0, len(SAMPLER_MAPS) - 1),
       mutation=st.sampled_from(["none", "swap-sigma", "break-alpha", "pinch", "component",
                                 "genus"]),
       i=st.integers(0, 10**6), j=st.integers(0, 10**6),
       kind=st.sampled_from(["sphere", "pgon", "nonsimple"]), dp=st.integers(-1, 1),
       spins=st.booleans())
def test_validate_matches_reference(pick, other, mutation, i, j, kind, dp, spins):
    m = SAMPLER_MAPS[pick]
    alpha, sigma = list(m.alpha), list(m.sigma)
    n = len(alpha)
    if mutation == "swap-sigma":
        sigma[i % n], sigma[j % n] = sigma[j % n], sigma[i % n]
    elif mutation == "break-alpha":
        alpha[i % n], alpha[j % n] = alpha[j % n], alpha[i % n]
    elif mutation == "pinch":
        alpha, sigma = _join_at_root_faces(m, SAMPLER_MAPS[other], i, j)
    elif mutation == "component":
        alpha, sigma, _ = _disjoint_union(m, SAMPLER_MAPS[other])
    elif mutation == "genus":
        alpha, sigma = _join_at_root_faces(m, TORUS, i, j)
    mutant = CombMap(alpha, sigma, m.root, m.spins if spins else None)
    p = len(mutant.root_face()) + dp if kind != "sphere" else None
    verdicts = []
    for check in (lambda: mutant.validate(kind, p), lambda: reference_validate(mutant, kind, p)):
        try:
            check()
            verdicts.append(None)
        except (InvalidMap, ValueError) as exc:
            verdicts.append((type(exc), str(exc)))
    assert verdicts[0] == verdicts[1]
