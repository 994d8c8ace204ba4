import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from isingtri import partition, series
from isingtri.exactnum import NU_C, format_scalar, pair_scalar
from isingtri.maps import oracle_series, oracle_sphere
from isingtri.partition import (
    WordTable,
    check_q_identities,
    check_U,
    solve_dobrushin,
    solve_U,
    sphere_series,
    verify_catalytic,
    zplus_recursion,
)
from isingtri.sampler import ExactSamplerContext, exact_sample
from isingtri.series import (
    BivSeries,
    DegreeOverflow,
    NotContractive,
    TSeries,
    solve_fixed_point,
)

from picard_spec import FixedPointSpec, swap_xy

NU = Fraction(3)


def x_coeff(b, i):
    """[x^i] b, as a BivSeries in t and y only."""
    out = BivSeries(b.nu, b.order, b.dx, b.dy)
    out.coeffs = {(k, 0, j): c for (k, ii, j), c in b.coeffs.items() if ii == i}
    return out


def y_coeff(b, j):
    """[y^j] b, as a BivSeries in t and x only."""
    return swap_xy(x_coeff(swap_xy(b), j))


def reference_update(nu, order, state):
    """The two peeling equations transcribed term by term on BivSeries.

        S  = t x y + t S Z+(x) / x + t S Z+(y) / y
               + t (S - x [x] S) / x + t (S - y [y] S) / y
        Z+ = nu t x^2 + nu t Z+^2 / x + nu t (Z+ - x [x] Z+) / x + nu t [y] S

    `solve_dobrushin` must return a fixed point of this map.
    """
    t = 1  # t-power shorthand for mul_monomial calls
    M, Z = state["mixed"], state["zplus"]
    m1_of_y = x_coeff(M, 1)                       # [x] S, a series in y
    m1_of_x = y_coeff(M, 1)                       # [y] S, a series in x
    z_in_y = swap_xy(Z)
    z1 = x_coeff(Z, 1)                            # Z_+ as a plain t-series

    xy = BivSeries.monomial(nu, order, M.dx, M.dy, 1, 1, 1)
    new_m = (
        xy
        + (M * Z).mul_monomial(t, -1, 0)
        + (M * z_in_y).mul_monomial(t, 0, -1)
        + (M - m1_of_y.mul_monomial(0, 1, 0)).mul_monomial(t, -1, 0)
        + (M - m1_of_x.mul_monomial(0, 0, 1)).mul_monomial(t, 0, -1)
    )

    x2 = BivSeries.monomial(nu, order, Z.dx, Z.dy, 1, 2, 0, nu)
    new_z = (
        x2
        + (Z * Z).mul_monomial(t, -1, 0, nu)
        + (Z - z1.mul_monomial(0, 1, 0)).mul_monomial(t, -1, 0, nu)
        + m1_of_x.mul_monomial(t, 0, 0, nu)
    )
    return {"mixed": new_m, "zplus": new_z}


def layer_series(nu, layers):
    """S(x, y) and Z+(x) as BivSeries, rebuilt from the scaled layers (M, Z)
    that `solve_dobrushin` returns: entry (u, v) of layer k stands for
    (u + v sqrt7) / d^k, with nu = m / d."""
    M, Z = layers
    order = len(M) - 1
    cap = max(order, (order + 7) // 2)
    _, d = partition._integer_weight(nu)
    mixed = {(k, i, j): pair_scalar(c, d ** k)
             for k in range(order + 1) for (i, j), c in sorted(M[k].items())}
    zplus = {(k, i, 0): pair_scalar(c, d ** k)
             for k in range(order + 1) for i, c in sorted(Z[k].items())}
    return {"mixed": BivSeries(nu, order, cap, cap, mixed),
            "zplus": BivSeries(nu, order, cap, cap, zplus)}


def dobrushin_seeds(nu, layers):
    """Z_+, Z_++ and Z_+- extracted from the rebuilt S and Z+."""
    series = layer_series(nu, layers)
    return {"+": series["zplus"].extract_tseries(1, 0),
            "++": series["zplus"].extract_tseries(2, 0),
            "+-": series["mixed"].extract_tseries(1, 1)}


@pytest.fixture(scope="module")
def words10():
    return WordTable(NU, 10)


def coeff(words, word, n):
    """[t^n] Z_word, read from the one integer state of `words` it stands for."""
    return pair_scalar(words.state(word, n), words._d ** n)


def test_dobrushin_examples(words10):
    assert words10.series("++").coeff(1) == NU               # edge 2-gon
    assert words10.series("+").coeff(2) == NU * NU + NU
    for k in range(words10.order + 1):
        if (k + 1) % 3:
            assert words10.series("+").coeff(k) == 0


def test_dobrushin_matches_oracle(words10):
    # the seeds, the pure words +^p and the mixed Dobrushin words beyond the seeds
    for word in ("+", "++", "+-", "+++", "++++", "++-", "++--"):
        assert words10.series(word).with_order(9).eq_to_order(oracle_series(word, NU, 9), 9)


REFERENCE_NUS = pytest.mark.parametrize(
    "nu", [Fraction(1, 2), Fraction(1), Fraction(3), NU_C], ids=["1/2", "1", "3", "nu_c"])


@REFERENCE_NUS
def test_dobrushin_is_fixed_point_of_reference(nu):
    order = 14
    state = layer_series(nu, solve_dobrushin(nu, order))
    image = reference_update(nu, order, state)
    for name, series in state.items():
        assert series.order == order
        assert image[name].coeffs == series.coeffs


@REFERENCE_NUS
def test_dobrushin_matches_reference_picard_solve(nu):
    order = 10
    d = max(order, (order + 7) // 2)
    zero = {"mixed": BivSeries.zero(nu, 0, d, d), "zplus": BivSeries.zero(nu, 0, d, d)}
    spec = FixedPointSpec(zero=zero, update=lambda state, work: reference_update(nu, work, state))
    ref = solve_fixed_point(spec, order)
    # the reference builds both sides of the system, so its symmetry is evidence
    assert ref["mixed"] == swap_xy(ref["mixed"])
    for name, series in layer_series(nu, solve_dobrushin(nu, order)).items():
        assert series == ref[name]
        assert (series.dx, series.dy) == (ref[name].dx, ref[name].dy)


def table_digest(nu, layers):
    """sha256 of the canonical JSON of the full S (`mixed`) and Z+ (`zplus`)
    coefficients, rebuilt from the scaled layers."""
    payload = {name: [[*key, format_scalar(c)] for key, c in sorted(s.coeffs.items())]
               for name, s in layer_series(nu, layers).items()}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("nu, digest", [
    (Fraction(1, 2), "53893ceb578a6dd9a1e43f40da590668781f1344952b744b0079bd5836ea5b3d"),
    (Fraction(2), "98b47a67c455f6c5ad99b0239ff6db358e57ac734101d4bdace52bd2ebb589c3"),
    (NU_C, "48dffe60566532fc7451814e0ad711557e3e6a09e77e8e29569b1fd1580e378e"),
], ids=["1/2", "2", "nu_c"])
def test_dobrushin_full_table_pinned(nu, digest):
    # every entry of S and Z+ to t^40, the p != q entries of S included
    assert table_digest(nu, solve_dobrushin(nu, 40)) == digest


def test_dobrushin_rejects_a_rule_without_its_power_of_t(monkeypatch):
    layer = partition._dobrushin_layer

    def reads_own_layer(M, Z, k, m, d, cap):
        new_m, new_z = layer(M, Z, k, m, d, cap)
        for key, (u, v) in M[k].items():
            p, q = new_m.get(key, (0, 0))
            new_m[key] = (p + u, q + v)
        return new_m, new_z

    monkeypatch.setattr(partition, "_dobrushin_layer", reads_own_layer)
    with pytest.raises(NotContractive):
        solve_dobrushin(NU, 6)


def test_dobrushin_degree_guard():
    m, d = partition._integer_weight(NU)
    M = [{} for _ in range(8)]
    Z = [{} for _ in range(8)]
    for k in range(1, 4):
        M[k], Z[k] = partition._dobrushin_layer(M, Z, k, m, d, 8)
    # [t^3] needs the product of x^2 (t^1 of Z+) with x^1 y^1 (t^1 of S)
    with pytest.raises(DegreeOverflow):
        partition._dobrushin_layer(M, Z, 3, m, d, 2)


def test_mixed_symmetry(words10):
    M, _ = words10.layers
    assert len(M) == words10.order + 1
    for layer in M:
        assert layer == {(j, i): c for (i, j), c in layer.items()}


def test_solve_word_matches_oracle(words10):
    for p in (3, 4):
        for bits in itertools.product("+-", repeat=p):
            w = "".join(bits)
            assert words10.series(w).eq_to_order(oracle_series(w, NU, 9), 9)


def test_solve_word_flip_and_pruning(words10):
    words = words10
    a = words.series("---")
    b = words.series("+++")
    assert a.coeffs == b.coeffs
    # words too long to contribute below the order are zero
    assert words.series("+" * 9).is_zero()


def flip_key(word):
    return min(word, word.translate(str.maketrans("+-", "-+")))


def reference_rule(word):
    """The right-hand side of the root-edge deletion identity for `word`.

        Z_w = weight t (sum_c Z_{c+w} + sum_i Z_{w[:i]} Z_{w[i-1:]})

    Returns (monochromatic root edge, inserted words, split pairs).
    """
    mono = word[0] == word[-1]
    inserted = [c + word for c in "+-"]
    splits = [(word[:i], word[i - 1:]) for i in range(1, len(word) + 1)]
    return mono, inserted, splits


def reference_closure(word, p_max):
    """Flip keys of the words of length 3..p_max that `word`'s identity reaches."""
    todo, seen = [flip_key(word)], set()
    while todo:
        w = todo.pop()
        if w in seen or not 3 <= len(w) <= p_max:
            continue
        seen.add(w)
        _, inserted, splits = reference_rule(w)
        todo.extend(flip_key(c) for c in inserted)
        todo.extend(flip_key(c) for pair in splits for c in pair)
    return sorted(seen)


def reference_word_update(nu, seeds, unknowns):
    """The deletion identity as a Picard update over the closure `unknowns`.

    `seeds` maps the flip keys "+", "++" and "+-" to their Dobrushin slices;
    words outside the closure are longer than any map below the order and
    read as zero.  The word table must return the fixed point of this map.
    """
    def update(state, order):
        def lookup(w):
            k = flip_key(w)
            if k in seeds:
                return seeds[k].with_order(order)
            return state.get(k, TSeries.zero(nu, order))

        out = {}
        for w in unknowns:
            mono, inserted, splits = reference_rule(w)
            total = TSeries.zero(nu, order)
            for c in inserted:
                total = total + lookup(c)
            for a, b in splits:
                total = total + lookup(a) * lookup(b)
            out[w] = total.shift(1).scale(nu if mono else Fraction(1))
        return out

    return update


WORD_NUS = pytest.mark.parametrize(
    "nu", [Fraction(1, 2), Fraction(2), Fraction(3), NU_C], ids=["1/2", "2", "3", "nu_c"])


@WORD_NUS
@pytest.mark.parametrize("order", [4, 9, 12])
def test_word_table_matches_reference_picard_solve(nu, order):
    seeds = dobrushin_seeds(nu, solve_dobrushin(nu, order))
    unknowns = reference_closure("+++", (order + 3) // 2)
    zero = {w: TSeries.zero(nu, 0) for w in unknowns}
    ref = solve_fixed_point(FixedPointSpec(zero, reference_word_update(nu, seeds, unknowns)), order)
    words = WordTable(nu, order)
    # read one top state cold first, so that it recurses through the states below it
    assert coeff(words, unknowns[-1], order) == ref[unknowns[-1]].coeff(order)
    for w in unknowns:
        flipped = w.translate(str.maketrans("+-", "-+"))
        for n in range(order + 1):
            assert coeff(words, w, n) == ref[w].coeff(n)
            assert coeff(words, flipped, n) == ref[w].coeff(n)
        assert words.series(w).order == order
        assert words.series(w).coeffs == ref[w].coeffs


def test_peeling_cases_in_sampling_order():
    assert partition.peeling_cases("+-") == [
        (("edge",), ()),
        (("insert", "+"), ("++-",)),
        (("insert", "-"), ("-+-",)),
        (("split", 1), ("+", "+-")),
        (("split", 2), ("+-", "-")),
    ]
    assert [case for case, _ in partition.peeling_cases("+-+")] == [
        ("insert", "+"), ("insert", "-"), ("split", 1), ("split", 2), ("split", 3)]


def test_word_table_size_budget():
    words = WordTable(NU, 12)
    # a p-gon has at least 2p - 3 edges: below that a state is zero and never stored
    for p in range(3, 8):
        assert words.state("+" * p, 2 * p - 4) == (0, 0)
        assert coeff(words, "+" * p, 2 * p - 3) > 0
    assert all(n >= 2 * len(w) - 3 for w, n in words._states)
    with pytest.raises(ValueError):
        words.state("+++", 13)


def test_word_table_takes_no_flip_key_on_a_repeated_read(monkeypatch):
    words = WordTable(NU, 9)
    reads = [(w, n) for w in ("+", "-+", "++-", "-+-+") for n in range(10)]
    first = [words.state(w, n) for w, n in reads]
    monkeypatch.setattr(WordTable, "_key", lambda self, word: pytest.fail("key taken"))
    assert [words.state(w, n) for w, n in reads] == first


def refuse_picard(monkeypatch):
    """Make every call of the Picard solver fail, by either import path."""
    def refuse(spec, order):
        raise AssertionError("the production engines must not run the Picard solver")

    monkeypatch.setattr(series, "solve_fixed_point", refuse)
    monkeypatch.setattr(partition, "solve_fixed_point", refuse, raising=False)


def test_word_table_does_not_use_picard(monkeypatch):
    refuse_picard(monkeypatch)
    words = WordTable(NU, 9)
    assert words.series("++-+").coeff(5) > 0


def test_word_table_rejects_a_rule_without_its_power_of_t(monkeypatch):
    rule = WordTable._rule

    def reads_own_state(self, word, n):
        u, v = rule(self, word, n)
        p, q = self._state(word, n)       # Z_w read at its own size: no t factor
        return u + p, v + q

    monkeypatch.setattr(WordTable, "_rule", reads_own_state)
    with pytest.raises(NotContractive):
        # a four-block word: the peeling recursion computes it
        WordTable(NU, 9).series("+-+-")


def test_word_requires_length_three():
    # words of length 1 and 2 are Dobrushin entries, never solved by peeling
    words = WordTable(NU, 6)
    for word, seed in dobrushin_seeds(NU, words.layers).items():
        assert words.series(word).coeffs == seed.coeffs
        flipped = word.translate(str.maketrans("+-", "-+"))
        assert words.series(flipped).coeffs == seed.coeffs
    assert not words._states


def two_block_words(p):
    """Every word of length p with at most two cyclic blocks."""
    blocks = ["+" * a + "-" * (p - a) for a in range(p + 1)]
    return sorted({w[i:] + w[:i] for w in blocks for i in range(p)})


@WORD_NUS
def test_peeling_rule_matches_the_dobrushin_entries(nu):
    # the two engines check each other: the peeling identity over the table's
    # entries (and over the recursion's four-block states) gives each entry
    words = WordTable(nu, 12)
    checked = 0
    for p in range(3, words.p_max + 1):
        for w in two_block_words(p):
            for n in range(words.order + 1):
                assert words._rule(w, n) == words.state(w, n), (w, n)
                checked += words.state(w, n) != (0, 0)
    assert checked > 100


def test_two_block_words_are_read_from_the_dobrushin_table():
    words = WordTable(NU, 12)
    for w in ("+++-", "--++", "+-"):
        assert not words.series(w).is_zero()
    assert not words._states
    words.series("+-+-")
    assert any(key == "+-+-" for key, _ in words._states)


def test_word_key_is_one_per_rotation_reversal_and_flip():
    words = WordTable(NU, 9)
    flip = str.maketrans("+-", "-+")
    for p in range(1, 7):
        for bits in itertools.product("+-", repeat=p):
            w = "".join(bits)
            orbit = {v[i:] + v[:i] for v in (w, w[::-1], w.translate(flip),
                                              w[::-1].translate(flip)) for i in range(p)}
            assert len({words._key(v) for v in orbit}) == 1
            assert len({tuple(sorted(words.series(v).coeffs.items())) for v in orbit}) == 1


def test_sphere_series(words10):
    sph = sphere_series(NU, 9, words10)
    assert sph.eq_to_order(oracle_sphere(NU, 9), 9)
    assert sph.support() == [3, 6, 9]


def test_sphere_classes_are_tabulated_once_per_size():
    ctx = ExactSamplerContext(Fraction(2), 7)
    first = exact_sample(Fraction(2), 2, seed=3, ctx=ctx)
    assert ctx.words.sphere_classes(7) is ctx.words.sphere_classes(7)
    reads = []
    state = ctx.words.state
    ctx.words.state = lambda word, n: reads.append(word) or state(word, n)
    assert exact_sample(Fraction(2), 2, seed=3, ctx=ctx) == first
    # the same draw again: only the drawn gons' nonzero checks read states
    assert len(reads) <= 2


def test_sphere_nu1_unspun_counts():
    from isingtri.maps import count_maps

    sph = sphere_series(Fraction(1), 9)
    for n in (1, 2, 3):
        assert sph.coeff(3 * n) == 2 ** (n + 2) * count_maps("sphere", 0, 3 * n)


def test_solve_U():
    for nu in (Fraction(1, 2), NU, NU_C):
        u = solve_U(nu, 15)
        assert u.coeff(0) == 0
        assert u.coeff(3) == 4 * nu * nu
        assert all(k % 3 == 0 for k in u.support())
        assert check_U(u, 15).is_zero()


def reference_solve_U(nu, order):
    """U by Picard iteration of U = 32 nu^3 t^3 (1 - 2U)^2 / (lin(U) quart(U)).

    The factors are written out here apart from `partition`, so a slip in the
    production equation cannot hide in the reference too.
    """
    def update(state, work):
        u = state["U"]
        u2 = u * u
        lin = u.scale(1 + nu) - TSeries.monomial(nu, work, 0, Fraction(2))
        quart = (u2 * u).scale(8 * nu * (1 + nu) ** 2) - u2.scale((11 * nu + 13) * (nu + 1)) \
            + u.scale(2 * (nu + 3) * (2 * nu + 1)) - TSeries.monomial(nu, work, 0, 4 * nu)
        one_minus_2u = TSeries.monomial(nu, work, 0) - u.scale(Fraction(2))
        rhs = (one_minus_2u * one_minus_2u * (lin * quart).inverse()).scale(32 * nu ** 3).shift(3)
        return {"U": rhs}

    spec = FixedPointSpec(zero={"U": TSeries.zero(nu, 0)}, update=update, min_gain=3)
    return solve_fixed_point(spec, order)["U"]


@pytest.mark.parametrize("nu, order", [
    *itertools.product([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), NU_C],
                       [0, 1, 2, 4, 15, 31]),
    (NU_C, 60),
])
def test_solve_U_matches_picard_reference(nu, order):
    u = solve_U(nu, order)
    ref = reference_solve_U(nu, order)
    assert u.order == ref.order == order
    assert u.coeffs == ref.coeffs


def test_solve_U_does_not_use_picard(monkeypatch):
    refuse_picard(monkeypatch)
    assert check_U(solve_U(NU_C, 31)).is_zero()


@pytest.mark.parametrize("nu", [Fraction(0), Fraction(-1), 1 - NU_C])
def test_solve_U_rejects_nonpositive_nu(nu):
    with pytest.raises(ValueError):
        solve_U(nu, 6)


def test_zplus_recursion_consistency():
    words = WordTable(NU, 14)
    zplus = layer_series(NU, words.layers)["zplus"]
    for p in (3, 4, 5):
        zr = zplus_recursion(p, NU, 9, words)
        assert zr.eq_to_order(zplus.extract_tseries(p, 0), 9)
        assert zr.eq_to_order(words.series("+" * p), 9)
    # lowest coefficient sits at the simple-boundary minimum
    z3 = zplus_recursion(3, NU, 9, words)
    assert min(z3.coeffs) == 3


def test_zplus_rejects_nu_one():
    with pytest.raises(ValueError):
        zplus_recursion(3, Fraction(1), 6, WordTable(Fraction(1), 12))


def test_verify_catalytic_zero_residual():
    for nu, order in ((Fraction(2), 10), (NU_C, 8)):
        rep = verify_catalytic(nu, order, WordTable(nu, order + 2))
        assert rep.ok and not rep.degenerate


def test_verify_catalytic_degenerate_at_one():
    rep = verify_catalytic(Fraction(1), 8, WordTable(Fraction(1), 10))
    assert rep.degenerate and rep.ok


def test_verify_catalytic_detects_corruption():
    words = WordTable(Fraction(2), 10)
    _, Z = words.layers
    u, v = Z[4][2]                      # [t^4 x^2] Z+ = [t^4] Z_++, scaled by d^4 = 1
    Z[4][2] = (u + 1, v)
    rep = verify_catalytic(Fraction(2), 8, words)
    assert not rep.ok


def test_q_identities_pass():
    for nu in (Fraction(1, 2), Fraction(2)):
        results = check_q_identities(WordTable(nu, 9), 9)
        assert all(r.ok for r in results), [r.to_json() for r in results]
        assert len(results) == 5


def test_q_identities_check_to_the_given_order():
    words = WordTable(NU, 11)
    assert ([r.to_json() for r in check_q_identities(words, 7)]
            == [r.to_json() for r in check_q_identities(WordTable(NU, 7), 7)])
    assert all(r.checked_to == 7 for r in check_q_identities(words, 7))
    with pytest.raises(ValueError):
        check_q_identities(words, 12)


def test_q_identity_literal_form_fails():
    # guard documenting the pinched-boundary correction: without the
    # 2 Q1 (Q2 - Q1^2) term the degree-3 identity already fails at t^3
    from isingtri.maps import oracle_Q

    q1 = oracle_Q(1, NU, 6)
    q2 = oracle_Q(2, NU, 6)
    q3 = oracle_Q(3, NU, 6)
    words = WordTable(NU, 6)
    lhs = words.series("+++") + words.series("++-").scale(Fraction(3))
    literal_rhs = q3 - q1 * q2
    assert lhs.first_difference(literal_rhs, 6) == 3
    corrected = literal_rhs - (q1 * (q2 - q1 * q1)).scale(Fraction(2))
    assert lhs.eq_to_order(corrected, 6)


def test_nonnegative_coefficients_randomized():
    import random

    rng = random.Random(5)
    for _ in range(5):
        nu = Fraction(rng.randrange(1, 8), rng.randrange(1, 5))
        for series in layer_series(nu, solve_dobrushin(nu, 7)).values():
            assert all(c > 0 for c in series.coeffs.values())
