"""Brute-force reference coefficients from exhaustive map enumeration.

Coefficients are assembled as histograms over the monochromatic-edge count m,
one enumeration per boundary length: for each rooted map with a degree-p root
face every spin assignment is visited explicitly, so no generating function
machinery is shared with the series engines being tested.  All spins free give
Q_p, and at p = 3 the sphere series (every face of a sphere triangulation is a
triangle); the maps with a simple root face, by boundary word, give Z_w.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..exactnum import Scalar, as_scalar
from ..series import TSeries
from .combmap import spins_to_word
from .enumerate import DEFAULT_CAP, CapExceeded, enumerate_maps


def min_degree(p: int) -> int:
    """Least edge count of a triangulation of the p-gon."""
    if p == 1:
        return 2
    if p == 2:
        return 1
    return 2 * p - 3


@lru_cache(maxsize=None)
def _table(p: int, n_edges: int, cap: int):
    """(free, words, n_maps, n_simple) for the maps with a degree-p root face.

    free[m] counts (map, spin assignment) pairs with m monochromatic edges;
    words[w] the same over the maps whose root face is simple, by boundary
    word.  Spins run in Gray-code order, so each step flips one vertex and
    moves m by its non-loop edges (loops are always monochromatic).
    """
    width = n_edges + 1
    free = [0] * width
    by_word = [0] * (width << p)      # simple root faces: row w for boundary bits w
    n_maps = n_simple = 0
    for cmap in enumerate_maps(n_edges, "nonsimple", p, cap=cap):
        n_maps += 1
        n_vertices = cmap.n_vertices()
        bverts = cmap.boundary_vertices()
        letter = [0] * n_vertices     # each vertex's boundary-word bit, if simple
        counts = free
        if len(set(bverts)) == p:
            cmap.validate("pgon", p)
            n_simple += 1
            counts = by_word
            for i, v in enumerate(bverts):
                letter[v] = 1 << i
        nbrs: list[list[int]] = [[] for _ in range(n_vertices)]   # non-loop, with repeats
        for u, v in cmap.edges_as_vertex_pairs():
            if u != v:
                nbrs[u].append(v)
                nbrs[v].append(u)
        s = w = 0                     # spin and boundary-word bits: all minus
        m = n_edges
        counts[m] += 1
        for k in range(1, 1 << n_vertices):
            v = (k & -k).bit_length() - 1     # the bit Gray codes k - 1 and k differ in
            plus = 0
            for u in nbrs[v]:
                plus += s >> u & 1
            turn = len(nbrs[v]) - 2 * plus    # the change in m if v turns minus
            m += turn if s >> v & 1 else -turn
            s ^= 1 << v
            w ^= letter[v]
            counts[w * width + m] += 1
    words: dict[str, list[int]] = {}
    for w in range(1 << p if n_simple else 0):
        row = by_word[w * width:(w + 1) * width]
        words[spins_to_word(1 if w >> i & 1 else -1 for i in range(p))] = row
        free = [a + b for a, b in zip(free, row)]
    return free, words, n_maps, n_simple


def _eval_hist(hist: list[int], nu: Scalar) -> Scalar:
    total: Scalar = Fraction(0)
    for count in reversed(hist):
        total = total * nu + count
    return total


def _series(p: int, nu: Scalar, order: int, cap: int, row) -> TSeries:
    """The series whose [t^n] is the histogram `row(_table(p, n, cap))` at nu
    (no term where it is None), over the sizes a degree-p root face allows."""
    if order > cap:
        raise CapExceeded(f"order {order} exceeds oracle cap {cap}")
    nu = as_scalar(nu)
    coeffs = {}
    for n in range(1, order + 1):
        if (2 * n - p) % 3:
            continue
        hist = row(_table(p, n, cap))
        if hist is not None:
            coeffs[n] = _eval_hist(hist, nu)
    return TSeries(nu, order, coeffs)


def oracle_series(omega: str, nu: Scalar, order: int, cap: int = DEFAULT_CAP) -> TSeries:
    """Z_omega by brute force: boundary spins fixed by the word, interior summed."""
    return _series(len(omega), nu, order, cap, lambda table: table[1].get(omega))


def oracle_sphere(nu: Scalar, order: int, cap: int = DEFAULT_CAP) -> TSeries:
    """The sphere partition series: every spin assignment of every vertex."""
    return _series(3, nu, order, cap, lambda table: table[0])


def oracle_Q(p: int, nu: Scalar, order: int, cap: int = DEFAULT_CAP) -> TSeries:
    """Boundary-of-degree-p series with free spins and the global 1/2 factor."""
    return _series(p, nu, order, cap, lambda table: table[0]).scale(Fraction(1, 2))


def count_maps(kind: str, p: int, n_edges: int, cap: int = DEFAULT_CAP) -> int:
    """Number of unspun rooted maps of the given kind and size."""
    if kind not in ("sphere", "pgon", "nonsimple"):
        raise ValueError(f"unknown kind {kind!r}")
    _, _, n_maps, n_simple = _table(3 if kind == "sphere" else p, n_edges, cap)
    return n_simple if kind == "pgon" else n_maps
