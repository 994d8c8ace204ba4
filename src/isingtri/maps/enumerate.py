"""Exhaustive generation of small rooted type-I triangulations.

The search assigns the rotation permutation sigma dart by dart, driven by
face closure: faces are built one at a time as phi-chains (phi = sigma o
alpha) and any chain that cannot close into a face of the required degree is
abandoned immediately.  Fresh darts are introduced in numeric order and each
new face is anchored at the least dart not yet inside a closed face, so every
rooted map is produced in exactly one labeling; a canonical-form set guards
the uniqueness argument.

The search state is `sigma` and `has_pred` (whether a dart is already some
sigma value, i.e. has a phi-predecessor), with the count of allocated darts
and of darts in closed faces passed down the recursion.  Nothing else is
needed: inside the open face every chain dart but its anchor has a
predecessor, so a chain may extend to any dart without one other than the
anchor; and between faces the darts of closed faces are exactly the darts
with a predecessor, so the next anchor is the least dart without one.

Maps are emitted without spins; the oracle layer sums over spin assignments.
"""

from __future__ import annotations

from typing import Iterator

from .combmap import CombMap, InvalidMap

DEFAULT_CAP = 9


class CapExceeded(ValueError):
    pass


def _support_ok(n_edges: int, p_root: int) -> bool:
    return (2 * n_edges - p_root) % 3 == 0 and 2 * n_edges >= p_root


def enumerate_maps(n_edges: int, kind: str, p: int | None = None,
                   cap: int = DEFAULT_CAP) -> Iterator[CombMap]:
    """All rooted maps of the requested kind with `n_edges` edges, exactly once.

    kind "sphere": type-I triangulations of the sphere (root face a triangle
    like all others).  kind "pgon": triangulations of the p-gon (simple root
    face of degree p).  kind "nonsimple": root face of degree p with no
    simplicity requirement, all other faces triangles.
    """
    if n_edges > cap:
        raise CapExceeded(f"n_edges={n_edges} exceeds cap={cap}")
    if n_edges < 1:
        return iter(())
    if kind == "sphere":
        p_root = 3
    elif kind in ("pgon", "nonsimple"):
        if p is None or p < 1:
            raise ValueError("boundary kinds require p >= 1")
        p_root = p
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if not _support_ok(n_edges, p_root):
        return iter(())

    D = 2 * n_edges
    n_faces = 1 + (D - p_root) // 3
    alpha = tuple(d ^ 1 for d in range(D))
    sigma: list[int | None] = [None] * D    # every entry is set again before `emit` reads it
    has_pred = [False] * D
    maps: list[CombMap] = []
    seen_keys: set[tuple] = set()

    def extend(x0: int, x: int, length: int, target: int, n_alloc: int, closed: int) -> None:
        """Choose the successor of x, the end of the open face's chain from x0."""
        a = alpha[x]
        if length == target:
            sigma[a] = x0
            has_pred[x0] = True
            next_face(n_alloc, closed + length)
            has_pred[x0] = False
            return
        for y in range(min(n_alloc + 1, D)):      # allocated darts, then the next fresh one
            if not has_pred[y] and y != x0:
                sigma[a] = y
                has_pred[y] = True
                extend(x0, y, length + 1, target, n_alloc + 2 if y == n_alloc else n_alloc,
                       closed)
                has_pred[y] = False

    def next_face(n_alloc: int, closed: int) -> None:
        if closed == D:
            emit()
            return
        anchor = has_pred.index(False)
        if anchor < n_alloc and (D - closed) % 3 == 0:   # else disconnected, or not triangles
            extend(anchor, anchor, 1, 3, n_alloc, closed)

    def emit() -> None:
        m = CombMap(alpha, tuple(sigma), 0)  # type: ignore[arg-type]
        if m.n_vertices() - n_edges + n_faces != 2:
            return      # disconnected or of positive genus: `validate` would reject it
        try:
            if kind == "sphere":
                m.validate("sphere")
            else:
                m.validate(kind, p_root)
        except InvalidMap:
            return
        key = m.canonical_key()
        if key in seen_keys:
            return
        seen_keys.add(key)
        maps.append(m)

    extend(1, 1, 1, p_root, 2, 0)     # root face first: through dart alpha[0] = 1, degree p_root
    return iter(maps)
