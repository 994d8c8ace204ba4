"""Exhaustive generation of small rooted type-I triangulations.

The search assigns the rotation permutation sigma dart by dart, driven by
face closure: faces are built one at a time as phi-chains (phi = sigma o
alpha) and any chain that cannot close into a face of the required degree is
abandoned immediately.  Fresh darts are introduced in numeric order and each
new face is anchored at the least dart not yet inside a closed face, so every
rooted map is produced in exactly one labeling; a canonical-form set guards
the uniqueness argument.

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
        return
    if kind == "sphere":
        p_root = 3
    elif kind in ("pgon", "nonsimple"):
        if p is None or p < 1:
            raise ValueError("boundary kinds require p >= 1")
        p_root = p
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if not _support_ok(n_edges, p_root):
        return

    D = 2 * n_edges
    n_faces = 1 + (D - p_root) // 3
    alpha = tuple(d ^ 1 for d in range(D))
    sigma: list[int | None] = [None] * D
    has_pred = [False] * D
    in_chain = [False] * D
    faced = [False] * D
    seen_keys: set[tuple] = set()

    state = {"n_alloc": 2, "closed": 0}

    def candidates(x: int, chain_len: int, target: int, x0: int):
        a = alpha[x]
        if sigma[a] is not None:
            return
        if chain_len == target:
            if not has_pred[x0]:
                yield x0
            return
        for y in range(state["n_alloc"]):
            if not has_pred[y] and not in_chain[y]:
                yield y
        if state["n_alloc"] < D:
            yield state["n_alloc"]

    def close_face(chain: list[int]) -> None:
        for d in chain:
            faced[d] = True
        state["closed"] += len(chain)

    def open_face(chain: list[int]) -> None:
        for d in chain:
            faced[d] = False
        state["closed"] -= len(chain)

    def build_chain(chain: list[int], x0: int, target: int):
        x = chain[-1]
        a = alpha[x]
        for y in candidates(x, len(chain), target, x0):
            fresh = y >= state["n_alloc"]
            closing = y == x0 and len(chain) == target
            if fresh:
                state["n_alloc"] += 2
            sigma[a] = y
            has_pred[y] = True
            if closing:
                close_face(chain)
                yield from next_face()
                open_face(chain)
            else:
                chain.append(y)
                in_chain[y] = True
                yield from build_chain(chain, x0, target)
                in_chain[y] = False
                chain.pop()
            sigma[a] = None
            has_pred[y] = False
            if fresh:
                state["n_alloc"] -= 2

    def next_face():
        anchor = -1
        for d in range(state["n_alloc"]):
            if not faced[d]:
                anchor = d
                break
        if anchor < 0:
            if state["n_alloc"] == D:
                yield from emit()
            return
        remaining = D - state["closed"]
        if remaining < 3 or remaining % 3:
            return
        in_chain[anchor] = True
        yield from build_chain([anchor], anchor, 3)
        in_chain[anchor] = False

    def emit():
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
        yield m

    # root face first: the face through dart alpha[0] = 1, of degree p_root
    remaining = D - p_root
    if remaining % 3 or remaining < 0:
        return
    in_chain[1] = True
    yield from build_chain([1], 1, p_root)
    in_chain[1] = False
