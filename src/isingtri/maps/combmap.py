"""Rooted combinatorial maps with spins.

A map is a pair of permutations on darts 0..2E-1: `alpha` (a fixed-point-free
involution pairing the two darts of each edge) and `sigma` (the
counterclockwise rotation of darts around their tail vertex), plus a root
dart.  Faces are the cycles of phi = sigma o alpha; with counterclockwise
rotations each face lies to the left of its darts, so the root face (the face
to the right of the root edge) is the phi-cycle through alpha[root].

The boundary word is read starting at the target of the root edge and walking
the root face away from the root vertex, i.e. along phi^{-1}; the root edge
therefore joins the last letter (root vertex) to the first letter (target).
See CONVENTIONS.md for how this anchoring was validated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

PLUS = 1
MINUS = -1

_SPIN_CHAR = {PLUS: "+", MINUS: "-"}
_CHAR_SPIN = {"+": PLUS, "-": MINUS, "⊕": PLUS, "⊖": MINUS}


def word_to_spins(word: str) -> tuple[int, ...]:
    try:
        return tuple(_CHAR_SPIN[ch] for ch in word)
    except KeyError as exc:
        raise ValueError(f"invalid spin letter in word {word!r}") from exc


def spins_to_word(spins: Iterable[int]) -> str:
    return "".join(_SPIN_CHAR[s] for s in spins)


def flip_word(word: str) -> str:
    return "".join("-" if ch == "+" else "+" for ch in normalize_word(word))


def normalize_word(word: str) -> str:
    return spins_to_word(word_to_spins(word))


class InvalidMap(ValueError):
    pass


class CombMap:
    """A rooted map: dart permutations, root dart and optional vertex spins.

    Equality and hashing are by value over (alpha, sigma, root, spins).  The
    vertex table and the face list are computed on first use and kept: a map
    is never mutated.
    """

    __slots__ = ("alpha", "sigma", "root", "spins", "_vertex_of", "_faces")

    def __init__(self, alpha: Sequence[int], sigma: Sequence[int], root: int = 0,
                 spins: Sequence[int] | None = None):
        self.alpha = tuple(alpha)
        self.sigma = tuple(sigma)
        self.root = root
        self.spins = None if spins is None else tuple(spins)   # indexed by vertex id
        self._vertex_of: tuple[int, ...] | None = None
        self._faces: tuple[tuple[int, ...], ...] | None = None

    def _key(self) -> tuple:
        return self.alpha, self.sigma, self.root, self.spins

    def __eq__(self, other) -> bool:
        if other.__class__ is not CombMap:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"CombMap(alpha={self.alpha!r}, sigma={self.sigma!r}, "
                f"root={self.root!r}, spins={self.spins!r})")

    @property
    def n_darts(self) -> int:
        return len(self.alpha)

    @property
    def n_edges(self) -> int:
        return len(self.alpha) // 2

    # -- derived structure ------------------------------------------------

    def vertex_of(self) -> tuple[int, ...]:
        """Dart -> vertex id; vertices numbered by least contained dart order."""
        if self._vertex_of is None:
            sigma = self.sigma
            out = [-1] * len(sigma)
            vid = 0
            for d in range(len(sigma)):
                if out[d] >= 0:
                    continue
                e = d
                while out[e] < 0:
                    out[e] = vid
                    e = sigma[e]
                vid += 1
            self._vertex_of = tuple(out)
        return self._vertex_of

    def n_vertices(self) -> int:
        return max(self.vertex_of()) + 1 if self.n_darts else 0

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Cycles of phi = sigma o alpha, each listed from its least dart."""
        if self._faces is None:
            alpha, sigma = self.alpha, self.sigma
            n = len(alpha)
            seen = [False] * n
            out = []
            for d in range(n):
                if seen[d]:
                    continue
                cyc = []
                e = d
                while not seen[e]:
                    seen[e] = True
                    cyc.append(e)
                    e = sigma[alpha[e]]
                out.append(tuple(cyc))
            self._faces = tuple(out)
        return self._faces

    def root_face(self) -> list[int]:
        """Darts of the face to the right of the root edge, in phi order."""
        start = self.alpha[self.root]
        cyc = [start]
        e = self.sigma[self.alpha[start]]
        while e != start:
            cyc.append(e)
            e = self.sigma[self.alpha[e]]
        return cyc

    def boundary_darts(self) -> list[int]:
        """Root-face darts in boundary-word order (phi^{-1} from alpha[root])."""
        cyc = self.root_face()
        return [cyc[0]] + cyc[:0:-1]

    def boundary_vertices(self) -> list[int]:
        vo = self.vertex_of()
        return [vo[d] for d in self.boundary_darts()]

    def boundary_word(self) -> str:
        if self.spins is None:
            raise InvalidMap("map carries no spins")
        return spins_to_word(self.spins[v] for v in self.boundary_vertices())

    def monochromatic_count(self) -> int:
        """Number of edges with equal endpoint spins; loops always count."""
        if self.spins is None:
            raise InvalidMap("map carries no spins")
        vo = self.vertex_of()
        m = 0
        for d in range(self.n_darts):
            e = self.alpha[d]
            if d < e and self.spins[vo[d]] == self.spins[vo[e]]:
                m += 1
        return m

    def with_spins(self, spins: Iterable[int]) -> "CombMap":
        """The same rooted map with new vertex spins; derived tables carry over."""
        out = CombMap(self.alpha, self.sigma, self.root, tuple(spins))
        out._vertex_of, out._faces = self._vertex_of, self._faces
        return out

    def flipped_spins(self) -> "CombMap":
        if self.spins is None:
            raise InvalidMap("map carries no spins")
        return self.with_spins(-s for s in self.spins)

    # -- validation ---------------------------------------------------------

    def validate(self, kind: str = "sphere", p: int | None = None) -> None:
        """Raise InvalidMap unless this is a genus-0 triangulation of `kind`.

        kind: "sphere" (all faces triangles), "pgon" (root face simple of
        degree p, others triangles) or "nonsimple" (root face of degree p
        with no simplicity requirement).
        """
        alpha, sigma = self.alpha, self.sigma
        n = len(alpha)
        if n == 0 or n % 2:
            raise InvalidMap("dart count must be positive and even")
        darts = list(range(n))
        if sorted(alpha) != darts or sorted(sigma) != darts:
            raise InvalidMap("alpha and sigma must be permutations of the darts")
        for d in darts:
            e = alpha[d]
            if e == d or alpha[e] != d:
                raise InvalidMap("alpha must be a fixed-point-free involution")
        if not 0 <= self.root < n:
            raise InvalidMap("root dart out of range")

        # connectivity under <alpha, sigma>: the loop also visits what it appends
        seen = [False] * n
        seen[self.root] = True
        reached = [self.root]
        for d in reached:
            e = alpha[d]
            if not seen[e]:
                seen[e] = True
                reached.append(e)
            e = sigma[d]
            if not seen[e]:
                seen[e] = True
                reached.append(e)
        if len(reached) != n:
            raise InvalidMap("map is not connected")

        faces = self.faces()
        V = self.n_vertices()
        E = self.n_edges
        F = len(faces)
        if V - E + F != 2:
            raise InvalidMap(f"genus is not 0 (V={V}, E={E}, F={F})")

        # faces are listed from their least darts: the root face's is unique
        root_face = self.root_face()
        root_least = min(root_face)
        for cyc in faces:
            if len(cyc) != 3 and cyc[0] != root_least:
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
            if kind == "pgon":
                vo = self.vertex_of()
                if len({vo[d] for d in root_face}) != p:
                    raise InvalidMap("root face boundary is not simple")
        else:
            raise ValueError(f"unknown kind {kind!r}")

        if self.spins is not None and len(self.spins) != V:
            raise InvalidMap("spin table does not match vertex count")

    # -- canonical form -------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Breadth-first relabeling from the root dart; rooted-iso invariant."""
        n = self.n_darts
        new = [-1] * n
        order = [self.root]
        new[self.root] = 0
        head = 0
        nxt = 1
        while head < len(order):
            d = order[head]
            head += 1
            for e in (self.alpha[d], self.sigma[d]):
                if new[e] < 0:
                    new[e] = nxt
                    nxt += 1
                    order.append(e)
        alpha = [0] * n
        sigma = [0] * n
        for d in range(n):
            alpha[new[d]] = new[self.alpha[d]]
            sigma[new[d]] = new[self.sigma[d]]
        key: tuple = (tuple(alpha), tuple(sigma))
        if self.spins is not None:
            vo = self.vertex_of()
            spin_by_new_dart = [0] * n
            for d in range(n):
                spin_by_new_dart[new[d]] = self.spins[vo[d]]
            # vertex spins read off in canonical dart order
            key = key + (tuple(spin_by_new_dart),)
        return key

    # -- text format ------------------------------------------------------------

    def to_text(self) -> str:
        parts = [
            "alpha=[" + ",".join(map(str, self.alpha)) + "]",
            "sigma=[" + ",".join(map(str, self.sigma)) + "]",
            f"root={self.root}",
        ]
        if self.spins is not None:
            parts.append("spins=[" + ",".join(_SPIN_CHAR[s] for s in self.spins) + "]")
        return " ".join(parts)

    @classmethod
    def from_text(cls, line: str) -> "CombMap":
        fields = dict(part.split("=", 1) for part in line.split())
        alpha = tuple(int(x) for x in fields["alpha"].strip("[]").split(","))
        sigma = tuple(int(x) for x in fields["sigma"].strip("[]").split(","))
        root = int(fields["root"])
        spins = None
        if "spins" in fields:
            raw = fields["spins"].strip("[]")
            if raw:
                spins = tuple(_CHAR_SPIN[c] for c in raw.split(","))
        return cls(alpha, sigma, root, spins)

    def edges_as_vertex_pairs(self) -> list[tuple[int, int]]:
        vo = self.vertex_of()
        return [(vo[d], vo[self.alpha[d]]) for d in range(self.n_darts) if d < self.alpha[d]]
