"""Irreducible pointed paths and their canonical enumeration.

A pointed path is irreducible when it does not split into two pointed paths
of positive length, which happens exactly when every edge before the last is
a self-loop.  An irreducible pointed path from v to w therefore has the shape

    (self-loop at v)^j . (non-self-loop edge v -> w)

The canonical enumeration orders these by (length, lexicographic on
(label, index)).  Ranks are mixed-radix numerals (Knuth, TAOCP 4A, 7.2.1):
the loop prefix read as a bijective base-|loops| numeral, whose digits are
the loop positions plus one, times |links|, plus the position of the link.
That is the |links|.(1 + |loops| + ... + |loops|^(j-1)) paths of the layers
before layer j plus the lexicographic position inside it, and unranking
reads the digits back off with divmod.

An infinite alphabet is radix infinity, with divmod(x, inf) = (0, x), and an
edge after an infinite bundle has no finite position: such ranks are `INF`.
So an infinite link alphabet leaves only layer 0 at finite ranks, and an
infinite loop alphabet only layers 0 and 1, as the enumeration lists them.
"""

from __future__ import annotations

from .core import INF, Bundle, Edge, ExtNat, Graph, Path


class _Alphabet:
    """Edges of some bundles in (label, index) order.  `size` is their number,
    None when infinite; `edge_at` and `position` convert between edges and
    int positions."""

    __slots__ = ("bundles", "size", "_mults", "_offsets")

    def __init__(self, bundles: tuple[Bundle, ...]):
        self.bundles = bundles
        self._mults = tuple(b.mult.finite() if b.mult.is_finite else None for b in bundles)
        self._offsets: dict[str, int | None] = {}
        at: int | None = 0
        for b, n in zip(bundles, self._mults):
            self._offsets[b.label] = at
            at = None if at is None or n is None else at + n
        self.size = at

    def edge_at(self, pos: int) -> Edge:
        """The edge at position pos, which stops inside the first infinite bundle."""
        for b, n in zip(self.bundles, self._mults):
            if n is None or pos < n:
                return Edge(b.label, pos)
            pos -= n
        raise ValueError(f"alphabet has only {self.size} edges")

    def position(self, e: Edge) -> int | None:
        """The position of e; None when an infinite bundle comes before it."""
        if e.bundle not in self._offsets:
            raise ValueError(f"edge {e} not in alphabet")
        at = self._offsets[e.bundle]
        return None if at is None else at + e.index


def _divmod(x: int, radix: int | None) -> tuple[int, int]:
    """divmod by a radix that may be infinite (None): divmod(x, inf) = (0, x)."""
    return (0, x) if radix is None else divmod(x, radix)


def _alphabets(g: Graph, v: str, w: str) -> tuple[_Alphabet, _Alphabet]:
    """The loop alphabet at v and the link alphabet v -> w, built once per
    graph into its derived data."""
    key = ("pointed alphabets", v, w)
    found = g.derived.get(key)
    if found is None:
        out = g.out_bundles(v)
        loops = tuple(b for b in out if b.is_self_loop)
        links = tuple(b for b in out if b.dst == w and not b.is_self_loop)
        found = g.derived[key] = (_Alphabet(loops), _Alphabet(links))
    return found


def irreducible_pointed_count(g: Graph, v: str, w: str) -> ExtNat:
    """How many irreducible pointed paths run from v to w.

    Zero when v == w; otherwise the count of non-self-loop edges v -> w if v
    carries no self-loop, and infinite as soon as v carries both a self-loop
    and such an edge (the loop prefix pumps).
    """
    g.require_vertex(v)
    g.require_vertex(w)
    if v == w:
        return ExtNat(0)
    loops, links = _alphabets(g, v, w)
    if links.size == 0 or (loops.size == 0 and links.size is not None):
        return ExtNat(links.size)
    return INF


def irreducible_pointed_at(g: Graph, v: str, w: str, k: int) -> Path:
    """The k-th irreducible pointed path v -> w in canonical order."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    loops, links = _alphabets(g, v, w)
    if links.size != 0:
        numeral, link = _divmod(k, links.size)
        digits: list[Edge] = []  # least significant first
        while numeral and loops.size != 0:
            numeral, d = _divmod(numeral - 1, loops.size)
            digits.append(loops.edge_at(d))
        if not numeral:
            return Path(v, tuple(reversed(digits)) + (links.edge_at(link),))
    raise ValueError(f"only {irreducible_pointed_count(g, v, w)} irreducible pointed paths {v} -> {w}, rank {k} requested")


def irreducible_pointed_rank(g: Graph, block: Path) -> ExtNat:
    """Canonical rank of an irreducible pointed path, infinite when the path
    sits past every finite position (some earlier layer is infinite)."""
    if not block.edges:
        raise ValueError("a vertex path has no canonical rank")
    loops, links = _alphabets(g, block.base, g.path_range(block))
    digits = [(loops.size, loops.position(e), 1) for e in block.edges[:-1]]
    digits.append((links.size, links.position(block.edges[-1]), 0))
    numeral = 0
    for radix, pos, offset in digits:
        if pos is None or (numeral and radix is None):
            return INF  # past an infinite bundle or an infinite layer
        numeral = (numeral * radix if numeral else 0) + pos + offset
    return ExtNat(numeral)


def split_pointed_blocks(g: Graph, p: Path) -> list[Path] | None:
    """Split a path into irreducible pointed blocks '(self-loops)* non-loop'.

    Returns None when trailing self-loops remain, i.e. when p is not pointed.
    The split is the unique one because the block code is prefix-free.
    """
    blocks: list[Path] = []
    at = p.base
    pending: list[Edge] = []
    for e in p.edges:
        pending.append(e)
        if not g.bundle(e.bundle).is_self_loop:
            blocks.append(Path(at, tuple(pending)))
            pending = []
            at = g.edge_dst(e)
    if pending:
        return None
    return blocks
