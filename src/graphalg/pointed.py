"""Irreducible pointed paths and their canonical enumeration.

A pointed path is irreducible when it does not split into two pointed paths
of positive length, which happens exactly when every edge before the last is
a self-loop.  An irreducible pointed path from v to w therefore has the shape

    (self-loop at v)^j . (non-self-loop edge v -> w)

The canonical enumeration orders these by (length, lexicographic on
(label, index)); ranks live in the extended naturals because layers may be
infinite, in which case later layers are past every finite position.

When both alphabets are finite, ranks are mixed-radix numerals (Knuth,
TAOCP 4A, 7.2.1).  Layer j holds |links|.|loops|^j paths, so the layers
before it hold |links|.(1 + |loops| + ... + |loops|^(j-1)) of them; adding
the lexicographic position of the loop prefix, a base-|loops| numeral of j
digits, gives the bijective base-|loops| numeral whose digits are the loop
positions plus one.  A rank is that numeral times |links| plus the position
of the link, and unranking reads the digits back off with divmod.  Only
infinite alphabets fall back to enumeration and extended-natural sums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .core import INF, Bundle, Edge, ExtNat, Graph, Path


class _Alphabet:
    """Edges of some bundles in (label, index) order.  `count` is their
    number; when it is finite, `size` holds it as an int and `edge_at` and
    `position` convert between edges and int positions."""

    __slots__ = ("bundles", "count", "size", "_mults")

    def __init__(self, bundles: tuple[Bundle, ...]):
        self.bundles = bundles
        self.count = sum((b.mult for b in bundles), ExtNat(0))
        self.size = self.count.finite() if self.count.is_finite else None
        self._mults = tuple(b.mult.finite() for b in bundles) if self.size is not None else ()

    def edge_at(self, pos: int) -> Edge:
        for b, n in zip(self.bundles, self._mults):
            if pos < n:
                return Edge(b.label, pos)
            pos -= n
        raise ValueError(f"alphabet has only {self.size} edges")

    def position(self, e: Edge) -> int:
        at = 0
        for b, n in zip(self.bundles, self._mults):
            if b.label == e.bundle:
                return at + e.index
            at += n
        raise ValueError(f"edge {e} not in alphabet")


@lru_cache(maxsize=256)
def _alphabets(g: Graph, v: str, w: str) -> tuple[_Alphabet, _Alphabet]:
    """The loop alphabet at v and the link alphabet v -> w; memoised per
    (graph, v, w) in a bounded cache."""
    out = g.out_bundles(v)
    loops = tuple(b for b in out if b.is_self_loop)
    links = tuple(b for b in out if b.dst == w and not b.is_self_loop)
    return _Alphabet(loops), _Alphabet(links)


def _iter_alphabet(bundles: tuple[Bundle, ...]) -> Iterator[Edge]:
    """Concrete edges in (label, index) order; never ends past an infinite bundle."""
    for b in bundles:
        if b.mult.is_finite:
            for i in range(b.mult.finite()):
                yield Edge(b.label, i)
        else:
            i = 0
            while True:
                yield Edge(b.label, i)
                i += 1


def _edge_rank(bundles: tuple[Bundle, ...], e: Edge) -> ExtNat:
    """Position of e in the (label, index)-ordered alphabet."""
    acc = ExtNat(0)
    for b in bundles:
        if b.label == e.bundle:
            return acc + e.index
        acc = acc + b.mult
    raise ValueError(f"edge {e} not in alphabet")


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
    if links.count == 0:
        return ExtNat(0)
    if loops.count == 0:
        return links.count
    return INF


def _lex_sequences(bundles: tuple[Bundle, ...], length: int) -> Iterator[tuple[Edge, ...]]:
    if length == 0:
        yield ()
        return
    for e in _iter_alphabet(bundles):
        for rest in _lex_sequences(bundles, length - 1):
            yield (e,) + rest


def iter_irreducible_pointed(g: Graph, v: str, w: str) -> Iterator[Path]:
    """Irreducible pointed paths v -> w in canonical order.

    With infinite bundles involved this yields exactly the paths of finite
    canonical rank, in rank order.
    """
    loops, links = (a.bundles for a in _alphabets(g, v, w))
    if not links:
        return
    prefix_len = 0
    while True:
        for seq in _lex_sequences(loops, prefix_len):
            for e in _iter_alphabet(links):
                yield Path(v, seq + (e,))
        if not loops:
            return
        prefix_len += 1


def irreducible_pointed_at(g: Graph, v: str, w: str, k: int) -> Path:
    """The k-th irreducible pointed path v -> w in canonical order."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    loops, links = _alphabets(g, v, w)
    if loops.size is None or links.size is None:
        for i, p in enumerate(iter_irreducible_pointed(g, v, w)):
            if i == k:
                return p
    elif links.size:
        numeral, link = divmod(k, links.size)
        digits: list[Edge] = []  # least significant first
        while numeral and loops.size:
            numeral, d = divmod(numeral - 1, loops.size)
            digits.append(loops.edge_at(d))
        if not numeral:
            return Path(v, tuple(reversed(digits)) + (links.edge_at(link),))
    raise ValueError(f"only {irreducible_pointed_count(g, v, w)} irreducible pointed paths {v} -> {w}, rank {k} requested")


def irreducible_pointed_rank(g: Graph, block: Path) -> ExtNat:
    """Canonical rank of an irreducible pointed path, infinite when the path
    sits past every finite position (some earlier layer is infinite)."""
    if not block.edges:
        raise ValueError("a vertex path has no canonical rank")
    v = block.base
    loops, links = _alphabets(g, v, g.path_range(block))
    if loops.size is not None and links.size is not None:
        numeral = 0
        for e in block.edges[:-1]:
            numeral = numeral * loops.size + loops.position(e) + 1
        return ExtNat(numeral * links.size + links.position(block.edges[-1]))
    j = len(block.edges) - 1
    loop_size, link_size = loops.count, links.count
    rank = ExtNat(0)
    for i in range(j):
        rank = rank + loop_size**i * link_size
    lex = ExtNat(0)
    for t in range(j):
        lex = lex + _edge_rank(loops.bundles, block.edges[t]) * loop_size ** (j - 1 - t)
    return rank + lex * link_size + _edge_rank(links.bundles, block.edges[-1])


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
