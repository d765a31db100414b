"""Independent computations that the benchmark checks graphalg's outputs against.

Every function here reads graphs and elements only as data (vertices,
bundles, monomial terms) and never calls the graphalg code path it stands in
for: path counts come from a dynamic programme over bundle multiplicities,
irreducible pointed paths from a direct (length, lexicographic) listing,
normal forms from a hand-written special-edge rule, and products from a
representation on boundary paths or from stdlib matrix products.

Paths are plain tuples here: ``(base, ((label, index), ...))``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

INF = "inf"


# -- graph data ------------------------------------------------------------------


def mult_value(m) -> int | str:
    """A bundle multiplicity as an int, or ``"inf"``."""
    text = str(m)
    return INF if text == INF else int(text)


def mult_matrix(g) -> dict[tuple[str, str], int | str]:
    """Nonzero entries of the multiplicity matrix, summed over parallel bundles."""
    out: dict[tuple[str, str], int | str] = {}
    for b in g.bundles:
        key = (b.src, b.dst)
        old, new = out.get(key, 0), mult_value(b.mult)
        out[key] = INF if INF in (old, new) else old + new
    return out


def _alphabet(g, src: str, keep, cap: int) -> list[tuple[str, int]]:
    """Concrete edges of the kept bundles at src, in (label, index) order,
    infinite bundles cut after `cap` members."""
    edges = []
    for b in sorted((b for b in g.bundles if b.src == src and keep(b)), key=lambda b: b.label):
        m = mult_value(b.mult)
        edges.extend((b.label, i) for i in range(cap if m == INF else min(m, cap)))
    return edges


def irreducible_listing(g, v: str, w: str, count: int) -> list[tuple]:
    """The first `count` irreducible pointed paths v -> w: some self-loops at v
    followed by one edge v -> w, ordered by length, then lexicographically."""
    loops = _alphabet(g, v, lambda b: b.dst == v, count)
    links = _alphabet(g, v, lambda b: b.dst == w and w != v, count)
    out: list[tuple] = []
    if not links:
        return out
    j = 0
    while len(out) < count:
        for prefix in product(loops, repeat=j):
            for e in links:
                out.append((v, prefix + (e,)))
                if len(out) == count:
                    return out
        if not loops:
            return out
        j += 1
    return out


def bounded_paths_ending(g, max_len: int, max_index: int) -> dict[str, int]:
    """Number of paths of length <= max_len with edge indices <= max_index
    ending at each vertex, counted by a layer-by-layer programme."""
    layer = {v: 1 for v in g.vertices}
    total = dict(layer)
    for _ in range(max_len):
        nxt = {v: 0 for v in g.vertices}
        for b in g.bundles:
            m = mult_value(b.mult)
            width = max_index + 1 if m == INF else min(m, max_index + 1)
            nxt[b.dst] += layer[b.src] * width
        layer = nxt
        for v, n in layer.items():
            total[v] += n
    return total


def equal_range_pairs(g, max_len: int, max_index: int) -> int:
    """How many (alpha, beta) pairs of bounded paths share their range."""
    return sum(n * n for n in bounded_paths_ending(g, max_len, max_index).values())


# -- elements as data ------------------------------------------------------------------


def path_tuple(p) -> tuple:
    return (p.base, tuple((e.bundle, e.index) for e in p.edges))


def term_tuples(terms) -> dict[tuple, Fraction]:
    """A monomial -> coefficient map (or an iterable of pairs) as path tuples."""
    items = terms.items() if hasattr(terms, "items") else terms
    return {(path_tuple(m.alpha), path_tuple(m.beta)): Fraction(c) for m, c in items}


def star_terms(terms: dict[tuple, Fraction]) -> dict[tuple, Fraction]:
    return {(beta, alpha): c for (alpha, beta), c in terms.items()}


def prefix_comparable(a: tuple, b: tuple) -> bool:
    """Whether one path extends the other, by literal slice equality."""
    if a[0] != b[0]:
        return False
    n = min(len(a[1]), len(b[1]))
    return a[1][:n] == b[1][:n]


def special_edges(g) -> dict[str, tuple[str, int]]:
    """The maximal out-edge of every vertex with finitely many, and some, out-edges."""
    out: dict[str, tuple[str, int]] = {}
    for v in g.vertices:
        bundles = sorted((b for b in g.bundles if b.src == v), key=lambda b: b.label)
        mults = [mult_value(b.mult) for b in bundles]
        if bundles and INF not in mults:
            out[v] = (bundles[-1].label, mults[-1] - 1)
    return out


def reducible_terms(g, terms: dict[tuple, Fraction]) -> list[tuple]:
    """Monomials whose halves both end in the same special edge, at the same
    (final) position; a normal form has none."""
    special = special_edges(g)
    src = {b.label: b.src for b in g.bundles}
    bad = []
    for alpha, beta in terms:
        if alpha[1] and beta[1] and alpha[1][-1] == beta[1][-1]:
            e = alpha[1][-1]
            if special.get(src[e[0]]) == e:
                bad.append((alpha, beta))
    return bad


# -- the boundary-path representation ---------------------------------------------------


def boundary_prefixes(g, depth: int) -> list[tuple]:
    """Every path of length `depth`, plus every shorter path ending at a sink.

    On graphs where each non-sink vertex starts an infinite path, these stand
    for all boundary paths: a representation operator whose monomials have
    star halves of length <= depth acts on a boundary path through its first
    `depth` edges only, and carries the rest along unchanged.
    """
    out_edges: dict[str, list[tuple[tuple[str, int], str]]] = {v: [] for v in g.vertices}
    for b in sorted(g.bundles, key=lambda b: b.label):
        m = mult_value(b.mult)
        if m == INF:
            raise ValueError(f"bundle {b.label} is infinite; the boundary representation needs finite graphs")
        out_edges[b.src].extend(((b.label, i), b.dst) for i in range(m))
    found = []
    frontier = [((v, ()), v) for v in g.vertices]
    for length in range(depth + 1):
        nxt = []
        for path, at in frontier:
            if length == depth or not out_edges[at]:
                found.append(path)
                continue
            for e, dst in out_edges[at]:
                nxt.append(((path[0], path[1] + (e,)), dst))
        frontier = nxt
    return found


# coefficients are compared modulo this prime, which keeps the representation
# in machine-word integers; two rationals whose difference has a numerator
# below it in size still compare exactly
PRIME = 2**61 - 1


def _mod(c: Fraction) -> int:
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def _index_by_beta(terms: dict[tuple, Fraction]) -> dict[tuple, list[tuple[tuple, int]]]:
    index: dict[tuple, list[tuple[tuple, int]]] = {}
    for (alpha, beta), c in terms.items():
        index.setdefault(beta, []).append((alpha, _mod(c)))
    return index


def _act(index, vector: dict[tuple, int]) -> dict[tuple, int]:
    """Apply sum c S_alpha S_beta* to a vector of boundary paths: a path
    beta.rest goes to alpha.rest, any other path to zero."""
    out: dict[tuple, int] = {}
    for (base, edges), c0 in vector.items():
        for cut in range(len(edges) + 1):
            for alpha, c in index.get((base, edges[:cut]), ()):
                key = (alpha[0], alpha[1] + edges[cut:])
                out[key] = (out.get(key, 0) + c0 * c) % PRIME
    return {k: v for k, v in out.items() if v}


def star_half_depth(*term_maps: dict[tuple, Fraction]) -> int:
    return max((len(beta[1]) for terms in term_maps for _, beta in terms), default=0)


def boundary_mismatch(g, left: list[dict], right: list[dict], depth: int) -> tuple | None:
    """First boundary prefix on which the operator products differ, or None.

    `left` and `right` are lists of term maps whose operators are composed
    right to left (the last map acts first).  Exhaustive over the prefixes of
    length `depth`, so `depth` must cover every star half met along the way.
    """
    left_ix = [_index_by_beta(t) for t in left]
    right_ix = [_index_by_beta(t) for t in right]
    for mu in boundary_prefixes(g, depth):
        a = {mu: 1}
        for ix in reversed(left_ix):
            a = _act(ix, a)
        b = {mu: 1}
        for ix in reversed(right_ix):
            b = _act(ix, b)
        if a != b:
            return mu
    return None


# -- matrices ------------------------------------------------------------------------------


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in cols] for row in a]


def transpose(a: list[list[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]
