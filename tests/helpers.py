"""Shared independent oracles and random generators for the test suite.

The oracles deliberately avoid the code paths they check: comparability is
decided by literal slice equality, and irreducible counts by enumerating
paths and trying every split point.
"""

from __future__ import annotations

import hashlib
import itertools
import pathlib
import random
from fractions import Fraction

from graphalg.algebra import AlgebraElement, Monomial
from graphalg.catalog import STANDARD_INSTANCES, parse_catalog_spec
from graphalg.core import (
    INF,
    Edge,
    ExtNat,
    Graph,
    Path,
    Prolongation,
    all_paths,
    enumerate_paths,
    format_path,
    is_pointed,
    make_graph,
    prolongation_compare,
)
from graphalg.functors import format_edge_error
from graphalg.io import certificate_to_json
from graphalg.resolution import Bounds, verify_pullback


def prefix_oracle(a: Path, b: Path) -> bool:
    """Comparability by raw slice equality, independent of prolongation_compare."""
    if a.base != b.base:
        return False
    n = min(len(a.edges), len(b.edges))
    return a.edges[:n] == b.edges[:n]


def splits_into_pointed(g: Graph, p: Path) -> bool:
    """Whether some split point yields two pointed halves of positive length."""
    for i in range(1, len(p.edges)):
        head = Path(p.base, p.edges[:i])
        tail = Path(g.edge_src(p.edges[i]), p.edges[i:])
        if is_pointed(g, head) and is_pointed(g, tail):
            return True
    return False


def _concrete_edges(g: Graph, v: str):
    out = []
    for b in g.out_bundles(v):
        for i in range(b.mult.finite()):
            out.append(Edge(b.label, i))
    return out


def brute_irreducible_count(g: Graph, v: str, w: str) -> ExtNat:
    """Count irreducible pointed paths v -> w by pruned enumeration.

    Irreducible means no split point gives two pointed halves of positive
    length.  A completed path with a pointed proper head always splits (the
    tail inherits the full path's final edge), so the search only extends
    prefixes none of whose proper heads are pointed; such prefixes never
    leave v, hence every completion ends with a single non-self-loop edge
    v -> w.  Any completion of length >= 2 pumps its self-loop prefix, so one
    occurrence means infinitely many.
    """
    bound = 2 * len(g.vertices) + 2
    frontier = [Path(v)]
    completions: list[Path] = []
    for _ in range(bound):
        nxt = []
        level: list[Path] = []
        for q in frontier:
            for e in _concrete_edges(g, g.path_range(q)):
                p = Path(v, q.edges + (e,))
                if g.path_range(p) == w and is_pointed(g, p) and not splits_into_pointed(g, p):
                    level.append(p)
                if not is_pointed(g, p):
                    nxt.append(p)
        completions.extend(level)
        if any(len(p.edges) >= 2 for p in level):
            return INF
        if not completions:
            # no single-edge completion exists, and any longer completion
            # would end with exactly such an edge from the stationary frontier
            return ExtNat(0)
        if not nxt:
            return ExtNat(len(completions))
        frontier = nxt
    return ExtNat(len(completions))


def random_graph(rng: random.Random, max_vertices: int = 5, max_bundles: int = 7, max_mult: int = 3) -> Graph:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(rng.randint(0, max_bundles)):
        src = rng.choice(vertices)
        dst = rng.choice(vertices)
        edges.append((f"b{i}", src, dst, rng.randint(1, max_mult)))
    return make_graph(f"rand{rng.randint(0, 10**6)}", vertices, edges)


def random_acyclic_graph(rng: random.Random, max_vertices: int = 5, max_bundles: int = 6, max_mult: int = 3) -> Graph:
    """Random DAG: bundles only run from earlier to later vertices."""
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(rng.randint(1, max_bundles)):
        a, b = sorted(rng.sample(range(n), 2))
        edges.append((f"b{i}", vertices[a], vertices[b], rng.randint(1, max_mult)))
    return make_graph(f"dag{rng.randint(0, 10**6)}", vertices, edges)


def random_path(g: Graph, rng: random.Random, max_len: int = 4, max_index: int = 3) -> Path:
    start = rng.choice(g.vertices)
    paths = enumerate_paths(g, start, max_len=max_len, max_index=max_index)
    return rng.choice(paths)


def random_monomial(g: Graph, rng: random.Random, max_len: int = 3, max_index: int = 2) -> Monomial | None:
    """A random monomial with matching ranges, or None when the draw fails."""
    alpha = random_path(g, rng, max_len, max_index)
    target = g.path_range(alpha)
    candidates = []
    for v in g.vertices:
        candidates.extend(
            p for p in enumerate_paths(g, v, target, max_len=max_len, max_index=max_index)
        )
    if not candidates:
        return None
    return Monomial(alpha, rng.choice(candidates))


def random_terms(g: Graph, rng: random.Random, terms: int = 3, max_len: int = 3, max_index: int = 2) -> dict[Monomial, Fraction]:
    """A raw (possibly rewritable) term map."""
    acc: dict[Monomial, Fraction] = {}
    for _ in range(terms):
        m = random_monomial(g, rng, max_len, max_index)
        if m is None:
            continue
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if coeff:
            acc[m] = acc.get(m, Fraction(0)) + coeff
    return {m: c for m, c in acc.items() if c}


def random_element(g: Graph, rng: random.Random, terms: int = 3, max_len: int = 3, max_index: int = 2) -> AlgebraElement:
    return AlgebraElement(g, random_terms(g, rng, terms, max_len, max_index))


# -- the three separate preimage passes that the single round-trip scan replaced --


def oracle_image_pointed(functor, bounds, witnesses: list[str]) -> bool:
    """Both directions of "the image is the pointed paths", within bounds."""
    ok = True
    for b in functor.source.bundles:
        top = b.mult.finite() - 1 if b.mult.is_finite else bounds.max_index
        for i in range(min(top, bounds.max_index) + 1):
            image = functor.eval_edge(Edge(b.label, i))
            if not is_pointed(functor.target, image):
                ok = False
                witnesses.append(f"image of {b.label}[{i}] is not pointed: {format_path(image)}")
    for p in all_paths(functor.target, max_len=bounds.max_len, max_index=bounds.max_index):
        if not p.edges or not is_pointed(functor.target, p):
            continue
        q = functor.decode(p)
        if q is None or functor.eval_path(q) != p:
            ok = False
            witnesses.append(f"pointed path {format_path(p)} is not decodable to a preimage")
    return ok


def oracle_kernel_inclusion(functor, members: frozenset[str], bounds, witnesses: list[str]) -> bool:
    """Every bounded path ranging outside the subgraph decodes and re-evaluates to itself."""
    ok = True
    checked = 0
    for p in all_paths(functor.target, max_len=bounds.max_len, max_index=bounds.max_index):
        if functor.target.path_range(p) in members:
            continue
        checked += 1
        q = functor.decode(p)
        if q is None or functor.eval_path(q) != p:
            ok = False
            witnesses.append(f"kernel path {format_path(p)} has no preimage under the functor")
    if checked == 0 and ok:
        witnesses.append("kernel inclusion holds vacuously: no bounded path ranges outside the subgraph")
    return ok


def oracle_attach_paths(functor, image: set[str], bounds, witnesses: list[str]) -> bool:
    """Every bounded path of positive length into the attach image is in the functor image."""
    ok = True
    for p in all_paths(functor.target, max_len=bounds.max_len, max_index=bounds.max_index):
        if not p.edges or functor.target.path_range(p) not in image:
            continue
        q = functor.decode(p)
        if q is None or functor.eval_path(q) != p:
            ok = False
            witnesses.append(f"path {format_path(p)} into the attach image is not in the functor image")
    return ok


# -- the enumerate-to-k unranking that the mixed-radix closed form replaced --


def _oracle_letters(bundles):
    """Concrete edges in (label, index) order; never ends past an infinite bundle."""
    for b in bundles:
        i = 0
        while not b.mult.is_finite or i < b.mult.finite():
            yield Edge(b.label, i)
            i += 1


def _oracle_words(bundles, length: int):
    if length == 0:
        yield ()
        return
    for e in _oracle_letters(bundles):
        for rest in _oracle_words(bundles, length - 1):
            yield (e,) + rest


def oracle_iter_pointed(g: Graph, v: str, w: str):
    """Irreducible pointed paths v -> w in canonical order, layer by layer:
    every word of j self-loops at v, lexicographically, then each link."""
    loops = tuple(b for b in g.out_bundles(v) if b.is_self_loop)
    links = tuple(b for b in g.out_bundles(v) if b.dst == w and not b.is_self_loop)
    if not links:
        return
    j = 0
    while True:
        for word in _oracle_words(loops, j):
            for e in _oracle_letters(links):
                yield Path(v, word + (e,))
        if not loops:
            return
        j += 1


def oracle_pointed_at(g: Graph, v: str, w: str, k: int) -> Path:
    """The k-th irreducible pointed path, found by enumerating the k before it."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    count = 0
    for count, p in enumerate(oracle_iter_pointed(g, v, w), start=1):
        if count - 1 == k:
            return p
    raise ValueError(f"only {count} irreducible pointed paths {v} -> {w}, rank {k} requested")


# -- the bounded scan that decided condition 1 before the local prefix-code test --


def oracle_functor_conditions(f, *, max_len: int, max_index: int) -> tuple[bool, bool, tuple[str, ...]]:
    """(cond1_ok, cond2_ok, failures), condition 1 from every bounded source
    path's image and its image-prefixes, condition 2 per regular vertex."""
    failures: list[str] = []
    image_of: dict[Path, Path] = {}
    cond1_ok = True
    images: list[tuple[Path, Path]] = []
    for q in all_paths(f.source, max_len=max_len, max_index=max_index):
        img = f.eval_path(q)
        if img in image_of and image_of[img] != q:
            cond1_ok = False
            failures.append(f"cond1: {format_path(image_of[img])} and {format_path(q)} share the image {format_path(img)}")
            continue
        image_of[img] = q
        images.append((q, img))
    for q, img in images:
        for cut in range(len(img.edges) + 1):
            other = image_of.get(Path(img.base, img.edges[:cut]))
            if other is None:
                continue
            if prolongation_compare(other, q) not in (Prolongation.EQUAL, Prolongation.A_PREFIX_OF_B):
                cond1_ok = False
                failures.append(
                    f"cond1: f({format_path(other)}) precedes f({format_path(q)}) but {format_path(other)} does not precede {format_path(q)}"
                )

    cond2_ok = True
    for v in f.source.vertices:
        deg = f.source.out_degree(v)
        if not (deg.is_finite and deg > 0):
            continue
        fv = f.vertex_image(v)
        if not f.target.out_degree(fv).is_finite:
            cond2_ok = False
            failures.append(f"cond2: {v} emits finitely many edges but its image {fv} emits infinitely many")
            continue
        image_edges = []
        for e in (Edge(b.label, i) for b in f.source.out_bundles(v) for i in range(b.mult.finite())):
            img = f.eval_edge(e)
            if len(img.edges) != 1:
                cond2_ok = False
                failures.append(f"cond2: image of {format_edge_error(e)} at regular vertex {v} is not an edge")
                break
            image_edges.append(img.edges[0])
        else:
            target_edges = [Edge(b.label, i) for b in f.target.out_bundles(fv) for i in range(b.mult.finite())]
            if len(set(image_edges)) != len(image_edges) or set(image_edges) != set(target_edges):
                cond2_ok = False
                failures.append(f"cond2: out-edges of {v} do not biject onto out-edges of {fv}")
    return cond1_ok, cond2_ok, tuple(failures)


# -- golden certificate digests ------------------------------------------------


GOLDEN_FILE = pathlib.Path(__file__).parent / "golden" / "certificates.txt"
GOLDEN_BOUNDS = (Bounds(6, 4), Bounds(3, 2), Bounds(0, 2), Bounds(1, 0))


def _golden_cases():
    """(graph spec or name, graph, F2 members, bounds): every catalog standard
    instance over every vertex subset at each golden bound, plus the two
    minimal infinite-alphabet graphs over {v}, whose order is not of type omega."""
    for spec in STANDARD_INSTANCES:
        g = parse_catalog_spec(spec)
        subsets = [c for n in range(len(g.vertices) + 1) for c in itertools.combinations(g.vertices, n)]
        for members, bounds in itertools.product(subsets, GOLDEN_BOUNDS):
            yield spec, g, members, bounds
    two_inf = make_graph("two_inf", ["v", "w"], [("a", "v", "w", "inf"), ("b", "v", "w", "inf")])
    inf_loop = make_graph("inf_loop", ["v", "w"], [("l", "v", "v", "inf"), ("p", "v", "w", 1)])
    for g in (two_inf, inf_loop):
        yield g.name, g, ("v",), Bounds(4, 2)


def golden_certificates() -> dict[str, tuple[str, str]]:
    """Case key -> (verdict, sha256 of certificate_to_json) for every golden case."""
    out = {}
    for name, g, members, bounds in _golden_cases():
        cert = verify_pullback(g, members, bounds)
        key = f"{name} {{{','.join(members)}}} ({bounds.max_len},{bounds.max_index})"
        digest = hashlib.sha256(certificate_to_json(cert).encode()).hexdigest()
        out[key] = ("verified" if cert.verified else "failed", digest)
    return out
