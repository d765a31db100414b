"""Functors between graphs viewed as path categories.

A functor sends vertices to vertices and edges to finite paths, extended
multiplicatively to all paths.  Edge images are specified per bundle by one
of three rules:

* `TemplateRule`: an explicit factor sequence per bundle, where a factor is
  a target bundle with a fixed index, the source edge index, or a power of a
  self-loop bundle bound to the source edge index.
* `CanonicalRule`: the edge of index k maps to the k-th irreducible pointed
  path between the image vertices, in canonical order.  This is the functor
  shape produced by resolutions.
* `ExtensionRule`: act as a base functor on `E:`-prefixed bundles and as the
  identity on `H:`-prefixed ones; produced by sink-amalgamated pushouts.

`decode` inverts `eval_path` for canonical and extension rules.  For
canonical rules the image blocks form a prefix-free code, so decoding splits
a path into blocks "(self-loops)* non-self-loop" and inverts the enumeration
blockwise; it succeeds exactly on the zero-length and pointed paths of finite
block rank.  `round_trips` memoises "decodes and evaluates back" per path, so
every check that needs a preimage shares one decode per distinct path.

Condition 1 of `check_functor_conditions` (f(p) <= f(q) implies p <= q) is
local.  If the vertex map is injective and, at each source vertex, the
out-edge images are valid non-empty target paths with the right endpoints
that form a prefix code, then induction on the common prefix gives the
condition for source paths of every length whose edge indices are at most
max_index.  Sorted, comparable codewords are adjacent, so the test costs a
sort per vertex (Sardinas-Patterson 1953; Berstel-Perrin-Reutenauer, *Codes
and Automata*, 2010, ch. 2).  When the test fails, the bounded scan over
source paths decides and writes the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import Edge, Graph, Path, Prolongation, all_paths, concat, format_path, prolongation_compare
from .pointed import (
    irreducible_pointed_at,
    irreducible_pointed_rank,
    split_pointed_blocks,
)


@dataclass(frozen=True)
class TemplateFactor:
    """One factor of an edge template.

    With power=False this is a single target edge, indexed by `value` or by
    the source edge index when value is None.  With power=True the target
    bundle must be a self-loop and the factor repeats its index-0 edge
    `value` times, or source-edge-index times when value is None.
    """

    label: str
    power: bool = False
    value: int | None = None


@dataclass(frozen=True)
class TemplateRule:
    templates: tuple[tuple[str, tuple[TemplateFactor, ...]], ...]

    def template_for(self, bundle_label: str) -> tuple[TemplateFactor, ...]:
        for label, factors in self.templates:
            if label == bundle_label:
                return factors
        raise ValueError(f"no template for bundle {bundle_label!r}")


@dataclass(frozen=True)
class CanonicalRule:
    pass


@dataclass(frozen=True)
class ExtensionRule:
    base: "GraphFunctor"
    e_prefix: str = "E:"
    h_prefix: str = "H:"


class GraphFunctor:
    """A graph functor with an explicit edge rule; immutable by convention."""

    def __init__(
        self,
        source: Graph,
        target: Graph,
        vertex_map: Mapping[str, str],
        rule,
        name: str = "",
    ):
        self.name = name
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.rule = rule
        self._eval_cache: dict[Edge, Path] = {}
        self._round_trip_cache: dict[Path, bool] = {}

    def __repr__(self):
        return f"GraphFunctor({self.name or '?'}: {self.source.name} -> {self.target.name})"

    def vertex_image(self, v: str) -> str:
        try:
            return self.vertex_map[v]
        except KeyError:
            raise ValueError(f"functor has no image for vertex {v!r}") from None

    # -- evaluation -----------------------------------------------------------

    def eval_edge(self, e: Edge) -> Path:
        if e in self._eval_cache:
            return self._eval_cache[e]
        if not self.source.is_valid_edge(e):
            raise ValueError(f"invalid source edge {e}")
        bundle = self.source.bundle(e.bundle)
        if isinstance(self.rule, TemplateRule):
            path = self._eval_template(bundle, e.index)
        elif isinstance(self.rule, CanonicalRule):
            v = self.vertex_image(bundle.src)
            w = self.vertex_image(bundle.dst)
            path = irreducible_pointed_at(self.target, v, w, e.index)
        elif isinstance(self.rule, ExtensionRule):
            path = self._eval_extension(bundle, e.index)
        else:
            raise TypeError(f"unknown edge rule {self.rule!r}")
        self._eval_cache[e] = path
        return path

    def _eval_template(self, bundle, k: int) -> Path:
        factors = self.rule.template_for(bundle.label)
        edges: list[Edge] = []
        for f in factors:
            if f.power:
                reps = f.value if f.value is not None else k
                edges.extend(Edge(f.label, 0) for _ in range(reps))
            else:
                edges.append(Edge(f.label, f.value if f.value is not None else k))
        return Path(self.vertex_image(bundle.src), tuple(edges))

    def _eval_extension(self, bundle, k: int) -> Path:
        rule = self.rule
        if bundle.label.startswith(rule.h_prefix):
            return Path(self.vertex_image(bundle.src), (Edge(bundle.label, k),))
        if bundle.label.startswith(rule.e_prefix):
            inner = rule.base.eval_edge(Edge(bundle.label[len(rule.e_prefix):], k))
            edges = tuple(Edge(rule.e_prefix + e.bundle, e.index) for e in inner.edges)
            return Path(self.vertex_image(bundle.src), edges)
        raise ValueError(f"bundle {bundle.label!r} carries neither prefix of the extension rule")

    def eval_path(self, p: Path) -> Path:
        self.source.require_path(p)
        out = Path(self.vertex_image(p.base))
        for e in p.edges:
            out = concat(self.target, out, self.eval_edge(e))
        return out

    # -- decoding ---------------------------------------------------------------

    def decode(self, p: Path) -> Path | None:
        """The unique source path mapping onto p, or None.

        Zero-length paths decode to zero-length paths; longer paths decode
        when they are pointed and within the functor image.  Template
        functors cannot be decoded.
        """
        self.target.require_path(p)
        if isinstance(self.rule, CanonicalRule):
            return self._decode_canonical(p)
        if isinstance(self.rule, ExtensionRule):
            return self._decode_extension(p)
        raise TypeError(f"cannot decode through a {type(self.rule).__name__}")

    def round_trips(self, p: Path) -> bool:
        """Whether p decodes and the decoded path evaluates back to p; memoised."""
        ok = self._round_trip_cache.get(p)
        if ok is None:
            q = self.decode(p)
            ok = self._round_trip_cache[p] = q is not None and self.eval_path(q) == p
        return ok

    def _vertex_preimages(self, w: str) -> list[str]:
        return [v for v in self.source.vertices if self.vertex_map.get(v) == w]

    def _decode_canonical(self, p: Path) -> Path | None:
        blocks = split_pointed_blocks(self.target, p)
        if blocks is None:
            return None
        bases = self._vertex_preimages(p.base)
        if len(bases) != 1:
            return None
        at = bases[0]
        edges: list[Edge] = []
        for block in blocks:
            rank = irreducible_pointed_rank(self.target, block)
            if not rank.is_finite:
                return None
            ends = self._vertex_preimages(self.target.path_range(block))
            if len(ends) != 1:
                return None
            candidates = [b for b in self.source.out_bundles(at) if b.dst == ends[0]]
            if len(candidates) != 1:
                return None
            bundle = candidates[0]
            if not bundle.has_index(rank.finite()):
                return None
            edges.append(Edge(bundle.label, rank.finite()))
            at = ends[0]
        return Path(bases[0], tuple(edges))

    def _decode_extension(self, p: Path) -> Path | None:
        rule = self.rule
        bases = self._vertex_preimages(p.base)
        if len(bases) != 1:
            return None
        out: list[Edge] = []
        run: list[Edge] = []
        run_base: str | None = None

        def flush() -> bool:
            # vertices are shared between the glued graph and its parts, so
            # only the bundle labels need the prefix stripped
            nonlocal run, run_base
            if not run:
                return True
            stripped = Path(run_base, tuple(Edge(e.bundle[len(rule.e_prefix):], e.index) for e in run))
            inner = rule.base.decode(stripped)
            if inner is None:
                return False
            out.extend(Edge(rule.e_prefix + e.bundle, e.index) for e in inner.edges)
            run = []
            run_base = None
            return True

        at = p.base
        for e in p.edges:
            if e.bundle.startswith(rule.h_prefix):
                if not flush():
                    return None
                out.append(e)
            elif e.bundle.startswith(rule.e_prefix):
                if not run:
                    run_base = at
                run.append(e)
            else:
                return None
            at = self.target.edge_dst(e)
        if not flush():
            return None
        q = Path(bases[0], tuple(out))
        return q if self.source.is_valid_path(q) else None

    # -- validation ----------------------------------------------------------------

    def sampled_edge_images(self, max_index: int) -> Iterator[tuple[Edge, Path | None, list[str]]]:
        """(edge, image, problems) for every source edge of index <= max_index,
        in bundle order.  The problems are an image that fails to evaluate or
        is not a valid target path (image is then None), wrong endpoints, and
        a vertex path as image."""
        for b in self.source.bundles:
            for e in self.source.bundle_edges(b, max_index):
                try:
                    image = self.eval_edge(e)
                except ValueError as err:
                    yield e, None, [f"edge {format_edge_error(e)}: {err}"]
                    continue
                if not self.target.is_valid_path(image):
                    yield e, None, [f"image of {format_edge_error(e)} is not a valid target path"]
                    continue
                problems = []
                if image.base != self.vertex_image(b.src) or self.target.path_range(image) != self.vertex_image(b.dst):
                    problems.append(f"image of {format_edge_error(e)} has wrong endpoints")
                if not image.edges:
                    problems.append(f"image of {format_edge_error(e)} is a vertex path")
                yield e, image, problems

    def validate(self, max_index: int = 4) -> list[str]:
        """Functoriality-on-generators and injectivity violations, sampling
        infinite bundles up to max_index."""
        problems: list[str] = []
        for v in self.source.vertices:
            w = self.vertex_map.get(v)
            if w is None:
                problems.append(f"vertex {v} has no image")
            elif not self.target.has_vertex(w):
                problems.append(f"vertex image {w} of {v} is not a target vertex")
        if problems:
            return problems
        seen: dict[Path, Edge] = {}
        for e, image, edge_problems in self.sampled_edge_images(max_index):
            problems += edge_problems
            if image is None:
                continue
            if image in seen:
                problems.append(f"edges {format_edge_error(seen[image])} and {format_edge_error(e)} share the image {format_path(image)}")
            seen[image] = e
        return problems


def format_edge_error(e: Edge) -> str:
    return f"{e.bundle}[{e.index}]"


def identity_functor(g: Graph) -> GraphFunctor:
    templates = tuple((b.label, (TemplateFactor(b.label),)) for b in g.bundles)
    return GraphFunctor(g, g, {v: v for v in g.vertices}, TemplateRule(templates), name=f"id_{g.name}")


# -- bounded functor-condition checks ------------------------------------------------


@dataclass(frozen=True)
class FunctorConditionReport:
    """Outcome of the two homomorphism-inducing conditions.

    Condition 1 (prolongation compatibility) is decided exactly by the local
    prefix-code test of the module docstring, for source paths of every
    length whose edge indices are at most max_index; the bounded scan over
    source path pairs runs only when that test fails, and supplies the
    verdict and its witnesses.  Condition 2 (out-edge bijection at
    finitely-emitting vertices) is exact.
    """

    cond1_ok: bool
    cond2_ok: bool
    failures: tuple[str, ...] = ()


def _prefix_code_at_every_vertex(f: GraphFunctor, max_len: int, max_index: int) -> bool:
    """Whether the local test of the module docstring passes, in which case
    the bounded scan of condition 1 finds no failure and does not raise.
    Negative bounds, and max_len 0 where the scan evaluates no edge, are
    left to the scan."""
    source = f.source
    images = {f.vertex_map.get(v) for v in source.vertices}
    if max_len < 1 or max_index < 0 or None in images or len(images) < len(source.vertices):
        return False
    if not all(source.has_vertex(b.src) and source.has_vertex(b.dst) for b in source.bundles):
        return False
    codes: dict[str, list[tuple]] = {v: [] for v in source.vertices}
    for e, image, problems in f.sampled_edge_images(max_index):
        if problems:
            return False
        codes[source.edge_src(e)].append(tuple((x.bundle, x.index) for x in image.edges))
    for words in codes.values():
        words.sort()
        if any(b[: len(a)] == a for a, b in zip(words, words[1:])):
            return False
    return True


def _condition_1_scan(f: GraphFunctor, max_len: int, max_index: int) -> list[str]:
    """Condition 1's failures over every bounded source path."""
    failures: list[str] = []
    # walk every bounded source path's image and test all of its
    # image-prefixes that are themselves images; equivalent to the all-pairs
    # scan because prefixes of an image enumerate exactly the comparable pairs.
    image_of: dict[Path, Path] = {}
    source_paths = all_paths(f.source, max_len=max_len, max_index=max_index)
    images: list[tuple[Path, Path]] = []
    for q in source_paths:
        img = f.eval_path(q)
        if img in image_of and image_of[img] != q:
            failures.append(f"cond1: {format_path(image_of[img])} and {format_path(q)} share the image {format_path(img)}")
            continue
        image_of[img] = q
        images.append((q, img))
    for q, img in images:
        for cut in range(len(img.edges) + 1):
            prefix = Path(img.base, img.edges[:cut])
            other = image_of.get(prefix)
            if other is None:
                continue
            rel = prolongation_compare(other, q)
            if rel not in (Prolongation.EQUAL, Prolongation.A_PREFIX_OF_B):
                failures.append(
                    f"cond1: f({format_path(other)}) precedes f({format_path(q)}) but {format_path(other)} does not precede {format_path(q)}"
                )
    return failures


def check_functor_conditions(f: GraphFunctor, *, max_len: int, max_index: int) -> FunctorConditionReport:
    failures = [] if _prefix_code_at_every_vertex(f, max_len, max_index) else _condition_1_scan(f, max_len, max_index)
    cond1_ok = not failures

    # condition 2, exact per regular source vertex
    cond2_ok = True
    for v in f.source.vertices:
        deg = f.source.out_degree(v)
        if not (deg.is_finite and deg > 0):
            continue
        fv = f.vertex_image(v)
        target_deg = f.target.out_degree(fv)
        if not target_deg.is_finite:
            cond2_ok = False
            failures.append(f"cond2: {v} emits finitely many edges but its image {fv} emits infinitely many")
            continue
        outgoing = [Edge(b.label, i) for b in f.source.out_bundles(v) for i in range(b.mult.finite())]
        image_edges = []
        ok = True
        for e in outgoing:
            img = f.eval_edge(e)
            if len(img.edges) != 1:
                cond2_ok = False
                ok = False
                failures.append(f"cond2: image of {format_edge_error(e)} at regular vertex {v} is not an edge")
                break
            image_edges.append(img.edges[0])
        if not ok:
            continue
        target_edges = [Edge(b.label, i) for b in f.target.out_bundles(fv) for i in range(b.mult.finite())]
        if len(set(image_edges)) != len(image_edges) or set(image_edges) != set(target_edges):
            cond2_ok = False
            failures.append(f"cond2: out-edges of {v} do not biject onto out-edges of {fv}")
    return FunctorConditionReport(cond1_ok, cond2_ok, tuple(failures))
