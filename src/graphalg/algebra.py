"""Exact symbolic arithmetic in the dense span of a graph algebra.

Elements are finite rational linear combinations of monomials S_alpha S_beta*
with r(alpha) = r(beta), kept in normal form with respect to the rewriting
rule derived from the finite-sum relation (sum of S_e S_e* over the edges of
a regular vertex equals the vertex projection): whenever both halves of a
monomial end in the distinguished maximal out-edge of a regular vertex, that
edge pair is eliminated.  Each monomial rewrites deterministically (only the
final edges are ever touched), so the normal form is order-independent; the
surviving monomials are the standard linear basis.

Vertices listed as *exempt* are treated like infinite emitters: the rule
never fires there.  This keeps truncations of infinite bundles honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .core import (
    Edge,
    ExtNat,
    Graph,
    Path,
    Prolongation,
    concat,
    format_path,
    loop_free,
    path_key,
    prolongation_compare,
)
from .functors import GraphFunctor
from .subsets import quotient_graph


@dataclass(frozen=True)
class Monomial:
    alpha: Path
    beta: Path


def monomial_key(m: Monomial) -> tuple:
    return (len(m.alpha.edges) + len(m.beta.edges), path_key(m.alpha), path_key(m.beta))


def format_monomial(m: Monomial) -> str:
    if not m.alpha.edges and not m.beta.edges:
        return f"P({m.alpha.base})"
    left = f"S({format_path(m.alpha)})" if m.alpha.edges else f"P({m.alpha.base})*"
    if not m.beta.edges:
        return left if m.alpha.edges else f"P({m.alpha.base})"
    return f"{left}S*({format_path(m.beta)})" if m.alpha.edges else f"S*({format_path(m.beta)})"


def default_exempt(g: Graph) -> frozenset[str]:
    return frozenset(v for v in g.vertices if not g.out_degree(v).is_finite)


def _special_edge(g: Graph, exempt: frozenset[str], v: str) -> Edge | None:
    """The distinguished maximal out-edge at v, if the rewriting rule applies there."""
    if v in exempt:
        return None
    degree = g.out_degree(v)
    if not degree.is_finite or degree == 0:
        return None
    last = g.out_bundles(v)[-1]
    return Edge(last.label, last.mult.finite() - 1)


def _rewritable(g: Graph, exempt: frozenset[str], m: Monomial) -> bool:
    if not m.alpha.edges or not m.beta.edges:
        return False
    e = m.alpha.edges[-1]
    if m.beta.edges[-1] != e:
        return False
    return _special_edge(g, exempt, g.edge_src(e)) == e


def _rewrite(g: Graph, m: Monomial) -> list[tuple[Monomial, int]]:
    """Expand one monomial by the relation at the source of its final edge."""
    e = m.alpha.edges[-1]
    v = g.edge_src(e)
    alpha = Path(m.alpha.base, m.alpha.edges[:-1])
    beta = Path(m.beta.base, m.beta.edges[:-1])
    out = [(Monomial(alpha, beta), 1)]
    for b in g.out_bundles(v):
        for i in range(b.mult.finite()):
            f = Edge(b.label, i)
            if f == e:
                continue
            out.append((Monomial(Path(alpha.base, alpha.edges + (f,)), Path(beta.base, beta.edges + (f,))), -1))
    return out


def normal_form_terms(
    g: Graph,
    exempt: frozenset[str],
    terms: Mapping[Monomial, Fraction],
    pick: Callable[[list[Monomial]], Monomial] | None = None,
) -> dict[Monomial, Fraction]:
    """Rewrite a raw term map to its normal form.

    `pick` selects which rewritable monomial to expand next; any strategy
    reaches the same normal form because single-monomial rewriting is
    deterministic and linear.
    """
    acc = {m: Fraction(c) for m, c in terms.items() if c}
    while True:
        candidates = [m for m in acc if _rewritable(g, exempt, m)]
        if not candidates:
            return acc
        candidates.sort(key=monomial_key)
        m = pick(candidates) if pick else candidates[0]
        coeff = acc.pop(m)
        for replacement, sign in _rewrite(g, m):
            new = acc.get(replacement, Fraction(0)) + sign * coeff
            if new:
                acc[replacement] = new
            else:
                acc.pop(replacement, None)


class AlgebraElement:
    """An element of the dense span, stored in normal form."""

    __slots__ = ("graph", "exempt", "_terms")

    def __init__(
        self,
        graph: Graph,
        terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = (),
        exempt: frozenset[str] | None = None,
        *,
        _normalized: bool = False,
    ):
        self.graph = graph
        self.exempt = default_exempt(graph) if exempt is None else frozenset(exempt)
        raw = dict(terms.items() if isinstance(terms, Mapping) else terms)
        for m in raw:
            graph.require_path(m.alpha)
            graph.require_path(m.beta)
            if graph.path_range(m.alpha) != graph.path_range(m.beta):
                raise ValueError(f"monomial halves must share their range: {format_monomial(m)}")
        self._terms = dict(raw) if _normalized else normal_form_terms(graph, self.exempt, raw)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, g: Graph, exempt: frozenset[str] | None = None) -> "AlgebraElement":
        return cls(g, (), exempt)

    @classmethod
    def projection(cls, g: Graph, v: str, exempt: frozenset[str] | None = None) -> "AlgebraElement":
        g.require_vertex(v)
        p = Path(v)
        return cls(g, {Monomial(p, p): Fraction(1)}, exempt)

    @classmethod
    def isometry(cls, g: Graph, path: Path, exempt: frozenset[str] | None = None) -> "AlgebraElement":
        """S_path, i.e. the monomial with trivial star half."""
        g.require_path(path)
        return cls(g, {Monomial(path, Path(g.path_range(path))): Fraction(1)}, exempt)

    @classmethod
    def monomial(cls, g: Graph, alpha: Path, beta: Path, coeff=1, exempt: frozenset[str] | None = None) -> "AlgebraElement":
        return cls(g, {Monomial(alpha, beta): Fraction(coeff)}, exempt)

    # -- views ---------------------------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda item: monomial_key(item[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.graph == other.graph and self.exempt == other.exempt and self._terms == other._terms

    def __hash__(self):
        return hash((self.graph, self.exempt, tuple(sorted(self._terms.items(), key=lambda kv: monomial_key(kv[0])))))

    def __repr__(self):
        return f"<{format_element(self)} on {self.graph.name}>"

    # -- arithmetic -------------------------------------------------------------------

    def _compatible(self, other: "AlgebraElement") -> None:
        if self.graph != other.graph:
            raise ValueError(f"elements live on different graphs: {self.graph.name} vs {other.graph.name}")
        if self.exempt != other.exempt:
            raise ValueError("elements carry different exempt vertex sets")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._compatible(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            new = acc.get(m, Fraction(0)) + c
            if new:
                acc[m] = new
            else:
                acc.pop(m, None)
        return AlgebraElement(self.graph, acc, self.exempt, _normalized=True)

    def __neg__(self):
        return AlgebraElement(self.graph, {m: -c for m, c in self._terms.items()}, self.exempt, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "AlgebraElement":
        factor = Fraction(factor)
        if not factor:
            return AlgebraElement.zero(self.graph, self.exempt)
        return AlgebraElement(self.graph, {m: c * factor for m, c in self._terms.items()}, self.exempt, _normalized=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        """The involution: swap the monomial halves (rational coefficients are fixed)."""
        flipped = {Monomial(m.beta, m.alpha): c for m, c in self._terms.items()}
        return AlgebraElement(self.graph, flipped, self.exempt, _normalized=True)


def _mul_monomials(g: Graph, a: Monomial, b: Monomial) -> Monomial | None:
    """(S_a S_b*)(S_c S_d*) collapses by the prolongation rule or vanishes."""
    rel = prolongation_compare(a.beta, b.alpha)
    if rel is Prolongation.INCOMPARABLE:
        return None
    if rel in (Prolongation.EQUAL, Prolongation.B_PREFIX_OF_A):
        # beta = alpha(b) . tail: push the tail onto b.beta
        tail = Path(g.path_range(b.alpha), a.beta.edges[len(b.alpha.edges):])
        return Monomial(a.alpha, concat(g, b.beta, tail))
    tail = Path(g.path_range(a.beta), b.alpha.edges[len(a.beta.edges):])
    return Monomial(concat(g, a.alpha, tail), b.beta)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._compatible(b)
    acc: dict[Monomial, Fraction] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            m = _mul_monomials(a.graph, ma, mb)
            if m is None:
                continue
            new = acc.get(m, Fraction(0)) + ca * cb
            if new:
                acc[m] = new
            else:
                acc.pop(m, None)
    return AlgebraElement(a.graph, acc, a.exempt)


def format_element(a: AlgebraElement) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for m, c in a.terms():
        body = format_monomial(m)
        if c == 1:
            text = body
        elif c == -1:
            text = f"-{body}"
        else:
            text = f"{c}*{body}"
        if parts and not text.startswith("-"):
            parts.append(f"+ {text}")
        elif parts:
            parts.append(f"- {text[1:]}")
        else:
            parts.append(text)
    return " ".join(parts)


# -- homomorphism descriptors ---------------------------------------------------------


class InducedHom:
    """The *-homomorphism induced by a graph functor: P_v -> P_f(v), S_e -> S_f(e)."""

    def __init__(self, functor: GraphFunctor):
        self.functor = functor

    @property
    def domain(self) -> Graph:
        return self.functor.source

    @property
    def codomain(self) -> Graph:
        return self.functor.target

    def monomial_image(self, m: Monomial) -> Monomial | None:
        return Monomial(self.functor.eval_path(m.alpha), self.functor.eval_path(m.beta))

    def __repr__(self):
        return f"InducedHom({self.functor.source.name} -> {self.functor.target.name})"


class QuotientHom:
    """The quotient map onto the graph of a hereditary saturated complement:
    generators touching the killed set go to zero, the rest survive verbatim.

    `target` renames the codomain presentation; it must agree with the
    computed quotient vertex-for-vertex and bundle-for-bundle."""

    def __init__(self, graph: Graph, killed: Iterable[str], target: Graph | None = None):
        self.graph = graph
        self.killed = frozenset(killed)
        self.quotient = quotient_graph(graph, self.killed)
        if target is not None:
            if (target.vertices, target.bundles) != (self.quotient.vertices, self.quotient.bundles):
                raise ValueError(f"graph {target.name} does not present the quotient of {graph.name}")
            self.quotient = target

    @property
    def domain(self) -> Graph:
        return self.graph

    @property
    def codomain(self) -> Graph:
        return self.quotient

    def monomial_image(self, m: Monomial) -> Monomial | None:
        if self.graph.path_range(m.alpha) in self.killed:
            return None
        return m

    def __repr__(self):
        return f"QuotientHom({self.graph.name} / {sorted(self.killed)})"


Hom = InducedHom | QuotientHom


def apply_hom(h: Hom, a: AlgebraElement) -> AlgebraElement:
    if a.graph != h.domain:
        raise ValueError(f"element lives on {a.graph.name}, homomorphism expects {h.domain.name}")
    acc: dict[Monomial, Fraction] = {}
    for m, c in a._terms.items():
        image = h.monomial_image(m)
        if image is None:
            continue
        new = acc.get(image, Fraction(0)) + c
        if new:
            acc[image] = new
        else:
            acc.pop(image, None)
    return AlgebraElement(h.codomain, acc)


def generator_elements(g: Graph, max_index: int) -> list[tuple[str, AlgebraElement]]:
    """Labelled vertex projections and edge isometries, infinite bundles sampled."""
    gens = [(f"P({v})", AlgebraElement.projection(g, v)) for v in g.vertices]
    for b in g.bundles:
        for e in g.bundle_edges(b, max_index):
            gens.append((f"S({format_path(Path(b.src, (e,)))})", AlgebraElement.isometry(g, Path(b.src, (e,)))))
    return gens


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    failures: tuple[str, ...] = ()


def check_relations_preserved(h: Hom, *, max_index: int = 3) -> RelationReport:
    """Verify in the codomain that generator images satisfy the defining relations:
    orthogonality of projections, the star-product rule for edge pairs, the
    finite-sum rule at regular non-exempt vertices, and domination of each
    range projection by its source projection."""
    g = h.domain
    failures: list[str] = []

    def img(a: AlgebraElement) -> AlgebraElement:
        return apply_hom(h, a)

    try:
        proj = {v: img(AlgebraElement.projection(g, v)) for v in g.vertices}
    except ValueError as err:
        return RelationReport(False, (f"projection images undefined: {err}",))
    for i, v in enumerate(g.vertices):
        for w in g.vertices[i + 1:]:
            if not (proj[v] * proj[w]).is_zero():
                failures.append(f"projections P({v}), P({w}) lose orthogonality")

    edges = [e for b in g.bundles for e in g.bundle_edges(b, max_index)]
    exempt = default_exempt(g)
    regular = [v for v in g.vertices if v not in exempt and g.out_degree(v).is_finite and g.out_degree(v) != 0]
    # the edge-sum rule needs every edge of a regular vertex, sampled or not
    emitted = {v: g.edges_from(v, g.out_degree(v).finite()) for v in regular}
    try:
        iso = {
            e: img(AlgebraElement.isometry(g, Path(g.edge_src(e), (e,))))
            for e in dict.fromkeys(edges + [e for es in emitted.values() for e in es])
        }
    except ValueError as err:
        return RelationReport(False, (f"edge images undefined: {err}",))

    for e in edges:
        for f in edges:
            expected = proj[g.edge_dst(e)] if e == f else AlgebraElement.zero(h.codomain)
            if iso[e].star() * iso[f] != expected:
                failures.append(f"star-product rule fails for edges {e}, {f}")

    for v in regular:
        total = AlgebraElement.zero(h.codomain)
        for e in emitted[v]:
            s = iso[e]
            total = total + s * s.star()
        if total != proj[v]:
            failures.append(f"edge-sum rule fails at regular vertex {v}")

    for e in edges:
        s = iso[e]
        if proj[g.edge_src(e)] * (s * s.star()) != s * s.star():
            failures.append(f"range projection of {e} is not dominated by its source projection")

    return RelationReport(not failures, tuple(failures))


def square_commutes(
    down: tuple[Hom, Hom],
    right: tuple[Hom, Hom],
    *,
    max_index: int = 4,
) -> tuple[bool, tuple[str, ...]]:
    """Compare the two generator-level compositions of a square of homomorphisms."""
    if down[0].domain != right[0].domain:
        raise ValueError("square legs start at different graphs")
    if down[1].codomain != right[1].codomain:
        raise ValueError("square legs end at different graphs")
    failures = []
    for label, gen in generator_elements(down[0].domain, max_index):
        a = apply_hom(down[1], apply_hom(down[0], gen))
        b = apply_hom(right[1], apply_hom(right[0], gen))
        if a != b:
            failures.append(f"compositions differ on {label}")
    return (not failures, tuple(failures))


def kernel_preimage(
    functor: GraphFunctor,
    f2_vertices: Iterable[str],
    m: Monomial,
) -> AlgebraElement:
    """Invert the induced homomorphism on a spanning monomial of the quotient kernel.

    The monomial must range outside the given vertex set, which makes both of
    its paths pointed (or zero-length) and hence decodable.
    """
    f2_vertices = frozenset(f2_vertices)
    e2 = functor.target
    if e2.path_range(m.alpha) in f2_vertices:
        raise ValueError(f"monomial {format_monomial(m)} ranges inside the subgraph: not in the kernel")
    qa = functor.decode(m.alpha)
    qb = functor.decode(m.beta)
    if qa is None or qb is None:
        raise ValueError(f"monomial {format_monomial(m)} has a half outside the functor image")
    return AlgebraElement.monomial(functor.source, qa, qb)


# -- faithful representation oracle ----------------------------------------------------


def desingularize(g: Graph, exempt: Iterable[str]) -> Graph:
    """Attach one fresh sink and one fresh edge per exempt vertex, so that the
    edge-sum relation genuinely fails there in any representation."""
    from .core import Bundle

    vertices = list(g.vertices)
    bundles = list(g.bundles)
    taken = set(vertices)
    labels = {b.label for b in bundles}
    for v in sorted(exempt):
        sink = f"{v}_aux"
        while sink in taken:
            sink += "_"
        label = f"aux_{v}"
        while label in labels:
            label += "_"
        vertices.append(sink)
        bundles.append(Bundle(label, v, sink, ExtNat(1)))
        taken.add(sink)
        labels.add(label)
    return Graph(f"{g.name}_desing", vertices, bundles)


def faithful_rep_oracle(g: Graph, a: AlgebraElement) -> list[list[Fraction]]:
    """Represent an element on the basis of paths into sinks.

    Only finite acyclic graphs are supported; exempt vertices are first
    desingularized with a fresh sink each.  On this class the representation
    is faithful: the matrix vanishes exactly when the normal form is zero.
    """
    if a.graph != g:
        raise ValueError("element does not live on the given graph")
    return represent_terms(g, a.exempt, a._terms)


def represent_terms(
    g: Graph,
    exempt: frozenset[str],
    terms: Mapping[Monomial, Fraction],
) -> list[list[Fraction]]:
    """The representation matrix of a raw term map, normalized or not; the
    rewriting rule must not change this value, which the tests exploit."""
    for b in g.bundles:
        if not b.mult.is_finite:
            raise ValueError(f"bundle {b.label} has infinite multiplicity")
    if not loop_free(g):
        raise ValueError(f"graph {g.name} has a cycle")

    from .core import enumerate_paths

    gx = desingularize(g, exempt)
    max_index = max((b.mult.finite() - 1 for b in gx.bundles), default=0)
    sinks = set(gx.sinks())
    basis: list[Path] = []
    for v in gx.vertices:
        for p in enumerate_paths(gx, v, max_len=len(gx.vertices), max_index=max_index):
            if gx.path_range(p) in sinks:
                basis.append(p)
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)

    def zero_matrix():
        return [[Fraction(0)] * dim for _ in range(dim)]

    def path_matrix(path: Path):
        # S_path maps a basis path mu starting at r(path) to path.mu
        m = zero_matrix()
        for mu in basis:
            if mu.base != gx.path_range(path):
                continue
            target = Path(path.base, path.edges + mu.edges)
            m[index[target]][index[mu]] = Fraction(1)
        return m

    def matmul_transposed(ma, mb):
        # ma @ mb.T
        out = zero_matrix()
        for i in range(dim):
            row = ma[i]
            for j in range(dim):
                s = Fraction(0)
                brow = mb[j]
                for k in range(dim):
                    if row[k] and brow[k]:
                        s += row[k] * brow[k]
                out[i][j] = s
        return out

    total = zero_matrix()
    for m, c in terms.items():
        prod = matmul_transposed(path_matrix(m.alpha), path_matrix(m.beta))
        for i in range(dim):
            for j in range(dim):
                if prod[i][j]:
                    total[i][j] += c * prod[i][j]
    return total


def truncate(g: Graph, max_index: int) -> tuple[Graph, frozenset[str]]:
    """Cut infinite bundles down to max_index + 1 edges and report the vertices
    whose emission was truncated; those must stay exempt from rewriting."""
    from .core import Bundle

    exempt = default_exempt(g)
    bundles = tuple(
        b if b.mult.is_finite else Bundle(b.label, b.src, b.dst, ExtNat(max_index + 1))
        for b in g.bundles
    )
    return Graph(f"{g.name}_trunc{max_index}", g.vertices, bundles), exempt
