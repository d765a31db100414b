"""Resolution of a graph along an admissible subgraph, and pullback certificates.

Given a graph E2 and a vertex set spanning an admissible subgraph F2 such
that E2 has no self-loop outside those vertices, the *resolution* is the
graph E1 on the same vertices whose multiplicity matrix counts irreducible
pointed paths, together with the canonical functor sending the k-th edge of
every E1 bundle to the k-th irreducible pointed path.  E1 is loop-free
exactly when the non-self-loop part of E2 is acyclic, and the four induced
maps (two quotients, the functor and its restriction) form a pullback square
of the corresponding graph algebras.

`verify_pullback` machine-checks every hypothesis of that statement, exactly
where possible and up to explicit bounds where the path sets are infinite,
and records the outcome in a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (  # noqa: F401  (the traced benchmark run wraps resolution.apply_hom)
    InducedHom,
    QuotientHom,
    apply_hom,
    square_commutes,
)
from .core import (
    Graph,
    Bundle,
    all_paths,
    format_path,
    is_pointed,
    loop_free,
    short_loops_at,
)
from .functors import CanonicalRule, GraphFunctor, check_functor_conditions
from .pointed import irreducible_pointed_count
from .subsets import AdmissibilityReport, check_admissible, induced_subgraph


@dataclass(frozen=True)
class Bounds:
    max_len: int = 6
    max_index: int = 4


DEFAULT_BOUNDS = Bounds()


class ResolveError(ValueError):
    def __init__(self, stage: str, message: str, report: AdmissibilityReport | None = None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.report = report


@dataclass
class Resolution:
    e1: Graph
    f1: Graph
    e2: Graph
    f2: Graph
    functor: GraphFunctor


def _resolved_graph(e2: Graph) -> Graph:
    bundles = []
    labels = set()
    for v in e2.vertices:
        for w in e2.vertices:
            count = irreducible_pointed_count(e2, v, w)
            if count >= 1:
                label = f"{v}_{w}"
                if label in labels:
                    raise ValueError(f"resolved bundle label {label!r} collides; rename vertices")
                labels.add(label)
                bundles.append(Bundle(label, v, w, count))
    return Graph(f"{e2.name}_res", e2.vertices, bundles)


def _build(e2: Graph, f2_vertices) -> tuple[Resolution, AdmissibilityReport, list[Bundle]]:
    """The resolution of E2 along the subgraph on f2_vertices, with the
    admissibility report of F2 in E2 and the self-loops based outside F2."""
    members = frozenset(f2_vertices)
    for v in members:
        e2.require_vertex(v)
    f2 = induced_subgraph(e2, members, name=f"{e2.name}_f2")
    report = check_admissible(f2, e2, {v: v for v in f2.vertices})
    short = short_loops_at(e2, [v for v in e2.vertices if v not in members])
    e1 = _resolved_graph(e2)
    f1 = induced_subgraph(e1, members, name=f"{e1.name}_f1")
    functor = GraphFunctor(e1, e2, {v: v for v in e2.vertices}, CanonicalRule(), name=f"resolve_{e2.name}")
    return Resolution(e1, f1, e2, f2, functor), report, short


def resolve(e2: Graph, f2_vertices) -> Resolution:
    """Construct (E1, F1, functor) from (E2, F2 vertex set).

    Raises when the subgraph is not admissible or when E2 carries a self-loop
    outside it; a loopy E1 is a theorem-hypothesis failure, not a
    construction failure, and is left to `verify_pullback` to report.
    """
    res, report, short = _build(e2, f2_vertices)
    if not report.admissible:
        raise ResolveError("admissibility", "; ".join(report.witnesses) or "subgraph is not admissible", report)
    if short:
        raise ResolveError("short-loops", f"self-loop {short[0].label} based outside the subgraph at {short[0].src}")
    return res


def _square_maps(sq: Resolution | PullbackCertificate) -> dict[str, object]:
    """The four maps of the square as engine descriptors.  The restricted
    functor evaluates like the full one on shared vertices because
    admissibility pins their edge neighbourhoods."""
    outside = [v for v in sq.e2.vertices if not sq.f2.has_vertex(v)]
    vmap = {v: v for v in sq.f1.vertices}
    restricted = GraphFunctor(sq.f1, sq.f2, vmap, CanonicalRule(), name=f"{sq.functor.name}_restricted")
    return {
        "pi1": QuotientHom(sq.e1, outside, target=sq.f1),
        "pi2": QuotientHom(sq.e2, outside, target=sq.f2),
        "f_star": InducedHom(sq.functor),
        "f_restricted_star": InducedHom(restricted),
    }


# -- certificates -------------------------------------------------------------------


class Checks:
    """Named boolean outcomes; a certificate holds when all of them do."""

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def all_true(self) -> bool:
        return all(self.as_dict().values())


@dataclass(frozen=True)
class PullbackChecks(Checks):
    f2_admissible: bool = False
    f1_admissible: bool = False
    e1_loop_free: bool = False
    no_short_loops_outside_f2: bool = False
    vertex_sets_match: bool = False
    prolongation_reflection_to_bound: bool = False
    out_edge_bijection: bool = False
    image_is_pointed_to_bound: bool = False
    algebra_commutes_to_bound: bool = False
    kernel_inclusion_to_bound: bool = False


@dataclass
class PullbackCertificate:
    e2: Graph
    f2_vertices: tuple[str, ...]
    e1: Graph
    f1: Graph
    f2: Graph
    functor: GraphFunctor
    checks: PullbackChecks
    witnesses: tuple[str, ...]
    bounds: Bounds
    unital: bool
    e1_af: bool
    degenerate: bool

    @property
    def verified(self) -> bool:
        # a subgraph equal to the whole graph makes the square trivially
        # commute but resolves nothing; refuse to call that verified
        return self.checks.all_true() and not self.degenerate

    def corners(self) -> dict[str, str]:
        return {
            "top": f"C*({self.e1.name})",
            "left": f"C*({self.f1.name})",
            "right": f"C*({self.e2.name})",
            "bottom": f"C*({self.f2.name})",
        }

    def homomorphisms(self) -> dict[str, object]:
        """The four maps of the square as engine descriptors."""
        return _square_maps(self)


def _check_preimages(functor: GraphFunctor, members: frozenset[str], bounds: Bounds, witnesses: list[str]) -> tuple[bool, bool]:
    """Both directions of "the image is the pointed paths", and the kernel
    inclusion, within bounds, in one pass over the bounded paths of E2.

    Every bounded path that is pointed or ranges outside the subgraph must
    decode and re-evaluate to itself; for the latter this gives every kernel
    monomial S_a S_b* the explicit preimage S_{decode(a)} S_{decode(b)}*."""
    e1, e2 = functor.source, functor.target
    image_failures: list[str] = []
    for b in e1.bundles:
        for e in e1.bundle_edges(b, bounds.max_index):
            image = functor.eval_edge(e)
            if not is_pointed(e2, image):
                image_failures.append(f"image of {b.label}[{e.index}] is not pointed: {format_path(image)}")
    pointed_failures: list[str] = []
    kernel_failures: list[str] = []
    kernel_paths = 0
    for p in all_paths(e2, max_len=bounds.max_len, max_index=bounds.max_index):
        pointed = is_pointed(e2, p)
        in_kernel = e2.path_range(p) not in members
        kernel_paths += in_kernel
        if not (pointed or in_kernel) or functor.round_trips(p):
            continue
        if pointed:
            pointed_failures.append(f"pointed path {format_path(p)} is not decodable to a preimage")
        if in_kernel:
            kernel_failures.append(f"kernel path {format_path(p)} has no preimage under the functor")
    witnesses += image_failures + pointed_failures + kernel_failures
    if not kernel_paths:
        witnesses.append("kernel inclusion holds vacuously: no bounded path ranges outside the subgraph")
    return not (image_failures or pointed_failures), not kernel_failures


def verify_pullback(e2: Graph, f2_vertices, bounds: Bounds = DEFAULT_BOUNDS) -> PullbackCertificate:
    """Run every hypothesis check and assemble the certificate.

    Never raises on hypothesis failures; every negative outcome lands in the
    checks and witnesses.
    """
    witnesses: list[str] = []
    res, report2, short = _build(e2, f2_vertices)
    e1, f1, f2, functor = res.e1, res.f1, res.f2, res.functor
    members = frozenset(f2.vertices)
    witnesses.extend(report2.witnesses)
    if short:
        witnesses.append(f"short loop {short[0].label} based at {short[0].src} outside the subgraph")

    report1 = check_admissible(f1, e1, {v: v for v in f1.vertices})
    witnesses.extend(f"resolved graph: {w}" for w in report1.witnesses)

    e1_loop_free = loop_free(e1)
    if not e1_loop_free:
        witnesses.append("resolved graph has a cycle")

    vertex_sets_match = (
        set(e1.vertices) == set(e2.vertices)
        and set(f1.vertices) == set(f2.vertices)
        and all(functor.vertex_map.get(v) == v for v in e1.vertices)
    )
    if not vertex_sets_match:
        witnesses.append("the functor is not the identity between the vertex sets of the square")

    functor_report = check_functor_conditions(functor, max_len=bounds.max_len, max_index=bounds.max_index)
    witnesses.extend(functor_report.failures)

    image_ok, kernel_ok = _check_preimages(functor, members, bounds, witnesses)

    commutes_ok = False
    if report2.admissible and report1.admissible:
        maps = _square_maps(res)
        commutes_ok, commute_failures = square_commutes(
            (maps["pi1"], maps["f_restricted_star"]),
            (maps["f_star"], maps["pi2"]),
            max_index=bounds.max_index,
        )
        witnesses.extend(commute_failures)
    else:
        witnesses.append("algebra commutativity skipped: a subgraph inclusion is not admissible")

    checks = PullbackChecks(
        f2_admissible=report2.admissible,
        f1_admissible=report1.admissible,
        e1_loop_free=e1_loop_free,
        no_short_loops_outside_f2=not short,
        vertex_sets_match=vertex_sets_match,
        prolongation_reflection_to_bound=functor_report.cond1_ok,
        out_edge_bijection=functor_report.cond2_ok,
        image_is_pointed_to_bound=image_ok,
        algebra_commutes_to_bound=commutes_ok,
        kernel_inclusion_to_bound=kernel_ok,
    )
    degenerate = members.issuperset(e2.vertices)
    if degenerate:
        witnesses.append("degenerate: the subgraph is the whole graph, nothing is resolved")
    return PullbackCertificate(
        e2=e2,
        f2_vertices=f2.vertices,
        e1=e1,
        f1=f1,
        f2=f2,
        functor=functor,
        checks=checks,
        witnesses=tuple(witnesses),
        bounds=bounds,
        # vertex sets are finite tuples by representation, so the corner
        # algebras of a verified certificate are always unital
        unital=True,
        e1_af=e1_loop_free,
        degenerate=degenerate,
    )

