"""Pushouts of graphs over sinks and the extended pullback certificates.

Two graphs E and H are glued along a finite set X injected into both vertex
sets; when at least one injection lands in sinks, the glued graph presents
the amalgamated algebra.  Starting from a verified resolution certificate
whose shared vertex set contains sinks, gluing the same H onto both E1 and
E2 extends the resolution functor by the identity on H and yields a new
pullback square whose outer corners stay the base certificate's lower ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import (
    AlgebraElement,
    Monomial,
    QuotientHom,
    apply_hom,
    format_monomial,
)
from .core import Bundle, Graph, Path, all_paths, format_path
from .functors import ExtensionRule, GraphFunctor
from .resolution import Bounds, Checks, DEFAULT_BOUNDS, PullbackCertificate


@dataclass(frozen=True)
class AmalgamationData:
    """A gluing datum: a finite set X injected into the vertices of both graphs."""

    x: tuple[str, ...]
    e: Graph
    h: Graph
    iota_e: tuple[tuple[str, str], ...]
    iota_h: tuple[tuple[str, str], ...]

    @property
    def iota_e_map(self) -> dict[str, str]:
        return dict(self.iota_e)

    @property
    def iota_h_map(self) -> dict[str, str]:
        return dict(self.iota_h)


def amalgamation(e: Graph, h: Graph, attach: Mapping[str, str]) -> AmalgamationData:
    """Build a gluing datum from an attach map of H-vertices to E-vertices.

    The keys double as the abstract set X, injected into H by inclusion.
    """
    for hv, ev in attach.items():
        h.require_vertex(hv)
        e.require_vertex(ev)
    if len(set(attach.values())) != len(attach):
        raise ValueError("attach map is not injective into the E-side vertices")
    x = tuple(sorted(attach))
    return AmalgamationData(
        x=x,
        e=e,
        h=h,
        iota_e=tuple((k, attach[k]) for k in x),
        iota_h=tuple((k, k) for k in x),
    )


E_PREFIX = "E:"
H_PREFIX = "H:"


class SinkConditionError(ValueError):
    def __init__(self, witness_e: str | None, witness_h: str | None):
        super().__init__(
            "neither injection lands in sinks: "
            f"E-side witness {witness_e}, H-side witness {witness_h}"
        )
        self.witness_e = witness_e
        self.witness_h = witness_h


def _non_sink_witness(g: Graph, targets) -> str | None:
    sinks = set(g.sinks())
    for v in targets:
        if v not in sinks:
            return v
    return None


def pushout_over_sinks(d: AmalgamationData) -> Graph:
    """The glued graph: disjoint union with iota_E(x) and iota_H(x) identified.

    Identified vertices keep their E-side names; bundle labels are prefixed
    by their graph of origin so they stay unique.  At least one injection
    must take values in the sinks of its graph.
    """
    iota_e, iota_h = d.iota_e_map, d.iota_h_map
    if set(iota_e) != set(d.x) or set(iota_h) != set(d.x):
        raise ValueError("both injections must be total on X")
    if len(set(iota_e.values())) != len(d.x) or len(set(iota_h.values())) != len(d.x):
        raise ValueError("injections must be injective")
    we = _non_sink_witness(d.e, iota_e.values())
    wh = _non_sink_witness(d.h, iota_h.values())
    if we is not None and wh is not None:
        raise SinkConditionError(we, wh)

    identified = {iota_h[x]: iota_e[x] for x in d.x}
    vertices = list(d.e.vertices)
    for hv in d.h.vertices:
        if hv in identified:
            continue
        if hv in vertices:
            raise ValueError(f"H vertex {hv!r} collides with an E vertex; rename it before gluing")
        vertices.append(hv)

    def h_vertex(v: str) -> str:
        return identified.get(v, v)

    bundles = [Bundle(E_PREFIX + b.label, b.src, b.dst, b.mult) for b in d.e.bundles]
    bundles += [Bundle(H_PREFIX + b.label, h_vertex(b.src), h_vertex(b.dst), b.mult) for b in d.h.bundles]
    return Graph(f"{d.e.name}_glue_{d.h.name}", vertices, bundles)


def extend_functor(base: PullbackCertificate, d1: AmalgamationData, d2: AmalgamationData) -> GraphFunctor:
    """Extend the base functor to the glued graphs, acting as the identity on H."""
    if d1.h != d2.h:
        raise ValueError("the two gluing data use different graphs H")
    if d1.x != d2.x or d1.iota_h != d2.iota_h:
        raise ValueError("the two gluing data disagree on X")
    if d1.iota_e != d2.iota_e:
        # resolution functors are the identity on vertices, so the two
        # injections must literally agree for the extension to intertwine
        raise ValueError("the injections into E1 and E2 disagree; the functor cannot intertwine them")
    if d1.e != base.e1 or d2.e != base.e2:
        raise ValueError("gluing data do not match the certificate's graphs")
    glued1 = pushout_over_sinks(d1)
    glued2 = pushout_over_sinks(d2)
    vmap = {v: v for v in glued1.vertices}
    return GraphFunctor(
        glued1,
        glued2,
        vmap,
        ExtensionRule(base.functor, E_PREFIX, H_PREFIX),
        name=f"{base.functor.name}_ext_{d1.h.name}",
    )


# -- extension certificates ------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionChecks(Checks):
    iota_e1_into_sinks: bool = False
    iota_e2_into_sinks: bool = False
    phi_vertex_conditions: bool = False
    phi_paths_into_x_in_image_to_bound: bool = False
    delta_annihilates_x: bool = False
    base_pullback_verified: bool = False


@dataclass
class ExtensionCertificate:
    base: PullbackCertificate
    h: Graph
    attach: tuple[tuple[str, str], ...]
    glued1: Graph | None
    glued2: Graph | None
    psi: GraphFunctor | None
    checks: ExtensionChecks
    witnesses: tuple[str, ...]
    bounds: Bounds

    @property
    def verified(self) -> bool:
        return self.checks.all_true()

    def corners(self) -> dict[str, str]:
        return {
            "top": f"C*({self.glued1.name})" if self.glued1 else "(not built)",
            "left": f"C*({self.base.f1.name})",
            "right": f"C*({self.glued2.name})" if self.glued2 else "(not built)",
            "bottom": f"C*({self.base.f2.name})",
        }


def verify_extension(
    base: PullbackCertificate,
    h: Graph,
    attach: Mapping[str, str],
    bounds: Bounds = DEFAULT_BOUNDS,
) -> ExtensionCertificate:
    """Check the extension hypotheses over a sink set and build the glued square.

    attach maps H-vertices (the set X) to shared vertices of the base graphs;
    all outcomes are recorded, nothing raises on hypothesis failures.
    """
    witnesses: list[str] = []
    attach = dict(attach)
    # building both gluing data validates the attach map against H, E1 and E2
    d1 = amalgamation(base.e1, h, attach)
    d2 = amalgamation(base.e2, h, attach)

    w1 = _non_sink_witness(base.e1, attach.values())
    if w1 is not None:
        witnesses.append(f"attach vertex {w1} is not a sink of {base.e1.name}")
    w2 = _non_sink_witness(base.e2, attach.values())
    if w2 is not None:
        witnesses.append(f"attach vertex {w2} is not a sink of {base.e2.name}")

    # the connecting homomorphism must send vertex projections to vertex
    # projections and keep the non-attached ones outside the attach image;
    # identity-on-vertices functors do both as long as the vertex sets agree
    image = set(attach.values())
    phi_ok = True
    for v in base.e1.vertices:
        fv = base.functor.vertex_image(v)
        if fv != v:
            phi_ok = False
            witnesses.append(f"functor moves vertex {v} to {fv}; it cannot intertwine the injections")
        elif (v in image) != (fv in image):
            phi_ok = False
            witnesses.append(f"vertex {v} crosses the attach image under the functor")

    paths_ok = True
    for p in all_paths(base.e2, max_len=bounds.max_len, max_index=bounds.max_index):
        if p.edges and base.e2.path_range(p) in image and not base.functor.round_trips(p):
            paths_ok = False
            witnesses.append(f"path {format_path(p)} into the attach image is not in the functor image")

    overlap = image & set(base.f1.vertices)
    delta_ok = not overlap
    if overlap:
        witnesses.append(f"attach image meets the lower-left subgraph at {sorted(overlap)}; the quotient cannot annihilate it")

    if not base.verified:
        witnesses.append("base certificate is not verified")

    glued1 = glued2 = None
    psi = None
    if w1 is None and w2 is None:
        glued1 = pushout_over_sinks(d1)
        glued2 = pushout_over_sinks(d2)
        psi = extend_functor(base, d1, d2)
    else:
        witnesses.append("glued graphs not built: attach does not land in sinks")

    checks = ExtensionChecks(
        iota_e1_into_sinks=w1 is None,
        iota_e2_into_sinks=w2 is None,
        phi_vertex_conditions=phi_ok,
        phi_paths_into_x_in_image_to_bound=paths_ok,
        delta_annihilates_x=delta_ok,
        base_pullback_verified=base.verified,
    )
    return ExtensionCertificate(
        base=base,
        h=h,
        attach=tuple(sorted(attach.items())),
        glued1=glued1,
        glued2=glued2,
        psi=psi,
        checks=checks,
        witnesses=tuple(witnesses),
        bounds=bounds,
    )


def extended_quotient_hom(cert: ExtensionCertificate) -> QuotientHom:
    """The extension of the base quotient to the glued graph: it annihilates
    everything outside the lower-left subgraph, H included."""
    if cert.glued1 is None:
        raise ValueError("certificate carries no glued graph")
    keep = set(cert.base.f1.vertices)
    killed = [v for v in cert.glued1.vertices if v not in keep]
    return QuotientHom(cert.glued1, killed)


@dataclass(frozen=True)
class KernelDescriptorReport:
    ok: bool
    checked: int
    failures: tuple[str, ...] = ()


def kernel_descriptor_check(cert: ExtensionCertificate, bounds: Bounds | None = None) -> KernelDescriptorReport:
    """Monomial-level shadow of the extended kernel description.

    For every bounded spanning monomial of the glued upper-left algebra,
    vanishing under the extended quotient must agree with the predicate
    "the range lies outside the lower-left subgraph, or some constituent
    path uses an H-origin bundle"."""
    if cert.glued1 is None:
        raise ValueError("certificate carries no glued graph")
    bounds = bounds or cert.bounds
    hom = extended_quotient_hom(cert)
    g = cert.glued1
    keep = set(cert.base.f1.vertices)
    paths = all_paths(g, max_len=bounds.max_len, max_index=bounds.max_index)
    by_range: dict[str, list[Path]] = {}
    for p in paths:
        by_range.setdefault(g.path_range(p), []).append(p)

    def uses_h(p: Path) -> bool:
        return any(e.bundle.startswith(H_PREFIX) for e in p.edges)

    failures: list[str] = []
    checked = 0
    for group in by_range.values():
        for alpha in group:
            for beta in group:
                checked += 1
                m = Monomial(alpha, beta)
                element = AlgebraElement.monomial(g, alpha, beta)
                in_kernel = apply_hom(hom, element).is_zero()
                predicted = g.path_range(alpha) not in keep or uses_h(alpha) or uses_h(beta)
                if in_kernel != predicted:
                    failures.append(
                        f"monomial {format_monomial(m)}: engine says {'kernel' if in_kernel else 'survives'},"
                        f" predicate says {'kernel' if predicted else 'survives'}"
                    )
    return KernelDescriptorReport(not failures, checked, tuple(failures))
