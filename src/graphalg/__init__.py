"""Symbolic toolkit for graph algebra presentations.

Constructs and machine-verifies the graph-level data behind pullback squares
of graph algebras: admissible inclusions, quotient graphs, pointed-path
resolutions with their canonical functors, sink-amalgamated pushouts, and
bounded kernel and commutativity checks in the dense rational span.
"""

__version__ = "0.1.0"

from .core import (
    INF,
    Bundle,
    Edge,
    ExtNat,
    Graph,
    Path,
    Prolongation,
    VertexClass,
    Violation,
    classify_vertex,
    concat,
    enumerate_paths,
    format_path,
    is_pointed,
    isomorphic_by_order,
    loop_free,
    make_graph,
    mult_matrix,
    prolongation_compare,
    same_mult_matrix,
    short_loops_at,
    validate_graph,
)
from .subsets import (
    AdmissibilityError,
    AdmissibilityReport,
    QuotientError,
    check_admissible,
    check_quotient_iso,
    hereditary_closure,
    induced_subgraph,
    is_hereditary,
    is_saturated,
    quotient_graph,
)
from .pointed import (
    irreducible_pointed_at,
    irreducible_pointed_count,
    irreducible_pointed_rank,
)
from .functors import (
    CanonicalRule,
    ExtensionRule,
    GraphFunctor,
    TemplateFactor,
    TemplateRule,
    check_functor_conditions,
    identity_functor,
)
from .algebra import (
    AlgebraElement,
    InducedHom,
    Monomial,
    QuotientHom,
    apply_hom,
    check_relations_preserved,
    faithful_rep_oracle,
    format_element,
    kernel_preimage,
    multiply,
    square_commutes,
    truncate,
)
from .resolution import (
    Bounds,
    PullbackCertificate,
    ResolveError,
    Resolution,
    resolve,
    verify_pullback,
)
from .pushout import (
    AmalgamationData,
    ExtensionCertificate,
    SinkConditionError,
    amalgamation,
    extend_functor,
    kernel_descriptor_check,
    pushout_over_sinks,
    verify_extension,
)
from .catalog import catalog_get, catalog_keys, parse_catalog_spec
