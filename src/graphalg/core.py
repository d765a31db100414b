"""Directed multigraphs with extended-natural edge multiplicities.

Parallel edges between two vertices are stored as a single *bundle*: a
labelled (src, dst) pair carrying a multiplicity in {1, 2, ...} or `inf`.
A concrete edge is a (bundle label, index) pair with the index below the
multiplicity, so countably infinite edge families are first-class values.
Paths record their base vertex explicitly, which keeps zero-length paths
at distinct vertices distinct.

Graph construction never validates; `validate_graph` reports violations
as data and every other operation assumes a valid graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from typing import Iterable, Iterator


@total_ordering
class ExtNat:
    """A nonnegative integer or infinity, with + and a total order."""

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"extended natural needs an int or None, got {value!r}")
            if value < 0:
                raise ValueError(f"extended natural cannot be negative: {value}")
        object.__setattr__(self, "_value", value)

    @classmethod
    def parse(cls, text: str) -> "ExtNat":
        if text == "inf":
            return INF
        return cls(int(text))

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    def finite(self) -> int:
        """The value as an int; raises on infinity."""
        if self._value is None:
            raise ValueError("infinite value where a finite one is required")
        return self._value

    def __add__(self, other):
        other = _as_extnat(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            return INF
        return ExtNat(self._value + other._value)

    __radd__ = __add__

    def __eq__(self, other):
        other = _as_extnat(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other):
        other = _as_extnat(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        # finite values hash like their int so mixed comparisons stay sane
        return hash(self._value) if self._value is not None else hash("ExtNat.inf")

    def __bool__(self):
        return self._value != 0

    def __repr__(self):
        return f"ExtNat({self})"

    def __str__(self):
        return "inf" if self._value is None else str(self._value)


def _as_extnat(x):
    if isinstance(x, ExtNat):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return ExtNat(x)
    return NotImplemented


INF = ExtNat(None)


class VertexClass(Enum):
    SINK = "sink"
    REGULAR = "regular"
    INFINITE_EMITTER = "infinite-emitter"


class Prolongation(Enum):
    EQUAL = "equal"
    A_PREFIX_OF_B = "a-prefix-of-b"
    B_PREFIX_OF_A = "b-prefix-of-a"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Bundle:
    label: str
    src: str
    dst: str
    mult: ExtNat

    @property
    def is_self_loop(self) -> bool:
        return self.src == self.dst

    def has_index(self, i: int) -> bool:
        """Whether the bundle has an edge of index i."""
        return 0 <= i and (not self.mult.is_finite or i < self.mult.finite())


@dataclass(frozen=True)
class Edge:
    """A concrete edge: some member of a bundle, selected by index."""

    bundle: str
    index: int


@dataclass(frozen=True)
class Path:
    """A base vertex plus a finite edge sequence; empty means the vertex itself."""

    base: str
    edges: tuple[Edge, ...] = ()

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    detail: str = ""


class Graph:
    """Immutable presentation of a countable directed multigraph."""

    __slots__ = ("name", "vertices", "bundles", "derived", "_vertex_set", "_by_label", "_out", "_hash")

    def __init__(self, name: str, vertices: Iterable[str], bundles: Iterable[Bundle]):
        self.name = str(name)
        self.vertices = tuple(vertices)
        self.bundles = tuple(bundles)
        self._vertex_set = frozenset(self.vertices)
        by_label: dict[str, Bundle] = {}
        out: dict[str, list[Bundle]] = {v: [] for v in self.vertices}
        for b in self.bundles:
            by_label.setdefault(b.label, b)
            if b.src in out:
                out[b.src].append(b)
        self._by_label = by_label
        self._out = {v: tuple(sorted(bs, key=lambda b: b.label)) for v, bs in out.items()}
        self._hash = hash((self.name, self.vertices, self.bundles))
        # data other modules compute from the graph once; not part of equality or hashing
        self.derived: dict = {}

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.name, self.vertices, self.bundles) == (other.name, other.vertices, other.bundles)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({self.name!r}, {len(self.vertices)} vertices, {len(self.bundles)} bundles)"

    # -- structural accessors ------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def require_vertex(self, v: str) -> None:
        if v not in self._vertex_set:
            raise ValueError(f"unknown vertex {v!r} in graph {self.name!r}")

    def bundle(self, label: str) -> Bundle:
        try:
            return self._by_label[label]
        except KeyError:
            raise ValueError(f"unknown bundle {label!r} in graph {self.name!r}") from None

    def has_bundle(self, label: str) -> bool:
        return label in self._by_label

    def out_bundles(self, v: str) -> tuple[Bundle, ...]:
        self.require_vertex(v)
        return self._out[v]

    def mult(self, v: str, w: str) -> ExtNat:
        """Entry of the multiplicity matrix: total number of edges v -> w."""
        self.require_vertex(v)
        self.require_vertex(w)
        return sum((b.mult for b in self._out[v] if b.dst == w), ExtNat(0))

    def out_degree(self, v: str) -> ExtNat:
        self.require_vertex(v)
        return sum((b.mult for b in self._out[v]), ExtNat(0))

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    # -- concrete edges and paths ---------------------------------------------

    def edge_src(self, e: Edge) -> str:
        return self.bundle(e.bundle).src

    def edge_dst(self, e: Edge) -> str:
        return self.bundle(e.bundle).dst

    def is_valid_edge(self, e: Edge) -> bool:
        b = self._by_label.get(e.bundle)
        return b is not None and b.has_index(e.index)

    def bundle_edges(self, b: Bundle, max_index: int) -> list[Edge]:
        """Concrete edges of bundle b with index <= max_index."""
        top = b.mult.finite() - 1 if b.mult.is_finite else max_index
        return [Edge(b.label, i) for i in range(min(top, max_index) + 1)]

    def edges_from(self, v: str, max_index: int) -> list[Edge]:
        """Concrete out-edges of v with index <= max_index, in (label, index) order."""
        return [e for b in self.out_bundles(v) for e in self.bundle_edges(b, max_index)]

    def is_valid_path(self, p: Path) -> bool:
        if not self.has_vertex(p.base):
            return False
        at = p.base
        for e in p.edges:
            if not self.is_valid_edge(e) or self.edge_src(e) != at:
                return False
            at = self.edge_dst(e)
        return True

    def require_path(self, p: Path) -> None:
        if not self.is_valid_path(p):
            raise ValueError(f"invalid path {format_path(p)} in graph {self.name!r}")

    def path_range(self, p: Path) -> str:
        return self.edge_dst(p.edges[-1]) if p.edges else p.base


def make_graph(name: str, vertices: Iterable[str], edges: Iterable[tuple] = ()) -> Graph:
    """Build a graph from (label, src, dst, mult) tuples; mult may be int, 'inf' or ExtNat."""
    bundles = []
    for label, src, dst, mult in edges:
        if isinstance(mult, str):
            mult = ExtNat.parse(mult)
        elif isinstance(mult, int):
            mult = ExtNat(mult)
        bundles.append(Bundle(label, src, dst, mult))
    return Graph(name, vertices, bundles)


def mult_matrix(g: Graph) -> dict[tuple[str, str], ExtNat]:
    """Nonzero entries of the multiplicity matrix."""
    matrix: dict[tuple[str, str], ExtNat] = {}
    for b in g.bundles:
        key = (b.src, b.dst)
        matrix[key] = matrix.get(key, ExtNat(0)) + b.mult
    return matrix


def same_mult_matrix(a: Graph, b: Graph, vmap: dict[str, str] | None = None) -> bool:
    """Whether a and b present the same multiplicity matrix.

    With vmap=None the vertex sets must agree literally; otherwise vmap must
    be a bijection from a's vertices onto b's.
    """
    if vmap is None:
        if len(a.vertices) != len(b.vertices) or set(a.vertices) != set(b.vertices):
            return False
        vmap = {v: v for v in a.vertices}
    else:
        if set(vmap) != set(a.vertices) or set(vmap.values()) != set(b.vertices):
            return False
        if len(set(vmap.values())) != len(vmap):
            return False
    ma, mb = mult_matrix(a), mult_matrix(b)
    return {(vmap[v], vmap[w]): m for (v, w), m in ma.items()} == mb


def isomorphic_by_order(a: Graph, b: Graph) -> bool:
    """Same multiplicity matrix under the order-preserving vertex bijection."""
    if len(a.vertices) != len(b.vertices):
        return False
    return same_mult_matrix(a, b, dict(zip(a.vertices, b.vertices)))


# -- validation ----------------------------------------------------------------


def validate_graph(g: Graph) -> list[Violation]:
    """All invariant violations; an empty list means the graph is well-formed."""
    violations = []
    seen_v: set[str] = set()
    for v in g.vertices:
        if v in seen_v:
            violations.append(Violation("DuplicateVertex", v))
        seen_v.add(v)
    seen_b: set[str] = set()
    for b in g.bundles:
        if b.label in seen_b:
            violations.append(Violation("DuplicateLabel", b.label))
        seen_b.add(b.label)
        if b.src not in seen_v:
            violations.append(Violation("UnknownVertex", b.label, f"src {b.src!r}"))
        if b.dst not in seen_v:
            violations.append(Violation("UnknownVertex", b.label, f"dst {b.dst!r}"))
        if b.mult < 1:
            violations.append(Violation("BadMultiplicity", b.label, str(b.mult)))
    return violations


def classify_vertex(g: Graph, v: str) -> VertexClass:
    """Sink, regular or infinite emitter, by the row sum of the multiplicity matrix."""
    d = g.out_degree(v)
    if d == 0:
        return VertexClass.SINK
    return VertexClass.REGULAR if d.is_finite else VertexClass.INFINITE_EMITTER


# -- paths ----------------------------------------------------------------------


def path_key(p: Path) -> tuple:
    """Canonical sort key: length, then base, then (label, index) lexicographically."""
    return (len(p.edges), p.base, tuple((e.bundle, e.index) for e in p.edges))


def concat(g: Graph, p: Path, q: Path) -> Path:
    if g.path_range(p) != q.base:
        raise ValueError(f"cannot concatenate: {format_path(p)} ends at {g.path_range(p)}, {format_path(q)} starts at {q.base}")
    return Path(p.base, p.edges + q.edges)


def enumerate_paths(
    g: Graph,
    start: str,
    end: str | None = None,
    *,
    max_len: int,
    max_index: int,
) -> list[Path]:
    """All paths from start (to end, if given) of length <= max_len whose edge
    indices are <= max_index, in canonical order."""
    if max_len < 0 or max_index < 0:
        raise ValueError("bounds must be nonnegative")
    g.require_vertex(start)
    if end is not None:
        g.require_vertex(end)
    found: list[Path] = []
    if end is None or end == start:
        found.append(Path(start))
    layer = [Path(start)]
    for _ in range(max_len):
        nxt = []
        for p in layer:
            at = g.path_range(p)
            for e in g.edges_from(at, max_index):
                nxt.append(Path(start, p.edges + (e,)))
        layer = nxt
        found.extend(p for p in layer if end is None or g.path_range(p) == end)
    return found


def all_paths(g: Graph, *, max_len: int, max_index: int) -> list[Path]:
    """Bounded path sets from every vertex, vertices in graph order."""
    out: list[Path] = []
    for v in g.vertices:
        out.extend(enumerate_paths(g, v, max_len=max_len, max_index=max_index))
    return out


def prolongation_compare(a: Path, b: Path) -> Prolongation:
    """Prefix relation on paths; different base vertices are incomparable."""
    if a.base != b.base:
        return Prolongation.INCOMPARABLE
    n = min(len(a.edges), len(b.edges))
    if a.edges[:n] != b.edges[:n]:
        return Prolongation.INCOMPARABLE
    if len(a.edges) == len(b.edges):
        return Prolongation.EQUAL
    return Prolongation.A_PREFIX_OF_B if len(a.edges) < len(b.edges) else Prolongation.B_PREFIX_OF_A


def comparable(a: Path, b: Path) -> bool:
    return prolongation_compare(a, b) is not Prolongation.INCOMPARABLE


def is_pointed(g: Graph, p: Path) -> bool:
    """Whether the final edge exists and is not a self-loop."""
    if not p.edges:
        return False
    return not g.bundle(p.edges[-1].bundle).is_self_loop


def loop_free(g: Graph) -> bool:
    """No directed cycle at all, self-loops included (multiplicities ignored)."""
    adj = {v: sorted({b.dst for b in g.out_bundles(v)}) for v in g.vertices}
    state = {v: 0 for v in g.vertices}  # 0 unseen, 1 on stack, 2 done
    for root in g.vertices:
        if state[root]:
            continue
        stack: list[tuple[str, Iterator[str]]] = [(root, iter(adj[root]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return True


def short_loops_at(g: Graph, members: Iterable[str]) -> list[Bundle]:
    """Self-loop bundles based at one of the given vertices."""
    members = set(members)
    for v in members:
        g.require_vertex(v)
    return [b for b in g.bundles if b.is_self_loop and b.src in members]


def without_self_loops(g: Graph) -> Graph:
    return Graph(g.name, g.vertices, tuple(b for b in g.bundles if not b.is_self_loop))


# -- formatting -------------------------------------------------------------------


def format_edge(e: Edge) -> str:
    return e.bundle if e.index == 0 else f"{e.bundle}[{e.index}]"


def format_path(p: Path) -> str:
    if not p.edges:
        return f"[{p.base}]"
    return ".".join(format_edge(e) for e in p.edges)
