"""Built-in graph presentations of well-known quantum spaces and algebras.

Keys accept parameters after a colon, e.g. ``cuntz:2`` or ``rnm:2,3,1,1``.
Every builder returns a graph with canonical vertex and bundle names that
passes validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import Graph, make_graph


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    params: tuple[str, ...]
    build: Callable[..., Graph]
    provenance: str
    summary: str


def _point() -> Graph:
    return make_graph("point", ["v"])


def _circle() -> Graph:
    return make_graph("circle", ["v"], [("e", "v", "v", 1)])


def _toeplitz() -> Graph:
    return make_graph(
        "toeplitz",
        ["w1", "w2"],
        [("t1", "w1", "w1", 1), ("t2", "w1", "w2", 1)],
    )


def _cuntz(m: int) -> Graph:
    if m < 1:
        raise ValueError("cuntz needs m >= 1")
    return make_graph(f"cuntz{m}", ["1"], [(f"e{i}", "1", "1", 1) for i in range(1, m + 1)])


def _podles() -> Graph:
    return make_graph("podles", ["v1", "v2"], [("e", "v1", "v2", "inf")])


def _rp2q() -> Graph:
    return make_graph(
        "rp2q",
        ["top", "bottom"],
        [("l", "top", "top", 1), ("f", "top", "bottom", 2)],
    )


def _eq_sphere() -> Graph:
    return make_graph(
        "eq_sphere",
        ["top", "b1", "b2"],
        [("l", "top", "top", 1), ("f1", "top", "b1", 1), ("f2", "top", "b2", 1)],
    )


def _ball(n: int) -> Graph:
    if n < 1:
        raise ValueError("ball needs n >= 1")
    vertices = [str(i) for i in range(n + 1)]
    edges = [(f"l{i}", str(i), str(i), 1) for i in range(n)]
    edges += [(f"e{i}_{j}", str(i), str(j), 1) for i in range(n + 1) for j in range(i + 1, n + 1)]
    return make_graph(f"ball{n}", vertices, edges)


def _sphere_odd(n: int) -> Graph:
    if n < 1:
        raise ValueError("sphere_odd needs n >= 1")
    vertices = [str(i) for i in range(n)]
    edges = [(f"l{i}", str(i), str(i), 1) for i in range(n)]
    edges += [(f"e{i}_{j}", str(i), str(j), 1) for i in range(n) for j in range(i + 1, n)]
    return make_graph(f"sphere_odd{n}", vertices, edges)


def _cpn(n: int) -> Graph:
    if n < 0:
        raise ValueError("cpn needs n >= 0")
    vertices = [str(i) for i in range(n + 1)]
    edges = [(f"e{i}_{j}", str(i), str(j), "inf") for i in range(n + 1) for j in range(i + 1, n + 1)]
    return make_graph(f"cpn{n}", vertices, edges)


def _wn(n: int) -> Graph:
    if n < 1:
        raise ValueError("wn needs n >= 1")
    vertices = ["r0"] + [f"r{j}" for j in range(1, n + 1)]
    edges = [(f"w{j}", "r0", f"r{j}", "inf") for j in range(1, n + 1)]
    return make_graph(f"wn{n}", vertices, edges)


def _rnm(n: int, m: int, *weights: int) -> Graph:
    if n < 1 or m < 1:
        raise ValueError("rnm needs n >= 1 and m >= 1")
    if weights and len(weights) != n:
        raise ValueError(f"rnm takes exactly n={n} sink multiplicities, got {len(weights)}")
    weights = weights or tuple(1 for _ in range(n))
    if any(w < 1 for w in weights):
        raise ValueError("sink multiplicities must be >= 1")
    vertices = ["r0"] + [f"r{j}" for j in range(1, n + 1)]
    edges = [(f"e{i}", "r0", "r0", 1) for i in range(1, m + 1)]
    edges += [(f"g{j}", "r0", f"r{j}", weights[j - 1]) for j in range(1, n + 1)]
    return make_graph(f"rnm{n}_{m}", vertices, edges)


def _h_chain(k: int) -> Graph:
    if k < 1:
        raise ValueError("h_chain needs k >= 1")
    vertices = [f"h{i}" for i in range(1, k + 1)]
    edges = [(f"c{i}", f"h{i}", f"h{i + 1}", 1) for i in range(1, k)]
    return make_graph(f"h_chain{k}", vertices, edges)


def _h_cycle(k: int) -> Graph:
    if k < 1:
        raise ValueError("h_cycle needs k >= 1")
    vertices = [f"h{i}" for i in range(1, k + 1)]
    edges = [(f"c{i}", f"h{i}", f"h{i % k + 1}", 1) for i in range(1, k + 1)]
    return make_graph(f"h_cycle{k}", vertices, edges)


ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry("point", (), _point, "the one-point space / the complex numbers", "one vertex, no edges"),
    CatalogEntry("circle", (), _circle, "continuous functions on the circle", "one vertex with one self-loop"),
    CatalogEntry("toeplitz", (), _toeplitz, "the Toeplitz algebra", "loop vertex w1 feeding the sink w2"),
    CatalogEntry("cuntz", ("m",), _cuntz, "the Cuntz algebra O_m", "one vertex with m self-loops"),
    CatalogEntry("podles", (), _podles, "the standard Podles quantum sphere / quantum projective line", "infinite bundle v1 -> v2"),
    CatalogEntry("rp2q", (), _rp2q, "the quantum real projective plane", "loop at the top, double edge to the bottom"),
    CatalogEntry("eq_sphere", (), _eq_sphere, "the equatorial Podles quantum sphere", "loop at the top, edges to two sinks"),
    CatalogEntry("ball", ("n",), _ball, "the Hong-Szymanski quantum even ball B_q^2n", "loops below the top sink, single edges upward"),
    CatalogEntry("sphere_odd", ("n",), _sphere_odd, "the Vaksman-Soibelman odd quantum sphere S_q^2n-1", "loops everywhere, single edges upward"),
    CatalogEntry("cpn", ("n",), _cpn, "the quantum complex projective space CP_q^n", "infinite bundles i -> j for i < j"),
    CatalogEntry("wn", ("n",), _wn, "the quantum teardrop WP_q^1(1,n) graph", "infinite bundles from r0 to n sinks"),
    CatalogEntry("rnm", ("n", "m", "*weights"), _rnm, "the n-sink extension of the Cuntz graph", "m loops at r0 plus weighted edges to n sinks"),
    CatalogEntry("h_chain", ("k",), _h_chain, "a sample attachment graph", "a directed chain on k vertices"),
    CatalogEntry("h_cycle", ("k",), _h_cycle, "a sample attachment graph", "a directed cycle on k vertices"),
)

_BY_KEY = {entry.key: entry for entry in ENTRIES}


def catalog_keys() -> list[str]:
    return [entry.key for entry in ENTRIES]


def catalog_entry(key: str) -> CatalogEntry:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise ValueError(f"unknown catalog key {key!r}; known keys: {', '.join(catalog_keys())}") from None


def catalog_get(key: str, *params: int) -> Graph:
    entry = catalog_entry(key)
    required = [p for p in entry.params if not p.startswith("*")]
    variadic = len(required) < len(entry.params)
    if len(params) < len(required) or (len(params) > len(required) and not variadic):
        expected = f"parameters {','.join(entry.params)}" if entry.params else "no parameters"
        raise ValueError(f"catalog key {key!r} takes {expected}, got {len(params)}")
    return entry.build(*params)


def parse_catalog_spec(spec: str) -> Graph:
    """Build a graph from a textual key like ``toeplitz`` or ``rnm:2,2,1,1``."""
    key, _, rest = spec.partition(":")
    params: tuple[int, ...] = ()
    if rest:
        try:
            params = tuple(int(x) for x in rest.split(","))
        except ValueError:
            raise ValueError(f"catalog parameters must be integers: {rest!r}") from None
    return catalog_get(key.strip(), *params)


# representative instances used by the exhaustive test suites
STANDARD_INSTANCES: tuple[str, ...] = (
    "point",
    "circle",
    "toeplitz",
    "cuntz:2",
    "cuntz:3",
    "podles",
    "rp2q",
    "eq_sphere",
    "ball:1",
    "ball:2",
    "ball:3",
    "sphere_odd:2",
    "sphere_odd:3",
    "cpn:1",
    "cpn:2",
    "cpn:3",
    "wn:1",
    "wn:2",
    "wn:3",
    "rnm:1,1",
    "rnm:2,2",
    "rnm:2,2,2,1",
    "h_chain:2",
    "h_chain:3",
    "h_cycle:3",
)


def standard_instances() -> list[Graph]:
    return [parse_catalog_spec(spec) for spec in STANDARD_INSTANCES]


# the admissible subgraph pairs realized inside the catalog:
# (sub spec, ambient spec, vertex map)
def admissible_pairs() -> list[tuple[str, str, dict[str, str]]]:
    pairs: list[tuple[str, str, dict[str, str]]] = [
        ("circle", "toeplitz", {"v": "w1"}),
        ("point", "podles", {"v": "v1"}),
    ]
    for n in (1, 2, 3):
        pairs.append((f"cpn:{n - 1}", f"cpn:{n}", {str(i): str(i) for i in range(n)}))
    for n in (2, 3):
        pairs.append((f"sphere_odd:{n}", f"ball:{n}", {str(i): str(i) for i in range(n)}))
    for n, m in ((1, 1), (1, 2), (2, 2)):
        pairs.append((f"cuntz:{m}", f"rnm:{n},{m}", {"1": "r0"}))
    return pairs
