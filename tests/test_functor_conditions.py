"""Condition 1 by the local prefix-code test, checked against the bounded scan
it replaced (helpers.oracle_functor_conditions): equal verdicts and
witnesses, or the same exception, on random template functors and on the
catalog's resolution functors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalg import core, functors
from graphalg.catalog import parse_catalog_spec
from graphalg.core import make_graph
from graphalg.functors import GraphFunctor, TemplateFactor, TemplateRule, check_functor_conditions
from graphalg.resolution import Bounds, resolve, verify_pullback
from helpers import oracle_functor_conditions

MULTS = st.sampled_from([1, 2, 3, "inf"])
VALUES = st.sampled_from([None, None, 0, 1])
BOUNDS = [(-1, 1), (1, -1), (0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (3, 2)]


def _outcome(check, f: GraphFunctor, max_len: int, max_index: int):
    """(cond1_ok, cond2_ok, failures) on a fresh copy of f, or the type of
    the exception raised."""
    fresh = GraphFunctor(f.source, f.target, f.vertex_map, f.rule, name=f.name)
    try:
        report = check(fresh, max_len=max_len, max_index=max_index)
    except Exception as err:
        return type(err)
    if isinstance(report, tuple):
        return report
    return report.cond1_ok, report.cond2_ok, report.failures


def _assert_matches_oracle(f: GraphFunctor, max_len: int, max_index: int):
    expected = _outcome(oracle_functor_conditions, f, max_len, max_index)
    assert _outcome(check_functor_conditions, f, max_len, max_index) == expected
    return expected


@st.composite
def template_functors(draw):
    """Template functors between small random graphs.  The target holds a
    copy y_i of each source bundle x_i under the vertex map, plus a few
    self-loops.  Templates mostly follow the copy, maybe between loop powers,
    so prefix codes are common; they also borrow another bundle's copy
    (shared or prefix images), pick a loop at the wrong vertex, go empty, or
    are missing.  Vertex maps are injective about half the time."""
    sv = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(sv), st.sampled_from(sv), MULTS), max_size=4))
    source = make_graph("src", sv, [(f"x{i}", a, b, m) for i, (a, b, m) in enumerate(ends)])
    tv = [f"t{i}" for i in range(draw(st.integers(max(1, len(sv) - 1), len(sv) + 1)))]
    if len(tv) >= len(sv) and draw(st.booleans()):
        images = draw(st.permutations(tv))[: len(sv)]
    else:
        images = draw(st.lists(st.sampled_from(tv), min_size=len(sv), max_size=len(sv)))
    vmap = dict(zip(sv, images))
    links = [(f"y{i}", vmap[a], vmap[b], draw(MULTS)) for i, (a, b, _) in enumerate(ends)]
    loops = [(f"l{v}", v, v, draw(MULTS)) for v in draw(st.lists(st.sampled_from(tv), unique=True, max_size=2))]
    target = make_graph("tgt", tv, links + loops)
    templates = []
    for i, (a, b, _) in enumerate(ends):
        if draw(st.integers(0, 19)) == 0:
            continue
        link = draw(st.sampled_from([f"y{i}"] * 3 + [f"y{j}" for j in range(len(ends))]))
        factors = [TemplateFactor(link, value=draw(VALUES))]
        for label, at, _, _ in loops:
            anywhere = draw(st.integers(0, 9)) == 0
            if (at == vmap[a] or anywhere) and draw(st.booleans()):
                factors.insert(0, TemplateFactor(label, power=True, value=draw(VALUES)))
            if (at == vmap[b] or anywhere) and draw(st.integers(0, 3)) == 0:
                factors.append(TemplateFactor(label, power=True, value=draw(VALUES)))
        if draw(st.integers(0, 9)) == 0:
            factors = []
        templates.append((f"x{i}", tuple(factors)))
    return GraphFunctor(source, target, vmap, TemplateRule(tuple(templates)), name="random")


@settings(max_examples=300, deadline=None)
@given(template_functors(), st.sampled_from(BOUNDS))
def test_template_functors_match_the_scan(f, bounds):
    _assert_matches_oracle(f, *bounds)


def _template_functor(source_edges, target_edges, templates, vmap=None):
    source = make_graph("src", ["a", "b", "c"], source_edges)
    target = make_graph("tgt", ["a", "b", "c"], target_edges)
    rule = TemplateRule(tuple((label, tuple(TemplateFactor(f) for f in fs)) for label, fs in templates))
    return GraphFunctor(source, target, vmap or {"a": "a", "b": "b", "c": "c"}, rule)


TWO = [("x", "a", "b", 1), ("y", "a", "b", 1)]
LINK_AND_LOOP = [("z", "a", "b", 1), ("l", "b", "b", 1)]

# functor -> cond1_ok at Bounds(3, 2), or the exception the scan raises there
FAILING = {
    "shared images": (_template_functor(TWO, LINK_AND_LOOP, [("x", ["z"]), ("y", ["z"])]), False),
    "empty image": (_template_functor(TWO, LINK_AND_LOOP, [("x", ["z"]), ("y", [])]), False),
    "lone empty image": (_template_functor(TWO[:1], LINK_AND_LOOP, [("x", [])]), False),
    "prefix images": (_template_functor(TWO, LINK_AND_LOOP, [("x", ["z"]), ("y", ["z", "l"])]), False),
    # the scan does not look at the endpoints of a lone edge image
    "wrong endpoints": (_template_functor(TWO, [("z", "a", "b", 1), ("l", "a", "a", 1)], [("x", ["z"]), ("y", ["l"])]), True),
    "wrong endpoints, continued": (
        _template_functor([("x", "a", "b", 1), ("y", "b", "c", 1)], [("z", "a", "c", 1), ("w", "b", "c", 1)], [("x", ["z"]), ("y", ["w"])]),
        ValueError,
    ),
    # graphs are not validated on construction; the scan's enumeration
    # raises at the bundle's missing end vertex
    "edge into a non-vertex": (
        _template_functor([("x", "a", "q", 1)], [("z", "a", "b", 1)], [("x", ["z"])], {"a": "a", "b": "b", "c": "c", "q": "b"}),
        ValueError,
    ),
    "non-injective vertex map": (
        _template_functor(TWO, [("z", "b", "b", 1), ("l", "b", "b", 1)], [("x", ["z"]), ("y", ["l"])], {"a": "b", "b": "b", "c": "c"}),
        False,
    ),
}


@pytest.mark.parametrize("name", FAILING)
def test_failing_functors_match_the_scan(name):
    f, expected = FAILING[name]
    for bounds in [(-1, 2), (2, -1), (0, 2), (1, 0), (2, 1), (3, 2)]:
        outcome = _assert_matches_oracle(f, *bounds)
    assert outcome == expected if isinstance(expected, type) else outcome[0] is expected


CATALOG = ["toeplitz", "rp2q", "eq_sphere", "podles", "cuntz:2", "ball:2", "ball:3", "cpn:2", "wn:2", "sphere_odd:2", "rnm:2,2,2,1", "rnm:3,2"]


def _resolution_functor(spec: str) -> GraphFunctor:
    """The canonical functor of the catalog graph; it does not depend on the
    subgraph, so take the whole vertex set at the smallest bounds."""
    g = parse_catalog_spec(spec)
    return verify_pullback(g, g.vertices, Bounds(0, 0)).functor


@pytest.mark.parametrize("spec", CATALOG)
def test_catalog_resolutions_match_the_scan(spec):
    f = _resolution_functor(spec)
    for bounds in [(0, 2), (1, 0), (3, 2), (4, 3)]:
        _assert_matches_oracle(f, *bounds)


def test_condition_1_does_not_enumerate_paths(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("condition 1 enumerated the bounded source paths")

    f = resolve(parse_catalog_spec("ball:5"), ["0", "1", "2", "3", "4"]).functor
    monkeypatch.setattr(core, "all_paths", boom)
    monkeypatch.setattr(functors, "all_paths", boom)
    bounds = Bounds(6, 4)
    report = check_functor_conditions(f, max_len=bounds.max_len, max_index=bounds.max_index)
    assert report.cond1_ok and report.cond2_ok, report.failures
