"""The single round-trip scan against the three separate passes it replaced.

`verify_pullback` decodes every bounded path of E2 once, through the
functor's memoised round-trip test, and `verify_extension` reuses it.  The
oracles in `helpers` are the older passes, each of which decodes afresh.
Both must agree on every boolean and on every witness, in order.
"""

import itertools
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphalg.catalog import catalog_get, parse_catalog_spec
from graphalg.core import make_graph
from graphalg.functors import CanonicalRule, GraphFunctor
from graphalg.pushout import verify_extension
from graphalg.resolution import Bounds, verify_pullback
from helpers import oracle_attach_paths, oracle_image_pointed, oracle_kernel_inclusion

SMALL = Bounds(4, 3)
SCAN_PREFIXES = ("image of ", "pointed path ", "kernel path ", "kernel inclusion holds vacuously")
H = catalog_get("h_chain", 2)


def assert_scan_matches_oracle(e2, members, attach, bounds=SMALL):
    cert = verify_pullback(e2, members, bounds)
    # a fresh functor, so that no cache of the certificate's one is shared
    functor = GraphFunctor(cert.e1, cert.e2, {v: v for v in cert.e2.vertices}, CanonicalRule())
    expected: list[str] = []
    image_ok = oracle_image_pointed(functor, bounds, expected)
    kernel_ok = oracle_kernel_inclusion(functor, frozenset(cert.f2_vertices), bounds, expected)
    assert cert.checks.image_is_pointed_to_bound == image_ok
    assert cert.checks.kernel_inclusion_to_bound == kernel_ok
    assert [w for w in cert.witnesses if w.startswith(SCAN_PREFIXES)] == expected

    ext = verify_extension(cert, H, attach, bounds)
    expected = []
    paths_ok = oracle_attach_paths(functor, set(attach.values()), bounds, expected)
    assert ext.checks.phi_paths_into_x_in_image_to_bound == paths_ok
    assert [w for w in ext.witnesses if "into the attach image" in w] == expected


ACCEPTANCE_CASES = (
    [("toeplitz", ["w1"], {"h1": "w2"}), ("rp2q", ["top"], {"h1": "bottom"}), ("eq_sphere", ["top"], {"h1": "b1"})]
    + [(f"ball:{n}", [str(i) for i in range(n)], {"h1": str(n)}) for n in (1, 2, 3, 4)]
    + [(f"rnm:{n},{m}", ["r0"], {"h1": "r1"}) for n, m in itertools.product((1, 2, 3), repeat=2)]
    + [("rnm:1,1", ["r0"], {"h1": "r0"}), ("rnm:1,1", ["r1"], {"h1": "r1"}), ("ball:2", ["0"], {"h1": "2"})]
    + [("cuntz:2", ["1"], {"h1": "1"})]
)


def test_scan_matches_oracle_on_acceptance_cases():
    for spec, members, attach in ACCEPTANCE_CASES:
        assert_scan_matches_oracle(parse_catalog_spec(spec), members, attach)


@st.composite
def graphs_with_subsets(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [
        (f"b{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)), draw(st.sampled_from((1, 2, "inf"))))
        for i in range(draw(st.integers(0, 5)))
    ]
    members = draw(st.lists(st.sampled_from(vertices), unique=True))
    return make_graph("drawn", vertices, edges), members, {"h1": draw(st.sampled_from(vertices))}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs_with_subsets())
def test_scan_matches_oracle_on_drawn_graphs(case):
    g, members, attach = case
    assert_scan_matches_oracle(g, members, attach, Bounds(3, 2))


def test_each_path_is_decoded_once_across_pullback_and_extension(monkeypatch):
    calls = Counter()
    decode = GraphFunctor.decode

    def counting(self, p):
        calls[(id(self), p)] += 1
        return decode(self, p)

    monkeypatch.setattr(GraphFunctor, "decode", counting)
    cert = verify_pullback(parse_catalog_spec("rnm:2,2,2,1"), ["r0"], Bounds(5, 4))
    ext = verify_extension(cert, H, {"h1": "r1", "h2": "r2"}, Bounds(5, 4))
    assert cert.verified and ext.verified
    assert calls and max(calls.values()) == 1
