import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphalg.catalog import catalog_get
from graphalg.core import (
    INF,
    Bundle,
    Edge,
    ExtNat,
    Graph,
    Path,
    Prolongation,
    VertexClass,
    classify_vertex,
    concat,
    enumerate_paths,
    format_path,
    is_pointed,
    loop_free,
    make_graph,
    path_key,
    prolongation_compare,
    short_loops_at,
    validate_graph,
    without_self_loops,
)
from helpers import prefix_oracle, random_graph

extnats = st.one_of(st.integers(min_value=0, max_value=30).map(ExtNat), st.just(INF))


class TestExtNat:
    def test_parse_and_str(self):
        assert ExtNat.parse("inf") == INF
        assert ExtNat.parse("7") == ExtNat(7)
        assert str(INF) == "inf" and str(ExtNat(3)) == "3"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExtNat(-1)

    @given(extnats, extnats)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(extnats, extnats, extnats)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(extnats)
    def test_infinity_absorbs(self, a):
        assert a + INF == INF

    @given(extnats, extnats)
    def test_order_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    def test_int_mixing(self):
        assert ExtNat(2) + 3 == ExtNat(5)
        assert ExtNat(4) > 1 and ExtNat(1) < INF


class TestValidate:
    def test_catalog_toeplitz_clean(self):
        assert validate_graph(catalog_get("toeplitz")) == []

    def test_unknown_vertex(self):
        g = Graph("bad", ["v"], [Bundle("e", "ghost", "v", ExtNat(1))])
        kinds = [v.kind for v in validate_graph(g)]
        assert kinds == ["UnknownVertex"]

    def test_duplicate_label(self):
        g = make_graph("bad", ["v"], [("e", "v", "v", 1), ("e", "v", "v", 2)])
        kinds = [v.kind for v in validate_graph(g)]
        assert "DuplicateLabel" in kinds

    def test_duplicate_vertex_and_zero_mult(self):
        g = make_graph("bad", ["v", "v"], [("e", "v", "v", 0)])
        kinds = {v.kind for v in validate_graph(g)}
        assert kinds == {"DuplicateVertex", "BadMultiplicity"}

    def test_empty_graph_is_valid(self):
        assert validate_graph(Graph("empty", [], [])) == []


class TestClassify:
    def test_toeplitz_sink(self):
        assert classify_vertex(catalog_get("toeplitz"), "w2") is VertexClass.SINK

    def test_podles_infinite_emitter(self):
        assert classify_vertex(catalog_get("podles"), "v1") is VertexClass.INFINITE_EMITTER

    def test_circle_regular(self):
        assert classify_vertex(catalog_get("circle"), "v") is VertexClass.REGULAR

    def test_unknown_vertex_raises(self):
        with pytest.raises(ValueError):
            classify_vertex(catalog_get("circle"), "nope")


class TestValidEdge:
    g = make_graph("g", ["v", "w"], [("a", "v", "w", 2), ("z", "w", "v", "inf")])

    def test_negative_index(self):
        assert not self.g.is_valid_edge(Edge("a", -1))
        assert not self.g.is_valid_edge(Edge("z", -1))

    def test_index_below_and_at_multiplicity(self):
        assert self.g.is_valid_edge(Edge("a", 1))
        assert not self.g.is_valid_edge(Edge("a", 2))

    def test_infinite_bundle_has_every_index(self):
        assert self.g.is_valid_edge(Edge("z", 0))
        assert self.g.is_valid_edge(Edge("z", 10**12))

    def test_unknown_bundle(self):
        assert not self.g.is_valid_edge(Edge("nope", 0))


class TestEnumerate:
    def test_circle_loop_powers(self):
        g = catalog_get("circle")
        out = [format_path(p) for p in enumerate_paths(g, "v", "v", max_len=2, max_index=0)]
        assert out == ["[v]", "e", "e.e"]

    def test_toeplitz_w1_to_w2(self):
        g = catalog_get("toeplitz")
        out = [format_path(p) for p in enumerate_paths(g, "w1", "w2", max_len=3, max_index=0)]
        assert out == ["t2", "t1.t2", "t1.t1.t2"]

    def test_podles_indices(self):
        g = catalog_get("podles")
        out = [format_path(p) for p in enumerate_paths(g, "v1", "v2", max_len=1, max_index=2)]
        assert out == ["e", "e[1]", "e[2]"]

    def test_canonical_order_strictly_increasing(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng)
            for v in g.vertices:
                paths = enumerate_paths(g, v, max_len=4, max_index=3)
                keys = [path_key(p) for p in paths]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)

    def test_deterministic_across_runs(self):
        g = catalog_get("ball", 2)
        a = enumerate_paths(g, "0", max_len=4, max_index=2)
        b = enumerate_paths(g, "0", max_len=4, max_index=2)
        assert a == b

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            enumerate_paths(catalog_get("circle"), "nope", max_len=1, max_index=1)


class TestProlongation:
    def test_spec_examples(self):
        g = catalog_get("toeplitz")
        t1 = Path("w1", (Edge("t1", 0),))
        t2 = Path("w1", (Edge("t2", 0),))
        t1t2 = Path("w1", (Edge("t1", 0), Edge("t2", 0)))
        assert prolongation_compare(t1, t1t2) is Prolongation.A_PREFIX_OF_B
        assert prolongation_compare(t2, t1t2) is Prolongation.INCOMPARABLE
        assert prolongation_compare(Path("w1"), Path("w1")) is Prolongation.EQUAL
        assert prolongation_compare(Path("w1"), t1t2) is Prolongation.A_PREFIX_OF_B
        assert prolongation_compare(Path("w2"), t1t2) is Prolongation.INCOMPARABLE
        assert g.is_valid_path(t1t2)

    def test_prefix_means_explicit_concatenation(self):
        # a <= b iff some enumerated gamma satisfies b == a . gamma
        g = catalog_get("toeplitz")
        paths = enumerate_paths(g, "w1", max_len=5, max_index=0)
        for a in paths:
            for b in paths:
                rel = prolongation_compare(a, b)
                tails = enumerate_paths(g, g.path_range(a), max_len=5, max_index=0)
                witnessed = any(concat(g, a, t) == b for t in tails if len(a.edges) + len(t.edges) == len(b.edges))
                assert (rel in (Prolongation.EQUAL, Prolongation.A_PREFIX_OF_B)) == witnessed

    def test_symmetry_and_equal(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng)
            pool = [p for v in g.vertices for p in enumerate_paths(g, v, max_len=3, max_index=2)]
            for _ in range(40):
                a, b = rng.choice(pool), rng.choice(pool)
                ab, ba = prolongation_compare(a, b), prolongation_compare(b, a)
                assert (ab is Prolongation.INCOMPARABLE) == (ba is Prolongation.INCOMPARABLE)
                if ab is Prolongation.EQUAL:
                    assert a == b and ba is Prolongation.EQUAL

    def test_agrees_with_slice_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng)
            pool = [p for v in g.vertices for p in enumerate_paths(g, v, max_len=3, max_index=2)]
            for _ in range(50):
                a, b = rng.choice(pool), rng.choice(pool)
                assert (prolongation_compare(a, b) is not Prolongation.INCOMPARABLE) == prefix_oracle(a, b)


class TestPointed:
    def test_spec_examples(self):
        g = catalog_get("toeplitz")
        assert is_pointed(g, Path("w1", (Edge("t1", 0), Edge("t2", 0))))
        assert not is_pointed(g, Path("w1", (Edge("t1", 0),)))
        assert not is_pointed(g, Path("w1"))

    def test_depends_only_on_final_edge(self):
        g = catalog_get("ball", 2)
        pool = [p for v in g.vertices for p in enumerate_paths(g, v, max_len=3, max_index=0)]
        for p in pool:
            for q in pool:
                if not q.edges or g.path_range(p) != q.base:
                    continue
                assert is_pointed(g, concat(g, p, q)) == is_pointed(g, q)


class TestLoops:
    def test_podles_loop_free(self):
        assert loop_free(catalog_get("podles"))

    def test_toeplitz_not_loop_free(self):
        assert not loop_free(catalog_get("toeplitz"))

    def test_cycle_without_self_loops(self):
        g = make_graph("cyc", ["a", "b"], [("e", "a", "b", 1), ("f", "b", "a", 1)])
        assert not loop_free(g)

    def test_short_loops_at(self):
        assert short_loops_at(catalog_get("toeplitz"), ["w2"]) == []
        labels = [b.label for b in short_loops_at(catalog_get("cuntz", 2), ["1"])]
        assert labels == ["e1", "e2"]

    def test_empty_graph(self):
        assert loop_free(Graph("empty", [], []))

    def test_without_self_loops(self):
        g = catalog_get("toeplitz")
        assert [b.label for b in without_self_loops(g).bundles] == ["t2"]
