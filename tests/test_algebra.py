import random

import pytest

from graphalg.algebra import (
    AlgebraElement,
    InducedHom,
    Monomial,
    QuotientHom,
    apply_hom,
    check_relations_preserved,
    default_exempt,
    faithful_rep_oracle,
    format_element,
    kernel_preimage,
    normal_form_terms,
    represent_terms,
    square_commutes,
    truncate,
)
from graphalg.catalog import catalog_get, parse_catalog_spec
from graphalg.core import Edge, Path, all_paths, make_graph, prolongation_compare, Prolongation
from graphalg.functors import identity_functor
from graphalg.resolution import resolve, verify_pullback
from helpers import prefix_oracle, random_acyclic_graph, random_element, random_terms

TOEPLITZ = catalog_get("toeplitz")
T1 = Path("w1", (Edge("t1", 0),))
T2 = Path("w1", (Edge("t2", 0),))
T1T2 = Path("w1", (Edge("t1", 0), Edge("t2", 0)))


def iso(g, path):
    return AlgebraElement.isometry(g, path)


class TestMultiply:
    def test_incomparable_vanishes(self):
        assert (iso(TOEPLITZ, T2).star() * iso(TOEPLITZ, T1)).is_zero()

    def test_star_product_is_range_projection(self):
        assert iso(TOEPLITZ, T2).star() * iso(TOEPLITZ, T2) == AlgebraElement.projection(TOEPLITZ, "w2")

    def test_source_projection_acts_as_identity(self):
        m = AlgebraElement.monomial(TOEPLITZ, T1T2, T2)
        assert AlgebraElement.projection(TOEPLITZ, "w1") * m == m

    def test_mixed_graphs_rejected(self):
        with pytest.raises(ValueError):
            iso(TOEPLITZ, T1) * AlgebraElement.projection(catalog_get("circle"), "v")

    def test_associativity_random(self):
        rng = random.Random(101)
        cases = 0
        graphs = [parse_catalog_spec(s) for s in ("toeplitz", "rp2q", "ball:2", "rnm:2,2", "podles", "cpn:2")]
        while cases < 200:
            g = graphs[cases % len(graphs)]
            a, b, c = (random_element(g, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            cases += 1

    def test_nonvanishing_iff_comparable(self):
        # engine S_a* S_b against the independent slice oracle
        g = catalog_get("ball", 2)
        paths = all_paths(g, max_len=3, max_index=2)
        for a in paths:
            for b in paths:
                product = iso(g, a).star() * iso(g, b)
                assert (not product.is_zero()) == prefix_oracle(a, b)


class TestStar:
    def test_swaps_halves(self):
        m = AlgebraElement.monomial(TOEPLITZ, T1T2, T2)
        assert m.star() == AlgebraElement.monomial(TOEPLITZ, T2, T1T2)

    def test_projection_fixed(self):
        p = AlgebraElement.projection(TOEPLITZ, "w1")
        assert p.star() == p

    def test_involutive_random(self):
        rng = random.Random(55)
        for _ in range(100):
            g = parse_catalog_spec(random.Random(rng.random()).choice(["toeplitz", "podles", "ball:2"]))
            a = random_element(g, rng)
            assert a.star().star() == a

    def test_antihomomorphism(self):
        rng = random.Random(56)
        for _ in range(100):
            g = catalog_get("rp2q")
            a, b = random_element(g, rng), random_element(g, rng)
            assert (a * b).star() == b.star() * a.star()


class TestNormalize:
    def test_single_rewrite_step(self):
        got = AlgebraElement.monomial(TOEPLITZ, T2, T2)
        expected = AlgebraElement.projection(TOEPLITZ, "w1") - iso(TOEPLITZ, T1) * iso(TOEPLITZ, T1).star()
        assert got == expected
        assert format_element(got) == "P(w1) - S(t1)S*(t1)"

    def test_infinite_emitter_exempt(self):
        pod = catalog_get("podles")
        p = AlgebraElement.projection(pod, "v1")
        assert format_element(p) == "P(v1)"
        e0 = Path("v1", (Edge("e", 0),))
        assert not (p - iso(pod, e0) * iso(pod, e0).star()).is_zero()

    def test_edge_sum_relation_collapses(self):
        g = catalog_get("cuntz", 2)
        total = AlgebraElement.projection(g, "1")
        for label in ("e1", "e2"):
            s = iso(g, Path("1", (Edge(label, 0),)))
            total = total - s * s.star()
        assert total.is_zero()

    def test_idempotent_random(self):
        rng = random.Random(77)
        for _ in range(200):
            g = parse_catalog_spec(rng.choice(["toeplitz", "rp2q", "ball:2", "rnm:1,2"]))
            raw = random_terms(g, rng)
            once = normal_form_terms(g, default_exempt(g), raw)
            twice = normal_form_terms(g, default_exempt(g), once)
            assert once == twice

    def test_confluent_under_random_strategies(self):
        rng = random.Random(88)
        for _ in range(50):
            g = parse_catalog_spec(rng.choice(["toeplitz", "rp2q", "ball:2"]))
            raw = random_terms(g, rng, terms=4)
            reference = normal_form_terms(g, default_exempt(g), raw)
            for s in range(5):
                chooser_rng = random.Random(1000 + s)
                got = normal_form_terms(g, default_exempt(g), raw, pick=chooser_rng.choice)
                assert got == reference


class TestHoms:
    def test_induced_functor_on_generators(self):
        res = resolve(TOEPLITZ, ["w1"])
        h = InducedHom(res.functor)
        e1 = Path("w1", (Edge("w1_w2", 1),))
        image = apply_hom(h, AlgebraElement.isometry(res.e1, e1))
        assert image == iso(TOEPLITZ, T1T2)

    def test_quotient_generator_rule(self):
        h = QuotientHom(TOEPLITZ, ["w2"])
        assert apply_hom(h, iso(TOEPLITZ, T2)).is_zero()
        kept = apply_hom(h, iso(TOEPLITZ, T1))
        assert format_element(kept) == "S(t1)"

    def test_identity_functor_is_identity(self):
        rng = random.Random(5)
        g = catalog_get("rp2q")
        h = InducedHom(identity_functor(g))
        for _ in range(25):
            a = random_element(g, rng)
            assert apply_hom(h, a) == a

    def test_relations_preserved_for_resolution(self):
        res = resolve(TOEPLITZ, ["w1"])
        report = check_relations_preserved(InducedHom(res.functor), max_index=3)
        assert report.ok, report.failures

    def test_relations_preserved_for_quotient(self):
        report = check_relations_preserved(QuotientHom(TOEPLITZ, ["w2"]), max_index=3)
        assert report.ok, report.failures

    def test_edge_sum_uses_edges_beyond_the_sample(self):
        # v emits five edges; the edge-sum rule at v needs all of them even
        # though the other rules sample only indices up to 3
        g = make_graph("g", ["v", "w"], [("e", "v", "w", 5)])
        report = check_relations_preserved(InducedHom(identity_functor(g)), max_index=3)
        assert report.ok, report.failures

    def test_corrupted_functor_fails_relations(self):
        # collapse the whole infinite bundle onto the single edge t2: the
        # star-product rule for distinct edges breaks in the image
        from graphalg.functors import GraphFunctor, TemplateFactor, TemplateRule

        pod = catalog_get("podles")
        bad = GraphFunctor(
            pod,
            TOEPLITZ,
            {"v1": "w1", "v2": "w2"},
            TemplateRule((("e", (TemplateFactor("t2", value=0),)),)),
        )
        report = check_relations_preserved(InducedHom(bad), max_index=2)
        assert not report.ok
        assert any("star-product" in f for f in report.failures)

    def test_square_commutes_podles(self):
        cert = verify_pullback(TOEPLITZ, ["w1"])
        homs = cert.homomorphisms()
        ok, failures = square_commutes(
            (homs["pi1"], homs["f_restricted_star"]),
            (homs["f_star"], homs["pi2"]),
            max_index=3,
        )
        assert ok, failures


class TestKernelPreimage:
    def test_spec_example(self):
        cert = verify_pullback(TOEPLITZ, ["w1"])
        pre = kernel_preimage(cert.functor, cert.f2_vertices, Monomial(T1T2, T2))
        e1 = Path("w1", (Edge("w1_w2", 1),))
        e0 = Path("w1", (Edge("w1_w2", 0),))
        assert pre == AlgebraElement.monomial(cert.e1, e1, e0)

    def test_not_in_kernel_rejected(self):
        cert = verify_pullback(TOEPLITZ, ["w1"])
        with pytest.raises(ValueError):
            kernel_preimage(cert.functor, cert.f2_vertices, Monomial(Path("w1"), Path("w1")))


class TestOracle:
    def test_rank_one_projection(self):
        g = make_graph("tw", ["w1", "w2"], [("t2", "w1", "w2", 1)])
        m = AlgebraElement.monomial(g, Path("w1", (Edge("t2", 0),)), Path("w1", (Edge("t2", 0),)))
        matrix = faithful_rep_oracle(g, m)
        flat = sorted(str(x) for row in matrix for x in row)
        assert flat == ["0", "0", "0", "1"]
        trace = sum(matrix[i][i] for i in range(len(matrix)))
        assert trace == 1

    def test_zero_maps_to_zero(self):
        g = make_graph("tw", ["w1", "w2"], [("t2", "w1", "w2", 1)])
        matrix = faithful_rep_oracle(g, AlgebraElement.zero(g))
        assert all(x == 0 for row in matrix for x in row)

    def test_rejects_cycles_and_infinite(self):
        with pytest.raises(ValueError):
            faithful_rep_oracle(TOEPLITZ, AlgebraElement.zero(TOEPLITZ))
        pod = catalog_get("podles")
        with pytest.raises(ValueError):
            faithful_rep_oracle(pod, AlgebraElement.zero(pod))

    def test_normalization_preserves_represented_value(self):
        rng = random.Random(303)
        for _ in range(200):
            g = random_acyclic_graph(rng)
            raw = random_terms(g, rng)
            normalized = normal_form_terms(g, frozenset(), raw)
            assert represent_terms(g, frozenset(), raw) == represent_terms(g, frozenset(), normalized)

    def test_engine_equality_matches_oracle(self):
        rng = random.Random(404)
        nonzero_seen = 0
        for _ in range(200):
            g = random_acyclic_graph(rng)
            a = random_element(g, rng)
            b = random_element(g, rng)
            diff = a - b
            matrix = faithful_rep_oracle(g, diff)
            oracle_zero = all(x == 0 for row in matrix for x in row)
            assert diff.is_zero() == oracle_zero
            if not diff.is_zero():
                nonzero_seen += 1
        assert nonzero_seen > 100  # the suite actually exercised nonzero elements

    def test_truncated_infinite_graph_stays_faithful(self):
        # truncating podles marks v1 exempt, so its projection stays
        # independent of the finite edge sums
        pod = catalog_get("podles")
        cut, exempt = truncate(pod, 3)
        assert exempt == {"v1"}
        p = AlgebraElement.projection(cut, "v1", exempt=exempt)
        total = p
        for i in range(4):
            s = AlgebraElement.isometry(cut, Path("v1", (Edge("e", i),)), exempt=exempt)
            total = total - s * s.star()
        assert not total.is_zero()
        matrix = faithful_rep_oracle(cut, total)
        assert any(x != 0 for row in matrix for x in row)


class TestLemmaExhaustive:
    def test_nonvanishing_iff_comparable_on_catalog(self):
        # engine star-product vanishing against prefix comparability,
        # exhaustively over bounded path pairs of every standard instance
        from graphalg.catalog import standard_instances

        for g in standard_instances():
            paths = all_paths(g, max_len=3, max_index=2)
            elements = {p: AlgebraElement.isometry(g, p) for p in paths}
            for a in paths:
                for b in paths:
                    nonzero = not (elements[a].star() * elements[b]).is_zero()
                    assert nonzero == (prolongation_compare(a, b) is not Prolongation.INCOMPARABLE)

    def test_source_projection_dominates(self):
        for spec in ("toeplitz", "rp2q", "ball:2", "rnm:2,2"):
            g = parse_catalog_spec(spec)
            for p in all_paths(g, max_len=4, max_index=2):
                if not p.edges:
                    continue
                s = AlgebraElement.isometry(g, p)
                assert AlgebraElement.projection(g, p.base) * (s * s.star()) == s * s.star()
