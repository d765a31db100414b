import itertools
import random

import pytest

from graphalg.catalog import catalog_get
from graphalg.core import (
    Edge,
    INF,
    Path,
    Prolongation,
    all_paths,
    format_path,
    is_pointed,
    loop_free,
    mult_matrix,
    prolongation_compare,
    same_mult_matrix,
    without_self_loops,
)
from graphalg.functors import check_functor_conditions, identity_functor
from graphalg.pointed import (
    irreducible_pointed_at,
    irreducible_pointed_count,
    irreducible_pointed_rank,
)
from graphalg.resolution import Bounds, ResolveError, resolve, verify_pullback
from helpers import brute_irreducible_count, oracle_iter_pointed, random_graph


class TestIrreducibleCount:
    def test_toeplitz_infinite(self):
        assert irreducible_pointed_count(catalog_get("toeplitz"), "w1", "w2") == INF

    def test_loop_free_counts_edges(self):
        g = catalog_get("cpn", 2)
        for v in g.vertices:
            for w in g.vertices:
                if v != w:
                    assert irreducible_pointed_count(g, v, w) == g.mult(v, w)

    def test_diagonal_always_zero(self):
        for key in ("toeplitz", "cuntz:2", "rp2q"):
            from graphalg.catalog import parse_catalog_spec

            g = parse_catalog_spec(key)
            for v in g.vertices:
                assert irreducible_pointed_count(g, v, v) == 0

    def test_closed_form_matches_brute_force(self):
        rng = random.Random(2024)
        graphs = 0
        while graphs < 220:
            g = random_graph(rng)
            graphs += 1
            for v in g.vertices:
                for w in g.vertices:
                    assert irreducible_pointed_count(g, v, w) == brute_irreducible_count(g, v, w), (g, v, w)

    def test_split_characterization_matches_interior_scan(self):
        # "splits into two pointed paths" holds exactly when some edge before
        # the last is not a self-loop; validated over bounded path sets
        from helpers import splits_into_pointed

        rng = random.Random(77)
        graphs = [random_graph(rng) for _ in range(25)] + [catalog_get("toeplitz"), catalog_get("rp2q")]
        for g in graphs:
            for p in all_paths(g, max_len=4, max_index=2):
                if not p.edges or not is_pointed(g, p):
                    continue
                interior_scan = any(
                    not g.bundle(e.bundle).is_self_loop for e in p.edges[:-1]
                )
                assert splits_into_pointed(g, p) == interior_scan, format_path(p)


class TestCanonicalEnumeration:
    def test_toeplitz_order(self):
        g = catalog_get("toeplitz")
        first = [irreducible_pointed_at(g, "w1", "w2", k) for k in range(4)]
        assert [format_path(p) for p in first] == ["t2", "t1.t2", "t1.t1.t2", "t1.t1.t1.t2"]

    def test_rank_inverts_at(self):
        g = catalog_get("rnm", 2, 2, 2, 1)
        for k in range(12):
            p = irreducible_pointed_at(g, "r0", "r1", k)
            assert irreducible_pointed_rank(g, p).finite() == k

    def test_at_raises_past_finite_count(self):
        g = catalog_get("cpn", 1)
        with pytest.raises(ValueError):
            # single infinite bundle but no loops: only single edges exist,
            # so rank 0 works and there is no second layer to run into
            irreducible_pointed_at(g, "1", "0", 0)

    def test_prefix_free_blocks(self):
        # distinct irreducible pointed paths at one source never prefix each other
        for spec in ("toeplitz", "rp2q", "eq_sphere", "ball:2", "rnm:2,2"):
            from graphalg.catalog import parse_catalog_spec

            g = parse_catalog_spec(spec)
            for v in g.vertices:
                blocks = []
                for w in g.vertices:
                    blocks.extend(itertools.islice(oracle_iter_pointed(g, v, w), 8))
                for a in blocks:
                    for b in blocks:
                        if a != b:
                            assert prolongation_compare(a, b) is Prolongation.INCOMPARABLE


class TestResolve:
    def test_toeplitz_gives_podles(self):
        res = resolve(catalog_get("toeplitz"), ["w1"])
        assert dict(mult_matrix(res.e1)) == {("w1", "w2"): INF}
        assert res.f1.vertices == ("w1",) and res.f1.bundles == ()
        for k in range(4):
            image = res.functor.eval_edge(Edge("w1_w2", k))
            assert format_path(image) == ".".join(["t1"] * k + ["t2"])

    def test_ball_family(self):
        for n in (1, 2, 3):
            res = resolve(catalog_get("ball", n), [str(i) for i in range(n)])
            assert same_mult_matrix(res.e1, catalog_get("cpn", n))
            assert same_mult_matrix(res.f1, catalog_get("cpn", n - 1))

    def test_rnm_family(self):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            res = resolve(catalog_get("rnm", n, m), ["r0"])
            assert same_mult_matrix(res.e1, catalog_get("wn", n), {f"r{j}": f"r{j}" for j in range(n + 1)})
            assert res.f1.vertices == ("r0",) and res.f1.bundles == ()

    def test_admissibility_failure_raises(self):
        with pytest.raises(ResolveError) as err:
            resolve(catalog_get("toeplitz"), ["w2"])
        assert err.value.stage == "admissibility"

    def test_short_loop_failure_raises(self):
        # admissible subgraph, but a self-loop sits outside it
        from graphalg.core import make_graph

        g = make_graph(
            "sl",
            ["a", "b"],
            [("la", "a", "a", 1), ("e", "a", "b", 1), ("lb", "b", "b", 1)],
        )
        with pytest.raises(ResolveError) as err:
            resolve(g, ["a"])
        assert err.value.stage == "short-loops"

    def test_idempotent_on_loop_free(self):
        # a loop-free graph resolves to itself: same matrix, functor an
        # order-preserving bijection onto single edges
        g = catalog_get("cpn", 2)
        res = resolve(g, ["0", "1"])
        assert same_mult_matrix(res.e1, g)
        seen = set()
        for b in res.e1.bundles:
            for k in range(4):
                image = res.functor.eval_edge(Edge(b.label, k))
                assert len(image.edges) == 1
                assert image.edges[0] not in seen
                seen.add(image.edges[0])

    def test_loop_free_iff_nonloop_subdigraph_acyclic(self):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            g = random_graph(rng)
            e1_bundles = [
                (v, w, irreducible_pointed_count(g, v, w))
                for v in g.vertices
                for w in g.vertices
            ]
            from graphalg.core import Bundle, Graph

            e1 = Graph(
                "res",
                g.vertices,
                [Bundle(f"{v}_{w}", v, w, c) for v, w, c in e1_bundles if c >= 1],
            )
            checked += 1
            assert loop_free(e1) == loop_free(without_self_loops(g))


class TestDecode:
    def test_podles_resolution_examples(self):
        res = resolve(catalog_get("toeplitz"), ["w1"])
        f = res.functor
        assert format_path(f.eval_edge(Edge("w1_w2", 2))) == "t1.t1.t2"
        t2 = Path("w1", (Edge("t2", 0),))
        t1 = Path("w1", (Edge("t1", 0),))
        assert f.decode(t2) == Path("w1", (Edge("w1_w2", 0),))
        assert f.decode(t1) is None

    def test_roundtrips_within_bounds(self):
        cases = {
            "toeplitz": ["w1"],
            "rp2q": ["top"],
            "eq_sphere": ["top"],
            "ball:2": ["0", "1"],
            "rnm:2,2,2,1": ["r0"],
        }
        for spec, members in cases.items():
            from graphalg.catalog import parse_catalog_spec

            g = parse_catalog_spec(spec)
            res = resolve(g, members)
            f = res.functor
            for q in all_paths(res.e1, max_len=3, max_index=3):
                assert f.decode(f.eval_path(q)) == q
            for p in all_paths(g, max_len=4, max_index=3):
                if p.edges and is_pointed(g, p):
                    q = f.decode(p)
                    assert q is not None and f.eval_path(q) == p
                elif p.edges:
                    assert f.decode(p) is None


class TestFunctorConditions:
    def test_podles_resolution_passes(self):
        res = resolve(catalog_get("toeplitz"), ["w1"])
        report = check_functor_conditions(res.functor, max_len=4, max_index=3)
        assert report.cond1_ok and report.cond2_ok, report.failures

    def test_identity_passes(self):
        for spec in ("circle", "toeplitz", "ball:2"):
            from graphalg.catalog import parse_catalog_spec

            g = parse_catalog_spec(spec)
            report = check_functor_conditions(identity_functor(g), max_len=3, max_index=2)
            assert report.cond1_ok and report.cond2_ok

    def test_non_injective_functor_fails(self):
        # send both edges of a two-edge bundle pair onto the same target edge
        from graphalg.core import make_graph
        from graphalg.functors import GraphFunctor, TemplateFactor, TemplateRule

        src = make_graph("two", ["a", "b"], [("x", "a", "b", 1), ("y", "a", "b", 1)])
        dst = make_graph("one", ["a", "b"], [("z", "a", "b", 1)])
        f = GraphFunctor(
            src,
            dst,
            {"a": "a", "b": "b"},
            TemplateRule((("x", (TemplateFactor("z"),)), ("y", (TemplateFactor("z"),)))),
        )
        report = check_functor_conditions(f, max_len=2, max_index=1)
        assert not report.cond1_ok

    def test_validate_accepts_resolution_functors(self):
        for spec, members in [("toeplitz", ["w1"]), ("ball:2", ["0", "1"])]:
            from graphalg.catalog import parse_catalog_spec

            f = resolve(parse_catalog_spec(spec), members).functor
            assert f.validate(max_index=3) == []

    def test_validate_flags_shared_images(self):
        from graphalg.core import make_graph
        from graphalg.functors import GraphFunctor, TemplateFactor, TemplateRule

        src = make_graph("two", ["a", "b"], [("x", "a", "b", 1), ("y", "a", "b", 1)])
        dst = make_graph("one", ["a", "b"], [("z", "a", "b", 1)])
        f = GraphFunctor(
            src,
            dst,
            {"a": "a", "b": "b"},
            TemplateRule((("x", (TemplateFactor("z"),)), ("y", (TemplateFactor("z"),)))),
        )
        problems = f.validate(max_index=1)
        assert any("share the image" in p for p in problems)

    def test_validate_flags_wrong_endpoints(self):
        from graphalg.core import make_graph
        from graphalg.functors import GraphFunctor, TemplateFactor, TemplateRule

        src = make_graph("two", ["a", "b"], [("x", "a", "b", 1)])
        dst = make_graph("one", ["a", "b"], [("z", "b", "a", 1)])
        f = GraphFunctor(src, dst, {"a": "a", "b": "b"}, TemplateRule((("x", (TemplateFactor("z"),)),)))
        problems = f.validate(max_index=1)
        assert problems

    def test_cond1_matches_all_pairs_scan(self):
        # the prefix-dictionary algorithm agrees with the quadratic definition
        cases = [("toeplitz", ["w1"]), ("eq_sphere", ["top"])]
        for spec, members in cases:
            from graphalg.catalog import parse_catalog_spec

            g = parse_catalog_spec(spec)
            f = resolve(g, members).functor
            report = check_functor_conditions(f, max_len=3, max_index=2)
            paths = all_paths(f.source, max_len=3, max_index=2)
            brute_ok = True
            for a in paths:
                for b in paths:
                    fa, fb = f.eval_path(a), f.eval_path(b)
                    if prolongation_compare(fa, fb) in (Prolongation.EQUAL, Prolongation.A_PREFIX_OF_B):
                        if prolongation_compare(a, b) not in (Prolongation.EQUAL, Prolongation.A_PREFIX_OF_B):
                            brute_ok = False
            assert report.cond1_ok == brute_ok


class TestVerifyPullback:
    def test_toeplitz_certificate(self):
        cert = verify_pullback(catalog_get("toeplitz"), ["w1"])
        assert cert.verified
        assert cert.unital and cert.e1_af and not cert.degenerate
        assert same_mult_matrix(cert.e1, catalog_get("podles"), {"w1": "v1", "w2": "v2"})

    def test_rp2q_certificate(self):
        cert = verify_pullback(catalog_get("rp2q"), ["top"])
        assert cert.verified
        assert same_mult_matrix(cert.e1, catalog_get("podles"), {"top": "v1", "bottom": "v2"})

    def test_eq_sphere_certificate(self):
        cert = verify_pullback(catalog_get("eq_sphere"), ["top"])
        assert cert.verified
        from graphalg.core import isomorphic_by_order

        assert isomorphic_by_order(cert.e1, catalog_get("wn", 2))

    def test_degenerate_whole_graph(self):
        cert = verify_pullback(catalog_get("cuntz", 2), ["1"])
        assert cert.degenerate and not cert.verified
        assert cert.checks.all_true()  # hypotheses hold vacuously; degeneracy is the objection

    def test_non_admissible_subgraph_reported(self):
        cert = verify_pullback(catalog_get("toeplitz"), ["w2"])
        assert not cert.verified
        assert not cert.checks.f2_admissible
        assert any("hereditary" in w or "A2" in w for w in cert.witnesses)

    def test_short_loop_outside_reported(self):
        from graphalg.core import make_graph

        g = make_graph(
            "sl",
            ["a", "b"],
            [("la", "a", "a", 1), ("e", "a", "b", 1), ("lb", "b", "b", 1)],
        )
        cert = verify_pullback(g, ["a"])
        assert not cert.checks.no_short_loops_outside_f2
        assert cert.checks.f2_admissible

    def test_bounds_recorded(self):
        cert = verify_pullback(catalog_get("toeplitz"), ["w1"], Bounds(4, 2))
        assert cert.bounds == Bounds(4, 2)
