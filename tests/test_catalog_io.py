import json

import pytest

from graphalg.catalog import (
    STANDARD_INSTANCES,
    catalog_get,
    catalog_keys,
    parse_catalog_spec,
    standard_instances,
)
from graphalg.core import INF, mult_matrix, same_mult_matrix, validate_graph
from graphalg.functors import GraphFunctor, TemplateFactor, TemplateRule
from graphalg.io import (
    ParseError,
    certificate_from_json,
    certificate_to_json,
    export_dot,
    graph_from_obj,
    graph_to_obj,
    parse_graph_text,
    serialize_graph,
)
from graphalg.pushout import verify_extension
from graphalg.resolution import verify_pullback


class TestCatalog:
    def test_every_instance_validates(self):
        for g in standard_instances():
            assert validate_graph(g) == [], g.name

    def test_expected_shapes(self):
        expected = {
            "point": (1, 0),
            "circle": (1, 1),
            "toeplitz": (2, 2),
            "cuntz:3": (1, 3),
            "podles": (2, 1),
            "rp2q": (2, 2),
            "eq_sphere": (3, 3),
            "ball:3": (4, 9),
            "sphere_odd:3": (3, 6),
            "cpn:3": (4, 6),
            "wn:3": (4, 3),
            "rnm:2,3": (3, 5),
            "h_chain:3": (3, 2),
            "h_cycle:3": (3, 3),
        }
        for spec, (nv, nb) in expected.items():
            g = parse_catalog_spec(spec)
            assert (len(g.vertices), len(g.bundles)) == (nv, nb), spec

    def test_wn2_infinite_bundles(self):
        g = catalog_get("wn", 2)
        assert len(g.vertices) == 3
        matrix = mult_matrix(g)
        assert matrix[("r0", "r1")] == INF and matrix[("r0", "r2")] == INF

    def test_cuntz_selfloops(self):
        g = catalog_get("cuntz", 2)
        assert len(g.vertices) == 1
        assert all(b.src == b.dst == "1" for b in g.bundles)

    def test_ball1_is_toeplitz_up_to_renaming(self):
        assert same_mult_matrix(catalog_get("ball", 1), catalog_get("toeplitz"), {"0": "w1", "1": "w2"})

    def test_wn1_is_podles_up_to_renaming(self):
        assert same_mult_matrix(catalog_get("wn", 1), catalog_get("podles"), {"r0": "v1", "r1": "v2"})

    def test_rnm_weights(self):
        g = catalog_get("rnm", 2, 1, 3, 2)
        assert g.mult("r0", "r1") == 3 and g.mult("r0", "r2") == 2

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            catalog_get("wn", 0)
        with pytest.raises(ValueError):
            catalog_get("rnm", 2, 2, 1)  # wrong weight count
        with pytest.raises(ValueError):
            parse_catalog_spec("unknown_key")
        with pytest.raises(ValueError):
            parse_catalog_spec("wn:x")

    def test_keys_listed(self):
        assert "toeplitz" in catalog_keys() and "rnm" in catalog_keys()


class TestGraphFormat:
    def test_roundtrip_catalog(self):
        for spec in STANDARD_INSTANCES:
            g = parse_catalog_spec(spec)
            assert parse_graph_text(serialize_graph(g)) == g, spec

    def test_serialized_podles_line(self):
        assert "edge e: v1 -> v2 x inf" in serialize_graph(catalog_get("podles"))

    def test_comments_and_blank_lines(self):
        text = """
# a comment
graph demo
vertex a  # trailing comment
vertex b
edge e: a -> b x 2
"""
        g = parse_graph_text(text)
        assert g.name == "demo" and len(g.bundles) == 1

    def test_error_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_graph_text("graph g\nvertex a\nedge e: a -> a x -3\n")
        assert err.value.line_no == 3
        with pytest.raises(ParseError) as err:
            parse_graph_text("graph g\nfrobnicate a\n")
        assert err.value.line_no == 2
        with pytest.raises(ParseError):
            parse_graph_text("vertex a\n")

    def test_duplicate_definitions_rejected(self):
        with pytest.raises(ParseError):
            parse_graph_text("graph g\nvertex a\nvertex a\n")

    def test_prefixed_labels_roundtrip(self):
        from graphalg.catalog import catalog_get as cg
        from graphalg.pushout import amalgamation, pushout_over_sinks

        glued = pushout_over_sinks(amalgamation(cg("wn", 2), cg("h_chain", 2), {"h1": "r1", "h2": "r2"}))
        assert parse_graph_text(serialize_graph(glued)) == glued


class TestDot:
    def test_infinite_bundle_label(self):
        dot = export_dot(catalog_get("podles"))
        assert '"v1" -> "v2" [label="e (inf)"]' in dot

    def test_finite_multiplicity_label(self):
        dot = export_dot(catalog_get("rp2q"))
        assert 'label="f (2)"' in dot
        assert 'label="l"' in dot


class TestFunctorFormat:
    def test_template_functors_evaluate_but_do_not_decode(self):
        rule = TemplateRule((("e", (TemplateFactor("t1", power=True), TemplateFactor("t2", value=0))),))
        f = GraphFunctor(catalog_get("podles"), catalog_get("toeplitz"), {"v1": "w1", "v2": "w2"}, rule)
        from graphalg.core import Edge, Path

        p = Path("w1", (Edge("t1", 0), Edge("t2", 0)))
        assert f.eval_edge(Edge("e", 1)) == p
        assert f.eval_edge(Edge("e", 3)) == Path("w1", (Edge("t1", 0),) * 3 + (Edge("t2", 0),))
        with pytest.raises(TypeError):
            f.decode(p)


class TestCertificates:
    def test_pullback_json_roundtrip(self):
        cert = verify_pullback(catalog_get("toeplitz"), ["w1"])
        text = certificate_to_json(cert)
        loaded = certificate_from_json(text)
        assert loaded.checks == cert.checks
        assert loaded.e1 == cert.e1 and loaded.f2_vertices == cert.f2_vertices
        assert loaded.verified

    def test_forged_checks_are_recomputed_with_witnesses(self):
        cert = verify_pullback(parse_catalog_spec("rnm:1,1"), ["r1"])
        obj = json.loads(certificate_to_json(cert))
        obj["checks"] = {name: True for name in obj["checks"]}
        loaded = certificate_from_json(json.dumps(obj))
        assert loaded.checks == cert.checks and not loaded.verified
        failing = [name for name, ok in cert.checks.as_dict().items() if not ok]
        assert len(failing) == 5
        assert loaded.witnesses == cert.witnesses + tuple(
            f"stored check {name}=True disagrees with the recomputed False" for name in failing
        )

    def test_malformed_keys_name_the_key(self):
        cert = verify_pullback(catalog_get("toeplitz"), ["w1"])
        for edit, key in [
            (lambda obj: obj["bounds"].update(max_len="6"), "'bounds.max_len'"),
            (lambda obj: obj["flags"].pop("unital"), "'flags.unital'"),
            (lambda obj: obj["checks"].update(e1_loop_free=1), "'checks.e1_loop_free'"),
            (lambda obj: obj["graphs"]["e2"]["bundles"][0].pop("mult"), "'graphs.e2'"),
        ]:
            obj = json.loads(certificate_to_json(cert))
            edit(obj)
            with pytest.raises(ValueError, match=key):
                certificate_from_json(json.dumps(obj))

    def test_extension_reader_names_missing_keys(self):
        base = verify_pullback(catalog_get("wn", 2), ["r0"])
        ext = verify_extension(base, catalog_get("h_chain", 2), {"h1": "r1"})
        obj = json.loads(certificate_to_json(ext))
        del obj["psi"]
        with pytest.raises(ValueError, match="'psi'"):
            certificate_from_json(json.dumps(obj))

    def test_forged_extension_checks_are_recomputed(self):
        base = verify_pullback(catalog_get("rnm", 2, 2), ["r0"])
        ext = verify_extension(base, catalog_get("h_chain", 2), {"h1": "r0", "h2": "r1"})
        failing = [name for name, ok in ext.checks.as_dict().items() if not ok]
        assert len(failing) == 4
        obj = json.loads(certificate_to_json(ext))
        obj["checks"] = {name: True for name in obj["checks"]}
        loaded = certificate_from_json(json.dumps(obj))
        assert loaded.checks == ext.checks and not loaded.verified and loaded.glued1 is None
        assert loaded.witnesses == ext.witnesses + tuple(
            f"stored check {name}=True disagrees with the recomputed False" for name in failing
        )

    def test_edited_graph_is_recomputed_with_a_witness(self):
        cert = verify_pullback(catalog_get("toeplitz"), ["w1"])
        obj = json.loads(certificate_to_json(cert))
        assert obj["graphs"]["e1"]["bundles"][0]["mult"] == "inf"
        obj["graphs"]["e1"]["bundles"][0]["mult"] = 3
        loaded = certificate_from_json(json.dumps(obj))
        assert loaded.e1 == cert.e1 and loaded.checks == cert.checks and loaded.verified
        assert loaded.witnesses == cert.witnesses + ("stored graphs.e1.bundles disagrees with the recomputed one",)

    def test_reverify_reproduces_outcomes(self):
        for spec, members in [("toeplitz", ["w1"]), ("rp2q", ["top"]), ("cuntz:2", ["1"])]:
            cert = verify_pullback(parse_catalog_spec(spec), members)
            loaded = certificate_from_json(certificate_to_json(cert))
            again = verify_pullback(loaded.e2, loaded.f2_vertices, loaded.bounds)
            assert again.checks == cert.checks
            assert again.witnesses == cert.witnesses
            assert again.verified == cert.verified

    def test_extension_json_roundtrip(self):
        base = verify_pullback(catalog_get("rnm", 2, 2), ["r0"])
        cert = verify_extension(base, catalog_get("h_chain", 2), {"h1": "r1", "h2": "r2"})
        loaded = certificate_from_json(certificate_to_json(cert))
        assert loaded.checks == cert.checks
        assert loaded.glued1 == cert.glued1
        assert loaded.verified
        from graphalg.core import Edge

        assert loaded.psi.eval_edge(Edge("E:r0_r1", 1)) == cert.psi.eval_edge(Edge("E:r0_r1", 1))

    def test_graph_obj_roundtrip(self):
        for spec in STANDARD_INSTANCES:
            g = parse_catalog_spec(spec)
            assert graph_from_obj(json.loads(json.dumps(graph_to_obj(g)))) == g

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps({"format": "something-else"}))
