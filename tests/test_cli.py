import json

import pytest

from graphalg import cli
from graphalg.cli import main
from graphalg.io import certificate_from_json, parse_graph_text, serialize_graph
from graphalg.catalog import catalog_get
from graphalg.pushout import KernelDescriptorReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "toeplitz" in out and "rnm" in out

    def test_show_roundtrips(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "podles")
        assert code == 0
        assert parse_graph_text(out) == catalog_get("podles")

    def test_show_unknown_key(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "nope")
        assert code == 2 and "unknown catalog key" in err

    def test_show_missing_key(self, capsys):
        code, _, err = run(capsys, "catalog", "show")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("verify-pullback", "--catalog", "rnm:2", "--f2", "r0"), "n,m,*weights"),
            (("catalog", "show", "toeplitz:3"), "no parameters"),
            (("verify-pullback", "--catalog", "ball:1,2,3", "--f2", "0"), "parameters n,"),
            (("export-dot", "--catalog", "rnm"), "n,m,*weights"),
        ],
    )
    def test_wrong_parameter_count_is_usage_error(self, capsys, argv, expected):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and expected in err
        assert "Traceback" not in err


class TestVerifyPullback:
    def test_toeplitz_verifies(self, capsys):
        code, out, _ = run(capsys, "verify-pullback", "--catalog", "toeplitz", "--f2", "w1")
        assert code == 0
        assert "verified" in out and "unital=True" in out and "e1_af=True" in out

    def test_degenerate_subset_negative(self, capsys):
        code, out, _ = run(capsys, "verify-pullback", "--catalog", "cuntz:2", "--f2", "1")
        assert code == 1
        assert "degenerate" in out

    def test_json_certificate(self, capsys):
        code, out, _ = run(capsys, "--json", "verify-pullback", "--catalog", "toeplitz", "--f2", "w1")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "pullback" and obj["verified"] is True
        assert obj["flags"] == {"unital": True, "e1_af": True, "degenerate": False}

    def test_bounds_flags(self, capsys):
        code, out, _ = run(capsys, "verify-pullback", "--catalog", "toeplitz", "--f2", "w1", "--max-len", "4", "--max-index", "2")
        assert code == 0 and "max_len=4 max_index=2" in out

    def test_nonadmissible_negative(self, capsys):
        code, out, _ = run(capsys, "verify-pullback", "--catalog", "toeplitz", "--f2", "w2")
        assert code == 1 and "NOT verified" in out


class TestResolve:
    def test_rnm_to_wn(self, capsys):
        code, out, _ = run(capsys, "--json", "resolve", "--catalog", "rnm:2,2,1,1", "--f2", "r0")
        assert code == 0
        obj = json.loads(out)
        mults = {b["label"]: b["mult"] for b in obj["e1"]["bundles"]}
        assert mults == {"r0_r1": "inf", "r0_r2": "inf"}
        assert [v for v in obj["f1"]["vertices"]] == ["r0"]

    def test_failure_is_negative(self, capsys):
        code, _, err = run(capsys, "resolve", "--catalog", "toeplitz", "--f2", "w2")
        assert code == 1 and "cannot resolve" in err


class TestQuotient:
    def test_toeplitz_mod_sink(self, capsys):
        code, out, _ = run(capsys, "quotient", "--catalog", "toeplitz", "--subset", "w2")
        assert code == 0
        q = parse_graph_text(out + "\n")
        assert [b.label for b in q.bundles] == ["t1"]

    def test_violation_negative(self, capsys):
        code, _, err = run(capsys, "quotient", "--catalog", "toeplitz", "--subset", "w1")
        assert code == 1 and "hereditary" in err

    def test_unknown_vertex_usage_error(self, capsys):
        code, _, err = run(capsys, "quotient", "--catalog", "toeplitz", "--subset", "ghost")
        assert code == 2


class TestAdmissibleAndIso:
    def test_admissible_ok(self, capsys):
        code, out, _ = run(capsys, "check-admissible", "--sub", "circle", "--ambient", "toeplitz", "--vmap", "v=w1")
        assert code == 0 and "admissible" in out

    def test_admissible_failure(self, capsys):
        code, out, _ = run(capsys, "check-admissible", "--sub", "point", "--ambient", "toeplitz", "--vmap", "v=w1")
        assert code == 1 and "not admissible" in out

    def test_quotient_iso(self, capsys):
        code, out, _ = run(capsys, "check-quotient-iso", "--sub", "circle", "--ambient", "toeplitz", "--vmap", "v=w1")
        assert code == 0 and "isomorphic" in out


class TestPushoutAndExtension:
    def test_pushout(self, capsys):
        code, out, _ = run(capsys, "pushout", "--catalog", "wn:2", "--h", "h_chain:2", "--attach", "h1=r1,h2=r2")
        assert code == 0
        glued = parse_graph_text(out + "\n")
        assert [b.label for b in glued.bundles] == ["E:w1", "E:w2", "H:c1"]

    def test_pushout_sink_violation(self, capsys):
        code, _, err = run(capsys, "pushout", "--catalog", "wn:2", "--h", "h_cycle:2", "--attach", "h1=r0")
        assert code == 1 and "sink condition" in err

    def test_extension_over_certificate_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "verify-pullback", "--catalog", "rnm:2,2", "--f2", "r0",
            "--out", str(tmp_path / "base.json"),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "verify-extension", "--base", str(tmp_path / "base.json"),
            "--h", "h_chain:2", "--attach", "h1=r1,h2=r2", "--kernel-check",
            "--out", str(tmp_path / "ext.json"),
        )
        assert code == 0
        assert "verified" in out and "kernel descriptor: ok" in out
        loaded = certificate_from_json((tmp_path / "ext.json").read_text())
        assert loaded.verified

    def test_failing_kernel_descriptor_is_negative(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "kernel_descriptor_check", lambda cert: KernelDescriptorReport(False, 7, ("forced",)))
        run(capsys, "verify-pullback", "--catalog", "rnm:2,2", "--f2", "r0", "--out", str(tmp_path / "b.json"))
        code, out, _ = run(
            capsys,
            "verify-extension", "--base", str(tmp_path / "b.json"),
            "--h", "h_chain:2", "--attach", "h1=r1,h2=r2", "--kernel-check",
        )
        assert code == 1
        assert "kernel descriptor: FAIL over 7 monomials" in out

    def _extend_edited_e2(self, capsys, tmp_path, edit):
        path = tmp_path / "b.json"
        run(capsys, "verify-pullback", "--catalog", "rnm:2,2", "--f2", "r0", "--out", str(path))
        obj = json.loads(path.read_text())
        (bundle,) = [b for b in obj["graphs"]["e2"]["bundles"] if b["label"] == "e1"]
        edit(bundle)
        path.write_text(json.dumps(obj))
        return run(capsys, "verify-extension", "--base", str(path), "--h", "h_chain:2", "--attach", "h1=r1")

    def test_zero_multiplicity_in_certificate_is_unusable_input(self, capsys, tmp_path):
        code, _, err = self._extend_edited_e2(capsys, tmp_path, lambda b: b.update(mult=0))
        assert code == 2
        assert err.startswith("error: cannot load base certificate:")
        assert "certificate key 'graphs.e2' is malformed: BadMultiplicity at e1 (0)" in err

    def test_unknown_vertex_in_certificate_is_unusable_input(self, capsys, tmp_path):
        code, _, err = self._extend_edited_e2(capsys, tmp_path, lambda b: b.update(src="ghost"))
        assert code == 2
        assert "certificate key 'graphs.e2' is malformed: UnknownVertex at e1 (src 'ghost')" in err

    def test_extension_certificate_as_base_is_unusable_input(self, capsys, tmp_path):
        base, ext = tmp_path / "b.json", tmp_path / "e.json"
        run(capsys, "verify-pullback", "--catalog", "rnm:2,2", "--f2", "r0", "--out", str(base))
        code, _, _ = run(
            capsys,
            "verify-extension", "--base", str(base), "--h", "h_chain:2", "--attach", "h1=r1", "--out", str(ext),
        )
        assert code == 0
        code, _, err = run(capsys, "verify-extension", "--base", str(ext), "--h", "h_chain:2", "--attach", "h1=r1")
        assert code == 2
        assert err.startswith("error: ") and "--base needs a pullback certificate" in err

    def test_extension_attach_at_source_fails(self, capsys, tmp_path):
        run(capsys, "verify-pullback", "--catalog", "rnm:1,1", "--f2", "r0", "--out", str(tmp_path / "b.json"))
        code, out, _ = run(
            capsys,
            "verify-extension", "--base", str(tmp_path / "b.json"),
            "--h", "h_chain:2", "--attach", "h1=r0",
        )
        assert code == 1
        assert "not a sink" in out

    def _extend_edited_base(self, capsys, tmp_path, edit):
        # rnm:1,1 over {r1} really fails five checks
        path = tmp_path / "b.json"
        run(capsys, "verify-pullback", "--catalog", "rnm:1,1", "--f2", "r1", "--out", str(path))
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return run(capsys, "verify-extension", "--base", str(path), "--h", "h_chain:2", "--attach", "h1=r1")

    def test_certificate_without_functor_is_unusable_input(self, capsys, tmp_path):
        code, _, err = self._extend_edited_base(capsys, tmp_path, lambda obj: obj.pop("functor"))
        assert code == 2
        assert err.startswith("error: cannot load base certificate:") and "'functor'" in err

    def test_forged_checks_are_recomputed(self, capsys, tmp_path):
        def forge(obj):
            obj["checks"] = {name: True for name in obj["checks"]}
            obj["verified"] = True

        code, out, _ = self._extend_edited_base(capsys, tmp_path, forge)
        assert code == 1
        assert "[FAIL] base_pullback_verified" in out


class TestAlgebraCommand:
    def test_normal_form(self, capsys):
        code, out, _ = run(capsys, "algebra", "--catalog", "toeplitz", "--expr", "S(t2)*S*(t2)")
        assert code == 0 and out.strip() == "P(w1) - S(t1)S*(t1)"

    def test_relation_collapses_to_zero(self, capsys):
        code, out, _ = run(
            capsys, "algebra", "--catalog", "toeplitz",
            "--expr", "P(w1) - S(t1)*S*(t1) - S(t2)*S*(t2)",
        )
        assert code == 0 and out.strip() == "0"

    def test_rational_scalars_and_paths(self, capsys):
        code, out, _ = run(capsys, "algebra", "--catalog", "podles", "--expr", "1/2*S(e[1])*S*(e[1])")
        assert code == 0 and out.strip() == "1/2*S(e[1])S*(e[1])"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "algebra", "--catalog", "toeplitz", "--expr", "S*(t2)*S(t1)")
        assert code == 0
        assert json.loads(out)["zero"] is True

    def test_bad_expression_usage_error(self, capsys):
        code, _, err = run(capsys, "algebra", "--catalog", "toeplitz", "--expr", "S(nope)")
        assert code == 2 and "unknown bundle" in err


class TestFilesAndDot:
    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(serialize_graph(catalog_get("toeplitz")))
        code, out, _ = run(capsys, "verify-pullback", "--graph", str(path), "--f2", "w1")
        assert code == 0 and "verified" in out

    def test_export_dot(self, capsys):
        code, out, _ = run(capsys, "export-dot", "--catalog", "podles")
        assert code == 0 and 'label="e (inf)"' in out

    def test_missing_graph_usage(self, capsys):
        code, _, err = run(capsys, "export-dot")
        assert code == 2

    def test_bad_file_usage(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("graph g\nedge e: a -> b x 1\n")
        code, _, err = run(capsys, "export-dot", "--graph", str(bad))
        assert code == 2 and "UnknownVertex" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "--json", "verify-pullback", "--catalog", "eq_sphere", "--f2", "top")
        _, second, _ = run(capsys, "--json", "verify-pullback", "--catalog", "eq_sphere", "--f2", "top")
        assert first == second
