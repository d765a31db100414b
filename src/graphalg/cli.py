"""Command-line surface.

Exit codes: 0 for verified/true outcomes, 1 for a definite negative (a
hypothesis violation, reported with witnesses), 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FilePath

from .algebra import format_element
from .catalog import ENTRIES, parse_catalog_spec
from .core import Graph
from .exprs import ExpressionError, evaluate_expression
from .io import (
    ParseError,
    certificate_from_json,
    certificate_to_json,
    export_dot,
    graph_to_obj,
    parse_graph_text,
    serialize_graph,
)
from .pushout import SinkConditionError, amalgamation, kernel_descriptor_check, pushout_over_sinks, verify_extension
from .resolution import Bounds, PullbackCertificate, ResolveError, resolve, verify_pullback
from .subsets import AdmissibilityError, QuotientError, check_admissible, check_quotient_iso, quotient_graph

OK, NEGATIVE, USAGE = 0, 1, 2


class InputError(Exception):
    pass


def _load_graph(args, flag="graph") -> Graph:
    catalog_spec = getattr(args, "catalog", None)
    file_path = getattr(args, flag, None)
    if catalog_spec and file_path:
        raise InputError("pass either --catalog or --graph, not both")
    if catalog_spec:
        try:
            return parse_catalog_spec(catalog_spec)
        except ValueError as err:
            raise InputError(str(err)) from err
    if file_path:
        try:
            text = FilePath(file_path).read_text(encoding="utf-8")
        except OSError as err:
            raise InputError(f"cannot read {file_path}: {err}") from err
        try:
            return parse_graph_text(text)
        except ParseError as err:
            raise InputError(f"{file_path}: {err}") from err
    raise InputError("a graph is required: pass --catalog KEY or --graph FILE")


def _load_named_graph(spec: str) -> Graph:
    """A graph argument that is either a catalog spec or a file path."""
    if FilePath(spec).exists():
        try:
            return parse_graph_text(FilePath(spec).read_text(encoding="utf-8"))
        except ParseError as err:
            raise InputError(f"{spec}: {err}") from err
    try:
        return parse_catalog_spec(spec)
    except ValueError as err:
        raise InputError(f"{spec!r} is neither a readable file nor a catalog spec: {err}") from err


def _parse_assignments(text: str, what: str) -> dict[str, str]:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"bad {what} entry {item!r}, expected key=value")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    if not out:
        raise InputError(f"empty {what}")
    return out


def _vertex_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _bounds(args) -> Bounds:
    return Bounds(args.max_len, args.max_index)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _print_checks(checks: dict[str, bool], witnesses) -> str:
    lines = [f"  [{'ok' if value else 'FAIL'}] {name}" for name, value in checks.items()]
    if witnesses:
        lines.append("witnesses:")
        lines.extend(f"  - {w}" for w in witnesses)
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.json:
            print(json.dumps([
                {"key": entry.key, "params": list(entry.params), "provenance": entry.provenance, "summary": entry.summary}
                for entry in ENTRIES
            ], indent=2))
        else:
            for entry in ENTRIES:
                spec = entry.key + (":" + ",".join(entry.params) if entry.params else "")
                print(f"{spec:<24} {entry.provenance}")
        return OK
    g = parse_catalog_spec(args.key)
    if args.json:
        print(json.dumps(graph_to_obj(g), indent=2))
    else:
        print(serialize_graph(g), end="")
    return OK


def _cmd_check_admissible(args) -> int:
    sub = _load_named_graph(args.sub)
    ambient = _load_named_graph(args.ambient)
    vmap = _parse_assignments(args.vmap, "vertex map")
    try:
        report = check_admissible(sub, ambient, vmap)
    except ValueError as err:
        raise InputError(str(err)) from err
    checks = {
        "a1_hereditary": report.a1_hereditary,
        "a1_saturated": report.a1_saturated,
        "a2_edge_condition": report.a2_edge_condition,
        "a3_emission_condition": report.a3_emission_condition,
    }
    _emit(
        args,
        {"admissible": report.admissible, "checks": checks, "witnesses": list(report.witnesses)},
        f"inclusion {sub.name} -> {ambient.name}:\n{_print_checks(checks, report.witnesses)}\n"
        + ("admissible" if report.admissible else "not admissible"),
    )
    return OK if report.admissible else NEGATIVE


def _cmd_quotient(args) -> int:
    g = _load_graph(args)
    members = _vertex_list(args.subset)
    try:
        q = quotient_graph(g, members)
    except QuotientError as err:
        print(f"cannot form the quotient: {err}", file=sys.stderr)
        return NEGATIVE
    _emit(args, {"quotient": graph_to_obj(q)}, serialize_graph(q).rstrip("\n"))
    return OK


def _cmd_resolve(args) -> int:
    g = _load_graph(args)
    members = _vertex_list(args.f2)
    try:
        res = resolve(g, members)
    except ResolveError as err:
        print(f"cannot resolve: {err}", file=sys.stderr)
        return NEGATIVE
    payload = {
        "e1": graph_to_obj(res.e1),
        "f1": graph_to_obj(res.f1),
        "f2": graph_to_obj(res.f2),
        "functor": f"{res.functor.name}: edge k of each bundle maps to the k-th irreducible pointed path",
    }
    human = "\n".join([
        serialize_graph(res.e1).rstrip("\n"),
        "",
        serialize_graph(res.f1).rstrip("\n"),
        "",
        f"functor {res.functor.name}: canonical (k-th edge -> k-th irreducible pointed path)",
    ])
    _emit(args, payload, human)
    return OK


def _cmd_verify_pullback(args) -> int:
    g = _load_graph(args)
    members = _vertex_list(args.f2)
    cert = verify_pullback(g, members, _bounds(args))
    if args.json:
        print(certificate_to_json(cert), end="")
    else:
        corners = cert.corners()
        print(f"pullback square for {g.name} over {{{', '.join(cert.f2_vertices)}}}")
        print(f"  corners: {corners['top']}  |  {corners['left']} , {corners['right']}  |  {corners['bottom']}")
        print(f"  bounds: max_len={cert.bounds.max_len} max_index={cert.bounds.max_index}")
        print(_print_checks(cert.checks.as_dict(), cert.witnesses))
        print(f"  flags: unital={cert.unital} e1_af={cert.e1_af} degenerate={cert.degenerate}")
        print("verified" if cert.verified else "NOT verified")
    if args.out:
        FilePath(args.out).write_text(certificate_to_json(cert), encoding="utf-8")
    return OK if cert.verified else NEGATIVE


def _cmd_pushout(args) -> int:
    e = _load_graph(args)
    h = _load_named_graph(args.h)
    attach = _parse_assignments(args.attach, "attach map")
    try:
        glued = pushout_over_sinks(amalgamation(e, h, attach))
    except SinkConditionError as err:
        print(f"sink condition violated: {err}", file=sys.stderr)
        return NEGATIVE
    except ValueError as err:
        raise InputError(str(err)) from err
    _emit(args, {"pushout": graph_to_obj(glued)}, serialize_graph(glued).rstrip("\n"))
    return OK


def _cmd_verify_extension(args) -> int:
    try:
        cert_text = FilePath(args.base).read_text(encoding="utf-8")
        base = certificate_from_json(cert_text)
    except (OSError, ValueError) as err:
        raise InputError(f"cannot load base certificate: {err}") from err
    if not isinstance(base, PullbackCertificate):
        raise InputError("--base needs a pullback certificate, not an extension certificate")
    h = _load_named_graph(args.h)
    attach = _parse_assignments(args.attach, "attach map")
    try:
        cert = verify_extension(base, h, attach, _bounds(args))
    except ValueError as err:
        raise InputError(str(err)) from err
    kernel_ok, kernel_note = True, ""
    if cert.glued1 is not None and args.kernel_check:
        report = kernel_descriptor_check(cert)
        kernel_ok = report.ok
        kernel_note = f"\nkernel descriptor: {'ok' if report.ok else 'FAIL'} over {report.checked} monomials"
    if args.json:
        print(certificate_to_json(cert), end="")
    else:
        corners = cert.corners()
        print(f"extension of {base.e2.name} by {h.name} over {{{', '.join(k for k, _ in cert.attach)}}}")
        print(f"  corners: {corners['top']}  |  {corners['left']} , {corners['right']}  |  {corners['bottom']}")
        print(_print_checks(cert.checks.as_dict(), cert.witnesses) + kernel_note)
        print("verified" if cert.verified else "NOT verified")
    if args.out:
        FilePath(args.out).write_text(certificate_to_json(cert), encoding="utf-8")
    return OK if cert.verified and kernel_ok else NEGATIVE


def _cmd_algebra(args) -> int:
    g = _load_graph(args)
    try:
        element = evaluate_expression(g, args.expr)
    except ExpressionError as err:
        raise InputError(str(err)) from err
    if args.json:
        terms = [
            {"coeff": str(c), "alpha": [[e.bundle, e.index] for e in m.alpha.edges], "alpha_base": m.alpha.base,
             "beta": [[e.bundle, e.index] for e in m.beta.edges], "beta_base": m.beta.base}
            for m, c in element.terms()
        ]
        print(json.dumps({"graph": g.name, "normal_form": terms, "zero": element.is_zero()}, indent=2))
    else:
        print(format_element(element))
    return OK


def _cmd_export_dot(args) -> int:
    g = _load_graph(args)
    print(export_dot(g), end="")
    return OK


def _cmd_check_quotient_iso(args) -> int:
    sub = _load_named_graph(args.sub)
    ambient = _load_named_graph(args.ambient)
    vmap = _parse_assignments(args.vmap, "vertex map")
    try:
        outcome = check_quotient_iso(sub, ambient, vmap)
    except AdmissibilityError as err:
        print(f"not admissible: {err}", file=sys.stderr)
        return NEGATIVE
    except ValueError as err:
        raise InputError(str(err)) from err
    _emit(args, {"isomorphic": outcome}, "isomorphic" if outcome else "NOT isomorphic")
    return OK if outcome else NEGATIVE


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # after-subcommand copies default to SUPPRESS so they only override
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--max-len", type=int, help="path length bound for bounded checks", **({"default": 6} if not suppress else kw))
    parser.add_argument("--max-index", type=int, help="edge index bound for infinite bundles", **({"default": 4} if not suppress else kw))
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphalg", description=__doc__)
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("catalog", help="list built-in graphs or show one")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("key", nargs="?", help="catalog spec, e.g. toeplitz or rnm:2,2")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("check-admissible", help="check the admissibility conditions of an inclusion")
    p.add_argument("--sub", required=True, help="subgraph: catalog spec or file")
    p.add_argument("--ambient", required=True, help="ambient graph: catalog spec or file")
    p.add_argument("--vmap", required=True, help="vertex map, e.g. v=w1")
    p.set_defaults(func=_cmd_check_admissible)

    p = sub.add_parser("quotient", help="quotient a graph by a hereditary saturated set")
    p.add_argument("--catalog", help="catalog spec")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--subset", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("resolve", help="resolve a graph along an admissible sink-complement")
    p.add_argument("--catalog", help="catalog spec")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--f2", required=True, help="comma-separated subgraph vertices")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("verify-pullback", help="verify every pullback hypothesis and emit a certificate")
    p.add_argument("--catalog", help="catalog spec")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--f2", required=True, help="comma-separated subgraph vertices")
    p.add_argument("--out", help="write the JSON certificate to a file")
    p.set_defaults(func=_cmd_verify_pullback)

    p = sub.add_parser("pushout", help="glue a graph with another over sinks")
    p.add_argument("--catalog", help="catalog spec")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--h", required=True, help="attachment graph: catalog spec or file")
    p.add_argument("--attach", required=True, help="attach map H-vertex=E-vertex, e.g. h1=r1,h2=r2")
    p.set_defaults(func=_cmd_pushout)

    p = sub.add_parser("verify-extension", help="verify the sink-extension hypotheses over a base certificate")
    p.add_argument("--base", required=True, help="JSON pullback certificate file")
    p.add_argument("--h", required=True, help="attachment graph: catalog spec or file")
    p.add_argument("--attach", required=True, help="attach map H-vertex=E-vertex")
    p.add_argument("--kernel-check", action="store_true", help="also run the monomial-level kernel descriptor check")
    p.add_argument("--out", help="write the JSON certificate to a file")
    p.set_defaults(func=_cmd_verify_extension)

    p = sub.add_parser("algebra", help="evaluate a span expression to normal form")
    p.add_argument("--catalog", help="catalog spec")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--expr", required=True, help="e.g. 'S(t2)*S*(t2)'")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("export-dot", help="emit a DOT rendering of a graph")
    p.add_argument("--catalog", help="catalog spec")
    p.add_argument("--graph", help="graph file")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("check-quotient-iso", help="check that a subgraph presents the quotient by its complement")
    p.add_argument("--sub", required=True)
    p.add_argument("--ambient", required=True)
    p.add_argument("--vmap", required=True)
    p.set_defaults(func=_cmd_check_quotient_iso)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return int(exc.code or 0)
    if args.command == "catalog" and args.action == "show" and not args.key:
        print("catalog show needs a key", file=sys.stderr)
        return USAGE
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except ValueError as err:
        # unknown vertices, bad catalog parameters and similar input defects
        print(f"error: {err}", file=sys.stderr)
        return USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
