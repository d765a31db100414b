"""Text formats: graph files, DOT export, JSON certificates.

The graph format is line-based, UTF-8, with `#` comments:

    graph <name>
    vertex <id>
    edge <label>: <src> -> <dst> x <mult>

where <mult> is a positive decimal integer or `inf`.  Unknown directives are
errors.  Serialization emits exactly this shape, so parse(serialize(g)) == g.

A JSON certificate is read back as its inputs: E2, the vertex set of F2 and
the bounds for a pullback certificate; the base certificate, H, the attach
map and the bounds for an extension certificate.  The reader recomputes the
certificate from them and compares the stored document with the
recomputation's own: a key it lacks or holds with another JSON type is a
`ValueError` naming the key, and each value that disagrees adds a witness.
Nothing else is taken from the document, so editing it cannot make a
certificate verified.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from typing import Mapping

from . import __version__
from .core import Bundle, ExtNat, Graph, Violation, validate_graph
from .functors import CanonicalRule, ExtensionRule, GraphFunctor
from .pushout import ExtensionCertificate, verify_extension
from .resolution import Bounds, PullbackCertificate, verify_pullback


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_VERTEX_ID = re.compile(r"^[A-Za-z0-9_]+$")
_EDGE_LINE = re.compile(r"^edge\s+(.+):\s*(\S+)\s*->\s*(\S+)\s+x\s+(\S+)$")


def parse_graph_text(text: str) -> Graph:
    name = None
    vertices: list[str] = []
    bundles: list[Bundle] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("graph "):
            if name is not None:
                raise ParseError(line_no, "duplicate graph directive")
            name = line[len("graph "):].strip()
            if not name:
                raise ParseError(line_no, "graph needs a name")
        elif line.startswith("vertex "):
            if name is None:
                raise ParseError(line_no, "vertex before the graph directive")
            v = line[len("vertex "):].strip()
            if not _VERTEX_ID.match(v):
                raise ParseError(line_no, f"bad vertex id {v!r}")
            vertices.append(v)
        elif line.startswith("edge "):
            if name is None:
                raise ParseError(line_no, "edge before the graph directive")
            m = _EDGE_LINE.match(line)
            if not m:
                raise ParseError(line_no, f"cannot parse edge directive {line!r}")
            label, src, dst, mult_text = m.group(1).strip(), m.group(2), m.group(3), m.group(4)
            if mult_text != "inf" and not mult_text.isdigit():
                raise ParseError(line_no, f"bad multiplicity {mult_text!r}")
            mult = ExtNat.parse(mult_text)
            if mult == 0:
                raise ParseError(line_no, "multiplicity must be positive")
            bundles.append(Bundle(label, src, dst, mult))
        else:
            raise ParseError(line_no, f"unknown directive {line.split()[0]!r}")
    if name is None:
        raise ParseError(1, "missing graph directive")
    g = Graph(name, vertices, bundles)
    problems = validate_graph(g)
    if problems:
        raise ParseError(1, "; ".join(_format_violation(p) for p in problems))
    return g


def _format_violation(v: Violation) -> str:
    return f"{v.kind} at {v.where}" + (f" ({v.detail})" if v.detail else "")


def serialize_graph(g: Graph) -> str:
    lines = [f"graph {g.name}"]
    lines += [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {b.label}: {b.src} -> {b.dst} x {b.mult}" for b in g.bundles]
    return "\n".join(lines) + "\n"


def export_dot(g: Graph) -> str:
    lines = [f'digraph "{g.name}" {{', "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for b in g.bundles:
        label = b.label if b.mult == 1 else f"{b.label} ({b.mult})"
        lines.append(f'  "{b.src}" -> "{b.dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- JSON certificates ---------------------------------------------------------------------


def graph_to_obj(g: Graph) -> dict:
    return {
        "name": g.name,
        "vertices": list(g.vertices),
        "bundles": [
            {"label": b.label, "src": b.src, "dst": b.dst, "mult": b.mult.finite() if b.mult.is_finite else "inf"}
            for b in g.bundles
        ],
    }


def graph_from_obj(obj: Mapping) -> Graph:
    bundles = [
        Bundle(b["label"], b["src"], b["dst"], ExtNat.parse(str(b["mult"])))
        for b in obj["bundles"]
    ]
    return Graph(obj["name"], obj["vertices"], bundles)


def functor_to_obj(f: GraphFunctor) -> dict:
    obj = {
        "name": f.name,
        "source": graph_to_obj(f.source),
        "target": graph_to_obj(f.target),
        "vertex_map": dict(sorted(f.vertex_map.items())),
    }
    if isinstance(f.rule, CanonicalRule):
        obj["rule"] = {"kind": "canonical"}
    elif isinstance(f.rule, ExtensionRule):
        obj["rule"] = {
            "kind": "extension",
            "base": functor_to_obj(f.rule.base),
            "e_prefix": f.rule.e_prefix,
            "h_prefix": f.rule.h_prefix,
        }
    else:
        raise ValueError(f"cannot serialize rule {f.rule!r}")
    return obj


def _bounds_to_obj(b: Bounds) -> dict:
    return {"max_len": b.max_len, "max_index": b.max_index}


def pullback_certificate_to_obj(cert: PullbackCertificate) -> dict:
    return {
        "format": "graphalg.certificate",
        "version": 1,
        "tool": __version__,
        "kind": "pullback",
        "bounds": _bounds_to_obj(cert.bounds),
        "f2_vertices": list(cert.f2_vertices),
        "graphs": {
            "e1": graph_to_obj(cert.e1),
            "f1": graph_to_obj(cert.f1),
            "e2": graph_to_obj(cert.e2),
            "f2": graph_to_obj(cert.f2),
        },
        "functor": functor_to_obj(cert.functor),
        "checks": cert.checks.as_dict(),
        "witnesses": list(cert.witnesses),
        "flags": {"unital": cert.unital, "e1_af": cert.e1_af, "degenerate": cert.degenerate},
        "verified": cert.verified,
        "corners": cert.corners(),
    }


def extension_certificate_to_obj(cert: ExtensionCertificate) -> dict:
    return {
        "format": "graphalg.certificate",
        "version": 1,
        "tool": __version__,
        "kind": "extension",
        "bounds": _bounds_to_obj(cert.bounds),
        "base": pullback_certificate_to_obj(cert.base),
        "h": graph_to_obj(cert.h),
        "attach": [list(pair) for pair in cert.attach],
        "glued1": graph_to_obj(cert.glued1) if cert.glued1 else None,
        "glued2": graph_to_obj(cert.glued2) if cert.glued2 else None,
        "psi": functor_to_obj(cert.psi) if cert.psi else None,
        "checks": cert.checks.as_dict(),
        "witnesses": list(cert.witnesses),
        "verified": cert.verified,
        "corners": cert.corners(),
    }


def _key(obj: Mapping, path: str, kind: type):
    value = obj
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            raise ValueError(f"certificate key {path!r} is missing")
        value = value[part]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"certificate key {path!r} has the wrong type {type(value).__name__}")
    return value


def _graph(obj: Mapping, path: str) -> Graph:
    value = _key(obj, path, Mapping)
    try:
        g = graph_from_obj(value)
        problems = "; ".join(_format_violation(p) for p in validate_graph(g))
        if problems:
            raise ValueError(problems)
    except (KeyError, TypeError, AttributeError, ValueError) as err:
        raise ValueError(f"certificate key {path!r} is malformed: {err}") from err
    return g


def _bounds_from_obj(obj: Mapping) -> Bounds:
    return Bounds(_key(obj, "bounds.max_len", int), _key(obj, "bounds.max_index", int))


def _disagreements(stored: Mapping, fresh: Mapping, prefix: str = "") -> list[str]:
    """One witness per value of `stored` that differs from the recomputed
    document `fresh`; a key of `fresh` that `stored` lacks or holds with
    another type is a ValueError.  A null against a value is a disagreement,
    not a type error: optional parts are null when they were not built."""
    witnesses = []
    for name, want in fresh.items():
        path = prefix + name
        if name not in stored:
            raise ValueError(f"certificate key {path!r} is missing")
        have = stored[name]
        if None not in (have, want) and type(have) is not type(want):
            raise ValueError(f"certificate key {path!r} has the wrong type {type(have).__name__}")
        if isinstance(want, Mapping) and isinstance(have, Mapping):
            witnesses += _disagreements(have, want, path + ".")
        elif have != want:
            label = "check " + name if prefix == "checks." else path
            if isinstance(have, (list, Mapping)) or isinstance(want, (list, Mapping)):
                witnesses.append(f"stored {label} disagrees with the recomputed one")
            else:
                witnesses.append(f"stored {label}={have} disagrees with the recomputed {want}")
    return witnesses


def pullback_certificate_from_obj(obj: Mapping) -> PullbackCertificate:
    """Recompute a pullback certificate from its stored E2, vertex set and
    bounds; every stored value that disagrees with the recomputation adds a
    witness, so editing the document cannot make a certificate verified."""
    if obj.get("kind") != "pullback":
        raise ValueError("not a pullback certificate")
    f2_vertices = _key(obj, "f2_vertices", list)
    if not all(isinstance(v, str) for v in f2_vertices):
        raise ValueError("certificate key 'f2_vertices' holds a non-string")
    fresh = verify_pullback(_graph(obj, "graphs.e2"), f2_vertices, _bounds_from_obj(obj))
    extra = _disagreements(obj, pullback_certificate_to_obj(fresh))
    return replace(fresh, witnesses=fresh.witnesses + tuple(extra))


def extension_certificate_from_obj(obj: Mapping) -> ExtensionCertificate:
    """Recompute an extension certificate from its base (read by
    `pullback_certificate_from_obj`), H, attach map and bounds, and compare
    the rest of the document like the pullback reader does."""
    if obj.get("kind") != "extension":
        raise ValueError("not an extension certificate")
    base = pullback_certificate_from_obj(_key(obj, "base", Mapping))
    attach = _key(obj, "attach", list)
    if not all(isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, str) for v in pair) for pair in attach):
        raise ValueError("certificate key 'attach' is not a list of vertex pairs")
    fresh = verify_extension(base, _graph(obj, "h"), dict(attach), _bounds_from_obj(obj))
    expected = extension_certificate_to_obj(fresh)
    del expected["base"]  # compared by the pullback reader
    extra = _disagreements(obj, expected)
    return replace(fresh, witnesses=fresh.witnesses + tuple(extra))


def certificate_to_json(cert) -> str:
    if isinstance(cert, PullbackCertificate):
        obj = pullback_certificate_to_obj(cert)
    elif isinstance(cert, ExtensionCertificate):
        obj = extension_certificate_to_obj(cert)
    else:
        raise TypeError(f"not a certificate: {cert!r}")
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("format") != "graphalg.certificate":
        raise ValueError("not a graphalg certificate document")
    if obj.get("kind") == "pullback":
        return pullback_certificate_from_obj(obj)
    if obj.get("kind") == "extension":
        return extension_certificate_from_obj(obj)
    raise ValueError(f"unknown certificate kind {obj.get('kind')!r}")
