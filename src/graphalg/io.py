"""Text formats: graph files, functor files, DOT export, JSON certificates.

The graph format is line-based, UTF-8, with `#` comments:

    graph <name>
    vertex <id>
    edge <label>: <src> -> <dst> x <mult>

where <mult> is a positive decimal integer or `inf`.  Unknown directives are
errors.  Serialization emits exactly this shape, so parse(serialize(g)) == g.

Functor files describe template functors:

    functor <name>: <source graph> -> <target graph>
    map <bundle>[k] -> <factor> <factor> ...

with factor grammar `label | label[j] | label^k`; a bare integer j fixes the
index, the bound variable stands for the source edge index.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from typing import Callable, Mapping

from . import __version__
from .core import Bundle, ExtNat, Graph, Violation, validate_graph
from .functors import (
    CanonicalRule,
    ExtensionRule,
    GraphFunctor,
    TemplateFactor,
    TemplateRule,
)
from .pushout import ExtensionCertificate, ExtensionChecks
from .resolution import Bounds, PullbackCertificate, PullbackChecks, reverify


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


# -- functor files ----------------------------------------------------------------------


_FUNCTOR_HEAD = re.compile(r"^functor\s+(\S+):\s*(\S+)\s*->\s*(\S+)$")
_MAP_LINE = re.compile(r"^map\s+(\S+?)\[([A-Za-z_]\w*)\]\s*->\s*(.+)$")
_FACTOR = re.compile(r"^(?P<label>[^\[\^]+)(?:\[(?P<index>\w+)\]|\^(?P<power>\w+))?$")


def parse_functor_text(text: str, lookup: Callable[[str], Graph]) -> GraphFunctor:
    """Parse a template functor; `lookup` resolves the graph names of the header."""
    name = source = target = None
    templates: list[tuple[str, tuple[TemplateFactor, ...]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = _FUNCTOR_HEAD.match(line)
        if head:
            if name is not None:
                raise ParseError(line_no, "duplicate functor directive")
            name = head.group(1)
            source = lookup(head.group(2))
            target = lookup(head.group(3))
            continue
        m = _MAP_LINE.match(line)
        if not m:
            raise ParseError(line_no, f"cannot parse line {line!r}")
        if source is None:
            raise ParseError(line_no, "map before the functor directive")
        bundle, variable, body = m.group(1), m.group(2), m.group(3)
        factors = []
        for word in body.split():
            fm = _FACTOR.match(word)
            if not fm:
                raise ParseError(line_no, f"bad factor {word!r}")
            label = fm.group("label")
            if fm.group("index") is not None:
                idx = fm.group("index")
                factors.append(TemplateFactor(label, value=None if idx == variable else _int_or_error(idx, line_no)))
            elif fm.group("power") is not None:
                power = fm.group("power")
                if not target.has_bundle(label) or not target.bundle(label).is_self_loop:
                    raise ParseError(line_no, f"power factor {word!r} must name a self-loop bundle of the target")
                factors.append(TemplateFactor(label, power=True, value=None if power == variable else _int_or_error(power, line_no)))
            else:
                factors.append(TemplateFactor(label, value=0))
        templates.append((bundle, tuple(factors)))
    if source is None or target is None:
        raise ParseError(1, "missing functor directive")
    vertex_map = _infer_vertex_map(source, target, templates)
    return GraphFunctor(source, target, vertex_map, TemplateRule(tuple(templates)), name=name)


def _int_or_error(text: str, line_no: int) -> int:
    if not text.isdigit():
        raise ParseError(line_no, f"index {text!r} is neither an integer nor the bound variable")
    return int(text)


def _infer_vertex_map(source: Graph, target: Graph, templates) -> dict[str, str]:
    """Vertex images follow from the template endpoints; leftover vertices
    must exist verbatim in the target."""
    functor_probe = GraphFunctor(source, target, {v: v for v in source.vertices}, TemplateRule(tuple(templates)))
    vmap: dict[str, str] = {}

    def assign(v: str, w: str, line_hint: str) -> None:
        if vmap.get(v, w) != w:
            raise ValueError(f"inconsistent vertex images for {v!r}: {vmap[v]!r} vs {w!r} ({line_hint})")
        vmap[v] = w

    for bundle_label, _factors in templates:
        sb = source.bundle(bundle_label)
        # endpoints of the image at k=1 (powers of self-loops do not move them)
        image = functor_probe._eval_template(sb, 1)
        if not image.edges:
            raise ValueError(f"template for {bundle_label!r} is empty")
        assign(sb.src, target.bundle(image.edges[0].bundle).src, bundle_label)
        assign(sb.dst, target.bundle(image.edges[-1].bundle).dst, bundle_label)
    for v in source.vertices:
        if v not in vmap:
            if not target.has_vertex(v):
                raise ValueError(f"vertex {v!r} is not touched by any template and has no target namesake")
            vmap[v] = v
    return vmap


def serialize_functor(f: GraphFunctor, variable: str = "k") -> str:
    if not isinstance(f.rule, TemplateRule):
        raise ValueError("only template functors have a file form")
    lines = [f"functor {f.name or 'f'}: {f.source.name} -> {f.target.name}"]
    for bundle, factors in f.rule.templates:
        words = []
        for factor in factors:
            if factor.power:
                words.append(f"{factor.label}^{variable if factor.value is None else factor.value}")
            elif factor.value is None:
                words.append(f"{factor.label}[{variable}]")
            elif factor.value == 0:
                words.append(factor.label)
            else:
                words.append(f"{factor.label}[{factor.value}]")
        lines.append(f"map {bundle}[{variable}] -> {' '.join(words)}")
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
    elif isinstance(f.rule, TemplateRule):
        obj["rule"] = {
            "kind": "template",
            "templates": {
                bundle: [{"label": t.label, "power": t.power, "value": t.value} for t in factors]
                for bundle, factors in f.rule.templates
            },
        }
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


def functor_from_obj(obj: Mapping) -> GraphFunctor:
    source = graph_from_obj(obj["source"])
    target = graph_from_obj(obj["target"])
    rule_obj = obj["rule"]
    kind = rule_obj["kind"]
    if kind == "canonical":
        rule = CanonicalRule()
    elif kind == "template":
        rule = TemplateRule(
            tuple(
                (bundle, tuple(TemplateFactor(t["label"], t["power"], t["value"]) for t in factors))
                for bundle, factors in rule_obj["templates"].items()
            )
        )
    elif kind == "extension":
        rule = ExtensionRule(functor_from_obj(rule_obj["base"]), rule_obj["e_prefix"], rule_obj["h_prefix"])
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    return GraphFunctor(source, target, obj["vertex_map"], rule, name=obj.get("name", ""))


def _bounds_to_obj(b: Bounds) -> dict:
    return {"max_len": b.max_len, "max_index": b.max_index}


# The certificate readers report a missing or ill-typed key as a ValueError
# that names it by its dotted path.


def _key(obj: Mapping, path: str, kind=object):
    value = obj
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            raise ValueError(f"certificate key {path!r} is missing")
        value = value[part]
    if not isinstance(value, kind):
        raise ValueError(f"certificate key {path!r} has the wrong type {type(value).__name__}")
    return value


def _parse(obj: Mapping, path: str, parse: Callable, optional: bool = False):
    value = _key(obj, path, (Mapping, type(None)) if optional else Mapping)
    if value is None:
        return None
    try:
        return parse(value)
    except (KeyError, TypeError, AttributeError, ValueError) as err:
        raise ValueError(f"certificate key {path!r} is malformed: {err}") from err


def _strings(obj: Mapping, path: str) -> tuple[str, ...]:
    value = _key(obj, path, list)
    if not all(isinstance(v, str) for v in value):
        raise ValueError(f"certificate key {path!r} holds a non-string")
    return tuple(value)


def _checks(obj: Mapping, cls):
    return cls(**{name: _key(obj, f"checks.{name}", bool) for name in cls.__dataclass_fields__})


def _bounds_from_obj(obj: Mapping) -> Bounds:
    return Bounds(_key(obj, "bounds.max_len", int), _key(obj, "bounds.max_index", int))


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


def pullback_certificate_from_obj(obj: Mapping) -> PullbackCertificate:
    """Read a pullback certificate and re-verify it from its stored E2,
    vertex set and bounds.  Everything else comes from the recomputation;
    each stored check that disagrees with it adds a witness, so editing the
    document cannot make a certificate verified."""
    if obj.get("kind") != "pullback":
        raise ValueError("not a pullback certificate")
    stored = PullbackCertificate(
        e2=_parse(obj, "graphs.e2", graph_from_obj),
        f2_vertices=_strings(obj, "f2_vertices"),
        e1=_parse(obj, "graphs.e1", graph_from_obj),
        f1=_parse(obj, "graphs.f1", graph_from_obj),
        f2=_parse(obj, "graphs.f2", graph_from_obj),
        functor=_parse(obj, "functor", functor_from_obj),
        checks=_checks(obj, PullbackChecks),
        witnesses=_strings(obj, "witnesses"),
        bounds=_bounds_from_obj(obj),
        unital=_key(obj, "flags.unital", bool),
        e1_af=_key(obj, "flags.e1_af", bool),
        degenerate=_key(obj, "flags.degenerate", bool),
    )
    fresh = reverify(stored)
    extra = [
        f"stored check {name}={value} disagrees with the recomputed {not value}"
        for name, value in stored.checks.as_dict().items()
        if value != getattr(fresh.checks, name)
    ]
    return replace(fresh, witnesses=fresh.witnesses + tuple(extra))


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


def extension_certificate_from_obj(obj: Mapping) -> ExtensionCertificate:
    if obj.get("kind") != "extension":
        raise ValueError("not an extension certificate")
    attach = _key(obj, "attach", list)
    if not all(isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, str) for v in pair) for pair in attach):
        raise ValueError("certificate key 'attach' is not a list of vertex pairs")
    return ExtensionCertificate(
        base=pullback_certificate_from_obj(_key(obj, "base", Mapping)),
        h=_parse(obj, "h", graph_from_obj),
        attach=tuple((a, b) for a, b in attach),
        glued1=_parse(obj, "glued1", graph_from_obj, optional=True),
        glued2=_parse(obj, "glued2", graph_from_obj, optional=True),
        psi=_parse(obj, "psi", functor_from_obj, optional=True),
        checks=_checks(obj, ExtensionChecks),
        witnesses=_strings(obj, "witnesses"),
        bounds=_bounds_from_obj(obj),
    )


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
