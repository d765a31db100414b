"""The traced run: spans and counters recorded around graphalg's layers.

graphalg's modules import each other's functions by name, so a wrapper has
to replace the name in the module that calls the function.  `install` does
that for every call site listed in SPANS and HOT and returns a function that
puts the originals back.

Large calls become spans (name, start, end, parent), kept in memory and
dumped at the end.  Hot inner calls (functor evaluation and decoding,
ranking and unranking, the prolongation test inside products) are only
counted and timed, as totals on their enclosing span; the time of the
outermost hot calls (not of unranking inside `eval_path` again) is also
kept per span, so that a span's self time leaves it out.  Every span and
counter belongs to a root: "op" for the timed operation, "check" for the
correctness check after it.  Per-layer metrics come from "op" roots, except
the JSON round trip, which only the checks run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute) call sites it replaces
SPANS = {
    "core.all_paths": [("core", "all_paths"), ("resolution", "all_paths"), ("pushout", "all_paths")],
    "functors.conditions": [("resolution", "check_functor_conditions")],
    "subsets.check_admissible": [("resolution", "check_admissible")],
    "subsets.induced_subgraph": [("resolution", "induced_subgraph")],
    "subsets.quotient_graph": [("algebra", "quotient_graph")],
    "resolution.verify_pullback": [("resolution", "verify_pullback")],
    "algebra.multiply": [("algebra", "multiply")],
    "algebra.normal_form": [("algebra", "normal_form_terms")],
    "algebra.represent": [("algebra", "represent_terms")],
    "algebra.apply_hom": [("algebra", "apply_hom"), ("resolution", "apply_hom"), ("pushout", "apply_hom")],
    "algebra.square_commutes": [("resolution", "square_commutes")],
    "pushout.verify_extension": [("pushout", "verify_extension")],
    "pushout.kernel_descriptor": [("pushout", "kernel_descriptor_check")],
    "io.to_json": [("io", "certificate_to_json")],
    "io.from_json": [("io", "certificate_from_json")],
}
HOT = {
    "pointed.unrank": [("functors", "irreducible_pointed_at")],
    "pointed.rank": [("functors", "irreducible_pointed_rank")],
    "functors.eval_path": [("functors.GraphFunctor", "eval_path")],
    "functors.decode": [("functors.GraphFunctor", "decode")],
    "algebra.compare": [("algebra", "prolongation_compare")],
}

# per-layer metric -> unit, direction; values are per operation unless a ratio
PER_LAYER = {
    "core.all_paths.calls": ("count", "lower"),
    "core.all_paths.ms": ("ms", "lower"),
    "core.paths_listed": ("count", "lower"),
    "pointed.unrank.calls": ("count", "lower"),
    "pointed.unrank.ms": ("ms", "lower"),
    "pointed.rank.calls": ("count", "lower"),
    "pointed.rank.ms": ("ms", "lower"),
    "functors.conditions.ms": ("ms", "lower"),
    "functors.eval_path.calls": ("count", "lower"),
    "functors.eval_path.ms": ("ms", "lower"),
    "functors.decode.calls": ("count", "lower"),
    "functors.decode.ms": ("ms", "lower"),
    "functors.decode.distinct_ratio": ("ratio", "higher"),
    "subsets.ms": ("ms", "lower"),
    "resolution.verify_pullback.ms": ("ms", "lower"),
    "resolution.self_ms": ("ms", "lower"),
    "algebra.multiply.calls": ("count", "lower"),
    "algebra.multiply.ms": ("ms", "lower"),
    "algebra.pairs_visited": ("count", "lower"),
    "algebra.pair_yield": ("ratio", "higher"),
    "algebra.normal_form.calls": ("count", "lower"),
    "algebra.normal_form.ms": ("ms", "lower"),
    "algebra.normal_form.terms_in": ("count", "lower"),
    "algebra.normal_form.terms_out": ("count", "lower"),
    "algebra.represent.ms": ("ms", "lower"),
    "algebra.apply_hom.ms": ("ms", "lower"),
    "algebra.square_commutes.ms": ("ms", "lower"),
    "pushout.verify_extension.ms": ("ms", "lower"),
    "pushout.kernel_descriptor.ms": ("ms", "lower"),
    "pushout.kernel_descriptor.monomials": ("count", "lower"),
    "io.to_json.ms": ("ms", "lower"),
    "io.from_json.ms": ("ms", "lower"),
    "io.json_kb": ("kB", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, root kind, hot totals,
        # seconds in outermost hot calls]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.hot_depth = 0
        self.root = "op"
        self.hot: dict[tuple[str, str], list] = {}  # (root, name) -> [calls, seconds]
        self.counts: dict[tuple[str, str], float] = {}  # (root, name) -> total
        self.decoded: set = set()
        self.distinct_decoded = 0

    @contextmanager
    def root_span(self, kind: str, name: str):
        self.root = kind
        if kind == "op":
            self.distinct_decoded += len(self.decoded)
            self.decoded = set()
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.root, None, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def add_hot(self, name: str, seconds: float) -> None:
        total = self.hot.setdefault((self.root, name), [0, 0.0])
        total[0] += 1
        total[1] += seconds
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span[5] is None:
                span[5] = {}
            local = span[5].setdefault(name, [0, 0.0])
            local[0] += 1
            local[1] += seconds
            if self.hot_depth == 0:
                span[6] += seconds

    def count(self, name: str, value: float) -> None:
        key = (self.root, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def finish(self) -> None:
        self.distinct_decoded += len(self.decoded)
        self.decoded = set()

    def dump(self, path) -> None:
        fields = ("name", "start", "end", "parent", "root", "hot", "hot_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans]}, fh)


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _hot_wrapper(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        tracer.hot_depth += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - t0
            tracer.hot_depth -= 1
        tracer.add_hot(name, seconds)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def install(ga, tracer: Tracer):
    """Wrap every listed call site; returns the function that unwraps them."""
    incomparable = ga.core.Prolongation.INCOMPARABLE

    def decoded(args, result):
        if tracer.root == "op":
            tracer.decoded.add(args[1])

    after = {
        "core.all_paths": lambda args, result: tracer.count("core.paths_listed", len(result)),
        "algebra.normal_form": lambda args, result: (
            tracer.count("algebra.normal_form.terms_in", len(args[2])),
            tracer.count("algebra.normal_form.terms_out", len(result)),
        ),
        "pushout.kernel_descriptor": lambda args, result: tracer.count("pushout.kernel_descriptor.monomials", result.checked),
        "io.to_json": lambda args, result: tracer.count("io.json_kb", len(result.encode()) / 1024),
        "functors.decode": decoded,
        "algebra.compare": lambda args, result: tracer.count("algebra.comparable", result is not incomparable),
    }
    saved = []
    for table, make in ((SPANS, _span_wrapper), (HOT, _hot_wrapper)):
        for name, sites in table.items():
            for owner_path, attr in sites:
                owner = ga
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(tracer, name, original, after.get(name)))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def per_layer(tracer: Tracer, ops: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics per operation from the "op" roots (io from "check")."""
    span_ms: dict[tuple[str, str], float] = {}
    span_calls: dict[tuple[str, str], int] = {}
    child_ms = [0.0] * len(tracer.spans)
    for name, start, end, parent, root, _, _ in tracer.spans:
        dur = (end - start) * 1000
        span_ms[(root, name)] = span_ms.get((root, name), 0.0) + dur
        span_calls[(root, name)] = span_calls.get((root, name), 0) + 1
        if parent >= 0:
            child_ms[parent] += dur
    # resolution's own code: verify_pullback less its child spans and its
    # outermost hot calls (functor evaluation, decoding, (un)ranking)
    self_ms = sum(
        (s[2] - s[1] - s[6]) * 1000 - child_ms[i]
        for i, s in enumerate(tracer.spans)
        if s[0] == "resolution.verify_pullback" and s[4] == "op"
    )

    def ms(name, root="op"):
        return span_ms.get((root, name), 0.0) / ops

    def calls(name):
        return span_calls.get(("op", name), 0) / ops

    def hot(name):
        return tracer.hot.get(("op", name), [0, 0.0])

    def counted(name, root="op"):
        return tracer.counts.get((root, name), 0) / ops

    decode_calls = hot("functors.decode")[0]
    pairs = hot("algebra.compare")[0]
    values = {
        "core.all_paths.calls": calls("core.all_paths"),
        "core.all_paths.ms": ms("core.all_paths"),
        "core.paths_listed": counted("core.paths_listed"),
        "functors.conditions.ms": ms("functors.conditions"),
        "functors.decode.distinct_ratio": tracer.distinct_decoded / decode_calls if decode_calls else 0.0,
        "subsets.ms": sum(ms(name) for name in SPANS if name.startswith("subsets.")),
        "resolution.verify_pullback.ms": ms("resolution.verify_pullback"),
        "resolution.self_ms": self_ms / ops,
        "algebra.multiply.calls": calls("algebra.multiply"),
        "algebra.multiply.ms": ms("algebra.multiply"),
        "algebra.pairs_visited": pairs / ops,
        "algebra.pair_yield": tracer.counts.get(("op", "algebra.comparable"), 0) / pairs if pairs else 0.0,
        "algebra.normal_form.calls": calls("algebra.normal_form"),
        "algebra.normal_form.ms": ms("algebra.normal_form"),
        "algebra.normal_form.terms_in": counted("algebra.normal_form.terms_in"),
        "algebra.normal_form.terms_out": counted("algebra.normal_form.terms_out"),
        "algebra.represent.ms": ms("algebra.represent"),
        "algebra.apply_hom.ms": ms("algebra.apply_hom"),
        "algebra.square_commutes.ms": ms("algebra.square_commutes"),
        "pushout.verify_extension.ms": ms("pushout.verify_extension"),
        "pushout.kernel_descriptor.ms": ms("pushout.kernel_descriptor"),
        "pushout.kernel_descriptor.monomials": counted("pushout.kernel_descriptor.monomials"),
        "io.to_json.ms": ms("io.to_json", "check"),
        "io.from_json.ms": ms("io.from_json", "check"),
        "io.json_kb": counted("io.json_kb", "check"),
        "trace.overhead": overhead,
    }
    for name in ("pointed.unrank", "pointed.rank", "functors.eval_path", "functors.decode"):
        n, seconds = hot(name)
        values[f"{name}.calls"] = n / ops
        values[f"{name}.ms"] = seconds * 1000 / ops
    return {name: values[name] for name in PER_LAYER}
