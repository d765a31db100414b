"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks applied to each operation's output.

A workload is the list of operations that one pass runs, in an order drawn
from the seed.  Every operation calls into graphalg through module
attributes (``ga.resolution.verify_pullback``), so that the traced run can
replace those names.  A check returns a list of problems; an empty list
means the output is correct.  Checks compare against `oracles` and against
known mathematical facts, never against stored output.

The seed changes the inputs but not their size: weights are a shuffle of a
fixed multiset, coefficients are random over a fixed support, and random
DAGs are redrawn until their representation size hits a fixed target, then
drawn a fixed number of times to find a product size nearest another.  That
keeps the cost of a pass, and of set-up, the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("certify_teardrops", "certify_balls", "span_products")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class PullbackCase:
    """A certificate input with its known outcome.

    `e1` is the closed-form multiplicity matrix of the resolved graph;
    `failing` names the checks that theory says fail."""

    spec: str
    f2: tuple[str, ...]
    e1: dict
    failing: frozenset[str] = frozenset()
    degenerate: bool = False


# -- shared certificate checks ------------------------------------------------------


def _failing(checks) -> set[str]:
    return {name for name, ok in checks.as_dict().items() if not ok}


def check_pullback(ga, cert, case: PullbackCase) -> list[str]:
    problems = []
    failing = _failing(cert.checks)
    if failing != set(case.failing):
        problems.append(f"failing checks {sorted(failing)}, expected {sorted(case.failing)}")
    if cert.degenerate != case.degenerate:
        problems.append(f"degenerate={cert.degenerate}, expected {case.degenerate}")
    expect_verified = not case.failing and not case.degenerate
    if cert.verified != expect_verified:
        problems.append(f"verified={cert.verified}, expected {expect_verified}")
    if oracles.mult_matrix(cert.e1) != case.e1:
        problems.append(f"E1 matrix {oracles.mult_matrix(cert.e1)} differs from the closed form {case.e1}")
    f1 = {k: m for k, m in case.e1.items() if k[0] in case.f2 and k[1] in case.f2}
    if set(cert.f1.vertices) != set(case.f2) or oracles.mult_matrix(cert.f1) != f1:
        problems.append(f"F1 matrix {oracles.mult_matrix(cert.f1)} differs from the closed form {f1}")
    cap = cert.bounds.max_index + 1
    for b in cert.e1.bundles:
        m = oracles.mult_value(b.mult)
        count = cap if m == oracles.INF else min(m, cap)
        expected = oracles.irreducible_listing(cert.e2, b.src, b.dst, count)
        images = [oracles.path_tuple(cert.functor.eval_edge(ga.core.Edge(b.label, k))) for k in range(count)]
        if images != expected:
            problems.append(f"images of {b.label}[0..{count - 1}] are {images}, expected {expected}")
    return problems


def check_json_stable(ga, cert) -> list[str]:
    text = ga.io.certificate_to_json(cert)
    again = ga.io.certificate_to_json(ga.io.certificate_from_json(text))
    return [] if again == text else ["certificate JSON changes on a round trip"]


# -- certify_teardrops ------------------------------------------------------------------

TEARDROP_BOUNDS = (5, 4)
EXTENSION_FAILS_AT_R0 = frozenset(
    {"iota_e1_into_sinks", "iota_e2_into_sinks", "phi_paths_into_x_in_image_to_bound", "delta_annihilates_x"}
)
# F2 = {r1}: r0 -> r1 escapes the complement (in E2 and in E1), r0 carries
# loops outside F2, so the square is not checked and the loop paths at r0
# lie in the kernel without a preimage
NOT_ADMISSIBLE_FAILS = frozenset(
    {"f2_admissible", "f1_admissible", "no_short_loops_outside_f2", "algebra_commutes_to_bound", "kernel_inclusion_to_bound"}
)


def _rnm_case(rng: random.Random, n: int, m: int, f2: str = "r0") -> PullbackCase:
    weights = [1] * (n - 1) + [2]
    rng.shuffle(weights)
    spec = f"rnm:{n},{m}," + ",".join(map(str, weights))
    # resolving at r0 turns loops-then-link into infinitely many edges r0 -> rj
    e1 = {("r0", f"r{j}"): oracles.INF for j in range(1, n + 1)}
    failing = NOT_ADMISSIBLE_FAILS if f2 != "r0" else frozenset()
    return PullbackCase(spec, (f2,), e1, failing)


def _teardrop_ops(ga, rng: random.Random) -> list[Op]:
    bounds = ga.resolution.Bounds(*TEARDROP_BOUNDS)
    h = ga.catalog.parse_catalog_spec("h_chain:2")
    ops = []
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        case = _rnm_case(rng, n, m)
        e2 = ga.catalog.parse_catalog_spec(case.spec)
        s1, s2 = rng.sample([f"r{j}" for j in range(1, n + 1)], 2)
        ops.append(_extension_op(ga, case, e2, h, {"h1": s1, "h2": s2}, bounds, frozenset()))
    case = _rnm_case(rng, 2, 2)
    e2 = ga.catalog.parse_catalog_spec(case.spec)
    ops.append(_extension_op(ga, case, e2, h, {"h1": "r0", "h2": rng.choice(["r1", "r2"])}, bounds, EXTENSION_FAILS_AT_R0))
    case = _rnm_case(rng, 3, 2, f2="r1")
    ops.append(_pullback_op(ga, case, bounds))
    return ops


def _extension_op(ga, case: PullbackCase, e2, h, attach: dict, bounds, ext_failing: frozenset) -> Op:
    glued = not ext_failing

    def run():
        cert = ga.resolution.verify_pullback(e2, list(case.f2), bounds)
        ext = ga.pushout.verify_extension(cert, h, attach, bounds)
        kernel = ga.pushout.kernel_descriptor_check(ext) if glued else None
        return cert, ext, kernel

    def check(out) -> list[str]:
        cert, ext, kernel = out
        problems = check_pullback(ga, cert, case)
        failing = _failing(ext.checks)
        if failing != ext_failing or ext.verified != glued:
            problems.append(f"extension failing checks {sorted(failing)}, expected {sorted(ext_failing)}")
        if (ext.glued1 is not None) != glued:
            problems.append("glued graph built where the attach map misses the sinks, or missing where it hits them")
        if glued:
            expected = oracles.equal_range_pairs(ext.glued1, bounds.max_len, bounds.max_index)
            if kernel.checked != expected or not kernel.ok:
                problems.append(f"kernel descriptor ok={kernel.ok} over {kernel.checked} monomials, expected ok over {expected}")
        return problems + check_json_stable(ga, ext)

    where = ",".join(f"{k}={v}" for k, v in sorted(attach.items()))
    return Op(f"extend {case.spec} over {{{case.f2[0]}}} glue {where}", run, check)


def _pullback_op(ga, case: PullbackCase, bounds) -> Op:
    g = ga.catalog.parse_catalog_spec(case.spec)

    def run():
        return ga.resolution.verify_pullback(g, list(case.f2), bounds)

    def check(cert) -> list[str]:
        return check_pullback(ga, cert, case) + check_json_stable(ga, cert)

    return Op(f"pullback {case.spec} over {{{','.join(case.f2)}}}", run, check)


# -- certify_balls -----------------------------------------------------------------------

BALL_BOUNDS = (6, 4)
SHORT_LOOP_FAILS = frozenset({"no_short_loops_outside_f2", "kernel_inclusion_to_bound"})


def _upper_triangle(n: int) -> dict:
    return {(str(i), str(j)): oracles.INF for i in range(n + 1) for j in range(i + 1, n + 1)}


def _ball_ops(ga, rng: random.Random) -> list[Op]:
    bounds = ga.resolution.Bounds(*BALL_BOUNDS)
    cases = [
        PullbackCase("toeplitz", ("w1",), {("w1", "w2"): oracles.INF}),  # Podles
        PullbackCase("rp2q", ("top",), {("top", "bottom"): oracles.INF}),
        PullbackCase("eq_sphere", ("top",), {("top", "b1"): oracles.INF, ("top", "b2"): oracles.INF}),  # wn:2
    ]
    # ball:n over {0..n-1} resolves to cpn:n, infinitely many edges i -> j for i < j
    cases += [PullbackCase(f"ball:{n}", tuple(str(i) for i in range(n)), _upper_triangle(n)) for n in range(1, 6)]
    n = rng.choice((2, 3))
    # vertex 1 keeps its loop outside {0}, and the loop paths at 1 have no preimage
    cases.append(PullbackCase(f"ball:{n}", ("0",), _upper_triangle(n), SHORT_LOOP_FAILS))
    m = rng.choice((2, 3))
    cases.append(PullbackCase(f"cuntz:{m}", ("1",), {}, degenerate=True))
    return [_pullback_op(ga, case, bounds) for case in cases]


# -- span_products -------------------------------------------------------------------------

# graph -> lengths of the paths p whose isometries S_p make up x
PRODUCT_SUPPORTS = (
    ("cuntz:2", (1, 2, 3)),
    ("cuntz:3", (1, 2)),
    ("ball:3", (1, 2)),
    ("rnm:2,2", (2, 3)),
    ("toeplitz", (1, 2, 3, 4, 5)),
)
# graph -> maximal length of both halves of the raw monomials
NORMAL_FORM_SUPPORTS = (("ball:3", 3), ("rnm:2,2", 3))
DAG_SHAPE = {"vertices": 5, "bundles": 7, "dim": 20, "product_terms": 28, "terms": 14}
DAG_DRAWS = 16
COMPARE_PAIRS = 8


def _paths(g, lengths) -> list[tuple]:
    """Every path of the given lengths, as oracle tuples, in a stable order."""
    out_edges: dict[str, list] = {v: [] for v in g.vertices}
    for b in sorted(g.bundles, key=lambda b: b.label):
        out_edges[b.src].extend(((b.label, i), b.dst) for i in range(oracles.mult_value(b.mult)))
    found = []
    layer = [((v, ()), v) for v in g.vertices]
    for length in range(max(lengths) + 1):
        if length in lengths:
            found.extend(p for p, _ in layer)
        layer = [((p[0], p[1] + (e,)), dst) for p, at in layer for e, dst in out_edges[at]]
    return found


def _range(g, p: tuple) -> str:
    return g.bundle(p[1][-1][0]).dst if p[1] else p[0]


def _to_path(ga, p: tuple):
    return ga.core.Path(p[0], tuple(ga.core.Edge(label, i) for label, i in p[1]))


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))


def _product_op(ga, rng: random.Random, spec: str, lengths) -> Op:
    g = ga.catalog.parse_catalog_spec(spec)
    A = ga.algebra
    x_terms = {}
    for p in _paths(g, lengths):
        x_terms[A.Monomial(_to_path(ga, p), ga.core.Path(_range(g, p)))] = _coeff(rng)
    x = A.AlgebraElement(g, x_terms)
    y = x * x.star()
    short = _paths(g, (0, 1, 2, 3))
    pairs = []
    for _ in range(COMPARE_PAIRS):
        a = rng.choice(short)
        longer = [p for p in short if oracles.prefix_comparable(a, p)]
        pairs.append((a, rng.choice(longer if rng.random() < 0.5 else short)))

    def run():
        return y * y

    def check(z) -> list[str]:
        problems = []
        yt, zt = oracles.term_tuples(y.terms()), oracles.term_tuples(z.terms())
        if oracles.star_terms(yt) != yt or oracles.star_terms(zt) != zt:
            problems.append("y or y.y is not self-adjoint")
        unit = A.AlgebraElement.zero(g)
        for v in g.vertices:
            unit = unit + A.AlgebraElement.projection(g, v) * z
        if unit != z:
            problems.append("the sum of vertex projections times y.y is not y.y")
        bad = oracles.reducible_terms(g, zt)
        if bad:
            problems.append(f"{len(bad)} monomials end in the special edge in both halves, e.g. {bad[0]}")
        depth = max(2 * oracles.star_half_depth(yt), oracles.star_half_depth(zt))
        mu = oracles.boundary_mismatch(g, [zt], [yt, yt], depth)
        if mu is not None:
            problems.append(f"y.y and y(y(.)) differ on the boundary path {mu}")
        for a, b in pairs:
            s = A.AlgebraElement.isometry(g, _to_path(ga, a)).star() * A.AlgebraElement.isometry(g, _to_path(ga, b))
            if s.is_zero() == oracles.prefix_comparable(a, b):
                problems.append(f"S_a* S_b is {'zero' if s.is_zero() else 'nonzero'} for a={a}, b={b}")
        return problems

    return Op(f"y.y on {spec} ({len(y.terms())} terms)", run, check)


def _normal_form_op(ga, rng: random.Random, spec: str, max_len: int) -> Op:
    g = ga.catalog.parse_catalog_spec(spec)
    A = ga.algebra
    by_range: dict[str, list] = {}
    for p in _paths(g, range(max_len + 1)):
        by_range.setdefault(_range(g, p), []).append(_to_path(ga, p))
    raw = {A.Monomial(a, b): _coeff(rng) for group in by_range.values() for a in group for b in group}
    exempt = A.default_exempt(g)

    def run():
        return ga.algebra.normal_form_terms(g, exempt, raw)

    def check(nf) -> list[str]:
        problems = []
        rt, nt = oracles.term_tuples(raw), oracles.term_tuples(nf)
        if any(not c for c in nt.values()):
            problems.append("the normal form keeps a zero coefficient")
        bad = oracles.reducible_terms(g, nt)
        if bad:
            problems.append(f"{len(bad)} monomials are still rewritable, e.g. {bad[0]}")
        depth = max(1, oracles.star_half_depth(rt, nt))
        mu = oracles.boundary_mismatch(g, [rt], [nt], depth)
        if mu is not None:
            problems.append(f"raw map and normal form differ on the boundary path {mu}")
        return problems

    return Op(f"normal form on {spec} ({len(raw)} raw terms)", run, check)


def _random_dag(ga, rng: random.Random):
    n = DAG_SHAPE["vertices"]
    vertices = [f"v{i}" for i in range(n)]
    while True:
        edges = []
        for i in range(DAG_SHAPE["bundles"]):
            a, b = sorted(rng.sample(range(n), 2))
            edges.append((f"b{i}", vertices[a], vertices[b], rng.randint(1, 2)))
        g = ga.core.make_graph(f"dag{rng.randrange(10**6)}", vertices, edges)
        sinks = {v for v in vertices if not any(e[1] == v for e in edges)}
        ending = oracles.bounded_paths_ending(g, n, 2)
        if sum(ending[v] for v in sinks) == DAG_SHAPE["dim"]:
            return g


def _random_element(ga, rng: random.Random, g):
    paths = _paths(g, (0, 1, 2, 3))
    terms = {}
    while len(terms) < DAG_SHAPE["terms"]:
        a = rng.choice(paths)
        b = rng.choice([p for p in paths if _range(g, p) == _range(g, a)])
        terms[ga.algebra.Monomial(_to_path(ga, a), _to_path(ga, b))] = _coeff(rng)
    return ga.algebra.AlgebraElement(g, terms)


def _dag_op(ga, rng: random.Random) -> Op:
    A = ga.algebra
    # a fixed number of draws, so that set-up costs the same for every seed
    draws = []
    for _ in range(DAG_DRAWS):
        g = _random_dag(ga, rng)
        draws.append((g, _random_element(ga, rng, g), _random_element(ga, rng, g)))
    g, a, b = min(draws, key=lambda d: abs(len((d[1] * d[2]).terms()) - DAG_SHAPE["product_terms"]))

    def run():
        z = a * b
        return z, ga.algebra.faithful_rep_oracle(g, z)

    def check(out) -> list[str]:
        z, rep = out
        problems = []
        if rep != oracles.matmul(A.faithful_rep_oracle(g, a), A.faithful_rep_oracle(g, b)):
            problems.append("rep(a.b) differs from rep(a) rep(b)")
        if A.faithful_rep_oracle(g, z.star()) != oracles.transpose(rep):
            problems.append("rep((a.b)*) differs from the transpose of rep(a.b)")
        bad = oracles.reducible_terms(g, oracles.term_tuples(z.terms()))
        if bad:
            problems.append(f"{len(bad)} monomials of a.b are still rewritable")
        return problems

    return Op(f"rep of a.b on {g.name} ({len(g.bundles)} bundles)", run, check)


def _span_ops(ga, rng: random.Random) -> list[Op]:
    ops = [_product_op(ga, rng, spec, lengths) for spec, lengths in PRODUCT_SUPPORTS]
    ops += [_normal_form_op(ga, rng, spec, max_len) for spec, max_len in NORMAL_FORM_SUPPORTS]
    ops += [_dag_op(ga, rng) for _ in range(2)]
    return ops


def build(ga, workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    builders = {"certify_teardrops": _teardrop_ops, "certify_balls": _ball_ops, "span_products": _span_ops}
    ops = builders[workload](ga, rng)
    rng.shuffle(ops)
    return ops
