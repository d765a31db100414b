"""Self-test of the benchmark's checks: each corruption below damages one
operation's output, or swaps in a broken graphalg function for the length of
one operation, and the operation must then count as failed.

    python3 bench/selftest.py

Every operation is first run clean and must pass.  Exits 0 when every clean
run passes and every corrupted run fails by a problem that a check reports
(or, under a broken graphalg function, by the operation raising).  A
corruption that itself raises stops the self-test.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager, nullcontext

import run
import workloads


def _flip(checks, name: str):
    return dataclasses.replace(checks, **{name: not getattr(checks, name)})


def _cert(out):
    return out[0] if isinstance(out, tuple) else out


def wrong_multiplicity(ga, out):
    cert = _cert(out)
    b = cert.e1.bundles[0]
    bundles = (dataclasses.replace(b, mult=ga.core.ExtNat(3)),) + cert.e1.bundles[1:]
    cert.e1 = ga.core.Graph(cert.e1.name, cert.e1.vertices, bundles)
    return out


def wrong_f1(ga, out):
    cert = _cert(out)
    cert.f1 = cert.e1
    return out


def swapped_images(ga, out):
    functor = _cert(out).functor
    label = functor.source.bundles[0].label
    e0, e1 = ga.core.Edge(label, 0), ga.core.Edge(label, 1)
    cache = functor._eval_cache
    cache[e0], cache[e1] = functor.eval_edge(e1), functor.eval_edge(e0)
    return out


def flipped_pullback_check(name):
    def corrupt(ga, out):
        cert = _cert(out)
        cert.checks = _flip(cert.checks, name)
        return out

    return corrupt


def flipped_extension_check(ga, out):
    ext = out[1]
    ext.checks = _flip(ext.checks, "delta_annihilates_x")
    return out


def flipped_degenerate(ga, out):
    out.degenerate = not out.degenerate
    return out


def short_kernel_count(ga, out):
    cert, ext, kernel = out
    return cert, ext, dataclasses.replace(kernel, checked=kernel.checked - 1)


def _element(ga, g, terms):
    return ga.algebra.AlgebraElement(g, terms, _normalized=True)


def dropped_term(diagonal: bool):
    def corrupt(ga, z):
        terms = dict(z.terms())
        m = next(m for m in terms if (m.alpha == m.beta) == diagonal)
        del terms[m]
        return _element(ga, z.graph, terms)

    return corrupt


def unnormalised_element(ga, z):
    """Replace one monomial S_a S_b* ranging at a regular vertex by the equal
    sum of S_af S_bf* over the edges f out of that vertex."""
    g, terms = z.graph, dict(z.terms())
    m = next(m for m in terms if g.out_bundles(g.path_range(m.alpha)) and m.alpha.edges)
    c = terms.pop(m)
    for b in g.out_bundles(g.path_range(m.alpha)):
        for i in range(b.mult.finite()):
            e = ga.core.Edge(b.label, i)
            longer = ga.algebra.Monomial(
                ga.core.Path(m.alpha.base, m.alpha.edges + (e,)), ga.core.Path(m.beta.base, m.beta.edges + (e,))
            )
            terms[longer] = terms.get(longer, 0) + c
    return _element(ga, g, {k: v for k, v in terms.items() if v})


def dropped_raw_term(ga, nf):
    nf = dict(nf)
    del nf[next(iter(nf))]
    return nf


def changed_entry(ga, out):
    z, rep = out
    rep = [row[:] for row in rep]
    rep[0][0] += 1
    return z, rep


def dropped_dag_term(ga, out):
    z, rep = out
    return dropped_term(diagonal=False)(ga, z), rep


def multiply_mutant(broken):
    """For one operation, replace graphalg's multiply by `broken(original)`."""

    @contextmanager
    def patch(ga):
        original = ga.algebra.multiply
        ga.algebra.multiply = broken(original)
        try:
            yield
        finally:
            ga.algebra.multiply = original

    return patch


def _unit_loses_a_term(multiply):
    def broken(a, b):
        product = multiply(a, b)
        left = list(a._terms)
        if len(left) == 1 and not left[0].alpha.edges and not left[0].beta.edges and product._terms:
            terms = dict(product._terms)
            del terms[next(iter(terms))]
            return type(product)(product.graph, terms, product.exempt, _normalized=True)
        return product

    return broken


def _monomial_products_vanish(multiply):
    def broken(a, b):
        product = multiply(a, b)
        if len(a._terms) == 1 and len(b._terms) == 1:
            return type(product).zero(product.graph, product.exempt)
        return product

    return broken


def loader_mutant():
    @contextmanager
    def patch(ga):
        original = ga.io.certificate_from_json

        def broken(text):
            cert = original(text)
            cert.bounds = ga.resolution.Bounds(cert.bounds.max_len + 1, cert.bounds.max_index)
            return cert

        ga.io.certificate_from_json = broken
        try:
            yield
        finally:
            ga.io.certificate_from_json = original

    return patch


def _is(prefix):
    return lambda name: name.startswith(prefix)


def _positive_extension(name):
    return name.startswith("extend rnm:3,3") and "h1=r0" not in name


# (what breaks, workload, which op, output corruption, in-process mutant)
CORRUPTIONS = [
    ("E1 multiplicity off the closed form", "certify_teardrops", _positive_extension, wrong_multiplicity, None),
    ("two functor images swapped", "certify_teardrops", _positive_extension, swapped_images, None),
    ("pullback verdict flipped", "certify_teardrops", _positive_extension, flipped_pullback_check("kernel_inclusion_to_bound"), None),
    ("negative verdict flipped", "certify_teardrops", _is("pullback rnm"), flipped_pullback_check("f2_admissible"), None),
    ("extension verdict flipped", "certify_teardrops", lambda n: "h1=r0" in n, flipped_extension_check, None),
    ("kernel count one short", "certify_teardrops", _positive_extension, short_kernel_count, None),
    ("loader misreads the bounds", "certify_teardrops", _is("pullback rnm"), None, loader_mutant()),
    ("F1 off the closed form", "certify_balls", _is("pullback ball:3 over {0,1,2}"), wrong_f1, None),
    ("two functor images swapped", "certify_balls", _is("pullback ball:4"), swapped_images, None),
    ("short-loop verdict flipped", "certify_balls", lambda n: n.startswith("pullback ball") and n.endswith("{0}") and "ball:1" not in n,
     flipped_pullback_check("no_short_loops_outside_f2"), None),
    ("degenerate flag flipped", "certify_balls", _is("pullback cuntz"), flipped_degenerate, None),
    ("dropped product term", "span_products", _is("y.y on cuntz:2"), dropped_term(diagonal=False), None),
    ("dropped diagonal product term", "span_products", _is("y.y on ball:3"), dropped_term(diagonal=True), None),
    ("equal but not normalised", "span_products", _is("y.y on rnm:2,2"), unnormalised_element, None),
    ("unit product loses a term", "span_products", _is("y.y on toeplitz"), None, multiply_mutant(_unit_loses_a_term)),
    ("S_a* S_b vanishes", "span_products", _is("y.y on cuntz:3"), None, multiply_mutant(_monomial_products_vanish)),
    ("dropped normal-form term", "span_products", _is("normal form on ball:3"), dropped_raw_term, None),
    ("changed representation entry", "span_products", _is("rep of a.b"), changed_entry, None),
    ("dropped term of a.b", "span_products", _is("rep of a.b"), dropped_dag_term, None),
]


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        ga = run.load_graphalg()
        ops = workloads.build(ga, workload, seed=0)
        for op in ops:
            problems = run.execute(op, run.Tally())
            if problems:
                ok = False
                print(f"CLEAN RUN FAILED  {workload}: {op.name}: {problems[0]}")
        for what, where, pick, corrupt, mutant in CORRUPTIONS:
            if where != workload:
                continue
            op = next(op for op in ops if pick(op.name))
            tally = run.Tally()
            with (mutant(ga) if mutant else nullcontext()):
                problems = run.execute(op, tally, corrupt=(lambda out: corrupt(ga, out)) if corrupt else None)
            # an output corruption counts only when a check reports it; a
            # broken graphalg function may also make the operation raise
            allowed = (run.RUN_RAISED,) if mutant else ()
            caught = tally.failed == 1 and bool(problems) and all(
                not p.startswith((run.RUN_RAISED, run.CHECK_RAISED)) or p.startswith(allowed) for p in problems
            )
            ok &= caught
            print(f"{'caught' if caught else 'MISSED':7} {what:38} {op.name}")
            for problem in problems or ["no problem found"]:
                print(f"        {problem.strip().splitlines()[-1][:150]}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
