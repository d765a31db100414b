"""Mixed-radix ranking and unranking of irreducible pointed paths, checked
against the enumerate-to-k oracle in helpers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalg import functors, pointed
from graphalg.catalog import catalog_get, parse_catalog_spec
from graphalg.core import INF, Edge, Path, make_graph
from graphalg.io import certificate_to_json
from graphalg.pointed import irreducible_pointed_at, irreducible_pointed_rank
from graphalg.pushout import verify_extension
from graphalg.resolution import Bounds, verify_pullback
from helpers import oracle_iter_pointed, oracle_pointed_at

CAP = 40
MULTS = st.sampled_from([1, 2, 3, "inf"])


@st.composite
def pointed_graphs(draw):
    """Graphs on v, w, x with loops at v, links v -> w, and a few other
    bundles; labels are shuffled so loop and link bundles interleave."""
    loops = draw(st.lists(MULTS, max_size=3))
    links = draw(st.lists(MULTS, max_size=3))
    others = [("v", "x", draw(MULTS)), ("w", "v", draw(MULTS)), ("w", "w", draw(MULTS))]
    ends = [("v", "v", m) for m in loops] + [("v", "w", m) for m in links]
    ends += draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    labels = draw(st.permutations([f"b{i}" for i in range(len(ends))]))
    return make_graph("g", ["v", "w", "x"], [(label, *end) for label, end in zip(labels, ends)])


def _alphabet(g, v, w):
    """The self-loop bundles at v and the other bundles v -> w."""
    loops = [b for b in g.out_bundles(v) if b.is_self_loop]
    links = [b for b in g.out_bundles(v) if b.dst == w and not b.is_self_loop]
    return loops, links


@settings(max_examples=80, deadline=None)
@given(pointed_graphs())
def test_rank_and_unrank_agree_with_enumeration(g):
    for v, w in itertools.product(g.vertices, repeat=2):
        listed = list(itertools.islice(oracle_iter_pointed(g, v, w), CAP))
        for k, p in enumerate(listed):
            assert irreducible_pointed_at(g, v, w, k) == p, (v, w, k)
            assert irreducible_pointed_rank(g, p) == k, (v, w, k)
        if len(listed) < CAP:
            with pytest.raises(ValueError):
                irreducible_pointed_at(g, v, w, len(listed))
        loops, links = _alphabet(g, v, w)
        if not (loops and links):
            continue
        loop, link = Edge(loops[0].label, 0), Edge(links[0].label, 0)
        # an infinite layer j hides every block of length > j + 1
        if any(not b.mult.is_finite for b in links):
            assert irreducible_pointed_rank(g, Path(v, (loop, link))) == INF
        if any(not b.mult.is_finite for b in loops):
            assert irreducible_pointed_rank(g, Path(v, (loop, loop, link))) == INF


@settings(max_examples=40, deadline=None)
@given(pointed_graphs(), st.lists(st.integers(0, 2), max_size=6), st.integers(0, 2))
def test_unrank_inverts_rank_on_finite_alphabets(g, digits, last):
    """Also on infinite alphabets, for every block of finite rank."""
    loops, links = _alphabet(g, "v", "w")
    if not links:
        return

    def letter(bundles, d):
        b = bundles[d % len(bundles)]
        return Edge(b.label, d % b.mult.finite() if b.mult.is_finite else d)

    word = tuple(letter(loops, d) for d in digits) if loops else ()
    block = Path("v", word + (letter(links, last),))
    rank = irreducible_pointed_rank(g, block)
    if rank.is_finite:
        assert irreducible_pointed_at(g, "v", "w", rank.finite()) == block
    else:
        assert any(not b.mult.is_finite for b in loops + links)


def test_closed_form_does_not_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated irreducible pointed paths")

    monkeypatch.setattr(pointed, "iter_irreducible_pointed", refuse, raising=False)
    inf_link_first = make_graph("g", ["v", "w"], [("a", "v", "w", "inf"), ("b", "v", "w", 2)])
    inf_loop = make_graph("g", ["v", "w"], [("l", "v", "v", "inf"), ("p", "v", "w", 1)])
    l, p = Edge("l", 0), Edge("p", 0)
    shapes = [
        (catalog_get("rnm", 3, 3), "r0", "r1", None),
        # one infinite bundle and no loops: no block lies past it
        (catalog_get("cpn", 2), "0", "1", None),
        (inf_link_first, "v", "w", Path("v", (Edge("b", 0),))),
        (inf_loop, "v", "w", Path("v", (l, l, p))),
    ]
    k = 10**12
    for g, v, w, past in shapes:
        path = irreducible_pointed_at(g, v, w, k)
        assert g.is_valid_path(path) and g.path_range(path) == w
        assert irreducible_pointed_rank(g, path) == k
        if past is not None:
            assert g.is_valid_path(past) and irreducible_pointed_rank(g, past) == INF


# -- certificates do not depend on how the functor unranks ---------------------------


def _acceptance_cases():
    """The pullbacks and extensions that the acceptance suite certifies."""
    b = Bounds(6, 4)
    cases = [("toeplitz", ["w1"], b, None), ("rp2q", ["top"], b, None), ("eq_sphere", ["top"], b, None)]
    cases += [(f"ball:{n}", [str(i) for i in range(n)], b, None) for n in (1, 2, 3, 4)]
    cases += [(f"rnm:{n},{m}", ["r0"], b, None) for n, m in itertools.product((1, 2, 3), repeat=2)]
    cases += [
        (f"rnm:{n},{m}", ["r0"], b, {f"h{j}": f"r{j}" for j in range(1, n + 1)})
        for n, m in itertools.product((1, 2), repeat=2)
    ]
    cases.append(("rnm:1,1", ["r0"], b, {"h1": "r0"}))
    return cases


def _teardrop_cases():
    """Weighted teardrop graphs glued to a two-vertex chain, over {r0}, plus
    the glued-at-the-source and the non-admissible {r1} variants."""
    b = Bounds(5, 4)
    cases = []
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for heavy in range(n):
            spec = f"rnm:{n},{m}," + ",".join("2" if j == heavy else "1" for j in range(n))
            cases.append((spec, ["r0"], b, {"h1": f"r{n}", "h2": "r1"}))
    cases.append(("rnm:2,2,2,1", ["r0"], b, {"h1": "r0", "h2": "r2"}))
    cases.append(("rnm:3,2,1,2,1", ["r1"], b, None))
    return cases


def _certificates(spec, members, bounds, attach) -> list[str]:
    cert = verify_pullback(parse_catalog_spec(spec), members, bounds)
    out = [certificate_to_json(cert)]
    if attach is not None:
        out.append(certificate_to_json(verify_extension(cert, catalog_get("h_chain", 2), attach, bounds)))
    return out


@pytest.mark.parametrize("spec,members,bounds,attach", _acceptance_cases() + _teardrop_cases())
def test_certificates_match_the_enumerating_functor(monkeypatch, spec, members, bounds, attach):
    closed_form = _certificates(spec, members, bounds, attach)
    monkeypatch.setattr(functors, "irreducible_pointed_at", oracle_pointed_at)
    assert _certificates(spec, members, bounds, attach) == closed_form
