"""Invariants of the exact engine on generated multigraphs of up to 60
edges, with self-loops and parallel edges: well past the old edge limits,
with only the contraction plan guarding the work.  Gadget composition's
one contraction against one per count vector.  The Newton round trip
between coefficients and inverse power sums.  The rotated roots of the
margin search against the polynomials they stand for, and its pick
against a sweep of one stability check per candidate.  And `holant
approx` on generated signatures: right, refused or flagged, never a
crash."""

import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holant.coeffs import coeffs_from_power_sums, power_sums_from_coeffs
from holant.cli import main
from holant.formats import dump_graph
from holant.graphs import (
    Multigraph,
    OpenGadget,
    _plan,
    brute_force_coeffs,
    brute_force_Z,
    complete,
    disjoint_union,
    random_regular,
)
from holant.signatures import SymmetricSignature, local_polynomial, reverse
from holant.stability import find_roots
from holant.transform import apply_holographic, margin_search, rotation_from_w, rotation_roots
from test_graphs import assert_composes_as_the_reference, reference_plan
from test_kernels import scalar_margin_search

PROFILE = settings(max_examples=20, derandomize=True, deadline=None)

# quarters in [-3, 3]
RATIONALS = st.integers(-12, 12).map(lambda q: Fraction(q, 4))


@st.composite
def instances(draw, max_edges=60):
    """A multigraph with one rational signature per vertex.

    Each edge joins vertices at most two apart and no degree exceeds 3,
    so every contraction plan stays small however many edges there are.
    """
    n = draw(st.integers(1, 60))
    tries = draw(st.integers(1, 3 * max_edges))
    deg = [0] * n
    edges = []
    for x in draw(st.lists(st.integers(0, 3 * n - 1), min_size=tries, max_size=tries)):
        u = x // 3
        v = min(u + x % 3, n - 1)
        if len(edges) < max_edges and max(deg[u], deg[v]) + 1 + (u == v) <= 3:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    kept = [v for v in range(n) if deg[v]]  # a vertex needs an edge to carry a signature
    pos = {v: i for i, v in enumerate(kept)}
    g = Multigraph(len(kept), tuple((pos[u], pos[v]) for u, v in edges))
    size = sum(deg[v] + 1 for v in kept)
    entries = iter(draw(st.lists(RATIONALS, min_size=size, max_size=size)))
    sigs = [SymmetricSignature(tuple(next(entries) for _ in range(deg[v] + 1))) for v in kept]
    return g, sigs


def exact_orthogonal(f: SymmetricSignature, t: Fraction, reflect: bool) -> SymmetricSignature:
    """f . M^(x)d in rationals, for the rotation by the angle whose
    half-tangent is t, or that rotation composed with a reflection."""
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    b, e = (s, -c) if reflect else (-s, c)  # M = [[c, b], [s, e]]
    d = f.arity

    def power(p0, p1, n):  # coefficients of (p0 + p1 z)^n
        return [math.comb(n, i) * p0 ** (n - i) * p1**i for i in range(n + 1)]

    # f as the form sum_k C(d,k) f_k u^(d-k) v^k, with u -> c u + b v and
    # v -> s u + e v; entry j is the u^(d-j) v^j coefficient over C(d, j)
    form = [Fraction(0)] * (d + 1)
    for k, fk in enumerate(f.values):
        pu, pv = power(c, b, d - k), power(s, e, k)
        for i, x in enumerate(pu):
            for j, y in enumerate(pv):
                form[i + j] += math.comb(d, k) * fk * x * y
    return SymmetricSignature(tuple(form[j] / math.comb(d, j) for j in range(d + 1)))


@PROFILE
@given(instances())
def test_strata_sum_to_Z(inst):
    g, sigs = inst
    assert sum(brute_force_coeffs(g, sigs)) == brute_force_Z(g, sigs)


@PROFILE
@given(instances())
def test_float_Z_matches_the_exact_one(inst):
    g, sigs = inst
    z = brute_force_Z(g, sigs)
    got = brute_force_Z(g, [SymmetricSignature(tuple(float(x) for x in s.values)) for s in sigs])
    # every term of the sum is at most its value with |f|, so rounding is too
    scale = brute_force_Z(g, [SymmetricSignature(tuple(abs(x) for x in s.values)) for s in sigs])
    assert isinstance(got, float)
    assert abs(got - z) <= 1e-12 * scale


@PROFILE
@given(instances(max_edges=30), instances(max_edges=30))
def test_disjoint_union_multiplies(a, b):
    (g, f), (h, k) = a, b
    assert brute_force_Z(disjoint_union(g, h), f + k) == brute_force_Z(g, f) * brute_force_Z(h, k)


@PROFILE
@given(instances(), RATIONALS, st.booleans())
def test_Z_is_invariant_under_orthogonal_transforms_and_reversal(inst, t, reflect):
    g, sigs = inst
    z = brute_force_Z(g, sigs)
    assert brute_force_Z(g, [exact_orthogonal(s, t, reflect) for s in sigs]) == z
    assert brute_force_Z(g, [reverse(s) for s in sigs]) == z


@st.composite
def multigraphs(draw):
    """A multigraph of up to 24 edges between up to 8 vertices, self-loops
    and parallel edges included, with a live length per vertex from 1 to
    its degree + 1, an open length per vertex from 1 to 3, and a strata
    of 0, 7 or m + 1."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    g = Multigraph(n, tuple(edges))
    live = [draw(st.integers(1, d + 1)) for d in g.degrees()]
    opened = [draw(st.integers(1, 3)) for _ in range(n)]
    strata = draw(st.sampled_from([0, 7, g.m + 1]))
    return g, live, opened, strata


@settings(max_examples=200, derandomize=True, deadline=None)
@given(multigraphs())
def test_plan_matches_the_reference_planner(inst):
    g, live, opened, strata = inst
    assert _plan(g, live, strata, opened)[:2] == reference_plan(g, live, strata, opened)


@st.composite
def gadgets(draw):
    """(gadget, edge signature) with rational entries: 1-4 vertices joined
    by 1-7 inner edges, self-loops and parallel edges included, maybe one
    more vertex with no inner edge, and 1-4 dangling slots.  Half the
    draws put every slot on one vertex, which makes the gadget symmetric;
    the slots are listed one pair per slot or one pair per vertex."""
    n = draw(st.integers(1, 4))
    edges = [(v, draw(st.integers(0, n - 1))) for v in range(n)]  # no vertex without an edge
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=7 - n))
    loose = draw(st.booleans())
    holders = draw(st.lists(st.integers(0, n - 1 + loose), min_size=1, max_size=4))
    if draw(st.booleans()):
        holders = [holders[0]] * len(holders)
    if loose and n not in holders:
        holders = [n] * len(holders)
    if draw(st.booleans()):
        dangling = tuple((v, 1) for v in holders)
    else:
        dangling = tuple((v, holders.count(v)) for v in sorted(set(holders)))
    g = Multigraph(n + loose, tuple(edges))
    arity = [d + holders.count(v) for v, d in enumerate(g.degrees())]
    sigs = tuple(SymmetricSignature(tuple(draw(st.lists(RATIONALS, min_size=d + 1, max_size=d + 1)))) for d in arity)
    return OpenGadget(g, dangling, sigs), draw(st.lists(RATIONALS, min_size=3, max_size=3))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(gadgets())
def test_one_gadget_contraction_matches_one_per_count_vector(inst):
    gadget, b = inst
    assert_composes_as_the_reference(gadget, b)


@st.composite
def polynomials(draw):
    """(c, roots): c_0 * prod (1 - z/r) for up to 8 roots with
    1.5 <= |r| <= 6, real (conjugate roots paired) or complex."""
    real = draw(st.booleans())
    polar = draw(st.lists(st.tuples(st.floats(1.5, 6.0), st.floats(-math.pi, math.pi)), max_size=8))
    roots = [m * complex(math.cos(a), math.sin(a)) for m, a in polar]
    if real:
        roots = roots[:4] + [r.conjugate() for r in roots[:4]]
    c = np.polynomial.polynomial.polyfromroots(roots) if roots else np.ones(1)
    if real:
        c = c.real
    c0 = draw(st.sampled_from([1.0, -0.5, 3.0] if real else [1.0, 0.25 + 2j]))
    return c / c[0] * c0, roots


@PROFILE
@given(polynomials(), st.integers(0, 384))
def test_newton_round_trip(poly, k):
    c, roots = poly
    got = coeffs_from_power_sums(power_sums_from_coeffs(c, len(roots), k), k)
    want = np.zeros(k + 1, dtype=complex)
    n = min(len(c), k + 1)
    want[:n] = c[:n] / c[0]
    # compared as the coefficients of c(rho z) / c_0, rho the smallest root
    # modulus: they are at most 2^8, while the terms themselves fall like
    # rho^-j and would hide any error past the first few dozen
    rho = min((abs(r) for r in roots), default=1.0)
    assert np.max(np.abs(got - want) * rho ** np.arange(k + 1)) <= 1e-12 * 2**8


@PROFILE
@given(
    st.integers(2, 6).flatmap(lambda d: st.lists(st.integers(0, 12), min_size=d + 1, max_size=d + 1)).filter(any),
    st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
    st.sampled_from(["delta0", "delta1"]),
    st.booleans(),
)
def test_rotated_roots_meet_the_root_contract(quarters, w, conv, use_rev):
    # non-negative f with zero entries and repeated roots, as the margin
    # search meets them; the contract is find_roots': |p(r)| <= 1e-8 max|c|,
    # through the reversed polynomial when |r| > 1
    f = SymmetricSignature(tuple(q / 4 for q in quarters))
    roots = rotation_roots(f, [(w, conv, use_rev)])[0]
    poly = local_polynomial(apply_holographic(reverse(f) if use_rev else f, rotation_from_w(w, conv)))
    c = poly.as_array()
    finite = roots[np.isfinite(roots)]
    assert len(roots) == f.arity and len(finite) <= poly.degree
    for r in finite:
        residual = np.polyval(c[::-1], r) if abs(r) <= 1 else np.polyval(c, 1 / r)
        assert abs(residual) <= 1e-8 * np.max(np.abs(c))


@PROFILE
@given(
    st.floats(0.1, 2.0),
    st.integers(3, 6).flatmap(
        lambda d: st.lists(st.one_of(st.floats(0.01, 3), st.floats(0.01, 50), st.floats(0.01, 1e3)), min_size=d, max_size=d)
    ),
)
def test_margin_search_picks_what_the_scalar_sweep_picks(f0, rest):
    # the batched sweep, which moves f's roots, against one h_eps_stability
    # call per candidate.  (th, conv, f) and (-th, the other conv, the
    # reversal) are one transform, whose two margins differ by rounding;
    # the sweep may take either twin, and then their margins agree.
    # The reference is trusted only where f's roots lie apart: a rotation
    # keeps their chordal distances, and at a multiple root the companion
    # eigenvalues of each rotated polynomial lose about half their digits,
    # enough to move the reference's pick ([1.5, 1.5, 1.5, 1.5], one
    # triple root).  The sweep's own roots are held to 50-digit ones there
    # by tests/test_kernels.py.  Entries are positive, so f keeps its
    # degree and has no zero at infinity.
    f = SymmetricSignature((f0, *rest))
    roots = find_roots(local_polynomial(f))
    chordal = np.abs(roots[:, None] - roots) / np.sqrt(np.outer(1 + np.abs(roots) ** 2, 1 + np.abs(roots) ** 2))
    assume(np.min(chordal + np.eye(len(roots))) >= 1e-3)
    want = scalar_margin_search(f)
    got = margin_search(f)
    if want is None:
        assert got is None
        return
    margin, th, conv, use_rev = want
    picked = (got.matrix, got.use_reversal)
    if picked == (rotation_from_w(math.tan(th), conv), use_rev):
        assert got.certificate.margin == margin
    else:
        other = "delta1" if conv == "delta0" else "delta0"
        assert picked == (rotation_from_w(math.tan(-th), other), not use_rev)
        assert abs(got.certificate.margin - margin) <= 1e-8 * margin


# the graphs an approx run of each arity draws from
APPROX_GRAPHS = {
    3: (complete(4), random_regular(8, 3, seed=1), random_regular(10, 3, seed=2)),
    4: (complete(5), random_regular(8, 4, seed=1)),
    5: (complete(6),),
    6: (complete(7),),
}


@st.composite
def approx_runs(draw):
    """(values, graph index, eps) shaped like test_classify's
    seeded_signatures: half the arity-3 draws are [1] + 3 entries, each 0
    or up to 3, 50 or 1e3; the others are x a^k + y b^k, kept when
    non-negative with a positive first entry."""
    d = draw(st.sampled_from((3, 3, 4, 5, 6)))
    if d == 3 and draw(st.booleans()):
        entry = st.one_of(st.just(0.0), st.floats(0, 3), st.floats(0, 50), st.floats(0, 1e3))
        vals = [1.0] + [draw(entry) for _ in range(3)]
    else:
        a, b = draw(st.floats(-3, 4)), draw(st.floats(-3, 4))
        x, y = draw(st.floats(0.1, 2)), draw(st.floats(-1, 2))
        vals = [x * a**k + y * b**k for k in range(d + 1)]
        assume(min(vals) >= 0 and vals[0] > 0)
    graph = draw(st.integers(0, len(APPROX_GRAPHS[d]) - 1))
    return vals, graph, draw(st.sampled_from((0.05, 0.01)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(approx_runs())
# once marked converged on a rung whose roots were not cleared: 14.1% and
# 7.9% off
@example(([1.0, 835.6378035332052, 16.5420317495768, 830.8823021778139], 2, 0.05))
@example(([1.0, 889.6255377565002, 0.7753870740115173, 918.9479095871912], 2, 0.05))
# once rejected by the tensor pair's reconstruction check (exit 1)
@example(([1, 0.12803610809794452, 0, 595.389306120251], 0, 0.05))
@example(([1.0, 0.012682554510728417, 0.0, 16.12247752669119], 0, 0.05))
# once exit 1: no rung gave a record, the transform failed numerically, and
# the tensor pair of an ill-conditioned triple missed f
@example(([1, 37.5, 0, 0], 0, 0.05))
@example(([1, 16.3533, 244.3419, 0], 0, 0.05))
@example(([1.0, 399.31947386238073, 0.0, 0.017806195372254918], 0, 0.05))
@example(([1.0, 0.001198724895760006, 0.0, 197.2581680287908], 0, 0.05))
@example(([1.0, 27.399737631866405, 749.4306942918842, 1.4374820140747788], 0, 0.05))
def test_approx_answers_refuses_or_flags(run):
    # exit 0 is within eps of the exact Z; 2 is a refusal, 3-5 the
    # classifier's labels and 6 an unconverged report.  Exit 1 is for
    # malformed input, and no valid input raises.
    vals, graph, eps = run
    g = APPROX_GRAPHS[len(vals) - 1][graph]
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/f.sig", "w") as fh:
            fh.write(f"sig d={len(vals) - 1} {json.dumps(vals)}\n")
        with open(f"{tmp}/g.graph", "w") as fh:
            fh.write(dump_graph(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["approx", f"{tmp}/f.sig", f"{tmp}/g.graph", "--eps", str(eps)])
    assert code in (0, 2, 3, 4, 5, 6)
    if code == 0:
        outcome = json.loads(out.getvalue())["outcome"]
        got = outcome["estimate"] if "estimate" in outcome else outcome["value"]
        truth = float(brute_force_Z(g, SymmetricSignature(tuple(vals))))
        assert abs(got - truth) <= eps * abs(truth)


# Parser fuzzing: valid texts, each with at most one field, token or index
# broken.  Every integer a text can declare is drawn from a small range: a
# graph header that declares billions of vertices would allocate a list of
# that length, which is not tested here.
SMALL_INTS = st.integers(-2, 6)
JUNK_TOKENS = st.sampled_from(["", "x", "1.5", "-1", "1/2", "1/0", "nan", "inf", "1e3", "#", "[", ",", "true"])
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL_INTS, st.floats(-3, 3), st.sampled_from(["1/2", "x", "1/0"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(["a", "f"]), inner, max_size=2)),
    max_leaves=6,
)
ENTRIES = st.lists(st.one_of(st.integers(0, 3), st.sampled_from(["1/2", 0.25])), min_size=4, max_size=6)


def _break_one(draw, tokens: list) -> list:
    """tokens, or tokens with one replaced by junk, dropped or doubled."""
    how = draw(st.sampled_from(("keep", "junk", "drop", "double")))
    if how == "keep" or not tokens:
        return tokens
    i = draw(st.integers(0, len(tokens) - 1))
    fresh = {"junk": [draw(JUNK_TOKENS)], "drop": [], "double": [tokens[i], tokens[i]]}[how]
    return tokens[:i] + fresh + tokens[i + 1 :]


@st.composite
def signature_texts(draw):
    values = draw(ENTRIES)
    if draw(st.booleans()):
        head = ["sig", f"d={len(values) - 1}"] + [str(v) for v in values]
        head = _break_one(draw, head)
        return f"{' '.join(head[:2])} [{','.join(head[2:])}]\n"
    doc = {"arity": len(values) - 1, "values": values}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    return json.dumps(doc)


@st.composite
def graph_texts(draw):
    g = draw(st.sampled_from((complete(4), random_regular(6, 3, 1), random_regular(8, 3, 2))))
    edges = draw(st.permutations(g.edges))
    lines = [[str(g.n), str(g.m)]] + [[str(u), str(v)] for u, v in edges]
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = _break_one(draw, lines[i])
    return "\n".join(" ".join(line) for line in lines) + "\n"


@st.composite
def gadget_texts(draw):
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    dangling = draw(st.lists(st.tuples(vertex, st.integers(1, 2)), max_size=3))
    arity = [0] * n
    for u, v in edges:
        arity[u] += 1
        arity[v] += 1
    for v, c in dangling:
        arity[v] += c
    dangling += [(v, 1) for v in range(n) if not arity[v]]  # no vertex of arity 0
    arity = [d or 1 for d in arity]
    doc = {
        "n": n,
        "edges": edges,
        "dangling": dangling,
        "signatures": {f"a{d}": {"values": draw(st.lists(st.integers(0, 3), min_size=d + 1, max_size=d + 1))} for d in set(arity)},
        "assign": [f"a{d}" for d in arity],
        "edge_signature": draw(st.lists(st.integers(0, 3), min_size=3, max_size=3)),
    }
    how = draw(st.sampled_from(("keep", "field", "drop", "index")))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "field":
        doc[key] = draw(JSON_VALUES)
    elif how == "drop":
        del doc[key]
    elif how == "index" and (edges or dangling):
        pairs = draw(st.sampled_from([name for name in ("edges", "dangling") if doc[name]]))
        i = draw(st.integers(0, len(doc[pairs]) - 1))
        doc[pairs][i] = (draw(SMALL_INTS), doc[pairs][i][1])
    return json.dumps(doc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(("classify", "exact", "approx")), st.just("signature"), signature_texts()),
    st.tuples(st.sampled_from(("exact", "approx")), st.just("graph"), graph_texts()),
    st.tuples(st.just("gadget"), st.just("gadget"), gadget_texts()),
))
def test_any_input_text_exits_0_to_6_with_the_error_contract(case):
    # signature, graph or gadget text, valid or not: exit 1 is the JSON
    # error contract, and nothing raises
    command, slot, text = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"signature": f"{tmp}/f.sig", "graph": f"{tmp}/g.graph", "gadget": f"{tmp}/g.json"}
        with open(files["signature"], "w") as fh:
            fh.write("sig d=3 [1,1,0,0]\n")
        with open(files["graph"], "w") as fh:
            fh.write(dump_graph(complete(4)))
        with open(files[slot], "w") as fh:
            fh.write(text)
        argv = [command] + ([files["gadget"]] if command == "gadget" else [files["signature"]])
        if command in ("exact", "approx"):
            argv.append(files["graph"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(7)
    if code == 1:
        assert out.getvalue() == "" and "error" in json.loads(err.getvalue())
