"""Invariants of the exact engine on generated multigraphs of up to 60
edges, with self-loops and parallel edges: well past the old edge limits,
with only the contraction plan guarding the work.  Gadget composition's
one contraction against one per count vector.  The Newton round trip
between coefficients and inverse power sums.  The rotated roots of the
margin search against the polynomials they stand for.  And `holant
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
from holant.transform import apply_holographic, rotation_from_w, rotation_roots
from test_graphs import assert_composes_as_the_reference, reference_plan

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
    its degree + 1 and a strata of 0, 7 or m + 1."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    g = Multigraph(n, tuple(edges))
    live = [draw(st.integers(1, d + 1)) for d in g.degrees()]
    strata = draw(st.sampled_from([0, 7, g.m + 1]))
    return g, live, strata


@settings(max_examples=200, derandomize=True, deadline=None)
@given(multigraphs())
def test_plan_matches_the_reference_planner(inst):
    g, live, strata = inst
    assert _plan(g, live, strata) == reference_plan(g, live, strata)


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
