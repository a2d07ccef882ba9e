"""Invariants of the exact engine on generated multigraphs of up to 60
edges, with self-loops and parallel edges: well past the old edge limits,
with only the contraction plan guarding the work.  The Newton round trip
between coefficients and inverse power sums.  And the rotated roots of
the margin search against the polynomials they stand for."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from holant.coeffs import coeffs_from_power_sums, power_sums_from_coeffs
from holant.graphs import Multigraph, brute_force_coeffs, brute_force_Z, disjoint_union
from holant.signatures import SymmetricSignature, local_polynomial, reverse
from holant.transform import apply_holographic, rotation_from_w, rotation_roots

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
