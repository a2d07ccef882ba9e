import math

import numpy as np
import pytest

from holant.classify import classify
from holant.errors import ArgumentError
from holant.graphs import Multigraph, brute_force_coeffs, complete
from holant.signatures import SymmetricSignature, reverse, signature
from holant.stability import (
    Poly,
    find_roots,
    h_eps_stability,
    strip_halfwidth,
    verify_strip_zero_free,
)
from holant.transform import apply_holographic, cast_real


def balanced_residual(p: Poly, r: complex) -> float:
    """|p(r)|, measured through the reversed polynomial when |r| > 1."""
    c = p.as_array()[: p.degree + 1]
    if abs(r) <= 1.0:
        return abs(np.polyval(c[::-1], r))
    return abs(np.polyval(c, 1.0 / r))


def test_find_roots_linear():
    roots = find_roots(Poly((1, 3)))
    assert len(roots) == 1 and abs(roots[0] + 1 / 3) < 1e-12


def test_find_roots_quadratic():
    roots = sorted(find_roots(Poly((1, 0, 3))), key=lambda r: r.imag)
    assert abs(roots[0] + 1j / math.sqrt(3)) < 1e-12
    assert abs(roots[1] - 1j / math.sqrt(3)) < 1e-12


def test_find_roots_quartic_roots_of_minus_one():
    roots = find_roots(Poly((1, 0, 0, 0, 1)))
    want = {np.exp(1j * np.pi * k / 4) for k in (1, 3, 5, 7)}
    for r in roots:
        assert min(abs(r - w) for w in want) < 1e-10


def test_find_roots_residual_bound():
    # residual measured through the reversed polynomial for |r| > 1, where
    # direct evaluation is swamped by cancellation noise of order |r|^deg
    rng = np.random.default_rng(5)
    for _ in range(100):
        deg = int(rng.integers(1, 31))
        c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        while abs(c[-1]) < 1e-3:  # keep the degree honest
            c[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        p = Poly(tuple(c))
        roots = find_roots(p)
        resid = max(balanced_residual(p, r) for r in roots)
        assert resid <= 1e-8 * np.max(np.abs(c))


def test_find_roots_rejects_constants():
    with pytest.raises(ArgumentError):
        find_roots(Poly((2.0,)))


def test_h_eps_matchings_local_poly():
    cert = h_eps_stability(Poly((1, 3)))
    assert cert is not None
    assert abs(cert.margin - 1 / 3) < 1e-12
    assert abs(cert.eps - 1 / 6) < 1e-12


def test_h_eps_even_subgraphs_unstable():
    # roots on the imaginary axis must be rejected
    assert h_eps_stability(Poly((1, 0, 3))) is None


def test_h_eps_constant():
    cert = h_eps_stability(Poly((1.0,)))
    assert cert is not None and cert.eps == 1.0 and cert.roots == ()


def test_h_eps_scaling_invariance():
    p = Poly((2, 7, 9, 4))
    a, b = h_eps_stability(p), h_eps_stability(p.scaled(3.5))
    assert (a is None) == (b is None)
    if a is not None:
        assert abs(a.eps - b.eps) < 1e-12


def test_strip_halfwidth():
    assert abs(strip_halfwidth(0.2) - 0.02) < 1e-15
    assert abs(strip_halfwidth(1 / 6) - 1 / 72) < 1e-15
    assert strip_halfwidth(2.0) == 0.45
    with pytest.raises(ArgumentError):
        strip_halfwidth(0.0)


def test_verify_strip_cycle_even_subgraphs():
    ok, dist = verify_strip_zero_free(Poly((1, 0, 0, 1)), 0.1)
    assert ok
    # nearest root to the strip is exp(i pi / 3)
    assert abs(dist - (math.sin(math.pi / 3) - 0.1)) < 1e-9


def test_verify_strip_stable_power():
    c = np.polynomial.polynomial.polypow([1, 3], 4)
    ok, dist = verify_strip_zero_free(Poly(tuple(c)), 0.2)
    assert ok and dist > 0


def test_verify_strip_root_inside():
    # (z - 1/2)(z + 2) has a root in [0, 1]
    ok, dist = verify_strip_zero_free(Poly((-1, 1.5, 1)), 0.1)
    assert not ok and dist == 0.0


def _three_regular_multigraphs():
    dumbbell = Multigraph(2, ((0, 0), (0, 1), (1, 1)))  # loops count twice
    parallel = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
    prism = Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)))
    k33 = Multigraph(6, tuple((i, 3 + j) for i in range(3) for j in range(3)))
    return [dumbbell, parallel, complete(4), prism, k33]


def test_strip_zero_freeness_holds_for_stable_signatures():
    # every stable-transform signature's transformed edge polynomial stays
    # out of the certified strip on small 3-regular multigraphs
    for vals in ([1, 1, 0, 0], [0, 1, 1, 1], [1, 1, 2, 3]):
        f = signature(vals)
        out = classify(f)
        assert out.tag == "StableTransform"
        h = reverse(f) if out.use_reversal else f
        g_t = cast_real(apply_holographic(h, out.matrix))
        g_t = SymmetricSignature(tuple(v / g_t.values[0] for v in g_t.values))
        delta = strip_halfwidth(out.certificate.eps)
        for g in _three_regular_multigraphs():
            assert g.m <= 10
            coeffs = brute_force_coeffs(g, g_t)
            ok, dist = verify_strip_zero_free(Poly(tuple(complex(x) for x in coeffs)), delta)
            assert ok and dist > 0
