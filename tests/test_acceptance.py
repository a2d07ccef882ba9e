"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from holant.classify import classify
from holant.coeffs import (
    additive_power_sums,
    coeffs_from_power_sums,
    naive_low_coeffs,
    power_sums_from_coeffs,
)
from holant.evaluator import approximate_Z, build_phi
from holant.graphs import (
    Multigraph,
    OpenGadget,
    brute_force_Z,
    brute_force_coeffs,
    complete,
    compose_gadget,
    cycle,
    random_regular,
)
from holant.signatures import SymmetricSignature, reverse, signature
from holant.stability import Poly, strip_halfwidth, verify_strip_zero_free
from holant.transform import apply_holographic, cast_real, rotation_from_w


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def instance_set():
    graphs = [("K4", complete(4))]
    sizes = [(8, 0), (8, 1), (8, 2), (8, 3), (10, 4), (10, 5), (10, 6), (12, 7), (12, 8), (12, 9)]
    for n, seed in sizes:
        graphs.append((f"rr(n={n},seed={seed})", random_regular(n, 3, seed=seed)))
    return graphs


def float_signature(vals):
    return signature([float(v) for v in vals])


def oracle_sweep(vals, graphs, eps):
    f = signature(vals)
    ff = float_signature(vals)
    worst = 0.0
    for label, g in graphs:
        truth = float(brute_force_Z(g, ff))
        res = approximate_Z(g, f, eps)
        rel = abs(res.estimate / truth - 1.0)
        worst = max(worst, rel)
        assert res.converged, f"{label}: evaluator did not converge"
        assert rel <= eps, f"{label}: {res.estimate} vs {truth} ({rel:.3%})"
    return worst


def test_criterion_1_matchings():
    t0 = time.perf_counter()
    graphs = instance_set()
    assert float(brute_force_Z(graphs[0][1], signature([1, 1, 0, 0]))) == 10.0
    worst = oracle_sweep([1, 1, 0, 0], graphs, 0.05)
    took = time.perf_counter() - t0
    report("1 (matchings)", took < 60.0, f"11 instances, worst rel err {worst:.2%}, {took:.1f}s")


def test_criterion_2_edge_covers():
    t0 = time.perf_counter()
    worst = oracle_sweep([0, 1, 1, 1], instance_set(), 0.05)
    took = time.perf_counter() - t0
    report("2 (edge covers)", took < 60.0, f"11 instances, worst rel err {worst:.2%}, {took:.1f}s")


def test_criterion_3_fibonacci():
    t0 = time.perf_counter()
    graphs = [
        (f"rr(n={n},seed={s})", random_regular(n, 3, seed=s))
        for n, s in [(6, 0), (6, 1), (8, 2), (8, 3), (10, 4)]
    ]
    worst = oracle_sweep([1, 1, 2, 3], graphs, 0.05)
    took = time.perf_counter() - t0
    report("3 (Fibonacci gates)", took < 60.0, f"5 instances, worst rel err {worst:.2%}, {took:.1f}s")


def test_criterion_4_engine_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    sigs = [
        float_signature([1, 1, 0, 0]),
        float_signature([1, 1, 1, 0]),  # edge covers, reversal-normalized
        float_signature([1, 1, 2, 3]),
    ]
    worst = 0.0
    for case in range(30):
        n = int(rng.choice([6, 8, 10, 12]))
        g = random_regular(n, 3, seed=int(rng.integers(1000)))
        f = sigs[case % 3]
        k = int(rng.integers(1, 6))
        cn = naive_low_coeffs(g, f, k)
        pn = power_sums_from_coeffs([complex(x) for x in cn], g.m, k)
        pa = additive_power_sums(g, f, k)
        for j in range(1, k + 1):
            a, b = complex(pn[j]), complex(pa[j])
            rel = abs(a - b) / max(1.0, abs(a))
            worst = max(worst, rel)
            assert rel <= 1e-7, f"case {case} j={j}: {a} vs {b}"
    took = time.perf_counter() - t0
    report("4 (engine agreement)", took < 120.0, f"30 cases, worst rel dev {worst:.2e}, {took:.1f}s")


def small_multigraph_zoo():
    dumbbell = Multigraph(2, ((0, 0), (0, 1), (1, 1)))
    parallel = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
    prism = Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)))
    k33 = Multigraph(6, tuple((i, 3 + j) for i in range(3) for j in range(3)))
    return [("dumbbell", dumbbell), ("3-parallel", parallel), ("K4", complete(4)), ("prism", prism), ("K33", k33)]


def test_criterion_5_strip_zero_freeness():
    details = []
    for vals in ([1, 1, 0, 0], [0, 1, 1, 1], [1, 1, 2, 3]):
        f = signature(vals)
        out = classify(f)
        assert out.tag == "StableTransform"
        h = reverse(f) if out.use_reversal else f
        transformed = cast_real(apply_holographic(h, out.matrix))
        gp = SymmetricSignature(tuple(v / transformed.values[0] for v in transformed.values))
        delta = strip_halfwidth(out.certificate.eps)
        dmin = math.inf
        for label, g in small_multigraph_zoo():
            assert g.m <= 10
            cs = brute_force_coeffs(g, gp)
            ok, dist = verify_strip_zero_free(Poly(tuple(complex(x) for x in cs)), delta)
            assert ok, f"{vals} on {label}: root inside the {delta:.4f}-strip"
            dmin = min(dmin, dist)
        assert dmin > 0
        details.append(f"{vals}: delta={delta:.4f} min dist {dmin:.3f}")
    report("5 (strip zero-freeness)", True, "; ".join(details))


def test_criterion_6_phi_contract():
    rng = np.random.default_rng(606)
    for delta in (0.05, 0.1, 0.3):
        phi = build_phi(delta)
        assert abs(phi(0.0)) <= 1e-12
        assert abs(phi(1.0) - 1.0) <= 1e-12
        radii = phi.beta * np.sqrt(rng.uniform(0, 1, 500))
        angles = rng.uniform(0, 2 * np.pi, 500)
        vals = phi(radii * np.exp(1j * angles))
        violations = int(
            np.sum((np.abs(vals.imag) > 2 * delta) | (vals.real < -2 * delta) | (vals.real > 1 + 2 * delta))
        )
        assert violations == 0, f"delta={delta}: {violations} points left the strip"
    report("6 (phi contract)", True, "deltas 0.05/0.1/0.3: endpoints exact, 0 strip violations")


def test_criterion_7_holographic_invariance():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([4, 6, 8]))
        g = random_regular(n, 3, seed=int(rng.integers(10_000)))
        f = signature(rng.uniform(0, 1.5, size=4))
        M = rotation_from_w(float(rng.uniform(-4, 4)), str(rng.choice(["delta0", "delta1"])))
        z0 = float(brute_force_Z(g, f))
        z1 = complex(brute_force_Z(g, apply_holographic(f, M)))
        rel = abs(z1 - z0) / max(1.0, abs(z0))
        worst = max(worst, rel)
        assert rel <= 1e-8
    report("7 (holographic invariance)", True, f"20 triples, worst rel dev {worst:.2e}")


def test_criterion_8_classification_golden_table():
    table = [
        ([1, 0, 1, 0], "ExactPolyTime", {}),
        ([9, 6, 6, 9], "FerroIsing", {"beta": 1.25}),
        ([0, 1, 0, 0], "PMEquivalent", {"lambda": 0.0}),
        ([0, 1, 0, 0.5], "PMEquivalent", {"lambda": 0.5}),
        (
            [0, math.sin(math.pi / 4), math.sin(math.pi / 2), math.sin(3 * math.pi / 4), 0],
            "TypeI",
            {"lambda": 1.0},
        ),
        ([1, 1, 0, 0], "StableTransform", {}),
        ([1, 1, 2, 3], "StableTransform", {}),
    ]
    for vals, tag, params in table:
        out = classify(signature(vals))
        assert out.tag == tag, f"{vals}: {out.tag} != {tag}"
        for key, want in params.items():
            assert abs(out.params[key] - want) <= 1e-8, f"{vals}: {key}"
    report("8 (classification golden table)", True, f"{len(table)} signatures, tags and parameters exact")


def test_criterion_9_gadget_fixtures():
    # two parity circles joined by a direct edge and two disequality squares
    g2 = Multigraph(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))
    circ, sq = signature([0, 1, 0, 1, 0]), signature([0, 1, 0])
    gadget2 = OpenGadget(g2, ((0, 1), (1, 1)), (circ, circ, sq, sq))
    for mu in (0.3, 0.7):
        eff = compose_gadget(gadget2, [1, 0, mu])
        want = (2 * mu**2 + 2 * mu**3) * np.array([1, 0, 1])
        assert np.max(np.abs(eff - want)) <= 1e-10, f"two-circle gadget at mu={mu}"

    one3 = signature([0, 1, 0, 0])
    triangle = OpenGadget(cycle(3), ((0, 1), (1, 1), (2, 1)), (one3,) * 3)
    eff = compose_gadget(triangle, [1, 0, 1])
    assert np.max(np.abs(eff - np.array([0, 1, 0, 1]))) <= 1e-10

    for n1, n2 in ((1, 2), (3, 2)):
        g3 = Multigraph(4, tuple([(0, 1)] * n1 + [(1, 2)] * n2 + [(2, 3)]))
        sig_of = lambda d: signature([0, 1] + [0] * (d - 1))
        path = OpenGadget(
            g3,
            ((0, 1), (3, 1)),
            (sig_of(n1 + 1), sig_of(n1 + n2), sig_of(n2 + 1), sig_of(2)),
        )
        eff = compose_gadget(path, [1, 0, 1])
        assert abs(eff[1]) <= 1e-12
        assert abs(eff[2] / eff[0] - n2 / n1) <= 1e-10, f"weighted equality ({n1},{n2})"
    report("9 (gadget fixtures)", True, "two-circle, triangle, and weighted-equality gadgets match")


def test_criterion_10_newton_round_trip():
    # random stable polynomials: roots drawn in the left half-plane away
    # from the origin (the conversion's conditioning degrades like
    # r_min^-12, so unrestricted coefficient sampling cannot meet 1e-10)
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        roots = -(1.0 + rng.uniform(0, 2, 12)) + 1j * rng.uniform(-2, 2, 12)
        c = np.polynomial.polynomial.polyfromroots(roots)
        c = c / c[0]  # nonzero constant term, normalized
        p = power_sums_from_coeffs(c, 12)
        back = coeffs_from_power_sums(p, 12)
        dev = np.max(np.abs(back - c)) / max(1.0, np.max(np.abs(c)))
        worst = max(worst, dev)
        assert dev <= 1e-10
    report("10 (Newton round trip)", True, f"50 stable degree-12 polynomials, worst dev {worst:.2e}")


def test_criterion_11_cycle_even_subgraphs():
    for n in range(3, 9):
        got = brute_force_coeffs(cycle(n), signature([1, 0, 1]))
        want = [1] + [0] * (n - 1) + [1]
        assert got == want, f"cycle({n})"
        assert all(isinstance(x, __import__("fractions").Fraction) for x in got)
    report("11 (cycle even-subgraph identity)", True, "1 + z^n exact in rational mode, n = 3..8")
