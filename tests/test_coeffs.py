import random
from fractions import Fraction

import numpy as np
import pytest
from test_graphs import enumerate_coeffs

from holant.coeffs import (
    additive_power_sums,
    coeffs_from_power_sums,
    naive_low_coeffs,
    power_sums_from_coeffs,
)
from holant.errors import ArgumentError, GuardExceeded
from holant.graphs import Multigraph, brute_force_coeffs, complete, cycle, disjoint_union, random_regular
from holant.signatures import SymmetricSignature, normalize_leading, signature


def test_power_sums_of_square():
    p = power_sums_from_coeffs([1, 2, 1], 2)
    assert [complex(x) for x in p] == [2, -2, 2]


def test_power_sums_of_constant():
    p = power_sums_from_coeffs([1, 0, 0, 0], 0)
    assert all(complex(x) == 0 for x in p[1:])
    assert complex(p[0]) == 0


def test_power_sums_requires_constant_term():
    with pytest.raises(ArgumentError):
        power_sums_from_coeffs([0, 1], 1)


def test_coeffs_from_power_sums_examples():
    c = coeffs_from_power_sums([2, -2, 2], 2)
    assert np.allclose(c, [1, 2, 1])
    c = coeffs_from_power_sums([0, 0, 0, 0], 3)
    assert np.allclose(c, [1, 0, 0, 0])


def test_newton_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        c[0] = 1.0
        p = power_sums_from_coeffs(c, 12)
        back = coeffs_from_power_sums(p, 12)
        assert np.max(np.abs(back - c)) <= 1e-10 * max(1.0, np.max(np.abs(c)))


def test_naive_prefix_matches_oracle():
    k4 = complete(4)
    f = signature([1, 1, 0, 0])
    assert naive_low_coeffs(k4, f, 2) == [1, 6, 3]


def test_naive_k0():
    g = random_regular(8, 3, seed=0)
    out = naive_low_coeffs(g, signature([1.0, 0.5, 0.25, 0.125]), 0)
    assert list(out) == [1]


def test_naive_cycle_even_prefix():
    out = naive_low_coeffs(cycle(6), signature([1, 0, 1]), 3)
    assert out == [1, 0, 0, 0]


def random_prefix_instance(rng, kind):
    """A multigraph of at most 8 vertices and 11 edges with self-loops,
    parallel edges and isolated vertices, and a signature with f_0 = 1 whose
    arity may exceed the largest degree."""
    n = rng.randint(1, 8)
    used = rng.sample(range(n), rng.randint(1, n))  # the other vertices stay isolated
    edges = [(rng.choice(used), rng.choice(used)) for _ in range(rng.randint(0, 11))]
    edges += edges[:1] if len(edges) < 11 and rng.random() < 0.5 else []
    g = Multigraph(n, tuple(edges))
    arity = max(g.degrees() + [1]) + rng.randint(0, 2)
    if kind == "rational":
        pick = lambda: rng.choice([0, rng.randint(1, 5), Fraction(rng.randint(1, 9), rng.randint(1, 9))])
        rest = [pick() for _ in range(arity)]
        return g, SymmetricSignature((1, *rest))
    rest = [rng.choice([0.0, rng.uniform(0.1, 2.0)]) for _ in range(arity)]
    return g, SymmetricSignature((1.0, *rest))


@pytest.mark.parametrize("kind", ["rational", "float"])
def test_naive_matches_enumeration_cut_to_k(kind):
    rng = random.Random(f"prefix-{kind}")
    for _ in range(40):
        g, f = random_prefix_instance(rng, kind)
        want = enumerate_coeffs(g, [f] * g.n)
        scale = max(abs(x) for x in want)
        for k in range(g.m + 1):
            got = naive_low_coeffs(g, f, k)
            assert len(got) == k + 1
            if kind == "rational":
                assert got == want[: k + 1] and all(isinstance(x, Fraction) for x in got)
            else:
                assert np.isrealobj(got)
                assert np.max(np.abs(got - np.asarray(want[: k + 1]))) <= 1e-12 * scale


def test_naive_prefix_past_the_old_subset_guard():
    # m = 39, k = 9: 2.9e8 edge subsets of size <= 9
    g = random_regular(26, 3, 1)
    f = signature([1, 1, 0, 0])
    assert naive_low_coeffs(g, f, 9) == brute_force_coeffs(g, f)[:10]


def test_naive_short_prefix_past_the_edge_limit():
    # 45 edges, above the oracle's old hard limit of 40.  A cubic graph has
    # 45 one-matchings and C(45, 2) - 30 * 3 two-matchings.
    g = random_regular(30, 3, 1)
    assert naive_low_coeffs(g, signature([1, 1, 0, 0]), 2) == [1, 45, 900]


def test_naive_full_prefix_extends_the_short_one():
    # the full prefix and the one a stratum shorter run on one guard, the
    # contraction plan, and agree exactly
    g = random_regular(30, 3, 1)
    f = signature([1, 1, 0, 0])
    assert naive_low_coeffs(g, f, 45)[:45] == naive_low_coeffs(g, f, 44)


def test_naive_prefix_of_a_normalized_signature():
    # normalize_leading turns every entry into a Fraction; the prefix is
    # the integer signature's, exactly
    g = random_regular(30, 3, 1)
    f = signature([1, 1, 0, 0])
    norm, _, _ = normalize_leading(f)
    assert all(isinstance(x, Fraction) for x in norm.values)
    got = naive_low_coeffs(g, norm, 44)
    assert got == naive_low_coeffs(g, f, 44) and all(isinstance(x, Fraction) for x in got)
    # Z_1 sums f_1^2 over the 45 edges
    half = SymmetricSignature((1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
    assert naive_low_coeffs(g, half, 1) == [1, Fraction(45, 4)]


def test_naive_requires_normalized_head():
    with pytest.raises(ArgumentError):
        naive_low_coeffs(cycle(3), signature([2, 1, 1]), 2)


def test_additive_guard():
    with pytest.raises(GuardExceeded):
        additive_power_sums(cycle(3), signature([1, 1, 1]), 9)


def test_engines_agree_through_newton():
    # a fuller sweep runs in the acceptance suite
    graphs = [random_regular(n, 3, seed=s) for n, s in [(6, 0), (8, 1)]]
    sigs = [signature([1, 1, 0, 0]), signature([1.0, 1.0, 1.0, 0.0]), signature([1, 1, 2, 3])]
    for g in graphs:
        for f in sigs:
            for k in (1, 4):
                cn = naive_low_coeffs(g, f, k)
                pn = power_sums_from_coeffs([complex(x) for x in cn], g.m, k)
                pa = additive_power_sums(g, f, k)
                for j in range(1, k + 1):
                    a, b = complex(pn[j]), complex(pa[j])
                    assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def test_additivity_over_disjoint_unions():
    tri = cycle(3)
    double = disjoint_union(tri, tri)
    f = signature([1, 1, 1])
    p1 = additive_power_sums(tri, f, 3)
    p2 = additive_power_sums(double, f, 3)
    for j in range(1, 4):
        assert abs(complex(p2[j]) - 2 * complex(p1[j])) <= 1e-9


def test_first_power_sum_is_minus_Z1():
    g = random_regular(6, 3, seed=4)
    f = signature([1, 0.5, 0.25, 0.125])
    p = additive_power_sums(g, f, 1)
    c = naive_low_coeffs(g, f, 1)
    assert abs(complex(p[1]) + c[1]) <= 1e-9


def test_additive_rejects_multigraphs():
    from holant.graphs import Multigraph

    g = Multigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ArgumentError):
        additive_power_sums(g, signature([1, 1, 1]), 2)
