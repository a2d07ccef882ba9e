import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from holant.errors import ArgumentError, AsymmetricGadget, GuardExceeded
from holant.graphs import (
    Multigraph,
    OpenGadget,
    brute_force_Z,
    brute_force_coeffs,
    complete,
    compose_gadget,
    cycle,
    disjoint_union,
    petersen,
    random_regular,
)
from holant.signatures import SymmetricSignature, reverse, signature


def test_generators():
    assert cycle(3).m == 3 and cycle(3).is_regular(2)
    k4 = complete(4)
    assert k4.m == 6 and k4.is_regular(3)
    p = petersen()
    assert p.n == 10 and p.m == 15 and p.is_regular(3) and p.is_simple


def test_random_regular_deterministic():
    g1 = random_regular(10, 3, seed=42)
    g2 = random_regular(10, 3, seed=42)
    assert g1.edges == g2.edges
    assert g1.is_regular(3)
    g3 = random_regular(10, 3, seed=43)
    assert g3.edges != g1.edges


def test_random_regular_parity_guard():
    with pytest.raises(ArgumentError):
        random_regular(5, 3, seed=0)


def test_random_regular_refuses_after_the_rejection_budget():
    # no simple 3-regular graph on two vertices exists; after the rejection
    # budget the generator raises instead of returning a multigraph
    with pytest.raises(ArgumentError, match="no simple 3-regular graph"):
        random_regular(2, 3, seed=0)


def test_edge_order_does_not_change_exact_coeffs():
    g = random_regular(12, 3, seed=6)
    f = signature([1, 2, Fraction(1, 3), 5])
    want = brute_force_coeffs(g, f)
    rng = random.Random(6)
    for _ in range(3):
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(edges)
        assert brute_force_coeffs(Multigraph(g.n, tuple(edges)), f) == want


def test_matchings_of_k4():
    assert brute_force_Z(complete(4), signature([0, 1, 0, 0])) == 3
    assert brute_force_Z(complete(4), signature([1, 1, 0, 0])) == 10


def test_even_subgraphs_of_cycles():
    for n in range(3, 7):
        assert brute_force_Z(cycle(n), signature([1, 0, 1])) == 2


def test_coeffs_k4_matchings():
    got = brute_force_coeffs(complete(4), signature([1, 1, 0, 0]))
    assert got == [1, 6, 3, 0, 0, 0, 0]


def test_coeffs_cycle_even():
    got = brute_force_coeffs(cycle(4), signature([1, 0, 1]))
    assert got == [1, 0, 0, 0, 1]


def test_coeffs_trivial_head():
    g = random_regular(6, 3, seed=2)
    got = brute_force_coeffs(g, signature([1, 0, 0, 0]))
    assert got[0] == 1 and all(x == 0 for x in got[1:])


def test_coeffs_sum_matches_Z_exactly():
    g = random_regular(8, 3, seed=5)
    f = signature([1, 2, 0, 3])
    assert sum(brute_force_coeffs(g, f)) == brute_force_Z(g, f)


def test_rational_mode_is_exact():
    g = cycle(5)
    f = signature([Fraction(1, 3), Fraction(1, 7), Fraction(2, 7)])
    z = brute_force_Z(g, f)
    assert isinstance(z, Fraction)


def test_reversal_symmetry_of_Z():
    rng = np.random.default_rng(8)
    for seed in range(5):
        g = random_regular(6, 3, seed=seed)
        f = signature(rng.uniform(0, 1, size=4))
        assert abs(brute_force_Z(g, f) - brute_force_Z(g, reverse(f))) < 1e-9


def test_self_loop_counts_twice():
    # one vertex, one self-loop: assignments contribute f_0 and f_2
    g = Multigraph(1, ((0, 0),))
    f = signature([5, 7, 11])
    assert brute_force_Z(g, f) == 16
    assert brute_force_coeffs(g, f) == [5, 11]


def test_per_vertex_assignment():
    # a triangle with one distinguished vertex
    g = cycle(3)
    sigs = [signature([1, 1, 1]), signature([1, 0, 1]), signature([1, 0, 1])]
    direct = 0
    for bits in range(8):
        term = 1
        counts = [0, 0, 0]
        for e, (u, v) in enumerate(g.edges):
            if (bits >> e) & 1:
                counts[u] += 1
                counts[v] += 1
        for v in range(3):
            term *= sigs[v].values[counts[v]]
        direct += term
    assert brute_force_Z(g, sigs) == direct


def test_degree_mismatch_raises():
    with pytest.raises(ArgumentError):
        brute_force_Z(cycle(4), signature([1, 1, 0, 0]))


# ----------------------------------------------------------------------
# the contraction against the definition


def enumerate_coeffs(g, sigs):
    """Z_0..Z_m by the definition: every edge subset, product of vertex entries."""
    out = [0] * (g.m + 1)
    for chosen in itertools.product((0, 1), repeat=g.m):
        count = [0] * g.n
        for x, (u, v) in zip(chosen, g.edges):
            count[u] += x
            count[v] += x
        term = 1
        for v, s in enumerate(sigs):
            term *= s.values[count[v]]
        out[sum(chosen)] += term
    return out


def random_multigraph(rng):
    """At most 12 edges with self-loops, parallel edges, no isolated vertex."""
    n = rng.randint(1, 6)
    edges = [(v, rng.randrange(n)) for v in range(n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12 - n))]
    edges += [edges[0]] if len(edges) < 12 else []
    return Multigraph(n, tuple(edges))


def random_entry(rng, kind):
    if rng.random() < 0.25:
        return 0
    if kind == "rational":
        return rng.choice([rng.randint(1, 5), Fraction(rng.randint(1, 9), rng.randint(1, 9))])
    if kind == "float":
        return rng.uniform(0.1, 2.0)
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


@pytest.mark.parametrize("kind", ["rational", "float", "complex"])
def test_contraction_matches_enumeration(kind):
    rng = random.Random(f"engine-{kind}")
    for _ in range(25):
        g = random_multigraph(rng)
        sigs = [SymmetricSignature(tuple(random_entry(rng, kind) for _ in range(d + 1))) for d in g.degrees()]
        want = enumerate_coeffs(g, sigs)
        got = brute_force_coeffs(g, sigs)
        z = brute_force_Z(g, sigs)
        if kind == "rational":
            assert got == want and all(isinstance(x, Fraction) for x in got)
            assert z == sum(want) and isinstance(z, Fraction)
            continue
        want = np.asarray(want)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert abs(z - want.sum()) <= 1e-12 * np.sum(np.abs(want))
        assert np.isrealobj(got) == (kind == "float") and isinstance(z, float if kind == "float" else complex)


def reference_plan(g: Multigraph, live: list, strata: int):
    """The contraction planner as it once ran: every candidate edge scored
    on a copy of the frontier's {vertex: axis length} dict.  graphs._plan
    must give the same (order, peak)."""
    remaining = g.degrees()
    lengths = {}  # frontier vertex -> axis length
    todo = list(range(g.m))
    order = []
    peak = 1
    for step in range(g.m):
        depth = min(step + 2, strata) if strata else 1
        best = None
        for e in todo:
            u, v = g.edges[e]
            grown = dict(lengths)
            left = {}
            for w in (u, v):
                grown[w] = min(grown.get(w, 1) + 1, live[w])
                left[w] = left.get(w, remaining[w]) - 1
            size = depth * math.prod(grown.values())
            after = depth * math.prod(n for w, n in grown.items() if left.get(w, 1))
            key = (after, size, e)
            if best is None or key < best[0]:
                best = (key, grown, left)
        (_, size, e), grown, left = best
        peak = max(peak, size)
        for w, k in left.items():
            remaining[w] = k
            if not k:
                del grown[w]
        lengths = grown
        order.append(e)
        todo.remove(e)
    return order, peak


def test_plan_matches_the_reference_planner():
    from holant.graphs import _plan

    rng = random.Random("planner")
    graphs = [random_multigraph(rng) for _ in range(40)]
    graphs += [random_regular(n, d, seed=s) for n, d, s in ((12, 3, 1), (14, 3, 2), (10, 4, 3), (9, 4, 0))]
    for g in graphs:
        live = [rng.randint(1, d + 1) for d in g.degrees()]
        for strata in (0, 7, g.m + 1):
            assert _plan(g, live, strata) == reference_plan(g, live, strata)


def test_contraction_plan_is_refused_before_any_work(monkeypatch):
    import holant.graphs as graphs

    def never(*args):
        raise AssertionError("the contraction ran")

    monkeypatch.setattr(graphs, "ENTRY_CAP", 8)
    monkeypatch.setattr(graphs, "_contract", never)
    with pytest.raises(GuardExceeded, match="entries"):
        brute_force_coeffs(complete(4), signature([1, 2, 3, 4]))


def test_disjoint_union_multiplies_Z():
    a = cycle(3)
    b = cycle(4)
    f = signature([1, 1, 1])
    za, zb = brute_force_Z(a, f), brute_force_Z(b, f)
    assert brute_force_Z(disjoint_union(a, b), f) == za * zb


# ----------------------------------------------------------------------
# gadget fixtures


def two_circle_gadget():
    """Two arity-4 parity vertices joined by a direct edge and two paths
    through degree-2 disequality vertices, one dangling edge on each side."""
    g = Multigraph(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))
    circ = signature([0, 1, 0, 1, 0])
    sq = signature([0, 1, 0])
    return OpenGadget(g, ((0, 1), (1, 1)), (circ, circ, sq, sq))


@pytest.mark.parametrize("mu", [0.3, 0.7])
def test_gadget_two_circles(mu):
    eff = compose_gadget(two_circle_gadget(), [1, 0, mu])
    want = (2 * mu**2 + 2 * mu**3) * np.array([1, 0, 1])
    assert np.max(np.abs(eff - want)) <= 1e-10


def test_gadget_triangle_of_exact_ones():
    g = cycle(3)
    f = signature([0, 1, 0, 0])
    gadget = OpenGadget(g, ((0, 1), (1, 1), (2, 1)), (f, f, f))
    eff = compose_gadget(gadget, [1, 0, 1])
    assert np.max(np.abs(eff - np.array([0, 1, 0, 1]))) <= 1e-12


@pytest.mark.parametrize("n1,n2", [(1, 2), (3, 2)])
def test_gadget_weighted_equality_path(n1, n2):
    edges = [(0, 1)] * n1 + [(1, 2)] * n2 + [(2, 3)]
    g = Multigraph(4, tuple(edges))
    exact_one = lambda d: signature([0, 1] + [0] * (d - 1))
    gadget = OpenGadget(
        g,
        ((0, 1), (3, 1)),
        (exact_one(n1 + 1), exact_one(n1 + n2), exact_one(n2 + 1), exact_one(2)),
    )
    eff = compose_gadget(gadget, [1, 0, 1])
    # proportional to [1, 0, n2/n1]
    assert abs(eff[1]) <= 1e-12
    assert abs(eff[2] / eff[0] - n2 / n1) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gadget_chain_of_parity_vertices(d):
    # chaining d copies of [0,1,0,1] gives the alternating signature of
    # arity d+2 whose nonzero entries sit at weights of d's parity
    f = signature([0, 1, 0, 1])
    if d == 1:
        g = Multigraph(1, ())
        dangling = ((0, 3),)
    else:
        g = Multigraph(d, tuple((i, i + 1) for i in range(d - 1)))
        dangling = tuple([(0, 2)] + [(i, 1) for i in range(1, d - 1)] + [(d - 1, 2)])
    gadget = OpenGadget(g, dangling, (f,) * d)
    eff = compose_gadget(gadget, [1, 0, 1])
    want = np.array([1.0 if k % 2 == d % 2 else 0.0 for k in range(d + 3)])
    assert np.max(np.abs(eff - want)) <= 1e-12


def test_gadget_symmetry_check():
    # an asymmetric assignment must be rejected
    g = Multigraph(2, ((0, 1),))
    a = signature([1, 2, 0])
    b = signature([1, 0, 5])
    gadget = OpenGadget(g, ((0, 1), (1, 1)), (a, b))
    with pytest.raises(AsymmetricGadget):
        compose_gadget(gadget, [1, 0, 1])


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_gadget_symmetry_check_is_scale_invariant(scale):
    # the tolerance is relative to the largest value: a tiny asymmetric
    # gadget is refused, as at scale 1, and a tiny symmetric one composes
    g = Multigraph(2, ((0, 1),))
    f = signature([scale, 2 * scale, 3 * scale])
    asymmetric = OpenGadget(g, ((0, 1), (1, 1)), (f, signature([scale, 5 * scale, 7 * scale])))
    with pytest.raises(AsymmetricGadget):
        compose_gadget(asymmetric, [1, 0, 1])
    got = compose_gadget(OpenGadget(g, ((0, 1), (1, 1)), (f, f)), [1, 0, 1])
    want = compose_gadget(OpenGadget(g, ((0, 1), (1, 1)), (signature([1, 2, 3]),) * 2), [1, 0, 1])
    assert np.max(np.abs(got / scale**2 - np.asarray(want, dtype=float))) <= 1e-12 * max(abs(x) for x in want)


def test_gadget_arity_bookkeeping():
    with pytest.raises(ArgumentError):
        OpenGadget(cycle(3), ((0, 2),), (signature([0, 1, 0, 0]),) * 3)


# ----------------------------------------------------------------------
# gadget composition against the definition


def enumerate_gadget(gadget, b):
    """Gadget value on every boundary assignment, by the definition.

    Sums over all 2^(2 * inner edges) half-edge assignments: edge e weighs
    b[x_u + x_v], and each vertex v weighs f_v at its set inner half-edges
    plus its set dangling slots.  Returns the 2^dangling values, bit i of
    the index setting boundary slot i, in the input's arithmetic.
    """
    g = gadget.graph
    dang = gadget.boundary_size
    slot_vertex = [v for v, c in gadget.dangling for _ in range(c)]
    full = [0] * (1 << dang)
    for inner in range(1 << (2 * g.m)):
        counts = [0] * g.n
        w = 1
        for e, (u, v) in enumerate(g.edges):
            xu = (inner >> (2 * e)) & 1
            xv = (inner >> (2 * e + 1)) & 1
            w *= b[xu + xv]
            counts[u] += xu
            counts[v] += xv
        if w == 0:
            continue
        for tau in range(1 << dang):
            cts = counts.copy()
            for i, v in enumerate(slot_vertex):
                cts[v] += (tau >> i) & 1
            term = w
            for v, s in enumerate(gadget.assign):
                term *= s.values[cts[v]]
            full[tau] += term
    return full


def agreed_values(by_weight, exact):
    """The value at each boundary weight, or None when two values of one
    weight disagree (exactly, or beyond 1e-9 of the largest value)."""
    scale = max(abs(x) for vals in by_weight for x in vals)
    if any(max(abs(x - vals[0]) for x in vals) > (0 if exact else 1e-9 * scale) for vals in by_weight):
        return None
    return [vals[0] for vals in by_weight]


def collapse_by_weight(full, exact):
    """agreed_values of the 2^dangling values, bit i of the index setting
    boundary slot i."""
    by_weight = [[x for tau, x in enumerate(full) if bin(tau).count("1") == k] for k in range(len(full).bit_length())]
    return agreed_values(by_weight, exact)


def reference_compose_gadget(gadget, edge_signature):
    """Gadget composition as it once ran: one contraction per count vector
    t of the dangling slots, in which a vertex v with inner edges carries
    f_v[t_v : t_v + deg(v) + 1].  graphs.compose_gadget must give the same
    values and refuse the same gadgets."""
    edge = SymmetricSignature(tuple(edge_signature))
    g = gadget.graph
    deg = g.degrees()
    slots = [0] * g.n
    for v, c in gadget.dangling:
        slots[v] += c
    inner = [v for v in range(g.n) if deg[v]]
    pos = {v: i for i, v in enumerate(inner)}
    h = Multigraph(len(inner) + g.m, tuple((pos[w], len(inner) + e) for e, (u, v) in enumerate(g.edges) for w in (u, v)))
    by_weight = [[] for _ in range(gadget.boundary_size + 1)]
    for t in itertools.product(*(range(c + 1) for c in slots)):
        cut = [SymmetricSignature(gadget.assign[v].values[t[v] : t[v] + deg[v] + 1]) for v in inner]
        z = brute_force_Z(h, cut + [edge] * g.m)
        for v in range(g.n):
            if not deg[v]:
                z = z * gadget.assign[v].values[t[v]]
        by_weight[sum(t)].append(z)
    sigs = (edge,) + gadget.assign
    exact = all(s.is_exact for s in sigs)
    eff = agreed_values(by_weight, exact)
    if eff is None:
        raise AsymmetricGadget("the reference found the gadget asymmetric")
    if exact:
        return [Fraction(x) for x in eff]
    eff = np.array([complex(x) for x in eff])
    return eff.real if all(s.is_real for s in sigs) else eff


def assert_composes_as_the_reference(gadget, b):
    """compose_gadget against reference_compose_gadget: the same Fractions,
    float or complex values within 1e-12 of the largest, or
    AsymmetricGadget from both."""
    try:
        want = reference_compose_gadget(gadget, b)
    except AsymmetricGadget:
        with pytest.raises(AsymmetricGadget):
            compose_gadget(gadget, b)
        return
    got = compose_gadget(gadget, b)
    if isinstance(want, list):
        assert got == want and all(isinstance(x, Fraction) for x in got)
        return
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    assert np.isrealobj(got) == np.isrealobj(want)


def random_gadget(rng, kind, shape):
    """A small random gadget; every shape but "scattered" is symmetric.

    - "one": a random multigraph with every dangling slot at vertex 0,
      listed as one or two (vertex, count) pairs;
    - "loose": a closed random multigraph plus a vertex with no inner edge
      that holds every slot;
    - "arms": a hub joined to 2-3 identical arms by parallel edges, an arm
      end with a self-loop or not, and one slot at each arm end;
    - "scattered": a random multigraph with slots at random vertices.
    """
    entry = lambda: random_entry(rng, kind)
    if shape == "arms":
        r, par, loop = rng.randint(2, 3), rng.randint(1, 2), rng.random() < 0.5
        if r * (par + loop) > 5:
            par, loop = 1, False
        edges = [(0, a) for a in range(1, r + 1) for _ in range(par)] + [(a, a) for a in range(1, r + 1) if loop]
        g = Multigraph(r + 1, tuple(edges))
        deg = g.degrees()
        arm = SymmetricSignature(tuple(entry() for _ in range(deg[1] + 2)))
        hub = SymmetricSignature(tuple(entry() for _ in range(deg[0] + 1)))
        return OpenGadget(g, tuple((a, 1) for a in range(1, r + 1)), (hub,) + (arm,) * r)
    n = rng.randint(1, 3)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 4))]
    edges += [(u, v) for u, v in edges[:1]] if rng.random() < 0.5 else []  # a parallel edge
    g = Multigraph(n, tuple(edges))
    dang = rng.randint(1, 3)
    if shape == "one":
        dangling = ((0, dang),) if dang == 1 or rng.random() < 0.5 else ((0, 1), (0, dang - 1))
    elif shape == "loose":
        g = Multigraph(n + 1, g.edges)
        dangling = ((n, dang),)
    else:
        slots = [rng.randrange(g.n) for _ in range(dang)]
        dangling = tuple((v, slots.count(v)) for v in sorted(set(slots)))
    deg = g.degrees()
    for v, c in dangling:
        deg[v] += c
    sigs = tuple(SymmetricSignature(tuple(entry() for _ in range(d + 1))) if d else None for d in deg)
    if None in sigs:  # a vertex with neither an inner edge nor a slot
        return random_gadget(rng, kind, shape)
    return OpenGadget(g, dangling, sigs)


@pytest.mark.parametrize("kind", ["rational", "float", "complex"])
@pytest.mark.parametrize("shape", ["one", "loose", "arms", "scattered"])
def test_gadget_matches_enumeration(kind, shape):
    rng = random.Random(f"gadget-{kind}-{shape}")
    for _ in range(8):
        gadget = random_gadget(rng, kind, shape)
        b = [random_entry(rng, kind) for _ in range(3)]
        exact = kind == "rational"
        want = collapse_by_weight(enumerate_gadget(gadget, b), exact)
        if shape != "scattered":
            assert want is not None
        if want is None:
            with pytest.raises(AsymmetricGadget):
                compose_gadget(gadget, b)
            continue
        got = compose_gadget(gadget, b)
        if exact:
            assert got == want and all(isinstance(x, Fraction) for x in got)
            continue
        scale = max([1e-300] + [abs(x) for x in want])
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-12 * scale
        assert np.isrealobj(got) == (kind == "float")


@pytest.mark.parametrize("kind", ["rational", "float", "complex"])
@pytest.mark.parametrize("shape", ["one", "loose", "arms", "scattered"])
def test_gadget_matches_the_per_count_vector_reference(kind, shape):
    rng = random.Random(f"gadget-reference-{kind}-{shape}")
    for _ in range(8):
        gadget = random_gadget(rng, kind, shape)
        assert_composes_as_the_reference(gadget, [random_entry(rng, kind) for _ in range(3)])


def petersen_minus_a_vertex(f):
    """Petersen without vertex 0: 12 inner edges, one dangling edge at each
    of 0's three neighbours, f at every vertex."""
    pet = petersen()
    keep = {v: v - 1 for v in range(1, pet.n)}
    inner = tuple((keep[u], keep[v]) for u, v in pet.edges if 0 not in (u, v))
    nbrs = sorted(keep[u if v == 0 else v] for u, v in pet.edges if 0 in (u, v))
    return OpenGadget(Multigraph(9, inner), tuple((v, 1) for v in nbrs), (f,) * 9)


def test_gadget_petersen_minus_a_vertex_closes_to_petersen():
    # 12 inner edges and 3 dangling edges: 2^27 half-edge assignments, which
    # an enumerating composition cannot afford
    pet = petersen()
    f = signature([1, 2, 1, 3])
    eff = compose_gadget(petersen_minus_a_vertex(f), [1, 0, 1])
    assert all(isinstance(x, Fraction) for x in eff)
    z = sum(math.comb(3, w) * eff[w] * f.values[w] for w in range(4))
    assert z == brute_force_Z(pet, f) == 4677889


def test_exact_contraction_with_denominators(monkeypatch):
    # each table is scaled to ints by its common denominator and the
    # result divided once: the same Fractions as the definition
    contracted = []
    tensordot = np.tensordot

    def record(a, b, axes):
        contracted.extend(b)
        return tensordot(a, b, axes)

    monkeypatch.setattr(np, "tensordot", record)
    g = random_regular(6, 3, seed=2)
    f = signature([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), 1])
    want = enumerate_coeffs(g, [f] * g.n)
    assert brute_force_coeffs(g, f) == want
    assert brute_force_Z(g, f) == sum(want)
    rng = random.Random("denominators")
    sigs = [SymmetricSignature(tuple(Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(4)))
            for _ in range(g.n)]
    want = enumerate_coeffs(g, sigs)
    got = brute_force_coeffs(g, sigs)
    assert got == want and all(isinstance(x, Fraction) for x in got)
    assert brute_force_Z(g, sigs) == sum(want)
    assert contracted and all(type(x) is int for x in contracted)


# ----------------------------------------------------------------------
# the gadget's one contraction and its cap


def test_a_gadget_takes_one_contraction(monkeypatch):
    import holant.graphs as graphs

    calls = []
    contraction = graphs._contraction

    def record(*args):
        calls.append(args)
        return contraction(*args)

    monkeypatch.setattr(graphs, "_contraction", record)
    compose_gadget(petersen_minus_a_vertex(signature([1, 2, 1, 3])), [1, 0, 1])
    assert len(calls) == 1


@pytest.mark.parametrize("shape", ["one", "loose", "arms", "scattered"])
def test_the_planned_peak_is_the_largest_state_built(monkeypatch, shape):
    # every array the contraction allocates is a grown state (np.zeros) or
    # the state after a finished vertex (np.tensordot); the plan's peak,
    # open axes included, is the largest of them
    import holant.graphs as graphs

    planned, built = [], []
    plan = graphs._plan

    def record_plan(*args):
        out = plan(*args)
        planned.append(out[1])
        return out

    def record(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            built.append(out.size)
            return out

        return call

    monkeypatch.setattr(graphs, "_plan", record_plan)
    monkeypatch.setattr(np, "zeros", record(np.zeros))
    monkeypatch.setattr(np, "tensordot", record(np.tensordot))
    rng = random.Random(f"peak-{shape}")
    gadgets = [random_gadget(rng, "rational", shape) for _ in range(8)]
    if shape == "one":
        # inner degree 1 and three slots: the open axis (4) outgrows the
        # count axis (2), so the largest state is the one right after the
        # vertex is finished, before its edge's middle vertex is
        gadgets.append(OpenGadget(Multigraph(2, ((0, 1),)), ((0, 3),), (signature([1, 2, 3, 4, 5]), signature([1, 1]))))
    for gadget in gadgets:
        planned.clear()
        built.clear()
        try:
            compose_gadget(gadget, [random_entry(rng, "rational") for _ in range(3)])
        except AsymmetricGadget:
            pass
        assert planned == [max(built, default=1)]


def test_a_gadget_plan_is_refused_before_any_work(monkeypatch):
    # one count vector's contraction peaks at 128 entries and the one
    # contraction, with its three open axes of length 2, at 512: the cap
    # bounds the whole state, so a cap the per-count-vector plans meet
    # refuses the gadget before any array is allocated
    import holant.graphs as graphs

    gadget = petersen_minus_a_vertex(signature([1, 2, 1, 3]))
    monkeypatch.setattr(graphs, "ENTRY_CAP", 128)
    reference_compose_gadget(gadget, [1, 0, 1])  # its eight plans fit under the cap

    def never(*args):
        raise AssertionError("the contraction ran")

    monkeypatch.setattr(graphs, "_contract", never)
    with pytest.raises(GuardExceeded, match="512 entries"):
        compose_gadget(gadget, [1, 0, 1])
