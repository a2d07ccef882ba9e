"""Multigraphs, instance generators, the exact oracle, and gadget composition.

The oracle sums over all {0,1} edge assignments (a chosen self-loop adds
2 to the incident count of its vertex) without enumerating them: it
contracts the Holant instance as a tensor network by a frontier dynamic
program over the edges.  The state is one array with a degree axis (the
number of chosen edges so far) and one count axis per vertex that has
some but not all of its edges placed.  Placing an edge adds a copy of the
state shifted by one on the degree axis and on both endpoint axes (by two
on a self-loop's axis); a vertex whose last edge is placed is contracted
with its signature.  brute_force_Z needs no strata and keeps the degree
axis at length 1; a prefix Z_0..Z_k cuts it at k + 1.

Planning and running are apart.  The planner (_plan) places edges in a
greedy order that keeps the state small and works out, once, every shape
the state takes: per edge, the axes it adds, the grown shape and the
slices that copy and shift the state into it, and per finished vertex
the axis order, row length and output shape of its contraction.  The
executor (_contract) runs that schedule: two slice assignments per edge,
and one matrix product of the state's rows with the vertex's table per
finished vertex, with one table per distinct signature.  The largest
state is thus known before any work starts.  That size, not the edge
count, sets the cost, so it is the only guard on exact work: a plan
above ENTRY_CAP entries is refused with GuardExceeded before any array
is allocated, and any plan below it runs.  A graph plans each (live
lengths, strata, open lengths) once: it keeps its plans, so a second
contraction of it, such as the evaluator's retry with another
transform, runs the first one's plan.

Gadget composition runs the same contraction once, on the inner graph
with every edge subdivided by a vertex carrying the edge signature.  A
vertex with dangling slots carries the Hankel table H[j, t] = f[j + t]
of its full signature (j its inner count, t its set slots): when it is
finished, its t axis stays open in the state, so the one contraction
yields the value of every count vector of the slots.  The plan sizes
those open axes too, so ENTRY_CAP bounds the whole state.

With exact (int/Fraction) signature entries the state holds Python ints
(each table scaled by its common denominator, divided out once at the
end) and the result is exact (Fractions); otherwise it is a float or
complex array.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, AsymmetricGadget, GuardExceeded
from .signatures import SymmetricSignature

# Largest contraction state, in array entries, that a plan may call for.
ENTRY_CAP = 1 << 24


@dataclass(frozen=True)
class Multigraph:
    """Vertex count plus an ordered edge list; u == v is a self-loop.

    ``_plans`` holds the contraction plans made for this graph, keyed by
    (live lengths, strata, open lengths); it takes no part in equality, so
    an equal graph built separately plans its own.
    """

    n: int
    edges: tuple
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ArgumentError("vertex count must be non-negative")
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ArgumentError("edge endpoint out of range")

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a self-loop counts twice at its vertex
        return deg

    def is_regular(self, d: int) -> bool:
        return all(x == d for x in self.degrees())

    @property
    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v:
                return False
            key = (min(u, v), max(u, v))
            if key in seen:
                return False
            seen.add(key)
        return True

    def adjacency_sets(self) -> list:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj


# ----------------------------------------------------------------------
# generators


def cycle(n: int) -> Multigraph:
    if n < 3:
        raise ArgumentError("cycle needs n >= 3")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Multigraph:
    if n < 2:
        raise ArgumentError("complete graph needs n >= 2")
    return Multigraph(n, tuple(itertools.combinations(range(n), 2)))


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Multigraph(10, tuple(outer + inner + spokes))


def random_regular(n: int, d: int, seed: int) -> Multigraph:
    """Simple d-regular graph by the pairing model, deterministic under seed.

    Samples with self-loops or parallel edges are rejected; after 1000
    rejections ArgumentError is raised.
    """
    if n < 1 or d < 1:
        raise ArgumentError("need n >= 1 and d >= 1")
    if n * d % 2 != 0:
        raise ArgumentError("n * d must be even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(1000):
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        g = Multigraph(n, tuple(tuple(sorted(p)) for p in pairs))
        if g.is_simple:
            return g
    raise ArgumentError(f"no simple {d}-regular graph on {n} vertices in 1000 pairing samples")


def disjoint_union(g: Multigraph, h: Multigraph) -> Multigraph:
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    return Multigraph(g.n + h.n, g.edges + shifted)


# ----------------------------------------------------------------------
# the exact oracle


def _vertex_signatures(g: Multigraph, assign) -> list:
    if isinstance(assign, SymmetricSignature):
        sigs = [assign] * g.n
    else:
        sigs = list(assign)
        if len(sigs) != g.n:
            raise ArgumentError("need one signature per vertex")
    deg = g.degrees()
    for v, s in enumerate(sigs):
        if s.arity != deg[v]:
            raise ArgumentError(f"vertex {v} has degree {deg[v]} but signature arity {s.arity}")
    return sigs


def _live_lengths(sigs, opened: list) -> list:
    """Per vertex, one past the largest count whose table row is nonzero.

    A vertex with an open axis of length n has rows f[j : j + n] for its
    counts j = 0..arity - n + 1; otherwise row j is the entry f[j].
    Counts only grow as edges are placed, so a state whose count at v has
    reached this length contributes nothing and is never stored.  A zero
    signature keeps length 1, whose only row contracts to 0.
    """
    out = []
    for s, n in zip(sigs, opened):
        live = [i for i, x in enumerate(s.values) if x != 0]
        out.append(min(live[-1], s.arity - n + 1) + 1 if live else 1)
    return out


def _plan(g: Multigraph, live: list, strata: int, opened: list = None):
    """(order, peak, steps, final): a greedy edge order, the entry count of
    the largest state it builds, the steps that build it, and the axis
    order that puts the result's open axes in vertex order (or None).
    Steps stop being kept once the peak passes ENTRY_CAP, since such a
    plan is refused, not run.

    ``strata`` is the length the degree axis may reach (0: no degree axis).
    ``opened`` is, per vertex, the length of the open axis that its table
    leaves once the vertex is finished (default 1: none).
    Each step places the unplaced edge whose state, after finished vertices
    are contracted, is smallest (then whose grown state is smallest, then
    the lowest edge index), so the order is a deterministic function of
    the graph, the signatures' live lengths, the open lengths and
    ``strata``.  Each vertex's axis length (1 before it joins the
    frontier) and the product of the state's axes past the degree axis
    score a candidate in a few integer operations; the degree axis scales
    every candidate of a step alike, so it enters only the peak.  The peak
    counts the grown state and the state after each finished vertex's
    contraction, in the order the contraction takes them.

    A step is a tuple (before, shape, keep, dst, src, finish): ``before``
    is the state's shape once the endpoints new to the frontier have their
    axes; the grown state of ``shape`` holds the state at ``keep`` and
    adds it again from ``src`` to ``dst``, one count up on the degree axis
    and on each endpoint's axis (two on a self-loop's).  ``finish`` holds
    a tuple (vertex, perm, n, out, move) per vertex the edge finishes: the
    state, its axes taken in ``perm`` order (the vertex's axis last), is
    read as rows of ``n`` entries and multiplied by the first n rows of
    the vertex's table; the product takes shape ``out`` and then, when
    ``move`` is not None, that axis order.
    """
    edges = g.edges
    whole = slice(None)
    degree = g.degrees()
    remaining = list(degree)
    opened = opened or [1] * g.n
    length = [1] * g.n  # count axis length of a frontier vertex
    todo = list(range(g.m))  # ascending, so the first best has the lowest index
    shape = [1]  # degree axis, open axes (latest finished first), frontier axes
    done = []  # vertex of open axis 1 + i
    frontier = []  # vertex of frontier axis 1 + len(done) + i
    order, steps, peak = [], [], 1
    for _ in range(g.m):
        total = math.prod(shape[1:])
        best = None
        for e in todo:
            u, v = edges[e]
            if u == v:
                grown = min(length[u] + 2, live[u])
                rest = total // length[u]
                size = rest * grown
                after = size if remaining[u] > 2 else rest * opened[u]
            else:
                gu, gv = min(length[u] + 1, live[u]), min(length[v] + 1, live[v])
                rest = total // (length[u] * length[v])
                size = rest * gu * gv
                after = rest * (gu if remaining[u] > 1 else opened[u]) * (gv if remaining[v] > 1 else opened[v])
            if best is None or after < best_after or (after == best_after and size < best_size):
                best, best_after, best_size = e, after, size
        order.append(best)
        todo.remove(best)
        u, v = edges[best]
        ends, k = ((u,), 2) if u == v else ((u, v), 1)
        new = [w for w in ends if remaining[w] == degree[w]]
        frontier += new
        shape += [1] * len(new)
        before = tuple(shape)
        keep, dst, src = [whole] * len(shape), [whole] * len(shape), [whole] * len(shape)
        lead = 1 + len(done)
        axes = [0] + [lead + frontier.index(w) for w in ends]
        for i, s, cap in zip(axes, (1 if strata else 0, k, k), [strata or 1] + [live[w] for w in ends]):
            keep[i] = slice(shape[i])
            n = shape[i] = min(shape[i] + s, cap)
            dst[i], src[i] = slice(s, n), slice(max(n - s, 0))
        grown = tuple(shape)
        peak = max(peak, math.prod(grown))
        for w, i in zip(ends, axes[1:]):
            remaining[w] -= k
            length[w] = grown[i]
        finish = []
        for w in ends:
            if remaining[w]:
                continue
            i = 1 + len(done) + frontier.index(w)
            perm = (*range(i), *range(i + 1, len(shape)), i)
            n = shape.pop(i)
            frontier.remove(w)
            move = None
            if opened[w] > 1:
                shape.append(opened[w])
                move = (0, len(shape) - 1, *range(1, len(shape) - 1))
                done.insert(0, w)
            finish.append((w, perm, n, tuple(shape), move))
            if move:
                shape.insert(1, shape.pop())
            peak = max(peak, math.prod(shape))
        if peak <= ENTRY_CAP:
            steps.append((before, grown, tuple(keep), tuple(dst), tuple(src), tuple(finish)))
    final = (0, *(1 + done.index(w) for w in sorted(done))) if done else None
    return order, peak, steps, final


def _contract(steps: list, final: tuple, sigs, opened: list) -> np.ndarray:
    """Run a plan's steps (see _plan).  The state holds one degree axis,
    the open axes of the finished vertices, and one count axis per
    frontier vertex.  A vertex of open length n > 1 carries the Hankel
    table H[j, t] = f[j + t], t < n, and its contraction leaves the t axis
    right after the degree axis; the result has its open axes in vertex
    order.  A finished vertex is contracted as np.tensordot would (a
    matrix product of the state's rows and the table's), so the result is
    the same to the bit.

    One table is built per distinct (signature object, open length).  Exact
    tables are scaled to Python ints by the lcm of their denominators, and
    the result is divided once by the product of the vertices' scales, so
    the contraction never runs in Fraction arithmetic."""
    distinct = {id(s): s for s in sigs}.values()
    exact = all(s.is_exact for s in distinct)
    real = exact or all(s.is_real for s in distinct)
    dtype = object if exact else float if real else complex
    # keyed by object, not by value: signatures that compare equal may
    # still differ in their entries (1.0 and Fraction(1), 0.0 and -0.0)
    keys = list(zip(map(id, sigs), opened))
    built = {}
    for key, s in zip(keys, sigs):
        if key not in built:
            lcm = math.lcm(*(x.denominator for x in s.values)) if exact else 1
            t = np.array([int(x * lcm) if exact else complex(x).real if real else complex(x) for x in s.values], dtype)
            built[key] = t.reshape(-1, 1) if key[1] == 1 else sliding_window_view(t, key[1]), lcm
    per_vertex = [built[key] for key in keys]
    tables = [t for t, _ in per_vertex]
    scale = math.prod(lcm for _, lcm in per_vertex)
    dot = np.dot
    state = np.ones(1, dtype=dtype)
    for before, shape, keep, dst, src, finish in steps:
        state = state.reshape(before)
        grown = np.zeros(shape, dtype=dtype)
        grown[keep] = state
        grown[dst] += state[src]
        state = grown
        for w, perm, n, out, move in finish:
            state = dot(state.transpose(perm).reshape(-1, n), tables[w][:n]).reshape(out)
            if move:
                state = state.transpose(move)
    if final:
        state = state.transpose(final)
    if scale != 1:
        state = np.array([Fraction(x, scale) for x in state.flat], dtype=object).reshape(state.shape)
    return state


def _contraction(g: Multigraph, sigs, strata: int, opened: list = None) -> np.ndarray:
    """Sum over edge assignments by a frontier dynamic program over the edges.

    ``sigs`` holds one signature per vertex, of arity equal to its degree
    plus its open length minus 1; ``opened`` gives each vertex's open
    length (default 1: none).  The result's first axis holds
    Z_0..Z_{strata-1}, or, for strata = 0, the single entry Z; it has one
    more axis per vertex of open length n > 1, in vertex order, whose
    entry t is the sum with t of that vertex's open inputs set.  The plan
    is sized before any array is allocated; a plan whose largest state,
    open axes included, exceeds ENTRY_CAP entries is refused.  The graph
    keeps its plans: a second contraction with the same live lengths,
    strata and open lengths runs the first one's plan.
    """
    opened = opened or [1] * len(sigs)
    live = _live_lengths(sigs, opened)
    key = (tuple(live), strata, tuple(opened))
    if key not in g._plans:
        g._plans[key] = _plan(g, live, strata, opened)
    _, peak, steps, final = g._plans[key]
    if peak > ENTRY_CAP:
        raise GuardExceeded(
            f"the contraction plan needs a state of {peak:,} entries, above the cap of {ENTRY_CAP:,}"
        )
    # float entries past 1.8e308 give inf, which the CLI refuses as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        return _contract(steps, final, sigs, opened)


def brute_force_coeffs(g: Multigraph, assign):
    """Stratified sums Z_0..Z_m: Z_k sums over assignments of weight k.

    Exact (list of Fractions) when all signature entries are rational,
    else a numpy vector, real when every signature is real.  sum_k Z_k
    equals brute_force_Z.
    """
    sigs = _vertex_signatures(g, assign)
    out = _contraction(g, sigs, g.m + 1)
    if out.dtype == object:
        return [Fraction(x) for x in out]
    return out


def brute_force_Z(g: Multigraph, assign):
    """Exact partition function: sum over edge assignments of vertex weights."""
    sigs = _vertex_signatures(g, assign)
    z = _contraction(g, sigs, 0)[0]
    if isinstance(z, np.complexfloating):
        return complex(z)
    if isinstance(z, np.floating):
        return float(z)
    return Fraction(z)


# ----------------------------------------------------------------------
# open gadgets

DANGLING_LIMIT = 10


@dataclass(frozen=True)
class OpenGadget:
    """Inner multigraph with dangling half-edges and per-vertex signatures.

    ``dangling`` is an ordered list of (vertex, count) pairs; each vertex's
    inner degree plus its dangling count must equal its signature's arity.
    """

    graph: Multigraph
    dangling: tuple
    assign: tuple

    def __post_init__(self):
        object.__setattr__(self, "dangling", tuple((int(v), int(c)) for v, c in self.dangling))
        object.__setattr__(self, "assign", tuple(self.assign))
        if len(self.assign) != self.graph.n:
            raise ArgumentError("need one signature per gadget vertex")
        deg = self.graph.degrees()
        extra = [0] * self.graph.n
        for v, c in self.dangling:
            if not (0 <= v < self.graph.n and c >= 0):
                raise ArgumentError(f"dangling entry ({v}, {c}): needs a gadget vertex and a count >= 0")
            extra[v] += c
        for v, s in enumerate(self.assign):
            if deg[v] + extra[v] != s.arity:
                raise ArgumentError(
                    f"vertex {v}: inner degree {deg[v]} + dangling {extra[v]} != arity {s.arity}"
                )

    @property
    def boundary_size(self) -> int:
        return sum(c for _, c in self.dangling)


def compose_gadget(gadget: OpenGadget, edge_signature):
    """Effective symmetric signature of a gadget on its dangling edges.

    Every inner edge is read as an arity-2 constraint [b_0, b_1, b_2] on its
    two half-edges (b_1 for exactly one endpoint set): the edge is
    subdivided by a vertex carrying that signature.  Every signature is
    symmetric, so a boundary assignment matters only through t_v, the
    number of set dangling slots at each vertex v.  One contraction gives
    every count vector t: a vertex with inner edges and c_v slots carries
    the (deg(v) + 1) x (c_v + 1) table f_v[j + t_v] (deg: inner degree)
    and leaves its t_v axis open; a vertex with no inner edge is the
    factor f_v[t_v].  The open axes count toward the plan's ENTRY_CAP.
    Values of equal total weight must agree (exactly for exact input,
    else within 1e-9 of the largest value), or AsymmetricGadget is raised.

    Exact (list of Fractions) when every entry is rational, else a numpy
    vector, real when every entry is real.
    """
    if len(edge_signature) != 3:
        raise ArgumentError("edge signature must be [b0, b1, b2]")
    edge = SymmetricSignature(tuple(edge_signature))
    g = gadget.graph
    dang = gadget.boundary_size
    if dang > DANGLING_LIMIT:
        raise GuardExceeded(f"{dang} dangling edges exceeds the limit of {DANGLING_LIMIT}")
    deg = g.degrees()
    slots = [0] * g.n
    for v, c in gadget.dangling:
        slots[v] += c
    inner = [v for v in range(g.n) if deg[v]]
    pos = {v: i for i, v in enumerate(inner)}
    mid = len(inner)
    # inner edge e = (u, v) becomes the path u - (mid + e) - v
    halves = [(pos[w], mid + e) for e, (u, v) in enumerate(g.edges) for w in (u, v)]
    h = Multigraph(mid + g.m, tuple(halves))
    sigs = (edge,) + gadget.assign
    exact = all(s.is_exact for s in sigs)
    opened = [slots[v] + 1 for v in inner] + [1] * g.m
    state = _contraction(h, [gadget.assign[v] for v in inner] + [edge] * g.m, 0, opened)
    axes = [v for v in inner if slots[v]]

    by_weight = [[] for _ in range(dang + 1)]
    for t in itertools.product(*(range(c + 1) for c in slots)):
        z = state[(0,) + tuple(t[v] for v in axes)]
        for v in range(g.n):
            if not deg[v]:
                z = z * gadget.assign[v].values[t[v]]
        by_weight[sum(t)].append(z if exact else complex(z))

    scale = max(abs(z) for vals in by_weight for z in vals)
    for k, vals in enumerate(by_weight):
        spread = max(abs(z - vals[0]) for z in vals)
        if spread > (0 if exact else 1e-9 * scale):
            raise AsymmetricGadget(f"gadget is not symmetric at boundary weight {k}")
    if exact:
        return [Fraction(vals[0]) for vals in by_weight]
    eff = np.array([vals[0] for vals in by_weight])
    return eff.real if all(s.is_real for s in sigs) else eff
