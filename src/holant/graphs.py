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
axis at length 1; a prefix Z_0..Z_k cuts it at k + 1.  Edges are placed
in a greedy order that keeps the state small, and the largest state of
that order is sized before any work starts.  That size, not the edge
count, sets the cost, so it is the only guard on exact work: a plan
above ENTRY_CAP entries is refused with GuardExceeded before any array
is allocated, and any plan below it runs.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, AsymmetricGadget, GuardExceeded
from .signatures import SymmetricSignature

# Largest contraction state, in array entries, that a plan may call for.
ENTRY_CAP = 1 << 24


@dataclass(frozen=True)
class Multigraph:
    """Vertex count plus an ordered edge list; u == v is a self-loop."""

    n: int
    edges: tuple

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
    """Greedy edge order and the entry count of the largest state it builds.

    ``strata`` is the length the degree axis may reach (0: no degree axis).
    ``opened`` is, per vertex, the length of the open axis that its table
    leaves once the vertex is finished (default 1: none).
    Each step places the unplaced edge whose state, after finished vertices
    are contracted, is smallest (then whose grown state is smallest, then
    the lowest edge index), so the order is a deterministic function of
    the graph, the signatures' live lengths, the open lengths and
    ``strata``.  Each vertex's axis length (1 before it joins the
    frontier, its open length once finished) and their running product
    score a candidate in a few integer operations; the degree axis scales
    every candidate of a step alike, so it enters only the peak.  The peak
    counts the grown state and the state after each finished vertex's
    contraction, in the order the contraction takes them.
    """
    edges = g.edges
    remaining = g.degrees()
    opened = opened or [1] * g.n
    length = [1] * g.n
    total = 1  # product of the frontier's axis lengths
    todo = list(range(g.m))  # ascending, so the first best has the lowest index
    order = []
    peak = 1
    for step in range(g.m):
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
        depth = min(step + 2, strata) if strata else 1
        peak = max(peak, depth * best_size)
        u, v = edges[best]
        state = best_size
        for w in dict.fromkeys((u, v)):
            total //= length[w]
            remaining[w] -= 2 if u == v else 1
            length[w] = min(length[w] + (2 if u == v else 1), live[w])
            if not remaining[w]:
                state = state // length[w] * opened[w]
                peak = max(peak, depth * state)
                length[w] = opened[w]
            total *= length[w]
        order.append(best)
        todo.remove(best)
    return order, peak


def _contract(g: Multigraph, sigs, order: list, live: list, strata: int, opened: list) -> np.ndarray:
    """Run a plan: the state holds one degree axis, the open axes of the
    finished vertices, and one count axis per frontier vertex, and every
    axis grows only as edges are placed.  The degree axis stops at
    ``strata`` entries; 0 keeps it at length 1, so the strata are summed.
    A vertex of open length n > 1 carries the Hankel table H[j, t] =
    f[j + t], t < n, and its contraction leaves the t axis right after the
    degree axis; the result has its open axes in vertex order.

    Exact tables are scaled to Python ints by the lcm of their
    denominators, and the result is divided once by the product of those
    scales, so the contraction never runs in Fraction arithmetic."""
    scale = 1
    if all(s.is_exact for s in sigs):
        dtype = object
        tables = []
        for s in sigs:
            lcm = math.lcm(*(x.denominator for x in s.values))
            tables.append(np.array([int(x * lcm) for x in s.values], dtype=object))
            scale *= lcm
    else:
        real = all(s.is_real for s in sigs)
        dtype = float if real else complex
        tables = [np.array([complex(x).real if real else complex(x) for x in s.values]) for s in sigs]
    tables = [t if n == 1 else sliding_window_view(t, n) for t, n in zip(tables, opened)]
    remaining = g.degrees()
    frontier = []  # vertex of state axis 1 + len(done) + i
    done = []  # vertex of open axis len(done) - i
    state = np.ones(1, dtype=dtype)
    for e in order:
        u, v = g.edges[e]
        for w in (u, v):
            if w not in frontier:
                frontier.append(w)
                state = state[..., None]
        lead = 1 + len(done)
        shift = [1 if strata else 0] + [0] * (len(done) + len(frontier))
        shift[lead + frontier.index(u)] += 1
        shift[lead + frontier.index(v)] += 1
        caps = [strata or 1] + list(state.shape[1:lead]) + [live[w] for w in frontier]
        shape = tuple(min(n + s, c) for n, s, c in zip(state.shape, shift, caps))
        grown = np.zeros(shape, dtype=dtype)
        grown[tuple(slice(0, n) for n in state.shape)] = state
        dst = tuple(slice(s, n) for n, s in zip(shape, shift))
        src = tuple(slice(0, max(n - s, 0)) for n, s in zip(shape, shift))
        grown[dst] += state[src]
        state = grown
        remaining[u] -= 1
        remaining[v] -= 1
        for w in dict.fromkeys((u, v)):
            if not remaining[w]:
                i = 1 + len(done) + frontier.index(w)
                state = np.tensordot(state, tables[w][: state.shape[i]], axes=([i], [0]))
                frontier.remove(w)
                if opened[w] > 1:
                    state = np.moveaxis(state, -1, 1)
                    done.append(w)
    if done:
        state = state.transpose([0] + [len(done) - done.index(w) for w in sorted(done)])
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
    open axes included, exceeds ENTRY_CAP entries is refused.
    """
    opened = opened or [1] * len(sigs)
    live = _live_lengths(sigs, opened)
    order, peak = _plan(g, live, strata, opened)
    if peak > ENTRY_CAP:
        raise GuardExceeded(
            f"the contraction plan needs a state of {peak:,} entries, above the cap of {ENTRY_CAP:,}"
        )
    # float entries past 1.8e308 give inf, which the CLI refuses as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        return _contract(g, sigs, order, live, strata, opened)


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
