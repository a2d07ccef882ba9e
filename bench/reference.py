"""Exact partition functions written apart from ``holant``, to check its reports.

``exact_z`` sums over all {0,1} edge assignments of a multigraph by a
frontier dynamic program over the edges: a state records how many chosen
edges each vertex on the frontier (seen, not yet finished) has, and a
vertex leaves the frontier, multiplied by its signature entry, once its
last edge is placed.  Arithmetic is Python ``int`` / ``Fraction``, so the
result is exact; float signature entries are read as the exact binary
fractions they are.  Nothing here imports ``holant``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction


def _edge_order(n: int, edges) -> list:
    """Edges sorted by the breadth-first position of their later endpoint.

    Placing edges in this order keeps the frontier near the width of a
    breadth-first layer, which is what makes the program fast.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    pos = [-1] * n
    nxt = 0
    for root in range(n):
        if pos[root] >= 0:
            continue
        pos[root] = nxt
        nxt += 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if pos[w] < 0:
                    pos[w] = nxt
                    nxt += 1
                    queue.append(w)
    return sorted(edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])))


def exact_z(n: int, edges, sigs):
    """Z = sum over edge subsets S of prod_v f_v[#edges of S at v].

    ``sigs`` is one value list per vertex, or a single list for every
    vertex; vertex v needs ``len(f_v) - 1`` equal to its degree.  A chosen
    self-loop adds 2 at its vertex.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    if sigs and not isinstance(sigs[0], (list, tuple)):
        sigs = [sigs] * n
    tables = [[x if isinstance(x, int) else Fraction(x) for x in f] for f in sigs]
    remaining = [0] * n
    for u, v in edges:
        remaining[u] += 1
        remaining[v] += 1
    for v in range(n):
        if remaining[v] != len(tables[v]) - 1:
            raise ValueError(f"vertex {v} has degree {remaining[v]} but {len(tables[v])} signature entries")
    # dead[v][c]: no count >= c at v has a nonzero entry, so the state can go
    dead = [[all(x == 0 for x in f[c:]) for c in range(len(f))] + [True] for f in tables]

    total = 1
    for v in range(n):
        if remaining[v] == 0:
            total *= tables[v][0]
    frontier = []
    states = {(): 1}
    for u, v in _edge_order(n, edges):
        for w in (u, v):
            if w not in frontier:
                frontier.append(w)
                states = {s + (0,): val for s, val in states.items()}
        iu, iv = frontier.index(u), frontier.index(v)
        grown = defaultdict(int)
        for s, val in states.items():
            grown[s] += val
            t = list(s)
            t[iu] += 1
            t[iv] += 1
            if not (dead[u][t[iu]] or dead[v][t[iv]]):
                grown[tuple(t)] += val
        states = grown
        remaining[u] -= 1
        remaining[v] -= 1
        for w in dict.fromkeys((u, v)):
            if remaining[w]:
                continue
            i = frontier.index(w)
            f = tables[w]
            done = defaultdict(int)
            for s, val in states.items():
                if f[s[i]]:
                    done[s[:i] + s[i + 1 :]] += val * f[s[i]]
            states = done
            frontier.pop(i)
    return total * sum(states.values())
