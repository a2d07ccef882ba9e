"""Low-order coefficients of the edge-generating polynomial, two ways.

``naive_low_coeffs`` contracts the instance with the exact engine of
``graphs``, keeping only the degree strata 0..k.
``additive_power_sums`` computes the inverse power sums p_1..p_k instead,
by additivity over connected induced subgraphs: each isomorphism class H
carries a correction a_{H,j} (a Moebius inversion over induced-subgraph
containment) such that p_j(G) = sum_H a_{H,j} * ind(H, G).  Newton's
identities convert between the two representations.

The subgraph machinery assumes simple graphs; the naive engine accepts
multigraphs, whose vertex degrees may be below the signature's arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, GuardExceeded
from .graphs import Multigraph, _contraction, brute_force_coeffs
from .signatures import SymmetricSignature

ADDITIVE_K_GUARD = 8


@dataclass(frozen=True)
class PowerSums:
    """Inverse power sums p_0..p_k of a polynomial's roots; p_0 is the degree."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(complex, self.values)))

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    @property
    def order(self) -> int:
        return len(self.values) - 1


def power_sums_from_coeffs(coeffs, total_degree: int, k: int = None) -> np.ndarray:
    """Newton's identities: the array p_0..p_k from c_0..c_k, p_0 = total_degree.

    Solves the recurrence c_0 p_j = -(j c_j + sum_{i=1}^{j-1} p_i c_{j-i})
    one term at a time, in float64 when every coefficient is real (and the
    array is then float64), else in complex128.
    """
    c = np.asarray(coeffs)
    if c.dtype.kind not in "fc":
        c = np.asarray([complex(x) for x in coeffs], dtype=complex)
    if c.dtype.kind == "c" and not c.imag.any():
        c = c.real
    if c[0] == 0:
        raise ArgumentError("constant coefficient must be nonzero")
    if k is None:
        k = len(c) - 1
    dtype = np.result_type(c, np.float64)
    # reversed coefficients: c_{j-1}, ..., c_1 is the contiguous slice rc[k-j+1:k]
    rc = np.zeros(k + 1, dtype=dtype)
    upto = min(len(c), k + 1)
    rc[k + 1 - upto :] = c[upto - 1 :: -1]
    cs = rc.tolist()  # Python scalars: cheaper per step than numpy ones
    p = np.zeros(k + 1, dtype=dtype)
    p[0] = total_degree
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(1, k + 1):
            p[j] = -(j * cs[k - j] + np.dot(p[1:j], rc[k - j + 1 : k])) / cs[k]
    return p


def coeffs_from_power_sums(p, k: int) -> np.ndarray:
    """Invert Newton's identities: monic-constant coefficients with c_0 = 1."""
    pv = np.asarray([complex(x) for x in (p.values if isinstance(p, PowerSums) else p)], dtype=complex)
    c = np.zeros(k + 1, dtype=complex)
    c[0] = 1.0
    for j in range(1, k + 1):
        if j >= len(pv):
            raise ArgumentError(f"need p_1..p_{k}")
        s = np.dot(pv[1 : j + 1], c[j - 1 :: -1][: j])
        c[j] = -s / j
    return c


# ----------------------------------------------------------------------
# naive engine


def _check_f0_one(f: SymmetricSignature) -> None:
    if abs(complex(f.values[0]) - 1.0) > 1e-12:
        raise ArgumentError("normalize first: f_0 must equal 1")


def naive_low_coeffs(g: Multigraph, f: SymmetricSignature, k: int):
    """Exact Z_0..Z_min(k, m) by the contraction, with the degree axis cut
    at k + 1.

    Each vertex carries f cut to its degree (one signature object per
    degree, f itself at full arity), and an isolated vertex is the factor
    f_0 = 1; a graph with none is contracted as it is, so its kept plans
    serve a second call.  The full prefix (k >= m) is brute_force_coeffs; like
    a shorter one it is guarded only by the plan's entry cap.  Exact (list
    of Fractions) when f is rational, else a numpy vector, real when f is
    real.
    """
    _check_f0_one(f)
    if k < 0:
        raise ArgumentError("k must be non-negative")
    deg = g.degrees()
    if max(deg, default=0) > f.arity:
        raise ArgumentError("graph degree exceeds signature arity")
    kept = [v for v in range(g.n) if deg[v]]
    if len(kept) == g.n:
        h = g  # the graph itself, whose plans are kept on it
    else:
        pos = {v: i for i, v in enumerate(kept)}
        h = Multigraph(len(kept), tuple((pos[u], pos[v]) for u, v in g.edges))
    # one signature object per degree, so the contraction builds one table each
    cut = {d: f if d == f.arity else SymmetricSignature(f.values[: d + 1]) for d in {deg[v] for v in kept}}
    sigs = [cut[deg[v]] for v in kept]
    out = brute_force_coeffs(h, sigs) if k >= g.m else _contraction(h, sigs, k + 1)
    if f.is_exact:
        return [Fraction(x) for x in out]
    return np.asarray(out, dtype=float if f.is_real else complex)


# ----------------------------------------------------------------------
# additive engine: connected induced subgraph classes


def _connected_subsets(adj, seeds, limit):
    """All connected vertex subsets of size <= limit, as frozensets."""
    found = set()
    stack = []
    for v in seeds:
        s = frozenset((v,))
        if s not in found:
            found.add(s)
            stack.append(s)
    while stack:
        cur = stack.pop()
        if len(cur) >= limit:
            continue
        boundary = set()
        for u in cur:
            boundary |= adj[u]
        for w in boundary - cur:
            nxt = cur | {w}
            if nxt not in found:
                found.add(nxt)
                stack.append(nxt)
    return found


def _induced(g: Multigraph, subset) -> Multigraph:
    order = sorted(subset)
    pos = {v: i for i, v in enumerate(order)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Multigraph(len(order), tuple(edges))


def _invariant_key(h: Multigraph):
    """Cheap isomorphism invariant: two rounds of neighborhood refinement."""
    adj = h.adjacency_sets()
    colors = tuple(len(a) for a in adj)
    for _ in range(2):
        colors = tuple(
            hash((colors[v], tuple(sorted(colors[u] for u in adj[v])))) for v in range(h.n)
        )
    return (h.n, h.m, tuple(sorted(colors)))


def _isomorphic(a: Multigraph, b: Multigraph) -> bool:
    """Backtracking isomorphism test for small simple graphs."""
    if a.n != b.n or a.m != b.m:
        return False
    adja, adjb = a.adjacency_sets(), b.adjacency_sets()
    dega = [len(x) for x in adja]
    degb = [len(x) for x in adjb]
    if sorted(dega) != sorted(degb):
        return False
    n = a.n
    order = sorted(range(n), key=lambda v: -dega[v])
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or dega[v] != degb[w]:
                continue
            good = True
            for u in adja[v]:
                mu = mapping[u]
                if mu >= 0 and mu not in adjb[w]:
                    good = False
                    break
            if not good:
                continue
            # also require non-adjacency to be preserved
            for j in range(i):
                u = order[j]
                if u not in adja[v] and mapping[u] in adjb[w]:
                    good = False
                    break
            if not good:
                continue
            mapping[v] = w
            used[w] = True
            if extend(i + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return extend(0)


class _ClassTable:
    """Isomorphism classes of small graphs: invariant buckets + exact checks."""

    def __init__(self):
        self.buckets = {}
        self.reps = []

    def class_of(self, h: Multigraph) -> int:
        key = _invariant_key(h)
        bucket = self.buckets.setdefault(key, [])
        for cid in bucket:
            if _isomorphic(self.reps[cid], h):
                return cid
        cid = len(self.reps)
        self.reps.append(h)
        bucket.append(cid)
        return cid


def additive_power_sums(g: Multigraph, f: SymmetricSignature, k: int) -> PowerSums:
    """p_1..p_k of the edge-generating polynomial via connected subgraphs.

    For each isomorphism class H of connected induced subgraphs with at
    most 2k vertices, the exact prefix of P_H (vertices carry f truncated
    to their subgraph degree) yields p_j(H) by Newton; corrections
    a_{H,j} = p_j(H) - sum over proper connected subsets' corrections then
    give p_j(G) = sum_H a_{H,j} * ind(H, G).
    """
    _check_f0_one(f)
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if k > ADDITIVE_K_GUARD:
        raise GuardExceeded(f"k = {k} exceeds the additive-engine guard of {ADDITIVE_K_GUARD}")
    if not g.is_simple:
        raise ArgumentError("the additive engine needs a simple graph")
    dmax = max(g.degrees(), default=0)
    if dmax > f.arity:
        raise ArgumentError("graph degree exceeds signature arity")

    adj = g.adjacency_sets()
    limit = min(2 * k, g.n)
    subsets = _connected_subsets(adj, range(g.n), limit)

    table = _ClassTable()
    subset_class = {}
    ind_count = {}
    for s in subsets:
        cid = table.class_of(_induced(g, s))
        subset_class[s] = cid
        ind_count[cid] = ind_count.get(cid, 0) + 1

    # class representatives as (vertex set in g, induced graph)
    rep_subset = {}
    for s, cid in subset_class.items():
        if cid not in rep_subset or tuple(sorted(s)) < tuple(sorted(rep_subset[cid])):
            rep_subset[cid] = s

    order = sorted(rep_subset, key=lambda cid: (len(rep_subset[cid]), table.reps[cid].m, cid))
    a = {}
    for cid in order:
        s = rep_subset[cid]
        h = _induced(g, s)
        cs = naive_low_coeffs(h, f, min(k, h.m))
        cs = [complex(x) for x in cs]
        p_h = power_sums_from_coeffs(cs, h.m, k)
        corr = np.zeros(k + 1, dtype=complex)
        # proper connected subsets of the representative, via the global map
        local = _connected_subsets({u: adj[u] & s for u in s}, s, len(s))
        for t in local:
            if len(t) == len(s):
                continue
            corr += a[subset_class[t]]
        a[cid] = p_h - corr

    total = np.zeros(k + 1, dtype=complex)
    for cid, cnt in ind_count.items():
        total += cnt * a[cid]
    total[0] = g.m
    if all(abs(x.imag) < 1e-12 for x in total):
        total = total.real.astype(complex)
    return PowerSums(tuple(total))

