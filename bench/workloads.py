"""The benchmark's workloads: CLI invocations built from a seed, and their checks.

Graphs are generated here, not by ``holant``, so that a change to the
package's generators cannot change the benchmark's inputs.  Every
invocation carries the exact Z that ``reference.exact_z`` computed for
it; ``check`` compares the CLI's JSON report against that value.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from reference import exact_z


@dataclass(frozen=True)
class Graph:
    name: str
    n: int
    edges: tuple

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        return "\n".join([f"{self.n} {self.m}"] + [f"{u} {v}" for u, v in self.edges]) + "\n"


def random_simple_regular(n: int, d: int, rng: random.Random, name: str) -> Graph:
    """Uniform simple d-regular graph by the pairing model with rejection."""
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in edges) and len(set(edges)) == len(edges):
            return Graph(name, n, tuple(edges))


def complete(n: int) -> Graph:
    return Graph(f"K{n}", n, tuple(itertools.combinations(range(n), 2)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph("petersen", 10, tuple(outer + inner + spokes))


def cube() -> Graph:
    """Q3: vertices are 3-bit strings, edges join strings one bit apart."""
    return Graph("Q3", 8, tuple((a, b) for a, b in itertools.combinations(range(8), 2) if bin(a ^ b).count("1") == 1))


# The 9-vertex 4-regular graph on which 4-regular matchings at eps 0.05 do
# not converge (see FAULTY in approx_ladder); fixed, so that the failure
# does not depend on the seed.
NONCONVERGING_4REG = Graph(
    "nonconv9x4",
    9,
    ((0, 8), (3, 4), (2, 4), (1, 6), (3, 7), (0, 6), (0, 1), (1, 3), (3, 8),
     (5, 6), (0, 2), (4, 7), (5, 7), (1, 5), (7, 8), (2, 6), (2, 8), (4, 5)),
)


@dataclass
class Invocation:
    """One `holant` command line, its input files and the expected answer."""

    label: str
    kind: str  # "approx", "exact" or "gadget"
    args: list  # argv after the input file names
    files: dict  # file name -> contents, in argv order
    z_ref: object  # exact Z(G; f), an int or Fraction
    eps: float = 0.0
    exact_values: bool = False  # exact: the signature is rational
    gadget_sig: tuple = ()  # gadget: the vertex signature f
    known_fault: bool = False  # fails on every run; counted as failed

    def argv(self, directory: str) -> list:
        return [self.kind] + [f"{directory}/{name}" for name in self.files] + self.args


def _sig_text(values) -> str:
    return f"sig d={len(values) - 1} [{','.join(str(v) for v in values)}]"


def _approx(g: Graph, values, eps: float, known_fault: bool = False) -> Invocation:
    return Invocation(
        label=f"approx {list(values)} {g.name} m={g.m} eps={eps}",
        kind="approx",
        args=["--eps", str(eps)],
        files={"f.sig": _sig_text(values), f"{g.name}.graph": g.text()},
        z_ref=exact_z(g.n, g.edges, list(values)),
        eps=eps,
        known_fault=known_fault,
    )


def _exact(g: Graph, values) -> Invocation:
    exact_values = all(isinstance(v, int) for v in values)
    path = "rational" if exact_values else "float"
    return Invocation(
        label=f"exact {list(values)} {g.name} m={g.m} ({path})",
        kind="exact",
        args=[],
        files={f"{path}.sig": _sig_text(values), f"{g.name}.graph": g.text()},
        z_ref=exact_z(g.n, g.edges, list(values)),
        exact_values=exact_values,
    )


def _cube_gadget(values) -> Invocation:
    """Q3 minus vertex 7: 9 inner edges, one dangling edge at each of 3, 5, 6.

    Q3 is vertex-transitive and the stabiliser of a vertex permutes its
    neighbours arbitrarily, so the gadget is symmetric, and closing it with
    one more f-vertex gives Q3 back.
    """
    q3 = cube()
    inner = [list(e) for e in q3.edges if 7 not in e]
    doc = {
        "n": 7,
        "edges": inner,
        "dangling": [[3, 1], [5, 1], [6, 1]],
        "signatures": {"f": {"arity": 3, "values": list(values)}},
        "assign": ["f"] * 7,
        "edge_signature": [1, 0, 1],
    }
    return Invocation(
        label=f"gadget Q3-minus-vertex f={list(values)} inner=9 dangling=3",
        kind="gadget",
        args=[],
        files={"q3_minus_vertex.json": json.dumps(doc)},
        z_ref=exact_z(q3.n, q3.edges, list(values)),
        gadget_sig=tuple(values),
    )


MATCHINGS3 = (1, 1, 0, 0)
EDGE_COVERS3 = (0, 1, 1, 1)
FIBONACCI3 = (1, 1, 2, 3)


def approx_enum(rng: random.Random) -> list:
    g18 = random_simple_regular(12, 3, rng, "cubic12")
    g21 = random_simple_regular(14, 3, rng, "cubic14")
    g20 = random_simple_regular(10, 4, rng, "quartic10")
    out = [_approx(g, f, 0.05) for g in (g18, g21) for f in (MATCHINGS3, EDGE_COVERS3, FIBONACCI3)]
    out.append(_approx(g20, (0, 1, 1, 1, 1), 0.05))
    return out


def approx_ladder(rng: random.Random) -> list:
    c8 = random_simple_regular(8, 3, rng, "cubic8")
    c10 = random_simple_regular(10, 3, rng, "cubic10")
    q8 = random_simple_regular(8, 4, rng, "quartic8")
    q9 = random_simple_regular(9, 4, rng, "quartic9")
    k4, k5, pet = complete(4), complete(5), petersen()
    return [
        _approx(pet, (3, 1, 1, 1), 0.05),
        _approx(c10, (3, 1, 1, 1), 0.01),
        _approx(k4, (1, 2, 3, 4), 0.05),
        _approx(c8, (1, 2, 3, 4), 0.01),
        _approx(c10, (1, 2, 1, 1), 0.05),
        _approx(k4, (1, 2, 1, 1), 0.01),
        _approx(k5, (1, 2, 3, 4, 5), 0.01),
        _approx(q9, (1, 2, 3, 4, 5), 0.05),
        _approx(q8, (1, 1, 0, 0, 0), 0.01),
        _approx(k5, (1, 1, 0, 0, 0), 0.05),
        # FAULTY: the only sound rung (0.125) does not stabilise within the
        # evaluator's K_GUARD terms; the CLI reports converged: false, exit 0
        _approx(NONCONVERGING_4REG, (1, 1, 0, 0, 0), 0.05, known_fault=True),
    ]


def exact(rng: random.Random) -> list:
    g18 = random_simple_regular(12, 3, rng, "cubic12")
    g21 = random_simple_regular(14, 3, rng, "cubic14")
    return [
        _exact(g18, MATCHINGS3),
        _exact(g21, (1.5, 0.5, 2.25, 0.75)),
        _cube_gadget((1, 2, 1, 3)),
    ]


WORKLOADS = {"approx-enum": approx_enum, "approx-ladder": approx_ladder, "exact": exact}


def build(workload: str, seed: int) -> list:
    """The workload's invocations; the same seed gives the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _number(x):
    """A JSON number or "p/q" string as an exact Fraction; None for anything else."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):
        return None


def check(inv: Invocation, rc: int, stdout: str) -> bool:
    """True when the report is right by the benchmark's own exact Z."""
    if rc != 0:
        return False
    try:
        outcome = json.loads(stdout)["outcome"]
    except (ValueError, KeyError, TypeError):
        return False
    if inv.kind == "approx":
        est = _number(outcome.get("estimate"))
        return outcome.get("converged") is True and est is not None and abs(est - inv.z_ref) <= inv.eps * abs(inv.z_ref)
    if inv.kind == "exact":
        value = _number(outcome.get("value"))
        if value is None:
            return False
        if inv.exact_values:
            return value == inv.z_ref
        return abs(value - inv.z_ref) <= 1e-9 * abs(inv.z_ref)
    eff = outcome.get("effective_signature")
    f = inv.gadget_sig
    if not isinstance(eff, list) or len(eff) != len(f):
        return False
    eff = [_number(x) for x in eff]
    if None in eff:
        return False
    d = len(f) - 1
    return sum(math.comb(d, k) * eff[k] * f[k] for k in range(d + 1)) == inv.z_ref
