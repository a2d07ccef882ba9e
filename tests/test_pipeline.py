"""End-to-end sweeps: classify arbitrary signatures, then check every
StableTransform route against the brute-force oracle."""

import numpy as np
import pytest

from holant.classify import classify
from holant.errors import GuardExceeded, HolantError
from holant.evaluator import approximate_Z
from holant.graphs import Multigraph, brute_force_Z, complete, random_regular
from holant.signatures import signature

TAGS = {
    "IdenticallyZero",
    "NoRecurrence",
    "Degenerate",
    "ExactPolyTime",
    "FerroIsing",
    "StableTransform",
    "PMEquivalent",
    "TypeI",
}


def octahedron():
    return Multigraph(
        6, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4))
    )


def test_classify_total_on_random_inputs():
    rng = np.random.default_rng(100)
    tags = set()
    for _ in range(300):
        d = int(rng.integers(3, 7))
        vals = rng.uniform(0, 2, size=d + 1)
        vals[rng.uniform(size=d + 1) < 0.3] = 0.0
        out = classify(signature(vals))
        assert out.tag in TAGS
        tags.add(out.tag)
    # the sweep should reach several distinct classes
    assert {"StableTransform", "NoRecurrence"} <= tags


def test_weighted_even_subgraph_family():
    # [x, y, x, y] with x != y admits a stabilizing transform; with x = y
    # it is rank-1, and with y = 0 exactly solvable
    assert classify(signature([2, 1, 2, 1])).tag == "StableTransform"
    assert classify(signature([1, 1, 1, 1])).tag == "Degenerate"
    assert classify(signature([1, 0, 1, 0])).tag == "ExactPolyTime"
    g = random_regular(10, 3, seed=12)
    f = signature([2, 1, 2, 1])
    truth = float(brute_force_Z(g, signature([2.0, 1.0, 2.0, 1.0])))
    res = approximate_Z(g, f, 0.05)
    assert res.converged and abs(res.estimate / truth - 1) <= 0.05


@pytest.mark.parametrize(
    "vals",
    [
        [1, 1, 0, 0, 0],  # matchings, arity 4
        [0, 1, 1, 1, 1],  # edge covers, arity 4
        [(1 + k) * 0.5**k for k in range(5)],  # repeated characteristic root
        [3, 1, 3, 1, 3],  # weighted even subgraphs, arity 4
    ],
)
def test_arity_four_pipeline(vals):
    f = signature(vals)
    out = classify(f)
    assert out.tag == "StableTransform"
    for g in (complete(5), octahedron(), random_regular(7, 4, seed=3)):
        truth = float(brute_force_Z(g, signature([float(v) for v in vals])))
        res = approximate_Z(g, f, 0.05, out)
        assert res.converged, vals
        assert abs(res.estimate / truth - 1) <= 0.05


def test_random_stable_signatures_match_oracle():
    # a converged run must meet its tolerance; signatures whose transformed
    # edge polynomial has roots within ~0.09 of the origin are beyond any
    # affordable truncation (the map needs exp(O(1/delta)) terms) and must
    # come back flagged (unconverged) or refused instead of wrong
    rng = np.random.default_rng(2024)
    g = random_regular(8, 3, seed=77)
    gf = random_regular(8, 3, seed=78)
    checked = 0
    converged = 0
    while checked < 12:
        vals = np.round(rng.uniform(0, 3, size=4), 3)
        try:
            f = signature(vals)
            out = classify(f)
        except HolantError:
            continue
        if out.tag != "StableTransform":
            continue
        for graph in (g, gf):
            truth = float(brute_force_Z(graph, signature([float(v) for v in vals])))
            try:
                res = approximate_Z(graph, f, 0.05, out)
            except GuardExceeded as exc:
                assert "no rung clears the roots" in str(exc)
                continue
            if res.converged:
                converged += 1
                assert abs(res.estimate / truth - 1) <= 0.05, (vals, res.estimate, truth)
        checked += 1
    assert converged >= 16  # most draws are easy; only near-degenerate ones flag


def test_petersen_matchings():
    g = complete(4)
    pet = __import__("holant.graphs", fromlist=["petersen"]).petersen()
    f = signature([1, 1, 0, 0])
    truth = float(brute_force_Z(pet, signature([1.0, 1.0, 0.0, 0.0])))
    res = approximate_Z(pet, f, 0.05)
    assert res.converged
    assert abs(res.estimate / truth - 1) <= 0.05
