"""Tests of the benchmark's own exact reference, checks and tracer.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reference import exact_z  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Invocation, build, check, complete, cube  # noqa: E402


def _subset_sum(n, edges, sigs):
    """Z by the definition: every edge subset, product of vertex entries."""
    total = 0
    for chosen in itertools.product((0, 1), repeat=len(edges)):
        count = [0] * n
        for x, (u, v) in zip(chosen, edges):
            count[u] += x
            count[v] += x
        term = 1
        for v in range(n):
            term *= sigs[v][count[v]]
        total += term
    return total


def test_known_matching_counts():
    k4 = complete(4)
    q3 = cube()
    assert exact_z(k4.n, k4.edges, [1, 1, 0, 0]) == 10
    assert exact_z(q3.n, q3.edges, [1, 1, 0, 0]) == 108


def test_matchings_of_random_cubic_graph_on_30_edges():
    from holant.graphs import random_regular

    g = random_regular(20, 3, seed=1)
    assert exact_z(g.n, g.edges, [1, 1, 0, 0]) == 113532


def test_multigraph_with_loops_and_mixed_signatures_matches_definition():
    edges = [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (3, 3), (2, 4), (4, 1), (4, 4)]
    sigs = [
        [1, 2, 0, 3, Fraction(1, 2)],
        [2, 1, 1, 0, 5],
        [1, 0, 1, 4],
        [0, 1, 2, 3],
        [1, 1, 0, 2, 1],
    ]
    assert exact_z(5, edges, sigs) == _subset_sum(5, edges, sigs)


def test_float_entries_are_read_exactly():
    k4 = complete(4)
    values = [1.5, 0.5, 2.25, 0.75]
    want = _subset_sum(4, k4.edges, [[Fraction(x) for x in values]] * 4)
    assert exact_z(4, k4.edges, values) == want


def test_degree_must_match_arity():
    with pytest.raises(ValueError):
        exact_z(4, complete(4).edges, [1, 1, 0])


def _approx_inv(z_ref=1000):
    return Invocation(label="t", kind="approx", args=[], files={}, z_ref=z_ref, eps=0.05)


def _report(outcome):
    return json.dumps({"command": "approx", "inputs": {}, "outcome": outcome})


def test_check_accepts_an_estimate_within_eps():
    assert check(_approx_inv(), 0, _report({"estimate": 1030.0, "converged": True}))


def test_check_fails_an_estimate_ten_percent_off():
    assert not check(_approx_inv(), 0, _report({"estimate": 1100.0, "converged": True}))
    assert not check(_approx_inv(), 0, _report({"estimate": 900.0, "converged": True}))


def test_check_fails_an_unconverged_report_even_when_close():
    assert not check(_approx_inv(), 0, _report({"estimate": 1000.0, "converged": False}))


def test_check_fails_a_nonzero_exit_and_a_crash():
    assert not check(_approx_inv(), 2, _report({"estimate": 1000.0, "converged": True}))
    assert not check(_approx_inv(), -1, "")


def test_check_exact_rational_must_be_equal():
    inv = Invocation(label="t", kind="exact", args=[], files={}, z_ref=Fraction(7, 2), exact_values=True)
    assert check(inv, 0, _report({"value": "7/2", "exact": True}))
    assert not check(inv, 0, _report({"value": 3.5000001, "exact": True}))
    assert not check(inv, 0, _report({"value": "not a number", "exact": True}))


def test_check_fails_malformed_values_without_raising():
    assert not check(_approx_inv(), 0, _report({"estimate": "x", "converged": True}))
    assert not check(_approx_inv(), 0, _report({"estimate": None, "converged": True}))
    assert not check(_approx_inv(), 0, "Traceback (most recent call last):")


def test_check_gadget_closes_to_the_cube():
    inv = [i for i in build("exact", 0) if i.kind == "gadget"][0]
    from holant.formats import parse_gadget
    from holant.graphs import compose_gadget

    gadget, edge_sig = parse_gadget(next(iter(inv.files.values())))
    eff = [float(x.real) for x in compose_gadget(gadget, edge_sig)]
    assert check(inv, 0, _report({"effective_signature": eff}))
    eff[1] += 1.0
    assert not check(inv, 0, _report({"effective_signature": eff}))


def test_same_seed_same_inputs():
    a, b = build("approx-ladder", 3), build("approx-ladder", 3)
    assert [i.files for i in a] == [i.files for i in b]
    assert [i.files for i in a] != [i.files for i in build("approx-ladder", 4)]


def test_tracer_spans_a_cli_run_and_restores_functions(tmp_path, capsys):
    from run import import_holant

    inv = build("approx-ladder", 0)[0]
    for name, text in inv.files.items():
        (tmp_path / name).write_text(text)
    modules = import_holant()
    cli, evaluator = modules["cli"], modules["evaluator"]
    original = evaluator.h_eps_stability
    tracer = Tracer()
    tracer.install(modules)
    try:
        assert evaluator.h_eps_stability is not original
        assert cli.main(inv.argv(str(tmp_path))) == 0
    finally:
        tracer.uninstall()
    assert evaluator.h_eps_stability is original
    assert check(inv, 0, capsys.readouterr().out)
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["evaluator.approximate_Z"] == 1
    assert tracer.calls["stability.h_eps_stability"] >= 1
    assert tracer.counts["evaluator.series_terms"] > tracer.calls["evaluator.compose_prefix"] > 0
    assert tracer.layer_total["formats"] > 0
    children = tracer.total["evaluator.approximate_Z"] + tracer.total["classify.classify"] + tracer.layer_total["formats"]
    assert 0 < tracer.self_time["cli.main"] <= tracer.total["cli.main"] - children + 1e-9
