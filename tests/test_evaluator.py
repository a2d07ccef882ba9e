import math

import numpy as np
import pytest
from test_kernels import NONCONV9X4, reference_series

from holant.coeffs import power_sums_from_coeffs
from holant.errors import ArgumentError, GuardExceeded
from holant.evaluator import (
    ApproxResult,
    approximate_Z,
    build_phi,
    compose_prefix,
    taylor_log_eval,
)
from holant.graphs import brute_force_Z, complete, random_regular
from holant.signatures import signature


def test_build_phi_endpoint_values():
    for delta in (0.05, 0.1, 0.3, 0.45):
        phi = build_phi(delta)
        assert abs(phi(0.0)) <= 1e-12
        assert abs(phi(1.0) - 1.0) <= 1e-12


def test_build_phi_alpha_formula():
    phi = build_phi(0.45)
    assert abs(phi.alpha - (1 - math.exp(-1 / 0.45))) < 1e-12
    assert abs(phi.beta - (1 + phi.alpha) / (2 * phi.alpha)) < 1e-12


def test_build_phi_range_guard():
    # the delta cap keeps phi_{delta/2} well conditioned; 0.5 is outside
    with pytest.raises(ArgumentError):
        build_phi(0.0)
    with pytest.raises(ArgumentError):
        build_phi(0.5)


def test_build_phi_strip_containment():
    rng = np.random.default_rng(77)
    for delta in (0.05, 0.1, 0.3):
        phi = build_phi(delta)
        r = phi.beta * np.sqrt(rng.uniform(0, 1, 500))
        theta = rng.uniform(0, 2 * np.pi, 500)
        vals = phi(r * np.exp(1j * theta))
        assert np.all(np.abs(vals.imag) <= 2 * delta)
        assert np.all(vals.real >= -2 * delta) and np.all(vals.real <= 1 + 2 * delta)


def test_phi_prefix_consistency():
    phi = build_phi(0.3)
    pre = phi.prefix(10)
    i = np.arange(1, 11)
    assert np.allclose(pre[1:], 0.3 * phi.alpha**i / i / phi.norm)
    assert pre[0] == 0.0


def test_compose_identity():
    out = compose_prefix([1, 1], [0, 1], 4)
    assert np.allclose(out, [1, 1, 0, 0, 0])


def test_compose_constant_term():
    out = compose_prefix([7.0, 2.0, 5.0], build_phi(0.2), 0)
    assert np.allclose(out, [7.0])


def test_compose_direct_substitution():
    # P = 1 + z^2 composed with 2z
    out = compose_prefix([1, 0, 1], [0, 2], 2)
    assert np.allclose(out, [1, 0, 4])


def test_compose_requires_zero_constant():
    with pytest.raises(ArgumentError):
        compose_prefix([1, 1], [0.5, 1], 2)


def test_full_composition_preserves_value_at_one():
    # with the whole composed polynomial in hand, evaluating at 1 recovers
    # P(1) exactly since phi(1) = 1
    phi = build_phi(0.45)
    P = [1.0, 6.0, 3.0]
    k = int(phi.order) * 2  # full degree of the composition
    comp = compose_prefix(P, phi, k)
    assert abs(comp.sum() - 10.0) <= 1e-9 * 10.0


def test_taylor_log_example_cubic():
    # P = (1 + z/3)^3: inverse power sums of the triple root -3
    c = [1, 1, 1 / 3, 1 / 27]
    p = power_sums_from_coeffs(c, 3, k=8)
    assert abs(taylor_log_eval(p, 1) - 1.0) <= 1e-12
    assert abs(taylor_log_eval(p, 4) - 31 / 36) <= 1e-12
    true = 3 * math.log(4 / 3)
    errs = [abs(taylor_log_eval(p, k).real - true) for k in range(1, 9)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_taylor_log_zero_sums():
    p = power_sums_from_coeffs([1, 0, 0], 0, k=5)
    assert taylor_log_eval(p, 5) == 0
    assert math.exp(taylor_log_eval(p, 5).real) == 1.0


def test_approximate_k4_matchings():
    res = approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05)
    assert res.converged
    assert abs(res.estimate / 10.0 - 1) <= 0.05
    assert res.k_used == len(res.diagnostics["estimates"])
    # the prefix is all of P_G at this size, so the self-check is the log error
    assert res.diagnostics["self_check"] == pytest.approx(math.log(res.estimate / 10.0), abs=1e-9)


def test_approximate_edge_covers_via_reversal():
    g = random_regular(12, 3, seed=7)
    f = signature([0, 1, 1, 1])
    oracle = float(brute_force_Z(g, signature([0.0, 1.0, 1.0, 1.0])))
    res = approximate_Z(g, f, 0.05)
    assert res.converged
    assert abs(res.estimate / oracle - 1) <= 0.05


def test_routing_contract():
    # ExactPolyTime signatures are not for this evaluator
    with pytest.raises(ArgumentError):
        approximate_Z(complete(4), signature([1, 0, 1, 0]), 0.05)


def test_regularity_contract():
    from holant.graphs import cycle

    with pytest.raises(ArgumentError):
        approximate_Z(cycle(5), signature([1, 1, 0, 0]), 0.05)


def test_scaling_bookkeeping():
    g = random_regular(8, 3, seed=3)
    base = approximate_Z(g, signature([1, 1, 2, 3]), 0.05)
    for t in (0.5, 2.0):
        scaled = approximate_Z(g, signature([t, t, 2 * t, 3 * t]), 0.05)
        want = t**g.n * base.estimate
        assert abs(scaled.estimate / want - 1) <= 0.01


def test_estimate_matches_invariant():
    res = approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05)
    # estimate = scale^|V| * exp(Re T_k): the last diagnostic entry is it
    assert res.estimate == res.diagnostics["estimates"][-1]


def test_log_estimate_stays_finite_where_the_estimate_overflows():
    g = random_regular(20, 3, seed=1)
    res = approximate_Z(g, signature([1e20, 1e20, 0, 0]), 0.05)
    assert res.converged and res.estimate == math.inf
    truth = brute_force_Z(g, signature([10**20, 10**20, 0, 0]))  # exact, 113532e400
    assert truth.denominator == 1 and abs(res.log_estimate - math.log(truth.numerator)) <= 0.05
    small = approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05)
    assert small.log_estimate == pytest.approx(math.log(small.estimate), rel=1e-12)


def test_eps_domain():
    with pytest.raises(ArgumentError):
        approximate_Z(complete(4), signature([1, 1, 0, 0]), 1.5)


def test_not_converged_flag(monkeypatch):
    # with the truncation guard below every rung's convergence floor the
    # stabilization test can never fire; the best estimate is still returned
    import holant.evaluator as ev

    monkeypatch.setattr(ev, "K_GUARD", 20)
    res = approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05)
    assert not res.converged
    assert res.k_used == 20
    assert res.estimate > 0


def test_full_prefix_past_the_soft_edge_limit():
    # 30 edges, once past the oracle's old unforced limit: the evaluator
    # takes every coefficient of P_G and converges
    g = random_regular(20, 3, seed=1)
    truth = float(brute_force_Z(g, signature([1, 1, 0, 0])))
    res = approximate_Z(g, signature([1, 1, 0, 0]), 0.05)
    assert res.converged
    assert abs(res.estimate / truth - 1) <= 0.05


def test_39_edges_converge_within_eps():
    # the k-doubling resume once continued the power sums of an order-k
    # composition with the coefficients of the order-2k one, and this
    # graph came out as 35,687,149 with converged: true
    g = random_regular(26, 3, seed=1)
    truth = float(brute_force_Z(g, signature([1, 1, 0, 0])))
    assert truth == 3575154
    res = approximate_Z(g, signature([1, 1, 0, 0]), 0.05)
    assert res.converged
    assert abs(res.estimate / truth - 1) <= 0.05
    # the prefix is exact here, so the self-check is the log error itself
    assert res.diagnostics["self_check"] == pytest.approx(math.log(res.estimate / truth), abs=1e-9)


def test_evaluator_edge_limit_is_checked_before_any_work(monkeypatch):
    import holant.evaluator as ev

    def never(*args):
        raise AssertionError("the evaluator ran")

    monkeypatch.setattr(ev, "_Attempt", never)
    with pytest.raises(GuardExceeded, match="evaluator"):
        approximate_Z(random_regular(28, 3, seed=1), signature([1, 1, 0, 0]), 0.05)  # 42 edges


def _record_attempts_and_series(monkeypatch):
    """Every _Attempt built and the coefficient prefix of every series run."""
    import holant.evaluator as ev

    attempts, series = [], []
    init, estimates = ev._Attempt.__init__, ev._series_estimates

    def record_attempt(self, *args):
        init(self, *args)
        attempts.append(self)

    def record_series(c, *args):
        series.append(c)
        return estimates(c, *args)

    monkeypatch.setattr(ev._Attempt, "__init__", record_attempt)
    monkeypatch.setattr(ev, "_series_estimates", record_series)
    return attempts, series


def test_doomed_constructive_ladder_waits_for_the_margin_search(monkeypatch):
    # every constructive rung of [1,2,3,4] on K4 has a root preimage inside
    # the unit disk; the margin search's ladder converges, so the doomed
    # rung never runs
    attempts, series = _record_attempts_and_series(monkeypatch)
    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    constructive, searched = attempts
    assert (constructive.label, searched.label) == ("constructive", "margin-search")
    assert constructive.doomed and not searched.doomed
    assert series and all(c is searched.c for c in series)
    assert res.converged
    assert res.diagnostics["transform_source"] == "margin-search"
    assert res.k_used == 262


def test_doomed_ladder_still_gives_the_best_effort_record(monkeypatch):
    # with no margin-search transform the doomed rung runs after all, and
    # the unconverged record is the one it gave when it ran first
    import holant.evaluator as ev

    monkeypatch.setattr(ev, "margin_search", lambda f: None)
    attempts, series = _record_attempts_and_series(monkeypatch)
    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    (constructive,) = attempts
    assert series and all(c is constructive.c for c in series)
    assert not res.converged
    assert res.k_used == 4
    assert res.delta == 0.25
    assert res.diagnostics["transform_source"] == "constructive"
    assert res.diagnostics["rungs_tried"] == [0.125]
    assert res.diagnostics["rung_sound"] is False
    # the record's four estimates against the 50-digit composition and
    # series; Newton's step-by-step recurrence is itself off by 2.5e-12
    # relative at the fourth, whose log is -185
    want = constructive.g0**4 * np.exp(reference_series(constructive.c, build_phi(0.125).prefix(4), 4))
    got = np.array(res.diagnostics["estimates"])
    assert np.max(np.abs(got / want - 1)) <= 1e-12
    assert want[0] == pytest.approx(337.4681253982189, rel=1e-12)
    assert res.estimate == got[-1]
    assert list(res.diagnostics["rung_verdicts"]) == ["constructive"]


def test_rung_verdicts_in_the_report():
    import json

    from holant.formats import approx_to_json

    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    verdicts = approx_to_json(res)["diagnostics"]["rung_verdicts"]
    json.dumps(verdicts, allow_nan=False)
    assert list(verdicts) == ["constructive", "margin-search"]
    for entries in verdicts.values():
        for dp, verdict, clearance in entries:
            assert isinstance(dp, float) and verdict in ("sound", "murky", "doomed")
            assert clearance is None or (isinstance(clearance, float) and math.isfinite(clearance))
    assert all(v == "doomed" and c < 0.98 for _, v, c in verdicts["constructive"])
    # the margin search certifies its own parameter: no root is consulted
    certified = verdicts["margin-search"][0]
    assert certified[1:] == ["sound", None]
    assert certified[0] == res.delta_certified / 2.0
    assert all(v == "sound" and c >= 1.02 for _, v, c in verdicts["margin-search"][1:])


def test_a_doomed_rung_that_stops_is_still_unconverged(monkeypatch, tmp_path, capsys):
    # the stop test fires on the doomed rung: the record it gives is kept,
    # but it is not an acceptance, and the CLI exits 6
    import json

    import holant.evaluator as ev
    from holant.cli import EXIT_UNCONVERGED, main
    from holant.formats import dump_graph

    monkeypatch.setattr(ev, "margin_search", lambda f: None)
    monkeypatch.setattr(ev, "_scan_stop", lambda T, eps, floor: 3)
    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    assert not res.converged
    assert res.k_used == 3
    assert res.diagnostics["transform_source"] == "constructive"
    assert {v for _, v, _ in res.diagnostics["rung_verdicts"]["constructive"]} == {"doomed"}
    sig, graph = tmp_path / "f.sig", tmp_path / "k4.graph"
    sig.write_text("sig d=3 [1,2,3,4]\n")
    graph.write_text(dump_graph(complete(4)))
    assert main(["approx", str(sig), str(graph), "--eps", "0.05"]) == EXIT_UNCONVERGED
    assert json.loads(capsys.readouterr().out)["outcome"]["converged"] is False


def test_a_counted_zero_ends_the_rung_at_its_first_call(monkeypatch):
    # nonconv9x4's murky rung 0.155 has a zero of P(phi(z)) inside the
    # first circle, so its series at 1 diverges: the rung ends after one
    # call instead of doubling k to K_GUARD, and the record is the same
    import holant.evaluator as ev
    from holant.graphs import Multigraph

    kernel, calls = ev._series_estimates, []

    def record(hide_count):
        def series(c, phi, k):
            calls.append((phi.delta, k))
            T, zeros = kernel(c, phi, k)
            return T, None if hide_count else zeros

        return series

    results = []
    for hide_count in (False, True):
        calls.clear()
        monkeypatch.setattr(ev, "_series_estimates", record(hide_count))
        results.append(approximate_Z(Multigraph(9, NONCONV9X4), signature([1, 1, 0, 0, 0]), 0.05))
        if not hide_count:
            assert calls == [(0.125, 4472), (0.125, 6000), (0.155, 951)]
    assert calls == [(0.125, 4472), (0.125, 6000), (0.155, 951), (0.155, 1902), (0.155, 3804), (0.155, 6000)]
    counted, hidden = results
    assert not counted.converged and (counted.k_used, counted.delta) == (6000, 0.25)
    assert (counted.estimate, counted.k_used, counted.delta) == (hidden.estimate, hidden.k_used, hidden.delta)


# The fixed-graph instances of the benchmark's approx-ladder workload, with
# the stop index, transform, rung (delta = twice the phi parameter) and
# estimate that the step-by-step Newton recurrence gave: a kernel that
# changes the arithmetic must not move a stop.
_PETERSEN = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (6, 8), (7, 9), (8, 5), (9, 6),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9))
STOP_GUARD = [
    ("K4", [1, 2, 3, 4], 0.05, 262, "margin-search", 0.45, 3106.676417363495),
    ("K4", [1, 2, 1, 1], 0.01, 608, "constructive", 0.45, 238.9915048481496),
    ("K5", [1, 2, 3, 4, 5], 0.01, 326, "margin-search", 0.45, 320760.6648147698),
    ("K5", [1, 1, 0, 0, 0], 0.05, 2216, "constructive", 0.31, 25.965974864224556),
    ("petersen", [3, 1, 1, 1], 0.05, 3776, "margin-search", 0.31, 717502.6931226695),
]


@pytest.mark.parametrize("name, vals, eps, k_used, source, delta, estimate", STOP_GUARD)
def test_stop_index_guard(name, vals, eps, k_used, source, delta, estimate):
    from holant.graphs import Multigraph

    g = Multigraph(10, _PETERSEN) if name == "petersen" else complete(int(name[1:]))
    res = approximate_Z(g, signature(vals), eps)
    assert res.converged
    assert res.k_used == k_used
    assert res.diagnostics["transform_source"] == source
    assert res.delta == delta
    assert abs(res.estimate / estimate - 1) <= 1e-9
