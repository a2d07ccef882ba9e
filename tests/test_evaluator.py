import math

import numpy as np
import pytest
from test_kernels import NONCONV9X4, PETERSEN

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
    # at every parameter the constructive transform of [1,2,3,4] on K4 has
    # a root preimage inside the unit disk; the margin search's rung
    # converges, so the doomed rung never runs
    attempts, series = _record_attempts_and_series(monkeypatch)
    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    constructive, searched = attempts
    assert (constructive.label, searched.label) == ("constructive", "margin-search")
    assert constructive.doomed and not searched.doomed
    assert series and all(c is searched.c for c in series)
    assert res.converged
    assert res.diagnostics["transform_source"] == "margin-search"
    assert res.k_used == 262


def test_doomed_ladder_still_gives_the_best_effort_record(monkeypatch, tmp_path, capsys):
    # the constructive rung is doomed and the margin search's sound rung
    # never stops: the best-effort record is the sound rung's most stable
    # one, the doomed rung is never run, and the CLI exits 6
    import json

    import holant.evaluator as ev
    from holant.cli import EXIT_UNCONVERGED, main
    from holant.formats import dump_graph

    monkeypatch.setattr(ev, "_scan_stop", lambda T, eps, floor: None)
    attempts, series = _record_attempts_and_series(monkeypatch)
    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    constructive, searched = attempts
    assert constructive.doomed and not searched.doomed
    assert series and all(c is searched.c for c in series)
    assert not res.converged
    assert res.diagnostics["transform_source"] == "margin-search"
    assert res.delta == 0.45 and res.k_used == 4096
    verdicts = res.diagnostics["rung_verdicts"]
    assert [v for _, v, _ in verdicts["constructive"]] == ["doomed"]
    assert [v for _, v, _ in verdicts["margin-search"]] == ["sound"]
    sig, graph = tmp_path / "f.sig", tmp_path / "k4.graph"
    sig.write_text("sig d=3 [1,2,3,4]\n")
    graph.write_text(dump_graph(complete(4)))
    assert main(["approx", str(sig), str(graph), "--eps", "0.05"]) == EXIT_UNCONVERGED
    assert json.loads(capsys.readouterr().out)["outcome"]["converged"] is False


def _refuse_k4_with_only_the_doomed_rung(tmp_path, capsys):
    # with no margin-search transform only the doomed constructive rung of
    # [1,2,3,4] on K4 is left: the run is refused (exit 2) with the reason
    import json

    from holant.cli import EXIT_GUARD, main
    from holant.formats import dump_graph

    with pytest.raises(GuardExceeded, match="no rung clears the roots of P_G"):
        approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    sig, graph = tmp_path / "f.sig", tmp_path / "k4.graph"
    sig.write_text("sig d=3 [1,2,3,4]\n")
    graph.write_text(dump_graph(complete(4)))
    assert main(["approx", str(sig), str(graph), "--eps", "0.05"]) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["refusal"] == "no rung clears the roots of P_G"


def test_a_doomed_rung_is_refused_and_never_run(monkeypatch, tmp_path, capsys):
    # its series at 1 diverges, so the kernel is never called on it
    import holant.evaluator as ev

    def never(*args):
        raise AssertionError("a doomed rung was run")

    monkeypatch.setattr(ev, "margin_search", lambda f: None)
    monkeypatch.setattr(ev, "_series_estimates", never)
    _refuse_k4_with_only_the_doomed_rung(tmp_path, capsys)


def test_a_doomed_rung_that_stops_is_still_unconverged(monkeypatch, tmp_path, capsys):
    # a stop test that fires at once gives the doomed rung no record: it is
    # never run, so nothing is accepted and the run is refused
    import holant.evaluator as ev

    attempts, series = _record_attempts_and_series(monkeypatch)
    monkeypatch.setattr(ev, "margin_search", lambda f: None)
    monkeypatch.setattr(ev, "_scan_stop", lambda T, eps, floor: 3)
    _refuse_k4_with_only_the_doomed_rung(tmp_path, capsys)
    assert attempts and all(a.doomed for a in attempts) and series == []


def test_rung_verdicts_in_the_report():
    import json

    from holant.formats import approx_to_json

    res = approximate_Z(complete(4), signature([1, 2, 3, 4]), 0.05)
    verdicts = approx_to_json(res)["diagnostics"]["rung_verdicts"]
    json.dumps(verdicts, allow_nan=False)
    assert list(verdicts) == ["constructive", "margin-search"]
    # one rung per transform
    assert all(len(entries) == 1 for entries in verdicts.values())
    # no parameter clears the constructive roots: the rung sits at DP_MIN
    [(dp, verdict, clearance)] = verdicts["constructive"]
    assert (dp, verdict) == (0.125, "doomed") and clearance < 1.0
    # the margin search's roots clear the disk at the largest parameter
    [(dp, verdict, clearance)] = verdicts["margin-search"]
    assert (dp, verdict) == (0.225, "sound") and clearance >= 1.02
    assert res.delta == 2 * dp and dp > res.delta_certified / 2.0


def test_the_rung_is_fitted_to_the_roots_alone():
    import holant.evaluator as ev

    # P = 1 + 20 z: the root -0.05 has a preimage inside the disk at every
    # parameter in [DP_MIN, DELTA_CAP/2], so the rung is doomed at DP_MIN
    dp, verdict, clearance = ev._fit_rung([1.0, 20.0])
    assert (dp, verdict) == (0.125, "doomed")
    assert clearance == pytest.approx(math.expm1(0.4) / -math.expm1(-8.0))
    # a root-free P_G clears the disk at the largest parameter
    assert ev._fit_rung([1.0]) == (0.225, "sound", None)
    # the certified width is reported beside the fitted one, and takes no part
    res = approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05)
    [(dp, verdict, _)] = res.diagnostics["rung_verdicts"]["constructive"]
    assert (res.delta, verdict) == (2 * dp, "sound") and res.delta_certified < res.delta


def test_a_counted_zero_ends_the_rung_at_its_first_call(monkeypatch):
    # a sound rung whose first circle counts a zero of P(phi(z)) inside it
    # (here by a sample that says so) has failed the check on its root
    # verdict: the attempt ends at that call with no record, and with no
    # other transform the run is refused
    import holant.evaluator as ev

    monkeypatch.setattr(ev, "margin_search", lambda f: None)
    samples, calls = ev._log_derivative_samples, []

    def one_zero_inside(cv, phi, rho, n):
        calls.append(rho)
        return samples(cv, phi, rho, n) + 1.0  # g_0 grows by one

    monkeypatch.setattr(ev, "_log_derivative_samples", one_zero_inside)
    with pytest.raises(GuardExceeded, match="no rung clears the roots of P_G"):
        approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05)
    assert len(calls) == 1


def test_a_converged_fallback_of_the_classifier_is_labelled_and_not_searched_again(monkeypatch):
    # the construction fails its check here, so the classifier's transform
    # is the margin search's winner: the report says so, and the evaluator
    # does not run the same search again
    import holant.evaluator as ev
    from holant.classify import classify

    f = signature([1.0, 1.367317244433136, 1.8918822175832215, 0.0])
    assert classify(f).transform_source == "margin-search"

    def never(f):
        raise AssertionError("the margin search ran again")

    monkeypatch.setattr(ev, "margin_search", never)
    res = approximate_Z(complete(4), f, 0.05)
    assert res.converged and abs(res.estimate / float(brute_force_Z(complete(4), f)) - 1) <= 0.05
    assert res.diagnostics["transform_source"] == "margin-search"
    assert list(res.diagnostics["rung_verdicts"]) == ["margin-search"]


def test_nonconv9x4_converges_on_its_fitted_rung():
    # rung 0.125 needs more than K_GUARD terms here and rung 0.155
    # diverges; the fitted rung lies between them
    from holant.graphs import Multigraph

    g, f = Multigraph(9, NONCONV9X4), signature([1, 1, 0, 0, 0])
    res = approximate_Z(g, f, 0.05)
    assert res.converged
    assert 0.125 < res.delta / 2 < 0.155
    assert abs(res.estimate / float(brute_force_Z(g, f)) - 1) <= 0.05


# The fixed-graph instances of the benchmark's approx-ladder workload, with
# the stop index, transform, rung (delta = twice the phi parameter) and
# estimate: the K5 matchings and Petersen rows as their fitted rungs give
# them, the others as the step-by-step Newton recurrence gave them.  A
# kernel that changes the arithmetic must not move a stop.
STOP_GUARD = [
    ("K4", [1, 2, 3, 4], 0.05, 262, "margin-search", 0.45, 3106.676417363495),
    ("K4", [1, 2, 1, 1], 0.01, 608, "constructive", 0.45, 238.9915048481496),
    ("K5", [1, 2, 3, 4, 5], 0.01, 326, "margin-search", 0.45, 320760.6648147698),
    ("K5", [1, 1, 0, 0, 0], 0.05, 1114, "constructive", 0.3493192514404654, 25.968792591344915),
    ("petersen", [3, 1, 1, 1], 0.05, 556, "margin-search", 0.45, 717577.5700902912),
]


@pytest.mark.parametrize("name, vals, eps, k_used, source, delta, estimate", STOP_GUARD)
def test_stop_index_guard(name, vals, eps, k_used, source, delta, estimate):
    from holant.graphs import Multigraph

    g = Multigraph(10, PETERSEN) if name == "petersen" else complete(int(name[1:]))
    res = approximate_Z(g, signature(vals), eps)
    assert res.converged
    assert res.k_used == k_used
    assert res.diagnostics["transform_source"] == source
    assert res.delta == delta
    assert abs(res.estimate / estimate - 1) <= 1e-9


def _record_plans(monkeypatch):
    import holant.graphs as graphs

    plans = []
    plan = graphs._plan

    def record(*args):
        plans.append(args[1:])
        return plan(*args)

    monkeypatch.setattr(graphs, "_plan", record)
    return plans


def test_the_retry_runs_the_first_attempts_plan(monkeypatch):
    # [1,2,3,4] on K4 retries with the margin search's transform; both
    # attempts contract K4 with the same live lengths and strata, so the
    # graph plans once, and the answer is the one of a run that plans twice
    import holant.evaluator as ev
    from holant.graphs import Multigraph

    f = signature([1, 2, 3, 4])
    plans = _record_plans(monkeypatch)
    kept = approximate_Z(complete(4), f, 0.05)
    assert list(kept.diagnostics["rung_verdicts"]) == ["constructive", "margin-search"]
    assert len(plans) == 1

    naive = ev.naive_low_coeffs
    # each prefix on a fresh copy of the graph, which holds no plan yet
    monkeypatch.setattr(ev, "naive_low_coeffs", lambda g, f, k: naive(Multigraph(g.n, g.edges), f, k))
    plans.clear()
    fresh = approximate_Z(complete(4), f, 0.05)
    assert len(plans) == 2
    for name in ("estimate", "log_estimate", "k_used", "delta", "transform", "scale_factor", "reversed", "converged"):
        assert getattr(fresh, name) == getattr(kept, name)
    assert np.array_equal(fresh.diagnostics["estimates"], kept.diagnostics["estimates"])
    assert fresh.diagnostics["rung_verdicts"] == kept.diagnostics["rung_verdicts"]


def test_the_evaluators_contraction_gets_one_signature_object(monkeypatch):
    # every vertex of a regular graph carries the same cut of g', so the
    # contraction builds one table and checks one signature's type
    import holant.graphs as graphs

    received = []
    contract = graphs._contract

    def record(steps, final, sigs, opened):
        received.append({id(s) for s in sigs})
        return contract(steps, final, sigs, opened)

    monkeypatch.setattr(graphs, "_contract", record)
    approximate_Z(random_regular(14, 3, 1), signature([1, 1, 0, 0]), 0.05)
    assert received and all(len(ids) == 1 for ids in received)
