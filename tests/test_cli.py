import hashlib
import json
import math
import time

import pytest

from holant.cli import main
from holant.errors import ArgumentError
from holant.formats import (
    dump_graph,
    dump_signature,
    parse_graph,
    parse_signature,
    roots_csv,
)
from holant.graphs import complete, random_regular
from holant.signatures import signature


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "matchings": write("matchings.sig", "sig d=3 [1,1,0,0]\n"),
        "pm": write("pm.sig", "sig d=3 [0,1,0,1/2]\n"),
        "ising": write("ising.sig", "sig d=3 [9,6,6,9]\n"),
        "even": write("even.sig", "sig d=2 [1,0,1]\n"),
        "sine": write("sine.sig", json.dumps({"arity": 3, "values": [0, 1, 2, 0]})),
        "evensub": write("evensub.sig", "sig d=3 [1,0,1,0]\n"),
        "k4": write("k4.graph", dump_graph(complete(4))),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_signature_round_trip():
    f = signature([1, 1, 0, 0])
    assert parse_signature(dump_signature(f)).values == f.values
    g = parse_signature('{"arity": 3, "values": [1, "1/2", 0.25, 0]}')
    assert g.values[1] == 0.5 or str(g.values[1]) == "1/2"


def test_graph_round_trip():
    g = complete(4)
    assert parse_graph(dump_graph(g)).edges == g.edges


def test_classify_exit_codes(capsys, files):
    code, out, _ = run(capsys, "classify", files["matchings"])
    assert code == 0
    assert json.loads(out)["outcome"]["tag"] == "StableTransform"

    code, out, _ = run(capsys, "classify", files["pm"])
    assert code == 4
    doc = json.loads(out)["outcome"]
    assert doc["tag"] == "PMEquivalent" and abs(doc["params"]["lambda"] - 0.5) < 1e-12

    code, out, _ = run(capsys, "classify", files["ising"])
    assert code == 3
    assert json.loads(out)["outcome"]["tag"] == "FerroIsing"

    code, out, _ = run(capsys, "classify", files["sine"])
    assert code == 5


def test_exact_command(capsys, files):
    code, out, _ = run(capsys, "exact", files["matchings"], files["k4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"]["value"] == 10 and doc["outcome"]["exact"]


def test_a_crlf_input_keeps_its_digest_and_its_parse(capsys, tmp_path):
    # an input is read once: the report's digest is the sha256 of its raw
    # bytes, and its text is read with universal newlines
    texts = {"signature": "sig d=3 [1,1,0,0]\n", "graph": dump_graph(complete(4))}
    outcomes = []
    for sep in ("\n", "\r\n"):
        paths, digests = [], {}
        for name, text in texts.items():
            raw = text.replace("\n", sep).encode()
            path = tmp_path / f"{name}{len(sep)}"
            path.write_bytes(raw)
            paths.append(str(path))
            digests[name] = hashlib.sha256(raw).hexdigest()[:16]
        code, out, _ = run(capsys, "exact", *paths)
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"] == digests
        outcomes.append(doc["outcome"])
    assert outcomes[0] == outcomes[1] == {"value": 10, "exact": True}


def test_approx_routes_stable(capsys, files):
    code, out, _ = run(capsys, "approx", files["matchings"], files["k4"], "--eps", "0.05")
    assert code == 0
    doc = json.loads(out)["outcome"]
    assert doc["method"] == "taylor"
    assert 9.5 <= doc["estimate"] <= 10.5


def test_approx_routes_exact_poly(capsys, files):
    code, out, _ = run(capsys, "approx", files["evensub"], files["k4"])
    assert code == 0
    doc = json.loads(out)["outcome"]
    # even subgraphs of K4: cycle space of dimension m - n + 1 = 3
    assert doc["method"] == "oracle" and doc["value"] == 8


def test_approx_routes_pm(capsys, files):
    code, out, _ = run(capsys, "approx", files["pm"], files["k4"])
    assert code == 4


def test_approx_routes_labels(capsys, files):
    code, out, _ = run(capsys, "approx", files["ising"], files["k4"])
    assert code == 3
    assert json.loads(out)["outcome"]["params"]["beta"] == pytest.approx(1.25)
    code, _, _ = run(capsys, "approx", files["sine"], files["k4"])
    assert code == 5


def test_quiet_mode(capsys, files):
    code, out, _ = run(capsys, "--quiet", "exact", files["matchings"], files["k4"])
    assert code == 0 and out.strip() == "10"


def test_reports_are_deterministic(capsys, files):
    _, out1, _ = run(capsys, "approx", files["matchings"], files["k4"])
    _, out2, _ = run(capsys, "approx", files["matchings"], files["k4"])
    assert out1 == out2  # timestamps only appear under --timing


def test_gen_pipeline(capsys, files, tmp_path):
    out_path = str(tmp_path / "gen.graph")
    code, _, _ = run(capsys, "gen", "--kind", "random", "--n", "8", "--d", "3", "--seed", "11", "-o", out_path)
    assert code == 0
    g = parse_graph(open(out_path).read())
    assert g.is_regular(3)
    code, _, _ = run(capsys, "gen", "--kind", "random", "--n", "8", "--d", "3", "--seed", "11", "-o", out_path)
    assert parse_graph(open(out_path).read()).edges == g.edges


def test_zeros_family(capsys, files):
    code, out, _ = run(capsys, "zeros", files["even"], "--family", "cycle", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,poly_id"
    assert len(lines) == 6  # five roots of 1 + z^5


def test_coeffs_command_engines_agree(capsys, files):
    code, out1, _ = run(capsys, "coeffs", files["matchings"], files["k4"], "--k", "3", "--engine", "naive")
    assert code == 0
    code, out2, _ = run(capsys, "coeffs", files["matchings"], files["k4"], "--k", "3", "--engine", "additive")
    assert code == 0
    c1 = json.loads(out1)["outcome"]["coeffs"]
    c2 = json.loads(out2)["outcome"]["coeffs"]
    assert all(abs(a - b) < 1e-9 for a, b in zip(c1, c2))


def test_exact_needs_no_flag_past_the_old_edge_limit(capsys, files, tmp_path):
    big = str(tmp_path / "big.graph")
    run(capsys, "gen", "--kind", "random", "--n", "20", "--d", "3", "--seed", "1", "-o", big)  # 30 edges
    code, out, _ = run(capsys, "exact", files["matchings"], big)
    assert code == 0
    assert json.loads(out)["outcome"]["value"] == 113532


def test_approx_oracle_route_runs_under_the_plan_alone(capsys, files, tmp_path):
    big = tmp_path / "big.graph"
    big.write_text(dump_graph(random_regular(28, 3, seed=1)))  # 42 edges, connected
    code, out, _ = run(capsys, "approx", files["evensub"], str(big))
    assert code == 0
    doc = json.loads(out)["outcome"]
    assert doc["method"] == "oracle" and doc["value"] == 2 ** (42 - 28 + 1)  # the cycle space


def test_guard_refusal_exit_code(capsys, files, monkeypatch):
    import holant.graphs as graphs

    monkeypatch.setattr(graphs, "ENTRY_CAP", 8)
    code, out, err = run(capsys, "exact", files["matchings"], files["k4"])
    assert code == 2 and out == ""
    assert "entries" in json.loads(err)["refusal"]


def test_coeffs_full_prefix_past_the_old_edge_limit(capsys, files, tmp_path):
    big = tmp_path / "big.graph"
    big.write_text(dump_graph(random_regular(30, 3, seed=1)))  # 45 edges
    code, out, _ = run(capsys, "coeffs", files["matchings"], str(big), "--k", "45")
    assert code == 0
    assert len(json.loads(out)["outcome"]["coeffs"]) == 46


def test_approx_past_the_hard_edge_limit_is_refused_at_once(capsys, files, tmp_path):
    big = tmp_path / "big.graph"
    big.write_text(dump_graph(random_regular(28, 3, seed=1)))  # 42 edges
    started = time.perf_counter()
    code, out, err = run(capsys, "approx", files["matchings"], str(big))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "evaluator's limit" in json.loads(err)["refusal"]


def test_approx_report_names_transform_and_phi(capsys, files):
    code, out, _ = run(capsys, "approx", files["matchings"], files["k4"])
    assert code == 0
    diag = json.loads(out)["outcome"]["diagnostics"]
    assert diag["transform_source"] in ("constructive", "margin-search")
    assert diag["phi_order"] >= 1 and 0 < diag["phi_alpha"] < 1


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("gadget", "bad.gadget", json.dumps({"n": 2})),
        ("exact", "bad.sig", json.dumps({"values": 5})),
    ],
)
def test_malformed_json_input_is_a_json_error(capsys, files, command, name, text):
    path = files["dir"] / name
    path.write_text(text)
    argv = [command, str(path)] + ([files["k4"]] if command == "exact" else [])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "malformed" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command,parse,text",
    [
        ("exact", parse_signature, json.dumps({"values": [True, 1]})),
        ("exact", parse_signature, "sig d=1 [1,x]"),
        ("approx", parse_graph, "1 1\n0 x\n"),
    ],
    ids=["json-boolean-entry", "text-entry-not-a-number", "graph-endpoint-not-an-integer"],
)
def test_malformed_input_raises_argument_error(capsys, files, command, parse, text):
    with pytest.raises(ArgumentError):
        parse(text)
    path = files["dir"] / "bad.input"
    path.write_text(text)
    argv = [command, str(path), files["k4"]] if parse is parse_signature else [command, files["matchings"], str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "error" in json.loads(err)


def test_a_negative_vertex_count_is_bad_input(capsys, files):
    # a header of -1 vertices was once answered: exact printed 1 and approx
    # a converged g0^-1.  No vertices at all stays valid, with Z = 1
    graph = files["dir"] / "neg.graph"
    for command in ("exact", "approx"):
        graph.write_text("-1 0\n")
        code, out, err = run(capsys, command, files["matchings"], str(graph))
        assert code == 1 and out == "" and "non-negative" in json.loads(err)["error"]
        graph.write_text("0 0\n")
        code, out, _ = run(capsys, "--quiet", command, files["matchings"], str(graph))
        assert code == 0 and float(out) == 1.0
    gadget = files["dir"] / "neg.gadget"
    doc = {"n": -1, "edges": [], "dangling": [], "signatures": {}, "assign": [], "edge_signature": [1, 0, 1]}
    gadget.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gadget", str(gadget))
    assert code == 1 and out == "" and "non-negative" in json.loads(err)["error"]


def test_a_dangling_entry_off_the_gadget_is_bad_input(capsys, files):
    # a vertex past the end once raised IndexError, and -1 named the last vertex
    gadget = files["dir"] / "off.gadget"
    for vertex in (2, -1):
        doc = {"n": 2, "edges": [[0, 1]], "dangling": [[0, 1], [vertex, 1]],
               "signatures": {"f": {"values": [1, 1, 0]}}, "assign": ["f", "f"], "edge_signature": [1, 0, 1]}
        gadget.write_text(json.dumps(doc))
        code, out, err = run(capsys, "gadget", str(gadget))
        assert code == 1 and out == "" and "dangling entry" in json.loads(err)["error"]


def test_unconverged_approx_exits_6_with_its_report(capsys, files, monkeypatch):
    # with the truncation guard below every rung's convergence floor no
    # estimate can stabilize; the report still comes out on stdout
    import holant.evaluator as ev

    monkeypatch.setattr(ev, "K_GUARD", 20)
    code, out, _ = run(capsys, "approx", files["matchings"], files["k4"])
    assert code == 6
    outcome = json.loads(out)["outcome"]
    assert outcome["converged"] is False and outcome["k_used"] == 20


def test_gadget_command(capsys, files):
    gadget = {
        "n": 3,
        "edges": [[0, 1], [1, 2], [2, 0]],
        "dangling": [[0, 1], [1, 1], [2, 1]],
        "signatures": {"one": {"arity": 3, "values": [0, 1, 0, 0]}},
        "assign": ["one", "one", "one"],
        "edge_signature": [1, 0, 1],
    }
    path = files["dir"] / "triangle.gadget"
    path.write_text(json.dumps(gadget))
    code, out, _ = run(capsys, "gadget", str(path))
    assert code == 0
    assert json.loads(out)["outcome"]["effective_signature"] == [0, 1, 0, 1]


def test_roots_csv_format():
    text = roots_csv([(1 + 2j, "p0"), (-0.5, "p0")])
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,poly_id"
    assert lines[1].startswith("1.0,2.0,")


@pytest.mark.parametrize("command", ["approx", "exact"])
def test_a_non_finite_outcome_is_refused(capsys, files, tmp_path, command):
    # Z is about 1e520: g0**n overflows in approx, the float contraction in exact
    sig = tmp_path / "huge.sig"
    sig.write_text("sig d=3 [1e20,1e20,0,0]\n")
    graph = str(tmp_path / "g26.graph")
    run(capsys, "gen", "--kind", "random", "--n", "26", "--d", "3", "--seed", "1", "-o", graph)
    for quiet in ([], ["--quiet"]):
        code, out, err = run(capsys, *quiet, command, str(sig), graph)
        assert code == 2 and out == ""
        assert "not finite" in json.loads(err)["refusal"]


def test_approx_reports_log_estimate(capsys, files):
    code, out, _ = run(capsys, "approx", files["matchings"], files["k4"])
    assert code == 0
    doc = json.loads(out)["outcome"]
    assert doc["log_estimate"] == pytest.approx(math.log(doc["estimate"]), rel=1e-12)


def test_an_unconverged_report_stays_small(capsys, files):
    # a K_GUARD-long record: the report keeps the four estimates the stop
    # test compares, not all k_used of them.  This signature's fitted rung
    # on K4 (about 0.127) is sound but does not settle within K_GUARD terms
    import holant.evaluator as ev
    from holant.formats import approx_to_json

    vals = [1, 0, 18.345927964595127, 13.167579491753933]
    sig = files["dir"] / "f.sig"
    sig.write_text(f"sig d=3 {vals}\n")
    graph = files["dir"] / "k4.graph"
    graph.write_text(dump_graph(complete(4)))
    code, out, _ = run(capsys, "approx", str(sig), str(graph), "--eps", "0.05")
    assert code == 6 and len(out.encode()) < 4096
    outcome = json.loads(out)["outcome"]
    assert outcome["k_used"] == ev.K_GUARD and "estimates" not in outcome["diagnostics"]
    window = outcome["diagnostics"]["stop_window"]
    assert len(window) == 4 and window[-1] == outcome["estimate"]

    res = ev.approximate_Z(complete(4), signature(vals), 0.05)
    j, estimates = res.k_used, res.diagnostics["estimates"]
    assert len(estimates) == j
    want = [float(estimates[i - 1]) for i in (j // 2, j - 2, j - 1, j)]
    assert approx_to_json(res)["diagnostics"]["stop_window"] == want


def test_the_stop_window_of_a_short_record_starts_at_index_1():
    import dataclasses

    import holant.evaluator as ev
    from holant.formats import approx_to_json

    res = dataclasses.replace(ev.approximate_Z(complete(4), signature([1, 1, 0, 0]), 0.05), k_used=2)
    first, second = (float(x) for x in res.diagnostics["estimates"][:2])
    assert approx_to_json(res)["diagnostics"]["stop_window"] == [first, first, first, second]


def test_approx_of_a_construction_that_a_grid_missed_reports(capsys, files):
    # once refused at classification (exit 1); now it is classified, but
    # every rung of its transform is doomed on this graph, so the run
    # reports a refusal (exit 2) instead of an estimate
    sig = files["dir"] / "f.sig"
    sig.write_text("sig d=3 [1,39.1393,0,1.7058]\n")
    graph = files["dir"] / "g.graph"
    graph.write_text(dump_graph(random_regular(8, 3, 1)))
    code, out, err = run(capsys, "approx", str(sig), str(graph))
    assert code == 2 and out == ""
    assert json.loads(err)["refusal"] == "no rung clears the roots of P_G"
    code, out, _ = run(capsys, "classify", str(sig))
    assert code == 0 and json.loads(out)["outcome"]["tag"] == "StableTransform"