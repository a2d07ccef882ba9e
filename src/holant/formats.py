"""Text and JSON interchange formats.

Signature text: one line, arity-tagged, e.g. ``sig d=3 [1,1,0,0]``; the
JSON equivalent is ``{"arity": 3, "values": [...]}``.  Entries written as
integers or fractions ("1/2") stay exact and enable the rational oracle.

Graph files: a ``n m`` header line followed by m ``u v`` lines, 0-indexed,
with self-loops as ``u u``; ``#`` starts a comment.

Matrices are serialized as 2x2 arrays of [re, im] pairs.
"""

from __future__ import annotations

import contextlib
import json
import re
from fractions import Fraction

import numpy as np

from .classify import ClassificationOutcome
from .errors import ArgumentError
from .evaluator import ApproxResult
from .graphs import Multigraph, OpenGadget
from .signatures import SymmetricSignature, signature
from .stability import StabilityCertificate

_SIG_RE = re.compile(r"^\s*sig\s+d\s*=\s*(\d+)\s*\[([^\]]*)\]\s*$")


def parse_number(tok: str):
    tok = tok.strip()
    try:
        if "/" in tok:
            return Fraction(tok)
        try:
            return int(tok)
        except ValueError:
            return float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"not a number: {tok!r}") from exc


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ArgumentError(f"{what} must be an integer, got {tok!r}") from exc


def _json_number(v):
    """A signature entry from JSON: a number, or a string such as "1/2"."""
    if isinstance(v, bool):
        raise ArgumentError(f"signature entries must be numbers, got {v!r}")
    return parse_number(v) if isinstance(v, str) else v


def number_to_json(v):
    if isinstance(v, (tuple, list)):
        return [number_to_json(x) for x in v]
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v + 0.0  # drops the sign of -0.0
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v) + 0.0
    c = complex(v)
    if c.imag == 0:
        return c.real + 0.0
    return [c.real, c.imag]


@contextlib.contextmanager
def _malformed(what: str):
    """Report a missing or mistyped field of outside JSON as ArgumentError."""
    try:
        yield
    except ArgumentError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ArgumentError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def _signature_from_json(obj) -> SymmetricSignature:
    return signature([_json_number(v) for v in obj["values"]])


def parse_signature(text: str) -> SymmetricSignature:
    """Parse either the one-line text form or the JSON object form."""
    stripped = text.strip()
    if stripped.startswith("{"):
        with _malformed("signature JSON"):
            obj = json.loads(stripped)
            sig = _signature_from_json(obj)
            if "arity" in obj and int(obj["arity"]) != sig.arity:
                raise ArgumentError("arity field does not match the number of values")
        return sig
    m = _SIG_RE.match(stripped)
    if not m:
        raise ArgumentError("expected `sig d=<arity> [v0,v1,...]` or a JSON object")
    arity = int(m.group(1))
    values = [parse_number(t) for t in m.group(2).split(",") if t.strip()]
    sig = signature(values)
    if sig.arity != arity:
        raise ArgumentError(f"declared arity {arity} but {len(values)} values")
    return sig


def dump_signature(sig: SymmetricSignature) -> str:
    body = ",".join(str(v) for v in sig.values)
    return f"sig d={sig.arity} [{body}]"


def parse_graph(text: str) -> Multigraph:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ArgumentError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ArgumentError("graph header must be `n m`")
    n, m = _parse_int(head[0], "vertex count"), _parse_int(head[1], "edge count")
    if len(lines) - 1 != m:
        raise ArgumentError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ArgumentError(f"bad edge line: {ln!r}")
        edges.append((_parse_int(parts[0], "edge endpoint"), _parse_int(parts[1], "edge endpoint")))
    return Multigraph(n, tuple(edges))


def dump_graph(g: Multigraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def matrix_to_json(M) -> list:
    return [[[c.real + 0.0, c.imag + 0.0] for c in row] for row in M.rows()]


def certificate_to_json(cert: StabilityCertificate) -> dict:
    return {
        "eps": cert.eps,
        "margin": None if cert.margin == float("inf") else cert.margin,
        "roots": [[r.real, r.imag] for r in np.atleast_1d(np.asarray(cert.roots, dtype=complex))],
    }


def outcome_to_json(out: ClassificationOutcome) -> dict:
    doc = {"tag": out.tag, "params": {k: number_to_json(v) for k, v in out.params.items()}}
    if out.matrix is not None:
        doc["matrix"] = matrix_to_json(out.matrix)
        doc["use_reversal"] = out.use_reversal
    if out.certificate is not None:
        doc["certificate"] = certificate_to_json(out.certificate)
    return doc


def approx_to_json(res: ApproxResult) -> dict:
    """The report of an approx run.  Of the k_used estimates it keeps the
    four the stop test compares, ``stop_window``: those at the 1-based
    indices j//2, j-2, j-1 and j for j = k_used (each at least 1), also
    for an unconverged record."""
    j = res.k_used
    window = [res.diagnostics["estimates"][max(i, 1) - 1] for i in (j // 2, j - 2, j - 1, j)]
    return {
        "estimate": res.estimate,
        "log_estimate": res.log_estimate,
        "k_used": res.k_used,
        "eps_requested": res.eps_requested,
        "eps_certificate": res.eps_certificate,
        "delta": res.delta,
        "delta_certified": res.delta_certified,
        "transform": matrix_to_json(res.transform),
        "scale_factor": res.scale_factor,
        "reversed": res.reversed,
        "converged": res.converged,
        "diagnostics": {
            "stop_window": [float(x) for x in window],
            "rung_sound": res.diagnostics["rung_sound"],
            "rungs_tried": res.diagnostics["rungs_tried"],
            "self_check": res.diagnostics["self_check"],
            "transform_source": res.diagnostics["transform_source"],
            "rung_verdicts": res.diagnostics["rung_verdicts"],
            "phi_order": res.diagnostics["phi_order"],
            "phi_alpha": res.diagnostics["phi_alpha"],
        },
    }


def parse_gadget(text: str):
    """Gadget JSON: inner graph, dangling list, named signatures, edge signature.

    Schema: {"n": int, "edges": [[u,v],...], "dangling": [[vertex,count],...],
             "signatures": {name: {"arity":..,"values":[..]}},
             "assign": [name per vertex], "edge_signature": [b0,b1,b2]}
    """
    with _malformed("gadget JSON"):
        obj = json.loads(text)
        g = Multigraph(int(obj["n"]), tuple((int(u), int(v)) for u, v in obj["edges"]))
        named = {name: _signature_from_json(spec) for name, spec in obj["signatures"].items()}
        assign = tuple(named[name] for name in obj["assign"])
        dangling = tuple((int(v), int(c)) for v, c in obj["dangling"])
        edge_sig = [_json_number(v) for v in obj["edge_signature"]]
        return OpenGadget(g, dangling, assign), edge_sig


def roots_csv(rows) -> str:
    """CSV of roots: columns re,im,poly_id."""
    lines = ["re,im,poly_id"]
    for r, poly_id in rows:
        c = complex(r)
        lines.append(f"{c.real!r},{c.imag!r},{poly_id}")
    return "\n".join(lines) + "\n"
