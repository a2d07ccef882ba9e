"""Command-line interface.

Every subcommand prints a JSON run report (deterministic for fixed inputs
and seeds; pass --timing to include wall time) or, with --quiet, just the
scalar outcome.  Exit codes: 0 success, 1 bad input, 2 guard refusal,
3 ferromagnetic-Ising label, 4 perfect-matching-equivalent label,
5 open sine-profile label, 6 approximation not converged (the report is
still printed, with ``converged: false``).  An outcome that is not finite
in double precision (say, Z past 1.8e308) is refused with exit 2: nothing
on stdout and a JSON refusal on stderr.  ``approx`` reports
``log_estimate``, the natural log of |estimate|, which stays finite there.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import formats
from .classify import (
    DEGENERATE,
    EXACT_POLY_TIME,
    FERRO_ISING,
    IDENTICALLY_ZERO,
    PM_EQUIVALENT,
    STABLE_TRANSFORM,
    TYPE_I,
    classify,
)
from .coeffs import (
    PowerSums,
    additive_power_sums,
    coeffs_from_power_sums,
    naive_low_coeffs,
    power_sums_from_coeffs,
)
from .errors import GuardExceeded, HolantError
from .evaluator import approximate_Z
from .graphs import (
    brute_force_Z,
    brute_force_coeffs,
    complete,
    compose_gadget,
    cycle,
    petersen,
    random_regular,
)
from .signatures import normalize_leading
from .stability import Poly, find_roots

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GUARD = 2
EXIT_FERRO = 3
EXIT_PM = 4
EXIT_TYPE1 = 5
EXIT_UNCONVERGED = 6

_TAG_EXIT = {
    FERRO_ISING: EXIT_FERRO,
    PM_EQUIVALENT: EXIT_PM,
    TYPE_I: EXIT_TYPE1,
}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report(args, inputs: dict, outcome: dict, started: float, quiet_value=None) -> None:
    """Print the report, or its scalar under --quiet; an outcome that holds
    an infinity or a NaN is refused with GuardExceeded, before anything is
    printed."""
    doc = {
        "command": args.command,
        "inputs": {k: _digest(v) for k, v in inputs.items()},
        "outcome": outcome,
    }
    if args.timing:
        doc["wall_ms"] = round(1000.0 * (time.perf_counter() - started), 3)
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        raise GuardExceeded("the outcome is not finite in double precision") from None
    print(quiet_value if args.quiet and quiet_value is not None else text)


def _load_graph(args):
    if getattr(args, "family", None):
        n = args.n
        if args.family == "cycle":
            return cycle(n), f"cycle({n})"
        if args.family == "complete":
            return complete(n), f"complete({n})"
        if args.family == "petersen":
            return petersen(), "petersen"
        raise HolantError(f"unknown family {args.family!r}")
    return formats.parse_graph(_read(args.graph)), args.graph


def cmd_classify(args) -> int:
    started = time.perf_counter()
    sig = formats.parse_signature(_read(args.signature))
    outcome = classify(sig)
    _report(args, {"signature": args.signature}, formats.outcome_to_json(outcome), started, outcome.tag)
    return _TAG_EXIT.get(outcome.tag, EXIT_OK)


def cmd_approx(args) -> int:
    started = time.perf_counter()
    sig = formats.parse_signature(_read(args.signature))
    g = formats.parse_graph(_read(args.graph))
    outcome = classify(sig)
    inputs = {"signature": args.signature, "graph": args.graph}

    if outcome.tag == STABLE_TRANSFORM:
        res = approximate_Z(g, sig, args.eps, outcome)
        doc = {"method": "taylor", "classification": outcome.tag, **formats.approx_to_json(res)}
        _report(args, inputs, doc, started, res.estimate)
        return EXIT_OK if res.converged else EXIT_UNCONVERGED
    if outcome.tag == IDENTICALLY_ZERO:
        _report(args, inputs, {"method": "trivial", "classification": outcome.tag, "value": 0}, started, 0)
        return EXIT_OK
    if outcome.tag in (EXACT_POLY_TIME, DEGENERATE):
        val = brute_force_Z(g, sig)
        doc = {
            "method": "oracle",
            "classification": outcome.tag,
            "value": formats.number_to_json(val),
        }
        _report(args, inputs, doc, started, val)
        return EXIT_OK
    if outcome.tag in _TAG_EXIT:
        _report(args, inputs, formats.outcome_to_json(outcome), started, outcome.tag)
        return _TAG_EXIT[outcome.tag]
    # NoRecurrence: nothing in this package applies
    _report(args, inputs, {"refusal": "no second-order recurrence", "classification": outcome.tag}, started)
    return EXIT_GUARD


def cmd_exact(args) -> int:
    started = time.perf_counter()
    sig = formats.parse_signature(_read(args.signature))
    g = formats.parse_graph(_read(args.graph))
    val = brute_force_Z(g, sig)
    doc = {"value": formats.number_to_json(val), "exact": sig.is_exact}
    _report(args, {"signature": args.signature, "graph": args.graph}, doc, started, val)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    started = time.perf_counter()
    sig = formats.parse_signature(_read(args.signature))
    g = formats.parse_graph(_read(args.graph))
    norm, scale, rev = normalize_leading(sig)
    if args.engine == "naive":
        c = naive_low_coeffs(g, norm, args.k)
        p = PowerSums(power_sums_from_coeffs([complex(x) for x in c], g.m, min(args.k, g.m)))
        coeff_json = [formats.number_to_json(x) for x in c]
    else:
        p = additive_power_sums(g, norm, args.k)
        c = coeffs_from_power_sums(p, args.k)
        coeff_json = [formats.number_to_json(x) for x in c]
    doc = {
        "engine": args.engine,
        "k": args.k,
        "normalization": {"scale": formats.number_to_json(scale), "reversed": rev},
        "coeffs": coeff_json,
        "power_sums": [formats.number_to_json(x) for x in p.values],
    }
    _report(args, {"signature": args.signature, "graph": args.graph}, doc, started)
    return EXIT_OK


def cmd_zeros(args) -> int:
    sig = formats.parse_signature(_read(args.signature))
    if args.graph is None and args.family is None:
        raise HolantError("zeros needs a graph file or --family/--n")
    g, label = _load_graph(args)
    coeffs = brute_force_coeffs(g, sig)
    poly = Poly(tuple(complex(x) for x in coeffs))
    roots = find_roots(poly) if poly.degree >= 1 else np.array([])
    sys.stdout.write(formats.roots_csv((r, label) for r in roots))
    return EXIT_OK


def cmd_gadget(args) -> int:
    started = time.perf_counter()
    gadget, edge_sig = formats.parse_gadget(_read(args.gadget))
    eff = compose_gadget(gadget, edge_sig)
    doc = {"effective_signature": [formats.number_to_json(x) for x in eff]}
    _report(args, {"gadget": args.gadget}, doc, started)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "random":
        if args.n is None or args.d is None:
            raise HolantError("--kind random needs --n and --d")
        g = random_regular(args.n, args.d, args.seed)
    elif args.kind == "cycle":
        g = cycle(args.n)
    elif args.kind == "complete":
        g = complete(args.n)
    elif args.kind == "petersen":
        g = petersen()
    else:
        raise HolantError(f"unknown kind {args.kind!r}")
    text = formats.dump_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and reused after it."""
    ap = argparse.ArgumentParser(prog="holant", description=__doc__)
    ap.add_argument("--quiet", action="store_true", help="print only the scalar outcome")
    ap.add_argument("--timing", action="store_true", help="include wall time in reports")
    ap.add_argument("--threads", type=int, default=None, help="ignored; the exact oracle runs on one thread")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a signature")
    p.add_argument("signature")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("approx", help="approximate Z, routing by classification")
    p.add_argument("signature")
    p.add_argument("graph")
    p.add_argument("--eps", type=float, default=0.05)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("exact", help="exact oracle")
    p.add_argument("signature")
    p.add_argument("graph")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("coeffs", help="low-order coefficients / power sums")
    p.add_argument("signature")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--engine", choices=("naive", "additive"), default="naive")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("zeros", help="CSV of exact edge-polynomial roots")
    p.add_argument("signature")
    p.add_argument("graph", nargs="?")
    p.add_argument("--family", choices=("cycle", "complete", "petersen"))
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("gadget", help="effective signature of an open gadget")
    p.add_argument("gadget")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("gen", help="write a graph file")
    p.add_argument("--kind", required=True, choices=("random", "cycle", "complete", "petersen"))
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(json.dumps({"refusal": str(exc)}), file=sys.stderr)
        return EXIT_GUARD
    except (HolantError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
