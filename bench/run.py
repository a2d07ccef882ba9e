"""Benchmark of the `holant` CLI: approx, exact and gadget, checked against an exact Z.

Usage, from the root of a checkout:

    python3 bench/run.py --workload approx-enum --seed 1 --seconds 40 --trace 0

One client on one thread runs a closed loop of sweeps; a sweep runs each
of the workload's invocations once through ``holant.cli.main(argv)`` in
this process, so an invocation does everything the `holant` command does
except start the interpreter, which ``setup_s`` measures.  Each report is
checked against the exact Z that ``reference.py`` computes without
``holant``.  Each invocation's wall time is divided by the median time of
the frozen reference loop (``refloop.py``) run just before and just after
it, which cancels most of the machine's speed drift.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` traced and untraced sweeps
alternate and it holds the per-layer metrics and the tracing overhead.
A fuller run report goes to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from refloop import time_reference_loop
from tracing import Tracer
from workloads import WORKLOADS, build, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_LAUNCHES = 7
MIN_SWEEPS = 3
REF_LOOPS = 2  # reference loops between two invocations


def import_holant() -> dict:
    """The holant modules, imported from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    try:
        from holant import cli, coeffs, evaluator, formats, transform
    except ImportError as exc:
        sys.exit(f"cannot import holant from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"holant was imported from {cli.__file__}, not from {SRC}")
    return {"cli": cli, "coeffs": coeffs, "evaluator": evaluator, "formats": formats, "transform": transform}


def measure_setup() -> list:
    """Seconds from launching a fresh interpreter to ``holant.cli`` imported.

    The child prints its monotonic clock right after the import; that clock
    is shared by all processes.  One launch before the measured ones fills
    the bytecode cache.
    """
    code = "import time\nimport holant.cli\nprint(time.perf_counter())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.split()[-1]) - start)
    return times


def invoke(cli, argv: list):
    """(exit code, stdout, seconds) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc = -1
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read as files; "unknown" without it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer: Tracer, k_used_sum: int) -> dict:
    series = tracer.counts["evaluator.series_terms"]
    return {
        "graphs.brute_force_coeffs_s": tracer.total["graphs.brute_force_coeffs"],
        "coeffs.naive_low_coeffs_s": tracer.total["coeffs.naive_low_coeffs"],
        "graphs.assignments": tracer.counts["graphs.assignments"],
        "graphs.brute_force_Z_s": tracer.total["graphs.brute_force_Z"],
        "graphs.compose_gadget_s": tracer.total["graphs.compose_gadget"],
        "stability.h_eps_stability_calls": tracer.calls["stability.h_eps_stability"],
        "stability.find_roots_s": tracer.total["stability.find_roots"],
        "transform.apply_holographic_calls": tracer.calls["transform.apply_holographic"],
        "evaluator.compose_prefix_s": tracer.total["evaluator.compose_prefix"],
        "evaluator.compose_prefix_calls": tracer.calls["evaluator.compose_prefix"],
        "coeffs.power_sums_from_coeffs_s": tracer.total["coeffs.power_sums_from_coeffs"],
        "evaluator.series_terms": series,
        "evaluator.k_used_sum": k_used_sum,
        "evaluator.useful_terms_ratio": k_used_sum / series if series else 0.0,
        "evaluator.self_s": tracer.self_time["evaluator.approximate_Z"],
        "classify.s": tracer.total["classify.classify"],
        "formats.s": tracer.layer_total["formats"],
        "cli.self_s": tracer.self_time["cli.main"],
    }


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def sweep_ref(samples: list) -> float:
    """Sum over the sweep's invocations of each one's median normalised time."""
    return sum(statistics.median(s) for s in samples)


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    modules = import_holant()
    cli = modules["cli"]
    setup_times = measure_setup()

    invocations = build(args.workload, args.seed)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    argvs = []
    for i, inv in enumerate(invocations):
        directory = run_dir / str(i)
        directory.mkdir(parents=True)
        for name, text in inv.files.items():
            (directory / name).write_text(text)
        argvs.append(["--threads", "1"] + inv.argv(str(directory)))

    count = len(invocations)
    modes = ("plain", "traced") if args.trace else ("plain",)
    refs = []  # every reference-loop time, in run order
    timings = []  # (mode, invocation index, seconds, position in refs)
    layers = []
    attempted = failed = 0
    correct = True
    wrong = set()
    sweeps = 0
    gc.collect()
    gc.freeze()  # what set-up built is not rescanned, as in a fresh CLI process
    started = time.perf_counter()
    refs.extend(time_reference_loop() for _ in range(REF_LOOPS))
    while True:
        sweep_start = time.perf_counter()
        mode = modes[sweeps % len(modes)]
        tracer = Tracer() if mode == "traced" else None
        if tracer:
            tracer.install(modules)
        k_used_sum = 0
        for i, inv in enumerate(invocations):
            gc.collect()
            rc, out, elapsed = invoke(cli, argvs[i])
            timings.append((mode, i, elapsed, len(refs)))
            refs.extend(time_reference_loop() for _ in range(REF_LOOPS))
            ok = check(inv, rc, out)
            attempted += 1
            if not ok:
                failed += 1
                if not inv.known_fault:
                    correct = False
                    wrong.add(inv.label)
            if tracer and inv.kind == "approx" and rc == 0:
                k_used_sum += json.loads(out)["outcome"].get("k_used", 0)
        if tracer:
            tracer.uninstall()
            layers.append(layer_metrics(tracer, k_used_sum))
        sweeps += 1
        per_sweep = time.perf_counter() - sweep_start
        if sweeps >= MIN_SWEEPS * len(modes) and sweeps % len(modes) == 0 \
                and time.perf_counter() - started + per_sweep * len(modes) > args.seconds:
            break
    shutil.rmtree(run_dir)

    # each time is divided by the median of the reference loops just before
    # and just after it, which follows the machine's speed but not one
    # loop's hiccup
    norm = {mode: [[] for _ in range(count)] for mode in modes}
    raw = {mode: [[] for _ in range(count)] for mode in modes}
    for mode, i, elapsed, pos in timings:
        norm[mode][i].append(elapsed / statistics.median(refs[pos - REF_LOOPS : pos + REF_LOOPS]))
        raw[mode][i].append(elapsed)

    plain = norm["plain"]
    if args.trace:
        metrics = {name: {"value": statistics.median(d[name] for d in layers), "unit": unit(name)}
                   for name in layers[0]}
        overhead = sweep_ref(norm["traced"]) - sweep_ref(plain)
        metrics["trace.overhead_ref"] = {"value": overhead, "unit": "ref"}
    else:
        metrics = {
            "sweep_ref": {"value": sweep_ref(plain), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sweeps": sweeps,
        "attempted": attempted,
        "failed": failed,
        "wrong": sorted(wrong),
        "ref_loop_s": {"median": statistics.median(refs), "quartiles": quartiles(refs)},
        "sweep_raw_s": sum(statistics.median(s) for s in raw["plain"]),
        "setup_launches_s": setup_times,
        "invocations": [
            {"label": inv.label, "known_fault": inv.known_fault,
             "median_ref": statistics.median(plain[i]), "median_s": statistics.median(raw["plain"][i]),
             "samples": len(plain[i])}
            for i, inv in enumerate(invocations)
        ],
        "metrics": metrics,
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: report[k] for k in ("workload", "seed", "git_sha", "python", "numpy", "nproc", "sweeps",
                                            "ref_loop_s", "sweep_raw_s", "wrong")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
