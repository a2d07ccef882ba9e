"""Every function that the benchmark's tracer wraps must exist in holant.

``bench/tracing.py`` wraps functions by (module, attribute) name.  The
benchmark's own tests are not collected here, so a pruned import would
otherwise break ``bench/run.py --trace 1`` unseen.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"holant.{module}.{attr}"
        for module, attr in tracing._POINTS
        if not callable(getattr(importlib.import_module(f"holant.{module}"), attr, None))
    ]
    assert tracing._POINTS and not missing
