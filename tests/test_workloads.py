"""The benchmark's correctness gate, run as a test.

``bench/workloads.py`` builds each workload's CLI invocations from a seed
and checks every report against an exact Z that ``bench/reference.py``
computes without ``holant``.  This runs every invocation of the three
workloads at seeds 1-3 through ``holant.cli.main`` and asserts that each
report passes that check, so a change that would make the benchmark count
a wrong or refused answer fails here first.  ``bench/`` is only read.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from holant.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # workloads imports reference by name
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["approx-enum", "approx-ladder", "exact"])
def test_every_report_passes_the_benchmark_check(workloads, workload, seed, tmp_path):
    failed = []
    for i, inv in enumerate(workloads.build(workload, seed)):
        directory = tmp_path / str(i)
        directory.mkdir()
        for name, text in inv.files.items():
            (directory / name).write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["--threads", "1"] + inv.argv(str(directory)))
        if not workloads.check(inv, rc, out.getvalue()):
            failed.append((inv.label, rc))
    assert not failed
