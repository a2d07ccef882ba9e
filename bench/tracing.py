"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces public ``holant`` functions with timing
wrappers in the module namespaces where their callers look them up (for
example ``holant.evaluator.h_eps_stability``, which the evaluator calls,
and ``holant.coeffs.brute_force_coeffs``, which ``naive_low_coeffs``
calls), and ``uninstall`` puts the originals back.  Each span adds its
duration to its parent's child time, so a span's self time is its
duration minus its traced children.  A function's total time counts only
its outermost calls, and a layer's total counts only spans with no
ancestor in the same layer, so recursion and nesting are not counted
twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


def _oracle_assignments(args, kwargs) -> int:
    return 2 ** args[0].m


def _gadget_assignments(args, kwargs) -> int:
    gadget = args[0]
    return 2 ** (2 * gadget.graph.m + gadget.boundary_size)


def _series_terms(args, kwargs) -> int:
    k = args[2] if len(args) > 2 else kwargs["k"]
    return k + 1


# counter name -> {span name: amount its call adds}
_COUNTERS = {
    "graphs.assignments": {"graphs.brute_force_coeffs": _oracle_assignments, "graphs.brute_force_Z": _oracle_assignments,
                           "graphs.compose_gadget": _gadget_assignments},
    "evaluator.series_terms": {"evaluator.compose_prefix": _series_terms},
}

# (module, attribute) -> span name.  A function imported into several
# modules is wrapped in each module whose code calls it.
_POINTS = {
    ("cli", "main"): "cli.main",
    ("cli", "classify"): "classify.classify",
    ("cli", "approximate_Z"): "evaluator.approximate_Z",
    ("cli", "brute_force_Z"): "graphs.brute_force_Z",
    ("cli", "compose_gadget"): "graphs.compose_gadget",
    ("evaluator", "h_eps_stability"): "stability.h_eps_stability",
    ("evaluator", "find_roots"): "stability.find_roots",
    ("evaluator", "apply_holographic"): "transform.apply_holographic",
    ("evaluator", "build_phi"): "evaluator.build_phi",
    ("evaluator", "compose_prefix"): "evaluator.compose_prefix",
    ("evaluator", "power_sums_from_coeffs"): "coeffs.power_sums_from_coeffs",
    ("evaluator", "coeffs_from_power_sums"): "coeffs.coeffs_from_power_sums",
    ("evaluator", "naive_low_coeffs"): "coeffs.naive_low_coeffs",
    ("evaluator", "additive_power_sums"): "coeffs.additive_power_sums",
    ("coeffs", "naive_low_coeffs"): "coeffs.naive_low_coeffs",
    ("coeffs", "power_sums_from_coeffs"): "coeffs.power_sums_from_coeffs",
    ("coeffs", "brute_force_coeffs"): "graphs.brute_force_coeffs",
    ("transform", "h_eps_stability"): "stability.h_eps_stability",
    ("transform", "apply_holographic"): "transform.apply_holographic",
}


def _formats_points(formats) -> dict:
    """Every public function of ``holant.formats``; the CLI calls them as attributes."""
    return {
        ("formats", name): f"formats.{name}"
        for name, obj in vars(formats).items()
        if inspect.isfunction(obj) and obj.__module__ == formats.__name__ and not name.startswith("_")
    }


class Tracer:
    """Spans and counts of one traced sweep."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()  # outermost calls of each span name
        self.self_time = Counter()
        self.layer_total = Counter()  # spans with no ancestor in their layer
        self.counts = Counter()
        self._stack = []  # child time of each open span
        self._open = Counter()  # open spans per span name
        self._open_layer = Counter()  # open spans per layer
        self._saved = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counters = [(cname, per[name]) for cname, per in _COUNTERS.items() if name in per]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            for cname, amount in counters:
                self.counts[cname] += amount(args, kwargs)
            self._open[name] += 1
            self._open_layer[layer] += 1
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self._open[name] -= 1
                self._open_layer[layer] -= 1
                self.calls[name] += 1
                self.self_time[name] += dur - children
                if not self._open[name]:
                    self.total[name] += dur
                if not self._open_layer[layer]:
                    self.layer_total[layer] += dur

        return span

    def install(self, modules: dict) -> None:
        """Wrap every trace point; ``modules`` maps short names to holant modules."""
        points = {**_POINTS, **_formats_points(modules["formats"])}
        for (mod, attr), name in points.items():
            original = getattr(modules[mod], attr)
            self._saved.append((modules[mod], attr, original))
            setattr(modules[mod], attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
