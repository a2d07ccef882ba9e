import math
import random

import numpy as np
import pytest

from holant.classify import (
    ClassificationOutcome,
    classify,
    detect_exceptional,
    matches_up_to_scale,
    pm_canonical_form,
    sine_profile,
)
from holant.errors import ArgumentError
from holant.signatures import local_polynomial, reverse, signature
from holant.stability import find_roots
from holant.transform import apply_holographic

GOLDEN = [
    ([1, 0, 1, 0], "ExactPolyTime", {}),
    ([9, 6, 6, 9], "FerroIsing", {"beta": 1.25}),
    ([0, 1, 0, 0], "PMEquivalent", {"lambda": 0.0}),
    ([0, 1, 0, 0.5], "PMEquivalent", {"lambda": 0.5}),
    (
        [0, math.sin(math.pi / 4), math.sin(math.pi / 2), math.sin(3 * math.pi / 4), 0],
        "TypeI",
        {"lambda": 1.0},
    ),
    ([1, 1, 0, 0], "StableTransform", {}),
    ([1, 1, 2, 3], "StableTransform", {}),
]


@pytest.mark.parametrize("vals,tag,params", GOLDEN)
def test_golden_table(vals, tag, params):
    out = classify(signature(vals))
    assert out.tag == tag
    for key, want in params.items():
        assert abs(out.params[key] - want) <= 1e-8


def test_trivial_tags():
    assert classify(signature([0, 0, 0, 0])).tag == "IdenticallyZero"
    assert classify(signature([0, 0, 1, 0, 0])).tag == "NoRecurrence"
    assert classify(signature([1, 2, 4, 8])).tag == "Degenerate"


def test_classify_arity_guard():
    with pytest.raises(ArgumentError):
        classify(signature([1, 1, 0]))


@pytest.mark.parametrize("vals,tag,params", GOLDEN)
def test_scale_invariance(vals, tag, params):
    for t in (0.5, 3.0):
        out = classify(signature([t * v for v in vals]))
        assert out.tag == tag
        for key, want in params.items():
            assert abs(out.params[key] - want) <= 1e-8


@pytest.mark.parametrize("vals,tag,params", GOLDEN)
def test_reversal_invariance(vals, tag, params):
    out = classify(reverse(signature(vals)))
    assert out.tag == tag
    for key, want in params.items():
        assert abs(out.params[key] - want) <= 1e-8


def test_stable_transform_certificates_recheck():
    for vals in ([1, 1, 0, 0], [0, 1, 1, 1], [1, 1, 2, 3]):
        f = signature(vals)
        out = classify(f)
        assert out.tag == "StableTransform"
        target = reverse(f) if out.use_reversal else f
        transformed = apply_holographic(target, out.matrix)
        roots = find_roots(local_polynomial(transformed))
        assert all(r.real < 0 for r in roots)


def test_pm_parameters_reconstruct_the_signature():
    for vals in ([0, 1, 0, 0.5], [0, 1, 0, 0], [0, 2, 0, 0.125, 0], [0, 0.7, 0, 0]):
        f = signature(vals)
        out = classify(f)
        assert out.tag == "PMEquivalent"
        form = pm_canonical_form(f.arity, out.params["ratio"])
        assert matches_up_to_scale(f, form)


def test_type1_parameters_reconstruct_the_signature():
    lam = 1.3
    f = sine_profile(5, lam)
    out = classify(f)
    assert out.tag == "TypeI"
    assert abs(out.params["lambda"] - lam) <= 1e-8


def test_ferro_ising_even_arity_negative_middle():
    # f_k = (2^k + (-2)^k) / 2: equal norms with a negative middle term;
    # conjugating by diag(1, -1) still yields a ferromagnetic Ising model
    f = signature([1, 0, 4, 0, 16])
    out = classify(f)
    assert out.tag == "FerroIsing"
    assert abs(out.params["beta"] - 5 / 3) <= 1e-8


def test_ferro_ising_transform_reaches_equality():
    # the reported matrix must carry the signature to a multiple of the
    # equality signature [1, 0, ..., 0, 1]
    for vals in ([9, 6, 6, 9], [1, 0, 4, 0, 16]):
        f = signature(vals)
        out = classify(f)
        assert out.tag == "FerroIsing"
        moved = apply_holographic(f, out.matrix).as_complex()
        scale = moved[0]
        assert abs(scale) > 0
        assert np.max(np.abs(moved[1:-1])) <= 1e-9 * abs(scale)
        assert abs(moved[-1] - scale) <= 1e-9 * abs(scale)


def test_exceptional_perfect_matchings():
    out = detect_exceptional(signature([0, 1, 0, 0]))
    assert out.tag == "PMEquivalent" and out.params["lambda"] == 0.0
    out = detect_exceptional(signature([0, 0, 0, 2, 0]))
    assert out.tag == "PMEquivalent" and out.params["lambda"] == 0.0


def test_exceptional_interleaved_geometric():
    out = detect_exceptional(signature([0, 1, 0, 0.25, 0]))
    assert out.tag == "PMEquivalent"
    assert abs(out.params["lambda"] - 0.5) <= 1e-12
    # a ratio above one is reversal-normalized below one
    out = detect_exceptional(signature([0, 1, 0, 4, 0]))
    assert abs(out.params["lambda"] - 0.5) <= 1e-12
    # ratio exactly one is exactly tractable
    out = detect_exceptional(signature([0, 1, 0, 1, 0]))
    assert out.tag == "ExactPolyTime"


def test_exceptional_sine_profile():
    out = detect_exceptional(sine_profile(4, 1.0))
    assert out.tag == "TypeI" and abs(out.params["lambda"] - 1.0) <= 1e-9
    out = detect_exceptional(signature([0, 1, 2, 0]))
    assert out.tag == "TypeI" and abs(out.params["lambda"] - 2.0) <= 1e-9


def test_exceptional_rejects_mismatches():
    assert detect_exceptional(signature([0, 1, 1, 0, 1, 0])).tag == "NoRecurrence"
    with pytest.raises(ArgumentError):
        detect_exceptional(signature([1, 1, 0, 0]))


def test_cubic_signatures_always_have_a_tag():
    # every ternary signature satisfies some second-order recurrence
    rng = np.random.default_rng(17)
    for _ in range(50):
        f = signature(rng.uniform(0, 2, size=4))
        out = classify(f)
        assert out.tag != "NoRecurrence"


@pytest.mark.parametrize("vals", [[1, 39.1393, 0, 1.7058], [1, 48.9523, 0, 1.2439]])
def test_a_construction_that_a_grid_missed_classifies(vals):
    # the construction's w is 0.0085 and 0.0068: a sweep of w in steps of
    # 0.01 misses the stable window
    assert classify(signature(vals)).tag == "StableTransform"


def seeded_signatures(n: int, seed: int = 1) -> list:
    """n non-negative signatures of arity 3-6 with f_0 > 0.  Half the
    arity-3 draws are [1] + 3 entries, each 0 or uniform on [0, 3],
    [0, 50] or [0, 1e3]; the others are x a^k + y b^k, redrawn until
    non-negative."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        d = rng.choice((3, 3, 4, 5, 6))
        if d == 3 and rng.random() < 0.5:
            out.append([1.0] + [rng.choice((0.0, rng.uniform(0, 3), rng.uniform(0, 50), rng.uniform(0, 1e3))) for _ in range(3)])
            continue
        a, b = rng.uniform(-3, 4), rng.uniform(-3, 4)
        x, y = rng.uniform(0.1, 2), rng.uniform(-1, 2)
        vals = [x * a**k + y * b**k for k in range(d + 1)]
        if min(vals) >= 0 and vals[0] > 0:
            out.append(vals)
    return out


def test_seeded_signatures_all_classify():
    # about 1.5% of such draws once failed the construction's own check
    tags = {classify(signature(vals)).tag for vals in seeded_signatures(500)}
    assert "StableTransform" in tags and "NoRecurrence" not in tags
