"""Routing decision tree for symmetric non-negative signatures of arity >= 3.

The outcome of ``classify`` tells the caller how the Holant problem of the
signature can be evaluated: exactly, by the stable-transform approximator,
by an external ferromagnetic-Ising sampler (report-only), or not at all
within this package (perfect-matching-equivalent and open sine-profile
families, which are emitted as labels with their canonical parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, GuardExceeded, HolantError, InconsistentRecurrence
from .signatures import (
    RecurrenceTriple,
    SymmetricSignature,
    detect_recurrence,
    normalize_leading,
)
from .stability import StabilityCertificate
from .transform import (
    STRUCT_TOL,
    Matrix2,
    PairDecomposition,
    find_stabilizing_transform,
    pair_decompose,
)

# how precisely a canonical form must be matched
FORM_TOL = 1e-8

IDENTICALLY_ZERO = "IdenticallyZero"
NO_RECURRENCE = "NoRecurrence"
DEGENERATE = "Degenerate"
EXACT_POLY_TIME = "ExactPolyTime"
FERRO_ISING = "FerroIsing"
STABLE_TRANSFORM = "StableTransform"
PM_EQUIVALENT = "PMEquivalent"
TYPE_I = "TypeI"


@dataclass(frozen=True)
class ClassificationOutcome:
    """Tagged routing decision with the parameters the tag asserts."""

    tag: str
    params: dict = field(default_factory=dict)
    matrix: Matrix2 = None
    use_reversal: bool = False
    certificate: StabilityCertificate = None
    transform_source: str = None  # StableTransform: "constructive" or "margin-search"


def pm_canonical_form(arity: int, ratio: float) -> SymmetricSignature:
    """The perfect-matching-equivalent form [0, 1, 0, r, 0, r^2, ...].

    ``ratio`` is the quotient of consecutive odd entries.  The reported
    ``lambda`` equals the ratio for odd arity (the cubic classification
    parameter) and its square root for even arity (the interleaved
    geometric normalization); ``ratio`` itself reconstructs the signature.
    """
    vals = [0.0] * (arity + 1)
    for i in range(1, arity + 1, 2):
        vals[i] = ratio ** ((i - 1) // 2)
    return SymmetricSignature(tuple(vals))


def sine_profile(arity: int, lam: float) -> SymmetricSignature:
    """The open-family form [0, lam sin(pi/d), ..., lam^i sin(i pi/d), ..., 0]."""
    d = arity
    return SymmetricSignature(tuple(lam**i * math.sin(i * math.pi / d) for i in range(d + 1)))


def matches_up_to_scale(f: SymmetricSignature, form: SymmetricSignature, tol: float = FORM_TOL) -> bool:
    """True when f is a non-zero multiple of form, or of its reversal."""
    fv = f.as_floats()
    scale = np.max(np.abs(fv))
    if scale == 0:
        return False
    for cand in (form.as_floats(), form.as_floats()[::-1]):
        cscale = np.max(np.abs(cand))
        if cscale == 0:
            continue
        if np.max(np.abs(fv / scale - cand / cscale)) <= tol:
            return True
    return False


def _zero(v: float, scale: float) -> bool:
    return abs(v) <= 1e-12 * scale


def classify(f: SymmetricSignature) -> ClassificationOutcome:
    """Full decision tree over the recurrence discriminant and end entries."""
    if f.arity < 3:
        raise ArgumentError("classification needs arity >= 3")
    if not f.is_nonnegative:
        raise ArgumentError("classification needs non-negative entries")
    if f.is_zero:
        return ClassificationOutcome(IDENTICALLY_ZERO)
    triple = detect_recurrence(f)
    if triple is None:
        return ClassificationOutcome(NO_RECURRENCE)
    fv = f.as_floats()
    scale = float(np.max(np.abs(fv)))
    if _zero(fv[0], scale) and _zero(fv[-1], scale):
        return detect_exceptional(f)

    g, _, rev = normalize_leading(f)
    t = detect_recurrence(g)
    if t is None:  # cannot happen: recurrences survive scaling and reversal
        return ClassificationOutcome(NO_RECURRENCE)
    disc = t.discriminant
    tscale = max(abs(t.a), abs(t.b), abs(t.c))
    if disc <= STRUCT_TOL * tscale * tscale:
        # disc < 0: the local polynomial is already stable (identity works);
        # disc = 0: the repeated-root construction; both live in the helper
        return _stable_transform(g, t, rev)
    return _classify_positive_disc(f, g, t, rev)


def _stable_transform(g: SymmetricSignature, t: RecurrenceTriple, rev: bool) -> ClassificationOutcome:
    """The StableTransform outcome for normalized g.  Valid input whose
    transform no candidate validates is refused (GuardExceeded), not
    reported as bad input."""
    st = find_stabilizing_transform(g, t)
    if st is None:
        raise GuardExceeded("stabilizing transform construction failed numerically")
    return ClassificationOutcome(
        STABLE_TRANSFORM,
        matrix=st.matrix,
        use_reversal=rev ^ st.use_reversal,
        certificate=st.certificate,
        transform_source=st.source,
    )


def _classify_positive_disc(
    f: SymmetricSignature, g: SymmetricSignature, t: RecurrenceTriple, rev: bool
) -> ClassificationOutcome:
    d = g.arity
    # rank-1 test directly on the normalized values: with g_0 = 1 a
    # degenerate signature is exactly a geometric sequence (testing the
    # tensor pair instead would amplify float noise by the d-th root)
    gv = g.as_floats()
    ratio = float(gv[1])
    geo = ratio ** np.arange(d + 1)
    degenerate_params = {"ratio": ratio, "pair": (1.0, ratio)}
    if np.max(np.abs(gv - geo)) <= STRUCT_TOL * max(1.0, np.max(np.abs(gv))):
        return ClassificationOutcome(DEGENERATE, params=degenerate_params)
    try:
        pd = pair_decompose(g, t)
    except InconsistentRecurrence as exc:
        # the triple came from f itself: an ill-conditioned fit, not bad input
        raise GuardExceeded(f"tensor pair decomposition failed numerically: {exc}") from None
    sum1, sum2 = pd.sums()
    big = max(sum1, sum2)
    if abs(pd.cross) <= STRUCT_TOL * big:
        return ClassificationOutcome(DEGENERATE, params=degenerate_params)
    if abs(sum1 - sum2) <= STRUCT_TOL * big:
        return _classify_equal_norms(f, g, pd, rev)
    return _stable_transform(g, t, rev)


def _classify_equal_norms(
    f: SymmetricSignature, g: SymmetricSignature, pd: PairDecomposition, rev: bool
) -> ClassificationOutcome:
    d = g.arity
    p, q, s, t_ = pd.p, pd.q, pd.s, pd.t
    r = pd.r
    if r < 0:
        if d % 2 == 1:
            s, t_ = -s, -t_
            r = 1
        else:
            # even arity with a negative term contradicts f_0 > 0, f_d >= 0;
            # numerically possible only at the tolerance boundary
            raise HolantError("inconsistent equal-norm decomposition")
    mixed = p * s + q * t_
    big = max(pd.sums())
    if abs(mixed) <= STRUCT_TOL * big:
        return ClassificationOutcome(EXACT_POLY_TIME)
    if mixed > 0 or d % 2 == 0:
        # ps + qt < 0 with even arity: conjugating by diag(1, -1) makes the
        # middle term positive, so it is a ferromagnetic Ising model too
        beta = (p * p + q * q) / abs(mixed)
        base = Matrix2(p, q, s, t_).inverse()
        M = base if mixed > 0 else base.matmul(Matrix2(1, 0, 0, -1))
        return ClassificationOutcome(FERRO_ISING, params={"beta": beta}, matrix=M, use_reversal=rev)
    # ps + qt < 0 with odd arity: g has the interleaved geometric form
    # [1, 0, r, 0, r^2, ...] with r > 1; its reversal is the
    # perfect-matching-equivalent form with odd-entry ratio 1/r < 1
    r_up = float(g.values[2])
    if r_up <= 1.0:
        raise HolantError("equal-norm odd case should have g_2 > 1")
    ratio = 1.0 / r_up
    if not matches_up_to_scale(f, pm_canonical_form(d, ratio)):
        raise HolantError("interleaved geometric form did not validate")
    return ClassificationOutcome(PM_EQUIVALENT, params={"lambda": ratio, "ratio": ratio})


def detect_exceptional(f: SymmetricSignature) -> ClassificationOutcome:
    """Classify signatures with f_0 = f_d = 0 into the three exceptional types.

    Single spike at position 1 or d-1 -> perfect matchings (lambda = 0);
    interleaved geometric (even arity) -> perfect-matching-equivalent with
    lambda = sqrt(mu), reversal-normalized below 1, or exactly tractable at
    mu = 1; the sine profile -> the open family.  Anything else is reported
    as NoRecurrence (inconsistent input).
    """
    if f.arity < 3:
        raise ArgumentError("exceptional detection needs arity >= 3")
    d = f.arity
    fv = f.as_floats()
    scale = float(np.max(np.abs(fv)))
    if scale == 0:
        return ClassificationOutcome(IDENTICALLY_ZERO)
    if not (_zero(fv[0], scale) and _zero(fv[d], scale)):
        raise ArgumentError("detect_exceptional needs f_0 = f_d = 0")
    support = [i for i in range(d + 1) if not _zero(fv[i], scale)]

    if support == [1] or support == [d - 1]:
        return ClassificationOutcome(PM_EQUIVALENT, params={"lambda": 0.0, "ratio": 0.0})

    if d % 2 == 0 and all(i % 2 == 1 for i in support) and len(support) == (d // 2):
        odd = fv[1::2]
        if np.all(odd > 0):
            mu = odd[1] / odd[0]
            profile = odd[0] * mu ** np.arange(len(odd))
            if np.max(np.abs(odd - profile)) <= FORM_TOL * np.max(profile):
                if abs(mu - 1.0) <= STRUCT_TOL:
                    return ClassificationOutcome(EXACT_POLY_TIME)
                ratio = mu if mu < 1 else 1.0 / mu
                return ClassificationOutcome(
                    PM_EQUIVALENT, params={"lambda": math.sqrt(ratio), "ratio": ratio}
                )

    if len(support) == d - 1 and np.all(fv[1:d] > 0):
        lam = float(fv[2] / fv[1]) * (math.sin(math.pi / d) / math.sin(2 * math.pi / d))
        if lam > 0:
            unit = fv[1] / (lam * math.sin(math.pi / d))
            profile = np.array([unit * lam**i * math.sin(i * math.pi / d) for i in range(d + 1)])
            if np.max(np.abs(fv - profile)) <= FORM_TOL * scale:
                return ClassificationOutcome(TYPE_I, params={"lambda": lam})

    return ClassificationOutcome(NO_RECURRENCE)
