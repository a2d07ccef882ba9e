"""Truncated-Taylor evaluation of the partition function.

Pipeline: transform the signature so its local polynomial is half-plane
stable, normalize the leading entry, compute the edge-generating
polynomial P_G exactly, take the Taylor coefficients of log P_G(phi(z))
for the disk-to-strip map phi by the trapezoidal rule on one circle, and
exponentiate the truncated series at 1.

The phi parameter is fitted to the roots of P_G.  The certified strip
half-width (eps^2/2 from the stability margin) is typically far too small
to be computable: the number of Taylor terms needed scales like
exp(1/delta), so a certified delta below ~0.25 cannot converge within any
practical budget.  At oracle scale the exact roots of P_G are available
from the coefficient prefix itself, and each transform gets one rung: the
largest phi parameter in [DP_MIN, DELTA_CAP/2] whose root preimages clear
the unit disk by ROOT_CLEARANCE, found by bisection.  A stabilization
test on the successive estimates (with a floor tied to the rung's own
convergence scale) decides acceptance.

Only a rung that clears the roots is run.  When no parameter clears, the
transform is doomed: a root preimage lies inside the unit disk, so the
series at 1 diverges, and the rung is reported in the verdicts but never
evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import STABLE_TRANSFORM, ClassificationOutcome, classify
# imported for bench/tracing.py, which wraps additive_power_sums,
# coeffs_from_power_sums and power_sums_from_coeffs here by name; the
# evaluator calls only naive_low_coeffs
from .coeffs import (  # noqa: F401
    additive_power_sums,
    coeffs_from_power_sums,
    naive_low_coeffs,
    power_sums_from_coeffs,
)
from .errors import ArgumentError, GuardExceeded, HolantError
from .graphs import Multigraph
from .signatures import SymmetricSignature, reverse
# h_eps_stability is imported for bench/tracing.py, which wraps it here by
# name; each transform arrives with its certificate already computed
from .stability import DELTA_CAP, Poly, find_roots, h_eps_stability, strip_halfwidth  # noqa: F401
from .transform import Matrix2, apply_holographic, cast_real, margin_search

# Largest edge count the evaluator takes.  Rung verdicts rest on the
# roots of P_G, which the companion matrix resolves only to about 60 edges
# (log sum c from those roots is off by 0.035 at 84 edges and 0.09 at
# 105, and verdicts move); 40 keeps every run well inside that range.
EDGE_LIMIT = 40

# phi coefficient vectors are materialized up to this order; beyond it the
# polynomial is represented lazily (prefix on demand, closed-form values)
MATERIALIZE_LIMIT = 1_000_000

# the smallest phi parameter (half the strip width) a rung takes: the
# truncation order needed scales like exp(1/parameter), and this one's
# floor, 4,472 terms, is about 0.75 K_GUARD
DP_MIN = 0.125
K_GUARD = 6000
FLOOR_C = 1.5
# a rung is trusted a priori only if every P_G-root preimage clears the
# unit disk by this factor
ROOT_CLEARANCE = 1.02


@dataclass(frozen=True)
class PhiMap:
    """The degree-m polynomial mapping the beta-disk into the 2*delta strip.

    Unnormalized coefficient i is delta * alpha^i / i (1 <= i <= order);
    dividing by the value at 1 pins phi(1) = 1, and phi(0) = 0 by
    construction.  For small delta the order is astronomically large; the
    coefficients are then produced lazily and values follow the closed form
    -delta*log(1 - alpha z)/norm, which the polynomial matches to within
    its construction slack.
    """

    delta: float
    alpha: float
    beta: float
    order: float
    norm: float
    eps_a: float  # 1 - alpha = exp(-1/delta), kept to avoid cancellation
    coeffs: np.ndarray = None  # full unnormalized vector when materialized

    def prefix(self, k: int) -> np.ndarray:
        """Normalized coefficients 0..k (zeros beyond the polynomial order)."""
        out = np.zeros(k + 1)
        top = int(min(k, self.order))
        if self.coeffs is not None and top < len(self.coeffs):
            out[1 : top + 1] = self.coeffs[1 : top + 1]
        else:
            i = np.arange(1, top + 1, dtype=float)
            out[1 : top + 1] = self.delta * self.alpha**i / i
        return out / self.norm

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        scalar = zs.ndim == 0
        zs = np.atleast_1d(zs).ravel()
        if self.coeffs is not None:
            # blocked evaluation: P(z) = sum_j z^(jB) * Q_j(z), Q_j of width B
            B = 4096
            c = self.coeffs
            vals = np.zeros(zs.shape, dtype=complex)
            zbase = np.ones(zs.shape, dtype=complex)
            zpow = np.vander(zs, N=min(B, len(c)), increasing=True)
            for lo in range(0, len(c), B):
                block = c[lo : lo + B]
                vals += zbase * (zpow[:, : len(block)] @ block)
                if lo + B < len(c):  # only reached when zpow has B columns
                    zbase *= zpow[:, -1] * zs
            vals /= self.norm
        else:
            # 1 - alpha z written as (1-alpha) + alpha (1-z): no cancellation
            vals = -self.delta * np.log(self.eps_a + self.alpha * (1.0 - zs)) / self.norm
        return complex(vals[0]) if scalar else vals


def build_phi(delta: float) -> PhiMap:
    """Construct phi_delta: alpha = 1 - e^(-1/delta), normalized at 1.

    The order is the ceiling of
    (log(10(1+alpha)) - log(1-alpha)) / (log 2 - log(1+alpha)).
    """
    if not (0.0 < delta <= DELTA_CAP):
        raise ArgumentError(f"delta must lie in (0, {DELTA_CAP}]")
    inv = 1.0 / delta
    alpha = -math.expm1(-inv)
    eps_a = math.exp(-inv)  # 1 - alpha, computed without cancellation
    beta = (1.0 + alpha) / (2.0 * alpha)
    num = math.log(10.0 * (1.0 + alpha)) + inv
    den = math.log1p(eps_a / (1.0 + alpha))
    order = math.inf if den == 0.0 else num / den
    if order <= MATERIALIZE_LIMIT:
        order = float(math.ceil(order))
        i = np.arange(1, int(order) + 1, dtype=float)
        coeffs = np.concatenate(([0.0], delta * alpha**i / i))
        norm = float(coeffs.sum())
        return PhiMap(delta, alpha, beta, order, norm, eps_a, coeffs)
    # the omitted tail of the normalizer is below double precision here
    return PhiMap(delta, alpha, beta, order, 1.0, eps_a)


def compose_prefix(c, phi, k: int) -> np.ndarray:
    """First k+1 coefficients of P(phi(z)) from the first k+1 of P.

    The public reference composition; the evaluator itself samples on a
    circle and never composes.  Valid because phi(0) = 0, so order-k
    output depends only on order-k inputs.  ``phi`` may be a PhiMap or a
    plain coefficient sequence.
    Horner's scheme, each product truncated to order k and taken by FFT at
    the smallest power-of-two length that holds a full product of two
    order-k series (real transforms unless P is complex).  Horner starts
    at the last nonzero coefficient of order <= k: the trailing zeros
    would only multiply 0 by phi.
    """
    phic = phi.prefix(k) if isinstance(phi, PhiMap) else np.asarray(phi, dtype=float)[: k + 1]
    if len(phic) < k + 1:
        phic = np.concatenate([phic, np.zeros(k + 1 - len(phic))])
    if phic[0] != 0:
        raise ArgumentError("composition needs phi(0) = 0")
    cv = np.asarray([complex(x) for x in c], dtype=complex)
    if np.all(cv.imag == 0):
        cv = cv.real
    out = np.zeros(k + 1, dtype=cv.dtype)
    nonzero = np.flatnonzero(cv[: k + 1])
    if len(nonzero) == 0:
        return out
    cv = cv[: nonzero[-1] + 1]
    n = 1 << (2 * k).bit_length()
    fft = np.fft  # looked up here: numpy loads its fft module on first use
    if cv.dtype.kind == "c":
        forward, inverse = fft.fft, fft.ifft
    else:
        forward, inverse = fft.rfft, functools.partial(fft.irfft, n=n)
    phi_hat = forward(phic, n)
    out[0] = cv[-1]
    for coef in cv[-2::-1]:
        out = inverse(forward(out, n) * phi_hat)[: k + 1]
        out[0] += coef
    return out


def taylor_log_eval(p, k: int) -> complex:
    """T_k of log at 1 for a normalized (c_0 = 1) series: -sum p_i / i."""
    vals = p.values if hasattr(p, "values") else p
    vals = np.asarray([complex(x) for x in vals], dtype=complex)
    if k + 1 > len(vals):
        raise ArgumentError(f"need p_1..p_{k}")
    i = np.arange(1, k + 1)
    return complex(-np.sum(vals[1 : k + 1] / i))


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of approximate_Z with its certificates and diagnostics."""

    estimate: float
    log_estimate: float  # n log|g0| + Re T_k, the log of |estimate|
    k_used: int
    eps_requested: float
    eps_certificate: float
    delta: float
    delta_certified: float
    transform: Matrix2
    scale_factor: float
    reversed: bool
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _rung_floor(dp: float) -> int:
    # the truncation order at which the phi-map's own singularity resolves
    return int(math.ceil(FLOOR_C * math.exp(1.0 / dp)))


def _root_clearance(roots: np.ndarray, dp: float) -> float:
    """min |phi^-1(r)| = |(1 - exp(-r/dp)) / alpha| over the roots r of P_G.

    phi(z) = -dp log(1 - alpha z) takes the principal log, so its image
    lies in |Im| < pi dp: a root with |Im r| >= pi dp has no preimage
    (exp would wrap it around onto a false one)."""
    roots = roots[np.abs(roots.imag) < math.pi * dp]
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(np.expm1(-roots / dp) / math.expm1(-1.0 / dp))
    mags[~np.isfinite(mags)] = math.inf
    return float(np.min(mags)) if len(mags) else math.inf


def _fit_rung(full_coeffs):
    """(phi parameter, "sound"|"doomed", clearance) of a transform's rung:
    the largest parameter in [DP_MIN, DELTA_CAP/2] whose root preimages
    clear the unit disk by ROOT_CLEARANCE, by bisection, or DP_MIN, doomed,
    when not even that clears.  The clearance is None when no root bounds
    it."""
    poly = Poly(tuple(full_coeffs))
    roots = find_roots(poly) if poly.degree >= 1 else np.zeros(0, dtype=complex)
    lo, hi = DP_MIN, DELTA_CAP / 2.0
    if _root_clearance(roots, hi) >= ROOT_CLEARANCE:
        lo = hi
    elif _root_clearance(roots, lo) >= ROOT_CLEARANCE:
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _root_clearance(roots, mid) >= ROOT_CLEARANCE else (lo, mid)
    clearance = _root_clearance(roots, lo)
    verdict = "sound" if clearance >= ROOT_CLEARANCE else "doomed"
    return lo, verdict, clearance if math.isfinite(clearance) else None


def _series_estimates(c, phi: PhiMap, k: int):
    """T_j for j = 1..k of log(P composed with phi) at 1, P real, by the
    trapezoidal rule on one circle; None when the circle is not free of
    zeros of P(phi(z)).

    The samples of z F'(z) = P'(phi) z phi' / P(phi), F = log P(phi(z)),
    at N points of |z| = rho = 1 - 11/k, N the smallest power of two
    >= 2k, have the inverse FFT g with g_j = j F_j rho^j; aliasing is of
    order rho^N <= rho^(2k), at most e^-22.  g_0 is the number of zeros
    of P(phi(z)) inside the circle (the argument principle), the check on
    the rung's root verdict.  Where it is not 0 the samples are no Taylor coefficients,
    and a zero inside the circle lies inside the unit disk, where the
    series at 1 diverges; a nan count (a sample on a zero) proves nothing
    either way.  Both give no T.
    """
    n = 2 << (k - 1).bit_length()
    rho = 1.0 - 11.0 / k
    cv = np.asarray(c, dtype=float)
    cv = cv[: np.flatnonzero(cv)[-1] + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        # np.fft is reached here: numpy loads its fft module on first use
        g = np.fft.irfft(_log_derivative_samples(cv, phi, rho, n), n)
        if not abs(g[0]) < 0.5:
            return None
        j = np.arange(1, k + 1, dtype=float)
        return np.cumsum(g[1 : k + 1] * rho**-j / j)


def _log_derivative_samples(cv, phi: PhiMap, rho: float, n: int) -> np.ndarray:
    """z P'(phi) phi' / P(phi) at z_l = rho e^(-2 pi i l/N), l = 0..N/2.

    phi and z phi' are one real FFT each of phi's coefficients times
    rho^i, folded mod N a block at a time (phi must be materialized, as
    every rung's is); P and P' one Horner pass over P's true degree.
    Each temporary is freed once spent: a call at K_GUARD terms peaks
    near 0.6 MB.
    """
    a = phi.coeffs
    w = rho ** np.arange(n) / phi.norm  # rho^i / norm over the block at hand
    x, s, blk = np.zeros(n), np.zeros(n), np.empty(n)
    for lo in range(0, len(a), n):
        b = np.multiply(a[lo : lo + n], w[: len(a) - lo], out=blk[: len(a) - lo])
        x[: len(b)] += b
        b *= lo
        s[: len(b)] += b
        w *= rho**n
    del blk, b
    y = np.multiply(np.arange(n), x, out=w)  # z phi' folds to t x[t] + s[t]
    y += s
    del s
    u, out = np.fft.rfft(x), np.fft.rfft(y)
    del x, y, w
    p, dp = np.full_like(u, cv[-1]), np.zeros_like(u)
    for coef in cv[-2::-1]:
        dp *= u
        dp += p
        p *= u
        p += coef
    out *= dp
    out /= p
    return out


def _scan_stop(T: np.ndarray, eps: float, floor: int):
    """First index j (1-based) where the estimate sequence has stabilized.

    Requires the last three T values pairwise within eps/4 and the value at
    j within eps/4 of the one at j//2 (log-space comparisons; relative
    differences of exp agree to first order).  Non-finite values never
    stabilize: their differences compare false.
    """
    T = np.asarray(T)
    j = np.arange(max(3, floor), len(T) + 1)
    if len(j) == 0:
        return None
    tol = eps / 4.0
    t1, t2, t3, half = T[j - 1], T[j - 2], T[j - 3], T[j // 2 - 1]
    with np.errstate(invalid="ignore", over="ignore"):
        ok = (np.abs(t1 - t2) <= tol) & (np.abs(t1 - t3) <= tol) & (np.abs(t2 - t3) <= tol)
        ok &= np.abs(t1 - half) <= tol
    hits = np.flatnonzero(ok)
    return int(j[hits[0]]) if len(hits) else None


class _Attempt:
    """One transform's full evaluation state: prefix, rung, rung scan.

    ``transform`` carries the matrix, the reversal flag and the stability
    certificate of the transformed signature (a StableTransform or a
    StableTransform ClassificationOutcome); normalizing by g0 moves no
    root, so the certificate holds for g' as it is."""

    def __init__(self, g: Multigraph, f: SymmetricSignature, transform, label: str):
        self.label = label
        self.matrix = transform.matrix
        self.use_rev = transform.use_reversal
        self.cert = transform.certificate
        if self.cert is None:
            raise ArgumentError("the transform carries no stability certificate")
        h = reverse(f) if self.use_rev else f
        transformed = cast_real(apply_holographic(h, self.matrix))
        self.g0 = float(transformed.values[0])
        if self.g0 == 0.0:
            raise HolantError("transformed signature has zero leading entry")
        self.gprime = SymmetricSignature(tuple(float(v) / self.g0 for v in transformed.values))
        self.delta_cert = strip_halfwidth(self.cert.eps)
        self.c = _coefficient_prefix(g, self.gprime)
        self.verdict = _fit_rung(self.c)
        self.dp, kind, _ = self.verdict
        self.doomed = kind == "doomed"

    def run(self, eps: float, k0: int):
        """(self, T, phi, k, accepted_flag) for the rung's first stop, else
        for its most stable record (the smallest last step) once k reaches
        K_GUARD.  None for a doomed rung, which is never run, and when a
        call finds the circle not free of zeros: the root verdict failed
        its check, and the attempt ends with no record."""
        if self.doomed:
            return None
        fallback = None
        phi = build_phi(self.dp)
        floor = _rung_floor(self.dp)
        k = min(max(k0, floor), K_GUARD)
        while True:
            T = _series_estimates(self.c, phi, k)
            if T is None:
                return None
            j = _scan_stop(T, eps, floor)
            if j is not None:
                return self, T, phi, j, True
            tail = abs(float(T[-1] - T[-2]))
            if fallback is None or tail < fallback[0]:
                fallback = (tail, T)
            if k >= K_GUARD:
                return self, fallback[1], phi, len(fallback[1]), False
            k = min(2 * k, K_GUARD)


def approximate_Z(
    g: Multigraph,
    f: SymmetricSignature,
    eps: float,
    outcome: ClassificationOutcome = None,
) -> ApproxResult:
    """Multiplicative approximation of Z(G; f) for stable-transform signatures.

    The caller routes by classification tag; any other tag raises.  The
    estimate carries the full scaling/reversal bookkeeping:
    Z(G; f) = scale^|V| * Z(G; g') with g' the normalized transformed
    signature, and Z(G; g') is approximated by exp(T_k).

    Each transform runs one rung, fitted to the roots of its P_G, and only
    a sound rung (one whose roots clear the unit disk) is run.  When the
    classifier's constructive rung is doomed or not accepted, a
    deterministic sweep over the rotation family retries with the
    margin-maximizing transform (a larger margin pushes the roots of P_G
    away from the origin); the classifier's own fallback already is that
    sweep's winner, and is not retried.  The first accepted record wins,
    else the first sound unconverged one (reported with converged False).
    A run with neither is refused with GuardExceeded: no rung clears the
    roots of P_G.
    """
    if not (0.0 < eps < 1.0):
        raise ArgumentError("eps must lie in (0, 1)")
    if outcome is None:
        outcome = classify(f)
    if outcome.tag != STABLE_TRANSFORM:
        raise ArgumentError(f"approximate_Z needs a StableTransform signature, got {outcome.tag}")
    if not g.is_regular(f.arity):
        raise ArgumentError("graph must be regular of degree equal to the signature arity")
    if g.m > EDGE_LIMIT:
        raise GuardExceeded(f"{g.m} edges exceeds the evaluator's limit of {EDGE_LIMIT}")

    k0 = int(math.ceil(4.0 * math.log(max(g.m, 2) / eps)))
    # an outcome built by hand, with no search behind it, counts as constructive
    source = outcome.transform_source or "constructive"
    built = [_Attempt(g, f, outcome, source)]
    records = [built[0].run(eps, k0)]  # each (attempt, T, phi, k_used, accepted) or None
    if not (records[0] and records[0][-1]) and source != "margin-search":
        alt = margin_search(f)
        if alt is not None and alt.certificate.margin > 1.05 * built[0].cert.margin:
            built.append(_Attempt(g, f, alt, alt.source))
            records.append(built[-1].run(eps, k0))
    # the first accepted record, else the first unconverged one
    records = sorted((r for r in records if r is not None), key=lambda r: not r[-1])
    if not records:
        raise GuardExceeded("no rung clears the roots of P_G")
    attempt, T, phi, k_used, converged = records[0]
    t_final = float(T[k_used - 1])
    # log |Z| stays finite where g0**n or the estimate overflows
    log_scale = g.n * math.log(abs(attempt.g0))
    log_estimate = log_scale + t_final
    # the prefix is all of P_G, exact at oracle scale: Z = g0^n * P_G(1)
    z_prime = math.fsum(attempt.c)
    self_check = log_estimate - (log_scale + math.log(abs(z_prime))) if z_prime else None
    try:
        scale_pow = attempt.g0**g.n
    except OverflowError:
        scale_pow = math.inf
    try:
        estimate = scale_pow * math.exp(t_final)
    except OverflowError:
        estimate = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = scale_pow * np.exp(T[:k_used])
    diagnostics = {
        "estimates": estimates,
        "phi_alpha": phi.alpha,
        "phi_order": phi.order,
        "transform_source": attempt.label,
        "rung_verdicts": {a.label: [list(a.verdict)] for a in built},
        "self_check": self_check,
    }
    return ApproxResult(
        estimate=float(estimate),
        log_estimate=float(log_estimate),
        k_used=int(k_used),
        eps_requested=float(eps),
        eps_certificate=float(attempt.cert.eps),
        delta=2.0 * phi.delta,
        delta_certified=float(attempt.delta_cert),
        transform=attempt.matrix,
        scale_factor=float(attempt.g0),
        reversed=bool(attempt.use_rev),
        converged=converged,
        diagnostics=diagnostics,
    )


def _coefficient_prefix(g: Multigraph, gprime: SymmetricSignature):
    """All of Z_0..Z_m of P_G for the normalized signature.

    The contraction refuses a plan above its entry cap with GuardExceeded;
    approximate_Z has already refused graphs above EDGE_LIMIT.  No shorter
    prefix is tried: every rung's convergence floor exceeds what a short
    prefix holds, and rung soundness needs the roots of all of P_G.
    """
    c = naive_low_coeffs(g, gprime, g.m)
    return np.asarray([float(np.real(x)) for x in c])
