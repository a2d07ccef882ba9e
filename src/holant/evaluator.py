"""Truncated-Taylor evaluation of the partition function.

Pipeline: transform the signature so its local polynomial is half-plane
stable, normalize the leading entry, compute the edge-generating
polynomial P_G exactly, take the Taylor coefficients of log P_G(phi(z))
for the disk-to-strip map phi by the trapezoidal rule on one circle, and
exponentiate the truncated series at 1.

The phi parameter is chosen adaptively.  The certified strip half-width
(eps^2/2 from the stability margin) is typically far too small to be
computable: the number of Taylor terms needed scales like exp(1/delta), so
a certified delta below ~0.25 cannot converge within any practical budget.
Instead a descending ladder of phi parameters is tried, each validated a
posteriori: at oracle scale the exact roots of P_G are available from the
coefficient prefix itself, and a ladder rung is trusted only when every
root's preimage under phi stays outside the closed unit disk.  A
stabilization test on the successive estimates (with a floor tied to the
rung's own convergence scale) decides acceptance.

A rung with a root preimage strictly inside the disk is doomed.  When a
transform's candidates are all doomed its ladder holds only the smallest
of them, as a best-effort record; for the constructive transform that
ladder runs last, after the margin search, and only when no ladder was
accepted.  A doomed ladder's record is never converged, even where its
stop test fires.
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
from .signatures import SymmetricSignature, local_polynomial, reverse
from .stability import DELTA_CAP, Poly, find_roots, h_eps_stability, strip_halfwidth
from .transform import Matrix2, apply_holographic, cast_real, margin_search

# Largest edge count the evaluator takes.  Rung verdicts rest on the
# roots of P_G, which the companion matrix resolves only to about 60 edges
# (log sum c from those roots is off by 0.035 at 84 edges and 0.09 at
# 105, and verdicts move); 40 keeps every run well inside that range.
EDGE_LIMIT = 40

# phi coefficient vectors are materialized up to this order; beyond it the
# polynomial is represented lazily (prefix on demand, closed-form values)
MATERIALIZE_LIMIT = 1_000_000

# ladder of phi parameters (half the strip width each), descending; the
# truncation order needed to resolve a rung scales like exp(1/parameter)
DEFAULT_RUNGS = (0.225, 0.185, 0.155, 0.125)
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
    if 1.0 / dp > math.log(1e18 / FLOOR_C):
        return 10**18
    return int(math.ceil(FLOOR_C * math.exp(1.0 / dp)))


def _rung_feasible(dp: float) -> bool:
    return 1.0 / dp <= math.log(0.75 * K_GUARD / FLOOR_C)


def _root_clearance(roots: np.ndarray, dp: float, alpha: float) -> float:
    """min |phi^-1(r)| over the roots r of P_G, for the rung's phi."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = (1.0 - np.exp(-roots / dp)) / alpha
    mags = np.abs(w)
    mags[~np.isfinite(mags)] = math.inf
    return float(np.min(mags)) if len(mags) else math.inf


def _series_estimates(c, phi: PhiMap, k: int):
    """(T, zeros): T_j for j = 1..k of log(P composed with phi) at 1, P
    real, by the trapezoidal rule on one circle, and the number of zeros
    of P(phi(z)) inside |z| = 1 - 11/k (None when the count is nan).

    The samples of z F'(z) = P'(phi) z phi' / P(phi), F = log P(phi(z)),
    at N = 2 * 2^ceil(log2(k+1)) points of |z| = rho = 1 - 11/k have the
    inverse FFT g with g_j = j F_j rho^j; aliasing is of order rho^N, at
    most e^-22.  g_0 is the number of zeros of P(phi(z)) inside the
    circle (the argument principle).  Where it is not 0 the samples are
    no Taylor coefficients, and rho is halved until it is: the true
    series of a diverging rung then overflows, and the stop scan rejects
    non-finite entries, so that noise is silenced here.  A nan count (a
    sample on a zero) halves rho too, but proves no zero inside.
    """
    n = 2 << k.bit_length()
    rho = 1.0 - 11.0 / k
    cv = np.asarray(c, dtype=float)
    cv = cv[: np.flatnonzero(cv)[-1] + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        # np.fft is reached here: numpy loads its fft module on first use
        g = np.fft.irfft(_log_derivative_samples(cv, phi, rho, n), n)
        zeros = round(float(g[0])) if math.isfinite(g[0]) else None
        while not abs(g[0]) < 0.5:
            rho /= 2.0
            del g
            g = np.fft.irfft(_log_derivative_samples(cv, phi, rho, n), n)
        j = np.arange(1, k + 1, dtype=float)
        return np.cumsum(g[1 : k + 1] * rho**-j / j), zeros


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
    differences of exp agree to first order).  Non-finite values (a
    diverging series overflows) never stabilize.
    """
    T = np.asarray(T)
    j = np.arange(max(3, floor), len(T) + 1)
    if len(j) == 0:
        return None
    tol = eps / 4.0
    t1, t2, t3, half = T[j - 1], T[j - 2], T[j - 3], T[j // 2 - 1]
    with np.errstate(invalid="ignore", over="ignore"):
        ok = np.isfinite(t1) & np.isfinite(t2) & np.isfinite(t3) & np.isfinite(half)
        ok &= (np.abs(t1 - t2) <= tol) & (np.abs(t1 - t3) <= tol) & (np.abs(t2 - t3) <= tol)
        ok &= np.abs(t1 - half) <= tol
    hits = np.flatnonzero(ok)
    return int(j[hits[0]]) if len(hits) else None


class _Attempt:
    """One transform's full evaluation state: prefix, rungs, ladder scan."""

    def __init__(self, g: Multigraph, f: SymmetricSignature, matrix: Matrix2, use_rev: bool, label: str):
        h = reverse(f) if use_rev else f
        transformed = cast_real(apply_holographic(h, matrix))
        self.label = label
        self.matrix = matrix
        self.use_rev = use_rev
        self.g0 = float(transformed.values[0])
        if self.g0 == 0.0:
            raise HolantError("transformed signature has zero leading entry")
        self.gprime = SymmetricSignature(tuple(float(v) / self.g0 for v in transformed.values))
        self.cert = h_eps_stability(local_polynomial(self.gprime))
        if self.cert is None:
            raise HolantError("transformed local polynomial failed the stability check")
        self.delta_cert = strip_halfwidth(self.cert.eps)
        self.c = _coefficient_prefix(g, self.gprime)
        self.rungs, self.verdicts = _build_rungs(self.delta_cert, self.c)
        # the ladder is only the certain-divergence last resort
        self.doomed = all(verdict == "doomed" for _, verdict, _ in self.verdicts)

    def run_ladder(self, eps: float, k0: int):
        """(self, T, phi, k, sound, accepted_flag) for the first stabilized
        rung, else for the most stable attempt seen; None when every rung
        overflowed at once.  A doomed ladder's stop is never an acceptance:
        its series diverges, however settled its first terms look.  Nor is
        a stop on a rung whose P(phi(z)) has a zero inside |z| = 1 - 11/k:
        that zero lies in the unit disk, so the series at 1 diverges at
        every k, and the rung ends at that call, its record kept as a best
        effort only."""
        fallback = None
        for dp, sound in self.rungs:
            phi = build_phi(dp)
            floor = _rung_floor(dp)
            k = min(max(k0, floor), K_GUARD)
            while True:
                T, zeros = _series_estimates(self.c, phi, k)
                j = _scan_stop(T, eps, floor)
                if j is not None and not zeros:
                    return self, T, phi, j, sound, not self.doomed
                if j is None:  # best-effort record: the longest representable prefix
                    finite = np.isfinite(T) & (np.abs(T) < 700.0)
                    j = int(np.argmin(finite)) if not finite.all() else k
                if j >= 2:
                    tail = abs(float(T[j - 1] - T[j - 2]))
                    if fallback is None or tail < fallback[0]:
                        fallback = (tail, T[:j], phi, j, sound)
                if zeros or k >= K_GUARD:
                    break
                k = min(2 * k, K_GUARD)
        if fallback is None:
            return None
        _, T, phi, k, sound = fallback
        return self, T, phi, k, sound, False


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

    When the classifier's constructive transform leaves every ladder rung
    without root clearance (its margin only certifies a sliver of a strip),
    a deterministic sweep over the rotation family retries with the
    margin-maximizing transform before giving up.  A constructive ladder
    that holds only a doomed rung (a root preimage strictly inside the
    unit disk) is not run first: the margin search goes ahead, and the
    doomed rung runs last, as a best-effort record, only when no attempt
    was accepted; that record is unconverged even if its stop test fires.
    An unaccepted constructive record still wins over an unaccepted
    margin-search one.
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
    constructive = _Attempt(g, f, outcome.matrix, outcome.use_reversal, "constructive")
    built = [constructive]
    # a ladder outcome: (attempt, T, phi, k_used, sound, accepted) or None
    chosen = None if constructive.doomed else constructive.run_ladder(eps, k0)
    if not _accepted(chosen):
        alt = margin_search(f)
        if alt is not None and alt.certificate.margin > 1.05 * constructive.cert.margin:
            built.append(_Attempt(g, f, alt.matrix, alt.use_reversal, "margin-search"))
            out = built[-1].run_ladder(eps, k0)
            if chosen is None or _accepted(out):
                chosen = out
    if constructive.doomed and not _accepted(chosen):
        chosen = constructive.run_ladder(eps, k0) or chosen
    if chosen is None:
        raise HolantError("the log series diverged on every available rung")

    attempt, T, phi, k_used, sound, converged = chosen
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
        "rung_sound": sound,
        "rungs_tried": [r for r, _ in attempt.rungs],
        "transform_source": attempt.label,
        "rung_verdicts": {a.label: [list(v) for v in a.verdicts] for a in built},
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


def _accepted(out) -> bool:
    return out is not None and out[-1]


def _coefficient_prefix(g: Multigraph, gprime: SymmetricSignature):
    """All of Z_0..Z_m of P_G for the normalized signature.

    The contraction refuses a plan above its entry cap with GuardExceeded;
    approximate_Z has already refused graphs above EDGE_LIMIT.  No shorter
    prefix is tried: every rung's convergence floor exceeds what a short
    prefix holds, and rung soundness needs the roots of all of P_G.
    """
    c = naive_low_coeffs(g, gprime, g.m)
    return np.asarray([float(np.real(x)) for x in c])


def _build_rungs(delta_cert: float, full_coeffs):
    """(rungs, verdicts): the ordered (phi parameter, sound flag) ladder, and
    (phi parameter, verdict, clearance) for every candidate.

    Candidates are the certified parameter (when its convergence floor is
    affordable; parameters below it are certified too but only slower) and
    the default rungs above it.  A rung is "sound" when certified or, given
    the exact P_G roots, when every root preimage clears the unit disk by
    ROOT_CLEARANCE; "doomed" when a preimage lies strictly inside it
    (clearance below 0.98: certain divergence); else "murky".  Clearance
    is the smallest preimage modulus, None for a certified rung or when no
    root bounds it.  Sound rungs run first, largest parameter (fastest)
    first; murky rungs follow as a last resort, guarded by the
    stabilization test.  Doomed rungs are left out, unless every candidate
    is doomed: then the smallest alone is the ladder, so that a
    best-effort sequence exists, and approximate_Z runs it last, after the
    margin search.
    """
    cert_dp = delta_cert / 2.0
    cands = []
    if _rung_feasible(cert_dp):
        cands.append((cert_dp, True))
    cands.extend((dp, False) for dp in DEFAULT_RUNGS if dp > cert_dp)
    if not cands:
        cands = [(DEFAULT_RUNGS[-1], False)]
    poly = Poly(tuple(full_coeffs))
    roots = find_roots(poly) if poly.degree >= 1 else None
    verdicts = []
    for dp, certified in cands:
        ok, clearance = certified, math.inf
        if not ok and roots is not None:
            clearance = _root_clearance(roots, dp, -math.expm1(-1.0 / dp))
            ok = clearance >= ROOT_CLEARANCE
        verdict = "sound" if ok else "doomed" if clearance < 0.98 else "murky"
        verdicts.append((dp, verdict, clearance if math.isfinite(clearance) else None))

    def ladder(kind):
        return sorted(((dp, kind == "sound") for dp, v, _ in verdicts if v == kind), key=lambda t: -t[0])

    rungs = ladder("sound") + ladder("murky")
    if not rungs:
        rungs = [(min(dp for dp, _, _ in verdicts), False)]
    return rungs, verdicts
