"""Polynomial root location and half-plane stability certificates.

A polynomial P is called H_eps-stable when it has no zero z with
Re z >= -eps.  Stability of the local vertex polynomial is what licenses
the truncated-Taylor evaluator: it forces the global edge-generating
polynomial of every regular instance out of a strip around [0, 1].

All functions here are pure; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# Roots with real part above -REJECT_RE are treated as unstable.  Boundary
# (imaginary-axis) roots must be rejected: without a uniform margin the
# strip zero-freeness argument fails.
REJECT_RE = -1e-9

# Cap on the strip half-width delta; it must stay below 1/2 so the disk-to-
# strip map phi_{delta/2} remains well conditioned.
DELTA_CAP = 0.45


@dataclass(frozen=True)
class Poly:
    """Dense complex polynomial c_0 + c_1 z + ... + c_n z^n."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ArgumentError("empty coefficient vector")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (-1 for the zero polynomial)."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def scaled(self, t) -> "Poly":
        return Poly(tuple(t * c for c in self.coeffs))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class StabilityCertificate:
    """Witness that a polynomial is H_eps-stable.

    ``margin`` is min(-Re r) over the roots r; ``eps`` is margin/2, leaving
    slack against root-finding error (the downstream strip width depends
    only on eps, so halving is safe).
    """

    eps: float
    roots: tuple
    margin: float


def find_roots(p: Poly) -> np.ndarray:
    """All complex roots of p, via companion-matrix eigenvalues.

    Zero roots are split off first, as ``numpy.roots`` does.  Each root
    gets one Newton polish, applied to the reversed polynomial at 1/r when
    |r| > 1 so the step stays well conditioned.  The residual contract is
    max |p(r)| <= 1e-8 * max |c_j|, with |p| measured through the reversed
    polynomial for roots outside the unit circle (a direct evaluation there
    drowns in cancellation noise of order |r|^deg * ulp whatever the root
    quality).
    """
    deg = p.degree
    if deg < 1:
        raise ArgumentError("root finding needs degree >= 1")
    c = p.as_array()[: deg + 1]
    zeros = int(np.flatnonzero(c)[0])
    roots = np.zeros(deg, dtype=complex)
    if zeros < deg:
        roots[: deg - zeros] = _companion_roots(c[zeros:])
    return _polish(c, roots)


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix numpy.roots builds for the
    ascending coefficients c, whose first and last entries are nonzero.

    Like numpy.roots on real input, coefficients whose imaginary part is
    all zero get a real companion matrix, whose real LAPACK call is
    cheaper.
    """
    n = len(c) - 1
    desc = c[::-1] if np.any(np.imag(c) != 0) else np.real(c[::-1])
    comp = np.zeros((n, n), dtype=desc.dtype)
    comp[0, :] = -desc[1:] / desc[:1]
    comp[np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _polish(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton step per root: at r when |r| <= 1, else on the reversed
    polynomial at 1/r."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = _newton(c, roots)
        far = 1.0 / _newton(c[::-1], 1.0 / roots)
    return np.where(np.abs(roots) <= 1.0, near, far)


def _newton(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    dc = c[1:] * np.arange(1, len(c))
    pv, dv = _polyval(c, z), _polyval(dc, z)
    ok = np.abs(dv) > 1e-300
    return np.where(ok, z - pv / np.where(ok, dv, 1.0), z)


def _polyval(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner values of the ascending coefficients c at the points z."""
    y = np.zeros_like(z)
    for coef in c[::-1]:
        y = y * z + coef
    return y


def stable_margins(roots: np.ndarray) -> np.ndarray:
    """min(-Re r) over each row of roots (N, n), or -inf where some root
    has Re r >= REJECT_RE."""
    stable = ~np.any(roots.real >= REJECT_RE, axis=1)
    return np.where(stable, np.min(-roots.real, axis=1), -math.inf)


def h_eps_stability(p: Poly):
    """Certificate that p is H_eps-stable, or None.

    Present iff every root satisfies Re r < -1e-9.  A nonzero constant has
    no roots and is stable with the eps sentinel capped at 1.0.
    """
    deg = p.degree
    if deg < 0:
        return None
    if deg == 0:
        return StabilityCertificate(eps=1.0, roots=(), margin=math.inf)
    roots = find_roots(p)
    margin = float(stable_margins(roots[None, :])[0])
    if margin == -math.inf:
        return None
    return StabilityCertificate(eps=margin / 2.0, roots=tuple(roots), margin=margin)


def strip_halfwidth(eps: float) -> float:
    """Half-width delta of the zero-free strip granted by an H_eps certificate.

    delta = eps^2 / 2, capped at DELTA_CAP.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    return min(eps * eps / 2.0, DELTA_CAP)


def strip_distance(z: complex, delta: float) -> float:
    """Euclidean distance from z to the delta-strip of [0, 1] (0 if inside)."""
    dx = max(-delta - z.real, z.real - (1.0 + delta), 0.0)
    dy = max(abs(z.imag) - delta, 0.0)
    return math.hypot(dx, dy)


def verify_strip_zero_free(p: Poly, delta: float):
    """Check that no root of p lies in the delta-strip of [0, 1].

    Returns (flag, min_distance): flag is True when the strip is clear and
    min_distance is the smallest distance from a root to the strip.
    Intended for exactly known polynomials (oracle-scale harness use).
    """
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    roots = find_roots(p)
    dists = [strip_distance(complex(r), delta) for r in roots]
    dmin = min(dists)
    return dmin > 0.0, dmin
