"""Symmetric signatures and their second-order recurrence structure.

A symmetric signature of arity d is the weight vector [f_0, ..., f_d]: the
value of a d-ary constraint on inputs of Hamming weight i is f_i.  Entries
may be ints, Fractions, or floats; exact entries are preserved so the
exact oracle can run in rational arithmetic.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, ExceptionalSignature, InconsistentRecurrence
from .stability import Poly

# Acceptance threshold on the smallest singular value of the recurrence
# system, relative to max |f_i|.
RECURRENCE_ACCEPT = 1e-6
# Entries of a detected triple below this (relative) are considered zero.
TRIPLE_ZERO = 1e-9


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SymmetricSignature:
    """Arity-d symmetric constraint function, stored as values f_0..f_d.

    Entries are normally non-negative reals; transformed signatures may
    carry complex entries (see ``is_real``).
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        if len(vals) < 2:
            raise ArgumentError("signature needs arity >= 1 (at least two entries)")
        for v in vals:
            if not _is_exact(v) and not cmath.isfinite(complex(v)):
                raise ArgumentError("signature entries must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def arity(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        """True when every entry is an int or Fraction (rational oracle mode)."""
        return all(_is_exact(v) for v in self.values)

    @property
    def is_real(self) -> bool:
        return all(complex(v).imag == 0 for v in self.values)

    @property
    def is_nonnegative(self) -> bool:
        return self.is_real and all(complex(v).real >= 0 for v in self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def as_floats(self) -> np.ndarray:
        if not self.is_real:
            raise ArgumentError("signature has complex entries")
        return np.array([float(complex(v).real) for v in self.values], dtype=float)

    def as_complex(self) -> np.ndarray:
        return np.array([complex(v) for v in self.values], dtype=complex)

    def scaled(self, t) -> "SymmetricSignature":
        return SymmetricSignature(tuple(v * t for v in self.values))


def signature(values) -> SymmetricSignature:
    """Validating constructor for user-supplied signatures (entries >= 0)."""
    sig = SymmetricSignature(tuple(values))
    if not sig.is_nonnegative:
        raise ArgumentError("signature entries must be non-negative")
    return sig


def reverse(f: SymmetricSignature) -> SymmetricSignature:
    """The reversal [f_d, ..., f_0]; an involution that preserves Holant values."""
    return SymmetricSignature(tuple(f.values[::-1]))


@dataclass(frozen=True)
class RecurrenceTriple:
    """Constants (a, b, c) with a f_k + b f_{k+1} + c f_{k+2} = 0 for all k.

    Canonical scale: the largest-magnitude entry is 1 and the first nonzero
    entry is positive.  ``ambiguous`` marks triples that are not an isolated
    solution direction (nullspace dimension >= 2, e.g. geometric signatures)
    or that only pin a run of zero entries without relating nonzero ones
    (pure-truncation triples like (0,0,1)).
    """

    a: float
    b: float
    c: float
    ambiguous: bool = False

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def residuals(self, f: SymmetricSignature) -> np.ndarray:
        v = f.as_floats()
        return self.a * v[:-2] + self.b * v[1:-1] + self.c * v[2:]


def _canonicalize_triple(v: np.ndarray) -> np.ndarray:
    v = v / np.max(np.abs(v))
    for x in v:
        if abs(x) > TRIPLE_ZERO:
            if x < 0:
                v = -v
            break
    return v


def detect_recurrence(f: SymmetricSignature):
    """Find (a, b, c) with a f_k + b f_{k+1} + c f_{k+2} = 0 for 0 <= k <= d-2.

    The triple is the least-singular-value direction of the (d-1) x 3
    system with rows [f_k, f_{k+1}, f_{k+2}]; absent when the smallest
    singular value exceeds 1e-6 * max |f_i|.
    """
    if f.arity < 2:
        raise ArgumentError("recurrence detection needs arity >= 2")
    v = f.as_floats()
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        # the zero signature satisfies every triple
        return RecurrenceTriple(0.0, 0.0, 1.0, ambiguous=True)
    rows = np.column_stack([v[:-2], v[1:-1], v[2:]])
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    svals = np.zeros(3)
    svals[: len(s)] = s
    if svals[2] > RECURRENCE_ACCEPT * scale:
        return None
    null_dim = int(np.sum(svals <= RECURRENCE_ACCEPT * scale))
    basis = vh[3 - null_dim :]
    # prefer a canonical basis vector when one lies in the nullspace and
    # passes the acceptance bound itself: a null direction within 1e-9 of
    # it can still leave a residual the bound rejects
    direction = None
    for e in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        proj = basis.T @ (basis @ e)
        if np.linalg.norm(proj) >= 1.0 - 1e-9 and np.linalg.norm(rows @ e) <= RECURRENCE_ACCEPT * scale:
            direction = e
            break
    if direction is None:
        direction = vh[2]
    a, b, c = _canonicalize_triple(np.asarray(direction, dtype=float))
    truncation_form = (abs(a) <= TRIPLE_ZERO and abs(b) <= TRIPLE_ZERO) or (
        abs(b) <= TRIPLE_ZERO and abs(c) <= TRIPLE_ZERO
    )
    return RecurrenceTriple(float(a), float(b), float(c), ambiguous=(null_dim >= 2 or truncation_form))


def local_polynomial(f: SymmetricSignature) -> Poly:
    """Generating polynomial sum_i C(d, i) f_i z^i of a single vertex.

    Binomials are computed in exact integer arithmetic before conversion.
    """
    d = f.arity
    return Poly(tuple(math.comb(d, i) * complex(f.values[i]) for i in range(d + 1)))


@dataclass(frozen=True)
class TensorDecomposition:
    """f as a sum of d-th tensor powers of two binary vectors.

    kind == "distinct":   f_k = x * phi1^k + y * phi2^k
    kind == "confluent":  f_k = x * phi^k + y * k * phi^(k-1), with 0*0^-1 = 0
    ``real`` marks decompositions whose parameters are all real.
    """

    kind: str
    x: complex
    y: complex
    phi1: complex
    phi2: complex = 0j

    @property
    def real(self) -> bool:
        parts = (self.x, self.y, self.phi1) + ((self.phi2,) if self.kind == "distinct" else ())
        return all(abs(p.imag) <= 1e-9 * (1.0 + abs(p)) for p in parts)

    def reconstruct(self, arity: int) -> np.ndarray:
        out = np.empty(arity + 1, dtype=complex)
        for k in range(arity + 1):
            if self.kind == "distinct":
                out[k] = self.x * self.phi1**k + self.y * self.phi2**k
            else:
                # k = 0 uses the convention 0 * phi^-1 = 0
                slope = 0j if k == 0 else k * self.phi1 ** (k - 1)
                out[k] = self.x * self.phi1**k + self.y * slope
        return out


def tensor_decompose(f: SymmetricSignature, t: RecurrenceTriple) -> TensorDecomposition:
    """Solve the characteristic polynomial c z^2 + b z + a and fit x, y to f_0, f_1.

    Requires c != 0; the c = 0 geometric branch is handled by the caller.
    Raises InconsistentRecurrence when the reconstruction misses f by more
    than 1e-6 relative.
    """
    a, b, c = t.as_tuple()
    tol_scale = max(abs(a), abs(b), abs(c))
    if abs(c) <= 1e-12 * tol_scale:
        raise ArgumentError("tensor_decompose needs c != 0 in the recurrence triple")
    disc = b * b - 4.0 * a * c
    f0 = float(f.values[0])
    f1 = float(f.values[1])
    if abs(disc) <= 1e-12 * tol_scale * tol_scale:
        phi = -b / (2.0 * c)
        x = complex(f0)
        y = complex(f1 - f0 * phi)  # f_1 = x*phi + y
        dec = TensorDecomposition("confluent", x, y, complex(phi))
    else:
        # roots q/c and a/q with q = -(b + sign(b) sqrt(disc)) / 2: no
        # cancellation, which (-b +- sqrt(disc)) / 2c has in the small root;
        # phi1 is still the root with +sqrt(disc), phi2 the one with -sqrt
        sq = complex(disc) ** 0.5
        q = -0.5 * (b + sq) if b >= 0 else -0.5 * (b - sq)
        phi1, phi2 = (a / q, q / c) if b >= 0 else (q / c, a / q)
        x = (f1 - f0 * phi2) / (phi1 - phi2)
        y = f0 - x
        dec = TensorDecomposition("distinct", complex(x), complex(y), complex(phi1), complex(phi2))
    recon = dec.reconstruct(f.arity)
    scale = max(1e-300, float(np.max(np.abs(f.as_floats()))))
    if np.max(np.abs(recon - f.as_floats())) > 1e-6 * scale:
        raise InconsistentRecurrence("triple does not reproduce the signature")
    return dec


def normalize_leading(f: SymmetricSignature):
    """Scale (and possibly reverse) f so the leading entry is 1.

    Returns (g, scale, reversed_flag) with g_0 = 1 and
    Z(G; f) = scale^|V| * Z(G; g); reversal leaves Z unchanged.
    Raises ExceptionalSignature when f_0 = f_d = 0.
    """
    f0, fd = f.values[0], f.values[-1]
    if f0 > 0:
        lead, rev, g = f0, False, f
    elif fd > 0:
        lead, rev, g = fd, True, reverse(f)
    else:
        raise ExceptionalSignature("both end entries vanish; use the exceptional-case path")
    one = Fraction(1) if _is_exact(lead) else 1.0
    scaled = SymmetricSignature(tuple(v * (one / lead) for v in g.values))
    return scaled, lead, rev
