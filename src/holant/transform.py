"""2x2 holographic transformations and stabilizing orthogonal matrices.

A transform M acts on a symmetric signature f of arity d as f . M^(x)d.
Orthogonal M (M M^T = I) preserve the binary equality on edges and hence
the partition function; `find_stabilizing_transform` constructs an
orthogonal M making the transformed local polynomial half-plane stable,
following the discriminant case analysis of second-order recurrences,
and falls back to `margin_search`, the one sweep of the rotation family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CastError
from .signatures import (
    RecurrenceTriple,
    SymmetricSignature,
    detect_recurrence,
    local_polynomial,
    reverse,
    tensor_decompose,
)
from .stability import StabilityCertificate, find_roots, h_eps_stability, stable_margins

ORTHO_TOL = 1e-10
# relative tolerance for the structural equalities of the case analysis and
# of the classifier's decision tree; near-threshold inputs fall through to
# the transform branch, whose stability validator accepts or rejects
# numerically (misrouting toward "try the transform" is safe, misrouting
# toward "tractable" is not)
STRUCT_TOL = 1e-9
# relative size (against the largest entry) at which a part of a
# transformed entry is rounding residue: cast_real zeroes such real parts
# and refuses any larger imaginary part
CAST_TOL = 1e-12
# margins closer than this are ties in the margin search
MARGIN_TIE = 1e-8


@dataclass(frozen=True)
class Matrix2:
    """Complex 2x2 matrix; set ``orthogonal`` only when M M^T = I holds."""

    m00: complex
    m01: complex
    m10: complex
    m11: complex
    orthogonal: bool = False

    def __post_init__(self):
        for name in ("m00", "m01", "m10", "m11"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.orthogonal:
            g = self.gram()
            err = max(abs(g[0][0] - 1), abs(g[0][1]), abs(g[1][0]), abs(g[1][1] - 1))
            if err > ORTHO_TOL:
                raise ArgumentError(f"orthogonality violated by {err:.2e}")

    def rows(self):
        return ((self.m00, self.m01), (self.m10, self.m11))

    def gram(self):
        (p, q), (s, t) = self.rows()
        return ((p * p + q * q, p * s + q * t), (s * p + t * q, s * s + t * t))

    @property
    def det(self) -> complex:
        return self.m00 * self.m11 - self.m01 * self.m10

    def inverse(self) -> "Matrix2":
        d = self.det
        if abs(d) <= 1e-12:
            raise ArgumentError("matrix is singular")
        return Matrix2(self.m11 / d, -self.m01 / d, -self.m10 / d, self.m00 / d)

    def matmul(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def as_array(self) -> np.ndarray:
        return np.array(self.rows(), dtype=complex)

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1, 0, 0, 1, orthogonal=True)

    @staticmethod
    def swap() -> "Matrix2":
        return Matrix2(0, 1, 1, 0, orthogonal=True)


@dataclass(frozen=True)
class BinarySignature:
    """Symmetric arity-2 signature [b_0, b_1, b_2]; b_1 is the cross term."""

    values: tuple

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if len(vals) != 3:
            raise ArgumentError("binary signature needs exactly three entries")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def apply_holographic(f: SymmetricSignature, M: Matrix2) -> SymmetricSignature:
    """The transformed signature f . M^(x)d, computed in O(d^3).

    Writing f as the binary form sum_k C(d,k) f_k u^(d-k) v^k, the transform
    substitutes u -> m00 u + m01 v, v -> m10 u + m11 v; entry j of the result
    is the v^j coefficient divided by C(d, j).  Output entries are complex.

    Every certificate, g' and estimate comes from these bits, so the
    scalar arithmetic follows the reference numpy kernel in
    tests/test_transform.py operation for operation: powers by repeated
    squaring from 1, sums in increasing index, and the division as numpy
    divides by a real (Smith's rule, (re + im*0) * (1 / C(d, j))).  The
    bits agree for every real M, the only kind the package applies; for a
    complex M they may differ in the last places where numpy fuses a
    multiply-add of a complex product.
    """
    vals = [complex(x) for x in f.values]
    d = len(vals) - 1
    acc = [0j] * (d + 1)
    for k, fk in enumerate(vals):
        pb = _linear_powers(M.m10, M.m11, k)
        prod = [0j] * (d + 1)
        for i, x in enumerate(_linear_powers(M.m00, M.m01, d - k)):
            for j, y in enumerate(pb):
                prod[i + j] += x * y
        c = math.comb(d, k) * fk
        for j, p in enumerate(prod):
            acc[j] += c * p
    out = []
    for j, z in enumerate(acc):
        inv = 1.0 / math.comb(d, j)
        out.append(complex((z.real + z.imag * 0.0) * inv, (z.imag - z.real * 0.0) * inv))
    return SymmetricSignature(tuple(out))


def _linear_powers(c0: complex, c1: complex, n: int) -> list:
    """Coefficients of (c0 + c1 z)^n."""
    return [math.comb(n, i) * _powu(c0, n - i) * _powu(c1, i) for i in range(n + 1)]


def _powu(x: complex, n: int) -> complex:
    """x**n by repeated squaring."""
    out = 1 + 0j
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        x = x * x
    return out


def cast_real(f: SymmetricSignature, tol: float = CAST_TOL) -> SymmetricSignature:
    """The real signature of f with its rounding residue dropped.

    A real or imaginary part of at most tol times the largest entry
    modulus is residue.  Residue real parts become 0: where the
    distinct-root construction makes an entry vanish, floats leave about
    1e-16, and the companion matrix would turn that into a root near
    +-1e16 and fail a stable transform.  Imaginary parts must all be
    residue; a larger one raises CastError.
    """
    vals = f.as_complex()
    bound = tol * max(1e-300, float(np.max(np.abs(vals))))
    worst = float(np.max(np.abs(vals.imag)))
    if worst > bound:
        raise CastError(f"imaginary residue {worst:.2e} exceeds tolerance")
    return SymmetricSignature(tuple(0.0 if abs(x) <= bound else float(x) for x in vals.real))


def transform_equality(M: Matrix2) -> BinarySignature:
    """M^(x)2 applied to the binary equality: [p^2+q^2, ps+qt, s^2+t^2].

    For orthogonal M this returns [1, 0, 1].
    """
    if abs(M.det) <= 1e-12:
        raise ArgumentError("matrix is singular")
    (p, q), (s, t) = M.rows()
    return BinarySignature((p * p + q * q, p * s + q * t, s * s + t * t))


def rotation_from_w(w: float, convention: str = "delta0") -> Matrix2:
    """Normalized orthogonal matrix for the parameter w.

    delta0: [[1, w], [-w, 1]] / sqrt(1+w^2)   (repeated-root construction)
    delta1: [[w, 1], [1, -w]] / sqrt(1+w^2)   (distinct-root construction)
    """
    if not math.isfinite(w):
        raise ArgumentError("w must be finite")
    r = 1.0 / math.sqrt(1.0 + w * w)
    if convention == "delta0":
        return Matrix2(r, w * r, -w * r, r, orthogonal=True)
    if convention == "delta1":
        return Matrix2(w * r, r, r, -w * r, orthogonal=True)
    raise ArgumentError(f"unknown convention {convention!r}")


def rotation_roots(f: SymmetricSignature, candidates) -> np.ndarray:
    """Roots of the local polynomials of f under a batch of real rotations.

    ``candidates`` is a sequence of (w, convention, use_reversal).  Row i
    holds the d roots of ``local_polynomial(apply_holographic(target,
    rotation_from_w(w, conv)))``, target = f or its reversal: the rows of
    ``_rotated_roots``, the one kernel that ``margin_search`` also scores.
    A root sent to infinity is given as -inf; for f = 0 the rows are 0.
    """
    cands = list(candidates)
    if not cands:
        return np.zeros((0, f.arity), dtype=complex)
    ws, convs, revs = zip(*cands)
    ws = np.array(ws, dtype=float)
    if not np.all(np.isfinite(ws)) or not set(convs) <= {"delta0", "delta1"}:
        raise ArgumentError("rotations need a finite w and the convention delta0 or delta1")
    flip = np.array(convs) == "delta1"
    return _rotated_roots(_binary_zeros(f), f.arity, ws, flip, np.array(revs, dtype=bool))


def rotation_margins(f: SymmetricSignature, candidates) -> np.ndarray:
    """Stability margins of f under a batch of real rotations.

    Entry i is the margin that ``h_eps_stability`` certifies for the
    transformed local polynomial of candidate i, or -inf where it
    certifies none: its margin rule ``stable_margins`` applied to the
    roots from ``rotation_roots``.
    """
    return stable_margins(rotation_roots(f, candidates))


def _binary_zeros(f: SymmetricSignature):
    """The d zeros (u, v) of f's binary form F(u, v) = sum_k C(d,k) f_k
    u^(d-k) v^k, as two arrays: (1, t) for each root t of the local
    polynomial F(1, z), (0, 1) for each degree it lacks.  None for f = 0."""
    poly = local_polynomial(f)
    deg = poly.degree
    if deg < 0:
        return None
    missing = f.arity - deg
    u = np.concatenate([np.ones(deg), np.zeros(missing)])
    v = np.concatenate([find_roots(poly) if deg else [], np.ones(missing)])
    return u, v


def _rotated_roots(zeros, arity: int, ws: np.ndarray, flip: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """Row i: the roots of the local polynomial of (f, or its reversal
    where rev[i]) . rotation_from_w(ws[i], delta1 where flip[i], else
    delta0), from f's ``zeros`` (see ``_binary_zeros``).

    No transformed polynomial is built.  The transform substitutes M (u, v)
    for the variables of F, so it moves each zero of F by adj(M): a zero
    (u, v) goes to z = (v m00 - u m10) / (u m11 - v m01), and a zero with
    u m11 = v m01 goes to infinity, a degree the transformed polynomial
    loses, given as -inf, which no half-plane test counts.  The reversal
    swaps u and v.  For f = 0 (zeros None) the rows are 0.
    """
    if zeros is None:
        return np.zeros((len(ws), arity), dtype=complex)
    u, v = zeros
    rev = rev[:, None]
    u, v = np.where(rev, v, u), np.where(rev, u, v)
    # entries of rotation_from_w, one row per candidate
    flip = flip[:, None]
    r = 1.0 / np.sqrt(1.0 + ws * ws)[:, None]
    wr = ws[:, None] * r
    m00, m01, m10, m11 = (np.where(flip, x, y) for x, y in ((wr, r), (r, wr), (r, -wr), (-wr, r)))
    den = m11 * u - m01 * v
    at_inf = den == 0
    return np.where(at_inf, -math.inf, (m00 * v - m10 * u) / np.where(at_inf, 1.0, den))


# ----------------------------------------------------------------------
# stabilizing transform construction


@dataclass(frozen=True)
class PairDecomposition:
    """f = (p,q)^(x)d + r (s,t)^(x)d with r in {+1, -1}."""

    p: float
    q: float
    s: float
    t: float
    r: int

    def sums(self):
        return (self.p**2 + self.q**2, self.s**2 + self.t**2)

    @property
    def cross(self) -> float:
        """pt - qs; zero iff the two vectors are parallel (degenerate f)."""
        return self.p * self.t - self.q * self.s

    @property
    def mixed(self) -> float:
        """ps + qt, the middle entry of the transformed binary equality."""
        return self.p * self.s + self.q * self.t


def _signed_root(x: float, d: int) -> tuple:
    """Real w with w^d = x when possible; returns (w, residual_sign)."""
    if x >= 0:
        return x ** (1.0 / d), 1
    if d % 2 == 1:
        return -((-x) ** (1.0 / d)), 1
    return (-x) ** (1.0 / d), -1


def pair_decompose(f: SymmetricSignature, t: RecurrenceTriple) -> PairDecomposition:
    """Split a positive-discriminant signature into two rank-1 tensor powers.

    Needs f_0 > 0.  With c = 0 the split is x (1, phi)^(x)d + y (0, 1)^(x)d;
    otherwise the two real characteristic roots give x (1,phi1)^(x)d +
    y (1,phi2)^(x)d.  Coefficients are pulled into the vectors, leaving a
    sign r on the second term when d is even.
    """
    d = f.arity
    a, b, c = t.as_tuple()
    scale = max(abs(a), abs(b), abs(c))
    if abs(c) <= 1e-12 * scale:
        if abs(b) <= 1e-12 * scale:
            raise ArgumentError("degenerate triple (a, 0, 0)")
        phi = -a / b
        x = float(f.values[0])
        y = float(f.values[d]) - x * phi**d
        vecs = ((1.0, phi), (0.0, 1.0))
        coefs = (x, y)
    else:
        dec = tensor_decompose(f, t)
        if dec.kind != "distinct":
            raise ArgumentError("pair decomposition needs distinct characteristic roots")
        vecs = ((1.0, dec.phi1.real), (1.0, dec.phi2.real))
        coefs = (dec.x.real, dec.y.real)
    (w1, r1) = _signed_root(coefs[0], d)
    (w2, r2) = _signed_root(coefs[1], d)
    pairs = [
        ((w1 * vecs[0][0], w1 * vecs[0][1]), r1),
        ((w2 * vecs[1][0], w2 * vecs[1][1]), r2),
    ]
    if pairs[0][1] < 0:
        pairs.reverse()
    if pairs[0][1] < 0:
        raise ArgumentError("both tensor coefficients negative; f cannot be non-negative")
    (p, q), _ = pairs[0]
    (s, t_), r = pairs[1]
    return PairDecomposition(p, q, s, t_, r)


@dataclass(frozen=True)
class StableTransform:
    """Orthogonal matrix stabilizing f (or its reversal) plus the certificate,
    and where it came from: "constructive" or "margin-search"."""

    matrix: Matrix2
    use_reversal: bool
    certificate: StabilityCertificate
    source: str


def _validate(f: SymmetricSignature, M: Matrix2, use_reversal: bool):
    """The stability certificate of the signature the evaluator evaluates,
    cast_real of (f or its reversal) . M^(x)d; None when it is not stable."""
    target = reverse(f) if use_reversal else f
    return h_eps_stability(local_polynomial(cast_real(apply_holographic(target, M))))


def _lemma_w_distinct(pd: PairDecomposition):
    """Parameter w of the distinct-root construction; returns (w, swap_flag).

    Preconditions: cross != 0 and the two squared norms differ.  When
    |q| = |t| the pairs are interchanged, which amounts to working with the
    reversal of f.
    """
    p, q, s, t = pd.p, pd.q, pd.s, pd.t
    norm = max(pd.sums())
    swap = abs(abs(q) - abs(t)) <= STRUCT_TOL * math.sqrt(norm)
    if swap:
        p, q, s, t = q, p, t, s
    if p == 0 and q == 0:
        w = _w_for_single_vector(s, t)
    elif s == 0 and t == 0:
        w = _w_for_single_vector(p, q)
    else:
        ratio = (p * p + q * q - s * s - t * t) / (q * s - p * t)
        alpha = -1.0 if ratio > 0 else 1.0
        w = (alpha * s + p) / (alpha * t + q)
    return w, swap


def _w_for_single_vector(s: float, t: float) -> float:
    """w choice when one tensor-power vector vanishes; root is -(t+sw)/(s-tw)."""
    if t == 0:
        return 1.0
    if s == 0:
        return -1.0
    if s * t < 0:
        return 2.0 * s / t
    return 0.0


def _lemma_w_repeated(f: SymmetricSignature, t: RecurrenceTriple):
    """w of the repeated-root construction (delta0), or None for M = I."""
    a, b, c = t.as_tuple()
    scale = max(abs(a), abs(b), abs(c))
    if abs(c) <= 1e-12 * scale:
        return None  # cannot happen for f_0 > 0; let the caller fall back
    if abs(b) <= STRUCT_TOL * scale:
        # a = 0 as well, so f = [f_0, f_1, 0, ..., 0]: identity suffices
        return 0.0
    d = f.arity
    phi = -b / (2.0 * c)
    x = float(f.values[0])
    y = float(f.values[1]) / phi - x
    xd = x + y * d
    if abs(xd) <= STRUCT_TOL * max(x, abs(y) * d, 1e-300):
        return -2.0 * phi if phi < 0 else 1.0 / (2.0 * phi)
    if phi > 0 and xd > 0:
        return min(1.0 / (2.0 * phi), x / (2.0 * xd * phi))
    return None  # excluded by non-negativity; numerical fallback handles it


def find_stabilizing_transform(f: SymmetricSignature, triple: RecurrenceTriple = None):
    """Orthogonal M such that the local polynomial of f.M^(x)d (or of the
    reversal, when flagged) is half-plane stable; None when no candidate
    validates.

    The constructive choice follows the discriminant of the recurrence:
    negative -> identity already works; zero -> repeated-root w; positive ->
    distinct-root w from the tensor pair.  The candidate is validated
    numerically; when there is none, or it fails, the result is that of
    ``margin_search``, the one rotation sweep.
    """
    if not f.is_nonnegative:
        raise ArgumentError("stabilizing transform needs non-negative entries")
    if float(f.values[0]) <= 0:
        raise ArgumentError("normalize first: f_0 must be positive")
    t = triple if triple is not None else detect_recurrence(f)
    if t is None:
        raise ArgumentError("signature has no second-order recurrence")
    candidate = _construction(f, t)
    if candidate is not None:
        cert = _validate(f, *candidate)
        if cert is not None:
            return StableTransform(*candidate, cert, "constructive")
    return margin_search(f)


def _construction(f: SymmetricSignature, t: RecurrenceTriple):
    """(M, use_reversal) of the paper's construction for f, or None where
    its preconditions fail."""
    disc = t.discriminant
    scale = max(abs(t.a), abs(t.b), abs(t.c))
    if disc < -STRUCT_TOL * scale * scale:
        return Matrix2.identity(), False
    if disc <= STRUCT_TOL * scale * scale:
        w = _lemma_w_repeated(f, t)
        return None if w is None else (rotation_from_w(w, "delta0"), False)
    try:
        pd = pair_decompose(f, t)
        sums = pd.sums()
        if abs(pd.cross) > STRUCT_TOL * max(sums) and abs(sums[0] - sums[1]) > STRUCT_TOL * max(sums):
            w, swap = _lemma_w_distinct(pd)
            return rotation_from_w(w, "delta1"), swap
    except ArgumentError:
        pass
    return None


_CONVENTIONS = ("delta0", "delta1")


def margin_search(f: SymmetricSignature):
    """Margin-maximizing orthogonal transform over the rotation family.

    Deterministic two-stage sweep of the rotation angle (both matrix
    conventions, f and its reversal).  It is the classifier's fallback
    when the construction fails its check, and the evaluator's retry when
    a larger margin is needed to open up a usable rung.

    The search solves f's own local polynomial once: every candidate's
    roots are f's zeros moved by its Moebius map (``_rotated_roots``), one
    array of rows per stage, scored by ``stable_margins``.  Candidate i
    of a stage is angle i // 4, convention delta1 when bit 1 of i is set,
    and the reversal when bit 0 is; tan is taken once per angle.  The
    certificate comes from ``_validate``, on the signature the evaluator
    evaluates.  Should it reject the winner, the other candidates of both
    stages with a margin are tried in decreasing margin order (ranked only
    then).

    (w, delta0, reversal) and (-w, delta1, f) are the same transform: the
    reversal swaps the two variables of f's binary form, and that swap
    turns the rows of delta0(w) into delta1(-w).  The sweep's angles are
    symmetric about 0, so its candidates come in mirrored pairs whose
    margins differ only by the rounding of the angles.  Near its optimum
    a margin is accurate to about 1e-8, so a candidate replaces the best
    only when it beats it by more than that.  Ties thus go to the first
    candidate in sweep order: by angle, then delta0 before delta1, then f
    before its reversal.
    """
    zeros = _binary_zeros(f)
    stages = []  # per stage: its angles and its candidates' margins
    best = None  # (margin, stage, candidate index)
    thetas = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 157)
    for stage in range(2):
        angles = thetas.tolist()
        ws = np.repeat([math.tan(th) for th in angles], 4)
        index = np.arange(len(ws))
        margins = stable_margins(_rotated_roots(zeros, f.arity, ws, (index & 2) > 0, (index & 1) > 0)).tolist()
        stages.append((angles, margins))
        for i, margin in enumerate(margins):
            if margin > -math.inf and (best is None or margin > best[0] + MARGIN_TIE):
                best = (margin, stage, i)
        if best is None:
            return None
        center = stages[best[1]][0][best[2] // 4]
        step = thetas[1] - thetas[0]
        thetas = np.linspace(center - step, center + step, 41)
    for _, stage, i in _best_first(best, stages):
        M = rotation_from_w(math.tan(stages[stage][0][i // 4]), _CONVENTIONS[i >> 1 & 1])
        cert = _validate(f, M, bool(i & 1))
        if cert is not None:
            return StableTransform(M, bool(i & 1), cert, "margin-search")
    return None


def _best_first(best, stages):
    """best, then every other candidate with a margin, by decreasing
    margin and then in sweep order (ranked only if asked for)."""
    yield best
    rest = [
        (margin, stage, i)
        for stage, (_, margins) in enumerate(stages)
        for i, margin in enumerate(margins)
        if margin > -math.inf and (stage, i) != best[1:]
    ]
    yield from sorted(rest, key=lambda cand: -cand[0])
