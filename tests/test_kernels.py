"""The evaluator's series kernels and the batched margin sweep against
direct reference implementations kept here, the sampled series against a
50-digit one, and the sweep's margins against 50-digit roots."""

import decimal
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import holant.evaluator as ev
import holant.transform as tr
from holant import stability
from holant.classify import classify
from holant.coeffs import power_sums_from_coeffs
from holant.graphs import Multigraph, complete, random_regular
from holant.signatures import local_polynomial, reverse, signature
from holant.stability import REJECT_RE, Poly, find_roots, h_eps_stability
from holant.transform import apply_holographic, rotation_from_w, rotation_margins


# power_sums_from_coeffs once solved Newton's recurrence past its first
# BLOCK terms a block at a time; the cases below straddle those edges
BLOCK = 128


def stepwise_power_sums(c, total_degree, k):
    """Newton's recurrence one term at a time, the reference that
    power_sums_from_coeffs must reproduce bit for bit:
    p_j = -(j c_j + sum_{i=1}^{j-1} p_i c_{j-i}) / c_0."""
    c = np.asarray(c)
    if c.dtype.kind == "c" and not c.imag.any():
        c = c.real
    dtype = np.result_type(c, np.float64)
    rc = np.zeros(k + 1, dtype=dtype)
    upto = min(len(c), k + 1)
    rc[k + 1 - upto :] = c[upto - 1 :: -1]
    p = np.zeros(k + 1, dtype=dtype)
    p[0] = total_degree
    cs = rc.tolist()
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(1, k + 1):
            p[j] = -(j * cs[k - j] + np.dot(p[1:j], rc[k - j + 1 : k])) / cs[k]
    return p


def untrimmed_compose(c, phi, k):
    """compose_prefix with Horner run over every coefficient of order <= k,
    trailing zeros included."""
    phic = phi.prefix(k)
    cv = np.asarray(c)
    if cv.dtype.kind == "c" and not cv.imag.any():
        cv = cv.real
    cv = cv[: k + 1]
    n = 1 << (2 * k).bit_length()
    if cv.dtype.kind == "c":
        forward, inverse = np.fft.fft, np.fft.ifft
    else:
        forward, inverse = np.fft.rfft, lambda x: np.fft.irfft(x, n)
    phi_hat = forward(phic, n)
    out = np.zeros(k + 1, dtype=cv.dtype)
    out[0] = cv[-1]
    for coef in cv[-2::-1]:
        out = inverse(forward(out, n) * phi_hat)[: k + 1]
        out[0] += coef
    return out


def direct_compose(c, phic, k):
    """Horner's scheme with each product a full direct convolution, cut at order k."""
    out = np.zeros(1, dtype=c.dtype)
    for coef in c[::-1]:
        out = np.convolve(out, phic)[: k + 1]
        out[0] += coef
    return np.concatenate([out, np.zeros(k + 1 - len(out), dtype=out.dtype)])


def scalar_margin_search(f):
    """The two-stage rotation sweep, one h_eps_stability call per
    candidate: (margin, angle, convention, use_reversal) of the winner, or
    None when no candidate certifies."""
    rev = reverse(f)
    best = None
    thetas = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 157)
    for _stage in range(2):
        for th in thetas:
            for conv in ("delta0", "delta1"):
                for use_rev in (False, True):
                    M = rotation_from_w(math.tan(th), conv)
                    cert = h_eps_stability(local_polynomial(apply_holographic(rev if use_rev else f, M)))
                    if cert is not None and (best is None or cert.margin > best[0] + tr.MARGIN_TIE):
                        best = (cert.margin, float(th), conv, use_rev)
        if best is None:
            return None
        step = thetas[1] - thetas[0]
        thetas = np.linspace(best[1] - step, best[1] + step, 41)
    return best


def numpy_roots_polished(c):
    """numpy.roots plus one Newton polish per root (at 1/r on the reversed
    polynomial when |r| > 1), one root set at a time.  numpy.roots gets
    real input when the imaginary part is all zero."""
    roots = np.roots(c[::-1] if np.any(c.imag) else c[::-1].real).astype(complex)

    def polish(cs, pts):
        dc = cs[1:] * np.arange(1, len(cs))
        pv, dv = np.polyval(cs[::-1], pts), np.polyval(dc[::-1], pts)
        ok = np.abs(dv) > 1e-300
        pts = pts.copy()
        pts[ok] = pts[ok] - pv[ok] / dv[ok]
        return pts

    inner = np.abs(roots) <= 1.0
    roots[inner] = polish(c, roots[inner])
    roots[~inner] = 1.0 / polish(c[::-1], 1.0 / roots[~inner])
    return roots


def _random_poly(rng, m, complex_entries):
    c = rng.normal(size=m + 1) * np.array([math.comb(m, i) for i in range(m + 1)], dtype=float)
    if complex_entries:
        c = c + 1j * rng.normal(size=m + 1)
    c[0] = 1.0
    return c


@pytest.mark.parametrize("dp", (0.225, 0.185, 0.155, 0.125))
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_fft_composition_matches_direct_horner(dp, complex_entries):
    rng = np.random.default_rng(int(1000 * dp) + complex_entries)
    phi = ev.build_phi(dp)
    ks = [0, 1, 2, 37, 1024] + ([ev.K_GUARD] if not complex_entries else [])
    for k in ks:
        m = int(rng.integers(1, 25))
        c = _random_poly(rng, m, complex_entries)
        got = ev.compose_prefix(c, phi, k)
        want = direct_compose(c, phi.prefix(k), k)
        assert got.shape == want.shape and got.dtype == want.dtype
        # FFT rounding is absolute, on the scale of sum |c_i| (phi's
        # coefficients are positive and sum to 1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(c))


def _composed(seed, complex_entries, k, dp=0.155):
    """The first k+1 coefficients of P composed with phi, as the evaluator
    feeds them to the recurrence.  P is random of degree m with c_0 = 1 and
    its roots in the left half-plane, at least 0.6 from 0, like a
    stable P_G: clear of phi's strip, so the series converges.  Real P
    pairs its complex roots."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 25))
    roots = rng.uniform(0.6, 3.0, m) * np.exp(1j * rng.uniform(math.pi / 2 + 0.1, math.pi, m))
    if not complex_entries:
        roots = np.concatenate([roots[: m // 2], roots[: m // 2].conj(), -np.abs(roots[m // 2 * 2 :])])
    c = np.polynomial.polynomial.polyfromroots(roots)
    c = c / c[0]
    return ev.compose_prefix(c if complex_entries else c.real, ev.build_phi(dp), k), m


@pytest.mark.parametrize("k", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7, ev.K_GUARD])
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_blocked_power_sums_match_the_stepwise_recurrence(k, complex_entries):
    comp, m = _composed(k + complex_entries, complex_entries, k)
    got = power_sums_from_coeffs(comp, m, k)
    want = stepwise_power_sums(comp, m, k)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_horner_over_the_true_degree_changes_no_bit(complex_entries):
    rng = np.random.default_rng(21 + complex_entries)
    phi = ev.build_phi(0.185)
    for top, k in ((3, 18), (6, 18), (0, 9), (12, 40), (5, 3)):
        c = np.zeros(19, dtype=complex if complex_entries else float)
        c[: top + 1] = _random_poly(rng, top, complex_entries)
        got = ev.compose_prefix(c, phi, k)
        want = untrimmed_compose(c, phi, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ev.compose_prefix(np.zeros(5), phi, 4).tobytes() == np.zeros(5).tobytes()


# 50-digit fixed point: a number x is the integer round(x * 10^50)
SCALE = 10**50


def _kronecker_product(a, b, n):
    """First n coefficients of the product of two integer sequences, exact.

    Kronecker substitution: each sequence is packed into one decimal
    integer, W digits a coefficient with an offset of half of 10^W, so
    that one product by the decimal module's number-theoretic transform
    gives every coefficient.
    """
    a, b = a[:n], b[:n]
    width = len(str(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))) + 2
    half = 5 * 10 ** (width - 1)
    ctx = decimal.Context(prec=width * (len(a) + len(b) + 2), Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

    def offset(count):
        return decimal.Decimal(("5" + "0" * (width - 1)) * count)

    def pack(v):
        return ctx.subtract(decimal.Decimal("".join(f"{x + half:0{width}d}" for x in reversed(v))), offset(len(v)))

    count = len(a) + len(b) - 1
    digits = str(ctx.add(ctx.multiply(pack(a), pack(b)), offset(count))).rjust(width * count, "0")
    out = [int(digits[len(digits) - width * (j + 1) : len(digits) - width * j]) - half for j in range(min(n, count))]
    return out + [0] * (n - len(out))


def _fixed_product(a, b, n):
    return [(x + SCALE // 2) // SCALE for x in _kronecker_product(a, b, n)]


def reference_series(c, phic, k):
    """T_1..T_k of log P(phi(z)) at 1 in 50-digit fixed point, from the
    exact float inputs: Horner's composition, 1/Q by Newton's iteration
    r <- r (2 - Q r), and j F_j as the coefficients of z Q' / Q."""
    n = k + 1
    ph = [round(Fraction(x) * SCALE) for x in phic[:n]]
    cs = [Fraction(x) for x in c]
    while cs[-1] == 0:
        cs.pop()
    q = [round(cs[-1] * SCALE)]
    for coef in cs[-2::-1]:
        q = _fixed_product(q, ph, n)
        q[0] += round(coef * SCALE)
    r, size = [round(Fraction(SCALE * SCALE, q[0]))], 1
    while size < n:
        size = min(2 * size, n)
        e = [-x for x in _fixed_product(q, r, size)]
        e[0] += 2 * SCALE
        r = _fixed_product(r, e, size)
    jf = _fixed_product([j * x for j, x in enumerate(q)], r, n)
    T, acc = [], Fraction(0)
    for j in range(1, n):
        acc += Fraction(jf[j], j * SCALE)
        T.append(float(acc))
    return np.array(T)


def _attempt(g, vals):
    f = signature(vals)
    outcome = classify(f)
    return ev._Attempt(g, f, outcome, "constructive")


@pytest.mark.parametrize("dp", [0.185, 0.155])
@pytest.mark.parametrize("n", [12, 20, 26])
def test_sampled_series_matches_a_50_digit_reference(n, dp):
    # matchings on cubic graphs of 18, 30 and 39 edges; the composition
    # and Newton route lost up to 5e-9 at 39 edges
    c = _attempt(random_regular(n, 3, seed=1), [1, 1, 0, 0]).c
    phi = ev.build_phi(dp)
    want = reference_series(c, phi.prefix(ev.K_GUARD), ev.K_GUARD)
    floor = ev._rung_floor(dp)
    for k in (floor, 2 * floor, ev.K_GUARD):
        got = ev._series_estimates(c, phi, k)
        assert got.shape == (k,) and got.dtype == float
        assert np.max(np.abs(got - want[:k])) <= 1e-10


# matchings [1,1,0,0,0] on this 4-regular graph of 18 edges: rung 0.125
# needs more than K_GUARD terms, rung 0.155 has a zero of P(phi(z)) inside
# the unit disk, and the fitted rung (about 0.151) converges
NONCONV9X4 = ((0, 8), (3, 4), (2, 4), (1, 6), (3, 7), (0, 6), (0, 1), (1, 3), (3, 8),
              (5, 6), (0, 2), (4, 7), (5, 7), (1, 5), (7, 8), (2, 6), (2, 8), (4, 5))


def test_a_zero_inside_the_circle_yields_no_stop():
    # P(phi(z)) has a zero inside |z| = 1 - 11/k here; samples around it
    # are no Taylor coefficients, and read as such they once settled on a
    # wrong value.  The zero count turns every call down.
    c = _attempt(Multigraph(9, NONCONV9X4), [1, 1, 0, 0, 0]).c
    dp = 0.155
    phi, floor = ev.build_phi(dp), ev._rung_floor(dp)
    assert ev._root_clearance(find_roots(Poly(tuple(c))), dp) < 1.0
    for k in (floor, 2 * floor, ev.K_GUARD):
        assert ev._series_estimates(c, phi, k) is None


def test_a_nan_count_gives_no_series(monkeypatch):
    # a sample on a zero makes the count nan: no Taylor coefficients come
    # from that circle, and no second circle is tried
    c = _attempt(random_regular(12, 3, seed=1), [1, 1, 0, 0]).c
    phi, k = ev.build_phi(0.185), ev._rung_floor(0.185)
    samples, radii = ev._log_derivative_samples, []

    def circle_meets_a_zero(cv, phi, rho, n):
        radii.append(rho)
        out = samples(cv, phi, rho, n)
        out[1] = np.nan
        return out

    assert ev._series_estimates(c, phi, k) is not None
    monkeypatch.setattr(ev, "_log_derivative_samples", circle_meets_a_zero)
    assert ev._series_estimates(c, phi, k) is None
    assert radii == [1.0 - 11.0 / k]


PETERSEN = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (6, 8), (7, 9), (8, 5), (9, 6),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9))

# the 18 approx instances of the benchmark's two approx workloads at seed 1
# (each graph as that seed draws it), with eps left out
_CUBIC12 = ((7, 10), (1, 3), (8, 10), (4, 8), (1, 11), (6, 9), (2, 9), (2, 11), (5, 10), (3, 7), (3, 5),
            (0, 8), (4, 6), (2, 4), (0, 9), (1, 5), (6, 11), (0, 7))
_CUBIC14 = ((10, 12), (7, 8), (2, 10), (5, 11), (0, 2), (6, 8), (7, 10), (6, 13), (0, 11), (1, 12), (1, 9),
            (7, 13), (3, 13), (3, 4), (2, 9), (0, 12), (8, 9), (4, 5), (1, 4), (3, 11), (5, 6))
_QUARTIC10 = ((5, 7), (1, 3), (6, 9), (1, 6), (3, 9), (0, 4), (1, 8), (1, 5), (2, 8), (0, 5), (2, 7), (4, 7),
              (6, 8), (3, 7), (4, 5), (2, 3), (8, 9), (0, 9), (4, 6), (0, 2))
_CUBIC8 = ((0, 3), (1, 7), (2, 6), (4, 6), (3, 6), (5, 7), (0, 2), (1, 2), (3, 4), (0, 7), (1, 5), (4, 5))
_CUBIC10 = ((6, 8), (3, 7), (2, 9), (3, 4), (7, 9), (5, 8), (2, 7), (0, 9), (3, 6), (0, 4), (1, 8), (0, 1),
            (4, 5), (1, 5), (2, 6))
_QUARTIC8 = ((6, 7), (4, 7), (4, 5), (2, 5), (3, 4), (0, 7), (3, 5), (0, 3), (1, 6), (1, 3), (1, 7), (0, 2),
             (0, 6), (2, 4), (1, 2), (5, 6))
_QUARTIC9 = ((6, 7), (1, 6), (3, 8), (0, 4), (3, 5), (0, 5), (1, 5), (1, 7), (2, 6), (1, 2), (4, 6), (2, 8),
             (0, 2), (5, 8), (4, 8), (0, 7), (3, 7), (3, 4))
SEED1_APPROX = [
    *((Multigraph(12, _CUBIC12), f) for f in ([1, 1, 0, 0], [0, 1, 1, 1], [1, 1, 2, 3])),
    *((Multigraph(14, _CUBIC14), f) for f in ([1, 1, 0, 0], [0, 1, 1, 1], [1, 1, 2, 3])),
    (Multigraph(10, _QUARTIC10), [0, 1, 1, 1, 1]),
    (Multigraph(10, PETERSEN), [3, 1, 1, 1]),
    (Multigraph(10, _CUBIC10), [3, 1, 1, 1]),
    (complete(4), [1, 2, 3, 4]),
    (Multigraph(8, _CUBIC8), [1, 2, 3, 4]),
    (Multigraph(10, _CUBIC10), [1, 2, 1, 1]),
    (complete(4), [1, 2, 1, 1]),
    (complete(5), [1, 2, 3, 4, 5]),
    (Multigraph(9, _QUARTIC9), [1, 2, 3, 4, 5]),
    (Multigraph(8, _QUARTIC8), [1, 1, 0, 0, 0]),
    (complete(5), [1, 1, 0, 0, 0]),
    (Multigraph(9, NONCONV9X4), [1, 1, 0, 0, 0]),
]


def test_a_root_past_the_log_branch_has_no_preimage():
    # phi maps the disk |z| < 1/alpha into |Im| < pi dp; exp(-r/dp) would
    # wrap this root around onto a false preimage of modulus about 0.8
    root = np.array([0.09 + 4.04j])
    assert ev._root_clearance(root, 0.225) == math.inf
    assert ev._root_clearance(np.array([0.09 + 0.5j, 0.09 + 4.04j]), 0.225) < math.inf


def test_the_root_clearance_agrees_with_the_zero_count():
    # both transforms of each of the 18 instances, at four parameters
    # across [DP_MIN, DELTA_CAP/2]: a root preimage lies inside the unit
    # disk exactly when the argument principle counts a zero of P(phi(z))
    # inside |z| = 0.998
    phis = {dp: ev.build_phi(dp) for dp in (0.225, 0.185, 0.155, 0.125)}
    pairs = 0
    for g, vals in SEED1_APPROX:
        f = signature(vals)
        for transform in (classify(f), tr.margin_search(f)):
            c = ev._Attempt(g, f, transform, "any").c
            roots = find_roots(Poly(tuple(c)))
            cv = c[: np.flatnonzero(c)[-1] + 1]
            for dp, phi in phis.items():
                g0 = np.fft.irfft(ev._log_derivative_samples(cv, phi, 0.998, 4096), 4096)[0]
                assert abs(g0 - round(g0)) <= 0.01
                assert (ev._root_clearance(roots, dp) < 1.0) == (round(g0) >= 1), (vals, g.n, dp)
                pairs += 1
    assert pairs == 144


def test_one_series_call_stays_under_a_megabyte():
    c = _attempt(random_regular(26, 3, seed=1), [1, 1, 0, 0]).c
    phi = ev.build_phi(ev.DP_MIN)  # the longest phi a rung takes
    ev._series_estimates(c, phi, 200)  # numpy's fft module and its caches load here
    tracemalloc.start()
    try:
        ev._series_estimates(c, phi, ev.K_GUARD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def _margin_signatures():
    rng = np.random.default_rng(11)
    sigs = [[1, 1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 0, 0, 0, 2]]
    for _ in range(25):
        d = int(rng.integers(2, 7))
        v = rng.uniform(0, 3, d + 1)
        v[rng.uniform(size=d + 1) < 0.3] = 0.0
        v[0] = v[0] or 1.0
        sigs.append(v.tolist())
    return sigs


def test_batched_margins_match_h_eps_stability():
    rng = np.random.default_rng(12)
    dropped = 0
    worst = 0.0
    for vals in _margin_signatures():
        f = signature(vals)
        ws = [0.0, 1.0, -1.0] + rng.uniform(-6, 6, 12).tolist()
        cands = [(w, conv, use_rev) for w in ws for conv in ("delta0", "delta1") for use_rev in (False, True)]
        got = rotation_margins(f, cands)
        for (w, conv, use_rev), margin in zip(cands, got):
            poly = local_polynomial(apply_holographic(reverse(f) if use_rev else f, rotation_from_w(w, conv)))
            dropped += poly.coeffs[-1] == 0 or poly.coeffs[0] == 0
            cert = h_eps_stability(poly)
            # the same verdict; the margins are two roundings of one number
            assert (margin == -math.inf) == (cert is None)
            if cert is not None:
                worst = max(worst, abs(margin - cert.margin))
    assert dropped > 0  # degree drops and roots at 0 were exercised
    assert worst <= 1e-12


def test_find_roots_matches_numpy_roots_with_the_same_polish():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1) * rng.integers(0, 2)
        c[: int(rng.integers(0, n))] = 0.0  # zero roots, which numpy.roots splits off
        got = find_roots(Poly(tuple(c)))
        assert got.dtype == complex and np.array_equal(got, numpy_roots_polished(c))


def test_find_roots_keeps_split_off_zero_roots_complex():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy.roots gives a real zero here
        roots = find_roots(Poly((0, 2.0)))
    assert roots.dtype == complex and roots.tolist() == [0j]
    assert h_eps_stability(Poly((0, 2.0))) is None


def test_batched_margins_on_a_degree_drop():
    # the local polynomial 1 + 4z of [1,1,0,0,0] has the root -1/4 and
    # lacks three units of degree: three zeros of the binary form at infinity
    f = signature([1, 1, 0, 0, 0])
    got = rotation_margins(f, [(0.0, "delta0", False), (0.0, "delta1", False), (0.1, "delta0", False)])
    assert got[0] == 0.25  # the identity: the zeros at infinity stay there
    assert got[1] == -math.inf  # the swap: [0,0,0,1,1], zero is a root
    # delta0(0.1) maps t to (t + w) / (1 - t w), and infinity to -1/w
    w = 0.1
    images = [(-0.25 + w) / (1 + 0.25 * w), -1 / w]
    assert got[2] == pytest.approx(min(-z for z in images), abs=1e-15)
    # f = 0: h_eps_stability certifies no transform of the zero polynomial
    assert rotation_margins(signature([0, 0, 0]), [(0.3, "delta0", False)]).tolist() == [-math.inf]


def mp_margin(vals, M, digits=50):
    """The margin rule of h_eps_stability on the local polynomial of
    f . M^(x)d, built from the float entries of M and solved by
    mpmath.polyroots at the given precision; -inf where the rule rejects."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        d = len(vals) - 1
        a = [mp.mpf(M.m00.real), mp.mpf(M.m01.real)]  # u -> m00 + m01 z
        b = [mp.mpf(M.m10.real), mp.mpf(M.m11.real)]  # v -> m10 + m11 z
        poly = [mp.mpf(0)] * (d + 1)
        for k in range(d + 1):
            term = [math.comb(d, k) * mp.mpf(vals[k])]
            for c0, c1 in [a] * (d - k) + [b] * k:
                term = [c0 * x + c1 * y for x, y in zip(term + [0], [0] + term)]
            poly = [x + y for x, y in zip(poly, term)]
        while poly[-1] == 0:
            poly.pop()
        if len(poly) == 1:
            return math.inf
        # a multiple root needs the extra precision to converge
        re = [mp.re(r) for r in mp.polyroots(poly[::-1], maxsteps=300, extraprec=200)]
        return -math.inf if max(re) >= REJECT_RE else float(min(-x for x in re))


@pytest.mark.parametrize("vals", [[1, 1, 0, 0, 0], [1, 1, 0, 0], [3, 1, 1, 1], [1, 2, 1, 1]])
def test_margins_match_50_digit_roots(vals):
    # [1,1,0,0,0] and [1,1,0,0] have zeros at infinity, which every rotation
    # maps to one multiple root; the companion eigenvalues of the
    # transformed polynomial lose digits there, the mapped roots do not
    f = signature(vals)
    ws = [math.tan(th) for th in np.linspace(-1.2, 1.2, 4)] + [0.1]
    cands = [(w, conv, use_rev) for w in ws for conv in ("delta0", "delta1") for use_rev in (False, True)]
    stable = 0
    for (w, conv, use_rev), got in zip(cands, rotation_margins(f, cands)):
        want = mp_margin(vals[::-1] if use_rev else vals, rotation_from_w(w, conv))
        assert (got == -math.inf) == (want == -math.inf)
        if want > -math.inf:
            stable += 1
            assert abs(got - want) <= 1e-12
    assert stable > 0


def test_a_margin_search_solves_f_once(monkeypatch):
    # one root solve of f for both stages and one for the winner's
    # certificate, not one eigenproblem per candidate (792 for the two
    # stages) nor one per stage
    rows = []
    real = stability._companion_roots

    def counted(c):
        rows.append(np.atleast_2d(c).shape[0])
        return real(c)

    monkeypatch.setattr(stability, "_companion_roots", counted)
    for vals in ([1, 2, 3, 4], [1, 1, 0, 0, 0]):
        rows.clear()
        assert tr.margin_search(signature(vals)) is not None
        assert sum(rows) <= 2


@pytest.mark.parametrize("vals", [[3, 1, 1, 1], [1, 2, 3, 4], [1, 2, 1, 1], [1, 2, 3, 4, 5], [1, 1, 0, 0, 0]])
def test_margin_search_picks_what_the_scalar_sweep_picks(vals):
    f = signature(vals)
    margin, th, conv, use_rev = scalar_margin_search(f)
    got = tr.margin_search(f)
    assert got.matrix == rotation_from_w(math.tan(th), conv)
    assert got.use_reversal == use_rev
    assert got.certificate.margin == margin


def test_margin_search_winner_survives_noise_below_the_tie_slack(monkeypatch):
    # (th, conv, f) and (-th, other conv, reversal) have equal margins in
    # exact arithmetic, and the stage-one optimum of [1,2,3,4] is such a
    # pair, split by rounding.  Noise that swaps the pair's order, leaving
    # it as close as before, must not move the winner.
    f = signature([1, 2, 3, 4])
    want = tr.margin_search(f)
    thetas = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 157)
    grid = [(math.tan(th), conv, rev) for th in thetas for conv in ("delta0", "delta1") for rev in (False, True)]
    margins = tr.rotation_margins(f, grid)
    top = int(np.argmax(margins))
    mirror = len(grid) - 1 - top  # the grid is symmetric under this reflection
    gap = margins[top] - margins[mirror]
    assert 0 < gap < tr.MARGIN_TIE
    exact = tr._rotated_roots
    calls = []

    def noisy(zeros, arity, ws, flip, rev):
        # every root of a row moved right by 2 gap: its margin drops by 2 gap
        calls.append(len(ws))
        shift = np.where(rev == grid[top][2], 2 * gap, 0.0)[:, None]
        return exact(zeros, arity, ws, flip, rev) + shift

    ws, convs, revs = (np.array(x) for x in zip(*grid))
    swapped = stability.stable_margins(noisy(tr._binary_zeros(f), f.arity, ws, convs == "delta1", revs))
    assert 0 < swapped[mirror] - swapped[top] < tr.MARGIN_TIE  # the noise swaps the pair
    calls.clear()
    monkeypatch.setattr(tr, "_rotated_roots", noisy)
    got = tr.margin_search(f)
    assert calls == [len(grid), 164]  # both stages were scored by the noisy kernel
    assert got.matrix == want.matrix
    assert got.use_reversal == want.use_reversal


def test_margin_search_tries_the_runner_up_when_the_winner_is_rejected(monkeypatch):
    f = signature([1, 2, 3, 4])
    winner = tr.margin_search(f)
    certified = []

    def reject_first(poly):
        certified.append(poly)
        return None if len(certified) == 1 else h_eps_stability(poly)

    monkeypatch.setattr(tr, "h_eps_stability", reject_first)
    got = tr.margin_search(f)
    assert len(certified) == 2
    assert got.matrix != winner.matrix
    assert 0 < got.certificate.margin <= winner.certificate.margin
    monkeypatch.setattr(tr, "h_eps_stability", lambda poly: None)
    assert tr.margin_search(f) is None
