"""The evaluator's series kernels and the batched margin sweep against
direct reference implementations kept here, and the sweep's margins
against 50-digit roots."""

import math
import warnings

import numpy as np
import pytest

import holant.evaluator as ev
from holant import stability
from holant.coeffs import BLOCK, PowerSums, power_sums_from_coeffs
from holant.signatures import local_polynomial, reverse, signature
from holant.stability import REJECT_RE, Poly, find_roots, h_eps_stability
from holant.transform import apply_holographic, rotation_from_w, rotation_margins


def stepwise_power_sums(c, total_degree, k):
    """Newton's recurrence one term at a time, as the package ran it before
    solving it in blocks: p_j = -(j c_j + sum_{i=1}^{j-1} p_i c_{j-i}) / c_0."""
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
    """The two-stage rotation sweep, one h_eps_stability call per candidate."""
    rev = reverse(f)
    best = None
    thetas = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 157)
    for _stage in range(2):
        for th in thetas:
            for conv in ("delta0", "delta1"):
                for use_rev in (False, True):
                    M = rotation_from_w(math.tan(th), conv)
                    cert = h_eps_stability(local_polynomial(apply_holographic(rev if use_rev else f, M)))
                    if cert is not None and (best is None or cert.margin > best[0] + ev.MARGIN_TIE):
                        best = (cert.margin, float(th), conv, use_rev)
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


@pytest.mark.parametrize("dp", ev.DEFAULT_RUNGS)
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
    # the first BLOCK terms are the step-by-step loop itself
    assert np.array_equal(got[: BLOCK + 1], want[: BLOCK + 1])


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_resumed_blocks_give_the_bits_of_a_fresh_run(complex_entries):
    comp, m = _composed(7, complex_entries, 3 * BLOCK + 50)
    fresh = power_sums_from_coeffs(comp, m)
    for start in (BLOCK // 2, BLOCK + 1, BLOCK + 40, 2 * BLOCK, 3 * BLOCK + 1, len(comp)):
        # a shorter call ends inside a block; the resume recomputes that block
        head = power_sums_from_coeffs(comp, m, start - 1)
        assert np.array_equal(head, fresh[:start])
        assert np.array_equal(power_sums_from_coeffs(comp, m, prefix=head), fresh)
        assert np.array_equal(power_sums_from_coeffs(comp, m, prefix=fresh[:start]), fresh)


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


def test_resumed_power_sums_continue_a_fresh_run():
    phi = ev.build_phi(0.185)
    c = np.array([1.0, 3.0, 3.0, 1.0]) / np.array([1.0, 3.0, 9.0, 27.0])  # (1 + z/3)^3
    comp = ev.compose_prefix(c, phi, 400)
    fresh = power_sums_from_coeffs(comp, 400, 400)
    head = power_sums_from_coeffs(comp, 400, 150)
    # the same coefficients: the continuation repeats the fresh run exactly
    assert np.array_equal(power_sums_from_coeffs(comp, 400, 400, prefix=head), fresh)
    # a prefix from a shorter composition, as the evaluator's k doubling passes it
    short = power_sums_from_coeffs(ev.compose_prefix(c, phi, 150), 150, 150)
    resumed = power_sums_from_coeffs(comp, 400, 400, prefix=short)
    assert np.array_equal(resumed[1:151], short[1:151])
    assert np.allclose(resumed, fresh, rtol=1e-12, atol=1e-12)


def test_power_sums_take_complex_input_and_prefix():
    c = [1.0, 0.5j, -0.25]
    fresh = power_sums_from_coeffs(c, 2, 12)
    assert np.array_equal(power_sums_from_coeffs(c, 2, 12, prefix=fresh[:5]), fresh)
    resumed = power_sums_from_coeffs(c, 2, 12, prefix=PowerSums(fresh[:5]))
    assert np.array_equal(resumed, fresh)
    assert fresh.imag.any()


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


def test_a_margin_search_solves_f_once_per_stage(monkeypatch):
    # one root solve per stage and one per certificate, not one
    # eigenproblem per candidate (792 for these two stages)
    rows = []
    real = stability._companion_roots

    def counted(c):
        rows.append(np.atleast_2d(c).shape[0])
        return real(c)

    monkeypatch.setattr(stability, "_companion_roots", counted)
    for vals in ([1, 2, 3, 4], [1, 1, 0, 0, 0]):
        rows.clear()
        assert ev._margin_search(signature(vals)) is not None
        assert sum(rows) <= 3


@pytest.mark.parametrize("vals", [[3, 1, 1, 1], [1, 2, 3, 4], [1, 2, 1, 1], [1, 2, 3, 4, 5], [1, 1, 0, 0, 0]])
def test_margin_search_picks_what_the_scalar_sweep_picks(vals):
    f = signature(vals)
    margin, th, conv, use_rev = scalar_margin_search(f)
    got = ev._margin_search(f)
    assert got.matrix == rotation_from_w(math.tan(th), conv)
    assert got.use_reversal == use_rev
    assert got.certificate.margin == margin


def test_margin_search_winner_survives_noise_below_the_tie_slack(monkeypatch):
    # (th, conv, f) and (-th, other conv, reversal) have equal margins in
    # exact arithmetic, and the stage-one optimum of [1,2,3,4] is such a
    # pair, split by rounding.  Noise that swaps the pair's order, leaving
    # it as close as before, must not move the winner.
    f = signature([1, 2, 3, 4])
    want = ev._margin_search(f)
    thetas = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 157)
    grid = [(math.tan(th), conv, rev) for th in thetas for conv in ("delta0", "delta1") for rev in (False, True)]
    margins = ev.rotation_margins(f, grid)
    top = int(np.argmax(margins))
    mirror = len(grid) - 1 - top  # the grid is symmetric under this reflection
    gap = margins[top] - margins[mirror]
    assert 0 < gap < ev.MARGIN_TIE
    exact = ev.rotation_margins

    def noisy(f, cands):
        return [m - 2 * gap if rev == grid[top][2] else m for m, (_, _, rev) in zip(exact(f, cands), cands)]

    monkeypatch.setattr(ev, "rotation_margins", noisy)
    got = ev._margin_search(f)
    assert got.matrix == want.matrix
    assert got.use_reversal == want.use_reversal


def test_margin_search_tries_the_runner_up_when_the_winner_is_rejected(monkeypatch):
    f = signature([1, 2, 3, 4])
    winner = ev._margin_search(f)
    certified = []

    def reject_first(poly):
        certified.append(poly)
        return None if len(certified) == 1 else h_eps_stability(poly)

    monkeypatch.setattr(ev, "h_eps_stability", reject_first)
    got = ev._margin_search(f)
    assert len(certified) == 2
    assert got.matrix != winner.matrix
    assert 0 < got.certificate.margin <= winner.certificate.margin
    monkeypatch.setattr(ev, "h_eps_stability", lambda poly: None)
    assert ev._margin_search(f) is None
