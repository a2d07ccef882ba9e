import math
import random
from fractions import Fraction

import numpy as np
import pytest

from holant.errors import ArgumentError, CastError
from holant.graphs import brute_force_Z, random_regular
from holant.signatures import SymmetricSignature, local_polynomial, reverse, signature
from holant.stability import find_roots
from holant.transform import (
    Matrix2,
    apply_holographic,
    cast_real,
    find_stabilizing_transform,
    rotation_from_w,
    transform_equality,
)


def contract_tensor(f: SymmetricSignature, M: Matrix2) -> SymmetricSignature:
    """Reference 2^d tensor contraction of f . M^(x)d."""
    d = f.arity
    shape = (2,) * d
    T = np.empty(shape, dtype=complex)
    for idx in np.ndindex(*shape):
        T[idx] = complex(f.values[sum(idx)])
    Ma = M.as_array()
    for _ in range(d):
        # contract the first axis with M's first index, rotating axes
        T = np.tensordot(T, Ma, axes=([0], [0]))
    out = np.empty(d + 1, dtype=complex)
    for idx in np.ndindex(*shape):
        w = sum(idx)
        if all(idx[i] >= idx[i + 1] for i in range(d - 1)):
            out[w] = T[idx]
    return SymmetricSignature(tuple(out))


def holographic_rows(vals, a0, a1, b0, b1) -> np.ndarray:
    """Reference numpy kernel of f . M^(x)d, as apply_holographic once ran
    it: row i of vals (N, d+1) under the matrix whose entries are row i of
    the (N, 1) columns a0, a1, b0, b1.  apply_holographic must keep its
    bits."""
    d = vals.shape[1] - 1
    acc = np.zeros(vals.shape, dtype=complex)
    for k in range(d + 1):
        pa = linear_powers(a0, a1, d - k)
        pb = linear_powers(b0, b1, k)
        prod = np.zeros_like(acc)
        for i in range(d - k + 1):
            prod[:, i : i + k + 1] += pa[:, i : i + 1] * pb
        acc += (math.comb(d, k) * vals[:, k])[:, None] * prod
    return acc / np.array([math.comb(d, j) for j in range(d + 1)], dtype=float)


def linear_powers(c0: np.ndarray, c1: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of (c0 + c1 z)^n, one row per entry of the (N, 1) columns."""
    return np.hstack([math.comb(n, i) * powu(c0, n - i) * powu(c1, i) for i in range(n + 1)])


def powu(x: np.ndarray, n: int) -> np.ndarray:
    """x**n by repeated squaring."""
    out = np.ones_like(x)
    mask = 1
    while mask <= n:
        if n & mask:
            out = out * x
        mask <<= 1
        x = x * x
    return out


def random_matrix(rng):
    return Matrix2(*(rng.normal(size=4) + 1j * rng.normal(size=4)))


def test_apply_matches_tensor_contraction():
    # the module's core correctness check: the O(d^3) contraction against
    # the full 2^d tensor oracle
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        f = SymmetricSignature(tuple(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)))
        M = random_matrix(rng)
        fast = apply_holographic(f, M).as_complex()
        slow = contract_tensor(f, M).as_complex()
        scale = max(1.0, np.max(np.abs(slow)))
        assert np.max(np.abs(fast - slow)) <= 1e-9 * scale


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(0, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == "float":
        return rng.uniform(-3, 3)
    return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))


def _real_matrices(rng):
    w = rng.uniform(-10, 10)
    yield rotation_from_w(w, "delta0")
    yield rotation_from_w(w, "delta1")
    yield Matrix2.swap()
    yield Matrix2(*(rng.gauss(0, 1) for _ in range(4)))


def _reference(f, M, absolute=False):
    vals = f.as_complex()[None, :]
    cols = [np.array([[x]], dtype=complex) for x in (M.m00, M.m01, M.m10, M.m11)]
    if absolute:
        vals, cols = np.abs(vals).astype(complex), [np.abs(c).astype(complex) for c in cols]
    return holographic_rows(vals, *cols)[0]


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "complex"])
def test_apply_keeps_the_bits_of_the_reference_kernel(kind):
    # every certificate, g' and estimate comes from these bits.  Real
    # matrices, the only ones the evaluator and the classifier apply, give
    # the same bits on any machine.  numpy fuses one multiply-add of a
    # complex product where the CPU has FMA, so with complex matrices the
    # reference's own last bits depend on the machine: there the scalar
    # kernel, which rounds every product, is held to 8 ulps of the sum of
    # the absolute terms
    rng = random.Random(f"holographic-{kind}")
    for _ in range(60):
        d = rng.randint(1, 6)
        f = SymmetricSignature(tuple(_entry(rng, kind) for _ in range(d + 1)))
        for M in _real_matrices(rng):
            got = apply_holographic(f, M).values
            assert all(type(x) is complex for x in got)
            assert np.array(got).tobytes() == _reference(f, M).tobytes()
        M = Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        got = np.array(apply_holographic(f, M).values)
        assert np.all(np.abs(got - _reference(f, M)) <= 8 * 2.0**-52 * _reference(f, M, absolute=True).real)


def test_apply_diagonal_scales_by_weight():
    eq5 = signature([1, 0, 0, 0, 0, 1])
    lam = 1.7
    out = apply_holographic(eq5, Matrix2(1, 0, 0, lam)).as_complex()
    want = np.zeros(6, dtype=complex)
    want[0], want[5] = 1, lam**5
    assert np.max(np.abs(out - want)) < 1e-12


def test_apply_interleaved_rescaling():
    # diagonal transform normalizes an interleaved geometric signature
    lam = 0.6
    f = SymmetricSignature((0, lam, 0, lam**3, 0))
    M = Matrix2(1, 0, 0, 1 / lam)
    out = apply_holographic(f, M).as_complex()
    assert np.max(np.abs(out - np.array([0, 1, 0, 1, 0]))) < 1e-12


def test_apply_identity():
    rng = np.random.default_rng(0)
    f = signature(rng.uniform(0, 1, size=5))
    out = apply_holographic(f, Matrix2.identity())
    assert np.max(np.abs(out.as_complex() - f.as_floats())) < 1e-15


def test_group_action_round_trip():
    rng = np.random.default_rng(9)
    f = signature(rng.uniform(0, 1, size=6))
    M = random_matrix(rng)
    back = apply_holographic(apply_holographic(f, M), M.inverse())
    assert np.max(np.abs(back.as_complex() - f.as_floats())) <= 1e-9


def test_transform_equality_examples():
    b = transform_equality(Matrix2(1, 2, 2, 1))
    assert [x.real for x in b] == [5, 4, 5]
    b = transform_equality(Matrix2.identity())
    assert [x.real for x in b] == [1, 0, 1]
    with pytest.raises(ArgumentError):
        transform_equality(Matrix2(1, 2, 2, 4))


def test_transform_equality_orthogonal_preserved():
    for w in (-3.0, -0.4, 0.0, 0.8, 2.5):
        for conv in ("delta0", "delta1"):
            b = transform_equality(rotation_from_w(w, conv))
            assert abs(b[0] - 1) < 1e-10 and abs(b[1]) < 1e-10 and abs(b[2] - 1) < 1e-10


def test_rotation_conventions():
    assert rotation_from_w(0.0, "delta0").rows() == ((1, 0), (0, 1))
    r = 1 / math.sqrt(2)
    m = rotation_from_w(1.0, "delta0")
    assert np.allclose(m.as_array(), [[r, r], [-r, r]])
    m = rotation_from_w(1.0, "delta1")
    assert np.allclose(m.as_array(), [[r, r], [r, -r]])


def test_orthogonality_flag_is_checked():
    with pytest.raises(ArgumentError):
        Matrix2(1, 1, 0, 1, orthogonal=True)


def test_holographic_invariance_of_Z():
    # orthogonal transforms leave the partition function unchanged
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.choice([4, 6, 8]))
        g = random_regular(n, 3, seed=int(rng.integers(10_000)))
        f = signature(rng.uniform(0, 1.5, size=4))
        M = rotation_from_w(float(rng.uniform(-4, 4)), rng.choice(["delta0", "delta1"]))
        z0 = brute_force_Z(g, f)
        z1 = brute_force_Z(g, apply_holographic(f, M))
        assert abs(complex(z1) - z0) <= 1e-8 * max(1.0, abs(z0))


def test_holographic_invariance_on_multigraphs():
    from holant.graphs import Multigraph

    # self-loops and parallel edges are covered by the same invariance
    dumbbell = Multigraph(2, ((0, 0), (0, 1), (1, 1)))
    parallel = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
    rng = np.random.default_rng(29)
    for g in (dumbbell, parallel):
        f = signature(rng.uniform(0, 1.5, size=4))
        M = rotation_from_w(0.8, "delta0")
        z0 = brute_force_Z(g, f)
        z1 = brute_force_Z(g, apply_holographic(f, M))
        assert abs(complex(z1) - z0) <= 1e-8 * max(1.0, abs(z0))


def test_reversal_via_swap_matrix():
    rng = np.random.default_rng(31)
    f = signature(rng.uniform(0, 1, size=4))
    out = apply_holographic(f, Matrix2.swap())
    assert np.max(np.abs(out.as_complex() - reverse(f).as_floats())) < 1e-12


def test_cast_real():
    f = SymmetricSignature((1 + 1e-12j, 2.0 + 0j))
    assert cast_real(f).values == (1.0, 2.0)
    with pytest.raises(CastError):
        cast_real(SymmetricSignature((1 + 0.1j, 2.0)))


def stable_roots(f, st):
    target = reverse(f) if st.use_reversal else f
    g = apply_holographic(target, st.matrix)
    return find_roots(local_polynomial(g))


def test_stabilize_fibonacci():
    f = signature([1, 1, 2, 3])
    st = find_stabilizing_transform(f)
    assert st is not None and st.matrix.orthogonal
    assert all(r.real < 0 for r in stable_roots(f, st))


def test_stabilize_matchings_identity():
    st = find_stabilizing_transform(signature([1, 1, 0, 0]))
    assert st is not None
    assert np.allclose(st.matrix.as_array(), np.eye(2))
    assert abs(st.certificate.eps - 1 / 6) < 1e-12


def test_stabilize_negative_discriminant_identity():
    # complex characteristic roots: the local polynomial is already stable
    vals = [2 * math.cos(k * math.pi / 8) for k in range(4)]
    st = find_stabilizing_transform(signature(vals))
    assert st is not None
    assert np.allclose(st.matrix.as_array(), np.eye(2))
    assert all(r.real < 0 for r in st.certificate.roots)


def test_stabilize_repeated_root():
    # f_k = (1 + k) * 0.5^k has a repeated characteristic root
    vals = [(1 + k) * 0.5**k for k in range(5)]
    f = signature(vals)
    st = find_stabilizing_transform(f)
    assert st is not None
    assert all(r.real < 0 for r in stable_roots(f, st))


def test_stabilize_requires_positive_head():
    with pytest.raises(ArgumentError):
        find_stabilizing_transform(signature([0, 1, 1, 1]))
