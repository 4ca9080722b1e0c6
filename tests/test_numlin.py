"""Tests for the dense linear algebra core.

Every nontrivial expected value is produced by an independent oracle living
in this file: a 24-term permutation determinant, a characteristic-polynomial
eigen route (Faddeev-LeVerrier coefficients + Durand-Kerner roots), and
cofactor-adjugate kernels. The library must agree with these without sharing
any code with them.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifocal import numlin


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def det_by_permutations(m):
    """Brute-force determinant: sum over all permutations with parity signs."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = 1.0 + 0j
        for i in range(n):
            term *= m[i, p[i]]
        total += sign * term
    return total


def charpoly_coefficients(a):
    """Characteristic polynomial of a (monic, descending) via Faddeev-LeVerrier."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def durand_kerner_roots(coeffs, iterations=200):
    """All roots of a monic polynomial by simultaneous iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.size - 1
    # standard staggered initial guesses on a generic circle
    z = (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iterations):
        vals = np.polyval(coeffs, z)
        for i in range(n):
            denom = np.prod(z[i] - np.delete(z, i))
            z[i] = z[i] - vals[i] / denom
    return z


def kernel_3x4_by_adjugate(m):
    """Kernel generator of a full-rank 3x4 matrix from signed 3x3 minors."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros(4, dtype=complex)
    for drop in range(4):
        cols = [c for c in range(4) if c != drop]
        s = m[:, cols]
        out[drop] = (-1) ** drop * (
            s[0, 0] * (s[1, 1] * s[2, 2] - s[1, 2] * s[2, 1])
            - s[0, 1] * (s[1, 0] * s[2, 2] - s[1, 2] * s[2, 0])
            + s[0, 2] * (s[1, 0] * s[2, 1] - s[1, 1] * s[2, 0])
        )
    return out


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

def test_svd_identity():
    spec = numlin.svd(np.eye(3))
    assert np.allclose(spec.values, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    spec = numlin.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(spec.values, [3.0, 2.0, 1.0])


def test_svd_values_match_charpoly_eigen_oracle():
    rng = np.random.default_rng(1234)
    m = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
    gram = m.conj().T @ m
    roots = durand_kerner_roots(charpoly_coefficients(gram))
    oracle = np.sort(np.sqrt(np.abs(roots)))[::-1]
    spec = numlin.svd(m)
    assert np.allclose(spec.values, oracle, rtol=1e-8)


@pytest.mark.parametrize("shape", [(3, 3), (7, 6), (5, 9), (9, 27)])
def test_svd_reconstruction(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spec = numlin.svd(m)
    sigma = np.zeros(shape)
    np.fill_diagonal(sigma, spec.values)
    rebuilt = spec.left @ sigma @ spec.right
    assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
    # frames unitary
    assert np.allclose(spec.left.conj().T @ spec.left, np.eye(shape[0]), atol=1e-12)
    assert np.allclose(spec.right @ spec.right.conj().T, np.eye(shape[1]), atol=1e-12)
    # nonincreasing
    assert np.all(np.diff(spec.values) <= 0)


def test_svd_of_a_stack_is_each_matrix_svd():
    rng = np.random.default_rng(77)
    stack = rng.normal(size=(3, 3, 4)) + 1j * rng.normal(size=(3, 3, 4))
    spec = numlin.svd(stack)
    assert spec.values.shape == (3, 3) and spec.right.shape == (3, 4, 4)
    for m, values in zip(stack, spec.values):
        assert np.allclose(values, numlin.svd(m).values, rtol=1e-12)
    with pytest.raises(numlin.NumericalError):
        numlin.svd(np.ones(4))


def test_svd_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(numlin.NumericalError):
        numlin.svd(bad)


# ---------------------------------------------------------------------------
# numerical_rank
# ---------------------------------------------------------------------------

def test_rank_forced_gap():
    assert numlin.numerical_rank(np.diag([1.0, 1e-12, 1e-13]), 1e5) == 1


def test_rank_generic_full():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert numlin.numerical_rank(m) == 4


def test_rank_zero_matrix():
    assert numlin.numerical_rank(np.zeros((5, 3))) == 0


def test_rank_threshold_validation():
    with pytest.raises(ValueError):
        numlin.numerical_rank(np.eye(2), ratio_threshold=0.5)


def test_rank_unitary_invariance():
    rng = np.random.default_rng(99)
    for _ in range(5):
        base = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        base[:, 3] = base[:, 0] + base[:, 1]  # force rank 3
        r0 = numlin.numerical_rank(base)
        assert r0 == 3
        u = random_unitary(rng, 6)
        v = random_unitary(rng, 4)
        assert numlin.numerical_rank(u @ base) == r0
        assert numlin.numerical_rank(base @ v) == r0
        assert numlin.numerical_rank(u @ base @ v) == r0


def test_ranks_of_singulars_batch_matches_scalar_rule():
    spectra = np.array(
        [
            [1.0, 0.5, 0.2],
            [1.0, 1e-12, 1e-13],
            [0.0, 0.0, 0.0],
            [2.0, 1.5, 1e-9],
        ]
    )
    got = numlin.ranks_of_singulars(spectra)
    expected = [numlin.rank_of_values(row) for row in spectra]
    assert list(got) == expected == [3, 1, 0, 2]


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_canonical_camera():
    m = np.hstack([np.eye(3), np.zeros((3, 1))])
    ker = numlin.nullspace(m)
    assert ker.shape == (4, 1)
    v = numlin.normalize_projective(ker[:, 0])
    assert np.allclose(v, [0, 0, 0, 1])


def test_nullspace_translated_camera_matches_adjugate_oracle():
    rng = np.random.default_rng(21)
    t = rng.normal(size=3) + 1j * rng.normal(size=3)
    m = np.hstack([np.eye(3), t[:, None]])
    ker = numlin.nullspace(m)
    assert ker.shape == (4, 1)
    got = numlin.normalize_projective(ker[:, 0])
    byhand = numlin.normalize_projective(np.append(-t, 1.0))
    oracle = numlin.normalize_projective(kernel_3x4_by_adjugate(m))
    assert np.allclose(got, byhand, atol=1e-12)
    assert np.allclose(got, oracle, atol=1e-10)


def test_nullspace_trivial_kernel():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    ker = numlin.nullspace(m)
    assert ker.shape == (3, 0)


def test_nullspace_invariants():
    rng = np.random.default_rng(17)
    for rows, cols, rank in [(3, 6, 3), (5, 8, 4), (9, 27, 9)]:
        left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
        right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
        m = left @ right
        ker = numlin.nullspace(m)
        assert ker.shape == (cols, cols - rank)
        gram = ker.conj().T @ ker
        assert np.allclose(gram, np.eye(cols - rank), atol=1e-10)
        assert np.linalg.norm(m @ ker) <= 1e-8 * np.linalg.norm(m)


# ---------------------------------------------------------------------------
# skew_matrix
# ---------------------------------------------------------------------------

def test_skew_basis_vector():
    got = numlin.skew_matrix([1.0, 0.0, 0.0])
    assert np.array_equal(got, np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=complex))


def test_skew_entries():
    m = numlin.skew_matrix([1.0, 2.0, 3.0])
    assert m[0, 1] == -3.0
    assert m[2, 0] == -2.0


@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
def test_skew_annihilates_and_antisymmetric(vals):
    x = np.array(vals[:3]) + 1j * np.array(vals[3:])
    m = numlin.skew_matrix(x)
    # identical products cancel exactly under ordered evaluation
    assert np.all(np.einsum("ij,j->i", m, x) == 0)
    # BLAS matmul may fuse multiplies, so allow roundoff there
    assert np.allclose(m @ x, 0, atol=1e-12 * max(1.0, np.linalg.norm(x) ** 2))
    assert np.array_equal(m.T, -m)


def test_skew_is_cross_product():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(numlin.skew_matrix(x) @ y, np.cross(x, y))


# ---------------------------------------------------------------------------
# det4
# ---------------------------------------------------------------------------

def test_det4_identity():
    assert numlin.det4(np.eye(4)) == pytest.approx(1.0)


def test_det4_row_swap():
    m = np.eye(4)[[1, 0, 2, 3]]
    assert numlin.det4(m) == pytest.approx(-1.0)


def test_det4_matches_permutation_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        oracle = det_by_permutations(m)
        assert abs(numlin.det4(m) - oracle) <= 1e-12 * abs(oracle)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_det4_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = numlin.det4(a @ b)
    rhs = numlin.det4(a) * numlin.det4(b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_det4_shape_check():
    with pytest.raises(numlin.NumericalError):
        numlin.det4(np.eye(3))


# ---------------------------------------------------------------------------
# projective normalization
# ---------------------------------------------------------------------------

def test_normalize_projective_kills_scale_and_phase():
    rng = np.random.default_rng(5)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    base = numlin.normalize_projective(v)
    for scale in [2.0, -3.0, 1j, 0.3 - 0.8j]:
        assert np.allclose(numlin.normalize_projective(scale * v), base, atol=1e-12)
    assert np.linalg.norm(base) == pytest.approx(1.0)


def test_normalize_projective_leading_phase_positive():
    v = np.array([0.0, -2.0j, 1.0])
    out = numlin.normalize_projective(v)
    assert out[1].imag == pytest.approx(0.0, abs=1e-15)
    assert out[1].real > 0


def test_normalize_projective_zero_rejected():
    with pytest.raises(numlin.NumericalError):
        numlin.normalize_projective(np.zeros(4))


def test_projective_distance():
    rng = np.random.default_rng(31)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    w = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert numlin.projective_distance(v, 1j * v) == pytest.approx(0.0, abs=1e-8)
    assert numlin.projective_distance(v, w) > 1e-2
    assert numlin.projective_distance(v, w) == pytest.approx(numlin.projective_distance(w, v))
