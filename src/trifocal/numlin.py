"""Dense complex linear algebra primitives shared by all modules.

Factorizations are delegated to LAPACK through numpy; this module owns the
numerical-rank convention (consecutive singular-value ratio with an absolute
floor guard), kernel extraction, and the normalization used whenever two
projective objects are compared.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: consecutive singular-value ratio that declares a rank gap
RANK_RATIO = 1e5
#: absolute guard: values past the gap must also be this small relative to sigma_1
RANK_FLOOR = 1e-6


class NumericalError(RuntimeError):
    """A factorization failed to converge or an input was degenerate."""


@dataclass(frozen=True)
class SingularSpectrum:
    """Full SVD ``m = left @ diag_rect(values) @ right``, of one matrix or
    of each matrix of a stack (leading axes shared by all three arrays).

    values are nonincreasing and nonnegative; ``left`` and ``right`` are
    square unitary (``right`` is the conjugate-transposed row basis, LAPACK's
    V^H convention).
    """

    values: np.ndarray
    left: np.ndarray
    right: np.ndarray


def svd(m) -> SingularSpectrum:
    """Singular value decomposition of a complex matrix or a stack of them.

    Raises NumericalError if the iterative reduction fails to converge
    (LAPACK's bounded iteration budget is exhausted).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise NumericalError(f"svd expects a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("svd input contains NaN/Inf")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(f"svd did not converge: {exc}") from exc
    return SingularSpectrum(values=s, left=u, right=vh)


def rank_of_values(values, ratio_threshold: float = RANK_RATIO) -> int:
    """Numerical rank of one nonincreasing singular spectrum.

    Rank is cut at the first index where sigma_i / sigma_{i+1} exceeds the
    ratio threshold AND sigma_{i+1} has dropped below RANK_FLOOR * sigma_1;
    without such a gap the spectrum counts as full.
    """
    s = np.asarray(values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    floor = RANK_FLOOR * s[0]
    for i in range(s.size - 1):
        if s[i + 1] < floor and s[i] > ratio_threshold * s[i + 1]:
            return i + 1
    return int(s.size)


def numerical_rank(m, ratio_threshold: float = RANK_RATIO) -> int:
    """Rank of a matrix under the consecutive-ratio gap rule."""
    if ratio_threshold <= 1.0:
        raise ValueError("ratio_threshold must exceed 1")
    a = np.asarray(m, dtype=complex)
    s = np.linalg.svd(a, compute_uv=False)
    return rank_of_values(s, ratio_threshold)


def ranks_of_singulars(batch_values) -> np.ndarray:
    """Vectorized rank_of_values over a (B, k) stack of spectra."""
    S = np.asarray(batch_values, dtype=float)
    tail = S[:, 1:]
    gap = (tail < RANK_FLOOR * S[:, :1]) & (S[:, :-1] > RANK_RATIO * tail)
    # one more than the number of values before the first gap (all but the
    # last when there is none); a zero spectrum has rank 0
    return ((~gap).cumprod(axis=1).sum(axis=1) + 1) * (S[:, 0] > 0.0)


def nullspace(m) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of m.

    A full-rank matrix yields a (cols, 0) array rather than an error.
    """
    a = np.asarray(m, dtype=complex)
    spec = svd(a)
    r = rank_of_values(spec.values)
    return spec.right[r:].conj().T


def skew_matrix(x) -> np.ndarray:
    """3x3 antisymmetric matrix with skew_matrix(x) @ y = cross(x, y)."""
    v = np.asarray(x, dtype=complex).reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ],
        dtype=complex,
    )


def det4(m) -> complex:
    """Determinant of a 4x4 complex matrix (LU factorization)."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise NumericalError(f"det4 expects 4x4, got {a.shape}")
    return complex(np.linalg.det(a))


def normalize_projective(v) -> np.ndarray:
    """Canonical representative of a projective point/tensor.

    Unit Euclidean norm, with the first numerically nonzero coordinate
    rotated to positive real phase, so equal projective objects map to
    (nearly) identical arrays.
    """
    a = np.asarray(v, dtype=complex).ravel()
    n = np.linalg.norm(a)
    if n == 0.0:
        raise NumericalError("zero vector has no projective normalization")
    # skip near-identity rescalings so the map is exactly idempotent
    u = a if abs(n - 1.0) <= 1e-12 else a / n
    mags = np.abs(u)
    idx = int(np.argmax(mags > 1e-8))
    phase = u[idx] / mags[idx]
    if abs(phase - 1.0) > 1e-12:
        u = u * phase.conjugate()
    return u.reshape(np.shape(v))


def unit_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chordal distances sqrt(2 - 2|<a,b>|) between the projective points
    given by the unit vectors along the last axes of ``a`` and ``b``,
    broadcast against each other."""
    # ||a - phase*b|| with the optimal phase equals sqrt(2 - 2|<a,b>|), but
    # computed as a difference norm it resolves distances far below sqrt(eps)
    ip = np.add.reduce(b.conj() * a, axis=-1, keepdims=True)
    mag = np.abs(ip)
    phase = np.divide(ip, mag, out=np.ones_like(ip), where=mag > 0.0)
    return np.minimum(np.linalg.norm(a - phase * b, axis=-1), np.sqrt(2.0))


def projective_distance(u, v) -> float:
    """Chordal distance between projective points: sqrt(2 - 2|<u,v>|)."""
    a = np.asarray(u, dtype=complex).ravel()
    b = np.asarray(v, dtype=complex).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise NumericalError("zero vector has no projective distance")
    return float(unit_distances(a / na, b / nb))
