"""Cameras, trifocal tensors, and the quaternion-patched parametrization.

A camera is a full-rank complex 3x4 matrix up to scale; it is calibrated
when its left 3x3 block lies in SO(3, C). Camera triples generate 3x3x3
trifocal tensors via 4x4 minors of the stacked transposes. A calibrated
configuration is the normalized orbit representative with first camera
[I | 0] and second translation ending in 1; its 13 free parameters
(two quaternions, two translations) parametrize the calibrated trifocal
variety, and this module provides that map and its analytic Jacobian in
batched form, plus the multi-view consistency tests used to filter
solution candidates.

Those tests work on a camera triple as one (3, 3, 4) stack (its three
centers come from one SVD) and on correspondences as a
``CorrespondenceStack``: one stacked rank test per correspondence kind, and
the distances of every point and line to the epipoles of its image as one
array.  ``multiview_passed`` and ``epipoles_clear`` test a whole instance;
``multiview_residual``, ``epipole_clearance`` and ``consistency_check`` are
the same code on one correspondence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numlin

if TYPE_CHECKING:  # pragma: no cover
    from .slices import Correspondence

#: a point or line closer than this to an epipole of its image is rejected
EPIPOLE_TOL = 1e-6


class DegenerateCameraError(ValueError):
    """Camera matrix is rank-deficient (no well-defined center)."""


class UndefinedEpipoleError(ValueError):
    """Two cameras share a center, so their epipole does not exist."""


def _as_cameras(cams) -> np.ndarray:
    """A stack of cameras as a complex (k, 3, 4) array."""
    try:
        a = np.asarray(cams, dtype=complex)
    except ValueError as err:  # cameras of different shapes
        raise DegenerateCameraError(f"cameras must be 3x4 ({err})") from err
    if a.ndim != 3 or a.shape[1:] != (3, 4):
        raise DegenerateCameraError(f"camera must be 3x4, got {a.shape[1:]}")
    if not np.isfinite(a).all():
        raise DegenerateCameraError("camera contains NaN/Inf")
    return a


def _as_camera(cam) -> np.ndarray:
    return _as_cameras([cam])[0]


def camera_centers(cams) -> np.ndarray:
    """(k, 4): the unit generator of each camera's kernel (its center in
    P^3), from one SVD of the (k, 3, 4) stack."""
    spec = numlin.svd(_as_cameras(cams))
    if (numlin.ranks_of_singulars(spec.values) < 3).any():
        raise DegenerateCameraError("camera is rank-deficient")
    return spec.right[:, 3].conj()


def camera_center(cam) -> np.ndarray:
    """Unit-normalized generator of the camera's kernel (its center in P^3)."""
    return numlin.normalize_projective(camera_centers([cam])[0])


def _epipoles(cams, centers) -> np.ndarray:
    """(k, k, 3): entry [i, j] the image under camera i of center j, scaled
    to unit norm, for a (k, 3, 4) camera stack and its (k, 4) unit centers;
    the diagonal is left unscaled."""
    off = ~np.eye(len(cams), dtype=bool)
    if (numlin.unit_distances(centers[:, None], centers[None])[off] < 1e-10).any():
        raise UndefinedEpipoleError("cameras share a center")
    e = np.matmul(cams, centers.T).transpose(0, 2, 1)
    norms = np.linalg.norm(e, axis=-1)
    if (norms[off] < 1e-12).any():
        raise UndefinedEpipoleError("center of one camera lies in the other's kernel")
    np.fill_diagonal(norms, 1.0)
    return e / norms[..., None]


def epipole(frm, of) -> np.ndarray:
    """Image under ``frm`` of the center of ``of``, unit-normalized."""
    cams = _as_cameras((frm, of))
    return numlin.normalize_projective(_epipoles(cams, camera_centers(cams))[0, 1])


# ---------------------------------------------------------------------------
# quaternion parametrization of (scaled) rotations
# ---------------------------------------------------------------------------

def _rotations(q: np.ndarray) -> np.ndarray:
    """Batched scaled-rotation matrices from quaternion 4-vectors (..., 4)."""
    a, b, c, d = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    r = np.empty(q.shape[:-1] + (3, 3), dtype=complex)
    r[..., 0, 0] = a * a + b * b - c * c - d * d
    r[..., 0, 1] = 2 * (b * c - a * d)
    r[..., 0, 2] = 2 * (b * d + a * c)
    r[..., 1, 0] = 2 * (b * c + a * d)
    r[..., 1, 1] = a * a + c * c - b * b - d * d
    r[..., 1, 2] = 2 * (c * d - a * b)
    r[..., 2, 0] = 2 * (b * d - a * c)
    r[..., 2, 1] = 2 * (c * d + a * b)
    r[..., 2, 2] = a * a + d * d - b * b - c * c
    return r


# Polarization: _rotations(q) = sum_mn q_m q_n K[m, n] with K symmetric, so
# 2K[m, n] = R(e_m + e_n) - R(e_m) - R(e_n) for the unit vectors e.  Then
# dR/dq_m = 2 sum_n K[m, n] q_n, and R itself is K applied to q (x) q.  Both
# matrices act on quaternions stored as columns: (2K as 36 x 4) @ q and
# (K as 9 x 16) @ (q (x) q).
_UNIT = _rotations(np.eye(4))
_POLAR = _rotations(np.eye(4)[:, None] + np.eye(4)[None, :]) - _UNIT[:, None] - _UNIT[None, :]
_ROTATION_DERIVATIVE = _POLAR.transpose(0, 2, 3, 1).reshape(36, 4)
_ROTATION_QUADRATIC = 0.5 * _POLAR.reshape(16, 9).T.copy()


def _rotation_derivatives(q: np.ndarray) -> np.ndarray:
    """Partials of _rotations w.r.t. the four quaternion coordinates.

    ``q`` holds quaternions as columns: shape (4,) gives (4, 3, 3) and
    (..., 4, N) gives (..., 4, 3, 3, N), index m the derivative in q_m.
    The Euler identity R = (1/2) sum_m q_m dR/dq_m holds since R is
    quadratic.
    """
    d = _ROTATION_DERIVATIVE @ q
    return d.reshape(q.shape[:-2] + (4, 3, 3) + q.shape[-1:] if q.ndim > 1 else (4, 3, 3))


def quaternion_rotation(q) -> np.ndarray:
    """Scaled rotation matrix of a complex quaternion.

    Satisfies R Rt = Rt R = (a^2+b^2+c^2+d^2)^2 I identically; on the
    isotropic cone (quaternion self-dot zero) the product vanishes.
    """
    v = np.asarray(q, dtype=complex).reshape(4)
    return _rotations(v)


def quaternion_from_rotation(r) -> np.ndarray:
    """A quaternion q with quaternion_rotation(q) equal to r.

    Works for any matrix of the form (scale) * SO(3, C) with nonzero scale;
    raises on (numerically) isotropic input, where no quaternion preimage
    with nonzero self-dot exists. The returned q is one of the two
    preimages +-q.
    """
    m = np.asarray(r, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3, got {m.shape}")
    s2 = np.trace(m @ m.T) / 3.0  # (sum q^2)^2
    if abs(s2) < 1e-12 * max(1.0, np.linalg.norm(m) ** 2):
        raise ValueError("rotation is numerically isotropic; quaternion scale undefined")
    sigma = np.linalg.det(m) / s2  # sigma^3 / sigma^2
    tr = np.trace(m)
    squares = np.array(
        [
            (sigma + tr) / 4.0,
            (sigma + 2 * m[0, 0] - tr) / 4.0,
            (sigma + 2 * m[1, 1] - tr) / 4.0,
            (sigma + 2 * m[2, 2] - tr) / 4.0,
        ]
    )
    ab = (m[2, 1] - m[1, 2]) / 4.0
    ac = (m[0, 2] - m[2, 0]) / 4.0
    ad = (m[1, 0] - m[0, 1]) / 4.0
    bc = (m[1, 0] + m[0, 1]) / 4.0
    bd = (m[0, 2] + m[2, 0]) / 4.0
    cd = (m[2, 1] + m[1, 2]) / 4.0
    pivot = int(np.argmax(np.abs(squares)))
    p = np.sqrt(squares[pivot])
    if pivot == 0:
        q = np.array([p, ab / p, ac / p, ad / p])
    elif pivot == 1:
        q = np.array([ab / p, p, bc / p, bd / p])
    elif pivot == 2:
        q = np.array([ac / p, bc / p, p, cd / p])
    else:
        q = np.array([ad / p, bd / p, cd / p, p])
    return q


# ---------------------------------------------------------------------------
# trifocal tensors
# ---------------------------------------------------------------------------

# the two cameras other than camera i (equally: the columns of a^T that
# tensor slice i keeps), row i
_OTHER_TWO = np.array([[1, 2], [0, 2], [0, 1]])


def trifocal_tensor(a, b, c) -> np.ndarray:
    """3x3x3 tensor of 4x4 minors of the stacked camera transposes.

    Entry (i, j, k) is (-1)^(i+1) times the determinant of the 4x4 matrix
    whose columns are the two kept columns of a^T (column i omitted, order
    preserved), column j of b^T, and column k of c^T. Zero exactly when all
    three camera centers coincide.  The 27 minors are one stacked
    determinant.
    """
    at, bt, ct = _as_cameras((a, b, c)).transpose(0, 2, 1)
    m = np.empty((3, 3, 3, 4, 4), dtype=complex)  # [i, j, k, row, column]
    m[..., 0:2] = at[:, _OTHER_TWO].transpose(1, 0, 2)[:, None, None]
    m[..., 2] = bt.T[None, :, None]
    m[..., 3] = ct.T[None, None]
    return np.array([1.0, -1.0, 1.0])[:, None, None] * np.linalg.det(m)


def tensor_contract(t, first=None, second=None, third=None):
    """Multilinear contraction of a trifocal tensor over any filled slots.

    Returns a scalar, 3-vector, or 3x3 matrix depending on how many slots
    stay open. At least one slot must be filled.
    """
    tt = np.asarray(t, dtype=complex).reshape(3, 3, 3)
    labels = "ijk"
    expr = "ijk"
    operands = []
    out = ""
    for slot, lab in zip((first, second, third), labels):
        if slot is None:
            out += lab
        else:
            expr += f",{lab}"
            operands.append(np.asarray(slot, dtype=complex).reshape(3))
    if not operands:
        raise ValueError("at least one slot must be filled")
    result = np.einsum(f"{expr}->{out}", tt, *operands)
    return complex(result) if out == "" else result


# ---------------------------------------------------------------------------
# calibrated configurations and the 13-parameter tensor map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibratedConfiguration:
    """Normalized calibrated camera triple.

    First camera implicitly [I | 0]; the second and third are
    [R(q2) | t2] and [R(q3) | t3] with t2 = (t21, t22, 1). The 13 free
    complex parameters are ordered (q2, q3, t21, t22, t3).
    """

    q2: np.ndarray
    q3: np.ndarray
    t2: np.ndarray
    t3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q2", np.asarray(self.q2, dtype=complex).reshape(4))
        object.__setattr__(self, "q3", np.asarray(self.q3, dtype=complex).reshape(4))
        object.__setattr__(self, "t2", np.asarray(self.t2, dtype=complex).reshape(3))
        object.__setattr__(self, "t3", np.asarray(self.t3, dtype=complex).reshape(3))
        if self.t2[2] != 1.0:
            raise ValueError("second translation must be normalized to (t21, t22, 1)")

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.q2, self.q3, self.t2[:2], self.t3])

    @classmethod
    def from_params(cls, p) -> "CalibratedConfiguration":
        v = np.asarray(p, dtype=complex).reshape(13)
        t2 = np.array([v[8], v[9], 1.0 + 0j])
        return cls(q2=v[0:4], q3=v[4:8], t2=t2, t3=v[10:13])

    def cameras(self) -> np.ndarray:
        """The (3, 3, 4) stack [I | 0], [R(q2) | t2], [R(q3) | t3]."""
        cams = np.zeros((3, 3, 4), dtype=complex)
        cams[0, :, 0:3] = np.eye(3)
        cams[1:, :, 0:3] = _rotations(np.stack([self.q2, self.q3]))
        cams[1, :, 3] = self.t2
        cams[2, :, 3] = self.t3
        return cams


def random_configuration(rng: np.random.Generator, real: bool = False) -> CalibratedConfiguration:
    """Generic configuration with Gaussian quaternions and translations."""
    if real:
        q2 = rng.normal(size=4)
        q3 = rng.normal(size=4)
        q2 = q2 / np.linalg.norm(q2)
        q3 = q3 / np.linalg.norm(q3)
        t2 = np.array([rng.normal(), rng.normal(), 1.0])
        t3 = rng.normal(size=3)
    else:
        q2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        q3 = rng.normal(size=4) + 1j * rng.normal(size=4)
        t2 = np.array([rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal(), 1.0])
        t3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    return CalibratedConfiguration(q2=q2, q3=q3, t2=t2, t3=t3)


# The tensor kernels work on parameters stored as columns, a (13, B) stack,
# so that every elementwise product runs along the batch; they return their
# (B, 27) and (B, 27, 13) results as transposed views of that layout.

def _columns(p) -> tuple[np.ndarray, tuple]:
    """(the parameters as a contiguous (13, B) column stack, the batch shape)."""
    pp = np.asarray(p, dtype=complex)
    return np.ascontiguousarray(pp.reshape(-1, 13).T), pp.shape[:-1]


def _rotation_pairs(pc: np.ndarray) -> np.ndarray:
    """(2, 3, 3, B): R(q2) and R(q3) of a (13, B) column stack, from one
    product of the quaternions' outer squares with the quadratic form."""
    q = pc[0:8].reshape(2, 4, -1)
    squares = (q[:, :, None] * q[:, None]).reshape(2, 16, -1)
    return (_ROTATION_QUADRATIC @ squares).reshape(2, 3, 3, -1)


def _second_translations(pc: np.ndarray, sign: float) -> np.ndarray:
    """(3, B): sign * t2 of a (13, B) column stack, its fixed last
    coordinate 1 included."""
    t2 = np.empty((3, pc.shape[1]), dtype=complex)
    np.multiply(pc[8:10], sign, out=t2[0:2])
    t2[2] = sign
    return t2


def _batch_first(a: np.ndarray, batch: tuple, shape: tuple) -> np.ndarray:
    """The (*shape, B) result ``a`` as a (*batch, *shape) view."""
    return a.reshape(math.prod(shape), -1).T.reshape(batch + shape)


# The translation blocks of the Jacobian: d/dt2_jj (free jj = 0, 1) of
# -t2[j] R3[k, i] is -R3[k, i] on j = jj, and d/dt3_kk of R2[j, i] t3[k]
# is R2[j, i] on k = kk; these are entries [j, jj] and [k, kk]
_T2_COLUMNS = -np.eye(3, 2, dtype=complex)
_T3_COLUMNS = np.eye(3, dtype=complex)


def tensor_from_params(p: np.ndarray) -> np.ndarray:
    """Batched parametrization map: (..., 13) parameters -> (..., 27) tensors.

    With first camera [I | 0] the 4x4 minors collapse to
    T[i, j, k] = R2[j, i] t3[k] - t2[j] R3[k, i], cubic in the parameters.
    Flattening is row-major over (i, j, k).
    """
    pc, batch = _columns(p)
    r = _rotation_pairs(pc).transpose(0, 2, 1, 3)  # [R2 or R3, i, j or k, b]
    t = r[0, :, :, None] * pc[10:13]  # [i, j, k, b]
    t -= _second_translations(pc, 1.0)[:, None] * r[1, :, None]
    return _batch_first(t, batch, (27,))


def tensor_jacobian_params(p: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of tensor_from_params: (..., 13) -> (..., 27, 13).

    Each of the four parameter blocks (q2, q3, the free t2, t3) is one
    broadcast product written straight into the result.
    """
    pc, batch = _columns(p)
    r = _rotation_pairs(pc).transpose(0, 2, 1, 3)  # [R2 or R3, i, j or k, b]
    q = pc[0:8].reshape(2, 4, -1)
    d = _rotation_derivatives(q).transpose(0, 3, 2, 1, 4)  # [R2 or R3, i, j or k, m, b]
    jac = np.empty((3, 3, 3, 13, pc.shape[1]), dtype=complex)  # [i, j, k, parameter, b]
    np.multiply(d[0, :, :, None], pc[10:13, None], out=jac[:, :, :, 0:4])
    minus_t2 = _second_translations(pc, -1.0)
    np.multiply(minus_t2[:, None, None], d[1, :, None], out=jac[:, :, :, 4:8])
    np.multiply(r[1, :, None, :, None], _T2_COLUMNS[:, None, :, None], out=jac[:, :, :, 8:10])
    np.multiply(r[0, :, :, None, None], _T3_COLUMNS[:, :, None], out=jac[:, :, :, 10:13])
    return _batch_first(jac, batch, (27, 13))


def configuration_tensor(cfg: CalibratedConfiguration) -> np.ndarray:
    """Trifocal tensor of a configuration, as a 3x3x3 array."""
    return tensor_from_params(cfg.params).reshape(3, 3, 3)


def configuration_jacobian(cfg: CalibratedConfiguration) -> np.ndarray:
    """27x13 analytic Jacobian of the tensor entries in the 13 parameters."""
    return tensor_jacobian_params(cfg.params)


# ---------------------------------------------------------------------------
# multi-view consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiviewReport:
    """Outcome of the minor-rank consistency test for one correspondence."""

    kind: str
    passed: bool
    rank: int | None
    expected_rank: int | None
    drop_ratio: float
    details: dict = field(default_factory=dict)


#: the rank each kind's minor matrix drops to on consistent data (PLL is
#: tested by its trilinear form instead)
_EXPECTED_RANK = {"PPP": 6, "PPL": 5, "PLP": 5, "LLL": 2}

# the 6 x 6 matrix of camera pair (i, j) is rows 3i..3i+2, 3j..3j+2 and
# columns 0-3, 4+i, 4+j of the 9 x 7 PPP matrix
_PAIRS = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}
_PAIR_ROWS = np.array([[*range(3 * i, 3 * i + 3), *range(3 * j, 3 * j + 3)]
                       for i, j in _PAIRS.values()])
_PAIR_COLUMNS = np.array([[0, 1, 2, 3, 4 + i, 4 + j] for i, j in _PAIRS.values()])
_IMAGES = np.arange(3)[:, None]


@dataclass(frozen=True)
class CorrespondenceStack:
    """Correspondences as arrays: their image vectors scaled to unit norm,
    an (n, 3, 3) [correspondence, image, coordinate] stack; the (n, 3) mask
    of which are points; and the vectors of each kind present, in order of
    first appearance."""

    vectors: np.ndarray
    is_point: np.ndarray
    by_kind: dict

    @classmethod
    def of(cls, correspondences) -> "CorrespondenceStack":
        """The stack of a list of correspondences; a stack is its own."""
        if isinstance(correspondences, cls):
            return correspondences
        v = np.array([c.vectors for c in correspondences], dtype=complex).reshape(-1, 3, 3)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        kinds = [c.kind for c in correspondences]
        is_point = np.array([[tag == "P" for tag in kind] for kind in kinds], dtype=bool)
        by_kind = {k: v[[i for i, kind in enumerate(kinds) if kind == k]] for k in dict.fromkeys(kinds)}
        return cls(v, is_point.reshape(-1, 3), by_kind)


def _minor_matrices(kind: str, cams: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(n, rows, columns) minor matrices of n correspondences of one kind.

    LLL stacks the back-projected planes camera^T line as columns.  The
    other kinds stack a block [camera | point in its own column] per point
    image, and for PPL and PLP the back-projected plane of the line.
    """
    if kind == "LLL":
        return np.einsum("icr,nic->nri", cams, v)
    points = [i for i, tag in enumerate(kind) if tag == "P"]
    rows = 3 * len(points) + (3 - len(points))  # three per point image, one per line image
    m = np.zeros((v.shape[0], rows, 4 + len(points)), dtype=complex)
    for slot, i in enumerate(points):
        m[:, 3 * slot:3 * slot + 3, 0:4] = cams[i]
        m[:, 3 * slot:3 * slot + 3, 4 + slot] = v[:, i]
    if len(points) == 2:
        line = kind.index("L")
        m[:, 6, 0:4] = v[:, line] @ cams[line]
    return m


def _rank_verdicts(m: np.ndarray, expected: int, abs_tol) -> tuple:
    """(passed, rank, drop ratio) of each matrix of a stack whose rank
    should drop to ``expected``, from one SVD of the stack."""
    s = np.linalg.svd(m, compute_uv=False)
    rank = numlin.ranks_of_singulars(s)
    lead, kept, past = s[:, 0], s[:, expected - 1], s[:, expected]
    drop = np.divide(kept, past, out=np.full_like(past, np.inf), where=past > 0)
    if abs_tol is None:
        return rank <= expected, rank, drop
    trailing = np.divide(past, lead, out=np.zeros_like(lead), where=lead > 0)
    return trailing <= abs_tol, rank, drop


def _multiview(kind: str, cams: np.ndarray, v: np.ndarray, abs_tol) -> tuple:
    """(passed, rank, drop ratio, details) of n correspondences of one kind
    with (n, 3, 3) unit vectors ``v``, each an array over the n (rank None
    for PLL); the details hold PPP's pairwise determinants and PLL's
    trilinear values."""
    if kind == "PLL":
        t = trifocal_tensor(*cams)
        t = t / np.linalg.norm(t)
        val = np.abs(np.einsum("ijk,ni,nj,nk->n", t, v[:, 0], v[:, 1], v[:, 2]))
        drop = np.divide(1.0, val, out=np.full_like(val, np.inf), where=val != 0)
        return val <= (1e-7 if abs_tol is None else abs_tol), None, drop, {"trilinear": val}
    if kind not in _EXPECTED_RANK:
        raise ValueError(f"unknown correspondence kind {kind!r}")
    m = _minor_matrices(kind, cams, v)
    passed, rank, drop = _rank_verdicts(m, _EXPECTED_RANK[kind], abs_tol)
    if kind != "PPP":
        return passed, rank, drop, {}
    # each camera pair's 6 x 6 determinant, relative to its row norms
    d = m[:, _PAIR_ROWS[:, :, None], _PAIR_COLUMNS[:, None, :]]
    dets = np.abs(np.linalg.det(d)) / np.linalg.norm(d, axis=-1).prod(axis=-1)
    passed = passed & (dets <= (1e-8 if abs_tol is None else abs_tol)).all(axis=1)
    return passed, rank, drop, {"pairwise_dets": dets}


def multiview_residual(
    kind: str,
    a,
    b,
    c,
    data: "Correspondence",
    abs_tol: float | None = None,
) -> MultiviewReport:
    """Build the minor matrix for one correspondence and test its rank drop.

    With ``abs_tol`` unset the verdict uses the consecutive-ratio rank rule;
    passing ``abs_tol`` switches to thresholding the normalized trailing
    singular value (and determinant/trilinear magnitudes), which is what the
    loosened fixture verification uses on truncated data.
    """
    if data.kind != kind:
        raise ValueError(f"correspondence kind {data.kind} does not match requested {kind}")
    v = CorrespondenceStack.of([data]).vectors
    passed, rank, drop, details = _multiview(kind, _as_cameras((a, b, c)), v, abs_tol)
    if "pairwise_dets" in details:
        details = {"pairwise_dets": dict(zip(_PAIRS, details["pairwise_dets"][0].tolist()))}
    elif "trilinear" in details:
        details = {"trilinear": float(details["trilinear"][0])}
    return MultiviewReport(
        kind=kind,
        passed=bool(passed[0]),
        rank=None if rank is None else int(rank[0]),
        expected_rank=_EXPECTED_RANK.get(kind),
        drop_ratio=float(drop[0]),
        details=details,
    )


def multiview_passed(cams, stack: CorrespondenceStack, abs_tol: float | None = None) -> bool:
    """True iff every correspondence of the stack passes
    ``multiview_residual`` against the (3, 3, 4) camera stack: one stacked
    test per kind, stopping at the first kind that fails."""
    cams = _as_cameras(cams)
    return all(
        bool(_multiview(kind, cams, v, abs_tol)[0].all()) for kind, v in stack.by_kind.items()
    )


def _clearances(stack: CorrespondenceStack, epipoles: np.ndarray) -> np.ndarray:
    """(n, 3, 2): the distance of each image element of the stack to the two
    epipoles of its image (the images of the other two centers): chordal
    projective distance for points, |l . e| for lines."""
    e = epipoles[_IMAGES, _OTHER_TWO]  # [image, other, coordinate]
    u = stack.vectors[:, :, None]
    points = numlin.unit_distances(u, e)
    lines = np.abs(np.sum(u * e, axis=-1))
    return np.where(stack.is_point[:, :, None], points, lines)


def epipoles_clear(cams, centers, stack: CorrespondenceStack, tol: float = EPIPOLE_TOL) -> bool:
    """True iff the epipoles of the (3, 3, 4) camera stack (with its (3, 4)
    ``camera_centers``) exist and every point and line of the stack stays
    farther than ``tol`` from both epipoles of its image."""
    try:
        epipoles = _epipoles(_as_cameras(cams), np.asarray(centers))
    except UndefinedEpipoleError:
        return False
    return bool((_clearances(stack, epipoles) > tol).all())


def all_epipoles(a, b, c) -> dict[tuple[int, int], np.ndarray]:
    """The six epipoles e[(i, j)] = image under camera i of center j."""
    cams = _as_cameras((a, b, c))
    e = _epipoles(cams, camera_centers(cams))
    return {
        (i, j): numlin.normalize_projective(e[i, j]) for i in range(3) for j in range(3) if i != j
    }


def epipole_clearance(data: "Correspondence", epipoles: dict) -> float:
    """Smallest distance of the correspondence's elements to the epipoles.

    Points use chordal projective distance; lines use normalized incidence
    |l . e| (a line 'hits' an epipole when the epipole lies on it).
    """
    e = np.zeros((3, 3, 3), dtype=complex)
    for (i, j), value in epipoles.items():
        e[i, j] = value / np.linalg.norm(value)
    return float(_clearances(CorrespondenceStack.of([data]), e).min())


def consistency_checker(a, b, c):
    """``consistency_check`` against one camera triple, whose centers and
    epipoles (and their errors) are found once, here."""
    cams = _as_cameras((a, b, c))
    epipoles = _epipoles(cams, camera_centers(cams))

    def check(data: "Correspondence") -> bool:
        stack = CorrespondenceStack.of([data])
        if not multiview_passed(cams, stack):
            return False
        return bool((_clearances(stack, epipoles) > EPIPOLE_TOL).all())

    return check


def consistency_check(a, b, c, data: "Correspondence") -> bool:
    """Multi-view membership plus epipole avoidance.

    True iff the correspondence passes multiview_residual for its kind and
    every one of its points/lines stays farther than ``EPIPOLE_TOL`` from
    both epipoles in its image. Raises UndefinedEpipoleError for camera
    pairs with identical centers.
    """
    return consistency_checker(a, b, c)(data)


# ---------------------------------------------------------------------------
# forward projection (synthetic data)
# ---------------------------------------------------------------------------

def project_point(cam, x) -> np.ndarray:
    return _as_camera(cam) @ np.asarray(x, dtype=complex).reshape(4)


def project_line(cam, p, q) -> np.ndarray:
    """Image line through the projections of two world points."""
    cam = _as_camera(cam)
    u = cam @ np.asarray(p, dtype=complex).reshape(4)
    v = cam @ np.asarray(q, dtype=complex).reshape(4)
    return np.cross(u, v)


def forward_correspondence(kind: str, a, b, c, x, y) -> list[np.ndarray]:
    """Project an incident world (point, line) pair into the three images.

    ``x`` is the world point; the world line joins ``x`` and ``y``. The
    returned unit-normalized vectors follow the kind's P/L pattern.
    """
    cams = (a, b, c)
    out = []
    for cam, tag in zip(cams, kind):
        if tag == "P":
            out.append(numlin.normalize_projective(project_point(cam, x)))
        else:
            out.append(numlin.normalize_projective(project_line(cam, x, y)))
    return out
