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


def _as_camera(cam) -> np.ndarray:
    a = np.asarray(cam, dtype=complex)
    if a.shape != (3, 4):
        raise DegenerateCameraError(f"camera must be 3x4, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DegenerateCameraError("camera contains NaN/Inf")
    return a


def camera_center(cam) -> np.ndarray:
    """Unit-normalized generator of the camera's kernel (its center in P^3)."""
    spec = numlin.svd(_as_camera(cam))
    if numlin.rank_of_values(spec.values) < 3:
        raise DegenerateCameraError("camera is rank-deficient")
    return numlin.normalize_projective(spec.right[3].conj())


def _epipole(cam, center, other_center) -> np.ndarray:
    if numlin.projective_distance(center, other_center) < 1e-10:
        raise UndefinedEpipoleError("cameras share a center")
    e = cam @ other_center
    if np.linalg.norm(e) < 1e-12:
        raise UndefinedEpipoleError("center of one camera lies in the other's kernel")
    return numlin.normalize_projective(e)


def epipole(frm, of) -> np.ndarray:
    """Image under ``frm`` of the center of ``of``, unit-normalized."""
    a = _as_camera(frm)
    return _epipole(a, camera_center(a), camera_center(of))


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

def trifocal_tensor(a, b, c) -> np.ndarray:
    """3x3x3 tensor of 4x4 minors of the stacked camera transposes.

    Entry (i, j, k) is (-1)^(i+1) times the determinant of the 4x4 matrix
    whose columns are the two kept columns of a^T (column i omitted, order
    preserved), column j of b^T, and column k of c^T. Zero exactly when all
    three camera centers coincide.
    """
    at = _as_camera(a).T
    bt = _as_camera(b).T
    ct = _as_camera(c).T
    t = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        keep = [m for m in range(3) if m != i]
        sign = (-1.0) ** i  # (-1)^(i+1) with 1-based i
        for j in range(3):
            for k in range(3):
                m4 = np.column_stack([at[:, keep[0]], at[:, keep[1]], bt[:, j], ct[:, k]])
                t[i, j, k] = sign * numlin.det4(m4)
    return t


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

    def cameras(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = np.hstack([np.eye(3), np.zeros((3, 1))]).astype(complex)
        b = np.hstack([quaternion_rotation(self.q2), self.t2[:, None]])
        c = np.hstack([quaternion_rotation(self.q3), self.t3[:, None]])
        return a, b, c


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


def _unit(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    return a / np.linalg.norm(a)


def _point_camera_block(cam, x, n_cams, slot):
    block = np.zeros((3, 4 + n_cams), dtype=complex)
    block[:, 0:4] = cam
    block[:, 4 + slot] = x
    return block


def _rank_verdict(m, expected, abs_tol):
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    rank = numlin.rank_of_values(s)
    if expected < s.size:
        drop = float(s[expected - 1] / s[expected]) if s[expected] > 0 else np.inf
        trailing = float(s[expected] / s[0]) if s[0] > 0 else 0.0
    else:
        drop, trailing = np.inf, 0.0
    if abs_tol is None:
        passed = rank <= expected
    else:
        passed = trailing <= abs_tol
    return passed, rank, drop


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
    a, b, c = _as_camera(a), _as_camera(b), _as_camera(c)
    v0, v1, v2 = (_unit(v) for v in data.vectors)
    det_tol = 1e-8 if abs_tol is None else abs_tol

    if kind == "PLL":
        t = trifocal_tensor(a, b, c)
        t = t / np.linalg.norm(t)
        val = abs(tensor_contract(t, v0, v1, v2))
        return MultiviewReport(
            kind=kind,
            passed=bool(val <= max(det_tol, 1e-7 if abs_tol is None else abs_tol)),
            rank=None,
            expected_rank=None,
            drop_ratio=np.inf if val == 0 else 1.0 / val,
            details={"trilinear": val},
        )

    if kind in ("PPL", "PLP"):
        if kind == "PPL":
            pt_cam2, pt2, line_cam, line = b, v1, c, v2
        else:
            pt_cam2, pt2, line_cam, line = c, v2, b, v1
        m = np.zeros((7, 6), dtype=complex)
        m[0:3] = _point_camera_block(a, v0, 2, 0)
        m[3:6] = _point_camera_block(pt_cam2, pt2, 2, 1)
        m[6, 0:4] = line @ line_cam
        passed, rank, drop = _rank_verdict(m, 5, abs_tol)
        return MultiviewReport(kind, passed, rank, 5, drop)

    if kind == "LLL":
        m = np.column_stack([a.T @ v0, b.T @ v1, c.T @ v2])
        passed, rank, drop = _rank_verdict(m, 2, abs_tol)
        return MultiviewReport(kind, passed, rank, 2, drop)

    if kind == "PPP":
        m = np.zeros((9, 7), dtype=complex)
        m[0:3] = _point_camera_block(a, v0, 3, 0)
        m[3:6] = _point_camera_block(b, v1, 3, 1)
        m[6:9] = _point_camera_block(c, v2, 3, 2)
        passed, rank, drop = _rank_verdict(m, 6, abs_tol)
        dets = {}
        for label, (cam1, x1, cam2, x2) in {
            "12": (a, v0, b, v1),
            "13": (a, v0, c, v2),
            "23": (b, v1, c, v2),
        }.items():
            d = np.zeros((6, 6), dtype=complex)
            d[0:3] = _point_camera_block(cam1, x1, 2, 0)
            d[3:6] = _point_camera_block(cam2, x2, 2, 1)
            scale = np.prod(np.linalg.norm(d, axis=1))
            dets[label] = abs(np.linalg.det(d)) / scale
        dets_ok = all(v <= det_tol for v in dets.values())
        return MultiviewReport(
            kind, bool(passed and dets_ok), rank, 6, drop, details={"pairwise_dets": dets}
        )

    raise ValueError(f"unknown correspondence kind {kind!r}")


def all_epipoles(a, b, c, centers=None) -> dict[tuple[int, int], np.ndarray]:
    """The six epipoles e[(i, j)] = image under camera i of center j
    (``centers``: the cameras' ``camera_center``s, when already known)."""
    cams = [_as_camera(cam) for cam in (a, b, c)]
    if centers is None:
        centers = [camera_center(cam) for cam in cams]
    out = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                out[(i, j)] = _epipole(cams[i], centers[i], centers[j])
    return out


def epipole_clearance(data: "Correspondence", epipoles: dict) -> float:
    """Smallest distance of the correspondence's elements to the epipoles.

    Points use chordal projective distance; lines use normalized incidence
    |l . e| (a line 'hits' an epipole when the epipole lies on it).
    """
    worst = np.inf
    for img, (element_is_point, v) in enumerate(
        zip((k == "P" for k in data.kind), data.vectors)
    ):
        u = _unit(v)
        for other in range(3):
            if other == img:
                continue
            e = epipoles[(img, other)]
            if element_is_point:
                d = numlin.projective_distance(u, e)
            else:
                d = abs(u @ e)
            worst = min(worst, float(d))
    return worst


def consistency_check(a, b, c, data: "Correspondence") -> bool:
    """Multi-view membership plus epipole avoidance.

    True iff the correspondence passes multiview_residual for its kind and
    every one of its points/lines stays farther than ``EPIPOLE_TOL`` from
    both epipoles in its image. Raises UndefinedEpipoleError for camera
    pairs with identical centers.
    """
    eps = all_epipoles(a, b, c)
    if not multiview_residual(data.kind, a, b, c, data).passed:
        return False
    return epipole_clearance(data, eps) > EPIPOLE_TOL


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
