"""Tests for cameras, tensors, and the 13-parameter tensor map."""
import json
from importlib import resources

import numpy as np
import pytest

from trifocal import geometry, numlin, slices


def reference_cameras():
    doc = json.loads(
        resources.files("trifocal.data").joinpath("reference_solution.json").read_text()
    )
    a = np.hstack([np.eye(3), np.zeros((3, 1))]).astype(complex)
    b = np.array(doc["camera_matrices"]["B"], dtype=complex)
    c = np.array(doc["camera_matrices"]["C"], dtype=complex)
    return a, b, c


def random_so3(rng):
    """Complex special orthogonal matrix from a well-conditioned quaternion."""
    while True:
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = q / np.linalg.norm(q)
        s = q @ q
        if abs(s) > 0.5:
            return geometry.quaternion_rotation(q) / s


# ---------------------------------------------------------------------------
# centers and epipoles
# ---------------------------------------------------------------------------

def test_center_canonical():
    cam = np.hstack([np.eye(3), np.zeros((3, 1))])
    assert np.allclose(geometry.camera_center(cam), [0, 0, 0, 1])


def test_center_translated():
    rng = np.random.default_rng(0)
    t = rng.normal(size=3) + 1j * rng.normal(size=3)
    cam = np.hstack([np.eye(3), t[:, None]])
    want = numlin.normalize_projective(np.append(-t, 1.0))
    assert np.allclose(geometry.camera_center(cam), want, atol=1e-12)


def test_center_of_reference_camera():
    # frozen from a cofactor-adjugate oracle on the checked-in matrix
    _, b, _ = reference_cameras()
    center = geometry.camera_center(b)
    frozen = np.array([0.46862780, 0.65087174, 0.40046978, -0.44314548])
    assert np.allclose(center, frozen, atol=1e-7)
    assert abs(center[3]) > 0.1  # affine center, nonzero last coordinate


def test_center_degenerate_camera():
    cam = np.zeros((3, 4))
    cam[0, 0] = 1.0
    with pytest.raises(geometry.DegenerateCameraError):
        geometry.camera_center(cam)


def test_epipole_canonical_pair():
    a = np.hstack([np.eye(3), np.zeros((3, 1))])
    b = np.hstack([np.eye(3), np.array([[0.0], [0.0], [1.0]])])
    e = geometry.epipole(a, b)
    assert numlin.projective_distance(e, [0, 0, -1]) < 1e-12


def test_epipole_identical_centers():
    a = np.hstack([np.eye(3), np.zeros((3, 1))])
    with pytest.raises(geometry.UndefinedEpipoleError):
        geometry.epipole(a, 2.0 * a)


def test_epipole_incidence():
    rng = np.random.default_rng(11)
    a, b, _ = reference_cameras()
    e = geometry.epipole(a, b)
    for _ in range(5):
        line = np.cross(e, rng.normal(size=3))
        assert abs(line @ e) < 1e-12


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------

def test_rotation_identity_quaternion():
    assert np.allclose(geometry.quaternion_rotation([1, 0, 0, 0]), np.eye(3))


def test_rotation_axis_quaternion():
    assert np.allclose(geometry.quaternion_rotation([0, 1, 0, 0]), np.diag([1, -1, -1]))


def test_rotation_isotropic_quaternion():
    r = geometry.quaternion_rotation([1.0, 1j, 0.0, 0.0])
    assert np.allclose(r @ r.T, 0.0, atol=1e-12)


def test_rotation_cone_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        r = geometry.quaternion_rotation(q)
        s = q @ q
        assert np.allclose(r @ r.T, s * s * np.eye(3), atol=1e-12 * max(1.0, abs(s) ** 2))
        assert np.allclose(r.T @ r, s * s * np.eye(3), atol=1e-12 * max(1.0, abs(s) ** 2))


def test_rotation_derivative_matrices():
    rng = np.random.default_rng(31)
    q = rng.normal(size=4) + 1j * rng.normal(size=4)
    d = geometry._rotation_derivatives(q)
    h = 1e-7
    for m in range(4):
        dq = np.zeros(4, dtype=complex)
        dq[m] = h
        fd = (geometry.quaternion_rotation(q + dq) - geometry.quaternion_rotation(q - dq)) / (2 * h)
        assert np.allclose(d[m], fd, atol=1e-6)
    # Euler identity for a quadratic map
    rebuilt = 0.5 * np.einsum("m,mij->ij", q, d)
    assert np.allclose(rebuilt, geometry.quaternion_rotation(q), atol=1e-12)


def test_quaternion_from_rotation_roundtrip():
    rng = np.random.default_rng(41)
    for real in (True, False):
        q = rng.normal(size=4) + (0 if real else 1j * rng.normal(size=4))
        r = geometry.quaternion_rotation(q)
        back = geometry.quaternion_from_rotation(r)
        assert min(np.abs(back - q).max(), np.abs(back + q).max()) < 1e-10


def test_quaternion_from_rotation_rejects_isotropic():
    r = geometry.quaternion_rotation([1.0, 1j, 0.0, 0.0])
    with pytest.raises(ValueError):
        geometry.quaternion_from_rotation(r)


# ---------------------------------------------------------------------------
# trifocal tensors
# ---------------------------------------------------------------------------

def test_tensor_zero_iff_shared_center():
    rng = np.random.default_rng(3)
    # all centers at the origin: [R | 0] cameras
    mats = [np.hstack([random_so3(rng), np.zeros((3, 1))]) for _ in range(3)]
    t = geometry.trifocal_tensor(*mats)
    assert np.allclose(t, 0.0, atol=1e-12)
    # generic cameras: nonzero
    a, b, c = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)) for _ in range(3))
    assert np.linalg.norm(geometry.trifocal_tensor(a, b, c)) > 1e-2


def test_tensor_plane_support_pattern():
    rng = np.random.default_rng(6)
    s, t = rng.normal(size=2)
    a = np.hstack([np.eye(3), np.zeros((3, 1))])
    b = np.hstack([np.eye(3), np.array([[0.0], [0.0], [1.0]])])
    c = np.hstack([np.eye(3), np.array([[0.0], [s], [t]])])
    got = geometry.trifocal_tensor(a, b, c)
    want = np.zeros((3, 3, 3))
    want[0, 0] = [0.0, s, t]
    want[0, 2, 0] = -1.0
    want[1, 1] = [0.0, s, t]
    want[1, 2, 1] = -1.0
    want[2, 2] = [0.0, s, t - 1.0]
    assert np.allclose(got, want, atol=1e-12)


def test_tensor_world_frame_invariance():
    rng = np.random.default_rng(9)
    a, b, c = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)) for _ in range(3))
    t = geometry.trifocal_tensor(a, b, c)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h / np.linalg.det(h) ** 0.25
    t_moved = geometry.trifocal_tensor(a @ h, b @ h, c @ h)
    assert numlin.projective_distance(t.ravel(), t_moved.ravel()) < 1e-9


def test_tensor_left_equivariance():
    rng = np.random.default_rng(10)
    a, b, c = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)) for _ in range(3))
    t = geometry.trifocal_tensor(a, b, c)
    g, gp, gpp = random_so3(rng), random_so3(rng), random_so3(rng)
    lhs = geometry.trifocal_tensor(g @ a, gp @ b, gpp @ c)
    rhs = np.einsum("ia,jb,kc,abc->ijk", g, gp, gpp, t)
    assert numlin.projective_distance(lhs.ravel(), rhs.ravel()) < 1e-9


def test_tensor_group_invariance():
    rng = np.random.default_rng(12)
    cfg = geometry.random_configuration(rng)
    a, b, c = cfg.cameras()
    t = geometry.trifocal_tensor(a, b, c)
    for _ in range(5):
        h = np.zeros((4, 4), dtype=complex)
        h[:3, :3] = random_so3(rng)
        h[:3, 3] = rng.normal(size=3) + 1j * rng.normal(size=3)
        h[3, 3] = np.exp(2j * np.pi * rng.random())
        moved = geometry.trifocal_tensor(a @ h, b @ h, c @ h)
        assert numlin.projective_distance(t.ravel(), moved.ravel()) < 1e-9


def test_tensor_camera_swap_transposes_slots():
    rng = np.random.default_rng(13)
    a, b, c = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)) for _ in range(3))
    t = geometry.trifocal_tensor(a, b, c)
    swapped = geometry.trifocal_tensor(a, c, b)
    assert numlin.projective_distance(swapped.ravel(), np.transpose(t, (0, 2, 1)).ravel()) < 1e-10


# ---------------------------------------------------------------------------
# tensor_contract
# ---------------------------------------------------------------------------

def test_contract_elementary():
    t = np.zeros((3, 3, 3))
    t[0, 1, 2] = 1.0
    e = np.eye(3)
    assert geometry.tensor_contract(t, e[0], e[1], e[2]) == pytest.approx(1.0)


def test_contract_multilinear():
    rng = np.random.default_rng(14)
    t = rng.normal(size=(3, 3, 3))
    x, y, z = rng.normal(size=(3, 3))
    full = geometry.tensor_contract(t, x, y, z)
    assert geometry.tensor_contract(t, 2 * x, y, z) == pytest.approx(2 * full)
    # partial contractions reduce consistently
    m = geometry.tensor_contract(t, x)
    assert m.shape == (3, 3)
    v = geometry.tensor_contract(t, x, y)
    assert v.shape == (3,)
    assert v @ z == pytest.approx(full)
    assert np.allclose(y @ m, v)


def test_contract_requires_a_slot():
    with pytest.raises(ValueError):
        geometry.tensor_contract(np.zeros((3, 3, 3)))


def test_contract_vanishes_on_consistent_triple():
    rng = np.random.default_rng(15)
    cfg = geometry.random_configuration(rng)
    a, b, c = cfg.cameras()
    w = slices.ProblemWeights(0, 0, 0, 0, 11)
    for corr in slices.synthetic_consistent_instance(cfg, w, seed=77)[:4]:
        t = geometry.trifocal_tensor(a, b, c)
        t = t / np.linalg.norm(t)
        val = geometry.tensor_contract(t, *corr.vectors)
        assert abs(val) < 1e-10


# ---------------------------------------------------------------------------
# the 13-parameter map
# ---------------------------------------------------------------------------

def test_configuration_tensor_matches_determinant_definition():
    rng = np.random.default_rng(16)
    for _ in range(5):
        cfg = geometry.random_configuration(rng)
        direct = geometry.trifocal_tensor(*cfg.cameras())
        assert np.allclose(geometry.configuration_tensor(cfg), direct, atol=1e-10)


def test_configuration_tensor_corner_entries():
    # with first camera [I|0]: entry (1,1,1) = R2[1,1] t3[1] - t2[1] R3[1,1],
    # entry (1,1,2) = R2[1,1] t3[2] - t2[1] R3[2,1]  (1-based)
    rng = np.random.default_rng(17)
    cfg = geometry.random_configuration(rng)
    a, b, c, d = cfg.q2
    e, f, g, h = cfg.q3
    t = geometry.configuration_tensor(cfg)
    t111 = (a * a + b * b - c * c - d * d) * cfg.t3[0] - (e * e + f * f - g * g - h * h) * cfg.t2[0]
    t112 = (a * a + b * b - c * c - d * d) * cfg.t3[1] - 2 * (f * g + e * h) * cfg.t2[0]
    assert t[0, 0, 0] == pytest.approx(t111, rel=1e-12)
    assert t[0, 0, 1] == pytest.approx(t112, rel=1e-12)


def test_configuration_tensor_trivial_example():
    cfg = geometry.CalibratedConfiguration(
        q2=[1, 0, 0, 0], q3=[1, 0, 0, 0], t2=[0, 0, 1], t3=[0, 1, 1]
    )
    direct = geometry.trifocal_tensor(*cfg.cameras())
    assert np.allclose(geometry.configuration_tensor(cfg), direct, atol=1e-14)


def test_tensor_maps_of_a_stack_match_row_by_row():
    rng = np.random.default_rng(19)
    p = rng.normal(size=(7, 13)) + 1j * rng.normal(size=(7, 13))
    for fn, shape in ((geometry.tensor_from_params, (27,)),
                      (geometry.tensor_jacobian_params, (27, 13))):
        stack = fn(p)
        assert stack.shape == (7,) + shape
        for row, point in zip(stack, p):
            single = fn(point)
            assert single.shape == shape
            assert np.abs(row - single).max() <= 1e-14 * np.abs(single).max()
        assert fn(p[:0]).shape == (0,) + shape


def test_configuration_jacobian_vs_finite_differences():
    rng = np.random.default_rng(18)
    h = 1e-6
    for _ in range(20):
        p = rng.normal(size=13) + 1j * rng.normal(size=13)
        jac = geometry.tensor_jacobian_params(p)
        scale = np.abs(jac).max()
        for m in range(13):
            dp = np.zeros(13, dtype=complex)
            dp[m] = h
            fd = (geometry.tensor_from_params(p + dp) - geometry.tensor_from_params(p - dp)) / (2 * h)
            assert np.abs(jac[:, m] - fd).max() <= 1e-5 * scale


def test_configuration_jacobian_translation_partials():
    rng = np.random.default_rng(19)
    cfg = geometry.random_configuration(rng)
    e, f, g, h = cfg.q3
    jac = geometry.configuration_jacobian(cfg)
    # d(1,1,1)/d t21 kills the quaternion-3 "diagonal" entry
    assert jac[0, 8] == pytest.approx(-(e * e + f * f - g * g - h * h), rel=1e-12)
    # d(1,1,2)/d t21 exposes the off-diagonal rotation entry
    assert jac[1, 8] == pytest.approx(-2 * (f * g + e * h), rel=1e-12)


def test_configuration_jacobian_ranks():
    rng = np.random.default_rng(20)
    alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
    beta = rng.normal(size=4) + 1j * rng.normal(size=4)
    for _ in range(5):
        p = rng.normal(size=13) + 1j * rng.normal(size=13)
        jac = geometry.tensor_jacobian_params(p)
        # one-dimensional fiber direction (q2, 0, -2 t3) spans the kernel
        assert numlin.numerical_rank(jac) == 12
        fiber = np.zeros(13, dtype=complex)
        fiber[0:4] = p[0:4]
        fiber[10:13] = -2.0 * p[10:13]
        assert np.linalg.norm(jac @ fiber) < 1e-8 * np.abs(jac).max()
        patch_rows = np.zeros((2, 13), dtype=complex)
        patch_rows[0, 0:4] = alpha
        patch_rows[1, 4:8] = beta
        assert numlin.numerical_rank(np.vstack([jac, patch_rows])) == 13
        assert not np.any(np.all(np.abs(jac) < 1e-12, axis=0))


# ---------------------------------------------------------------------------
# multiview residuals and consistency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthetic_scene():
    rng = np.random.default_rng(21)
    cfg = geometry.random_configuration(rng)
    return cfg, cfg.cameras()


def _one_synthetic(cfg, kind, seed):
    w = {
        "PPP": slices.ProblemWeights(3, 1, 0, 0, 0),
        "PPL": slices.ProblemWeights(1, 4, 0, 0, 0),
        "PLP": slices.ProblemWeights(0, 1, 1, 0, 7),
        "LLL": slices.ProblemWeights(0, 0, 0, 5, 1),
        "PLL": slices.ProblemWeights(0, 0, 0, 0, 11),
    }[kind]
    inst = slices.synthetic_consistent_instance(cfg, w, seed)
    return next(c for c in inst if c.kind == kind)


def test_multiview_consistent_ppl_rank_five(synthetic_scene):
    cfg, (a, b, c) = synthetic_scene
    corr = _one_synthetic(cfg, "PPL", 1)
    report = geometry.multiview_residual("PPL", a, b, c, corr)
    assert report.passed and report.rank == 5
    assert report.drop_ratio > 1e6


def test_multiview_random_ppl_rank_six(synthetic_scene):
    _, (a, b, c) = synthetic_scene
    corr = slices.random_instance(slices.ProblemWeights(1, 4, 0, 0, 0), seed=5)[1]
    report = geometry.multiview_residual("PPL", a, b, c, corr)
    assert not report.passed
    assert report.rank == 6


def test_multiview_consistent_ppp(synthetic_scene):
    cfg, (a, b, c) = synthetic_scene
    corr = _one_synthetic(cfg, "PPP", 2)
    report = geometry.multiview_residual("PPP", a, b, c, corr)
    assert report.passed
    assert report.rank <= 6
    assert all(v <= 1e-8 for v in report.details["pairwise_dets"].values())


def test_multiview_consistent_lll_and_plp(synthetic_scene):
    cfg, (a, b, c) = synthetic_scene
    lll = _one_synthetic(cfg, "LLL", 3)
    assert geometry.multiview_residual("LLL", a, b, c, lll).rank == 2
    plp = _one_synthetic(cfg, "PLP", 4)
    rep = geometry.multiview_residual("PLP", a, b, c, plp)
    assert rep.passed and rep.rank == 5


def test_multiview_kind_mismatch(synthetic_scene):
    cfg, (a, b, c) = synthetic_scene
    corr = _one_synthetic(cfg, "PLL", 6)
    with pytest.raises(ValueError):
        geometry.multiview_residual("PPP", a, b, c, corr)


def test_stacked_checks_agree_with_one_correspondence_calls(synthetic_scene):
    """On instances mixing all five kinds, the per-kind stacked rank tests and
    the array of epipole clearances decide as the one-correspondence calls."""
    cfg, cams = synthetic_scene
    a, b, c = cams
    mixed = [_one_synthetic(cfg, kind, 10 + i) for i, kind in enumerate(slices.KINDS)]
    stray = slices.random_instance(slices.ProblemWeights(0, 1, 1, 0, 7), seed=4)
    epipoles = geometry.all_epipoles(a, b, c)
    centers = geometry.camera_centers(cams)
    for corrs in (mixed, stray, mixed[::-1] + stray[:2]):
        stack = geometry.CorrespondenceStack.of(corrs)
        reports = [geometry.multiview_residual(k.kind, a, b, c, k) for k in corrs]
        assert geometry.multiview_passed(cams, stack) == all(r.passed for r in reports)
        worst = min(geometry.epipole_clearance(k, epipoles) for k in corrs)
        assert geometry.epipoles_clear(cams, centers, stack, 0.5 * worst)
        assert not geometry.epipoles_clear(cams, centers, stack, 2.0 * worst)
    assert geometry.multiview_passed(cams, geometry.CorrespondenceStack.of(mixed))
    assert not geometry.multiview_passed(cams, geometry.CorrespondenceStack.of(stray))


def test_consistency_check_forward_instance(synthetic_scene):
    cfg, (a, b, c) = synthetic_scene
    corr = _one_synthetic(cfg, "PPL", 7)
    assert geometry.consistency_check(a, b, c, corr)


def test_consistency_check_epipole_clause(synthetic_scene):
    """A world point on the baseline projects onto the epipole: consistent
    in the minor sense, but rejected by epipole avoidance."""
    cfg, (a, b, c) = synthetic_scene
    ca = geometry.camera_center(a)
    cb = geometry.camera_center(b)
    x = 0.4 * ca + 0.6 * cb
    y = x + np.array([0.1, 0.2, -0.05, 0.3]) * (1 + 0.5j)
    corr = slices.Correspondence(
        kind="PPL", vectors=tuple(geometry.forward_correspondence("PPL", a, b, c, x, y))
    )
    assert not geometry.consistency_check(a, b, c, corr)


def test_consistency_check_random_data_fails(synthetic_scene):
    _, (a, b, c) = synthetic_scene
    corr = slices.random_instance(slices.ProblemWeights(0, 0, 0, 0, 11), seed=8)[0]
    assert not geometry.consistency_check(a, b, c, corr)


def test_consistency_check_identical_centers():
    a = np.hstack([np.eye(3), np.zeros((3, 1))])
    corr = slices.random_instance(slices.ProblemWeights(0, 0, 0, 0, 11), seed=9)[0]
    with pytest.raises(geometry.UndefinedEpipoleError):
        geometry.consistency_check(a, a, a, corr)


def test_epipoles_clear_is_false_for_cameras_sharing_a_center():
    """[I|0] and [R|0] share the origin as center, so their epipoles are
    undefined and no correspondence can be checked against them."""
    r = geometry.quaternion_rotation(np.array([0.9, 0.3, -0.2, 0.1]) / np.sqrt(0.95))
    t = np.array([[0.4], [-1.0], [0.7]])
    cams = np.array([
        np.hstack([np.eye(3), np.zeros((3, 1))]),
        np.hstack([r, np.zeros((3, 1))]),
        np.hstack([r.T, t]),
    ], dtype=complex)
    _, _, instance = slices.load_instance(
        resources.files("trifocal.data").joinpath("reference_instance.json")
    )
    stack = geometry.CorrespondenceStack.of(instance)
    with pytest.raises(geometry.UndefinedEpipoleError):
        geometry.all_epipoles(*cams)
    assert not geometry.epipoles_clear(cams, geometry.camera_centers(cams), stack)


# --- validation that no other test reaches ----------------------------------

@pytest.mark.parametrize(
    "cams",
    [
        [np.eye(3, 4), np.eye(2, 4)],  # cameras of different shapes
        [np.eye(3)],  # one camera that is not 3x4
    ],
)
def test_camera_centers_reject_a_camera_that_is_not_3x4(cams):
    with pytest.raises(geometry.DegenerateCameraError):
        geometry.camera_centers(cams)


def test_quaternion_from_rotation_rejects_a_matrix_that_is_not_3x3():
    with pytest.raises(ValueError, match="expected 3x3"):
        geometry.quaternion_from_rotation(np.eye(4))


def test_configuration_rejects_an_unnormalized_second_translation():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="normalized"):
        geometry.CalibratedConfiguration(q2=q, q3=q, t2=(0, 0, 2), t3=(0, 0, 1))
