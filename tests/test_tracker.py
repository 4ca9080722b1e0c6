"""Tests for the predictor-corrector path tracker."""
import numpy as np
import pytest

from trifocal import tracker


def scalar_system(f, df, label=""):
    return tracker.SquareSystem(
        dimension=1,
        evaluate=lambda z: np.array([f(z[0])]),
        jacobian=lambda z: np.array([[df(z[0])]]),
        description=label,
    )


def quadric_minus(c):
    return scalar_system(lambda x: x * x - c, lambda x: 2 * x, f"x^2-{c}")


# ---------------------------------------------------------------------------
# track_path
# ---------------------------------------------------------------------------

def test_track_closed_form_path():
    end = tracker.track_path(quadric_minus(1.0), quadric_minus(4.0), [1.0])
    assert end.status == tracker.SUCCESS
    # the gamma=1 homotopy has the explicit solution x(s) = sqrt(4 - 3s)
    assert abs(end.point[0] - 2.0) < 1e-10
    assert end.residual <= 1e-11


def test_track_closed_form_family():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = rng.normal() + 1j * rng.normal()
        if abs(c) < 0.1:
            continue
        end = tracker.track_path(quadric_minus(1.0), quadric_minus(c), [1.0])
        assert end.status == tracker.SUCCESS
        root = np.sqrt(complex(c))
        err = min(abs(end.point[0] - root), abs(end.point[0] + root))
        assert err < 1e-10


def test_track_identity_homotopy_keeps_start():
    sys = quadric_minus(4.0)
    end = tracker.track_path(sys, sys, [2.0])
    assert end.status == tracker.SUCCESS
    assert end.point[0] == 2.0  # corrections are exactly zero on a root


def test_track_no_finite_root_diverges():
    start = scalar_system(lambda x: x - 1.0, lambda x: 1.0)
    target = scalar_system(lambda x: x * 0.0 - 1.0, lambda x: 0.0)
    end = tracker.track_path(start, target, [1.0])
    assert end.status == tracker.DIVERGED
    assert abs(end.point[0]) > 1e6


def test_track_double_root_target_is_not_success():
    # the root pair collides at s = 0, so the endpoint is at best singular
    end = tracker.track_path(quadric_minus(1.0), quadric_minus(0.0), [1.0])
    assert end.status in (tracker.STEP_LIMIT, tracker.SINGULAR)


def test_track_respects_gamma():
    cfg = tracker.TrackerConfig(gamma=np.exp(0.7j))
    end = tracker.track_path(quadric_minus(1.0), quadric_minus(4.0), [1.0], cfg)
    assert end.status == tracker.SUCCESS
    assert abs(abs(end.point[0]) - 2.0) < 1e-9


def test_track_deterministic():
    cfg = tracker.TrackerConfig(gamma=np.exp(1.3j))
    a = tracker.track_path(quadric_minus(1.0), quadric_minus(-9.0), [1.0], cfg)
    b = tracker.track_path(quadric_minus(1.0), quadric_minus(-9.0), [1.0], cfg)
    assert a.point[0] == b.point[0]
    assert a.steps == b.steps


def test_config_validation():
    with pytest.raises(ValueError):
        tracker.TrackerConfig(min_step=0.5, initial_step=0.1)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(max_step=1.5)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(newton_tol=-1.0)
    with pytest.raises(ValueError):
        tracker.TrackerConfig(gamma=2.0)


# ---------------------------------------------------------------------------
# newton_refine
# ---------------------------------------------------------------------------

def test_newton_scalar_quadratic():
    res = tracker.newton_refine(quadric_minus(4.0), [2.1], tol=1e-12)
    assert res.converged
    assert abs(res.point[0] - 2.0) < 1e-12
    assert res.iterations <= 3
    assert res.quadratic


def test_newton_exact_root_unchanged():
    res = tracker.newton_refine(quadric_minus(4.0), [2.0], tol=1e-12)
    assert res.converged
    assert res.point[0] == 2.0
    assert res.iterations == 0


def test_newton_double_root_linear_contraction():
    res = tracker.newton_refine(quadric_minus(0.0), [0.1], tol=1e-14, max_iters=8)
    assert not res.quadratic
    assert 0.4 < res.contraction < 0.6  # error halves each step at a double root


def test_newton_singular_jacobian_flagged():
    sys = scalar_system(lambda x: x * 0.0 + 1.0, lambda x: 0.0)
    res = tracker.newton_refine(sys, [1.0], tol=1e-12)
    assert not res.converged


def test_newton_multidim():
    sys = tracker.SquareSystem(
        dimension=2,
        evaluate=lambda z: np.array([z[0] ** 2 - z[1], z[1] - 1.0]),
        jacobian=lambda z: np.array([[2 * z[0], -1.0], [0.0, 1.0]]),
    )
    res = tracker.newton_refine(sys, [1.2, 0.9], tol=1e-12)
    assert res.converged
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-10)


# ---------------------------------------------------------------------------
# total_degree_solve
# ---------------------------------------------------------------------------

def unit_box_system():
    return tracker.SquareSystem(
        dimension=2,
        evaluate=lambda z: np.array([z[0] ** 2 - 1.0, z[1] ** 2 - 1.0]),
        jacobian=lambda z: np.array([[2 * z[0], 0.0], [0.0, 2 * z[1]]]),
    )


def test_total_degree_four_corners():
    ends = tracker.total_degree_solve(unit_box_system(), [2, 2])
    assert len(ends) == 4
    assert all(e.status == tracker.SUCCESS for e in ends)
    got = sorted((round(e.point[0].real), round(e.point[1].real)) for e in ends)
    assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert all(abs(e.point[0].imag) < 1e-9 and abs(e.point[1].imag) < 1e-9 for e in ends)


def test_total_degree_substitution_chain():
    sys = tracker.SquareSystem(
        dimension=2,
        evaluate=lambda z: np.array([z[0] ** 2 - z[1], z[1] - 1.0]),
        jacobian=lambda z: np.array([[2 * z[0], -1.0], [0.0, 1.0]]),
    )
    ends = tracker.total_degree_solve(sys, [2, 1])
    wins = [e for e in ends if e.status == tracker.SUCCESS]
    assert len(ends) == 2
    assert len(wins) == 2
    roots = sorted(round(e.point[0].real) for e in wins)
    assert roots == [-1, 1]


def test_total_degree_generic_quadrics():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))

    def mono(z):
        x, y = z
        return np.array([x * x, x * y, y * y, x, y, 1.0])

    def dmono(z):
        x, y = z
        return np.array(
            [[2 * x, 0.0], [y, x], [0.0, 2 * y], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        )

    sys = tracker.SquareSystem(
        dimension=2,
        evaluate=lambda z: coeffs @ mono(z),
        jacobian=lambda z: coeffs @ dmono(z),
    )
    cfg = tracker.TrackerConfig(gamma=np.exp(0.9j))
    ends = tracker.total_degree_solve(sys, [2, 2], cfg, rng=np.random.default_rng(11))
    wins = [e for e in ends if e.status == tracker.SUCCESS]
    assert len(wins) == 4
    for e in wins:
        assert np.abs(sys.evaluate(e.point)).max() < 1e-10
    # all four Bezout solutions are distinct
    pts = np.array([e.point for e in wins])
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(pts[i] - pts[j]) > 1e-6


def test_total_degree_validates_degrees():
    with pytest.raises(ValueError):
        tracker.total_degree_solve(unit_box_system(), [2])
    with pytest.raises(ValueError):
        tracker.total_degree_solve(unit_box_system(), [2, 0])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_finite_difference_jacobian_agrees():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))

    def mono(z):
        x, y = z
        return np.array([x * x, x * y, y * y, x, y, 1.0])

    def dmono(z):
        x, y = z
        return np.array(
            [[2 * x, 0.0], [y, x], [0.0, 2 * y], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        )

    sys = tracker.SquareSystem(
        dimension=2,
        evaluate=lambda z: coeffs @ mono(z),
        jacobian=lambda z: coeffs @ dmono(z),
    )
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        fd = tracker.finite_difference_jacobian(sys, z)
        an = sys.jacobian(z)
        assert np.abs(fd - an).max() < 1e-5 * max(1.0, np.abs(an).max())


def test_batched_system_matches_single():
    rng = np.random.default_rng(4)
    sys = unit_box_system()
    pts = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    vals = sys.value_at(pts)
    jacs = sys.jacobian_at(pts)
    for i, p in enumerate(pts):
        assert np.allclose(vals[i], sys.evaluate(p))
        assert np.allclose(jacs[i], sys.jacobian(p))


def test_empty_stack_without_batch_callables():
    sys = unit_box_system()
    empty = np.zeros((0, 2), dtype=complex)
    assert sys.value_at(empty).shape == (0, 2)
    assert sys.jacobian_at(empty).shape == (0, 2, 2)


def test_evaluation_never_writes_into_a_systems_arrays():
    # batch callables that hand out one cached array each, real for the start
    # system: the homotopy must combine them without writing into either
    cached = {
        "start_values": np.array([[1.5, -2.0], [0.5, 3.0]]),
        "start_jacobians": np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 4.0]]]),
        "target_values": np.array([[1 + 2j, -1j], [0.5, 2 - 1j]]),
        "target_jacobians": np.array([[[1j, 2.0], [3.0, -1j]], [[2.0, 1j], [1.0, 1.0]]]),
    }
    kept = {name: arr.copy() for name, arr in cached.items()}

    def system(side):
        return tracker.SquareSystem(
            dimension=2,
            evaluate=lambda z: cached[f"{side}_values"][0],
            jacobian=lambda z: cached[f"{side}_jacobians"][0],
            evaluate_batch=lambda z: cached[f"{side}_values"],
            jacobian_batch=lambda z: cached[f"{side}_jacobians"],
        )

    gamma = np.exp(0.4j)
    hom = tracker.TwoSystemHomotopy(system("start"), system("target"), gamma)
    z = np.zeros((2, 2), dtype=complex)
    for s in (np.array([0.25, 0.75]), np.array([0.3 + 0.2j, 0.6 - 0.1j])):
        for method, key in (("value", "values"), ("jacobian", "jacobians")):
            start, target = kept[f"start_{key}"], kept[f"target_{key}"]
            c = s.reshape((2,) + (1,) * (start.ndim - 1))
            want = gamma * c * start + (1 - c) * target
            assert np.abs(getattr(hom, method)(z, s) - want).max() <= 1e-15
        want = gamma * kept["start_values"] - kept["target_values"]
        assert np.abs(hom.s_partial(z, s) - want).max() <= 1e-15
        for name, arr in cached.items():
            assert np.array_equal(arr, kept[name]), name


def test_solve_rows_flags_a_singular_row_of_a_batch_last_stack():
    # homotopy Jacobians and values may be views of batch-last storage; a
    # singular row must still come back as a NaN row of a contiguous result
    mats = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
    rhs = np.array([[2.0, 4.0], [1.0, 1.0], [3.0, 5.0]], dtype=complex)
    mats = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
    rhs = np.ascontiguousarray(rhs.T).T
    out = tracker._solve_rows(mats, rhs)
    finite = np.all(np.isfinite(out.view(float)), axis=1)
    assert finite.tolist() == [True, False, True]
    assert np.allclose(out[[0, 2]], [[1.0, 1.0], [5.0, 3.0]])


def test_path_log_lines_format():
    ends = tracker.total_degree_solve(unit_box_system(), [2, 2])
    lines = tracker.path_log_lines(ends)
    assert len(lines) == 4
    assert lines[0].startswith("path=0\tsteps=")
    assert all("status=" in ln and "residual=" in ln for ln in lines)


def test_track_batch_mixed_fates():
    """One batch containing a convergent and a divergent path keeps them
    independent."""
    start = tracker.SquareSystem(
        dimension=1,
        evaluate=lambda z: np.array([z[0] ** 2 - 1.0]),
        jacobian=lambda z: np.array([[2 * z[0]]]),
    )
    # target root at 3 for the first path; second tracks toward x*eps-1 with
    # eps -> 0 along the homotopy, which runs away to infinity
    target_a = quadric_minus(9.0)
    hom = tracker.TwoSystemHomotopy(start, target_a, 1.0)
    ends = tracker.track_batch(hom, np.array([[1.0], [-1.0]], dtype=complex), tracker.TrackerConfig())
    assert [e.status for e in ends] == [tracker.SUCCESS, tracker.SUCCESS]
    assert abs(ends[0].point[0] - 3.0) < 1e-9
    assert abs(ends[1].point[0] + 3.0) < 1e-9


@pytest.mark.parametrize("floor, finished", [(0.03, True), (0.1, False)])
def test_endgame_keeps_an_estimate_that_passes_aitken(floor, finished):
    """s z - p z - 1 = 0 has the path z(s) = 1 / (s - p) and a pole at p.
    From r = 0.5 the loop radii are 0.5, 0.125, 0.031 and the estimates
    differ by about 5e-3 and 7e-8 (relative), so no two agree to 1e-8
    before the floor stops the row.  After three loops Aitken's error test,
    (7e-8)^2 / 5e-3 = 1e-12, accepts the last estimate; after two there is
    only one difference, and the row fails."""
    p = 0.9 * np.exp(0.3j)
    start = scalar_system(lambda z: (1 - p) * z - 1, lambda z: 1 - p)
    target = scalar_system(lambda z: -p * z - 1, lambda z: -p)
    hom = tracker.TwoSystemHomotopy(start, target, 1.0)
    z0 = np.array([[1 / (0.5 - p)]])
    est, winding, ok, _ = tracker._cauchy_endgame(
        hom, z0, np.array([0.5]), np.array([floor]), tracker.TrackerConfig()
    )
    assert ok[0] == finished
    if finished:
        assert winding[0] == 1
        assert abs(est[0, 0] + 1 / p) <= 1e-10


def test_endgame_rejects_an_estimate_that_is_not_a_root():
    """z^2 = 1 - s / s* has a branch point at s* (|s*| = 0.06) and regular
    endpoints z = +-1 at s = 0.  Loops of radius 0.5 and 0.125 enclose s*,
    close after two windings, and their estimates both average the two
    endpoints to 0, so they agree; the root test must discard them and
    keep shrinking until a loop encloses s = 0 alone."""
    s_star = 0.06 * np.exp(2j)
    start = scalar_system(lambda z: z * z - (1 - 1 / s_star), lambda z: 2 * z)
    target = quadric_minus(1.0)
    hom = tracker.TwoSystemHomotopy(start, target, 1.0)
    z0 = np.array([[np.sqrt(1 - 0.5 / s_star)]])
    est, winding, ok, _ = tracker._cauchy_endgame(
        hom, z0, np.array([0.5]), np.array([1e-12]), tracker.TrackerConfig()
    )
    assert ok[0]
    assert winding[0] == 1
    assert abs(abs(est[0, 0]) - 1.0) <= 1e-8


@pytest.mark.parametrize(
    "degree, min_steps", [(2, (1e-10, 1e-12)), (3, (1e-10, 1e-12, 1e-14))]
)
def test_endgame_result_does_not_depend_on_stall_depth(degree, min_steps):
    """x^d - 1 to x^d: every path ends at the d-fold root 0 with cycle
    number d.  A smaller min_step lets the path stall deeper, but the
    endgame starts where the path entered the zone, so the endpoint is
    the same to the last bit."""
    start = scalar_system(lambda x: x**degree - 1.0, lambda x: degree * x ** (degree - 1))
    target = scalar_system(lambda x: x**degree, lambda x: degree * x ** (degree - 1))
    cfgs = [tracker.TrackerConfig(min_step=m) for m in min_steps]
    ends = [tracker.track_path(start, target, [1.0], cfg) for cfg in cfgs]
    for end in ends:
        assert end.status == tracker.SINGULAR
        assert end.winding == degree
        assert end.finite
        assert abs(end.point[0]) <= 1e-8
    assert len({end.point.tobytes() for end in ends}) == 1


# ---------------------------------------------------------------------------
# a path that stalls at min_step: which status names the cause
# ---------------------------------------------------------------------------

def line_path(slope):
    """x - 1 to x - 2 with every Jacobian entry replaced by ``slope``."""
    start = scalar_system(lambda x: x - 1.0, lambda x: slope)
    target = scalar_system(lambda x: x - 2.0, lambda x: slope)
    return tracker.track_path(start, target, [1.0])


def test_stall_with_singular_jacobian_is_singular():
    # every solve fails, so each step is rejected until h < min_step
    end = line_path(0.0)
    assert end.status == tracker.SINGULAR
    assert end.winding == 0
    assert end.final_s == 1.0
    assert not end.finite
    assert end.steps == 29  # 0.05 halved until below 1e-10


def test_stall_with_wrong_finite_jacobian_is_step_limit():
    # the solves succeed but the corrector never converges
    end = line_path(1e-30)
    assert end.status == tracker.STEP_LIMIT
    assert end.final_s == 1.0
    assert end.steps == 29


def test_tracker_config_rejects_a_negative_width():
    with pytest.raises(ValueError, match="width"):
        tracker.TrackerConfig(width=-1)


def test_two_system_homotopy_rejects_systems_of_different_dimensions():
    def system(n):
        return tracker.SquareSystem(n, lambda z: z, lambda z: np.eye(n, dtype=complex))

    with pytest.raises(ValueError, match="different dimensions"):
        tracker.TwoSystemHomotopy(system(2), system(3))
