"""Tests for pseudo-witness sets: monodromy, trace test, slice moves.

Low-degree curves with closed-form root oracles exercise the full machinery
(the same code paths the calibrated three-camera variety uses), so every
numerical claim here is checked against numpy.roots or hand algebra.
"""
import json
from dataclasses import replace

import numpy as np
import pytest

from trifocal import seeds, tracker, witness


# ---------------------------------------------------------------------------
# toy varieties with closed-form degrees
# ---------------------------------------------------------------------------

def cubic_variety():
    """t -> (t, t^2, t^3), an affine curve of degree 3."""

    def image(p):
        t = p[:, 0]
        return np.stack([t, t**2, t**3], axis=1)

    def jac(p):
        t = p[:, 0]
        return np.stack([np.ones_like(t), 2 * t, 3 * t**2], axis=1)[:, :, None]

    return witness.ParametrizedVariety(
        name="twisted-cubic", param_dim=1, image_dim=3, image=image, image_jacobian=jac
    )


def circle_variety(chart):
    """t -> [1 - t^2 : 2t : 1 + t^2], a conic of degree 2."""

    def image(p):
        t = p[:, 0]
        return np.stack([1 - t**2, 2 * t, 1 + t**2], axis=1)

    def jac(p):
        t = p[:, 0]
        return np.stack([-2 * t, 2 * np.ones_like(t), 2 * t], axis=1)[:, :, None]

    return witness.ParametrizedVariety(
        name="unit-circle",
        param_dim=1,
        image_dim=3,
        image=image,
        image_jacobian=jac,
        chart=np.asarray(chart, dtype=complex),
    )


def line_variety():
    """t -> (t, 2t + 1), an affine line (degree 1)."""

    def image(p):
        t = p[:, 0]
        return np.stack([t, 2 * t + 1], axis=1)

    def jac(p):
        t = p[:, 0]
        return np.stack([np.ones_like(t), 2 * np.ones_like(t)], axis=1)[:, :, None]

    return witness.ParametrizedVariety(
        name="affine-line", param_dim=1, image_dim=2, image=image, image_jacobian=jac
    )


def cubic_oracle_roots(slc):
    r, c = slc.rows[0], slc.constants[0]
    return np.roots([r[2], r[1], r[0], -c])


def circle_oracle_roots(slc):
    r = slc.rows[0]
    return np.roots([r[2] - r[0], 2 * r[1], r[0] + r[2]])


def sorted_values(arr):
    return np.array(sorted(np.asarray(arr).ravel(), key=lambda z: (z.real, z.imag)))


def assert_same_set(a, b, tol=1e-8):
    a, b = sorted_values(a), sorted_values(b)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= tol


@pytest.fixture(scope="module")
def cubic_witness():
    var = cubic_variety()
    rng = np.random.default_rng(7)
    t0 = np.array([0.3 + 0.2j])
    slc = witness.slice_through_point(var, rng, t0)
    pts, certified, _ = witness.monodromy_populate(var, slc, t0[None, :], rng, budget=30)
    assert certified
    return var, slc, pts


@pytest.fixture(scope="module")
def circle_witness():
    rng = np.random.default_rng(11)
    chart = rng.normal(size=3) + 1j * rng.normal(size=3)
    var = circle_variety(chart / np.linalg.norm(chart))
    t0 = np.array([0.8 - 0.1j])
    slc = witness.slice_through_point(var, rng, t0)
    pts, certified, _ = witness.monodromy_populate(var, slc, t0[None, :], rng, budget=30)
    assert certified
    return var, slc, pts


# ---------------------------------------------------------------------------
# slices and sliced systems
# ---------------------------------------------------------------------------

def test_witness_slice_normalizes_inputs():
    s = witness.WitnessSlice([[1, 2, 3]], [4])
    assert s.rows.dtype == complex and s.rows.shape == (1, 3)
    assert s.constants.shape == (1,)


def test_as_witness_slice_accepts_bare_rows():
    s = witness.as_witness_slice(np.eye(2))
    assert isinstance(s, witness.WitnessSlice)
    assert np.all(s.constants == 0)


def test_sliced_system_rejects_wrong_shape():
    var = cubic_variety()
    with pytest.raises(witness.WitnessError):
        witness.sliced_square_system(var, witness.WitnessSlice(np.ones((2, 3)), np.zeros(2)))


def test_slice_through_point_affine_contains_point():
    var = cubic_variety()
    rng = np.random.default_rng(3)
    t0 = np.array([1.1 - 0.4j])
    slc = witness.slice_through_point(var, rng, t0)
    assert witness.membership_residuals(var, slc, t0[None, :])[0] <= 1e-12


def test_slice_through_point_projective_contains_point(circle_witness):
    var, _, _ = circle_witness
    rng = np.random.default_rng(5)
    t0 = np.array([0.25 + 1.5j])
    slc = witness.slice_through_point(var, rng, t0)
    assert witness.membership_residuals(var, slc, t0[None, :])[0] <= 1e-12
    assert np.all(slc.constants == 0)


def test_sliced_system_jacobian_matches_finite_differences():
    var = cubic_variety()
    rng = np.random.default_rng(9)
    sys = witness.sliced_square_system(var, witness.random_slice(var, rng))
    z = np.array([0.4 + 0.7j])
    fd = tracker.finite_difference_jacobian(sys, z)
    assert np.abs(fd - sys.jacobian(z)).max() <= 1e-6


def _counting(var):
    """``var`` with its image and image Jacobian wrapped in call counters."""
    calls = {"image": 0, "image_jacobian": 0}

    def counted(name):
        fn = getattr(var, name)

        def call(p):
            calls[name] += 1
            return fn(p)

        return call

    return replace(var, image=counted("image"), image_jacobian=counted("image_jacobian")), calls


@pytest.mark.parametrize("kind", ["calibrated", "affine"])
def test_slice_homotopy_matches_two_sliced_systems(kind):
    rng = np.random.default_rng(17)
    if kind == "calibrated":
        unit = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (4, 4, 27)]
        var = witness.trifocal_variety("cal", *(u / np.linalg.norm(u) for u in unit))
        source = witness.random_slice(var, rng)
        # the trace test's translated slice: nonzero constants on the target
        target = witness._shifted_slice(witness.random_slice(var, rng), 1.0)
    else:
        var = cubic_variety()  # chart None; random slices carry constants
        source, target = witness.random_slice(var, rng), witness.random_slice(var, rng)
    assert np.any(target.constants != 0)
    b, n = 6, var.param_dim
    z = rng.normal(size=(b, n)) + 1j * rng.normal(size=(b, n))
    s = rng.random(b) + 0.3j * rng.normal(size=b)
    gamma = np.exp(0.7j)
    counted, calls = _counting(var)
    hom = witness.SliceHomotopy(counted, source, target, gamma)
    ref = tracker.TwoSystemHomotopy(
        witness.sliced_square_system(var, source),
        witness.sliced_square_system(var, target),
        gamma,
    )
    for method, evaluation in (
        ("value", "image"),
        ("jacobian", "image_jacobian"),
        ("s_partial", "image"),
    ):
        before = dict(calls)
        got = getattr(hom, method)(z, s)
        want = getattr(ref, method)(z, s)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        after = dict(before, **{evaluation: before[evaluation] + 1})
        assert calls == after, method


@pytest.mark.parametrize("locus", ["cal", "01"])
def test_slice_homotopy_on_an_empty_stack(locus_setups, locus):
    # "01" has a third fixed row (the isotropy of q2) after its 10 slice rows
    var, _, _, _, _ = locus_setups[locus]
    rng = np.random.default_rng(5)
    hom = witness.SliceHomotopy(var, witness.random_slice(var, rng), witness.random_slice(var, rng))
    z, s = np.zeros((0, 13), dtype=complex), np.zeros(0)
    assert hom.value(z, s).shape == (0, 13)
    assert hom.jacobian(z, s).shape == (0, 13, 13)
    assert hom.s_partial(z, s).shape == (0, 13)


def test_random_slice_affine_has_nonzero_constants():
    var = cubic_variety()
    slc = witness.random_slice(var, np.random.default_rng(0))
    assert np.any(slc.constants != 0)


def test_random_slice_projective_has_zero_constants(circle_witness):
    var, _, _ = circle_witness
    slc = witness.random_slice(var, np.random.default_rng(0))
    assert np.all(slc.constants == 0)


# ---------------------------------------------------------------------------
# monodromy against root oracles
# ---------------------------------------------------------------------------

def test_cubic_monodromy_finds_all_three_roots(cubic_witness):
    var, slc, pts = cubic_witness
    assert pts.shape == (3, 1)
    assert_same_set(pts, cubic_oracle_roots(slc))


def test_circle_monodromy_finds_both_points(circle_witness):
    _, slc, pts = circle_witness
    assert pts.shape == (2, 1)
    assert_same_set(pts, circle_oracle_roots(slc))


def test_monodromy_rejects_bad_seed():
    var = cubic_variety()
    rng = np.random.default_rng(1)
    slc = witness.random_slice(var, rng)
    with pytest.raises(witness.WitnessError):
        witness.monodromy_populate(var, slc, np.array([[100.0 + 0j]]), rng, budget=1)


def test_monodromy_loop_returns_to_same_point_set(circle_witness):
    var, slc, pts = circle_witness
    rng = np.random.default_rng(21)
    waypoints = [slc, witness.random_slice(var, rng), witness.random_slice(var, rng), slc]
    cur = pts
    for src, dst in zip(waypoints, waypoints[1:]):
        ends = witness.move_points(var, src, dst, cur)
        assert all(e.status == tracker.SUCCESS for e in ends)
        cur = np.array([e.point for e in ends])
    assert_same_set(cur, pts)


def _two_leg_permutations(var, slc, pts, back_phase, pencils=20, seed=0):
    """For each of ``pencils`` random (mid, γ): the permutation of ``pts``
    after tracking ``slc → mid`` with γ and back with ``back_phase(γ)``."""
    rng = np.random.default_rng(seed)
    cfg = tracker.TrackerConfig()
    perms = []
    for _ in range(pencils):
        mid = witness.random_slice(var, rng)
        gamma = np.exp(2j * np.pi * rng.random())
        cur = pts
        for src, dst, g in ((slc, mid, gamma), (mid, slc, back_phase(gamma))):
            ends = witness.move_points(var, src, dst, cur, replace(cfg, gamma=g))
            assert all(e.status == tracker.SUCCESS for e in ends)
            cur = np.array([e.point for e in ends])
        dist, idx = witness.nearest(cur, pts)
        assert dist.max() <= 1e-8
        perms.append(tuple(idx))
    return perms


def test_same_ray_return_is_a_trivial_loop(cubic_witness):
    # back with conj(γ) retraces the outward ray of the pencil slc + λ·mid
    var, slc, pts = cubic_witness
    perms = _two_leg_permutations(var, slc, pts, np.conj)
    assert sum(p == tuple(range(len(pts))) for p in perms) >= 18


def test_opposite_ray_return_permutes_the_points(cubic_witness):
    # back with −conj(γ) takes the opposite ray: the loop encloses branch points
    var, slc, pts = cubic_witness
    perms = _two_leg_permutations(var, slc, pts, lambda g: -np.conj(g))
    assert sum(p != tuple(range(len(pts))) for p in perms) > len(perms) // 2


def _spied_cubic_loops(monkeypatch, budget=2):
    """``budget`` monodromy loops on the cubic from one seed point, with
    ``move_points`` spied on and the trace test stubbed out, so only the
    loops' legs are seen.  Returns the slice, the loops used, the
    (source, target, gamma, rows) of every move and the log lines."""
    calls, lines, real_move = [], [], witness.move_points

    def spy(var_, src, dst, batch, cfg=None, *args, **kwargs):
        calls.append((src, dst, cfg.gamma, len(batch)))
        return real_move(var_, src, dst, batch, cfg, *args, **kwargs)

    monkeypatch.setattr(witness, "move_points", spy)
    monkeypatch.setattr(
        witness, "run_trace_test", lambda *a, **k: witness.TraceResult(False, np.nan, True, "")
    )
    var = cubic_variety()
    rng = np.random.default_rng(7)
    t0 = np.array([0.3 + 0.2j])
    slc = witness.slice_through_point(var, rng, t0)
    _, _, loops = witness.monodromy_populate(
        var, slc, t0[None, :], rng, budget=budget, log=lines.append
    )
    return slc, loops, calls, lines


def _same_slice(a, b):
    a, b = witness.as_witness_slice(a), witness.as_witness_slice(b)
    return np.array_equal(a.rows, b.rows) and np.array_equal(a.constants, b.constants)


def test_monodromy_loop_is_two_legs_on_opposite_rays(monkeypatch):
    slc, loops, calls, _ = _spied_cubic_loops(monkeypatch)
    assert loops == 2 and len(calls) == 2 * loops
    for (src1, mid, gamma, _), (src2, dst2, back, _) in zip(calls[::2], calls[1::2]):
        assert _same_slice(src1, slc) and _same_slice(dst2, slc)
        assert src2 is mid and not _same_slice(mid, slc)
        assert abs(gamma) == pytest.approx(1.0)
        assert back == -np.conj(gamma)


def test_monodromy_log_counts_legs(monkeypatch):
    _, _, calls, lines = _spied_cubic_loops(monkeypatch)
    legs = [int(line.rsplit("legs=", 1)[1]) for line in lines if line.startswith("loop=")]
    rows = [n for *_, n in calls]
    assert legs == [sum(rows[:2]), sum(rows[:4])]
    assert legs[0] == 2  # one seed point, out and back


def test_monodromy_loop_whose_outbound_leg_loses_every_path(cubic_witness, monkeypatch):
    """A loop whose outbound leg fails on every path adds nothing: it logs
    ``new=0`` and leaves the point set, in order, as it was."""
    var, slc, pts = cubic_witness
    real_move, moves = witness.move_points, []

    def sabotage(*args, **kwargs):
        ends = real_move(*args, **kwargs)
        moves.append(len(ends))
        if len(moves) == 1:
            ends = [replace(e, status=tracker.DIVERGED) for e in ends]
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    monkeypatch.setattr(
        witness, "run_trace_test", lambda *a, **k: witness.TraceResult(False, np.nan, True, "")
    )
    lines = []
    grown, certified, loops = witness.monodromy_populate(
        var, slc, pts, np.random.default_rng(5), budget=1, log=lines.append
    )
    assert lines[0] == f"loop=1 points={len(pts)} new=0 legs={len(pts)}"
    assert grown.tobytes() == pts.tobytes()
    assert (certified, loops) == (False, 1)


def test_membership_residuals_flag_off_variety_points(cubic_witness):
    var, slc, pts = cubic_witness
    res = witness.membership_residuals(var, slc, pts)
    assert res.max() <= 1e-9
    res_bad = witness.membership_residuals(var, slc, pts + 0.1)
    assert res_bad.min() > 1e-3


# ---------------------------------------------------------------------------
# trace test
# ---------------------------------------------------------------------------

def test_trace_passes_on_complete_cubic_set(cubic_witness):
    var, slc, pts = cubic_witness
    res = witness.run_trace_test(var, slc, pts)
    assert res.passed and not res.inconclusive
    assert res.deviation <= 1e-9


def test_trace_fails_on_proper_subset(cubic_witness):
    var, slc, pts = cubic_witness
    for keep in ([0, 1], [0, 2], [0]):
        res = witness.run_trace_test(var, slc, pts[keep])
        assert not res.passed
        assert res.deviation > 1e-2


def test_trace_passes_on_complete_circle_set(circle_witness):
    var, slc, pts = circle_witness
    res = witness.run_trace_test(var, slc, pts)
    assert res.passed and res.deviation <= 1e-9


def test_trace_single_point_line_passes():
    var = line_variety()
    rng = np.random.default_rng(13)
    t0 = np.array([0.6 + 0.3j])
    slc = witness.slice_through_point(var, rng, t0)
    res = witness.run_trace_test(var, slc, t0[None, :])
    assert res.passed
    assert res.deviation <= 1e-9


def test_trace_requires_chart_aligned_direction(circle_witness):
    # translating the slice along anything but the chart's parallel family
    # bends the centroid even for the complete point set
    var, slc, pts = circle_witness
    rng = np.random.default_rng(17)
    bad_direction = rng.normal(size=3) + 1j * rng.normal(size=3)
    res = witness.run_trace_test(var, slc, pts, direction_form=bad_direction)
    assert not res.passed
    assert res.deviation > 1e-2


def test_trace_rescues_stray_step_control_failure(cubic_witness, monkeypatch):
    # a path whose controller gave up within a whisker of its endpoint is
    # polished back by Newton and the certificate still passes
    var, slc, pts = cubic_witness
    real_move = witness.move_points

    def sabotage(*args, **kwargs):
        ends = real_move(*args, **kwargs)
        e = ends[1]
        ends[1] = tracker.TrackedEndpoint(e.point + 1e-9, "singular", 1e-7, 1.3, e.steps)
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    res = witness.run_trace_test(var, slc, pts)
    assert res.passed and not res.inconclusive
    assert "rescued 2" in res.detail  # the sabotage fires on both legs


def test_trace_retries_failed_paths_with_fresh_phase(cubic_witness, monkeypatch):
    # a failed path is re-tracked alone under a new phase before any Newton
    # polish is considered; the clean rerun recovers the exact endpoint
    var, slc, pts = cubic_witness
    real_move = witness.move_points

    def sabotage(var_, src, dst, batch, *args, **kwargs):
        ends = real_move(var_, src, dst, batch, *args, **kwargs)
        if len(ends) == pts.shape[0]:  # full leg only; retry batches are smaller
            e = ends[1]
            wrecked = np.full_like(e.point, 37.0)
            ends[1] = tracker.TrackedEndpoint(wrecked, "diverged", 1.0, np.nan, e.steps)
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    res = witness.run_trace_test(var, slc, pts, rng=np.random.default_rng(3))
    assert res.passed and not res.inconclusive
    assert "re-tracked 2" in res.detail  # one rerun per leg
    assert "rescued" not in res.detail


def test_trace_retracks_only_the_failed_paths(cubic_witness, monkeypatch):
    # the wrecked path of each leg is re-tracked alone, once, under a new phase
    var, slc, pts = cubic_witness
    real_move = witness.move_points
    batches = []

    def sabotage(var_, src, dst, batch, *args, **kwargs):
        ends = real_move(var_, src, dst, batch, *args, **kwargs)
        batches.append(len(ends))
        if len(ends) == pts.shape[0]:
            e = ends[1]
            wrecked = np.full_like(e.point, 37.0)
            ends[1] = tracker.TrackedEndpoint(wrecked, "diverged", 1.0, np.nan, e.steps)
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    res = witness.run_trace_test(var, slc, pts, rng=np.random.default_rng(3))
    assert res.passed
    assert batches == [3, 1, 3, 1]


@pytest.mark.parametrize("with_rng", [True, False])
def test_trace_reruns_a_leg_whose_endpoints_coincide(cubic_witness, monkeypatch, with_rng):
    # the first track of the first leg lands two paths on one endpoint, both
    # SUCCESS: the duplicate scan discards the leg, and with ``rng`` it is rerun
    var, slc, pts = cubic_witness
    real_move = witness.move_points
    calls = []

    def sabotage(*args, **kwargs):
        ends = real_move(*args, **kwargs)
        calls.append(len(ends))
        if len(calls) == 1:
            ends[1] = replace(ends[1], point=ends[0].point.copy())
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    rng = np.random.default_rng(3) if with_rng else None
    res = witness.run_trace_test(var, slc, pts, rng=rng)
    if with_rng:
        assert res.passed and not res.inconclusive
        assert res.detail == "re-ran 1 leg(s)"
    else:
        assert not res.passed and res.inconclusive
        assert res.detail == "2 path(s) share endpoints at s=+1 (e.g. indices [0, 1])"


def test_trace_rescue_rejects_endpoint_collision(cubic_witness, monkeypatch):
    # a path that "arrives" on a neighbour's endpoint jumped, it did not
    # stray: the separation guard must refuse to rescue it
    var, slc, pts = cubic_witness
    real_move = witness.move_points

    def sabotage(*args, **kwargs):
        ends = real_move(*args, **kwargs)
        e = ends[1]
        ends[1] = tracker.TrackedEndpoint(ends[0].point.copy(), "singular", 1e-12, 1.3, e.steps)
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    res = witness.run_trace_test(var, slc, pts)
    assert not res.passed and res.inconclusive
    assert "collides" in res.detail


def test_trace_rescue_refuses_a_long_polish(cubic_witness, monkeypatch):
    # Newton from 1e-3 off an endpoint converges back to it, but a correction
    # beyond RESCUE_STEP is a jump, not a stray step: the path stays failed
    # and the leg is inconclusive without rng to rerun it
    var, slc, pts = cubic_witness
    real_move = witness.move_points

    def sabotage(*args, **kwargs):
        ends = real_move(*args, **kwargs)
        e = ends[1]
        ends[1] = tracker.TrackedEndpoint(e.point + 1e-3, "singular", 1e-7, 1.3, e.steps)
        return ends

    monkeypatch.setattr(witness, "move_points", sabotage)
    res = witness.run_trace_test(var, slc, pts)
    assert not res.passed and res.inconclusive
    assert res.detail == "1 path(s) failed at s=+1 (singular=1)"


def test_trace_test_wrapper_matches_run(cubic_witness):
    var, slc, pts = cubic_witness
    pws = witness.PseudoWitnessSet(
        variety=var, patches={}, slc=slc, points=pts, certified=True, meta={}
    )
    res = witness.trace_test(pws)
    assert res.passed


# ---------------------------------------------------------------------------
# moving between slices
# ---------------------------------------------------------------------------

def test_move_to_same_slice_keeps_points(cubic_witness):
    var, slc, pts = cubic_witness
    pws = witness.PseudoWitnessSet(
        variety=var, patches={}, slc=slc, points=pts, certified=True, meta={}
    )
    ends = witness.move_to_slice(pws, slc)
    moved = np.array([e.point for e in ends])
    assert all(e.status == tracker.SUCCESS for e in ends)
    assert np.abs(moved - pts).max() <= 1e-10


def test_move_to_new_slice_matches_oracle(cubic_witness):
    var, slc, pts = cubic_witness
    pws = witness.PseudoWitnessSet(
        variety=var, patches={}, slc=slc, points=pts, certified=True, meta={}
    )
    target = witness.random_slice(var, np.random.default_rng(23))
    ends = witness.move_to_slice(pws, target)
    assert all(e.status == tracker.SUCCESS for e in ends)
    moved = np.array([e.point for e in ends])
    assert_same_set(moved, cubic_oracle_roots(target))


def test_move_width_chunking_matches_single_batch(cubic_witness):
    # per-path state is row-independent; only BLAS batch-shape rounding
    # (last-ulp) may differ between chunk sizes
    var, slc, pts = cubic_witness
    target = witness.random_slice(var, np.random.default_rng(41))
    whole = witness.move_points(var, slc, target, pts)
    chunked = witness.move_points(var, slc, target, pts, width=1)
    assert [e.status for e in whole] == [e.status for e in chunked]
    for a, b in zip(whole, chunked):
        assert np.abs(a.point - b.point).max() <= 1e-12
        assert a.steps == b.steps


def test_move_refuses_uncertified_witness(cubic_witness):
    var, slc, pts = cubic_witness
    pws = witness.PseudoWitnessSet(
        variety=var, patches={}, slc=slc, points=pts, certified=False, meta={}
    )
    with pytest.raises(witness.WitnessError):
        witness.move_to_slice(pws, slc)


def test_degree_requires_certification(cubic_witness):
    var, slc, pts = cubic_witness
    good = witness.PseudoWitnessSet(var, {}, slc, pts, True, {})
    bad = witness.PseudoWitnessSet(var, {}, slc, pts, False, {})
    assert witness.degree(good) == 3
    with pytest.raises(witness.WitnessError):
        witness.degree(bad)


# ---------------------------------------------------------------------------
# point merging
# ---------------------------------------------------------------------------

def test_merge_points_keeps_existing_order():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    merged = witness.merge_points(a, a[::-1] + 1e-13)
    assert np.array_equal(merged, a)


def test_merge_points_separates_at_tolerance():
    p = np.array([[1.0 + 0j, 0.0, 0.0]])
    scale = 1.0 + np.linalg.norm(p)
    far = p + np.array([[3e-8, 0, 0]]) * scale
    near = p + np.array([[3e-9, 0, 0]]) * scale
    assert witness.merge_points(p, far).shape[0] == 2
    assert witness.merge_points(p, near).shape[0] == 1


def test_merge_points_dedups_within_new_batch():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    doubled = np.vstack([a, a + 1e-12])
    assert witness.merge_points(None, doubled).shape == (3, 4)


def test_merge_points_empty_new_batch():
    a = np.ones((2, 3), dtype=complex)
    assert np.array_equal(witness.merge_points(a, np.zeros((0, 3))), a)


def _brute_nearest(rows, against):
    d = np.linalg.norm(rows[:, None, :] - against[None, :, :], axis=2)
    return d / (1.0 + np.linalg.norm(rows, axis=1))[:, None]


def test_nearest_matches_brute_force_across_blocks():
    # 1500 rows span two prefilter blocks; planted clusters put several
    # candidates under NEAR_CUT, and one pair sits far below the Gram
    # prefilter's resolution
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(1500, 3)) + 1j * rng.normal(size=(1500, 3))
    rows[1] = rows[0] + 1e-12
    rows[3] = rows[2] + 2e-6
    rows[4] = rows[2] - 3e-6
    rows[5] = rows[2] + 5e-5j
    dist, index = witness.nearest(rows)
    brute = _brute_nearest(rows, rows)
    np.fill_diagonal(brute, np.inf)
    assert np.array_equal(index, brute.argmin(axis=1))
    assert np.allclose(dist, brute.min(axis=1), rtol=1e-12, atol=0)
    assert index[0] == 1 and dist[0] < 1e-11

    against = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    against[7] = rows[9] * (1 + 1e-9)
    dist, index = witness.nearest(rows[:20], against)
    brute = _brute_nearest(rows[:20], against)
    assert np.array_equal(index, brute.argmin(axis=1))
    assert np.allclose(dist, brute.min(axis=1), rtol=1e-12, atol=0)
    assert index[9] == 7


@pytest.mark.parametrize("tol", [witness.DEDUP_TOL, 1e-6, 1e-3])
def test_nearest_and_distinct_mask_at_the_tolerance(tol):
    row = np.array([[1.0 + 2.0j, -0.5, 3.0]])
    step = np.array([[1.0, 0.0, 0.0]]) * (1.0 + np.linalg.norm(row))  # query-row scale
    inside, outside = row + 0.99 * tol * step, row + 1.01 * tol * step
    assert witness.nearest(inside, row)[0][0] <= tol
    assert witness.nearest(outside, row)[0][0] > tol
    assert witness.distinct_mask(np.vstack([row, inside]), tol).tolist() == [True, False]
    assert witness.distinct_mask(np.vstack([row, outside]), tol).tolist() == [True, True]


def test_distinct_mask_chain_keeps_first_and_far_end():
    # A~B and B~C but A and C are apart: B goes, C stays because its only
    # close earlier row was dropped
    tol = 1e-6
    a = np.array([2.0 + 0j, 0.0])
    step = np.array([0.6 * tol * (1.0 + np.linalg.norm(a)), 0.0])
    rows = np.array([a, a + step, a + 2 * step])
    assert witness.distinct_mask(rows, tol).tolist() == [True, False, True]
    assert witness.distinct_mask(rows[[1, 0, 2]], tol).tolist() == [True, False, False]


def test_nearest_without_candidates():
    one = np.array([[1.0 + 1j, 2.0]])
    dist, index = witness.nearest(one)
    assert dist.tolist() == [np.inf] and index.tolist() == [-1]
    assert witness.distinct_mask(one, 1e-8).tolist() == [True]
    dist, index = witness.nearest(np.ones((3, 2)), np.zeros((0, 2)))
    assert np.isinf(dist).all() and (index == -1).all()
    assert witness.merge_points(None, np.zeros((0, 2))).shape == (0, 2)


# ---------------------------------------------------------------------------
# the calibrated camera-triple loci
# ---------------------------------------------------------------------------

def unit_vec(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def locus_setups():
    out = {}
    for locus in witness.LOCI:
        rng = seeds.child_rng(3, "test-locus", locus)
        alpha, beta, chart = unit_vec(rng, 4), unit_vec(rng, 4), unit_vec(rng, 27)
        var = witness.trifocal_variety(locus, alpha, beta, chart)
        start = witness.random_start_params(locus, rng, alpha, beta)
        out[locus] = (var, alpha, beta, start, rng)
    return out


def test_locus_slice_row_counts(locus_setups):
    expected = {"cal": 11, "01": 10, "10": 10, "00": 9}
    for locus, (var, *_rest) in locus_setups.items():
        assert var.slice_rows_needed == expected[locus]
        assert var.fixed_count == 13 - expected[locus]


def test_rejects_unknown_locus():
    with pytest.raises(ValueError):
        witness.trifocal_variety("11", np.ones(4), np.ones(4), np.ones(27))


def test_start_params_satisfy_fixed_equations(locus_setups):
    for locus, (var, alpha, beta, start, _) in locus_setups.items():
        fixed = var.fixed_values(start[None, :])[0]
        assert np.abs(fixed).max() <= 1e-12
        assert abs(alpha @ start[0:4] - 1.0) <= 1e-12
        assert abs(beta @ start[4:8] - 1.0) <= 1e-12


def test_isotropy_only_on_requested_side(locus_setups):
    sq = lambda q: abs(np.sum(q**2))
    for locus, (_, _, _, start, _) in locus_setups.items():
        iso2, iso3 = sq(start[0:4]) <= 1e-12, sq(start[4:8]) <= 1e-12
        assert iso2 == (locus in ("01", "00"))
        assert iso3 == (locus in ("10", "00"))


def test_normalize_to_patches_fixed_point_of_fiber_action(locus_setups):
    var, alpha, beta, start, rng = locus_setups["cal"]
    lam, mu = 1.7 - 0.3j, 0.4 + 1.1j
    moved = start.copy()
    moved[0:4] *= lam
    moved[4:8] *= mu
    moved[10:13] *= (mu / lam) ** 2
    back = witness.normalize_to_patches(moved, alpha, beta)
    assert np.abs(back - start).max() <= 1e-12


def test_normalize_to_patches_rejects_patch_hyperplane():
    alpha = np.array([1.0, 0, 0, 0], dtype=complex)
    p = np.zeros(13, dtype=complex)
    p[1] = 1.0
    p[4] = 1.0
    with pytest.raises(witness.WitnessError):
        witness.normalize_to_patches(p, alpha, alpha)


def test_trifocal_sliced_system_is_square_and_consistent(locus_setups):
    for locus, (var, alpha, beta, start, rng) in locus_setups.items():
        slc = witness.slice_through_point(var, rng, start)
        sys = witness.sliced_square_system(var, slc)
        assert sys.dimension == 13
        assert sys.evaluate(start).shape == (13,)
        assert witness.membership_residuals(var, slc, start[None, :])[0] <= 1e-9
        refined = tracker.newton_refine(sys, start, tol=1e-12)
        assert refined.converged and refined.iterations <= 3


def test_trifocal_sliced_jacobian_matches_finite_differences(locus_setups):
    var, alpha, beta, start, rng = locus_setups["00"]
    slc = witness.slice_through_point(var, rng, start)
    sys = witness.sliced_square_system(var, slc)
    fd = tracker.finite_difference_jacobian(sys, start)
    assert np.abs(fd - sys.jacobian(start)).max() <= 1e-5


def test_trifocal_short_monodromy_grows_points(locus_setups):
    var, alpha, beta, start, rng = locus_setups["00"]
    slc = witness.slice_through_point(var, rng, start)
    refined = tracker.newton_refine(witness.sliced_square_system(var, slc), start, tol=1e-12)
    pts, certified, loops = witness.monodromy_populate(
        var, slc, refined.point, np.random.default_rng(5), budget=2
    )
    assert loops == 2
    assert not certified
    assert pts.shape[0] > 1
    assert witness.membership_residuals(var, slc, pts).max() <= 1e-8


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@pytest.fixture()
def small_trifocal_pws(locus_setups, tmp_path):
    var, alpha, beta, start, rng = locus_setups["cal"]
    slc = witness.slice_through_point(var, rng, start)
    pts = np.vstack([start, start * (1 + 0.5j)])
    return witness.PseudoWitnessSet(
        variety=var,
        patches={"alpha": alpha, "beta": beta},
        slc=slc,
        points=pts,
        certified=False,
        meta={"locus": "cal", "build_seed": 3, "degree": 2},
    )


def test_witness_json_round_trip(small_trifocal_pws, tmp_path):
    path = tmp_path / "w.json"
    witness.save_witness(path, small_trifocal_pws)
    loaded = witness.load_witness(path)
    assert np.array_equal(loaded.points, small_trifocal_pws.points)
    assert np.array_equal(loaded.slc.rows, small_trifocal_pws.slc.rows)
    assert np.array_equal(loaded.patches["alpha"], small_trifocal_pws.patches["alpha"])
    assert np.array_equal(loaded.variety.chart, small_trifocal_pws.variety.chart)
    assert loaded.certified == small_trifocal_pws.certified
    assert loaded.meta["locus"] == "cal"
    second = tmp_path / "w2.json"
    witness.save_witness(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_witness_json_schema_keys(small_trifocal_pws, tmp_path):
    path = tmp_path / "w.json"
    witness.save_witness(path, small_trifocal_pws)
    doc = json.loads(path.read_text())
    assert set(doc) == {"patches", "slice_rows", "slice_constants", "points", "certified", "meta"}
    assert set(doc["patches"]) == {"alpha", "beta"}
    assert doc["meta"]["degree"] == 2


def test_save_witness_requires_chart(cubic_witness, tmp_path):
    var, slc, pts = cubic_witness
    pws = witness.PseudoWitnessSet(var, {}, slc, pts, True, {})
    with pytest.raises(witness.WitnessError):
        witness.save_witness(tmp_path / "nope.json", pws)


def test_load_witness_empty_points(small_trifocal_pws, tmp_path):
    small_trifocal_pws.points = np.zeros((0, 13), dtype=complex)
    path = tmp_path / "w.json"
    witness.save_witness(path, small_trifocal_pws)
    loaded = witness.load_witness(path)
    assert loaded.points.shape == (0, 13)


def test_check_witness_reports_diagnostics(cubic_witness):
    var, slc, pts = cubic_witness
    pws = witness.PseudoWitnessSet(var, {}, slc, pts, True, {})
    report = witness.check_witness(pws)
    assert report["count"] == 3
    assert report["max_membership_residual"] <= 1e-9
    assert report["min_image_distance"] > 1e-3
    assert report["certified"]


# ---------------------------------------------------------------------------
# the calibrated build
# ---------------------------------------------------------------------------

def test_build_witness_passes_the_grow_check_and_repeats_bitwise():
    """Three loops from one seed point: every point lies on its slice, no two
    images coincide, ``meta`` describes the set, and a second build with
    the same seed gives the same bytes."""
    pws = witness.build_witness("cal", seed=1, budget=3)
    again = witness.build_witness("cal", seed=1, budget=3)
    diag = witness.check_witness(pws)
    assert diag["max_membership_residual"] <= witness.MEMBERSHIP_TOL
    assert diag["min_image_distance"] > witness.DEDUP_TOL
    assert pws.meta["loops"] == 3 and not pws.certified
    assert pws.meta["degree"] == len(pws.points)
    assert pws.points.tobytes() == again.points.tobytes()
    assert pws.meta == again.meta
