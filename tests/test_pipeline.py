"""Tests for instance solving and the endpoint filter ladder."""
import json
import types
from importlib import resources

import numpy as np
import pytest

from trifocal import geometry, pipeline, seeds, slices, tracker, witness


def real_config(label):
    return geometry.random_configuration(seeds.child_rng(0, "pipeline", label), real=True)


def record_from_config(cfg):
    return pipeline.SolutionRecord(
        params=cfg.params,
        configuration=cfg,
        tensor=geometry.configuration_tensor(cfg),
        residuals={},
        is_real=False,
    )


def normalized_distance(p, q):
    return np.linalg.norm(p - q) / (1.0 + np.linalg.norm(q))


# ---------------------------------------------------------------------------
# realness classification
# ---------------------------------------------------------------------------

def test_real_normal_form_strips_fiber_scalings():
    p = real_config("nf").params
    lam, mu = 0.7 * np.exp(0.33j), 1.9 * np.exp(-1.2j)
    disguised = p.copy()
    disguised[0:4] *= lam
    disguised[4:8] *= mu
    disguised[10:13] *= (mu / lam) ** 2
    nf = pipeline.real_normal_form(disguised)
    assert np.abs(nf.imag).max() <= 1e-12
    assert np.abs(nf - pipeline.real_normal_form(p)).max() <= 1e-12


def test_real_normal_form_idempotent():
    p = geometry.random_configuration(seeds.child_rng(0, "nf2")).params
    nf = pipeline.real_normal_form(p)
    assert np.abs(pipeline.real_normal_form(nf) - nf).max() <= 1e-14


def test_classify_real_accepts_real_configuration():
    cfg = real_config("real")
    assert pipeline.classify_real(record_from_config(cfg))


def test_classify_real_rejects_mixed_quaternion():
    cfg = geometry.CalibratedConfiguration(
        q2=np.array([1.0, 1.0j, 0.3, 0.0]),
        q3=np.array([1.0, 0.0, 0.0, 0.0]),
        t2=np.array([0.1, 0.2, 1.0]),
        t3=np.array([0.3, 0.4, 0.5]),
    )
    assert not pipeline.classify_real(record_from_config(cfg))


def test_conjugation_is_involution_on_normal_forms():
    p = geometry.random_configuration(seeds.child_rng(0, "conj")).params
    twice = pipeline.conjugate_params(pipeline.conjugate_params(p))
    assert np.abs(twice - pipeline.real_normal_form(p)).max() <= 1e-10


# ---------------------------------------------------------------------------
# individual filters
# ---------------------------------------------------------------------------

def test_physicality_filter():
    good = real_config("phys").params
    assert pipeline._physicality(good)
    iso = good.copy()
    iso[0:4] = np.array([1.0, 1.0j, 0.0, 0.0])
    assert not pipeline._physicality(iso)
    near = good.copy()
    v = np.array([1.0, 0.9j, 1j * np.sqrt(0.19), 0.0])
    assert abs(np.sum(v**2)) < 1e-12
    near[4:8] = v + 1e-8
    assert not pipeline._physicality(near)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_physicality_refuses_non_finite_quaternions(bad):
    """A NaN or infinite quaternion is no physical rotation, in the solve's
    filter and in ``trifocal verify`` alike."""
    cfg = real_config("phys-nan")
    instance = kind_instance(cfg, "PPL")
    for lo in (0, 4):
        params = cfg.params.copy()
        params[lo + 1] = bad
        assert not pipeline._physicality(params)
        record = pipeline.record_from_params(params)
        assert not pipeline.verify_solution(record, instance)["physical"]


def test_independent_centers_detects_collinear_triple():
    cfg = real_config("centers")
    assert pipeline._independent_centers(cfg.cameras())
    # same rotation and proportional translations put all three centers on
    # one line through the first camera's center
    collinear = geometry.CalibratedConfiguration(
        q2=cfg.q2, q3=cfg.q2, t2=cfg.t2, t3=2.0 * cfg.t2
    )
    assert not pipeline._independent_centers(collinear.cameras())


def test_verify_solution_planted_configuration():
    cfg = real_config("verify")
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    instance = slices.synthetic_consistent_instance(cfg, w, seed=11)
    verdict = pipeline.verify_solution(record_from_config(cfg), instance)
    assert verdict == {
        "physical": True,
        "independent_centers": True,
        "multiview": True,
        "epipole_clear": True,
        "all": True,
    }


def test_verify_solution_flags_perturbed_quaternion():
    cfg = real_config("perturb")
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    instance = slices.synthetic_consistent_instance(cfg, w, seed=11)
    bad = cfg.params.copy()
    bad[0:4] += 1e-2 * np.linalg.norm(bad[0:4]) * np.array([1.0, -1.0, 1.0, -1.0])
    verdict = pipeline.verify_solution(
        record_from_config(geometry.CalibratedConfiguration.from_params(bad)), instance
    )
    assert not verdict["multiview"]
    assert not verdict["all"]


# ---------------------------------------------------------------------------
# verdicts of stages 3-5, pinned (verify_solution and the solve's _screen)
# ---------------------------------------------------------------------------

VERDICT_ROWS = {
    "PPP": (3, 1, 0, 0, 0),
    "PPL": (1, 4, 0, 0, 0),
    "PLP": (0, 1, 1, 0, 7),
    "LLL": (0, 0, 0, 5, 1),
    "PLL": (0, 0, 0, 0, 11),
}
PASSED = {
    "physical": True, "independent_centers": True, "multiview": True,
    "epipole_clear": True, "all": True,
}
# a random configuration breaks the multi-view ranks but keeps clear of the
# instance's epipoles; dependent centers (or none at all) fail every later stage
MULTIVIEW_FAILED = {**PASSED, "multiview": False, "all": False}
CENTERS_FAILED = {
    "physical": True, "independent_centers": False, "multiview": False,
    "epipole_clear": False, "all": False,
}
# a zero constraint row passes every endpoint through membership (stage 1),
# so _screen's verdict comes from stages 2-5
ANY_MEMBERSHIP = np.zeros((1, 27))


def kind_instance(cfg, kind, seed=5):
    """The correspondences of one kind in a consistent instance of a row."""
    w = slices.ProblemWeights(*VERDICT_ROWS[kind])
    return [c for c in slices.synthetic_consistent_instance(cfg, w, seed) if c.kind == kind]


@pytest.mark.parametrize("abs_tol", [None, 5e-2])
@pytest.mark.parametrize("kind", sorted(VERDICT_ROWS))
def test_verdicts_of_planted_and_random_records_per_kind(kind, abs_tol):
    cfg = real_config(f"verdict-{kind}")
    instance = kind_instance(cfg, kind)
    planted = pipeline.record_from_params(cfg.params)
    stray = pipeline.record_from_params(real_config(f"verdict-{kind}-other").params)
    assert pipeline.verify_solution(planted, instance, abs_tol=abs_tol) == PASSED
    assert pipeline.verify_solution(stray, instance, abs_tol=abs_tol) == MULTIVIEW_FAILED
    assert pipeline._screen(planted.params, ANY_MEMBERSHIP, instance)[0] == "solution"
    assert pipeline._screen(stray.params, ANY_MEMBERSHIP, instance)[0] == "multiview-fail"


def test_verdicts_of_collinear_centers():
    cfg = real_config("centers")
    collinear = geometry.CalibratedConfiguration(q2=cfg.q2, q3=cfg.q2, t2=cfg.t2, t3=2.0 * cfg.t2)
    instance = slices.synthetic_consistent_instance(
        collinear, slices.ProblemWeights(1, 4, 0, 0, 0), seed=3
    )
    rec = pipeline.record_from_params(collinear.params)
    assert pipeline.verify_solution(rec, instance) == CENTERS_FAILED
    rows = slices.assemble_special_slice(instance).rows
    norm_rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    assert pipeline._screen(rec.params, norm_rows, instance)[0] == "dependent-centers"


def test_verdicts_of_a_point_on_an_epipole():
    """A world point on the baseline of cameras 1 and 2 images onto an
    epipole in both: the correspondence is consistent, but not clear."""
    cfg = real_config("on-epipole")
    a, b, c = cfg.cameras()
    x = 0.4 * geometry.camera_center(a) + 0.6 * geometry.camera_center(b)
    y = x + np.array([0.1, 0.2, -0.05, 0.3])
    on_baseline = slices.Correspondence(
        kind="PPL", vectors=tuple(geometry.forward_correspondence("PPL", a, b, c, x, y))
    )
    instance = kind_instance(cfg, "PPL") + [on_baseline]
    rec = pipeline.record_from_params(cfg.params)
    for abs_tol in (None, 5e-2):
        verdict = pipeline.verify_solution(rec, instance, abs_tol=abs_tol)
        assert verdict == {**PASSED, "epipole_clear": False, "all": False}
    assert pipeline._screen(rec.params, ANY_MEMBERSHIP, instance)[0] == "epipole-hit"


def test_verdicts_of_a_nan_translation():
    cfg = real_config("nan")
    instance = kind_instance(cfg, "PPL")
    params = cfg.params.copy()
    params[11] = np.nan
    rec = pipeline.record_from_params(params)
    assert pipeline.verify_solution(rec, instance) == CENTERS_FAILED
    verdict, membership = pipeline._screen(params, ANY_MEMBERSHIP, instance)
    assert verdict == "outside-special" and np.isnan(membership)


def test_reference_solution_passes_loosened_checks():
    sol = json.loads(
        resources.files("trifocal.data").joinpath("reference_solution.json").read_text()
    )
    doc = json.loads(
        resources.files("trifocal.data").joinpath("reference_instance.json").read_text()
    )
    _, _, instance = slices.instance_from_dict(doc)
    rec = pipeline.record_from_cameras(
        np.asarray(sol["camera_matrices"]["B"], dtype=float),
        np.asarray(sol["camera_matrices"]["C"], dtype=float),
    )
    assert rec.is_real
    verdict = pipeline.verify_solution(rec, instance, abs_tol=5e-2)
    assert verdict["all"], verdict


def test_record_from_cameras_round_trips_exact_configuration():
    cfg = real_config("roundtrip")
    _, b, c = cfg.cameras()
    rec = pipeline.record_from_cameras(b, c)
    assert normalized_distance(
        pipeline.real_normal_form(rec.params), pipeline.real_normal_form(cfg.params)
    ) <= 1e-10


def test_record_from_cameras_rejects_zero_translation_chart():
    cfg = real_config("chart")
    _, b, c = cfg.cameras()
    b = b.copy()
    b[2, 3] = 0.0
    with pytest.raises(pipeline.PipelineError):
        pipeline.record_from_cameras(b, c)


# ---------------------------------------------------------------------------
# report bookkeeping
# ---------------------------------------------------------------------------

def test_filter_report_requires_weakly_decreasing_counts():
    with pytest.raises(ValueError):
        pipeline.FilterReport(total_paths=5, stage_counts=(3, 4, 3, 2, 1, 1, 1), verdicts=())
    rep = pipeline.FilterReport(total_paths=5, stage_counts=(5, 4, 3, 3, 2, 2, 1), verdicts=())
    assert rep.count("special") == 4
    assert rep.count("distinct") == 1
    assert "multiview=2" in rep.summary()


def test_dedup_mask_first_wins():
    pts = np.array([[1.0 + 0j, 0.0], [1.0 + 1e-9, 0.0], [2.0, 0.0]])
    mask = pipeline._dedup_mask(pts, 1e-6)
    assert mask.tolist() == [True, False, True]


def test_solve_requires_certified_witness():
    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (4, 4, 27)]
    var = witness.trifocal_variety("cal", vecs[0], vecs[1], vecs[2])
    pws = witness.PseudoWitnessSet(
        variety=var,
        patches={"alpha": vecs[0], "beta": vecs[1]},
        slc=witness.WitnessSlice(np.zeros((11, 27)), np.zeros(11)),
        points=np.zeros((0, 13)),
        certified=False,
        meta={},
    )
    with pytest.raises(pipeline.PipelineError):
        pipeline.solve_instance(pws, [])


def test_solve_instance_screens_each_endpoint_once(monkeypatch):
    """The filter's bookkeeping without tracking: stand-in endpoints for a
    failed path, a configuration outside the instance's span, and the planted
    solution found twice."""
    cfg = real_config("screen")
    instance = slices.synthetic_consistent_instance(
        cfg, slices.ProblemWeights(1, 4, 0, 0, 0), seed=3
    )

    def endpoint(params, status=tracker.SUCCESS):
        return tracker.TrackedEndpoint(
            point=params, status=status, residual=1e-15, contraction=0.0,
            steps=1, winding=1 if status == tracker.SUCCESS else 0,
        )

    endpoints = [
        endpoint(np.full(13, np.nan + 0j), tracker.DIVERGED),
        endpoint(real_config("stray").params),
        endpoint(cfg.params.copy()),
        endpoint(cfg.params.copy()),
    ]
    monkeypatch.setattr(witness, "move_to_slice", lambda pws, target, cfg=None: endpoints)
    stand_in = types.SimpleNamespace(certified=True)
    records, report = pipeline.solve_instance(stand_in, instance, failure_budget=1.0)
    assert report.verdicts == ("path-failed", "outside-special", "solution", "duplicate")
    assert report.stage_counts == (3, 2, 2, 2, 2, 2, 1)
    assert len(records) == 1
    assert np.array_equal(records[0].params, cfg.params)
    assert set(records[0].residuals) == {"endpoint", "membership"}
    assert records[0].residuals["membership"] <= pipeline.MEMBERSHIP_RTOL


def test_solve_problem_retries_after_reliability_failure(monkeypatch):
    w = slices.ProblemWeights(0, 1, 1, 0, 7)
    seen = []

    def fake_solve(pws, instance, seed=0, cfg=None):
        seen.append(seed)
        if len(seen) == 1:
            raise pipeline.ReliabilityError("flaky tracking")
        report = pipeline.FilterReport(total_paths=0, stage_counts=(0,) * 7, verdicts=())
        return [], report

    monkeypatch.setattr(pipeline, "solve_instance", fake_solve)
    run = pipeline.solve_problem(object(), w, seed=5)
    assert run.attempts == 2
    assert run.degree == 0
    assert len(set(seen)) == 2


def test_solve_problem_rejects_counts_not_divisible_by_eight(monkeypatch):
    w = slices.ProblemWeights(0, 1, 1, 0, 7)

    def fake_solve(pws, instance, seed=0, cfg=None):
        report = pipeline.FilterReport(total_paths=7, stage_counts=(7,) * 7, verdicts=())
        return [None] * 7, report

    monkeypatch.setattr(pipeline, "solve_instance", fake_solve)
    with pytest.raises(pipeline.PipelineError, match="divisible by 8"):
        pipeline.solve_problem(object(), w, seed=5, max_attempts=2)


def test_solve_problem_solves_a_stored_instance_on_every_attempt(monkeypatch):
    w = slices.ProblemWeights(0, 1, 1, 0, 7)
    stored = slices.random_instance(w, seed=77)
    seen = []

    def fake_solve(pws, instance, seed=0, cfg=None):
        seen.append((seed, instance))
        if len(seen) == 1:
            raise pipeline.ReliabilityError("flaky tracking")
        report = pipeline.FilterReport(total_paths=0, stage_counts=(0,) * 7, verdicts=())
        return [], report

    monkeypatch.setattr(pipeline, "solve_instance", fake_solve)
    run = pipeline.solve_problem(object(), w, seed=5, instance=stored)
    assert [seed for seed, _ in seen] == [5, 1005]
    assert all(instance is stored for _, instance in seen)
    assert (run.attempts, run.seed, run.instance) == (2, 5, stored)


def _degenerate_reference_instance():
    """The reference instance with its third correspondence repeating the
    second: codimension 10 where (1, 4, 0, 0, 0) needs 12."""
    w, _, stored = slices.load_instance(
        resources.files("trifocal.data").joinpath("reference_instance.json")
    )
    return w, stored[:2] + [stored[1]] + stored[3:]


def _counting(monkeypatch, module, name, effect=None):
    """Replace ``module.name`` by a wrapper that records each call's first
    argument and then calls ``effect`` (the original when None)."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda first, *rest: calls.append(first) or (effect or original)(first, *rest)
    )
    return calls


def test_degenerate_stored_instance_is_assembled_once(monkeypatch):
    w, instance = _degenerate_reference_instance()
    assembled = _counting(monkeypatch, slices, "assemble_special_slice")
    stand_in = types.SimpleNamespace(certified=True)
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.solve_problem(stand_in, w, seed=5, instance=instance)
    assert len(assembled) == 1
    assert str(err.value) == (
        "stored instance of (1, 4, 0, 0, 0) is degenerate: "
        "assembled slice has codimension 10, expected 12"
    )


def _lost_rank(special, rng):
    raise slices.DegenerateInstanceError("randomized slice lost rank")


@pytest.mark.parametrize("case", ["stored, slice lost rank", "random, degenerate"])
def test_solve_problem_retries_what_another_seed_may_cure(monkeypatch, case):
    w, degenerate = _degenerate_reference_instance()
    stored = None
    if case.startswith("stored"):
        stored = slices.random_instance(w, seed=3)
        failing = _counting(monkeypatch, slices, "randomize_slice", _lost_rank)
        message = "randomized slice lost rank"
    else:
        monkeypatch.setattr(slices, "random_instance", lambda w, seed: degenerate)
        failing = _counting(monkeypatch, slices, "assemble_special_slice")
        message = "assembled slice has codimension 10, expected 12"
    stand_in = types.SimpleNamespace(certified=True)
    with pytest.raises(pipeline.PipelineError) as err:
        pipeline.solve_problem(stand_in, w, seed=5, max_attempts=2, instance=stored)
    assert len(failing) == 2
    assert str(err.value) == f"no reliable run for (1, 4, 0, 0, 0) in 2 attempts: {message}"


def test_solve_instance_stacks_the_instance_once(monkeypatch):
    """Every endpoint's stages 3-5 read one CorrespondenceStack."""
    cfg = real_config("stack-once")
    instance = slices.synthetic_consistent_instance(
        cfg, slices.ProblemWeights(1, 4, 0, 0, 0), seed=3
    )
    endpoint = tracker.TrackedEndpoint(
        point=cfg.params.copy(), status=tracker.SUCCESS, residual=1e-15,
        contraction=0.0, steps=1, winding=1,
    )
    monkeypatch.setattr(witness, "move_to_slice", lambda pws, target, cfg=None: [endpoint] * 3)
    built = []
    of = geometry.CorrespondenceStack.of
    monkeypatch.setattr(
        geometry.CorrespondenceStack, "of",
        lambda corrs: built.append(corrs) or of(corrs),
    )
    pws = types.SimpleNamespace(certified=True)
    _, report = pipeline.solve_instance(pws, instance, failure_budget=1.0)
    assert report.verdicts == ("solution", "duplicate", "duplicate")
    assert sum(isinstance(c, list) for c in built) == 1


def test_solution_document_and_table_row_shape():
    cfg = real_config("doc")
    w = slices.ProblemWeights(0, 1, 1, 0, 7)
    instance = slices.synthetic_consistent_instance(cfg, w, seed=2)
    rec = record_from_config(cfg)
    report = pipeline.FilterReport(
        total_paths=8, stage_counts=(8, 8, 8, 8, 8, 8, 8), verdicts=("solution",) * 8
    )
    run = pipeline.ProblemRun(
        weights=w, degree=8, records=[rec] * 8, report=report,
        instance=instance, seed=4, attempts=1,
    )
    doc = pipeline.solution_document(run)
    assert doc["problem"] == [0, 1, 1, 0, 7]
    assert doc["degree"] == 8
    assert len(doc["solutions"]) == 8
    assert set(doc["stage_counts"]) == set(pipeline.STAGES)
    json.dumps(doc)  # must be serializable as-is
    row = pipeline.table_row(run)
    assert row.startswith("0\t1\t1\t0\t7\t8\t")
    assert "seed=4" in row and "stages=" in row


# ---------------------------------------------------------------------------
# end-to-end solve on a planted instance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cal_witness():
    return witness.bundled_witness("cal")


@pytest.fixture(scope="module")
def planted_solve(cal_witness):
    cfg = geometry.random_configuration(seeds.child_rng(77, "planted"), real=True)
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    instance = slices.synthetic_consistent_instance(cfg, w, seed=21)
    records, report = pipeline.solve_instance(cal_witness, instance, seed=33)
    return cfg, instance, records, report


def test_bundled_witness_is_certified(cal_witness):
    assert cal_witness.certified
    assert witness.degree(cal_witness) == 4912
    assert cal_witness.points.shape == (4912, 13)


def test_planted_instance_count(planted_solve):
    _, _, records, report = planted_solve
    assert report.stage_counts[0] == report.total_paths == 4912
    assert all(a >= b for a, b in zip(report.stage_counts, report.stage_counts[1:]))
    assert len(records) == 160
    assert len(records) % 8 == 0


def test_planted_solution_recovered(planted_solve):
    cfg, _, records, _ = planted_solve
    target = pipeline.real_normal_form(cfg.params)
    dists = [
        normalized_distance(pipeline.real_normal_form(rec.params), target)
        for rec in records
    ]
    assert min(dists) <= 1e-6


def test_every_solution_passes_verification(planted_solve):
    _, instance, records, _ = planted_solve
    for rec in records:
        assert pipeline.verify_solution(rec, instance)["all"]


def test_solutions_conjugate_closed_and_pairing(planted_solve):
    _, _, records, _ = planted_solve
    forms = [pipeline.real_normal_form(rec.params) for rec in records]
    non_real = 0
    for rec, form in zip(records, forms):
        conj = pipeline.conjugate_params(rec.params)
        dist = min(normalized_distance(conj, other) for other in forms)
        assert dist <= 1e-6
        if not rec.is_real:
            non_real += 1
    assert non_real % 2 == 0
    assert any(rec.is_real for rec in records)


def test_report_verdicts_account_for_every_path(planted_solve):
    _, _, records, report = planted_solve
    assert len(report.verdicts) == report.total_paths
    assert report.verdicts.count("solution") == len(records)
    assert all(v in pipeline.VERDICTS for v in report.verdicts)
    survivors = report.total_paths - report.verdicts.count("path-failed")
    assert report.stage_counts[0] == survivors


def test_solve_instance_with_no_surviving_endpoint(monkeypatch):
    """When no endpoint passes the filter, the solve has no records and its
    ladder counts only the finite paths."""
    cfg = real_config("none-survive")
    instance = slices.synthetic_consistent_instance(
        cfg, slices.ProblemWeights(1, 4, 0, 0, 0), seed=3
    )
    endpoints = [
        tracker.TrackedEndpoint(
            point=point, status=status, residual=1e-15, contraction=0.0, steps=1, winding=0,
        )
        for point, status in [
            (np.full(13, np.nan + 0j), tracker.DIVERGED),
            (real_config("stray").params, tracker.SUCCESS),
            (real_config("astray").params, tracker.SUCCESS),
        ]
    ]
    monkeypatch.setattr(witness, "move_to_slice", lambda pws, target, cfg=None: endpoints)
    stand_in = types.SimpleNamespace(certified=True)
    records, report = pipeline.solve_instance(stand_in, instance, failure_budget=1.0)
    assert records == []
    assert report.verdicts == ("path-failed", "outside-special", "outside-special")
    assert report.stage_counts == (2, 0, 0, 0, 0, 0, 0)


def test_solve_instance_refuses_a_move_that_loses_too_many_paths(monkeypatch):
    """2 failed paths of 100 exceed the 1 % budget: the solve raises a
    ReliabilityError, before any endpoint is screened, so that the caller
    re-randomizes and retries."""
    _, _, instance = slices.load_instance(
        resources.files("trifocal.data").joinpath("reference_instance.json")
    )

    def endpoint(status):
        return tracker.TrackedEndpoint(
            point=np.ones(13, dtype=complex), status=status, residual=1e-15, contraction=0.0,
            steps=1, winding=1 if status == tracker.SUCCESS else 0,
        )

    endpoints = [endpoint(tracker.SUCCESS)] * 98 + [endpoint(tracker.DIVERGED)] * 2
    monkeypatch.setattr(witness, "move_to_slice", lambda pws, target, cfg=None: endpoints)
    screened = _counting(monkeypatch, pipeline, "_screen")
    stand_in = types.SimpleNamespace(certified=True)
    with pytest.raises(pipeline.ReliabilityError) as exc:
        pipeline.solve_instance(stand_in, instance)
    assert str(exc.value) == "2/100 paths failed (> 1%); re-run with a fresh randomization seed"
    assert screened == []
