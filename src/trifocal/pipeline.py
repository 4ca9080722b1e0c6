"""Instance solving: witness transport plus a six-stage endpoint filter.

Solving a minimal problem means intersecting the camera-triple variety with
the instance's constraint slice. The witness set is moved to an 11-row
randomization of that slice; endpoints are then sifted — membership in the
full constraint span, physical (non-isotropic) quaternions, independent
centers, the multi-view rank conditions, epipole avoidance, dedup — and the
survivors are the solutions. One pass screens each endpoint through stages
1-5; its verdict names the first stage it fails (or ``"solution"``), and the
survivor count of every stage is read off the verdict vector, so a run can
be audited after the fact.

Stages 3-5 (centers, multi-view ranks, epipoles) are one array pass over a
record's camera stack and its instance, ``_stage_checks``, which both the
solve's ``_screen`` and ``verify_solution`` (``trifocal verify``) run.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry, jsonio, seeds, slices, tracker, witness
from .numlin import numerical_rank

MEMBERSHIP_RTOL = 1e-7
PHYSICALITY_TOL = 1e-6
SOLUTION_DEDUP_TOL = 1e-6
REAL_TOL = 1e-6
PATH_FAILURE_BUDGET = 0.01

STAGES = (
    "finite",
    "special",
    "physical",
    "independent_centers",
    "multiview",
    "epipole_clear",
    "distinct",
)

VERDICTS = (
    "path-failed",
    "outside-special",
    "nonphysical",
    "dependent-centers",
    "multiview-fail",
    "epipole-hit",
    "duplicate",
    "solution",
)


class PipelineError(RuntimeError):
    """Solving precondition or postcondition failure."""


class ReliabilityError(PipelineError):
    """Too many tracked paths failed for the counts to be trusted."""


@dataclass(frozen=True)
class FilterReport:
    """Per-stage survivor counts and the per-endpoint verdict vector."""

    total_paths: int
    stage_counts: tuple[int, ...]
    verdicts: tuple[str, ...]

    def count(self, stage: str) -> int:
        return self.stage_counts[STAGES.index(stage)]

    def __post_init__(self):
        if len(self.stage_counts) != len(STAGES):
            raise ValueError("one count per stage required")
        if any(a < b for a, b in zip(self.stage_counts, self.stage_counts[1:])):
            raise ValueError("stage counts must be weakly decreasing")

    def summary(self) -> str:
        return " -> ".join(
            f"{name}={count}" for name, count in zip(STAGES, self.stage_counts)
        )


@dataclass(frozen=True)
class SolutionRecord:
    """One solution in parameter, configuration, and tensor form."""

    params: np.ndarray
    configuration: geometry.CalibratedConfiguration
    tensor: np.ndarray
    residuals: dict
    is_real: bool


# ---------------------------------------------------------------------------
# realness
# ---------------------------------------------------------------------------

def real_normal_form(params) -> np.ndarray:
    """Scale along the fiber so a real solution has (numerically) real
    coordinates: both quaternions unit-norm with self-dot rotated onto the
    positive real axis, largest quaternion entry made real-positive, and the
    third translation carrying the induced compensating factor.
    """
    p = np.asarray(params, dtype=complex).reshape(13).copy()
    factors = []
    for lo, hi in ((0, 4), (4, 8)):
        q = p[lo:hi]
        self_dot = np.sum(q**2)
        norm = np.linalg.norm(q)
        if norm < 1e-300:
            raise PipelineError("zero quaternion has no normal form")
        scale = np.exp(-0.5j * np.angle(self_dot)) / norm
        q = q * scale
        pivot = q[int(np.argmax(np.abs(q)))]
        if pivot.real < 0:
            scale, q = -scale, -q
        p[lo:hi] = q
        factors.append(scale)
    lam, mu = factors
    p[10:13] *= (mu / lam) ** 2
    return p


def _params_are_real(params) -> bool:
    return bool(np.abs(real_normal_form(params).imag).max() <= REAL_TOL)


def classify_real(rec: SolutionRecord) -> bool:
    """True iff the configuration admits a real representative."""
    return _params_are_real(rec.params)


def conjugate_params(params) -> np.ndarray:
    """Parameter-space complex conjugation, renormalized to normal form."""
    return real_normal_form(np.conj(np.asarray(params, dtype=complex)))


# ---------------------------------------------------------------------------
# the individual filters (2-5 are shared with verify_solution)
# ---------------------------------------------------------------------------

def _physicality(params) -> bool:
    """|q . q| / |q|^2 >= ``PHYSICALITY_TOL`` for both quaternions (NaN fails)."""
    p = np.asarray(params, dtype=complex).reshape(13)
    for lo, hi in ((0, 4), (4, 8)):
        q = p[lo:hi]
        n = np.linalg.norm(q)
        if n == 0 or not abs(np.sum(q**2)) / n**2 >= PHYSICALITY_TOL:
            return False
    return True


def _stage_checks(cams, instance, abs_tol=None, epipole_tol=geometry.EPIPOLE_TOL):
    """Stages 3-5 on one record's (3, 3, 4) camera stack, as lazily
    evaluated (stage, passed) pairs in stage order: one SVD of the camera
    stack and one of its centers, one stacked rank test per correspondence
    kind, and one array of epipole clearances.  Dependent centers fail the
    later stages too; a caller that stops at the first failure skips their
    work.  ``instance`` (here, in ``_screen`` and in ``verify_solution``)
    is the correspondences or their ``geometry.CorrespondenceStack``."""
    try:
        centers = geometry.camera_centers(cams)
    except geometry.DegenerateCameraError:
        centers = None
    independent = centers is not None and numerical_rank(centers.T) == 3
    yield "independent_centers", independent
    stack = geometry.CorrespondenceStack.of(instance) if independent else None
    yield "multiview", independent and geometry.multiview_passed(cams, stack, abs_tol)
    yield "epipole_clear", independent and geometry.epipoles_clear(
        cams, centers, stack, epipole_tol
    )


def _independent_centers(cams) -> bool:
    return next(_stage_checks(cams, []))[1]


def verify_solution(
    rec: SolutionRecord, instance, abs_tol=None, epipole_tol=geometry.EPIPOLE_TOL
) -> dict:
    """Standalone re-run of the physicality/centers/multiview/epipole checks.

    ``abs_tol`` switches the multi-view rank tests to absolute thresholds,
    which is how severely truncated published fixtures are checked (their
    entries carry only a couple of decimals).
    """
    verdict = {"physical": _physicality(rec.params)}
    verdict.update(_stage_checks(rec.configuration.cameras(), instance, abs_tol, epipole_tol))
    verdict["all"] = all(verdict.values())
    return verdict


# ---------------------------------------------------------------------------
# solving one instance
# ---------------------------------------------------------------------------

_dedup_mask = witness.distinct_mask


def _membership(point, norm_rows) -> float:
    """The largest |row . tensor| over the unit rows of the full constraint
    span, relative to the tensor's norm."""
    t = geometry.tensor_from_params(point)
    return float(np.abs(norm_rows @ t).max() / np.linalg.norm(t))


def _screen(point, norm_rows, instance) -> tuple[str, float]:
    """Stages 1-5 on one finite endpoint: the verdict of the first stage it
    fails, or ``"solution"``, and its membership residual."""
    rel = _membership(point, norm_rows)
    if not rel <= MEMBERSHIP_RTOL:
        return "outside-special", rel
    if not _physicality(point):
        return "nonphysical", rel
    cams = geometry.CalibratedConfiguration.from_params(point).cameras()
    for stage, passed in _stage_checks(cams, instance):
        if not passed:
            return VERDICTS[STAGES.index(stage)], rel
    return "solution", rel


def solve_instance(
    pws: witness.PseudoWitnessSet,
    instance,
    seed: int = 0,
    cfg: tracker.TrackerConfig | None = None,
    failure_budget: float = PATH_FAILURE_BUDGET,
) -> tuple[list[SolutionRecord], FilterReport]:
    """Move the witness set onto the instance's slice and filter endpoints.

    ``cfg`` carries every tracking option, the chunk width
    (``TrackerConfig.width``) included.  Endpoints that the tracker reports
    finite (``TrackedEndpoint.finite``: regular ones, and singular ones the
    endgame finished) enter stage ``finite``; every other path counts as
    failed.  Raises ReliabilityError when more than ``failure_budget`` of
    the paths fail; the caller should re-randomize and retry.

    Each endpoint's verdict names the first stage it fails (``VERDICTS``
    lists them in stage order), so the count that survives stage k is the
    number of verdicts after ``VERDICTS[k]``.
    """
    if not pws.certified:
        raise PipelineError("instance solving requires a certified witness set")
    special = slices.assemble_special_slice(instance)
    rng = seeds.child_rng(seed, "solve", special.rows.shape[0])
    randomized = slices.randomize_slice(special, rng)
    endpoints = witness.move_to_slice(pws, randomized, cfg)

    total = len(endpoints)
    failed = sum(not e.finite for e in endpoints)
    if failed > failure_budget * total:
        raise ReliabilityError(
            f"{failed}/{total} paths failed (> {failure_budget:.0%}); "
            "re-run with a fresh randomization seed"
        )

    row_norms = np.linalg.norm(special.rows, axis=1)
    norm_rows = special.rows / row_norms[:, None]
    stack = geometry.CorrespondenceStack.of(instance)
    screened = [
        _screen(e.point, norm_rows, stack) if e.finite else ("path-failed", None)
        for e in endpoints
    ]
    verdicts = [v for v, _ in screened]

    # stage 6: distinct configurations, the first in index order wins
    found = [i for i, v in enumerate(verdicts) if v == "solution"]
    if found:
        mask = _dedup_mask(np.array([endpoints[i].point for i in found]), SOLUTION_DEDUP_TOL)
        for i in np.asarray(found)[~mask]:
            verdicts[i] = "duplicate"

    records = [
        replace(
            record_from_params(endpoints[i].point),
            residuals={"endpoint": endpoints[i].residual, "membership": screened[i][1]},
        )
        for i, v in enumerate(verdicts)
        if v == "solution"
    ]
    ranks = [VERDICTS.index(v) for v in verdicts]
    counts = tuple(sum(r > k for r in ranks) for k in range(len(STAGES)))
    report = FilterReport(
        total_paths=total, stage_counts=counts, verdicts=tuple(verdicts)
    )
    return records, report


# ---------------------------------------------------------------------------
# solving a problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemRun:
    weights: slices.ProblemWeights
    degree: int
    records: list[SolutionRecord]
    report: FilterReport
    instance: list
    seed: int
    attempts: int


def solve_problem(
    pws: witness.PseudoWitnessSet,
    w: slices.ProblemWeights,
    seed: int,
    cfg: tracker.TrackerConfig | None = None,
    max_attempts: int = 3,
    instance: list | None = None,
) -> ProblemRun:
    """Solve ``instance`` (a stored instance of the problem ``w``, or None
    for a random one) and report its solution count.

    Attempt k runs ``solve_instance`` with seed ``seed + 1000 (k - 1)`` and
    ``cfg``, on the stored instance or on the random instance of that seed.
    Reliability failures retry, up to ``max_attempts`` attempts in all.
    Every computed count must be divisible by 8 (a symmetry of the solution
    sets); a count that is not is treated as a failed attempt rather than
    reported.
    """
    last_error: Exception | None = None
    for attempt in range(1, max_attempts + 1):
        attempt_seed = seed + 1000 * (attempt - 1)
        solved = instance if instance is not None else slices.random_instance(w, attempt_seed)
        try:
            records, report = solve_instance(pws, solved, seed=attempt_seed, cfg=cfg)
        except (ReliabilityError, slices.DegenerateInstanceError) as err:
            last_error = err
            continue
        degree = len(records)
        if degree % 8 != 0:
            last_error = PipelineError(
                f"count {degree} for {w.as_tuple()} is not divisible by 8; "
                "endpoints were likely lost"
            )
            continue
        return ProblemRun(
            weights=w,
            degree=degree,
            records=records,
            report=report,
            instance=solved,
            seed=seed,
            attempts=attempt,
        )
    raise PipelineError(
        f"no reliable run for {w.as_tuple()} in {max_attempts} attempts: {last_error}"
    )


# ---------------------------------------------------------------------------
# fixtures from published camera matrices
# ---------------------------------------------------------------------------

def record_from_params(params) -> SolutionRecord:
    """Build a record from a stored 13-vector, taken at face value."""
    p = np.asarray(params, dtype=complex).reshape(13)
    config = geometry.CalibratedConfiguration.from_params(p)
    return SolutionRecord(
        params=p,
        configuration=config,
        tensor=geometry.tensor_from_params(p).reshape(3, 3, 3),
        residuals={},
        is_real=_params_are_real(p),
    )


def record_from_cameras(b_cam, c_cam) -> SolutionRecord:
    """Build a record from explicit second and third camera matrices.

    The second camera is rescaled so its translation's last coordinate is 1
    (the chart every configuration here uses); the third camera's overall
    scale is free. Entries may be low-precision; downstream checks should
    then use loosened tolerances.
    """
    b = np.asarray(b_cam, dtype=complex).reshape(3, 4)
    c = np.asarray(c_cam, dtype=complex).reshape(3, 4)
    if abs(b[2, 3]) < 1e-12:
        raise PipelineError("second camera translation has vanishing last coordinate")
    b = b / b[2, 3]
    q2 = geometry.quaternion_from_rotation(b[:, :3])
    q3 = geometry.quaternion_from_rotation(c[:, :3])
    t2 = np.array([b[0, 3], b[1, 3], 1.0 + 0j])
    config = geometry.CalibratedConfiguration(q2=q2, q3=q3, t2=t2, t3=c[:, 3])
    return record_from_params(config.params)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def solution_document(run: ProblemRun, instance_meta: dict | None = None) -> dict:
    doc = {
        "problem": list(run.weights.as_tuple()),
        "seed": run.seed,
        "attempts": run.attempts,
        "degree": run.degree,
        "stage_counts": {name: c for name, c in zip(STAGES, run.report.stage_counts)},
        "total_paths": run.report.total_paths,
        "real_solutions": sum(r.is_real for r in run.records),
        "instance": slices.instance_to_dict(run.weights, run.seed, run.instance),
        "solutions": [
            {
                "params": jsonio.to_pairs(rec.params),
                "camera_matrices": {
                    "B": jsonio.to_pairs(b),
                    "C": jsonio.to_pairs(c),
                },
                "tensor": jsonio.to_pairs(rec.tensor.reshape(27)),
                "is_real": rec.is_real,
                "residuals": {
                    "endpoint": rec.residuals.get("endpoint"),
                    "membership": rec.residuals.get("membership"),
                },
            }
            for rec in run.records
            for _, b, c in [rec.configuration.cameras()]
        ],
    }
    if instance_meta:
        doc["meta"] = instance_meta
    return doc


def table_row(run: ProblemRun) -> str:
    """One TSV row: the five weights, the count, then provenance columns."""
    w = run.weights.as_tuple()
    stages = ",".join(str(c) for c in run.report.stage_counts)
    return "\t".join(
        [*(str(x) for x in w), str(run.degree), f"seed={run.seed}",
         f"attempts={run.attempts}", f"stages={stages}"]
    )
