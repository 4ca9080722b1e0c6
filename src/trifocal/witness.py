"""Pseudo-witness sets for parametrized varieties.

A pseudo-witness set is the quadruple (parameter patches, parametrization,
generic slice, finite point set). This module populates the set by monodromy
loops in slice-coefficient space, certifies completeness with the trace
test, and moves certified sets to arbitrary target slices by coefficient
homotopy. Every move (monodromy legs, trace legs, the solve's move) tracks
on a ``SliceHomotopy``, which reads the source and target systems off one
evaluation of the parametrization per call. The calibrated three-camera
variety and its isotropic sub-loci are provided; the machinery itself is
generic over any parametrization, so the tests can run low-degree curve
oracles through the identical code paths.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import geometry, jsonio, seeds, tracker

DEDUP_TOL = 1e-8
TRACE_TOL = 1e-6
RESCUE_STEP = 1e-6  # largest relative Newton correction a trace rescue may make
MEMBERSHIP_TOL = 1e-9
NEAR_CUT = 1e-4  # prefilter distance below which `nearest` measures every candidate
LOCI = ("cal", "01", "10", "00")


class WitnessError(RuntimeError):
    """Witness-set precondition or certification failure."""


# ---------------------------------------------------------------------------
# slices with constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessSlice:
    """k affine-linear conditions rows @ image = constants * chart(image).

    Projective varieties keep ``constants`` at zero except while the trace
    test translates the slice; affine varieties use honest constants.
    """

    rows: np.ndarray
    constants: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=complex)
        consts = np.asarray(self.constants, dtype=complex).reshape(rows.shape[0])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "constants", consts)


def as_witness_slice(obj) -> WitnessSlice:
    if isinstance(obj, WitnessSlice):
        return obj
    rows = np.asarray(getattr(obj, "rows", obj), dtype=complex)
    return WitnessSlice(rows, np.zeros(rows.shape[0], dtype=complex))


# ---------------------------------------------------------------------------
# parametrized varieties
# ---------------------------------------------------------------------------

def _no_fixed_values(params: np.ndarray) -> np.ndarray:
    return np.zeros((params.shape[0], 0), dtype=complex)


def _no_fixed_jacobian(params: np.ndarray) -> np.ndarray:
    return np.zeros((params.shape[0], 0, params.shape[1]), dtype=complex)


@dataclass(frozen=True)
class ParametrizedVariety:
    """Batched parametrization plus the fixed (patch/isotropy) equations.

    ``image`` maps (B, n) parameter stacks to (B, m) image vectors;
    ``image_jacobian`` returns (B, m, n). ``chart`` is the dehomogenizing
    functional for projective images, or None when the image is already
    affine.
    """

    name: str
    param_dim: int
    image_dim: int
    image: Callable[[np.ndarray], np.ndarray]
    image_jacobian: Callable[[np.ndarray], np.ndarray]
    fixed_count: int = 0
    fixed_values: Callable[[np.ndarray], np.ndarray] = _no_fixed_values
    fixed_jacobian: Callable[[np.ndarray], np.ndarray] = _no_fixed_jacobian
    chart: np.ndarray | None = None

    @property
    def slice_rows_needed(self) -> int:
        return self.param_dim - self.fixed_count


def _slice_matrix(var: ParametrizedVariety, slices) -> tuple[np.ndarray, np.ndarray | None]:
    """The conditions of ``slices`` as one stacked matrix acting on the
    image, and the constants their values shift by (None on a projective
    variety).

    A slice asks rows @ f = constants * chart(f).  On a projective variety
    chart(f) = chart @ f, so its matrix is rows - constants (x) chart; on an
    affine one chart(f) = 1 and the constants shift the values."""
    if var.chart is None:
        shifts = np.concatenate([slc.constants for slc in slices])[:, None]
        return np.concatenate([slc.rows for slc in slices]), shifts
    return np.concatenate([slc.rows - np.outer(slc.constants, var.chart) for slc in slices]), None


def _sliced(var: ParametrizedVariety, mats, shifts, params, derivative: bool = False) -> list:
    """The square system {slice conditions on f} + {fixed equations} of
    every slice stacked in ``mats`` (and ``shifts``, from ``_slice_matrix``)
    at the (B, n) stack ``params``, or its Jacobian when ``derivative``.

    One evaluation f of the image (of its Jacobian) and one product with
    the stacked matrix give all of them.  The product runs on the image
    Jacobian as a (m, n * B) matrix, one BLAS call for the whole batch, so
    the systems are built batch-last: each is a new (n, B) or (n, n, B)
    array, returned as a (B, n) or (B, n, n) view that its caller may
    overwrite."""
    p = np.asarray(params, dtype=complex)
    b, n = p.shape[0], var.param_dim
    if derivative:
        # no name holds the image Jacobian, so it is freed once the product
        # is taken, before the systems are allocated
        products = mats @ var.image_jacobian(p).transpose(1, 2, 0).reshape(var.image_dim, n * b)
        products = products.reshape(mats.shape[0], n, b)
        fixed = var.fixed_jacobian(p).transpose(1, 2, 0)
    else:
        products = mats @ var.image(p).T
        if shifts is not None:
            products -= shifts
        fixed = var.fixed_values(p).T
    k = var.slice_rows_needed
    systems = []
    for lo in range(0, products.shape[0], k):
        system = np.empty((n,) + products.shape[1:], dtype=complex)
        system[:k] = products[lo : lo + k]
        system[k:] = fixed
        systems.append(system.transpose(-1, *range(system.ndim - 1)))
    return systems


def sliced_square_system(var: ParametrizedVariety, slc) -> tracker.SquareSystem:
    """The square system {slice conditions on the image} + {fixed equations}."""
    slc = as_witness_slice(slc)
    if slc.rows.shape != (var.slice_rows_needed, var.image_dim):
        raise WitnessError(
            f"slice must be {var.slice_rows_needed}x{var.image_dim} for {var.name}, "
            f"got {slc.rows.shape}"
        )
    mats, shifts = _slice_matrix(var, (slc,))

    def at(points, derivative=False):
        return _sliced(var, mats, shifts, points, derivative)[0]

    return tracker.SquareSystem(
        dimension=var.param_dim,
        evaluate=lambda z: at(np.asarray(z, dtype=complex)[None, :])[0],
        jacobian=lambda z: at(np.asarray(z, dtype=complex)[None, :], True)[0],
        description=f"{var.name} sliced",
        evaluate_batch=at,
        jacobian_batch=lambda points: at(points, True),
    )


class SliceHomotopy(tracker.TwoSystemHomotopy):
    """The homotopy from the source-sliced system to the target-sliced one.

    Both slices' matrices are stacked once, here, into one [source; target]
    matrix; each evaluation then takes one image (or image Jacobian) and
    one product with it, and ``systems`` returns the two new arrays that
    product fills."""

    def __init__(self, var: ParametrizedVariety, source, target, gamma: complex = 1.0):
        super().__init__(sliced_square_system(var, source), sliced_square_system(var, target), gamma)
        self.var = var
        pair = as_witness_slice(source), as_witness_slice(target)
        self.mats, self.shifts = _slice_matrix(var, pair)

    def systems(self, z, derivative=False):
        return tuple(_sliced(self.var, self.mats, self.shifts, z, derivative))


def random_slice(var: ParametrizedVariety, rng: np.random.Generator) -> WitnessSlice:
    k = var.slice_rows_needed
    rows = rng.normal(size=(k, var.image_dim)) + 1j * rng.normal(size=(k, var.image_dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if var.chart is not None:
        consts = np.zeros(k, dtype=complex)
    else:
        consts = rng.normal(size=k) + 1j * rng.normal(size=k)
    return WitnessSlice(rows, consts)


def slice_through_point(var: ParametrizedVariety, rng: np.random.Generator, params) -> WitnessSlice:
    """A random slice constrained to pass through the image of ``params``."""
    p = np.asarray(params, dtype=complex).reshape(1, var.param_dim)
    img = var.image(p)[0]
    slc = random_slice(var, rng)
    if var.chart is None:
        return WitnessSlice(slc.rows, slc.rows @ img)
    for _ in range(32):
        ref = rng.normal(size=var.image_dim) + 1j * rng.normal(size=var.image_dim)
        ref /= np.linalg.norm(ref)
        pivot = ref @ img
        if abs(pivot) > 1e-3 * np.linalg.norm(img):
            break
    else:
        raise WitnessError("could not find a reference functional for the through-point slice")
    rows = slc.rows - np.outer((slc.rows @ img) / pivot, ref)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return WitnessSlice(rows, slc.constants)


# ---------------------------------------------------------------------------
# the calibrated three-camera varieties
# ---------------------------------------------------------------------------

def _parse_locus(locus: str) -> tuple[bool, bool]:
    if locus not in LOCI:
        raise ValueError(f"locus must be one of {LOCI}, got {locus!r}")
    return locus in ("01", "00"), locus in ("10", "00")


def trifocal_variety(locus: str, alpha, beta, chart) -> ParametrizedVariety:
    """The tensor parametrization patched by alpha.q2 = beta.q3 = 1.

    Loci '01'/'10'/'00' additionally pin the first/second/both quaternions
    to the isotropic cone sum(q^2) = 0, trading one slice row per equation.
    """
    iso2, iso3 = _parse_locus(locus)
    alpha = np.asarray(alpha, dtype=complex).reshape(4)
    beta = np.asarray(beta, dtype=complex).reshape(4)
    chart = np.asarray(chart, dtype=complex).reshape(27)
    count = 2 + iso2 + iso3

    def fixed_values(p):
        vals = np.empty((p.shape[0], count), dtype=complex)
        vals[:, 0] = p[:, 0:4] @ alpha
        vals[:, 1] = p[:, 4:8] @ beta
        vals[:, 0:2] -= 1.0
        if iso2:
            vals[:, 2] = np.sum(p[:, 0:4] ** 2, axis=1)
        if iso3:
            vals[:, count - 1] = np.sum(p[:, 4:8] ** 2, axis=1)
        return vals

    def fixed_jacobian(p):
        b = p.shape[0]
        jac = np.zeros((b, count, 13), dtype=complex)
        jac[:, 0, 0:4] = alpha
        jac[:, 1, 4:8] = beta
        row = 2
        if iso2:
            jac[:, row, 0:4] = 2.0 * p[:, 0:4]
            row += 1
        if iso3:
            jac[:, row, 4:8] = 2.0 * p[:, 4:8]
        return jac

    return ParametrizedVariety(
        name=f"calibrated-trifocal[{locus}]",
        param_dim=13,
        image_dim=27,
        image=geometry.tensor_from_params,
        image_jacobian=geometry.tensor_jacobian_params,
        fixed_count=count,
        fixed_values=fixed_values,
        fixed_jacobian=fixed_jacobian,
        chart=chart,
    )


def normalize_to_patches(params, alpha, beta) -> np.ndarray:
    """Rescale along the two-parameter fiber so both patch equations hold.

    (q2, q3, t3) -> (l*q2, m*q3, (m/l)^2 * t3) scales the tensor by m^2 and
    leaves the projective image fixed, so any point with nonvanishing patch
    values has a unique representative on the patches.
    """
    p = np.asarray(params, dtype=complex).reshape(13).copy()
    lam = np.asarray(alpha, dtype=complex) @ p[0:4]
    mu = np.asarray(beta, dtype=complex) @ p[4:8]
    if min(abs(lam), abs(mu)) < 1e-12:
        raise WitnessError("point lies on a patch hyperplane; cannot normalize")
    p[0:4] /= lam
    p[4:8] /= mu
    p[10:13] *= (lam / mu) ** 2
    return p


def _random_isotropic_quaternion(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return np.append(v, 1j * np.sqrt(np.sum(v**2)))


def random_start_params(locus: str, rng: np.random.Generator, alpha, beta) -> np.ndarray:
    iso2, iso3 = _parse_locus(locus)
    q2 = _random_isotropic_quaternion(rng) if iso2 else rng.normal(size=4) + 1j * rng.normal(size=4)
    q3 = _random_isotropic_quaternion(rng) if iso3 else rng.normal(size=4) + 1j * rng.normal(size=4)
    rest = rng.normal(size=5) + 1j * rng.normal(size=5)
    return normalize_to_patches(np.concatenate([q2, q3, rest]), alpha, beta)


# ---------------------------------------------------------------------------
# pseudo-witness sets
# ---------------------------------------------------------------------------

@dataclass
class PseudoWitnessSet:
    variety: ParametrizedVariety
    patches: dict
    slc: WitnessSlice
    points: np.ndarray
    certified: bool
    meta: dict = field(default_factory=dict)


def degree(pws: PseudoWitnessSet) -> int:
    if not pws.certified:
        raise WitnessError("witness set is not trace-certified; degree undefined")
    return int(pws.points.shape[0])


def membership_residuals(var: ParametrizedVariety, slc, points: np.ndarray) -> np.ndarray:
    sys = sliced_square_system(var, slc)
    vals = sys.value_at(np.atleast_2d(np.asarray(points, dtype=complex)))
    return np.abs(vals).max(axis=1)


def _cross_distances(points: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """(N, B) matrix of ||p_i - c_j|| / (1 + ||p_i||) via the Gram identity.

    Cancellation makes values below ~1e-7 unreliable, so callers must treat
    this as a coarse prefilter and confirm close pairs with exact
    difference norms.
    """
    # Viewed as interleaved (re, im) reals, one real product gives
    # Re(p . conj(c)); the block is then updated in place, because it is
    # the peak memory of every near-duplicate search.
    pf = np.ascontiguousarray(points).view(float)
    cf = np.ascontiguousarray(cands).view(float)
    pn = np.einsum("ij,ij->i", pf, pf)
    cn = np.einsum("ij,ij->i", cf, cf)
    d = pf @ cf.T
    d *= -2.0
    d += pn[:, None]
    d += cn[None, :]
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    d /= 1.0 + np.sqrt(pn)[:, None]
    return d


def nearest(rows: np.ndarray, against: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row to its nearest row of ``against`` (of the other
    rows of ``rows`` when None), and that row's index.

    The distance is ``||r - a|| / (1 + ||r||)``, normalized by the query row
    ``r``.  A Gram prefilter in blocks of about 2**21 entries picks each
    row's nearest candidate, whose distance is then measured exactly; a row
    with several candidates below ``NEAR_CUT`` has all of them measured, so
    every distance under the cut is exact.  A row with no candidate (empty
    ``against``, or a single row) gets (inf, -1).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    pool = rows if against is None else np.atleast_2d(np.asarray(against, dtype=complex))
    n, m = rows.shape[0], pool.shape[0]
    dist, index = np.full(n, np.inf), np.full(n, -1)
    if m == 0 or (against is None and n < 2):
        return dist, index
    scale = 1.0 + np.linalg.norm(rows, axis=1)
    chunk = max(1, 2**21 // m)
    for lo in range(0, n, chunk):
        block = rows[lo : lo + chunk]
        cols = np.arange(block.shape[0])
        d = _cross_distances(block, pool)
        d[np.isnan(d)] = np.inf
        if against is None:
            d[cols, lo + cols] = np.inf
        best = d.argmin(axis=1)
        index[lo + cols] = best
        dist[lo + cols] = np.linalg.norm(pool[best] - block, axis=1) / scale[lo + cols]
        for j in np.where((d <= NEAR_CUT).sum(axis=1) > 1)[0]:
            near = np.where(d[j] <= NEAR_CUT)[0]
            exact = np.linalg.norm(pool[near] - block[j], axis=1) / scale[lo + j]
            index[lo + j] = near[exact.argmin()]
            dist[lo + j] = exact.min()
    return dist, index


def distinct_mask(rows: np.ndarray, tol: float) -> np.ndarray:
    """First-wins mask: a row is dropped when an earlier kept row lies within
    ``tol`` of it (distance as in ``nearest``).  Only rows with a neighbour
    within ``tol`` enter the exact loop, so a chain A~B~C with A far from C
    keeps A and C."""
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    keep = np.ones(rows.shape[0], dtype=bool)
    scale = 1.0 + np.linalg.norm(rows, axis=1)
    for j in np.where(nearest(rows)[0] <= tol)[0]:
        close = np.linalg.norm(rows[:j] - rows[j], axis=1) / scale[j] <= tol
        keep[j] = not keep[:j][close].any()
    return keep


def merge_points(existing: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Append rows of ``new`` farther than ``DEDUP_TOL`` from every existing point
    and from every earlier appended row (distance as in ``nearest``).
    Existing points keep their order and indices."""
    new = np.atleast_2d(np.asarray(new, dtype=complex))
    if existing is not None and len(existing):
        kept = np.atleast_2d(np.asarray(existing, dtype=complex))
        new = new[nearest(new, kept)[0] > DEDUP_TOL]
    else:
        kept = new[:0]
    return np.concatenate([kept, new[distinct_mask(new, DEDUP_TOL)]], axis=0)


# ---------------------------------------------------------------------------
# movement between slices
# ---------------------------------------------------------------------------

def move_points(
    var: ParametrizedVariety,
    source,
    target,
    points: np.ndarray,
    cfg: tracker.TrackerConfig | None = None,
    width: int | None = None,
) -> list[tracker.TrackedEndpoint]:
    """Track every point from the source-sliced system to the target's.

    ``tracker.track_batch`` advances the paths in chunks of ``cfg.width``
    (0: all at once) and runs one endgame over the stalled paths of every
    chunk; ``width``, when given, overrides ``cfg.width`` for this call.
    Path state is row-independent, but BLAS sums the batched products in a
    size-dependent order, so chunking moves endpoints in their last bits;
    the endgame starts each near-singular path where it entered
    ``tracker.ENDGAME_ZONE``, however deep those bits make it stall.
    """
    cfg = cfg or tracker.TrackerConfig()
    if width is not None:
        cfg = replace(cfg, width=width)
    hom = SliceHomotopy(var, source, target, cfg.gamma)
    return tracker.track_batch(hom, np.atleast_2d(np.asarray(points, dtype=complex)), cfg)


def _phased(cfg: tracker.TrackerConfig, rng: np.random.Generator | None) -> tracker.TrackerConfig:
    """``cfg`` with a random unit ``gamma`` (one draw of ``rng``); ``cfg`` without ``rng``."""
    return cfg if rng is None else replace(cfg, gamma=np.exp(2j * np.pi * rng.random()))


def move_to_slice(
    pws: PseudoWitnessSet,
    target,
    cfg: tracker.TrackerConfig | None = None,
) -> list[tracker.TrackedEndpoint]:
    if not pws.certified:
        raise WitnessError("refusing to move an uncertified witness set")
    return move_points(pws.variety, pws.slc, target, pws.points, cfg)


# ---------------------------------------------------------------------------
# trace test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceResult:
    passed: bool
    deviation: float
    inconclusive: bool
    detail: str = ""


def _shifted_slice(slc: WitnessSlice, s: float, direction_form=None) -> WitnessSlice:
    if direction_form is None:
        consts = slc.constants.copy()
        consts[0] += s
        return WitnessSlice(slc.rows, consts)
    rows = slc.rows.copy()
    rows[0] = rows[0] + s * np.asarray(direction_form, dtype=complex)
    return WitnessSlice(rows, slc.constants)


def _chart_coordinates(var: ParametrizedVariety, img: np.ndarray) -> np.ndarray:
    if var.chart is None:
        return img
    return img / (img @ var.chart)[:, None]


def _rescue(var, shifted, cand, failed) -> tuple[list[int], list[int]]:
    """Newton-polish failed endpoints in place under the guard of
    ``run_trace_test`` (separation measured by ``nearest``); returns
    (rescued indices, colliding indices)."""
    system = sliced_square_system(var, shifted)
    rescued, collided = [], []
    for i in failed:
        polish = tracker.newton_refine(system, cand[i])
        moved = np.linalg.norm(polish.point - cand[i])
        if not (
            polish.converged
            and polish.quadratic
            and moved <= RESCUE_STEP * (1.0 + np.linalg.norm(polish.point))
        ):
            continue
        if nearest(polish.point, np.delete(cand, i, axis=0))[0][0] <= DEDUP_TOL:
            collided.append(i)
            continue
        cand[i] = polish.point
        rescued.append(i)
    return rescued, collided


def run_trace_test(
    var: ParametrizedVariety,
    slc,
    points: np.ndarray,
    cfg: tracker.TrackerConfig | None = None,
    direction_form=None,
    tol: float = TRACE_TOL,
    rng: np.random.Generator | None = None,
) -> TraceResult:
    """Second difference of the sliced-set centroid under slice translation.

    The slice is translated by s = +1 and s = -1 along the affine chart
    direction (constants shift; for projective varieties this is exactly a
    parallel move in the chart where centroids are computed). The centroid
    of a complete witness set is affine-linear in s, so the second
    difference vanishes; strict subsets bend.

    When ``rng`` is given, each translation is tracked with a fresh random
    unit phase.  The shift itself is a real segment in slice space, so a
    fixed real gamma can run straight through the discriminant; a random
    phase bends the interpolation path without touching its endpoints.

    Repairs, in order, for a path that did not end in ``SUCCESS``:

    1. With ``rng``, it is re-tracked alone under fresh phases (two rounds).
    2. Whatever is still failed (every failure, without ``rng``) is
       polished by ``tracker.newton_refine`` on the translated slice's
       system.  The polished point replaces the endpoint only when Newton
       converges quadratically, the correction is at most ``RESCUE_STEP``
       times (1 + |point|), and no other endpoint of the leg lies within
       ``DEDUP_TOL`` of the point, by the relative distance of ``nearest``.
       A path that stalled a whisker short of a regular endpoint passes;
       Newton from garbage that settles on a neighbour's endpoint is
       refused.
    3. A leg with a path left failed is discarded; with ``rng`` it is rerun
       in full (three attempts in all), otherwise the test is inconclusive.

    Every assembled leg also runs the global duplicate scan (an endpoint
    whose ``nearest`` other endpoint lies within ``DEDUP_TOL``): re-tracks
    are set-faithful but the per-path matching is only locally constant in
    the phase, so a mixed assembly can hold one endpoint twice, and a
    collision discards the leg like a failure does.

    ``detail`` lists the repairs of a conclusive test: ``re-tracked N
    path(s)``, ``rescued N path(s)`` (both counted over the two legs) and
    ``re-ran N leg(s)``.  An inconclusive one names the problem of its last
    attempt, with ``collides`` when a polished point was refused for
    landing on another endpoint.
    """
    slc = as_witness_slice(slc)
    cfg = cfg or tracker.TrackerConfig()
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    centroids = {}
    retried = 0
    rescues = 0
    reruns = 0
    for s in (1.0, -1.0):
        shifted = _shifted_slice(slc, s, direction_form)
        coords = None
        problem = ""
        for _ in range(3 if rng is not None else 1):
            ends = move_points(var, slc, shifted, pts, _phased(cfg, rng))
            cand = np.array([e.point for e in ends])
            status = [e.status for e in ends]
            failed = [i for i, st in enumerate(status) if st != tracker.SUCCESS]
            rounds = 2 if rng is not None else 0
            while failed and rounds > 0:
                rounds -= 1
                redo = move_points(var, slc, shifted, pts[failed], _phased(cfg, rng))
                still = []
                for i, e in zip(failed, redo):
                    cand[i] = e.point
                    status[i] = e.status
                    if e.status == tracker.SUCCESS:
                        retried += 1
                    else:
                        still.append(i)
                failed = still
            rescued, collided = _rescue(var, shifted, cand, failed) if failed else ([], [])
            failed = [i for i in failed if i not in rescued]
            if failed:
                hist: dict[str, int] = {}
                for i in failed:
                    hist[status[i]] = hist.get(status[i], 0) + 1
                summary = " ".join(f"{k}={v}" for k, v in sorted(hist.items()))
                problem = f"{len(failed)} path(s) failed at s={s:+.0f} ({summary})"
                if collided:
                    problem += f"; polishing {len(collided)} collides with another endpoint"
                reruns += 1
                continue
            dup = np.where(nearest(cand)[0] <= DEDUP_TOL)[0].tolist()
            if dup:
                problem = (
                    f"{len(dup)} path(s) share endpoints at s={s:+.0f} "
                    f"(e.g. indices {dup[:4]})"
                )
                reruns += 1
                continue
            coords = cand
            rescues += len(rescued)
            break
        if coords is None:
            return TraceResult(False, float("nan"), True, problem)
        centroids[s] = _chart_coordinates(var, var.image(coords)).mean(axis=0)
    centroids[0.0] = _chart_coordinates(var, var.image(pts)).mean(axis=0)
    second = centroids[1.0] - 2.0 * centroids[0.0] + centroids[-1.0]
    scale = max(np.linalg.norm(centroids[s]) for s in (1.0, 0.0, -1.0))
    deviation = float(np.linalg.norm(second) / max(scale, 1e-300))
    notes = []
    if retried:
        notes.append(f"re-tracked {retried} path(s)")
    if rescues:
        notes.append(f"rescued {rescues} path(s)")
    if reruns:
        notes.append(f"re-ran {reruns} leg(s)")
    return TraceResult(deviation <= tol, deviation, False, ", ".join(notes))


def trace_test(
    pws: PseudoWitnessSet,
    cfg=None,
    tol: float = TRACE_TOL,
    rng: np.random.Generator | None = None,
) -> TraceResult:
    return run_trace_test(pws.variety, pws.slc, pws.points, cfg, tol=tol, rng=rng)


# ---------------------------------------------------------------------------
# monodromy population
# ---------------------------------------------------------------------------

def monodromy_populate(
    var: ParametrizedVariety,
    slc,
    seed_points,
    rng: np.random.Generator,
    budget: int = 64,
    cfg: tracker.TrackerConfig | None = None,
    trace_tol: float = TRACE_TOL,
    log: Callable[[str], None] | None = None,
) -> tuple[np.ndarray, bool, int]:
    """Grow the witness point set by random slice loops until the trace
    test certifies completeness or the loop budget runs out.

    Returns (points, certified, loops_used).
    """
    slc = as_witness_slice(slc)
    cfg = cfg or tracker.TrackerConfig()
    pts = merge_points(None, np.atleast_2d(np.asarray(seed_points, dtype=complex)))
    if (membership_residuals(var, slc, pts) > MEMBERSHIP_TOL).any():
        raise WitnessError("seed point does not solve the sliced system")

    certified = False
    loops = 0
    stable_since_trace = True
    for loop in range(1, budget + 1):
        loops = loop
        waypoints = [slc, random_slice(var, rng), random_slice(var, rng), slc]
        cur = pts
        for a, b in zip(waypoints, waypoints[1:]):
            ends = move_points(var, a, b, cur, _phased(cfg, rng))
            cur = np.array([e.point for e in ends if e.status == tracker.SUCCESS])
            if cur.size == 0:
                break
        before = pts.shape[0]
        if cur.size:
            pts = merge_points(pts, cur)
        grew = pts.shape[0] > before
        if log:
            log(f"loop={loop} points={pts.shape[0]} new={pts.shape[0] - before}")
        if grew:
            stable_since_trace = True
            continue
        if stable_since_trace:
            result = run_trace_test(var, slc, pts, cfg, tol=trace_tol, rng=rng)
            if log:
                log(
                    f"trace deviation={result.deviation:.3e} "
                    f"passed={result.passed} inconclusive={result.inconclusive}"
                    + (f" ({result.detail})" if result.detail else "")
                )
            if result.passed:
                certified = True
                break
            if not result.inconclusive:
                # A finite bend means points are genuinely missing: hold off
                # until a loop grows the set.  Path failures, by contrast,
                # are retried on the next stagnant loop with fresh phases.
                stable_since_trace = False
    return pts, certified, loops


# ---------------------------------------------------------------------------
# building the calibrated-variety witness sets
# ---------------------------------------------------------------------------

def build_witness(
    locus: str = "cal",
    seed: int = 0,
    budget: int = 200,
    cfg: tracker.TrackerConfig | None = None,
    trace_tol: float = TRACE_TOL,
    log: Callable[[str], None] | None = None,
) -> PseudoWitnessSet:
    """Seed, populate, and certify a pseudo-witness set for one locus."""
    rng_patch = seeds.child_rng(seed, "witness", locus, "patches")
    rng_start = seeds.child_rng(seed, "witness", locus, "start")
    rng_slice = seeds.child_rng(seed, "witness", locus, "slice")
    rng_loops = seeds.child_rng(seed, "witness", locus, "loops")

    def unit_vec(rng, n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    alpha, beta = unit_vec(rng_patch, 4), unit_vec(rng_patch, 4)
    chart = unit_vec(rng_patch, 27)
    var = trifocal_variety(locus, alpha, beta, chart)

    start = random_start_params(locus, rng_start, alpha, beta)
    slc = slice_through_point(var, rng_slice, start)
    refined = tracker.newton_refine(sliced_square_system(var, slc), start, tol=1e-12)
    if not refined.converged:
        raise WitnessError("through-point seed failed to refine on the sliced system")

    points, certified, loops = monodromy_populate(
        var, slc, refined.point, rng_loops, budget, cfg, trace_tol, log
    )
    meta = {
        "locus": locus,
        "build_seed": int(seed),
        "degree": int(points.shape[0]),
        "loops": int(loops),
        "tolerances": {
            "trace": trace_tol,
            "dedup": DEDUP_TOL,
            "membership": MEMBERSHIP_TOL,
            "endpoint": tracker.ENDPOINT_TOL,
        },
    }
    return PseudoWitnessSet(
        variety=var,
        patches={"alpha": alpha, "beta": beta},
        slc=slc,
        points=points,
        certified=certified,
        meta=meta,
    )


def check_witness(pws: PseudoWitnessSet) -> dict:
    """Membership residuals and pairwise image distinctness diagnostics."""
    res = membership_residuals(pws.variety, pws.slc, pws.points)
    imgs = _chart_coordinates(pws.variety, pws.variety.image(pws.points))
    n = imgs.shape[0]
    return {
        "count": int(n),
        "max_membership_residual": float(res.max()) if n else 0.0,
        "min_image_distance": float(np.min(nearest(imgs)[0], initial=np.inf)),
        "certified": bool(pws.certified),
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def witness_to_dict(pws: PseudoWitnessSet) -> dict:
    if pws.variety.chart is None:
        raise WitnessError("persistence is defined for chart-bearing varieties only")
    meta = dict(pws.meta)
    meta["chart"] = jsonio.to_pairs(pws.variety.chart)
    return {
        "patches": {k: jsonio.to_pairs(v) for k, v in pws.patches.items()},
        "slice_rows": jsonio.to_pairs(pws.slc.rows),
        "slice_constants": jsonio.to_pairs(pws.slc.constants),
        "points": jsonio.to_pairs(pws.points),
        "certified": bool(pws.certified),
        "meta": meta,
    }


def witness_from_dict(doc: dict) -> PseudoWitnessSet:
    meta = dict(doc["meta"])
    chart = jsonio.from_pairs(meta.pop("chart"))
    alpha = jsonio.from_pairs(doc["patches"]["alpha"])
    beta = jsonio.from_pairs(doc["patches"]["beta"])
    var = trifocal_variety(meta.get("locus", "cal"), alpha, beta, chart)
    slc = WitnessSlice(
        jsonio.from_pairs(doc["slice_rows"]), jsonio.from_pairs(doc["slice_constants"])
    )
    return PseudoWitnessSet(
        variety=var,
        patches={"alpha": alpha, "beta": beta},
        slc=slc,
        points=jsonio.from_pairs(doc["points"]).reshape(-1, var.param_dim),
        certified=bool(doc["certified"]),
        meta=meta,
    )


def save_witness(path, pws: PseudoWitnessSet) -> None:
    jsonio.dump_json(path, witness_to_dict(pws))


def load_witness(path) -> PseudoWitnessSet:
    return witness_from_dict(jsonio.parse_json(Path(path).read_bytes()))


def bundled_witness(locus: str = "cal") -> PseudoWitnessSet:
    """The certified witness set shipped with the package
    (``data/witness_<locus>.json.gz``)."""
    from importlib import resources

    ref = resources.files("trifocal.data").joinpath(f"witness_{locus}.json.gz")
    if not ref.is_file():
        raise WitnessError(f"no bundled witness for locus {locus!r}")
    return witness_from_dict(jsonio.parse_json(ref.read_bytes()))
