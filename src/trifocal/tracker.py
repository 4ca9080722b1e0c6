"""Predictor-corrector path tracking for square polynomial systems.

The core engine follows straight-line homotopies H(z, s) from s = 1 to
s = 0 with fourth-order Runge-Kutta prediction and Newton correction,
tracking whole batches of paths in lockstep so the linear solves batch
into stacked 13x13 (or nxn) systems. Single-path entry points wrap the
same engine.

Every homotopy is a ``TwoSystemHomotopy``, gamma * s * start + (1 - s) *
target; its value and both partials read the (start, target) pair from
``systems``, the one method a subclass overrides (``witness.SliceHomotopy``
evaluates the two sliced systems together).  ``systems`` returns two new
complex arrays on every call, and only the homotopy that asked for them
writes into them: ``value``, ``jacobian`` and ``s_partial`` combine the
pair in place and return the start array, so an evaluation allocates no
temporary the size of its result.  The base class therefore copies what
its ``SquareSystem`` callables return, since those may hand out a cached
or real array; a subclass must never return an array someone else holds.

The tracker evaluates a homotopy in four places only: ``_tangent`` (the
predictor's dz/ds), ``_newton_step`` (the one Newton correction, shared by
the step corrector ``_correct`` and the endpoint polish in ``_track``),
``_residual`` (the residual an endpoint reports) and ``_cauchy_endgame``'s
test that an estimate is a root.  ``_backward_ok`` is the one
backward-error test, used by ``_track``, ``_cauchy_endgame`` and
``newton_refine``.

Every path ends in one of four statuses:

- ``SUCCESS``: it reached s = 0 and the Newton-polished endpoint passes the
  backward-error test (``_backward_ok`` at ``ENDPOINT_TOL``).
- ``SINGULAR`` with ``winding >= 1``: it stalled below ``ENDGAME_ZONE`` (or
  reached s = 0 at a point the test rejects) and the Cauchy endgame,
  started where the path entered the zone, finished it.  The endpoint is
  finite but singular; ``winding`` is the estimated cycle number and
  ``final_s`` is 0.  Where the endgame starts does not depend on how deep
  the path stalled, which rounding decides; only the stall floors the
  endgame's loop radii.
- ``SINGULAR`` with ``winding == 0``, ``STEP_LIMIT`` or ``DIVERGED``: the
  path failed; ``final_s`` is where it stopped.

``TrackedEndpoint.finite`` is true for the first two.  Callers that count
solutions (``pipeline.solve_instance``) treat finite endpoints as tracked
and charge only the failed ones against their failure budget
(``pipeline.PATH_FAILURE_BUDGET``).  Callers that need regular points
(monodromy, the trace test) accept ``SUCCESS`` only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

SUCCESS = "success"
DIVERGED = "diverged"
STEP_LIMIT = "step-limit"
SINGULAR = "singular"

_ACTIVE = "active"
_FAST_ITERS = 2  # corrections this cheap count toward growing the step
_FAST_RUN = 2  # consecutive cheap corrections before the step doubles
_ENDPOINT_ITERS = 12
_MAX_NEWTON = 4  # corrector iterations per step
_MAX_STEPS = 3000  # a path still active after this many steps ends step-limit
_DIVERGENCE_RADIUS = 1e8  # a path whose point grows past this norm ends diverged
ENDPOINT_TOL = 1e-11  # the backward-error test's tolerance

ENDGAME_ZONE = 1e-2  # a path stalled below this s gets an endgame, from where it entered
_ENDGAME_SAMPLES = 8  # Cauchy samples per winding
_ENDGAME_SHRINK = 0.25  # radius ratio between successive Cauchy loops
_ENDGAME_MIN_RADIUS = 1e-12  # loops stay above the stall point and this radius
_ENDGAME_MAX_WINDING = 8
_ENDGAME_TOL = 1e-8  # loop closure and agreement of successive estimates
_ENDGAME_REFINE = 3  # Newton polish per sample


@dataclass(frozen=True)
class SquareSystem:
    """A square polynomial system with dense Jacobian callables.

    ``evaluate``/``jacobian`` act on a single point. The optional batched
    variants take (B, n) stacks; when absent the engine falls back to a
    Python loop, which is fine for toy systems (an empty stack gives an
    empty (0, n) or (0, n, n) result).
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def value_at(self, points: np.ndarray) -> np.ndarray:
        if self.evaluate_batch is not None:
            return self.evaluate_batch(points)
        return _stack_rows(self.evaluate, points, (self.dimension,))

    def jacobian_at(self, points: np.ndarray) -> np.ndarray:
        if self.jacobian_batch is not None:
            return self.jacobian_batch(points)
        return _stack_rows(self.jacobian, points, (self.dimension, self.dimension))


def _stack_rows(f, points: np.ndarray, shape: tuple) -> np.ndarray:
    """f at each row of ``points``, stacked; (0, *shape) for no rows."""
    if len(points) == 0:
        return np.zeros((0, *shape), dtype=complex)
    return np.stack([f(p) for p in points])


@dataclass(frozen=True)
class TrackerConfig:
    """Step control, tolerances and batching for one tracking run.

    ``width`` > 0 advances at most that many paths in lockstep per chunk
    (``track_batch`` splits the batch, then runs one endgame over the
    stalled paths of all chunks); 0 tracks them all at once.  Path state is
    row-independent, but BLAS sums the batched products in an order that
    depends on the batch size, so the width moves endpoints in their last
    bits.  How deep a near-singular path stalls depends on those bits;
    where its endgame starts does not (``track_batch``).
    """

    initial_step: float = 0.05
    min_step: float = 1e-10
    max_step: float = 0.25
    newton_tol: float = 1e-9
    gamma: complex = 1.0 + 0.0j
    width: int = 0

    def __post_init__(self):
        if not (0.0 < self.min_step <= self.initial_step <= self.max_step <= 1.0):
            raise ValueError("need 0 < min_step <= initial_step <= max_step <= 1")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if abs(abs(complex(self.gamma)) - 1.0) > 1e-8:
            raise ValueError("gamma must lie on the unit circle")
        if self.width < 0:
            raise ValueError("width must be >= 0")


@dataclass(frozen=True)
class TrackedEndpoint:
    """Where one path ended (statuses in the module docstring).

    ``winding`` is the endgame's cycle-number estimate: 1 for a regular
    ``SUCCESS`` endpoint, the number of loops around s = 0 for an endpoint
    the endgame finished, 0 for a failed path.  ``final_s`` is the
    homotopy parameter at which tracking stopped (0 unless the path failed).
    """

    point: np.ndarray
    status: str
    residual: float
    contraction: float
    steps: int
    winding: int = 0
    final_s: float = 0.0

    @property
    def finite(self) -> bool:
        """A regular endpoint, or a singular one the endgame finished."""
        return self.status == SUCCESS or (self.status == SINGULAR and self.winding > 0)


class TwoSystemHomotopy:
    """gamma * s * start(z) + (1 - s) * target(z)."""

    def __init__(self, start: SquareSystem, target: SquareSystem, gamma: complex = 1.0):
        if start.dimension != target.dimension:
            raise ValueError("start and target systems have different dimensions")
        self.start = start
        self.target = target
        self.gamma = complex(gamma)
        self.dimension = start.dimension

    def systems(self, z: np.ndarray, derivative: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(start, target) values at the (B, n) stack ``z``, or Jacobians,
        as two new complex arrays that the caller may overwrite."""
        if derivative:
            pair = self.start.jacobian_at(z), self.target.jacobian_at(z)
        else:
            pair = self.start.value_at(z), self.target.value_at(z)
        return tuple(np.array(a, dtype=complex) for a in pair)

    def _combined(self, z, a, b, derivative: bool = False):
        """a * start + b * target, formed in the start array."""
        start, target = self.systems(z, derivative)
        start *= a
        target *= b
        start += target
        return start

    def value(self, z, s):
        c = s[..., None]
        return self._combined(z, self.gamma * c, 1.0 - c)

    def jacobian(self, z, s):
        c = s[..., None, None]
        return self._combined(z, self.gamma * c, 1.0 - c, derivative=True)

    def s_partial(self, z, s):
        return self._combined(z, self.gamma, -1.0)


def _solve_rows(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve; rows that hit an exactly singular matrix come
    back as NaN instead of raising, so one bad path cannot stall a batch."""
    try:
        out = np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan, dtype=rhs.dtype)
        for i in range(mats.shape[0]):
            try:
                out[i] = np.linalg.solve(mats[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    return out


def _tangent(hom: TwoSystemHomotopy, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """dz/ds = -H_z^{-1} H_s."""
    return -_solve_rows(hom.jacobian(z, s), hom.s_partial(z, s))


def _newton_step(hom: TwoSystemHomotopy, z: np.ndarray, s: np.ndarray):
    """One Newton correction per row at fixed s: (dz, bad, H_z).

    ``dz = -H_z^{-1} H``; rows whose solve is not finite are flagged
    ``bad`` and get a zero correction.
    """
    res = hom.value(z, s)
    jac = hom.jacobian(z, s)
    dz = _solve_rows(jac, -res)
    bad = ~np.all(np.isfinite(dz.view(float)), axis=1)
    return np.where(bad[:, None], 0.0, dz), bad, jac


def _backward_ok(residual, jac, tol: float):
    """The backward-error test ``|H| <= tol * (1 + |H_z|_inf)``, row by row."""
    return residual <= tol * (1.0 + np.abs(jac).sum(axis=-1).max(axis=-1))


def _residual(hom: TwoSystemHomotopy, z: np.ndarray, s) -> np.ndarray:
    """max |H(z, s)| per row: the residual every endpoint reports."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(hom.value(z, s)).max(axis=1)


def _rk4_predict(hom: TwoSystemHomotopy, z, s, ds):
    """One RK4 step of dz/ds from s to s + ds. Returns (z_pred, finite_mask)."""
    k1 = _tangent(hom, z, s)
    k2 = _tangent(hom, z + 0.5 * ds[:, None] * k1, s + 0.5 * ds)
    k3 = _tangent(hom, z + 0.5 * ds[:, None] * k2, s + 0.5 * ds)
    k4 = _tangent(hom, z + ds[:, None] * k3, s + ds)
    zp = z + (ds[:, None] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ok = np.all(np.isfinite(zp.view(float)), axis=1)
    return np.where(ok[:, None], zp, z), ok


def _correct(hom: TwoSystemHomotopy, z, s, tol):
    """Newton-correct each row at its fixed s, dropping rows as they settle.

    Returns (z, the iteration at which each row converged or 0, solve-failed
    mask).  Only converged rows carry a meaningful z.
    """
    iters = np.zeros(z.shape[0], dtype=int)
    failed = np.zeros(z.shape[0], dtype=bool)
    for it in range(1, _MAX_NEWTON + 1):
        live = np.flatnonzero((iters == 0) & ~failed)
        if live.size == 0:
            break
        dz, bad = _newton_step(hom, z[live], s[live])[:2]  # H_z must not outlive the step
        znew = z[live] + dz
        z[live] = znew
        good = np.linalg.norm(dz, axis=1) <= tol * (1.0 + np.linalg.norm(znew, axis=1))
        iters[live[good & ~bad]] = it
        failed[live[bad]] = True
    return z, iters, failed


@dataclass
class _Legs:
    """Per-row state of one batched tracking run (see ``_track``)."""

    z: np.ndarray
    t: np.ndarray
    status: np.ndarray
    steps: np.ndarray
    residual: np.ndarray
    contraction: np.ndarray
    zone_z: np.ndarray
    zone_t: np.ndarray


def _track(
    hom: TwoSystemHomotopy,
    starts: np.ndarray,
    cfg: TrackerConfig,
    base: np.ndarray | None = None,
    span: np.ndarray | None = None,
    refine_iters: int = _ENDPOINT_ITERS,
) -> _Legs:
    """Advance every row from path time t = 1 to t = 0 in lockstep.

    Row i sits at homotopy parameter s = base[i] + t * span[i], a straight
    segment of the complex s-plane; with ``base``/``span`` omitted that is
    s = t, the ordinary run from s = 1 to s = 0.  Rows that arrive are
    Newton-refined at t = 0 and succeed when they pass the backward-error
    test ``_backward_ok`` at ``ENDPOINT_TOL``.  The run also keeps, per
    row, the first accepted point with t <= ``ENDGAME_ZONE`` and its t
    (``zone_z``, ``zone_t``; the start point and t = 1 for a row that never
    got there): the point where the path entered the endgame zone, from
    which ``track_batch`` starts the endgame.
    """
    z = np.array(starts, dtype=complex)
    nb = z.shape[0]

    def s_at(rows, tt):
        return tt if base is None else base[rows] + tt * span[rows]

    t = np.ones(nb)
    h = np.full(nb, cfg.initial_step)
    fast = np.zeros(nb, dtype=int)
    steps = np.zeros(nb, dtype=int)
    status = np.array([_ACTIVE] * nb, dtype=object)
    zone_z, zone_t = z.copy(), t.copy()

    while True:
        act = np.flatnonzero((status == _ACTIVE) & (t > 0.0))
        if act.size == 0:
            break
        hit_limit = act[steps[act] >= _MAX_STEPS]
        status[hit_limit] = STEP_LIMIT
        act = act[steps[act] < _MAX_STEPS]
        if act.size == 0:
            continue
        steps[act] += 1
        hcur = np.minimum(h[act], t[act])
        h[act] = hcur  # halving a rejected clipped step must shrink the retry
        tnew = t[act] - hcur
        ds = -hcur if span is None else -hcur * span[act]

        zp, pred_ok = _rk4_predict(hom, z[act], s_at(act, t[act]), ds)
        zc, iters, solvefail = _correct(hom, zp, s_at(act, tnew), cfg.newton_tol)
        accepted = pred_ok & (iters > 0)

        ia = act[accepted]
        z[ia] = zc[accepted]
        t[ia] = tnew[accepted]
        fast[ia] = np.where(iters[accepted] <= _FAST_ITERS, fast[ia] + 1, 0)
        grow = ia[fast[ia] >= _FAST_RUN]
        h[grow] = np.minimum(h[grow] * 2.0, cfg.max_step)
        fast[grow] = 0
        blown = ia[np.linalg.norm(z[ia], axis=1) > _DIVERGENCE_RADIUS]
        status[blown] = DIVERGED
        entered = ia[(zone_t[ia] > ENDGAME_ZONE) & (t[ia] <= ENDGAME_ZONE)]
        zone_z[entered], zone_t[entered] = z[entered], t[entered]

        rejected = ~accepted
        ir = act[rejected]
        h[ir] = 0.5 * h[ir]
        under = h[ir] < cfg.min_step
        badsolve = (~pred_ok | solvefail)[rejected][under]
        status[ir[under]] = np.where(badsolve, SINGULAR, STEP_LIMIT)

    # refine whoever reached t = 0
    residual = np.full(nb, np.inf)
    contraction = np.full(nb, np.nan)
    done = np.flatnonzero((status == _ACTIVE) & (t <= 0.0))
    if done.size:
        zd = z[done]
        s_end = s_at(done, np.zeros(done.size))
        prev_step = np.full(done.size, np.nan)
        for _ in range(refine_iters):
            dz, _, jac = _newton_step(hom, zd, s_end)
            stepn = np.linalg.norm(dz, axis=1)  # 0 where the solve failed
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = stepn / prev_step
            moved = stepn > 0.0
            contraction[done[np.isfinite(ratio)]] = ratio[np.isfinite(ratio)]
            zd = np.where(moved[:, None], zd + dz, zd)
            prev_step = np.where(moved, stepn, prev_step)
        z[done] = zd
        residual[done] = _residual(hom, zd, s_end)
        # the last polish step barely moved the point, so its Jacobian sets
        # the scale
        with np.errstate(invalid="ignore"):
            okall = _backward_ok(residual[done], jac, ENDPOINT_TOL)
        status[done] = np.where(okall, SUCCESS, SINGULAR)

    # diagnostic residual at the final (z, s) for paths that never got there
    rest = np.flatnonzero(~np.isfinite(residual))
    if rest.size:
        residual[rest] = _residual(hom, z[rest], s_at(rest, t[rest]))
    return _Legs(z, t, status, steps, residual, contraction, zone_z, zone_t)


def _cauchy_endgame(hom: TwoSystemHomotopy, z0, r0, floor, cfg: TrackerConfig):
    """Cauchy endgame for paths that approach s = 0 along the real axis.

    Row i starts on its path at the real parameter s = r0[i].  Near a
    finite endpoint of cycle number c the path is analytic in s^(1/c), so
    going round the circle |s| = r closes up after exactly c windings and
    the mean of equally spaced samples over those windings is the endpoint
    (the trapezoid rule for the Cauchy integral).  Samples are taken at
    ``_ENDGAME_SAMPLES`` points per winding, joined by chords (all of which
    stay inside the annulus, so they continue the same branch).  The
    radius shrinks by ``_ENDGAME_SHRINK`` between loops until two
    successive estimates agree to ``_ENDGAME_TOL`` (relative), or it would
    drop below ``floor[i]``, the s at which ordinary tracking stalled (and
    never below ``_ENDGAME_MIN_RADIUS``).  A loop that has not closed after
    ``_ENDGAME_MAX_WINDING`` windings encloses other branch points; it
    gives no estimate and the radius shrinks.  A loop that closes round a
    second branch point as well averages two endpoints, and two such loops
    can agree; so an estimate counts only when it passes the backward-error
    test ``_backward_ok`` at s = 0 and ``_ENDGAME_TOL``.  A row stops when
    a chord or a shrink segment fails to track, or when it runs out of
    radius before two estimates agree.  It still finishes when its last
    estimate passes Aitken's error test: with the last two differences d'
    and d of successive estimates, d^2 / d' is within ``_ENDGAME_TOL``
    (relative; under the trapezoid rule's geometric convergence that is the
    estimate's remaining error); else it fails.

    Returns (endpoints, winding numbers, converged mask, steps taken).
    """
    m = z0.shape[0]
    z = np.array(z0, dtype=complex)
    r = np.array(r0, dtype=float)
    # try each chord in one step: the corrector still gates it, and a jump
    # to another sheet would show as a loop that fails to close or as
    # estimates that disagree
    cfg = replace(cfg, initial_step=1.0, max_step=1.0)
    nodes = np.exp(2j * np.pi * np.arange(_ENDGAME_SAMPLES + 1) / _ENDGAME_SAMPLES)
    steps = np.zeros(m, dtype=int)
    winding = np.zeros(m, dtype=int)
    estimate = np.full_like(z, np.nan)
    last_diff = np.full(m, np.nan)  # between the last two estimates
    converged = np.zeros(m, dtype=bool)  # agreement, or Aitken's test
    live = np.ones(m, dtype=bool)

    def advance(rows, base, span):
        legs = _track(hom, z[rows], cfg, base, span, refine_iters=_ENDGAME_REFINE)
        steps[rows] += legs.steps
        ok = legs.status == SUCCESS
        z[rows[ok]] = legs.z[ok]
        live[rows[~ok]] = False
        return ok

    while live.any():
        rows = np.flatnonzero(live)
        origin = z[rows].copy()
        total = np.zeros_like(origin)
        wound = np.zeros(rows.size, dtype=int)
        looping = np.arange(rows.size)
        for turn in range(1, _ENDGAME_MAX_WINDING + 1):
            for k in range(_ENDGAME_SAMPLES):
                rr = rows[looping]
                looping = looping[
                    advance(rr, r[rr] * nodes[k + 1], r[rr] * (nodes[k] - nodes[k + 1]))
                ]
                total[looping] += z[rows[looping]]
            gap = np.linalg.norm(z[rows[looping]] - origin[looping], axis=1)
            closed = gap <= _ENDGAME_TOL * (1.0 + np.linalg.norm(origin[looping], axis=1))
            wound[looping[closed]] = turn
            looping = looping[~closed]
            if looping.size == 0:
                break
        # a loop that fails to close within the cap encloses other branch
        # points: it yields no estimate, and the radius shrinks as usual
        ok = live[rows]
        rows, total, wound, origin = rows[ok], total[ok], wound[ok], origin[ok]
        z[rows] = origin  # resume on the real axis where the loop began
        closed = wound > 0
        new = total[closed] / (wound[closed] * _ENDGAME_SAMPLES)[:, None]
        done = rows[closed]
        diff = np.linalg.norm(new - estimate[done], axis=1)
        tol = _ENDGAME_TOL * (1.0 + np.linalg.norm(new, axis=1))
        at0 = np.zeros(done.size)
        root = _backward_ok(_residual(hom, new, at0), hom.jacobian(new, at0), _ENDGAME_TOL)
        agree = root & (winding[done] > 0) & (diff <= tol)
        aitken = root & (diff * diff <= last_diff[done] * tol)
        converged[done], last_diff[done] = agree | aitken, diff
        estimate[done], winding[done] = new, wound[closed]
        live[done[agree]] = False
        rows = rows[live[rows]]
        inner = r[rows] * _ENDGAME_SHRINK
        too_deep = inner < np.maximum(floor[rows], _ENDGAME_MIN_RADIUS)
        live[rows[too_deep]] = False
        rows, inner = rows[~too_deep], inner[~too_deep]
        if rows.size:
            advance(rows, inner.astype(complex), (r[rows] - inner).astype(complex))
            r[rows] = inner
    return estimate, winding, converged, steps


def track_batch(hom: TwoSystemHomotopy, starts: np.ndarray, cfg: TrackerConfig) -> list[TrackedEndpoint]:
    """Track every row of ``starts`` from s = 1 to s = 0.

    Rows advance in lockstep, in chunks of ``cfg.width`` rows (0: all of
    them at once).  Paths that stop short of s = 0 below ``ENDGAME_ZONE``
    (or arrive there at a point the backward-error test rejects) are then
    handed, from every chunk together, to one Cauchy endgame, which starts
    from the point where the path entered the zone (its first accepted
    point with s <= ``ENDGAME_ZONE``), however deep it later stalled; the
    ones it finishes come back as finite ``SINGULAR`` endpoints carrying
    their winding number.
    """
    width = cfg.width or max(1, len(starts))
    chunks = [
        _track(hom, starts[lo : lo + width], cfg) for lo in range(0, max(1, len(starts)), width)
    ]
    legs = _Legs(*(np.concatenate([getattr(c, f.name) for c in chunks]) for f in fields(_Legs)))
    status, steps = legs.status, legs.steps
    final_s = legs.t.copy()
    winding = np.where(status == SUCCESS, 1, 0)
    stalled = np.flatnonzero(
        ((status == STEP_LIMIT) | (status == SINGULAR))
        & (final_s <= ENDGAME_ZONE)
        & np.all(np.isfinite(legs.z.view(float)), axis=1)
    )
    if stalled.size:
        points, turns, ok, extra = _cauchy_endgame(
            hom, legs.zone_z[stalled], legs.zone_t[stalled], final_s[stalled], cfg
        )
        steps[stalled] += extra
        fin = stalled[ok]
        legs.z[fin] = points[ok]
        status[fin] = SINGULAR
        winding[fin] = turns[ok]
        final_s[fin] = 0.0
        legs.residual[fin] = _residual(hom, legs.z[fin], np.zeros(fin.size))

    return [
        TrackedEndpoint(
            point=legs.z[i].copy(),
            status=str(status[i]),
            residual=float(legs.residual[i]),
            contraction=float(legs.contraction[i]),
            steps=int(steps[i]),
            winding=int(winding[i]),
            final_s=float(final_s[i]),
        )
        for i in range(len(status))
    ]


def track_path(
    start_sys: SquareSystem,
    target_sys: SquareSystem,
    start_point,
    cfg: TrackerConfig | None = None,
) -> TrackedEndpoint:
    """Track one path of gamma*s*start + (1-s)*target from the given root."""
    cfg = cfg or TrackerConfig()
    hom = TwoSystemHomotopy(start_sys, target_sys, cfg.gamma)
    start = np.asarray(start_point, dtype=complex).reshape(1, start_sys.dimension)
    return track_batch(hom, start, cfg)[0]


@dataclass(frozen=True)
class NewtonResult:
    point: np.ndarray
    converged: bool
    residual: float
    iterations: int
    contraction: float
    quadratic: bool


def newton_refine(sys: SquareSystem, point, tol: float = 1e-12, max_iters: int = 20) -> NewtonResult:
    """Plain Newton iteration with contraction-rate diagnostics.

    Convergence is judged by the backward-error test ``_backward_ok`` at
    ``tol``, so that a point accurate to ``tol`` counts as converged even
    when steep equations inflate the raw residual. ``quadratic`` is False
    when successive corrections shrink by a roughly constant factor instead
    of squaring, the signature of a multiple root.
    """
    z = np.asarray(point, dtype=complex).reshape(sys.dimension)
    steps: list[float] = []
    iterations = 0
    for _ in range(max_iters):
        res = sys.evaluate(z)
        jac = sys.jacobian(z)
        if _backward_ok(np.abs(res).max(), jac, tol):
            break
        dz = _solve_rows(jac[None], -res[None])[0]
        if not np.all(np.isfinite(dz.view(float))):
            return NewtonResult(z, False, float(np.abs(res).max()), iterations, np.nan, False)
        z = z + dz
        iterations += 1
        steps.append(float(np.linalg.norm(dz)))
        if steps[-1] <= 1e-17 * (1.0 + np.linalg.norm(z)):
            break
    res = sys.evaluate(z)
    residual = float(np.abs(res).max())
    converged = bool(_backward_ok(residual, sys.jacobian(z), tol))
    ratios = [b / a for a, b in zip(steps, steps[1:]) if a > 0]
    contraction = ratios[-1] if ratios else 0.0
    quadratic = contraction < 0.1
    return NewtonResult(z, converged, residual, iterations, contraction, quadratic)


def finite_difference_jacobian(sys: SquareSystem, point) -> np.ndarray:
    """Central-difference Jacobian, for validating hand-written ones."""
    z = np.asarray(point, dtype=complex).reshape(sys.dimension)
    h = 1e-7
    cols = []
    for m in range(sys.dimension):
        dz = np.zeros_like(z)
        dz[m] = h
        cols.append((sys.evaluate(z + dz) - sys.evaluate(z - dz)) / (2.0 * h))
    return np.stack(cols, axis=1)


def total_degree_solve(
    sys: SquareSystem,
    degrees,
    cfg: TrackerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> list[TrackedEndpoint]:
    """Solve a small square system from the Bezout start {z_i^d_i = r_i}."""
    cfg = cfg or TrackerConfig()
    rng = rng or np.random.default_rng(0)
    degs = [int(d) for d in degrees]
    if len(degs) != sys.dimension or any(d < 1 for d in degs):
        raise ValueError("need one positive degree per equation")
    n = sys.dimension
    r = np.exp(2j * np.pi * rng.random(n)) * (0.5 + rng.random(n))

    degs_arr = np.array(degs)
    start = SquareSystem(
        dimension=n,
        evaluate=lambda z: z**degs_arr - r,
        jacobian=lambda z: np.diag(degs_arr * z ** (degs_arr - 1)),
        description="Bezout start system",
        evaluate_batch=lambda zb: zb**degs_arr - r,
        jacobian_batch=lambda zb: (degs_arr * zb ** (degs_arr - 1))[:, :, None] * np.eye(n),
    )
    # the d-th roots of r_i: one of them times the d-th roots of unity
    roots = [r[i] ** (1.0 / d) * np.exp(2j * np.pi * np.arange(d) / d) for i, d in enumerate(degs)]
    starts = np.array([combo for combo in itertools.product(*roots)], dtype=complex)
    hom = TwoSystemHomotopy(start, sys, cfg.gamma)
    return track_batch(hom, starts, cfg)


def path_log_lines(endpoints: list[TrackedEndpoint]) -> list[str]:
    """Machine-readable per-path summaries, one line per endpoint.

    No command prints them yet; they are the per-path record that the
    planned structured run log (steps, rejections, Newton counts) will
    carry.
    """
    return [
        f"path={i}\tsteps={e.steps}\tstatus={e.status}\tresidual={e.residual:.6e}"
        for i, e in enumerate(endpoints)
    ]
