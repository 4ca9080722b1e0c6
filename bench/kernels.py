#!/usr/bin/env python3
"""Time the tracker's kernels at several batch sizes and write BENCH_kernels.json.

    python3 bench/kernels.py [--sizes 1,25,250,4912] [--repeats 7] [--out BENCH_kernels.json]

Runs from a checkout and measures the ``trifocal`` package under its
``src/``, with BLAS pinned to one thread as ``perfbench/env.py`` pins it.
The inputs are the first B points of the bundled calibrated witness set,
its slice as the source and a fixed random slice as the target of one
``witness.SliceHomotopy``, at real s in (0.05, 0.95).  Each row is the best,
over ``--repeats`` timed repeats, of the mean seconds per call; a repeat
makes enough calls to take about ``MIN_REPEAT_S`` seconds.

Rows: the tensor image and its Jacobian, the homotopy's value, Jacobian and
s-partial, the batched 13x13 solve, one RK4 predictor step and one Newton
correction.

``filter_stages`` times each stage of the solve's endpoint filter
(``pipeline._screen``) on one record: a planted real (1,4,0,0,0)
configuration, which passes every stage, against its consistent instance.
"centers" includes building the cameras from the parameters.  Every stage
reads the instance's ``CorrespondenceStack``, which a solve builds once.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import env  # noqa: E402  (pins BLAS threads before numpy loads)

env.use_repo_sources()

import numpy as np  # noqa: E402

from trifocal import geometry, pipeline, slices, tracker, witness  # noqa: E402

MIN_REPEAT_S = 0.05
SEED = 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="1,25,250,4912",
                    help="comma-separated batch sizes (at most 4912)")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_kernels.json")
    args = ap.parse_args(argv)
    args.sizes = [int(b) for b in args.sizes.split(",")]
    if args.repeats < 1 or any(not 1 <= b <= 4912 for b in args.sizes):
        ap.error("need --repeats >= 1 and every size in 1..4912")
    return args


def best_seconds(fn, repeats: int) -> float:
    """Best over ``repeats`` of the mean seconds per call of ``fn()``."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    calls = max(1, int(MIN_REPEAT_S / max(first, 1e-9)))
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def kernels(hom: witness.SliceHomotopy, z: np.ndarray, s: np.ndarray) -> dict:
    """Name -> zero-argument call, for the rows of one batch."""
    mats, rhs = hom.jacobian(z, s), hom.s_partial(z, s)
    ds = np.full(s.shape, -0.01)
    return {
        "image": lambda: geometry.tensor_from_params(z),
        "image_jacobian": lambda: geometry.tensor_jacobian_params(z),
        "hom.value": lambda: hom.value(z, s),
        "hom.jacobian": lambda: hom.jacobian(z, s),
        "hom.s_partial": lambda: hom.s_partial(z, s),
        "solve_13x13": lambda: tracker._solve_rows(mats, rhs),
        "rk4_step": lambda: tracker._rk4_predict(hom, z, s, ds),
        "newton_step": lambda: tracker._newton_step(hom, z, s),
    }


def filter_stages() -> dict:
    """Stage name -> zero-argument call, for one planted record."""
    config = geometry.random_configuration(np.random.default_rng(SEED), real=True)
    instance = slices.synthetic_consistent_instance(
        config, slices.ProblemWeights(1, 4, 0, 0, 0), seed=SEED
    )
    rows = slices.assemble_special_slice(instance).rows
    norm_rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    p = config.params
    cams = config.cameras()
    centers = geometry.camera_centers(cams)
    stack = geometry.CorrespondenceStack.of(instance)
    stages = {
        "membership": lambda: pipeline._membership(p, norm_rows) <= pipeline.MEMBERSHIP_RTOL,
        "physicality": lambda: pipeline._physicality(p),
        "centers": lambda: next(pipeline._stage_checks(
            geometry.CalibratedConfiguration.from_params(p).cameras(), stack))[1],
        "multiview": lambda: geometry.multiview_passed(cams, stack),
        "epipoles": lambda: geometry.epipoles_clear(cams, centers, stack),
    }
    failed = [name for name, fn in stages.items() if not fn()]
    if failed:
        raise RuntimeError(f"the planted record fails {failed}")
    return stages


def main(argv=None) -> int:
    args = parse_args(argv)
    pws = witness.bundled_witness("cal")
    rng = np.random.default_rng(SEED)
    target = witness.random_slice(pws.variety, rng)
    hom = witness.SliceHomotopy(pws.variety, pws.slc, target, np.exp(2j * np.pi * rng.random()))
    s_all = 0.05 + 0.9 * rng.random(pws.points.shape[0])
    rows: dict[str, dict[str, float]] = {}
    for b in args.sizes:
        z, s = pws.points[:b].copy(), s_all[:b].copy()
        for name, fn in kernels(hom, z, s).items():
            rows.setdefault(name, {})[str(b)] = best_seconds(fn, args.repeats)
    stages = {name: best_seconds(fn, args.repeats) for name, fn in filter_stages().items()}
    doc = {
        "env": env.describe(),
        "repeats": args.repeats,
        "unit": "seconds per call, best of the repeats",
        "kernels": rows,
        "filter_stages": stages,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    width = max(len(name) for name in rows)
    print(f"{'kernel':{width}s} " + " ".join(f"{'B=' + str(b):>11s}" for b in args.sizes))
    for name, by_size in rows.items():
        print(f"{name:{width}s} " + " ".join(f"{by_size[str(b)]:11.3e}" for b in args.sizes))
    print("filter stage, one record: " + ", ".join(f"{n} {t:.3e}" for n, t in stages.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
