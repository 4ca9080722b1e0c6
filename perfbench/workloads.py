"""The four workloads: inputs from a seed, one operation, and its output check.

Each workload drives the public function a ``trifocal`` CLI command calls:

``solve``   ``pipeline.solve_instance`` on a planted (1,4,0,0,0) instance,
            from the 4912-point fixture (``trifocal solve --instance``).
``trace``   ``witness.trace_test`` on the fixture (``trifocal trace-test``).
``grow``    ``witness.build_witness("cal", seed, budget=GROW_BUDGET)``
            (``trifocal witness`` with a fixed loop budget).
``verify``  ``pipeline.verify_solution`` on one record (``trifocal verify``);
            half the records are planted, half random.

A workload's ``__init__`` is its set-up (fixture load and verification,
input generation), ``run(i)`` is operation ``i`` and returns its output, and
``check(i, output)`` returns an empty string when the output is correct and
the reason otherwise.  ``toy=True`` shrinks every workload to seconds for
the harness self-check (``perfbench/smoke.py``); toy solve and trace run on
an 8-point subset of the fixture, so their checks are expected to fail.
"""
from __future__ import annotations

import time

import numpy as np

from trifocal import geometry, pipeline, seeds, slices, witness

import fixture

PROBLEM = slices.ProblemWeights(1, 4, 0, 0, 0)
GROW_BUDGET = 9
TOY_GROW_BUDGET = 3
VERIFY_INSTANCES = 64
TOY_VERIFY_INSTANCES = 2
TOY_FIXTURE_POINTS = 8
PLANTED_SOLVE_INPUTS = 4
RECOVERY_TOL = 1e-6


def _rebound(pws: witness.PseudoWitnessSet) -> witness.PseudoWitnessSet:
    """The same witness set on a freshly built variety.

    A variety binds the geometry functions when it is built, so each
    operation rebuilds it to run through whatever is installed now (the
    traced wrappers, or the program's own functions).
    """
    var = witness.trifocal_variety(
        pws.meta.get("locus", "cal"), pws.patches["alpha"], pws.patches["beta"], pws.variety.chart
    )
    return witness.PseudoWitnessSet(var, pws.patches, pws.slc, pws.points, pws.certified, pws.meta)


def _load_fixture(toy: bool) -> tuple[witness.PseudoWitnessSet, dict]:
    """The verified fixture, and the seconds its load and its checks took."""
    t0 = time.perf_counter()
    pws = fixture.load()
    t1 = time.perf_counter()
    if toy:
        pws = fixture.verify(fixture.subset(pws, TOY_FIXTURE_POINTS), TOY_FIXTURE_POINTS)
    else:
        pws = fixture.verify(pws)
    return pws, {"load_s": t1 - t0, "check_s": time.perf_counter() - t1}


def _planted(seed: int, i: int):
    """Real configuration ``i`` of this seed and a consistent PROBLEM instance."""
    config = geometry.random_configuration(
        seeds.child_rng(seed, "perfbench", "planted", i), real=True
    )
    return config, slices.synthetic_consistent_instance(config, PROBLEM, seed=seed * 1000 + i)


def _sub_seed(seed: int, i: int) -> int:
    return int(seeds.child_rng(seed, "perfbench", "op", i).integers(2**31))


class Solve:
    """Planted solve: 4912 paths onto a (1,4,0,0,0) slice, then the filter."""

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.pws, self.setup_times = _load_fixture(toy)
        self.expected = slices.expected_degrees()[PROBLEM.as_tuple()]
        self.inputs = [_planted(seed, i) for i in range(PLANTED_SOLVE_INPUTS)]

    def run(self, i: int):
        _, instance = self.inputs[i % len(self.inputs)]
        return pipeline.solve_instance(_rebound(self.pws), instance, seed=_sub_seed(self.seed, i))

    def check(self, i: int, output) -> str:
        return check_solve(output, self.inputs[i % len(self.inputs)][0], self.expected)


def check_solve(output, config, expected: int) -> str:
    records, _ = output
    if len(records) != expected:
        return f"{len(records)} solutions, expected {expected}"
    if len(records) % 8:
        return f"{len(records)} solutions, not divisible by 8"
    target = pipeline.real_normal_form(config.params)
    scale = 1.0 + np.linalg.norm(target)
    dist = min(np.linalg.norm(pipeline.real_normal_form(r.params) - target) for r in records)
    dist /= scale
    if not dist <= RECOVERY_TOL:
        return f"planted configuration recovered only to {dist:.1e}"
    return ""


class Trace:
    """The trace test on the fixture, as ``trifocal trace-test`` runs it."""

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.pws, self.setup_times = _load_fixture(toy)

    def run(self, i: int):
        rng = seeds.child_rng(_sub_seed(self.seed, i), "cli", "trace")
        return witness.trace_test(_rebound(self.pws), rng=rng)

    def check(self, i: int, output) -> str:
        return check_trace(output)


def check_trace(result: witness.TraceResult) -> str:
    if result.passed:
        return ""
    kind = "inconclusive" if result.inconclusive else f"deviation {result.deviation:.2e}"
    return f"trace test did not pass ({kind}; {result.detail})"


class Grow:
    """Monodromy growth of the calibrated witness set to a fixed loop budget."""

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.budget = TOY_GROW_BUDGET if toy else GROW_BUDGET

    def run(self, i: int):
        return witness.build_witness("cal", seed=_sub_seed(self.seed, i), budget=self.budget)

    def check(self, i: int, output) -> str:
        return "; ".join(fixture.point_problems(output, None))


class Verify:
    """One solution record per operation against its instance."""

    def __init__(self, seed: int, toy: bool = False):
        count = TOY_VERIFY_INSTANCES if toy else VERIFY_INSTANCES
        rng = seeds.child_rng(seed, "perfbench", "random-records")
        self.cases = []  # (record, instance, expected verdict), planted and random alternate
        for i in range(count):
            config, instance = _planted(seed, i)
            self.cases.append((pipeline.record_from_params(config.params), instance, True))
            other = geometry.random_configuration(rng, real=True)
            self.cases.append((pipeline.record_from_params(other.params), instance, False))

    def run(self, i: int):
        record, instance, _ = self.cases[i % len(self.cases)]
        return pipeline.verify_solution(record, instance)

    def check(self, i: int, output) -> str:
        return check_verdict(output, self.cases[i % len(self.cases)][2])

    def is_planted(self, ks: np.ndarray) -> np.ndarray:
        """Which of the operations ``ks`` verify a planted record."""
        return np.array([case[2] for case in self.cases])[ks % len(self.cases)]


def check_verdict(verdict: dict, planted: bool) -> str:
    if bool(verdict["all"]) != planted:
        return f"verdict {verdict} for a {'planted' if planted else 'random'} record"
    return ""


WORKLOADS = {"solve": Solve, "trace": Trace, "grow": Grow, "verify": Verify}
