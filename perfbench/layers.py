"""Per-layer metrics from a traced run, one entry per name in BENCHMARK.json.

Times and counts are totals per traced operation (summed over the run's
traced operations, divided by their number); shares and per-path ratios are
taken over those sums.  ``witness.load_s`` and ``witness.check_s`` are the
set-up of the traced process itself, not per operation.  A layer that a
workload does not reach reads 0 there.
"""
from __future__ import annotations

from trifocal import pipeline


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(t, ops: int, setup_times: dict) -> dict:
    """(value, unit) per metric name, from a Tracer after ``ops`` traced operations."""
    c, total, own = t.counts, t.total, t.self_time

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    m = {
        "numlin.rank_calls": (per_op(c["numlin.rank.calls"]), "count"),
        "numlin.rank_s": (per_op(total["numlin.rank"]), "s"),
    }
    for name in ("image", "jacobian"):
        m[f"geometry.{name}_calls"] = (per_op(c[f"geometry.{name}.calls"]), "count")
        m[f"geometry.{name}_rows"] = (per_op(c[f"geometry.{name}.rows"]), "count")
        m[f"geometry.{name}_s"] = (per_op(total[f"geometry.{name}"]), "s")
    m["geometry.multiview_calls"] = (per_op(c["geometry.multiview.calls"]), "count")
    m["geometry.multiview_s"] = (per_op(total["geometry.multiview"]), "s")
    m["geometry.epipole_s"] = (per_op(total["geometry.epipole"]), "s")
    m["slices.slice_s"] = (per_op(total["slices.slice"]), "s")

    paths = c["tracker.paths"]
    m["tracker.calls"] = (per_op(c["tracker.track.calls"]), "count")
    m["tracker.paths"] = (per_op(paths), "count")
    m["tracker.s"] = (per_op(total["tracker.track"]), "s")
    m["tracker.self_s"] = (per_op(own["tracker.track"]), "s")
    m["tracker.steps"] = (per_op(c["tracker.steps"]), "count")
    m["tracker.steps_per_path"] = (_ratio(c["tracker.steps"], paths), "count")
    for status in ("success", "step-limit", "singular", "diverged"):
        m["tracker." + status.replace("-", "_")] = (per_op(c[f"tracker.status.{status}"]), "count")
    m["tracker.path_fail_share"] = (_ratio(paths - c["tracker.status.success"], paths), "1")
    for what in ("value", "jacobian", "s_partial"):
        m[f"tracker.hom_{what}_rows"] = (per_op(c[f"tracker.hom_{what}.rows"]), "count")
        m[f"tracker.hom_{what}_s"] = (per_op(total[f"tracker.hom_{what}"]), "s")

    legs = c["witness.legs"]
    m["witness.legs"] = (per_op(legs), "count")
    m["witness.move_s"] = (per_op(total["witness.move"]), "s")
    m["witness.merge_calls"] = (per_op(c["witness.merge.calls"]), "count")
    m["witness.merge_rows"] = (per_op(c["witness.merge.rows"]), "count")
    m["witness.merge_s"] = (per_op(total["witness.merge"]), "s")
    m["witness.new_per_leg"] = (_ratio(c["witness.merge.new"], legs), "1")
    m["witness.trace_s"] = (per_op(total["witness.trace"]), "s")
    m["witness.trace_self_s"] = (per_op(own["witness.trace"]), "s")
    m["witness.trace_extra_paths"] = (per_op(c["witness.trace.extra_paths"]), "count")
    m["witness.load_s"] = (setup_times.get("load_s", 0.0), "s")
    m["witness.check_s"] = (setup_times.get("check_s", 0.0), "s")

    solve = total["pipeline.solve"]
    moved = t.nested["pipeline.solve", "witness.move"] + t.nested["pipeline.solve", "slices.slice"]
    m["pipeline.solve_s"] = (per_op(solve), "s")
    m["pipeline.filter_s"] = (per_op(solve - moved), "s")
    for stage in pipeline.STAGES:
        m[f"pipeline.stage.{stage}"] = (per_op(c[f"pipeline.stage.{stage}"]), "count")
    m["pipeline.yield"] = (_ratio(c["pipeline.solutions"], c["pipeline.paths"]), "1")
    m["pipeline.verify_calls"] = (per_op(c["pipeline.verify.calls"]), "count")
    m["pipeline.verify_s"] = (per_op(total["pipeline.verify"]), "s")
    return m
