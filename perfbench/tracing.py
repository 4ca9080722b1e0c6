"""Spans and counts at the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces public functions of the ``trifocal`` modules with
wrappers that open a span around each call and add counts; ``uninstall``
puts the originals back, so untraced operations run the unmodified program.
No file under ``src/`` changes.  Spans (id, name, start, end, parent id,
operation id) are kept in memory, the first ``MAX_KEPT_SPANS`` of them, and
written out by ``write_spans`` at the end of the run; per-name totals and
self times are accumulated as spans close, so the aggregate numbers do not
depend on how many spans are kept.

A span's self time is its duration minus the durations of its direct
children.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from trifocal import geometry, numlin, pipeline, slices, tracker, witness

MAX_KEPT_SPANS = 200_000


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.dropped = 0
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.nested = defaultdict(float)  # (parent name, child name) -> duration
        self.counts = defaultdict(float)
        self.op_id: int | None = None
        self.recording = False  # wrappers pass straight through when False
        self._next_id = 0
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
            self.nested[parent[0], name] += dur
        if len(self.spans) < MAX_KEPT_SPANS:
            parent_id = parent[3] if parent is not None else None
            self.spans.append((span_id, name, start, end, parent_id, self.op_id))
        else:
            self.dropped += 1

    def call(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- wrappers ------------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.counts[f"{name}.calls"] += 1
            out = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapped

    def install(self) -> None:
        """Wrap the layer boundaries.  Install before building any variety:
        ``witness.trifocal_variety`` binds the geometry functions it uses."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        c = self.counts

        rank = self._wrap("numlin.rank", numlin.numerical_rank)
        self._patch(numlin, "numerical_rank", rank)
        self._patch(pipeline, "numerical_rank", rank)  # imported by name there

        def image_rows(args, kwargs, out):
            c["geometry.image.rows"] += _rows(out)

        def jacobian_rows(args, kwargs, out):
            c["geometry.jacobian.rows"] += out.shape[0] if out.ndim == 3 else 1

        self._patch(geometry, "tensor_from_params",
                    self._wrap("geometry.image", geometry.tensor_from_params, image_rows))
        self._patch(geometry, "tensor_jacobian_params",
                    self._wrap("geometry.jacobian", geometry.tensor_jacobian_params,
                               jacobian_rows))
        self._patch(geometry, "multiview_residual",
                    self._wrap("geometry.multiview", geometry.multiview_residual))
        self._patch(geometry, "all_epipoles",
                    self._wrap("geometry.epipole", geometry.all_epipoles))

        self._patch(slices, "assemble_special_slice",
                    self._wrap("slices.slice", slices.assemble_special_slice))
        self._patch(slices, "randomize_slice",
                    self._wrap("slices.slice", slices.randomize_slice))

        track = self._wrap("tracker.track", tracker.track_batch, self._count_endpoints)

        def track_batch(hom, starts, cfg):
            if self.recording:
                hom = _HomotopyProxy(hom, self)
            return track(hom, starts, cfg)

        self._patch(tracker, "track_batch", track_batch)

        def legs(args, kwargs, out):
            c["witness.legs"] += len(out)

        def merged(args, kwargs, out):
            existing = args[0]
            before = 0 if existing is None else len(existing)
            c["witness.merge.rows"] += _rows(args[1])
            c["witness.merge.new"] += len(out) - before

        self._patch(witness, "move_points", self._wrap("witness.move", witness.move_points, legs))
        self._patch(witness, "merge_points",
                    self._wrap("witness.merge", witness.merge_points, merged))

        trace = self._wrap("witness.trace", witness.run_trace_test)

        def run_trace_test(var, slc, points, *args, **kwargs):
            if not self.recording:
                return trace(var, slc, points, *args, **kwargs)
            legs_before = c["witness.legs"]
            try:
                return trace(var, slc, points, *args, **kwargs)
            finally:
                extra = c["witness.legs"] - legs_before - 2 * _rows(points)
                c["witness.trace.extra_paths"] += extra

        self._patch(witness, "run_trace_test", run_trace_test)

        def solved(args, kwargs, out):
            records, report = out
            c["pipeline.solutions"] += len(records)
            c["pipeline.paths"] += report.total_paths
            for stage, count in zip(pipeline.STAGES, report.stage_counts):
                c[f"pipeline.stage.{stage}"] += count

        self._patch(pipeline, "solve_instance",
                    self._wrap("pipeline.solve", pipeline.solve_instance, solved))
        self._patch(pipeline, "verify_solution",
                    self._wrap("pipeline.verify", pipeline.verify_solution))
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _count_endpoints(self, args, kwargs, out) -> None:
        c = self.counts
        c["tracker.paths"] += len(out)
        for e in out:
            c["tracker.steps"] += e.steps
            c[f"tracker.status.{e.status}"] += 1

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "dropped_spans": self.dropped}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


class _HomotopyProxy:
    """Times and counts the three evaluations the tracker asks of a homotopy,
    whatever the homotopy class."""

    def __init__(self, hom, tracer: Tracer):
        self._hom = hom
        self._tracer = tracer
        self.dimension = hom.dimension

    def _eval(self, what: str, z, s):
        self._tracer.counts[f"tracker.hom_{what}.rows"] += _rows(z)
        self._tracer.open(f"tracker.hom_{what}")
        try:
            return getattr(self._hom, what)(z, s)
        finally:
            self._tracer.close()

    def value(self, z, s):
        return self._eval("value", z, s)

    def jacobian(self, z, s):
        return self._eval("jacobian", z, s)

    def s_partial(self, z, s):
        return self._eval("s_partial", z, s)

    def __getattr__(self, name):
        return getattr(self._hom, name)
