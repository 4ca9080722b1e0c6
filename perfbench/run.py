#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout and measures the ``trifocal`` package under
``src/`` there.  Operations run one after another in this one process
(a closed loop with one client) until ``--seconds`` have passed; the last
operation started is always finished.  Every operation's output is checked;
an operation fails if it raises or its check fails, and failed operations
are timed like the others.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates untraced and traced operations, reports per-layer
totals per traced operation, and the tracing overhead as traced minus
untraced ``op_s``.  Spans go to ``perfbench/out/``.  A readable report goes
to standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit status is 0 whenever the run completed, failed operations
included, and 2 when the checkout holds no ``src/trifocal`` to measure.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402  (pins BLAS threads before numpy loads)
import numpy as np  # noqa: E402

SETUP_PROBES = 9
WORKLOAD_NAMES = ("solve", "trace", "grow", "verify")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs, for the harness self-check")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def probe_setup(args) -> float:
    """Median wall time, over SETUP_PROBES fresh processes, from process
    start until the workload's first operation is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.toy:
        cmd.append("--toy")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with status {code}")
        times.append(elapsed)
    return statistics.median(times)


class OpLog:
    """One record per operation, in flat arrays: the log adds about 17 bytes
    per operation to ``peak_rss_mb``, so a faster program, which runs more
    operations in the same seconds, does not read as a bigger one."""

    def __init__(self):
        self.inputs = array("q")  # input index k of each operation
        self.seconds = array("d")
        self.traced = bytearray()
        self.errors: dict[int, str] = {}  # operation -> why it failed
        self.points: dict[int, int] = {}  # operation -> witness points it found

    def add(self, k: int, seconds: float, traced: bool, error: str, output) -> None:
        j = len(self.seconds)
        self.inputs.append(k)
        self.seconds.append(seconds)
        self.traced.append(traced)
        if error:
            self.errors[j] = error
        points = getattr(output, "points", None)
        if points is not None:
            self.points[j] = int(points.shape[0])

    def __len__(self) -> int:
        return len(self.seconds)


def typical_op_s(log: OpLog, wl, traced: bool = False) -> float:
    """Median seconds per operation.  On ``verify`` the planted and random
    records differ in cost and come in equal numbers, so the median of each
    class is taken and the two are averaged; a plain median would sit on
    the gap between the classes and jump from run to run."""
    mask = np.frombuffer(log.traced, dtype=np.uint8) == traced
    seconds = np.frombuffer(log.seconds)[mask]
    if hasattr(wl, "is_planted"):
        planted = wl.is_planted(np.frombuffer(log.inputs, dtype=np.int64)[mask])
        if planted.any() and not planted.all():
            return 0.5 * float(np.median(seconds[planted]) + np.median(seconds[~planted]))
    return float(np.median(seconds))


def run_ops(wl, seconds: float, tracer=None) -> OpLog:
    """Operations until ``seconds`` pass.  With a tracer, every input runs
    twice, untraced and then traced, so the overhead compares equal work."""
    log = OpLog()
    begin = time.perf_counter()
    i = 0
    while i == 0 or (tracer and i % 2) or time.perf_counter() - begin < seconds:
        k, traced = (i // 2, i % 2 == 1) if tracer else (i, False)
        if traced:
            tracer.install()
            tracer.op_id = k
            tracer.open("op")
        t0 = time.perf_counter()
        error = ""
        output = None
        try:
            output = wl.run(k)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.close()
            tracer.uninstall()
        if not error:
            error = wl.check(k, output)
        log.add(k, elapsed, traced, error, output)
        i += 1
    return log


def end_to_end(args, wl, log: OpLog, peak_rss_mb: float) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the report-only ones."""
    metrics = {
        "setup_s": (probe_setup(args), "s"),
        "op_s": (typical_op_s(log, wl), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"fail_share": (len(log.errors) / len(log), "1")}
    if len(log) >= 1000:  # so that at least ten samples lie beyond the 99th percentile
        p99 = np.percentile(np.frombuffer(log.seconds), 99, method="weibull")
        extra["op_s_p99"] = (float(p99), "s")
    if log.points:
        build_s = sum(log.seconds[j] for j in log.points)
        extra["points_per_s"] = (sum(log.points.values()) / build_s, "1/s")
    return metrics, extra


def per_layer(wl, log: OpLog, tracer) -> dict:
    import layers

    traced = sum(log.traced)
    metrics = layers.summarize(tracer, traced, getattr(wl, "setup_times", {}))
    on, off = typical_op_s(log, wl, traced=True), typical_op_s(log, wl, traced=False)
    metrics["trace.op_s"] = (on, "s")
    metrics["trace.untraced_op_s"] = (off, "s")
    metrics["trace.overhead_s"] = (on - off, "s")
    metrics["trace.overhead_share"] = ((on - off) / off, "1")
    metrics["trace.ops"] = (traced, "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.use_repo_sources()
    except env.MissingSources as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    log = run_ops(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {}
    if tracer is None:
        metrics, extra = end_to_end(args, wl, log, peak_rss_mb)
    else:
        metrics = per_layer(wl, log, tracer)
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans, {"workload": args.workload, "seed": args.seed,
                                   "toy": args.toy, **env.describe()})
        print(f"spans written to {spans.relative_to(env.REPO)} "
              f"({len(tracer.spans)} kept, {tracer.dropped} dropped)")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} toy={args.toy} "
          f"ops={len(log)} failed={len(log.errors)}")
    print("env " + json.dumps(env.describe(), sort_keys=True))
    if len(log) <= 20:
        for j in range(len(log)):
            print(f"  op {log.inputs[j]}{' traced' if log.traced[j] else ''}: "
                  f"{log.seconds[j]:.3f} s"
                  + (f", {log.points[j]} points" if j in log.points else ""))
    for j in sorted(log.errors)[:5]:
        print(f"  op {log.inputs[j]}{' traced' if log.traced[j] else ''} failed: {log.errors[j]}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not log.errors,
        "attempted": len(log),
        "failed": len(log.errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
