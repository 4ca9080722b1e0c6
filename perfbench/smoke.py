#!/usr/bin/env python3
"""Self-check of the benchmark harness, at toy size, in well under a minute.

    python3 perfbench/smoke.py

1. Runs every workload with ``--toy`` untraced and traced, and checks that
   the last line is the result object and carries exactly the metrics
   BENCHMARK.json names, with their units.  Toy grow and verify must pass
   their checks; toy solve and trace run on an 8-point subset of the
   fixture, so their checks must fail, and the failures must be counted.
2. Feeds each output check a wrong output and requires it to fail, and the
   fixture verification a short, a duplicated and a perturbed point set.
3. Runs the benchmark command in a directory holding only BENCHMARK.json
   and the benchmark's own files, where it must exit non-zero without
   printing a result.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.use_repo_sources()

import numpy as np  # noqa: E402

import fixture  # noqa: E402
import workloads  # noqa: E402
from trifocal import witness  # noqa: E402

SPEC = json.loads((env.REPO / "BENCHMARK.json").read_text())
EXPECT_CORRECT = {"solve": False, "trace": False, "grow": True, "verify": True}
REPORT_ONLY = {"solve": ["fail_share"], "trace": ["fail_share"],
               "grow": ["fail_share", "points_per_s"], "verify": ["fail_share", "op_s_p99"]}
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_result(workload: str, trace: int) -> None:
    proc = run_bench(env.REPO, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        expect(False, f"{label}: exit status {proc.returncode}: {proc.stderr[-300:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
    expect(result["attempted"] >= 1, f"{label}: attempted {result['attempted']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in wanted}, f"{label}: metric names match BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        numeric = isinstance(value, (int, float)) and math.isfinite(value)
        if not (numeric and entry.get("unit") == m["unit"]):
            expect(False, f"{label}: {m['name']} = {entry}")
    if not trace:
        for m in wanted:
            if not got[m["name"]]["value"] > 0:
                expect(False, f"{label}: end-to-end {m['name']} is not positive")
        reported = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")}
        for name in REPORT_ONLY[workload]:
            expect(name in reported, f"{label}: report prints {name}")
    correct = EXPECT_CORRECT[workload]
    expect(result["correct"] is correct, f"{label}: correct is {correct}")
    expect((result["failed"] == 0) is correct, f"{label}: {result['failed']} failed operation(s)")


def check_checks() -> None:
    verdict_ok = {"all": True}
    expect(workloads.check_verdict(verdict_ok, True) == "", "verify check passes a right verdict")
    expect(workloads.check_verdict(verdict_ok, False) != "", "verify check fails a wrong verdict")
    expect(workloads.check_verdict({"all": False}, True) != "",
           "verify check fails a missed record")

    expect(workloads.check_trace(witness.TraceResult(True, 1e-15, False)) == "",
           "trace check passes a passed test")
    expect(workloads.check_trace(witness.TraceResult(False, float("nan"), True, "x")) != "",
           "trace check fails an inconclusive test")
    expect(workloads.check_trace(witness.TraceResult(False, 1e-2, False)) != "",
           "trace check fails a bent trace")

    config, _ = workloads._planted(3, 0)
    record = workloads.pipeline.record_from_params(config.params)
    expect(workloads.check_solve(([record] * 160, None), config, 160) == "",
           "solve check passes 160 records holding the planted one")
    expect(workloads.check_solve(([record] * 152, None), config, 160) != "",
           "solve check fails a short count")
    other = workloads.pipeline.record_from_params(workloads._planted(3, 1)[0].params)
    expect(workloads.check_solve(([other] * 160, None), config, 160) != "",
           "solve check fails when the planted configuration is missing")

    grown = workloads.Grow(3, toy=True).run(0)
    expect(fixture.point_problems(grown, None) == [], "grow check passes a grown set")
    dup = np.concatenate([grown.points, grown.points[:1]])
    expect(fixture.point_problems(_with_points(grown, dup), None) != [],
           "grow check fails a duplicated point")
    bent = grown.points.copy()
    bent[0, 9] += 1e-3
    expect(fixture.point_problems(_with_points(grown, bent), None) != [],
           "grow check fails a point off the slice")

    full = fixture.load()
    expect(fixture.point_problems(fixture.subset(full, 8), fixture.full_degree()) != [],
           "fixture verification fails a short point set")
    corrupt = _corrupt_copy()
    try:
        fixture.load(corrupt)
        expect(False, "fixture load fails an altered file")
    except fixture.FixtureError:
        expect(True, "fixture load fails an altered file")
    finally:
        corrupt.unlink()


def _with_points(pws, points):
    return witness.PseudoWitnessSet(pws.variety, pws.patches, pws.slc, points, False, pws.meta)


def _corrupt_copy() -> Path:
    raw = bytearray(fixture.PATH.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path = HERE / "out" / "corrupt-fixture.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(raw))
    return path


def check_bare_directory() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        root = Path(tmp)
        shutil.copy(env.REPO / "BENCHMARK.json", root)
        for rel in SPEC["paths"]:
            shutil.copytree(env.REPO / rel, root / rel, ignore=shutil.ignore_patterns("out"))
        proc = run_bench(root, "--workload", "verify", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    printed = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not printed,
           f"bare directory: exit status {proc.returncode}, {len(printed)} stdout line(s)")


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(name, trace)
    check_checks()
    check_bare_directory()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
