"""The kernel timing script runs at toy size and writes every row and every
filter stage."""
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "kernels.py"
ROWS = (
    "image",
    "image_jacobian",
    "hom.value",
    "hom.jacobian",
    "hom.s_partial",
    "solve_13x13",
    "rk4_step",
    "newton_step",
)
FILTER_STAGES = {"membership", "physicality", "centers", "multiview", "epipoles"}


def run_toy(out):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "1,3", "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_kernel_timings_script_writes_every_row(tmp_path):
    doc = run_toy(tmp_path / "kernels.json")
    assert doc["env"]["blas_threads"] == 1
    assert set(doc["kernels"]) == set(ROWS)
    for name in ROWS:
        seconds = doc["kernels"][name]
        assert set(seconds) == {"1", "3"}, name
        assert all(t > 0 for t in seconds.values()), name


def test_kernel_timings_script_times_every_filter_stage(tmp_path):
    stages = run_toy(tmp_path / "kernels.json")["filter_stages"]
    assert set(stages) == FILTER_STAGES
    assert all(t > 0 for t in stages.values())
