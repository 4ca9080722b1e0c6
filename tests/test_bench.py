"""The kernel timing script runs at toy size and writes every row."""
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


def test_kernel_timings_script_writes_every_row(tmp_path):
    out = tmp_path / "kernels.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "1,3", "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["env"]["blas_threads"] == 1
    assert set(doc["kernels"]) == set(ROWS)
    for name in ROWS:
        seconds = doc["kernels"][name]
        assert set(seconds) == {"1", "3"}, name
        assert all(t > 0 for t in seconds.values()), name
