"""The demos run top to bottom against the current API (the long solve demo
only with TRIFOCAL_EXTENDED=1)."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
LONG_DEMO = "solve_minimal_problem.py"  # a full 4912-path solve: minutes

extended = pytest.mark.skipif(
    os.environ.get("TRIFOCAL_EXTENDED") != "1",
    reason="hours-scale; set TRIFOCAL_EXTENDED=1",
)


@pytest.mark.parametrize(
    "name",
    [
        "tensor_anatomy.py",
        "tracking_tour.py",
        "witness_tour.py",
        pytest.param(LONG_DEMO, marks=extended),
    ],
)
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    if name == LONG_DEMO:
        assert "solutions: 160" in proc.stdout
