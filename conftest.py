"""Test-session setup shared by every test directory.

pytest's ``pythonpath`` setting puts ``src`` on the test process's own
import path only; the tests that start ``python -m trifocal.cli`` or a demo
in a child process need it in the environment too, so a bare
``python -m pytest`` tests the checkout even without an install.
"""
import os
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent / "src"), os.environ.get("PYTHONPATH")])
)
