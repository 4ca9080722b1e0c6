"""The benchmark's calibrated witness fixture: load it and verify it.

``data/witness_cal.json.gz`` holds the 4912 points that
``witness.build_witness("cal", seed=0, budget=16)`` finds (regenerate with
``perfbench/make_fixture.py``).  The build stops on its loop budget before
the program's own trace certificate is reached, so the file is stored
uncertified.  ``verify`` marks it complete only after three checks:

1. there are exactly ``slices.expected_degrees()[(0,0,0,0,11)]`` points;
2. every membership residual is at most ``witness.MEMBERSHIP_TOL``;
3. ``witness.check_witness`` reports the points pairwise distinct.

With the published degree known, that many distinct verified points is a
complete witness set.  The program's own certificate is still measured, and
its failure counted, by the ``trace`` workload.
"""
from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np

from trifocal import slices, witness

PATH = Path(__file__).resolve().parent / "data" / "witness_cal.json.gz"
SHA256 = "0e0f68026c5adca607e55ec1ec17abea265ea66648c7f77fe529eb86769b7ad1"
FULL_PROBLEM = (0, 0, 0, 0, 11)


class FixtureError(RuntimeError):
    """The fixture is missing, altered, or not a complete witness set."""


def full_degree() -> int:
    return slices.expected_degrees()[FULL_PROBLEM]


def point_problems(pws: witness.PseudoWitnessSet, expected: int | None) -> list[str]:
    """Reasons the points of ``pws`` do not form a verified witness set.

    ``expected`` is the required point count, or None to skip that check.
    An empty list means all checks passed.
    """
    problems = []
    n = pws.points.shape[0]
    if expected is not None and n != expected:
        problems.append(f"{n} points, expected {expected}")
    if n == 0:
        return problems + ["no points"]
    diag = witness.check_witness(pws)
    if not diag["max_membership_residual"] <= witness.MEMBERSHIP_TOL:
        problems.append(
            f"membership residual {diag['max_membership_residual']:.2e} "
            f"> {witness.MEMBERSHIP_TOL:.0e}"
        )
    if n > 1 and not diag["min_image_distance"] > witness.DEDUP_TOL:
        problems.append(
            f"two points coincide (image distance {diag['min_image_distance']:.2e})"
        )
    return problems


def load(path: Path = PATH) -> witness.PseudoWitnessSet:
    """Read the fixture after checking its SHA-256 against ``SHA256``."""
    if not path.is_file():
        raise FixtureError(f"fixture {path.name} is missing; run perfbench/make_fixture.py")
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != SHA256:
        raise FixtureError(f"fixture {path.name} has sha256 {digest}, expected {SHA256}")
    return witness.witness_from_dict(json.loads(gzip.decompress(raw)))


def verify(pws: witness.PseudoWitnessSet, expected: int | None = None) -> witness.PseudoWitnessSet:
    """Mark ``pws`` complete, or raise FixtureError naming what failed."""
    if expected is None:
        expected = full_degree()
    problems = point_problems(pws, expected)
    if problems:
        raise FixtureError("fixture is not a complete witness set: " + "; ".join(problems))
    pws.certified = True
    return pws


def subset(pws: witness.PseudoWitnessSet, count: int) -> witness.PseudoWitnessSet:
    """The first ``count`` points, for toy-size runs."""
    return witness.PseudoWitnessSet(
        variety=pws.variety,
        patches=pws.patches,
        slc=pws.slc,
        points=np.array(pws.points[:count]),
        certified=False,
        meta=dict(pws.meta),
    )
