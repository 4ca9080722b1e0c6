"""Correspondences, their linear constraint rows, and the minimal-problem catalog.

Each point/line correspondence across three views imposes linear conditions
on the 27 trifocal tensor coordinates (1 row for PLL, 3 of rank 2 for
PPL/PLP/LLL, 9 of rank 4 for PPP). A minimal problem is a count vector
(w1..w5) of the five kinds satisfying 3w1 + 2w2 + 2w3 + 2w4 + w5 = 11 with
w2 >= w3; there are exactly 66, and stacking one instance's rows cuts a
subspace of codimension 11 + w1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import geometry, jsonio, numlin, seeds

KINDS = ("PPP", "PPL", "PLP", "LLL", "PLL")
RESAMPLE_BUDGET = 100


class DegenerateInstanceError(ValueError):
    """Instance data failed genericity checks (codimension short, etc.)."""


@dataclass(frozen=True)
class Correspondence:
    """A tagged triple of image points/lines, unit-normalized."""

    kind: str
    vectors: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown correspondence kind {self.kind!r}")
        vecs = tuple(np.asarray(v, dtype=complex) for v in self.vectors)
        shapes = [v.shape for v in vecs]
        if shapes != [(3,)] * 3:
            raise ValueError(f"a correspondence holds three vectors of shape (3,), not {shapes}")
        if not all(np.isfinite(v).all() and v.any() for v in vecs):
            raise ValueError(f"{self.kind} correspondence has a non-finite or zero vector")
        object.__setattr__(self, "vectors", tuple(numlin.normalize_projective(v) for v in vecs))


@dataclass(frozen=True)
class ProblemWeights:
    """Counts (w1..w5) of PPP, PPL, PLP, LLL, PLL correspondences."""

    w1: int
    w2: int
    w3: int
    w4: int
    w5: int

    def __post_init__(self):
        w = self.as_tuple()
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        if 3 * w[0] + 2 * (w[1] + w[2] + w[3]) + w[4] != 11:
            raise ValueError(f"{w} does not satisfy 3w1+2w2+2w3+2w4+w5 = 11")
        if w[1] < w[2]:
            raise ValueError(f"{w} violates w2 >= w3")

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.w1, self.w2, self.w3, self.w4, self.w5)

    def kind_sequence(self) -> tuple[str, ...]:
        return tuple(k for k, n in zip(KINDS, self.as_tuple()) for _ in range(n))

    @property
    def codimension(self) -> int:
        return 11 + self.w1


@dataclass(frozen=True)
class LinearSlice:
    """Stacked linear forms on tensor space, with recorded numerical rank."""

    rows: np.ndarray
    rank: int


def enumerate_problems() -> list[ProblemWeights]:
    """All 66 minimal problems, in descending lexicographic order."""
    found = []
    for w1 in range(3, -1, -1):
        for w2 in range(5, -1, -1):
            for w3 in range(w2, -1, -1):
                for w4 in range(5, -1, -1):
                    rest = 11 - 3 * w1 - 2 * (w2 + w3 + w4)
                    if rest >= 0:
                        found.append(ProblemWeights(w1, w2, w3, w4, rest))
    found.sort(key=lambda p: p.as_tuple(), reverse=True)
    return found


def expected_degrees() -> dict[tuple[int, ...], int]:
    """Published algebraic degree for each of the 66 problems."""
    text = resources.files("trifocal.data").joinpath("problem_degrees.json").read_text()
    raw = json.loads(text)
    return {tuple(int(x) for x in key.split(",")): value for key, value in raw.items()}


def constraint_rows(c: Correspondence) -> np.ndarray:
    """Linear forms on the 27 tensor coordinates annihilated by consistency.

    Row coefficient layout matches the row-major tensor flattening
    (index 9i + 3j + k).
    """
    v0, v1, v2 = c.vectors
    if c.kind == "PLL":
        rows = np.einsum("i,j,k->ijk", v0, v1, v2).reshape(1, 27)
    elif c.kind == "LLL":
        rows = np.einsum("mi,j,k->mijk", numlin.skew_matrix(v0), v1, v2).reshape(3, 27)
    elif c.kind == "PLP":
        rows = np.einsum("i,j,mk->mijk", v0, v1, numlin.skew_matrix(v2)).reshape(3, 27)
    elif c.kind == "PPL":
        rows = np.einsum("i,mj,k->mijk", v0, numlin.skew_matrix(v1), v2).reshape(3, 27)
    elif c.kind == "PPP":
        rows = np.einsum(
            "i,mj,kn->mnijk", v0, numlin.skew_matrix(v1), numlin.skew_matrix(v2)
        ).reshape(9, 27)
    else:  # pragma: no cover
        raise ValueError(c.kind)
    return rows


def assemble_special_slice(instance: list[Correspondence]) -> LinearSlice:
    """Stack all constraint rows and verify the expected codimension.

    Codimension must equal the sum of per-kind rank contributions
    (4 per PPP, 2 per PPL/PLP/LLL, 1 per PLL), which is 11 + w1 for a
    minimal problem; degenerate (e.g. duplicated) data raises
    DegenerateInstanceError.
    """
    per_kind_rank = {"PPP": 4, "PPL": 2, "PLP": 2, "LLL": 2, "PLL": 1}
    expected = sum(per_kind_rank[corr.kind] for corr in instance)
    stacked = np.vstack([constraint_rows(corr) for corr in instance])
    rank = numlin.numerical_rank(stacked)
    if rank != expected:
        raise DegenerateInstanceError(
            f"assembled slice has codimension {rank}, expected {expected}"
        )
    return LinearSlice(rows=stacked, rank=rank)


def randomize_slice(s: LinearSlice, rng: np.random.Generator) -> LinearSlice:
    """Squaring up: 11 random complex combinations of the slice's rows.

    The output row space is contained in the input's, so every tensor in
    the input's zero set stays in the output's. Requires codimension >= 11.
    """
    if s.rank < 11:
        raise DegenerateInstanceError(
            f"cannot randomize a slice of codimension {s.rank} < 11"
        )
    mix = seeds.complex_normal(rng, (11, s.rows.shape[0]))
    rows = mix @ s.rows
    rank = numlin.numerical_rank(rows)
    if rank != 11:
        raise DegenerateInstanceError("randomized slice lost rank")
    return LinearSlice(rows=rows, rank=rank)


def random_instance(
    w: ProblemWeights, seed: int, complex_data: bool = False
) -> list[Correspondence]:
    """Random instance of a problem, deterministic under the seed.

    Default payloads are real uniform on [0, 1); the flag switches to
    complex Gaussian coordinates. Kinds appear in catalog order.
    """
    rng = seeds.child_rng(seed, "instance", w.as_tuple(), complex_data)

    def draw():
        return seeds.complex_normal(rng, 3) if complex_data else rng.uniform(size=3)

    return [Correspondence(kind=kind, vectors=(draw(), draw(), draw())) for kind in w.kind_sequence()]


def _sample_world_pair(rng: np.random.Generator, real: bool):
    """A unit world point ``x`` and a second unit point ``y`` on its line."""
    def draw():
        v = rng.normal(size=4) if real else seeds.complex_normal(rng, 4)
        return v / np.linalg.norm(v)

    return draw(), draw()


def synthetic_consistent_instance(
    cfg: geometry.CalibratedConfiguration, w: ProblemWeights, seed: int
) -> list[Correspondence]:
    """Forward-project sampled incident world (point, line) pairs.

    Every returned correspondence passes consistency_check against the
    configuration's cameras. World draws that land too close to a camera
    center or an epipole are resampled, up to a fixed budget.
    """
    cams = cfg.cameras()
    real = bool(np.all(np.abs(np.imag(cfg.params)) < 1e-14))
    rng = seeds.child_rng(seed, "synthetic", w.as_tuple())
    # degenerate cameras or coincident centers must fail loudly before sampling
    consistent = geometry.consistency_checker(*cams)

    out = []
    for kind in w.kind_sequence():
        for attempt in range(RESAMPLE_BUDGET):
            images = geometry.project_pair(kind, cams, *_sample_world_pair(rng, real))
            # a point at a camera center, or a line through it, has no image
            if (np.linalg.norm(images, axis=1) < 1e-6).any():
                continue
            corr = Correspondence(kind=kind, vectors=tuple(images))
            if consistent(corr):
                out.append(corr)
                break
        else:
            raise DegenerateInstanceError(
                f"could not sample a generic {kind} correspondence in {RESAMPLE_BUDGET} tries"
            )
    return out


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def instance_to_dict(w: ProblemWeights, seed: int, instance: list[Correspondence], meta: dict | None = None) -> dict:
    doc = {
        "problem": list(w.as_tuple()),
        "seed": int(seed),
        "correspondences": [
            {"kind": c.kind, "vectors": [jsonio.to_pairs(v) for v in c.vectors]}
            for c in instance
        ],
    }
    if meta:
        doc["meta"] = meta
    return doc


def instance_from_dict(doc: dict) -> tuple[ProblemWeights, int, list[Correspondence]]:
    w = ProblemWeights(*doc["problem"])
    corrs = [
        Correspondence(
            kind=entry["kind"],
            vectors=tuple(jsonio.from_pairs(p) for p in entry["vectors"]),
        )
        for entry in doc["correspondences"]
    ]
    expected = w.kind_sequence()
    got = tuple(c.kind for c in corrs)
    if got != expected:
        raise DegenerateInstanceError(f"correspondence kinds {got} do not match problem {expected}")
    return w, int(doc["seed"]), corrs


def save_instance(path, w: ProblemWeights, seed: int, instance: list[Correspondence], meta: dict | None = None) -> None:
    jsonio.dump_json(path, instance_to_dict(w, seed, instance, meta))


def load_instance(path) -> tuple[ProblemWeights, int, list[Correspondence]]:
    return instance_from_dict(jsonio.parse_json(Path(path).read_bytes()))
