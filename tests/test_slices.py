"""Tests for problem enumeration, constraint rows, and instance handling."""
import itertools
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifocal import geometry, numlin, slices


# ---------------------------------------------------------------------------
# problem enumeration
# ---------------------------------------------------------------------------

def test_enumerate_problems_count_and_balance():
    problems = slices.enumerate_problems()
    assert len(problems) == 66
    for w in problems:
        assert 3 * w.w1 + 2 * (w.w2 + w.w3 + w.w4) + w.w5 == 11
        assert w.w2 >= w.w3
        assert w.codimension == 11 + w.w1


def test_enumerate_problems_order():
    problems = [w.as_tuple() for w in slices.enumerate_problems()]
    assert problems[0] == (3, 1, 0, 0, 0)
    assert problems[-1] == (0, 0, 0, 0, 11)
    assert problems == sorted(problems, reverse=True)
    assert len(set(problems)) == 66


def test_enumerate_problems_membership():
    tuples = {w.as_tuple() for w in slices.enumerate_problems()}
    assert (1, 4, 0, 0, 0) in tuples
    assert (0, 2, 1, 1, 3) in tuples
    # swap-ordering excludes mirrored duplicates
    assert (1, 3, 4, 0, 0) not in tuples
    assert (0, 1, 2, 0, 5) not in tuples


def test_weights_validation():
    with pytest.raises(ValueError):
        slices.ProblemWeights(3, 1, 0, 0, 1)  # balance is 12
    with pytest.raises(ValueError):
        slices.ProblemWeights(0, 1, 2, 0, 5)  # w3 > w2


def test_kind_sequence():
    w = slices.ProblemWeights(1, 2, 1, 1, 0)
    assert w.kind_sequence() == ("PPP", "PPL", "PPL", "PLP", "LLL")


def test_expected_degrees_table():
    table = slices.expected_degrees()
    assert len(table) == 66
    assert table[(1, 4, 0, 0, 0)] == 160
    assert table[(3, 1, 0, 0, 0)] == 272
    assert table[(0, 0, 0, 0, 11)] == 4912
    assert table[(2, 0, 0, 0, 5)] == 1072
    assert sum(table.values()) % 8 == 0
    for w, d in table.items():
        assert d % 8 == 0, w


# ---------------------------------------------------------------------------
# constraint rows
# ---------------------------------------------------------------------------

def make_correspondence(rng, kind):
    n = {"PPP": 3, "PPL": 3, "PLP": 3, "LLL": 3, "PLL": 3}[kind]
    vecs = tuple(rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(n))
    return slices.Correspondence(kind=kind, vectors=vecs)


@pytest.mark.parametrize(
    "kind,rank",
    [("PLL", 1), ("LLL", 2), ("PLP", 2), ("PPL", 2), ("PPP", 4)],
)
def test_constraint_row_ranks(kind, rank):
    rng = np.random.default_rng(hash(kind) % 1000)
    for _ in range(5):
        rows = slices.constraint_rows(make_correspondence(rng, kind))
        assert rows.shape[1] == 27
        assert numlin.numerical_rank(rows) == rank


@pytest.mark.parametrize("kind", ["PPP", "PPL", "PLP", "LLL", "PLL"])
def test_constraint_rows_annihilate_consistent_tensor(kind):
    rng = np.random.default_rng(len(kind) + 37)
    for seed in range(3):
        cfg = geometry.random_configuration(rng)
        a, b, c = cfg.cameras()
        t = geometry.trifocal_tensor(a, b, c).ravel()
        t = t / np.linalg.norm(t)
        w = {
            "PPP": slices.ProblemWeights(3, 1, 0, 0, 0),
            "PPL": slices.ProblemWeights(1, 4, 0, 0, 0),
            "PLP": slices.ProblemWeights(0, 1, 1, 0, 7),
            "LLL": slices.ProblemWeights(0, 0, 0, 5, 1),
            "PLL": slices.ProblemWeights(0, 0, 0, 0, 11),
        }[kind]
        inst = slices.synthetic_consistent_instance(cfg, w, seed=seed)
        corr = next(x for x in inst if x.kind == kind)
        rows = slices.constraint_rows(corr)
        assert np.abs(rows @ t).max() < 1e-9


def test_constraint_rows_pll_is_kronecker():
    rng = np.random.default_rng(53)
    corr = make_correspondence(rng, "PLL")
    x, lp, lpp = corr.vectors
    rows = slices.constraint_rows(corr)
    assert rows.shape == (1, 27)
    assert np.allclose(rows[0], np.einsum("i,j,k->ijk", x, lp, lpp).ravel())


def test_constraint_rows_flattening_matches_tensor_layout():
    """Row index layout must agree with how tensors are raveled."""
    rng = np.random.default_rng(54)
    corr = make_correspondence(rng, "PLL")
    x, lp, lpp = corr.vectors
    t = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    val = slices.constraint_rows(corr) @ t.ravel()
    assert val[0] == pytest.approx(geometry.tensor_contract(t, x, lp, lpp))


# ---------------------------------------------------------------------------
# slice assembly and randomization
# ---------------------------------------------------------------------------

def test_assemble_special_slice_codimension():
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    inst = slices.random_instance(w, seed=1)
    sl = slices.assemble_special_slice(inst)
    # all rows stacked: 9 per three-point, 3 per two-constraint kind, 1 per PLL
    assert sl.rows.shape == (21, 27)
    assert sl.rank == 12
    assert sl.rank == w.codimension


def test_assemble_special_slice_no_point_problem():
    w = slices.ProblemWeights(0, 0, 0, 0, 11)
    sl = slices.assemble_special_slice(slices.random_instance(w, seed=2))
    assert sl.rows.shape == (11, 27)
    assert sl.rank == 11


def test_assemble_special_slice_duplicate_data():
    w = slices.ProblemWeights(0, 0, 0, 0, 11)
    inst = slices.random_instance(w, seed=3)
    bad = [inst[0]] * 11
    with pytest.raises(slices.DegenerateInstanceError):
        slices.assemble_special_slice(bad)


def test_randomize_slice_row_count_and_span():
    rng = np.random.default_rng(55)
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    sl = slices.assemble_special_slice(slices.random_instance(w, seed=4))
    rand = slices.randomize_slice(sl, rng)
    assert rand.rows.shape == (11, 27)
    assert rand.rank == 11
    # randomized rows stay inside the original row span
    combined = np.vstack([sl.rows, rand.rows])
    assert numlin.numerical_rank(combined) == sl.rank


def test_randomize_slice_annihilates_same_tensors():
    rng = np.random.default_rng(56)
    cfg = geometry.random_configuration(rng)
    w = slices.ProblemWeights(0, 0, 0, 0, 11)
    inst = slices.synthetic_consistent_instance(cfg, w, seed=57)
    sl = slices.assemble_special_slice(inst)
    rand = slices.randomize_slice(sl, rng)
    t = geometry.trifocal_tensor(*cfg.cameras()).ravel()
    t = t / np.linalg.norm(t)
    assert np.abs(rand.rows @ t).max() < 1e-9


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def test_random_instance_deterministic():
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    a = slices.random_instance(w, seed=11)
    b = slices.random_instance(w, seed=11)
    c = slices.random_instance(w, seed=12)
    assert all(np.array_equal(x.vectors, y.vectors) for x, y in zip(a, b))
    assert not all(np.array_equal(x.vectors, y.vectors) for x, y in zip(a, c))


def test_random_instance_kinds_and_realness():
    w = slices.ProblemWeights(1, 2, 1, 1, 0)
    inst = slices.random_instance(w, seed=13)
    assert tuple(c.kind for c in inst) == w.kind_sequence()
    for corr in inst:
        for v in corr.vectors:
            assert np.all(v.imag == 0)
            assert np.linalg.norm(v) == pytest.approx(1.0)
    complex_inst = slices.random_instance(w, seed=13, complex_data=True)
    assert any(np.any(v.imag != 0) for c in complex_inst for v in c.vectors)


def test_synthetic_consistent_instance_passes_checks():
    rng = np.random.default_rng(60)
    cfg = geometry.random_configuration(rng)
    a, b, c = cfg.cameras()
    w = slices.ProblemWeights(1, 2, 1, 1, 0)
    inst = slices.synthetic_consistent_instance(cfg, w, seed=61)
    assert tuple(x.kind for x in inst) == w.kind_sequence()
    for corr in inst:
        assert geometry.consistency_check(a, b, c, corr)


def test_synthetic_consistent_instance_deterministic():
    rng = np.random.default_rng(62)
    cfg = geometry.random_configuration(rng)
    w = slices.ProblemWeights(0, 2, 2, 0, 3)
    a = slices.synthetic_consistent_instance(cfg, w, seed=63)
    b = slices.synthetic_consistent_instance(cfg, w, seed=63)
    assert all(np.array_equal(x.vectors, y.vectors) for x, y in zip(a, b))


def test_synthetic_consistent_instance_shared_centers():
    cfg = geometry.CalibratedConfiguration(
        q2=[1, 0, 0, 0], q3=[1, 0, 0, 0], t2=[0, 0, 1], t3=[0, 0, 1]
    )
    # second and third centers coincide: epipoles are undefined
    with pytest.raises(geometry.UndefinedEpipoleError):
        slices.synthetic_consistent_instance(cfg, slices.ProblemWeights(0, 0, 0, 0, 11), seed=64)


def test_synthetic_consistent_instance_finds_the_centers_once(monkeypatch):
    cfg = geometry.random_configuration(np.random.default_rng(66), real=True)
    calls = []
    centers = geometry.camera_centers
    monkeypatch.setattr(geometry, "camera_centers", lambda cams: calls.append(1) or centers(cams))
    inst = slices.synthetic_consistent_instance(cfg, slices.ProblemWeights(1, 4, 0, 0, 0), seed=67)
    assert len(inst) == 5
    assert len(calls) == 1


def test_synthetic_consistent_instance_redraws_a_pair_without_an_image(monkeypatch):
    cfg = geometry.random_configuration(np.random.default_rng(68), real=True)
    cams = cfg.cameras()
    centers = geometry.camera_centers(cams)
    rng = np.random.default_rng(69)
    generic = [rng.normal(size=4) for _ in range(2)]
    pairs = [
        (centers[1], rng.normal(size=4)),  # a point at camera 2's center has no image there
        (rng.normal(size=4), centers[2]),  # a world line through camera 3's center images to no line
        tuple(generic),
    ]
    draws = []

    def sample(rng, real):
        draws.append(real)
        # every later correspondence is generic and accepted on its first draw
        return pairs[len(draws) - 1] if len(draws) <= 3 else tuple(generic)

    monkeypatch.setattr(slices, "_sample_world_pair", sample)
    inst = slices.synthetic_consistent_instance(cfg, slices.ProblemWeights(0, 5, 0, 0, 1), seed=70)
    assert inst[0].kind == "PPL"
    want = geometry.forward_correspondence("PPL", *cams, *generic)
    assert all(np.array_equal(v, u) for v, u in zip(inst[0].vectors, want))
    assert len(draws) == 3 + 5


@pytest.mark.parametrize(
    "bad", [[np.nan, 0.0, 1.0], [1.0, np.inf, 0.0], [0.0, 0.0, 0.0]], ids=["nan", "inf", "zero"]
)
def test_correspondence_rejects_non_finite_and_zero_vectors(bad):
    with pytest.raises(ValueError, match="non-finite or zero"):
        slices.Correspondence(kind="PPL", vectors=([1.0, 2.0, 3.0], np.array(bad), [0.5, 0.1, 1.0]))


def test_instance_json_roundtrip(tmp_path):
    w = slices.ProblemWeights(1, 2, 1, 1, 0)
    inst = slices.random_instance(w, seed=65, complex_data=True)
    path = tmp_path / "inst.json"
    slices.save_instance(path, w, 65, inst)
    w2, seed2, inst2 = slices.load_instance(path)
    assert w2 == w
    assert seed2 == 65
    for x, y in zip(inst, inst2):
        assert x.kind == y.kind
        assert all(np.array_equal(u, v) for u, v in zip(x.vectors, y.vectors))


def test_instance_json_rejects_wrong_kinds(tmp_path):
    w = slices.ProblemWeights(1, 2, 1, 1, 0)
    inst = slices.random_instance(w, seed=66)
    doc = slices.instance_to_dict(w, 66, inst)
    doc["problem"] = [0, 0, 0, 0, 11]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        slices.load_instance(path)


def test_reference_instance_loads():
    res = resources.files("trifocal.data").joinpath("reference_instance.json")
    with resources.as_file(res) as path:
        w, _, inst = slices.load_instance(path)
    assert w.as_tuple() == (1, 4, 0, 0, 0)
    assert tuple(c.kind for c in inst) == ("PPP", "PPL", "PPL", "PPL", "PPL")
    sl = slices.assemble_special_slice(inst)
    assert sl.rank == 12


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=25, deadline=None)
def test_random_instance_always_valid(seed):
    w = slices.ProblemWeights(0, 1, 1, 2, 3)
    inst = slices.random_instance(w, seed=seed)
    sl = slices.assemble_special_slice(inst)
    assert sl.rank == w.codimension


@given(st.sampled_from([(3, 1, 0, 0, 0), (1, 4, 0, 0, 0), (0, 0, 0, 0, 11), (0, 2, 1, 1, 3)]))
@settings(max_examples=8, deadline=None)
def test_special_slice_contains_randomization(weights):
    w = slices.ProblemWeights(*weights)
    rng = np.random.default_rng(67)
    sl = slices.assemble_special_slice(slices.random_instance(w, seed=68))
    rand = slices.randomize_slice(sl, rng)
    assert numlin.numerical_rank(np.vstack([sl.rows, rand.rows])) == sl.rank


# --- validation that no other test reaches ----------------------------------

def test_correspondence_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown correspondence kind"):
        slices.Correspondence("PXP", (np.ones(3),) * 3)


def test_weights_must_be_nonnegative():
    # -3 + 14 = 11, so only the sign is wrong
    with pytest.raises(ValueError, match="nonnegative"):
        slices.ProblemWeights(-1, 7, 0, 0, 0)


def test_randomize_slice_rejects_a_codimension_short_of_eleven():
    short = slices.LinearSlice(rows=np.eye(10, 27, dtype=complex), rank=10)
    with pytest.raises(slices.DegenerateInstanceError, match="codimension 10"):
        slices.randomize_slice(short, np.random.default_rng(0))


# --- the per-kind table against the numbers written out ---------------------

def _written_out_rows(kind, v0, v1, v2):
    """Each kind's constraint rows, one einsum per kind."""
    skew = numlin.skew_matrix
    if kind == "PLL":
        return np.einsum("i,j,k->ijk", v0, v1, v2).reshape(1, 27)
    if kind == "LLL":
        return np.einsum("mi,j,k->mijk", skew(v0), v1, v2).reshape(3, 27)
    if kind == "PLP":
        return np.einsum("i,j,mk->mijk", v0, v1, skew(v2)).reshape(3, 27)
    if kind == "PPL":
        return np.einsum("i,mj,k->mijk", v0, skew(v1), v2).reshape(3, 27)
    return np.einsum("i,mj,kn->mnijk", v0, skew(v1), skew(v2)).reshape(9, 27)


@pytest.mark.parametrize("kind", slices.KINDS)
def test_constraint_rows_equal_the_written_out_einsums_bit_for_bit(kind):
    rng = np.random.default_rng(2024)
    for _ in range(50):
        vecs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        corr = slices.Correspondence(kind, tuple(vecs))
        rows = slices.constraint_rows(corr)
        expected = _written_out_rows(kind, *corr.vectors)
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()


def test_enumerate_problems_is_the_brute_force_catalog():
    brute = [
        w
        for w in itertools.product(range(11, -1, -1), repeat=5)
        if 3 * w[0] + 2 * (w[1] + w[2] + w[3]) + w[4] == 11 and w[1] >= w[2]
    ]
    assert [w.as_tuple() for w in slices.enumerate_problems()] == brute

