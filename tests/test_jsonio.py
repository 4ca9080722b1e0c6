"""Tests for the shared file format: complex pairs, writer and reader."""
import gzip
from importlib import resources

import numpy as np

from trifocal import jsonio, slices, witness


def test_pairs_round_trip_is_exact():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    z[0, 0] = complex(-0.0, 2.0)
    pairs = jsonio.to_pairs(z)
    assert pairs[1][2] == [z[1, 2].real, z[1, 2].imag]
    back = jsonio.from_pairs(pairs)
    assert back.dtype == complex and back.shape == z.shape
    assert np.array_equal(back.view(float), z.view(float))
    assert np.signbit(back[0, 0].real)
    assert jsonio.to_pairs(np.zeros((0, 13))) == []


def test_from_pairs_accepts_plain_reals():
    v = jsonio.from_pairs([1.0, -2.5, 3.0])
    assert v.dtype == complex and v.tolist() == [1.0, -2.5, 3.0]
    cam = jsonio.from_pairs([[1, 0, 0, 0.5], [0, 1, 0, 0], [0, 0, 1, 2]])
    assert cam.shape == (3, 4) and cam[0, 3] == 0.5 and not cam.imag.any()


def test_instance_gz_round_trip(tmp_path):
    w = slices.ProblemWeights(1, 4, 0, 0, 0)
    inst = slices.random_instance(w, 3, complex_data=True)
    path = tmp_path / "inst.json.gz"
    slices.save_instance(path, w, 3, inst, meta={"note": "gz"})
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    w2, seed2, inst2 = slices.load_instance(path)
    assert (w2, seed2) == (w, 3)
    for a, b in zip(inst, inst2):
        assert a.kind == b.kind
        assert all(np.array_equal(u, v) for u, v in zip(a.vectors, b.vectors))
    plain = tmp_path / "inst.json"
    slices.save_instance(plain, w, 3, inst, meta={"note": "gz"})
    assert gzip.decompress(path.read_bytes()) == plain.read_bytes()


def test_shipped_witness_round_trips_byte_for_byte(tmp_path):
    shipped = resources.files("trifocal.data").joinpath("witness_cal.json.gz").read_bytes()
    path = tmp_path / "again.json.gz"
    witness.save_witness(path, witness.bundled_witness("cal"))
    assert path.read_bytes() == shipped
