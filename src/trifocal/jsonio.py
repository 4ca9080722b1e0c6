"""The one JSON file format of witness, instance and solution files.

Complex arrays are nested lists of ``[re, im]`` pairs.  Documents are
written indented by one space with sorted keys, and gzipped when the path
ends in ``.gz`` (mtime 0 and no stored name, so equal documents give equal
bytes); readers take either form.
"""
from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np


def to_pairs(arr) -> list:
    """A complex array as nested lists of ``[re, im]`` pairs."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def from_pairs(obj) -> np.ndarray:
    """The complex array of ``to_pairs`` output; an array of plain reals
    (no trailing pair axis) is accepted as well."""
    a = np.asarray(obj, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2:
        return a.astype(complex)
    z = np.empty(a.shape[:-1], dtype=complex)
    z.real, z.imag = a[..., 0], a[..., 1]
    return z


def dump_json(path, doc: dict) -> None:
    """Write ``doc`` as indented, key-sorted JSON; gzipped when ``path`` ends
    in ``.gz``."""
    blob = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    if str(path).endswith(".gz"):
        with open(path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0, filename="") as gz:
            gz.write(blob)
    else:
        Path(path).write_bytes(blob)


def parse_json(raw: bytes) -> dict:
    """Parse a JSON document, gunzipping it first when it is gzipped."""
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return json.loads(raw)
