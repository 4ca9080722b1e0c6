"""Regenerate the benchmark's 4912-point calibrated witness fixture.

    python3 perfbench/make_fixture.py [--out PATH]

Runs ``witness.build_witness("cal", seed=0, budget=16)`` with BLAS pinned to
one thread (the same pinning the benchmark uses), writes the set with
``witness.witness_to_dict`` as gzipped JSON (gzip mtime 0, so the bytes are
reproducible) and prints the point count and the SHA-256 of the file.  The
16 monodromy loops take about six minutes on a 2-vCPU x86-64 machine.  The
build stops on its loop budget, so the file says ``certified: false``; the
benchmark verifies the points itself on load (see ``perfbench/fixture.py``).
A rebuilt file must match ``fixture.SHA256`` before the benchmark will load it.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402  (pins BLAS threads before numpy loads)

env.use_repo_sources()

import fixture  # noqa: E402
from trifocal import witness  # noqa: E402

SEED = 0
BUDGET = 16


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(fixture.PATH))
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    pws = witness.build_witness(
        "cal", seed=SEED, budget=BUDGET, log=lambda m: print(m, file=sys.stderr, flush=True)
    )
    doc = witness.witness_to_dict(pws)
    blob = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0, filename="") as gz:
        gz.write(blob)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"points={pws.points.shape[0]} seconds={time.perf_counter() - t0:.1f}")
    print(f"sha256={digest} file={out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
