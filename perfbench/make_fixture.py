"""Remake the fixed embedding that montecarlo, expected and intersect load.

    python3 perfbench/make_fixture.py

Runs `geoq map` with the default configuration and one repetition (2000-node
square deployment, seed 1, solver tolerance 1e-7) in a scratch directory under
perfbench/out/, copies the embedding it caches to perfbench/fixture/ and
prints the file's digest. The workloads refuse a fixture whose digest differs from
`workloads.FIXTURE_DIGEST`, so a changed solver changes their inputs only
when someone remakes the file and updates that constant.
"""
from __future__ import annotations

import hashlib
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from geoq import cli  # noqa: E402
from workloads import FIXTURE  # noqa: E402


def main() -> int:
    scratch = HERE / "out" / "fixture-build"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    config = scratch / "map.cfg"
    config.write_text("repetitions = 1\n")  # seed 1 only; every other key at its default
    code = cli.main(["map", "--config", str(config), "--out", str(scratch)])
    if code:
        return code
    (cached,) = (scratch / "cache").glob("emb_*.txt")
    FIXTURE.parent.mkdir(exist_ok=True)
    shutil.copyfile(cached, FIXTURE)
    shutil.rmtree(scratch)
    print(f"{FIXTURE}: blake2b-16 {hashlib.blake2b(FIXTURE.read_bytes(), digest_size=16).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
