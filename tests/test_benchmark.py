"""Every benchmark workload runs one checked round, and the tracer still finds
and counts the calls it hooks in geoq."""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(workload: str, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["failed"] == 0
    return out


def test_selftest_passes():
    # the benchmark's checks each pass on real geoq outputs and fail on
    # corrupted copies of them
    res = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600, check=False)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("workload", ("embed", "montecarlo", "expected", "intersect"))
def test_workload_round(workload):
    _bench(workload, trace=0)


def test_traced_montecarlo_round():
    out = _bench("montecarlo", trace=1)
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    # full reads and writes are rasterized as vertex level sets: no curve is
    # sampled and no point is located, and the crossed triangles are charged
    assert metrics["sphere.sample.calls"] == 0
    assert metrics["embedding.locate_many.points"] == 0
    assert metrics["loadsim.charge.triangles"] > 0
    # per round, 4 kinds at 2 rates: each kind's seed draws, rasterizes and
    # charges its 100 writes and 20 reads once, at rate 1, for both rates
    assert metrics["cli.run_once.calls"] == 8
    assert metrics["loadsim.run.calls"] == 4
    assert metrics["quorums.write_quorum.calls"] == 400
    assert metrics["quorums.read_quorum.calls"] == 80
    # one charge per role and block, however many rates a seed takes
    assert metrics["loadsim.charge.calls"] == 13


def test_traced_intersect_round():
    # crossing counts and first-hit runs pass their checks under the tracer,
    # which sees the counts
    out = _bench("intersect", trace=1)
    assert out["metrics"]["sphere.count_intersections.calls"]["value"] > 0


def test_traced_names_are_bound():
    # the tracer wraps these module globals, which geoq looks up at call time
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracing import BOUNDARIES
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for module, attr, _ in BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
