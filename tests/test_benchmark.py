"""The benchmark's tracer still finds and counts the calls it hooks in geoq."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_montecarlo_round():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["failed"] == 0
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    # every access curve is sampled once and only its first sample is located
    assert metrics["sphere.sample.calls"] > 0
    assert metrics["embedding.locate_many.points"] == metrics["sphere.sample.calls"]
    assert metrics["loadsim.charge.triangles"] > 0
