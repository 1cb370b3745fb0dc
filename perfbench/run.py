"""Benchmark of geoq: one workload per invocation, result as JSON on the last line.

    python3 perfbench/run.py --workload {embed,montecarlo,expected,intersect}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from `src/` next to
this directory. The run sets up (several times for the workloads that load
the fixed embedding), then runs rounds of the workload until S seconds have
passed, checking every round's outputs. With --trace 0 the last line carries
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
and its spans are written under perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread: the benchmark's load is this one process, and a second
# BLAS thread would only compete with it for the machine's other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GEOQ_MODULES = ("geoq", "geoq.errors", "geoq.sphere", "geoq.mesh", "geoq.embedding",
                "geoq.quorums", "geoq.loadsim", "geoq.config", "geoq.cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_geoq() -> dict:
    """Import geoq from this checkout's src/, never from anywhere else."""
    if not (SRC / "geoq" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no geoq sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in GEOQ_MODULES}
    if Path(modules["geoq"].__file__).resolve().parent != SRC / "geoq":
        raise SystemExit(f"run.py: imported geoq from {modules['geoq'].__file__}, not {SRC}")
    return modules


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
        commit = res.stdout.strip() or commit
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "geoq").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_digest": digest.hexdigest(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    modules = import_geoq()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads
    import_s = time.perf_counter() - t_start

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(modules)
    ctx = workloads.Context(modules, OUT, args.seed, tracer)

    setups = 1 if workload.setup is workloads.no_setup else workloads.SETUPS
    setup_times = []
    for i in range(setups):
        if tracer is not None:
            tracer.op = -1 - i
        t0 = time.perf_counter()
        workload.setup(ctx)
        setup_times.append(time.perf_counter() - t0)

    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(workload.round(ctx, len(rounds)))
    problems = [p for r in rounds for p in r.problems]
    if workload.finish is not None:
        problems += workload.finish(rounds)
    if tracer is not None:
        tracer.uninstall()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    work = {}
    for r in rounds:
        for key, value in r.work.items():
            work[key] = work.get(key, 0) + value

    info = environment()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                rounds=len(rounds), setups=setups, import_s=round(import_s, 4),
                setup_runs_s=[round(t, 4) for t in setup_times])
    # per-workload throughputs, printed but not gated: each applies to some
    # workloads only, and every gated metric must be reported by all of them
    if "embeds" in work:
        info["embed_s"] = work["embed_s"] / work["embeds"]
    if "accesses" in work:
        info["accesses_per_s"] = work["accesses"] / work["access_s"]
    if "pairs" in work:
        info["pairs_per_s"] = work["pairs"] / work["pair_s"]
    info["round_s_each"] = [round(r.seconds, 4) for r in rounds]
    for key, value in info.items():
        print(f"# {key}: {value}")
    for r in rounds:
        for e in r.errors:
            print(f"# failed operation: {e}")
    for p in problems:
        print(f"# check failed: {p}")

    if tracer is not None:
        for note in tracer.notes:
            print(f"# {note}")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"# spans: {len(tracer.spans)} -> {path.relative_to(ROOT)}")
        metrics = tracer.per_layer(setups, len(rounds))
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": statistics.median(r.seconds for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
