"""Spans around the calls that cross a geoq module boundary.

The tracer replaces module attributes that geoq looks up at call time (for
example `geoq.loadsim.locate_many`, which `loadsim` resolves through its own
globals on every call) with wrappers that record a span: name, start, end,
parent span and operation id. Spans stay in memory; the caller writes them
out when the run ends. Nothing inside geoq changes.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name). The module is where the caller looks the
# name up, which is not always where it is defined.
BOUNDARIES = (
    ("geoq.mesh", "generate_deployment", "mesh.generate_deployment"),
    ("geoq.mesh", "triangulate", "mesh.triangulate"),
    ("geoq.mesh", "double_cover", "mesh.double_cover"),
    ("geoq.embedding", "harmonic_sphere_map", "embedding.harmonic_sphere_map"),
    ("geoq.embedding", "minimize", "embedding.lbfgs"),
    ("geoq.embedding", "splu", "embedding.splu"),
    ("geoq.embedding", "save_embedding", "embedding.save_embedding"),
    ("geoq.embedding", "load_embedding", "embedding.load_embedding"),
    ("geoq.embedding", "distortion_report", "embedding.distortion_report"),
    ("geoq.embedding", "locate", "embedding.locate"),
    ("geoq.loadsim", "locate_many", "embedding.locate_many"),
    ("geoq.loadsim", "sample", "sphere.sample"),
    ("geoq.sphere", "count_intersections", "sphere.count_intersections"),
    ("geoq.loadsim", "write_quorum", "quorums.write_quorum"),
    ("geoq.loadsim", "read_quorum", "quorums.read_quorum"),
    ("geoq.cli", "run_once", "cli.run_once"),
    ("geoq.cli", "run_workload", "loadsim.run"),
    ("geoq.loadsim", "charge", "loadsim.charge"),
)


def _count_points(tracer, args, kwargs, result):
    tracer.count["embedding.locate_many.points"] += len(args[0])


def _count_samples(tracer, args, kwargs, result):
    tracer.count["sphere.sample.points"] += len(result.points)


def _count_triangles(tracer, args, kwargs, result):
    tracer.count["loadsim.charge.triangles"] += len(args[1])


def _count_lbfgs(tracer, args, kwargs, result):
    tracer.count["embedding.lbfgs.nit"] += result.nit
    tracer.count["embedding.lbfgs.nfev"] += result.nfev
    tracer.notes.append(f"lbfgs: nit={result.nit} nfev={result.nfev} message={result.message!s}")


COUNTERS = {
    "embedding.locate_many": _count_points,
    "sphere.sample": _count_samples,
    "loadsim.charge": _count_triangles,
    "embedding.lbfgs": _count_lbfgs,
}

# Per-layer metrics: (name, unit). `.calls` and `.s` come from the spans of
# that name, `.self_s` subtracts the time of its child spans, the rest are
# counters. `PER_LAYER` is what BENCHMARK.json lists.
PER_LAYER = (
    ("mesh.generate_deployment.s", "s"),
    ("mesh.triangulate.s", "s"),
    ("mesh.double_cover.s", "s"),
    ("embedding.lbfgs.s", "s"),
    ("embedding.lbfgs.nit", "count"),
    ("embedding.lbfgs.nfev", "count"),
    ("embedding.splu.calls", "count"),
    ("embedding.splu.s", "s"),
    ("embedding.harmonic_sphere_map.s", "s"),
    ("embedding.harmonic_sphere_map.self_s", "s"),
    ("embedding.distortion_report.s", "s"),
    ("embedding.save_embedding.s", "s"),
    ("embedding.load_embedding.s", "s"),
    ("embedding.locate_many.calls", "count"),
    ("embedding.locate_many.points", "count"),
    ("embedding.locate_many.s", "s"),
    ("embedding.locate.calls", "count"),
    ("embedding.locate.s", "s"),
    ("embedding.locate.miss_ratio", "ratio"),
    ("sphere.sample.calls", "count"),
    ("sphere.sample.points", "count"),
    ("sphere.sample.s", "s"),
    ("sphere.count_intersections.calls", "count"),
    ("sphere.count_intersections.s", "s"),
    ("quorums.write_quorum.calls", "count"),
    ("quorums.write_quorum.s", "s"),
    ("quorums.read_quorum.calls", "count"),
    ("quorums.read_quorum.s", "s"),
    ("cli.run_once.calls", "count"),
    ("cli.run_once.self_s", "s"),
    ("loadsim.run.calls", "count"),
    ("loadsim.run.s", "s"),
    ("loadsim.run.self_s", "s"),
    ("loadsim.charge.calls", "count"),
    ("loadsim.charge.triangles", "count"),
    ("loadsim.charge.s", "s"),
)


class Tracer:
    """Records spans at the module boundaries listed in BOUNDARIES."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.count: dict = defaultdict(float)
        self.notes: list[str] = []
        self.op = -1                  # set by the caller; negative during set-up
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in BOUNDARIES:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, COUNTERS.get(name)))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def per_layer(self, setups: int, rounds: int) -> dict:
        """Every PER_LAYER metric: one set-up's share plus one round's share.

        Spans recorded during set-up (negative op id) are divided by the number
        of set-ups, spans inside rounds by the number of rounds; counters are
        only ever incremented inside rounds.
        """
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            share = 1.0 / setups if op < 0 else 1.0 / rounds
            total[name + ".calls"] += share
            total[name + ".s"] += (end - start) * share
            if parent >= 0:
                child[self.spans[parent][0]] += (end - start) * share
        for name in {s[0] for s in self.spans}:
            total[name + ".self_s"] = total[name + ".s"] - child[name]
        for name, value in self.count.items():
            total[name] = value / rounds
        points = total["embedding.locate_many.points"]
        total["embedding.locate.miss_ratio"] = (
            total["embedding.locate.calls"] / points if points else 0.0)
        return {name: {"value": total[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "notes": self.notes}, fh)
