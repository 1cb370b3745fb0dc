"""Experiment driver: deployment generation, embedding, runs, and sweeps.

    geoq generate|map|run|sweep --config <path> [--seed N] [--out <dir>]

`map`, `run` and `sweep` build each seed's deployment from the config and
solve its embedding in process, once per command for each deployment and
solver setting; every rate and sweep value runs on that one embedding.
`map` also saves each embedding as <out>/cache/emb_<nodes>_<seed>.txt, a
file that geoq itself never reads.

`run` is the one-value case of `sweep`: each writes one CSV (on a failure, the
rows so far and a `partial` row) and, with `svg` set, the last run's heatmap.
The write rate r scales every write and no read: each seed's accesses are
drawn, rasterized and charged once, as a writes load and a reads load at
rate 1 (`loadsim.run_geometry`), each rate in `r_values` takes
r * writes + reads, and the rows are still written rate by rate.

Exit codes: 0 success, 2 configuration error, 3 numeric non-convergence.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config, preset
from .embedding import (SphericalEmbedding, distortion_report, harmonic_sphere_map,
                        save_embedding)
from .errors import ConfigError, GeoqError, NoConvergence
# bound as run_workload for the benchmark's tracer, which wraps geoq.cli.run_workload
from .loadsim import Workload, run_geometry as run_workload
from .mesh import PlanarMesh, double_cover, generate_deployment, save_mesh, triangulate
from .quorums import DataType, hash_location
from .svgplot import heatmap_svg

CSV_COLUMNS = ("experiment_id", "kind", "r", "a", "R_W", "seed",
               "system_load", "total_load", "robustness_geometric",
               "robustness_discrete", "runtime_ms")


def _num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def build_mesh(cfg: ExperimentConfig, seed: int) -> PlanarMesh:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    poly = cfg.region_polygon()
    pts = generate_deployment(poly, cfg.nodes, rng)
    return triangulate(pts, boundary=poly)


def cmd_generate(cfg: ExperimentConfig, out: Path) -> list[Path]:
    """Generate seeded deployments and write their mesh files."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rep in range(cfg.repetitions):
        seed = cfg.seed + rep
        mesh = build_mesh(cfg, seed)
        path = out / f"mesh_{cfg.nodes}_{seed}.txt"
        save_mesh(mesh, path)
        paths.append(path)
        print(f"generate: seed={seed} nodes={mesh.n_vertices} "
              f"triangles={mesh.n_triangles} boundary={len(mesh.boundary)} -> {path}")
    return paths


def embed_seed(cfg: ExperimentConfig, seed: int) -> SphericalEmbedding:
    """The sphere embedding of one seed's deployment, solved from the config."""
    return harmonic_sphere_map(double_cover(build_mesh(cfg, seed)), tol=cfg.solver_tol,
                               max_iters=cfg.solver_max_iters)


def cmd_map(cfg: ExperimentConfig, out: Path) -> list[SphericalEmbedding]:
    """Embed every repetition's deployment, save each embedding under
    out/cache, and print convergence diagnostics."""
    cdir = out / "cache"
    cdir.mkdir(parents=True, exist_ok=True)
    embs = []
    for rep in range(cfg.repetitions):
        seed = cfg.seed + rep
        emb = embed_seed(cfg, seed)
        path = cdir / f"emb_{cfg.nodes}_{seed}.txt"
        save_embedding(emb, path)
        z_max = float(np.abs(emb.positions[emb.mesh.boundary, 2]).max())
        rep_report = distortion_report(emb)
        print(f"map: seed={seed} boundary|z|max={z_max:.2e} "
              f"flips={len(emb.flipped_triangles())} "
              f"angle_err_mean={rep_report.mean_angle_error * 100:.2f}% "
              f"residual={emb.residual:.3e} -> {path}")
        print(f"map: seed={seed} solver: {emb.stats.summary()}")
        embs.append(emb)
    return embs


def _workload_for(cfg: ExperimentConfig, seed: int, r: float, emb) -> Workload:
    n = emb.n_nodes
    rng_c = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    rng_q = np.random.default_rng(np.random.SeedSequence([seed, 0xB1]))
    contributors = tuple(int(i) for i in rng_c.permutation(n)[:cfg.contributors])
    queriers = tuple(int(i) for i in rng_q.permutation(n)[:cfg.queriers])
    hp = hash_location(cfg.data_id, seed, override=cfg.hash_override)
    data = DataType(id=cfg.data_id, hash_point=hp,
                    contributors=contributors, queriers=queriers)
    return Workload(data_types=(data,), write_rate_r=float(r), mode=cfg.mode,
                    events=cfg.events, mix_samples=cfg.mix_samples)


# run_once's last run: ((config, seed), embedding, its RunGeometry's two loads)
_memo = None


def run_once(cfg: ExperimentConfig, seed: int, r: float,
             emb: SphericalEmbedding):
    """One repetition at one rate; returns (Metrics, load array, runtime_ms).

    The load is r * writes + reads. Those rate-1 loads and the robustness
    counts depend on the config and the seed alone, so a call with the
    config and seed of the call before it, on the same embedding object,
    takes that call's loads at r and draws nothing. The memo holds those
    two per-node arrays. Like the embedding's lazy k-d tree, edges and
    planes, it assumes that an embedding is not changed after it is built.
    """
    global _memo
    t0 = time.perf_counter()
    memo = _memo   # read once: a call charges the geometry it checked
    if memo is None or memo[0] != (cfg, seed) or memo[1] is not emb:
        _memo = memo = None   # at most one run's geometry, also while the next is built
        workload = _workload_for(cfg, seed, r, emb)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
        rob_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF2]))
        geometry = run_workload(workload, cfg.system(), emb, rng,
                                read_termination=cfg.read_termination,
                                robustness_trials=cfg.robustness_trials,
                                robustness_rng=rob_rng)
        _memo = memo = ((cfg, seed), emb, geometry)
    metrics, load = memo[2].charge(r)
    ms = (time.perf_counter() - t0) * 1000.0
    return metrics, load, ms


def _rows_for_config(cfg: ExperimentConfig, embs: dict, rows: list, prefix: str):
    """Append the CSV rows of every rate and repetition to `rows`, rate by
    rate, and return the (embedding, load) of the last rate's last seed.

    Each seed runs its rates back to back, so that `run_once` rasterizes its
    accesses once. A GeoqError never depends on r, so it comes at a seed's
    first rate: `rows` then gets the first rate's rows of the seeds before
    it, as a rate-by-rate run would have written them."""
    geo = cfg.kind == "GeoQuorum"
    commons = [dict(experiment_id=f"{prefix}{cfg.kind}_r{r:g}", kind=cfg.kind, r=r,
                    a=cfg.a if geo else "", R_W=cfg.r_w if geo else "")
               for r in cfg.r_values]
    per_seed = []   # each seed's rows, one per rate
    try:
        for rep in range(cfg.repetitions):
            seed = cfg.seed + rep
            key = (cfg.nodes, cfg.polygon, seed, cfg.solver_tol, cfg.solver_max_iters)
            if key not in embs:   # solved once per command
                embs[key] = embed_seed(cfg, seed)
            emb = embs[key]
            seed_rows = []
            for r, common in zip(cfg.r_values, commons):
                metrics, load, ms = run_once(cfg, seed, r, emb)
                seed_rows.append(common | dict(
                    seed=seed, system_load=metrics.system_load, total_load=metrics.total_load,
                    robustness_geometric=metrics.robustness_geometric,
                    robustness_discrete=metrics.robustness_discrete, runtime_ms=ms))
            per_seed.append(seed_rows)
    except GeoqError:
        rows.extend(seed_rows[0] for seed_rows in per_seed)
        raise
    for common, rate_rows in zip(commons, zip(*per_seed)):
        rows.extend(rate_rows)
        sys_loads = [row["system_load"] for row in rate_rows]
        tot_loads = [row["total_load"] for row in rate_rows]
        for stat, reducer in (("mean", np.mean), ("stddev", np.std)):
            rows.append(common | dict(seed=stat, system_load=float(reducer(sys_loads)),
                                      total_load=float(reducer(tot_loads)),
                                      robustness_geometric="", robustness_discrete="",
                                      runtime_ms=""))
    return emb, load


def rows_to_csv(rows: list[dict]) -> str:
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = (row.get(col, "") for col in CSV_COLUMNS)
        out.append(",".join(v if isinstance(v, str) else _num(v) for v in cells))
    return "\n".join(out) + "\n"


def _run_configs(cfg: ExperimentConfig, out: Path, command: str, configs) -> list[dict]:
    """Run each (experiment id prefix, config) of `configs` into one CSV, and
    the last run's heatmap when `svg` is set. On a GeoqError, also one raised
    while `configs` builds a config, the CSV holds the rows so far and `partial`."""
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    csv_path = out / cfg.csv
    embs: dict = {}   # shared by the configs that keep the deployment
    try:
        for prefix, sub in configs:
            emb, load = _rows_for_config(sub, embs, rows, prefix)
    except GeoqError:
        rows.append({col: "" for col in CSV_COLUMNS} | {"experiment_id": "partial"})
        csv_path.write_text(rows_to_csv(rows))
        raise
    csv_path.write_text(rows_to_csv(rows))
    print(f"{command}: wrote {len(rows)} rows -> {csv_path}")
    if cfg.svg:
        (out / cfg.svg).write_text(heatmap_svg(emb.mesh.source.vertices, load))
        print(f"{command}: wrote heatmap -> {out / cfg.svg}")
    return rows


def cmd_run(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Run the workload for each rate and repetition; emit CSV and heatmap."""
    return _run_configs(cfg, out, "run", [("", cfg)])


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Cross-product execution over the sweep parameter, one concatenated CSV."""
    if not cfg.sweep_parameter:
        raise ConfigError("sweep requires sweep_parameter")
    if not cfg.sweep_values:
        raise ConfigError("sweep requires sweep_values")

    def configs():   # built lazily, so a bad value fails after the rows before it
        for value in cfg.sweep_values:
            tag = f"{value:g}" if isinstance(value, float) else str(value)
            # a one-value sweep matches cmd_run exactly
            prefix = f"{cfg.sweep_parameter}={tag}_" if len(cfg.sweep_values) > 1 else ""
            yield prefix, cfg.with_param(cfg.sweep_parameter, value)

    return _run_configs(cfg, out, "sweep", configs())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="geoq",
                                     description="geometric quorum system experiments")
    parser.add_argument("command", choices=("generate", "map", "run", "sweep"))
    parser.add_argument("--config", required=False, help="config file path")
    parser.add_argument("--preset", required=False, help="named preset instead of a file")
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.preset:
            cfg = preset(args.preset)
        else:
            raise ConfigError("need --config or --preset")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out)
        if args.command == "generate":
            cmd_generate(cfg, out)
        elif args.command == "map":
            cmd_map(cfg, out)
        elif args.command == "run":
            cmd_run(cfg, out)
        else:
            cmd_sweep(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"no convergence: {exc} (residual {exc.residual:.3e})", file=sys.stderr)
        return 3
    except (OSError, GeoqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
