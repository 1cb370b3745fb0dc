"""Experiment driver: deployment generation, embedding, runs, and sweeps.

    geoq generate|map|run|sweep --config <path> [--seed N] [--out <dir>]

Exit codes: 0 success, 2 configuration error, 3 numeric non-convergence.
GEOQ_CACHE_DIR overrides the embedding cache location.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config, preset
from .embedding import (SOLVER_VERSION, SphericalEmbedding, distortion_report,
                        harmonic_sphere_map, load_embedding, save_embedding)
from .errors import ConfigError, GeoqError, NoConvergence
from .loadsim import Metrics, Workload, run as run_workload
from .mesh import (PlanarMesh, double_cover, generate_deployment, load_mesh,
                   mesh_to_text, save_mesh, triangulate)
from .quorums import DataType, QuorumSystemKind, hash_location
from .svgplot import heatmap_svg

CSV_COLUMNS = ("experiment_id", "kind", "r", "a", "R_W", "seed",
               "system_load", "total_load", "robustness_geometric",
               "robustness_discrete", "runtime_ms")


def _num(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def mesh_path(out: Path, cfg: ExperimentConfig, seed: int) -> Path:
    return out / f"mesh_{cfg.nodes}_{seed}.txt"


def cache_dir(cfg: ExperimentConfig, out: Path) -> Path:
    env = os.environ.get("GEOQ_CACHE_DIR")
    if env:
        return Path(env)
    if cfg.cache:
        return Path(cfg.cache)
    return out / "cache"


def _mesh_digest(mesh_text: str, cfg: ExperimentConfig) -> str:
    h = hashlib.blake2b(digest_size=12)
    h.update(mesh_text.encode())
    h.update(f"{cfg.solver_tol}:{cfg.solver_max_iters}:{SOLVER_VERSION}".encode())
    return h.hexdigest()


def _kind_from(cfg: ExperimentConfig) -> QuorumSystemKind:
    if cfg.kind == "GeoQuorum":
        return QuorumSystemKind.geoquorum(cfg.r_w, cfg.a, dual=cfg.dual)
    return QuorumSystemKind(cfg.kind)


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
        path = mesh_path(out, cfg, seed)
        save_mesh(mesh, path)
        paths.append(path)
        print(f"generate: seed={seed} nodes={mesh.n_vertices} "
              f"triangles={mesh.n_triangles} boundary={len(mesh.boundary)} -> {path}")
    return paths


def ensure_embedding(cfg: ExperimentConfig, seed: int, out: Path,
                     quiet: bool = False) -> SphericalEmbedding:
    """Mesh + embedding for one seed, via the on-disk cache when fresh."""
    mpath = mesh_path(out, cfg, seed)
    if mpath.exists():
        mesh = load_mesh(mpath)
    else:
        mesh = build_mesh(cfg, seed)
        out.mkdir(parents=True, exist_ok=True)
        save_mesh(mesh, mpath)
    digest = _mesh_digest(mesh_to_text(mesh), cfg)
    cdir = cache_dir(cfg, out)
    cpath = cdir / f"emb_{digest}.txt"
    if cpath.exists():
        emb = load_embedding(cpath)
        if not quiet:
            print(f"map: seed={seed} cache hit {cpath}")
        return emb
    dbl = double_cover(mesh)
    emb = harmonic_sphere_map(dbl, tol=cfg.solver_tol, max_iters=cfg.solver_max_iters)
    cdir.mkdir(parents=True, exist_ok=True)
    save_embedding(emb, cpath)
    if not quiet:
        print(f"map: seed={seed} solved residual={emb.residual:.3e} -> {cpath}")
    return emb


def cmd_map(cfg: ExperimentConfig, out: Path) -> list[SphericalEmbedding]:
    """Embed every repetition's mesh and print convergence diagnostics."""
    embs = []
    for rep in range(cfg.repetitions):
        seed = cfg.seed + rep
        emb = ensure_embedding(cfg, seed, out)
        z_max = float(np.abs(emb.positions[emb.mesh.boundary, 2]).max())
        rep_report = distortion_report(emb)
        print(f"map: seed={seed} boundary|z|max={z_max:.2e} "
              f"flips={len(emb.flipped_triangles())} "
              f"angle_err_mean={rep_report.mean_angle_error * 100:.2f}% "
              f"residual={emb.residual:.3e}")
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


def run_once(cfg: ExperimentConfig, seed: int, r: float,
             emb: SphericalEmbedding):
    """One repetition at one rate; returns (Metrics, load array, runtime_ms)."""
    t0 = time.perf_counter()
    kind = _kind_from(cfg)
    workload = _workload_for(cfg, seed, r, emb)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    rob_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF2]))
    metrics, load = run_workload(workload, kind, emb, rng,
                                 read_termination=cfg.read_termination,
                                 robustness_trials=cfg.robustness_trials,
                                 robustness_rng=rob_rng)
    ms = (time.perf_counter() - t0) * 1000.0
    return metrics, load, ms


def _rows_for_config(cfg: ExperimentConfig, out: Path, collect_loads=None) -> list[dict]:
    rows = []
    kind = _kind_from(cfg)
    a_str = cfg.a if cfg.kind == "GeoQuorum" else ""
    rw_str = cfg.r_w if cfg.kind == "GeoQuorum" else ""
    for r in cfg.r_values:
        per_rep = []
        for rep in range(cfg.repetitions):
            seed = cfg.seed + rep
            emb = ensure_embedding(cfg, seed, out, quiet=True)
            metrics, load, ms = run_once(cfg, seed, r, emb)
            exp_id = f"{cfg.kind}_r{r:g}"
            rows.append(dict(experiment_id=exp_id, kind=cfg.kind, r=r, a=a_str,
                             R_W=rw_str, seed=seed,
                             system_load=metrics.system_load,
                             total_load=metrics.total_load,
                             robustness_geometric=metrics.robustness_geometric,
                             robustness_discrete=metrics.robustness_discrete,
                             runtime_ms=ms))
            per_rep.append(metrics)
            if collect_loads is not None:
                collect_loads(cfg, seed, r, emb, load)
        sys_loads = np.array([m.system_load for m in per_rep])
        tot_loads = np.array([m.total_load for m in per_rep])
        for stat, reducer in (("mean", np.mean), ("stddev", np.std)):
            rows.append(dict(experiment_id=f"{cfg.kind}_r{r:g}", kind=cfg.kind,
                             r=r, a=a_str, R_W=rw_str, seed=stat,
                             system_load=float(reducer(sys_loads)),
                             total_load=float(reducer(tot_loads)),
                             robustness_geometric="", robustness_discrete="",
                             runtime_ms=""))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            v = row.get(col, "")
            if col in ("experiment_id", "kind") or isinstance(v, str):
                cells.append(str(v))
            else:
                cells.append(_num(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def cmd_run(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Run the workload for each rate and repetition; emit CSV and heatmap."""
    out.mkdir(parents=True, exist_ok=True)
    last_load = {}

    def keep(cfg_, seed, r, emb, load):
        last_load["emb"] = emb
        last_load["load"] = load

    rows = _rows_for_config(cfg, out, collect_loads=keep if cfg.svg else None)
    csv_path = out / cfg.csv
    csv_path.write_text(rows_to_csv(rows))
    print(f"run: wrote {len(rows)} rows -> {csv_path}")
    if cfg.svg and last_load:
        emb = last_load["emb"]
        svg = heatmap_svg(emb.mesh.source.vertices, last_load["load"])
        (out / cfg.svg).write_text(svg)
        print(f"run: wrote heatmap -> {out / cfg.svg}")
    return rows


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> list[dict]:
    """Cross-product execution over the sweep parameter, one concatenated CSV."""
    if not cfg.sweep_parameter:
        raise ConfigError("sweep requires sweep_parameter")
    if not cfg.sweep_values:
        raise ConfigError("sweep requires sweep_values")
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    csv_path = out / cfg.csv
    prefix = len(cfg.sweep_values) > 1  # a degenerate sweep matches cmd_run exactly
    try:
        for value in cfg.sweep_values:
            sub = cfg.with_param(cfg.sweep_parameter, value)
            sub_rows = _rows_for_config(sub, out)
            if prefix:
                tag = f"{value:g}" if isinstance(value, float) else str(value)
                for row in sub_rows:
                    row["experiment_id"] = (f"{cfg.sweep_parameter}={tag}_"
                                            + row["experiment_id"])
            rows.extend(sub_rows)
    except GeoqError:
        rows.append({col: "" for col in CSV_COLUMNS} | {"experiment_id": "partial"})
        csv_path.write_text(rows_to_csv(rows))
        raise
    csv_path.write_text(rows_to_csv(rows))
    print(f"sweep: wrote {len(rows)} rows -> {csv_path}")
    return rows


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
