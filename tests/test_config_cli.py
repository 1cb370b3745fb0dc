import copy
import os
import re
import subprocess
import sys
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import geoq
from geoq import cli
from geoq.cli import CSV_COLUMNS, cmd_generate, cmd_map, cmd_run, cmd_sweep, main
from geoq.config import (ExperimentConfig, config_from_text, config_to_text,
                         preset)
from geoq.errors import ConfigError, DegenerateInput, OutOfRange
from geoq.svgplot import heatmap_svg, ramp_color


def small_cfg(**kw):
    base = dict(nodes=300, seed=5, kind="GeoQuorum", r_w=0.2 * np.pi, a=0.2,
                contributors=20, queriers=5, r_values=(4.0,), repetitions=2,
                csv="out.csv")
    base.update(kw)
    return ExperimentConfig(**base)


# malformed values, each rejected where the config is built: by the parse of
# its items, or by the config's own check of the polygon and the hash point
MALFORMED = ["r_values = 4, abc", "hash_override = 1 0 x", "hash_override = 1 0",
             "hash_override = 0 0 2", "polygon = 0,0 1,0 1,1 0", "polygon = 0,0 1,0 0,0",
             "polygon = 0,0 1,1 1,0 0,1", "sweep_parameter = pitch"]


class TestConfigFormat:
    def test_round_trip(self):
        cfg = small_cfg(svg="heat.svg", sweep_parameter="a",
                        sweep_values=(0.1, 0.2), polygon=((0, 0), (2, 0), (1, 1.5)))
        text = config_to_text(cfg)
        again = config_from_text(text)
        assert again == cfg
        assert config_to_text(again) == text

    def test_defaults_from_empty(self):
        cfg = config_from_text("")
        assert cfg == ExperimentConfig()

    def test_comments_and_sections_ignored(self):
        cfg = config_from_text("[deployment]\nnodes = 128  # desk scale\n")
        assert cfg.nodes == 128

    def test_bad_key(self):
        with pytest.raises(ConfigError):
            config_from_text("bogus = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            config_from_text("nodes = many\n")

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_text("r_values = \n")
        for bad in ("nan", "inf", "-inf", "-1", "0", "4, nan"):
            with pytest.raises(ConfigError):
                config_from_text(f"r_values = {bad}\n")
        with pytest.raises(ConfigError):
            config_from_text("[workload]\ncontributors = 5000\n")
        for bad in ("seed = -1", "events = 0", "mix_samples = 0", "robustness_trials = -3",
                    "solver_max_iters = 0", "solver_tol = 0", "solver_tol = -1e-7",
                    "solver_tol = nan", "solver_tol = inf", "kind = Q",
                    "kind = GeoQuorum\na = 0", "kind = GeoQuorum\nr_w = 4",
                    "kind = GeoQuorum\nr_w = 0.1\na = 0.2"):
            with pytest.raises(ConfigError):
                config_from_text(bad + "\n")

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_value(self, line):
        with pytest.raises(ConfigError):
            config_from_text(line + "\n")

    def test_python_built_config_is_checked(self):
        with pytest.raises(ConfigError):
            small_cfg(polygon=((0, 0), (1, 1), (1, 0), (0, 1)))
        with pytest.raises(ConfigError):
            small_cfg(hash_override=(0.0, 0.0, float("nan")))

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        cfg = config_from_text(block)
        assert cfg.kind == "GeoQuorum" and cfg.sweep_parameter == "a"

    def test_presets(self):
        assert preset("comparison").kind == "GeoQuorum"
        assert preset("paper-scale").nodes == 5000
        assert preset("robustness").sweep_parameter == "k"
        with pytest.raises(ConfigError):
            preset("nope")

    def test_with_param_k_derives_pitch(self):
        cfg = small_cfg(r_w=0.3 * np.pi)
        sub = cfg.with_param("k", 3)
        kind = geoq.QuorumSystemKind.geoquorum(sub.r_w, sub.a)
        assert kind.robustness_target() == 3

    def test_with_param_bad_value(self):
        with pytest.raises(ConfigError):
            small_cfg().with_param("nodes", "many")

    @pytest.mark.parametrize("name, value", [("k", 1.5), ("nodes", 2000.7),
                                             ("contributors", 10.5), ("queriers", 2.5)])
    def test_with_param_fractional_integer(self, name, value):
        with pytest.raises(ConfigError, match=name):
            small_cfg(r_w=0.3 * np.pi).with_param(name, value)

    def test_with_param_integral_float(self):
        # config text reads sweep values as floats
        cfg = small_cfg(r_w=0.3 * np.pi)
        sub = cfg.with_param("nodes", 2000.0)
        assert sub.nodes == 2000 and type(sub.nodes) is int
        assert cfg.with_param("k", 3.0) == cfg.with_param("k", 3)

    def test_with_param_linked_r_w(self):
        cfg = small_cfg(r_w=0.025 * np.pi, a=0.025, link_r_w=True)
        sub = cfg.with_param("a", 0.1)
        assert sub.r_w == pytest.approx(0.1 * np.pi)


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        cfg = small_cfg(repetitions=1)
        p1 = cmd_generate(cfg, tmp_path / "a")[0]
        p2 = cmd_generate(cfg, tmp_path / "b")[0]
        assert p1.read_bytes() == p2.read_bytes()

    def test_polygon_region_nodes_inside(self, tmp_path):
        tri_poly = ((0.0, 0.0), (3.0, 0.0), (1.5, 2.0))
        cfg = small_cfg(polygon=tri_poly, repetitions=1, nodes=200, contributors=10,
                        queriers=2)
        path = cmd_generate(cfg, tmp_path)[0]
        mesh = geoq.load_mesh(path)
        from geoq.mesh import distance_to_polygon
        inside = (geoq.point_in_polygon(mesh.vertices, tri_poly)
                  | (distance_to_polygon(mesh.vertices, tri_poly) < 1e-9))
        assert inside.all()


class TestMap:
    def test_writes_one_embedding_file(self, tmp_path, capsys):
        # perfbench/make_fixture.py maps this config and copies the single
        # out/cache/emb_*.txt it finds
        cfg_path = tmp_path / "map.cfg"
        cfg_path.write_text("repetitions = 1\n")
        assert main(["map", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert "solver: newton accepted=" in capsys.readouterr().out
        (saved,) = (tmp_path / "o" / "cache").glob("emb_*.txt")
        assert geoq.load_embedding(saved).residual < 1e-7


def strip_runtime(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    idx = CSV_COLUMNS.index("runtime_ms")
    return "\n".join(",".join(ln.split(",")[:idx]) for ln in lines)


class TestRun:
    def test_rows_and_aggregates(self, tmp_path):
        cfg = small_cfg(svg="heat.svg")
        rows = cmd_run(cfg, tmp_path)
        data_rows = [r for r in rows if isinstance(r["seed"], int)]
        agg_rows = [r for r in rows if r["seed"] in ("mean", "stddev")]
        assert len(data_rows) == 2 and len(agg_rows) == 2
        sys_loads = np.array([r["system_load"] for r in data_rows])
        mean_row = next(r for r in agg_rows if r["seed"] == "mean")
        std_row = next(r for r in agg_rows if r["seed"] == "stddev")
        assert mean_row["system_load"] == pytest.approx(sys_loads.mean())
        assert std_row["system_load"] == pytest.approx(sys_loads.std())
        assert (tmp_path / "out.csv").exists()

    def test_csv_deterministic_modulo_runtime(self, tmp_path):
        cfg = small_cfg()
        cmd_run(cfg, tmp_path / "r1")
        cmd_run(cfg, tmp_path / "r2")
        a = strip_runtime((tmp_path / "r1" / "out.csv").read_text())
        b = strip_runtime((tmp_path / "r2" / "out.csv").read_text())
        assert a == b

    def test_heatmap_valid_xml_one_marker_per_node(self, tmp_path):
        cfg = small_cfg(svg="heat.svg")
        cmd_run(cfg, tmp_path)
        doc = xml.dom.minidom.parse(str(tmp_path / "heat.svg"))
        circles = doc.getElementsByTagName("circle")
        assert len(circles) == cfg.nodes


class TestSweep:
    def test_multi_value_rows(self, tmp_path):
        cfg = small_cfg(sweep_parameter="a", sweep_values=(0.1, 0.2))
        rows = cmd_sweep(cfg, tmp_path)
        single = cmd_run(cfg.with_param("a", 0.1), tmp_path / "single")
        assert len(rows) == 2 * len(single)
        assert all(r["experiment_id"].startswith("a=") for r in rows)

    def test_single_value_matches_run(self, tmp_path):
        cfg = small_cfg(sweep_parameter="a", sweep_values=(0.2,))
        sweep_rows = cmd_sweep(cfg, tmp_path / "s")
        run_rows = cmd_run(cfg, tmp_path / "r")
        a = strip_runtime((tmp_path / "s" / "out.csv").read_text())
        b = strip_runtime((tmp_path / "r" / "out.csv").read_text())
        assert a == b

    def test_kind_sweep(self, tmp_path):
        cfg = small_cfg(sweep_parameter="kind", sweep_values=("QG", "GeoQuorum"))
        rows = cmd_sweep(cfg, tmp_path)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"QG", "GeoQuorum"}
        assert any(r["experiment_id"].startswith("kind=QG_") for r in rows)

    def test_comparison_preset_covers_four_kinds(self):
        cfg = preset("comparison")
        assert cfg.sweep_parameter == "kind"
        assert set(cfg.sweep_values) == {"QG", "QGm", "QL", "GeoQuorum"}
        assert cfg.r_values == (4.0, 6.0, 8.0, 10.0)

    @pytest.mark.parametrize("name", ["comparison", "load-tuning", "robustness",
                                      "irregular", "paper-scale"])
    def test_preset_round_trips(self, name):
        # round-trips through the text format
        cfg = preset(name)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_partial_marker_on_failure(self, tmp_path):
        cfg = small_cfg(sweep_parameter="k", sweep_values=(1.0, -2.0))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, tmp_path)
        text = (tmp_path / "out.csv").read_text()
        assert "partial" in text

    def test_value_over_the_node_count_is_partial(self, tmp_path):
        cfg = small_cfg(repetitions=1, contributors=10, queriers=2,
                        sweep_parameter="contributors", sweep_values=(10, 400))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, tmp_path)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "contributors=10_GeoQuorum_r4"] * 3 + ["partial"]

    def test_heatmap_one_marker_per_node(self, tmp_path):
        cfg = small_cfg(repetitions=1, nodes=200, contributors=10, queriers=2,
                        svg="heat.svg", sweep_parameter="kind", sweep_values=("QG", "QL"))
        cmd_sweep(cfg, tmp_path)
        doc = xml.dom.minidom.parse(str(tmp_path / "heat.svg"))
        assert len(doc.getElementsByTagName("circle")) == cfg.nodes

    def test_requires_parameter(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_sweep(small_cfg(), tmp_path)


@pytest.fixture
def solves(monkeypatch):
    """The node count of every deployment that geoq.cli solves, in call order."""
    calls = []
    solve = cli.harmonic_sphere_map

    def counted(dbl, **kwargs):
        calls.append(dbl.n_original)
        return solve(dbl, **kwargs)

    monkeypatch.setattr(cli, "harmonic_sphere_map", counted)
    return calls


class TestSolveOnce:
    def test_run_solves_each_seed_once(self, tmp_path, solves):
        rows = cmd_run(small_cfg(r_values=(4.0, 6.0)), tmp_path)
        assert solves == [300, 300]
        assert [r["r"] for r in rows] == [4.0] * 4 + [6.0] * 4   # rate-major

    def test_kind_sweep_shares_the_embeddings(self, tmp_path, solves):
        cfg = small_cfg(r_values=(4.0, 6.0), sweep_parameter="kind",
                        sweep_values=("QG", "GeoQuorum"))
        cmd_sweep(cfg, tmp_path)
        assert solves == [300, 300]

    def test_nodes_sweep_solves_each_deployment(self, tmp_path, solves):
        cfg = small_cfg(contributors=10, sweep_parameter="nodes", sweep_values=(200, 300))
        cmd_sweep(cfg, tmp_path)
        assert solves == [200, 200, 300, 300]

    def test_mesh_file_of_another_region_is_not_read(self, tmp_path):
        # `geoq generate` on a 1.5 x 1 rectangle leaves mesh files of the same
        # nodes and seeds; a square run beside them must not use them
        cfg = small_cfg()
        rect = ((0.0, 0.0), (1.5, 0.0), (1.5, 1.0), (0.0, 1.0))
        cmd_generate(replace(cfg, polygon=rect), tmp_path / "mixed")
        cmd_run(cfg, tmp_path / "mixed")
        cmd_run(cfg, tmp_path / "empty")
        a = strip_runtime((tmp_path / "mixed" / "out.csv").read_text())
        b = strip_runtime((tmp_path / "empty" / "out.csv").read_text())
        assert a == b


GEO = dict(kind="GeoQuorum", r_w=0.2 * np.pi, a=0.2)
REUSE_KINDS = [dict(kind="QG"), dict(kind="QGm"), dict(kind="QL"), dict(kind="QLd"),
               GEO, dict(GEO, dual=True)]
REUSE_MODES = [dict(mode="montecarlo", events=1), dict(mode="montecarlo", events=3),
               dict(mode="expected", mix_samples=4)]
REUSE_RATES = (4.0, 0.3, 1 / 3, 10.0)


@pytest.fixture
def geometries(monkeypatch):
    """The workload of every run whose geometry geoq.cli builds, in call
    order; run_once's memo starts empty."""
    calls = []
    build = cli.run_workload

    def counted(workload, *args, **kwargs):
        calls.append(workload)
        return build(workload, *args, **kwargs)

    monkeypatch.setattr(cli, "run_workload", counted)
    monkeypatch.setattr(cli, "_memo", None)
    return calls


def _run_cfg(**kw):
    return ExperimentConfig(**(dict(nodes=400, contributors=8, queriers=3,
                                    robustness_trials=2) | kw))


class TestRunOnceReuse:
    @pytest.mark.parametrize("mode", REUSE_MODES, ids=["events1", "events3", "expected"])
    @pytest.mark.parametrize("termination", ["full", "first_hit"])
    def test_reuse_is_exact(self, emb400, geometries, mode, termination):
        for kind in REUSE_KINDS:
            cfg = _run_cfg(read_termination=termination, **kind, **mode)
            fresh = []
            for r in REUSE_RATES:
                cli._memo = None
                fresh.append(cli.run_once(cfg, 2, r, emb400)[:2])
            cli._memo = None
            built = len(geometries)
            for r, (metrics, load) in zip(REUSE_RATES, fresh):
                reused, reused_load, _ = cli.run_once(cfg, 2, r, emb400)
                assert reused_load.tobytes() == load.tobytes(), (kind, r)
                assert reused == metrics, (kind, r)
            assert len(geometries) == built + 1   # one build for the four rates

    @pytest.mark.parametrize("change", [dict(kind="QG"), dict(queriers=4),
                                        dict(read_termination="first_hit"),
                                        dict(mode="expected")],
                             ids=lambda c: next(iter(c)))
    def test_changed_config_rebuilds(self, emb400, geometries, change):
        cfg = _run_cfg(**GEO)
        first = cli.run_once(cfg, 2, 4.0, emb400)[1]
        changed = cli.run_once(replace(cfg, **change), 2, 4.0, emb400)[1]
        assert len(geometries) == 2
        assert not np.array_equal(first, changed)
        cli.run_once(cfg, 2, 6.0, emb400)
        assert len(geometries) == 3

    def test_changed_seed_or_embedding_rebuilds(self, emb400, geometries):
        cfg = _run_cfg(**GEO)
        cli.run_once(cfg, 2, 4.0, emb400)
        load = cli.run_once(cfg, 3, 4.0, emb400)[1]
        assert len(geometries) == 2
        other = copy.copy(emb400)   # equal content, another object
        assert np.array_equal(cli.run_once(cfg, 3, 4.0, other)[1], load)
        assert len(geometries) == 3
        cli.run_once(cfg, 3, 6.0, other)
        assert len(geometries) == 3

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_reused_geometry_rejects_a_bad_rate(self, emb400, geometries, rate):
        cfg = _run_cfg(**GEO)
        message = "write_rate_r must be finite and positive"
        with pytest.raises(OutOfRange, match=message):   # fresh
            cli.run_once(cfg, 2, rate, emb400)
        cli.run_once(cfg, 2, 4.0, emb400)
        with pytest.raises(OutOfRange, match=message):   # on the memo's geometry
            cli.run_once(cfg, 2, rate, emb400)
        assert len(geometries) == 1


class TestSweepRows:
    def test_rows_rate_major_and_heatmap_of_last_run(self, tmp_path, monkeypatch):
        runs, heatmaps = [], []
        run_once, heatmap = cli.run_once, cli.heatmap_svg

        def recorded(cfg, seed, r, emb):
            out = run_once(cfg, seed, r, emb)
            runs.append((seed, r, out))
            return out

        def drawn(xy, load):
            heatmaps.append(load)
            return heatmap(xy, load)

        monkeypatch.setattr(cli, "run_once", recorded)
        monkeypatch.setattr(cli, "heatmap_svg", drawn)
        cfg = small_cfg(r_values=(4.0, 6.0), svg="heat.svg")
        rows = cmd_run(cfg, tmp_path)
        # each seed's rates run back to back
        assert [(seed, r) for seed, r, _ in runs] == [(5, 4.0), (5, 6.0), (6, 4.0), (6, 6.0)]
        assert [(row["r"], row["seed"]) for row in rows] == [
            (4.0, 5), (4.0, 6), (4.0, "mean"), (4.0, "stddev"),
            (6.0, 5), (6.0, 6), (6.0, "mean"), (6.0, "stddev")]
        for i, r in enumerate(cfg.r_values):
            metrics = [out[0] for _, rate, out in runs if rate == r]
            block = rows[4 * i:4 * i + 4]
            assert [row["system_load"] for row in block[:2]] == [m.system_load for m in metrics]
            for key in ("system_load", "total_load"):
                values = [getattr(m, key) for m in metrics]
                assert block[2][key] == float(np.mean(values))
                assert block[3][key] == float(np.std(values))
        assert len(heatmaps) == 1 and heatmaps[0] is runs[-1][2][1]

    def test_failure_at_a_later_seed_writes_the_first_rate_rows(self, tmp_path, monkeypatch):
        run_once = cli.run_once
        cfg = small_cfg(r_values=(4.0, 6.0))

        def failing(cfg_, seed, r, emb):
            if seed == cfg.seed + 1:
                raise DegenerateInput("accessor at the hash point")
            return run_once(cfg_, seed, r, emb)

        monkeypatch.setattr(cli, "run_once", failing)
        with pytest.raises(DegenerateInput):
            cmd_run(cfg, tmp_path)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert [ln.split(",")[:6] for ln in lines[1:]] == [
            ["GeoQuorum_r4", "GeoQuorum", "4", "0.2", "0.628319", "5"],
            ["partial", "", "", "", "", ""]]


class TestRobustnessColumns:
    def test_populated_when_requested(self, tmp_path):
        cfg = small_cfg(repetitions=1, nodes=200, contributors=10, queriers=2,
                        robustness_trials=2)
        rows = cmd_run(cfg, tmp_path)
        data_row = next(r for r in rows if isinstance(r["seed"], int))
        assert data_row["robustness_geometric"] >= 1
        assert data_row["robustness_discrete"] >= 1
        text = (tmp_path / "out.csv").read_text()
        header = text.splitlines()[0].split(",")
        first = text.splitlines()[1].split(",")
        assert first[header.index("robustness_geometric")] != ""


class TestHashOverride:
    def test_parse_and_apply(self):
        cfg = config_from_text("[workload]\nhash_override = 0, 0, 1\n")
        assert cfg.hash_override == (0.0, 0.0, 1.0)
        pt = geoq.hash_location(cfg.data_id, cfg.seed, override=cfg.hash_override)
        assert np.allclose(pt, [0, 0, 1])
        # blank means derived from the id
        cfg2 = config_from_text("[workload]\nhash_override = \n")
        assert cfg2.hash_override is None


class TestMain:
    def test_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(small_cfg(repetitions=1, nodes=200,
                                                     contributors=10, queriers=2)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text("nodes = nope\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert main(["run"]) == 2

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_value_exits_2_before_output(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(small_cfg(repetitions=1, nodes=200,
                                                     contributors=10, queriers=2))
                            + line + "\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_exit_code_accessor_on_hash_point(self, tmp_path, capsys):
        # a QL querier at the hash point has no latitude circle
        cfg = small_cfg(repetitions=1, nodes=200, kind="QL", contributors=10, queriers=5)
        emb = cli.embed_seed(cfg, cfg.seed)
        querier = cli._workload_for(cfg, cfg.seed, 4.0, emb).data_types[0].queriers[0]
        hash_point = tuple(emb.node_positions()[querier].tolist())
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(replace(cfg, hash_override=hash_point)))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exit_code_no_convergence(self, tmp_path):
        cfg_path = tmp_path / "nc.cfg"
        cfg = small_cfg(repetitions=1, nodes=200, contributors=10, queriers=2,
                        solver_max_iters=2, solver_tol=1e-16)
        cfg_path.write_text(config_to_text(cfg))
        assert main(["map", "--config", str(cfg_path),
                     "--out", str(tmp_path / "onc")]) == 3

    def test_failed_run_writes_partial(self, tmp_path):
        cfg = small_cfg(repetitions=1, nodes=200, contributors=10, queriers=2,
                        solver_max_iters=2, solver_tol=1e-16)
        cfg_path = tmp_path / "nc.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        lines = (tmp_path / "o" / "out.csv").read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS), "partial" + "," * (len(CSV_COLUMNS) - 1)]

    def test_negative_seed_rejected(self, tmp_path, capsys):
        assert main(["run", "--preset", "comparison", "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "o").exists()

    def test_cache_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            config_from_text("cache = x\n")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("cache = x\n")
        assert main(["map", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_region_key_rejected(self, tmp_path, capsys):
        # `polygon` alone names the region
        with pytest.raises(ConfigError):
            config_from_text("region = polygon\n")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("region = square\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(small_cfg(repetitions=1)))
        assert main(["generate", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(tmp_path / "g")]) == 0
        assert (tmp_path / "g" / "mesh_300_9.txt").exists()

    def test_preset_flag(self, tmp_path):
        assert main(["generate", "--preset", "comparison", "--seed", "3",
                     "--out", str(tmp_path / "p")]) == 0


class TestSvgHelpers:
    def test_ramp_endpoints(self):
        assert ramp_color(0.0) == "#2c7bb6"
        assert ramp_color(1.0) == "#d7191c"

    def test_constant_load(self):
        svg = heatmap_svg(np.array([[0, 0], [1, 0], [0, 1]]), np.array([2.0, 2.0, 2.0]))
        assert svg.count("<circle") == 3
        xml.dom.minidom.parseString(svg)


_RUN_FROM_SAVED = """
import sys
import geoq, geoq.cli
from geoq.config import ExperimentConfig
emb = geoq.load_embedding(sys.argv[1])
cfg = ExperimentConfig(nodes=emb.n_nodes, kind="GeoQuorum", contributors=10, queriers=4,
                       read_termination="first_hit")
metrics, load, _ = geoq.cli.run_once(cfg, 1, 4.0, emb)
assert load.sum() > 0
print(sorted(m for m in ("scipy.optimize", "scipy.sparse.linalg", "scipy.spatial")
             if m in sys.modules))
"""


def test_run_from_saved_embedding_loads_no_solver(emb400, tmp_path):
    # the solver's scipy modules are imported on the first solve, and
    # scipy.spatial on the first triangulation or point location, so a fresh
    # process that runs from a saved embedding never loads them
    path = tmp_path / "emb.txt"
    geoq.save_embedding(emb400, path)
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-c", _RUN_FROM_SAVED, str(path)],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=300, check=False)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
