"""Experiment configuration: a flat `key = value` text format with sections.

Every field has a default, so an empty file is a valid config; serializing and
re-parsing a config reproduces it exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .quorums import KIND_NAMES

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def _rounded_l_polygon(n_arc: int = 10, r: float = 0.3) -> tuple:
    """L-shaped region with the reflex corner rounded off (smooth notch).

    Sharp reflex corners concentrate conformal distortion; the paper-style
    irregular areas have smooth outlines.
    """
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0)]
    cx, cy = 1.0 + r, 1.0 + r  # arc center inside the notch
    for k in range(n_arc + 1):
        ang = 1.5 * np.pi - (np.pi / 2) * k / n_arc  # (1+r, 1) -> (1, 1+r)
        pts.append((cx + r * np.cos(ang), cy + r * np.sin(ang)))
    pts += [(1.0, 2.0), (0.0, 2.0)]
    return tuple((float(x), float(y)) for x, y in pts)


IRREGULAR = _rounded_l_polygon()


@dataclass(frozen=True)
class ExperimentConfig:
    # deployment
    nodes: int = 2000
    region: str = "square"            # square | polygon
    polygon: tuple = SQUARE           # used when region == polygon
    seed: int = 1
    # system
    kind: str = "QG"
    r_w: float = 0.2 * np.pi
    a: float = 0.2
    dual: bool = False
    # workload
    contributors: int = 100
    queriers: int = 20
    r_values: tuple = (4.0, 6.0, 8.0, 10.0)
    mode: str = "montecarlo"
    events: int = 1
    mix_samples: int = 16
    read_termination: str = "full"
    data_id: str = "d0"
    hash_override: tuple | None = None
    # run
    repetitions: int = 10
    robustness_trials: int = 0
    solver_tol: float = 1e-7
    solver_max_iters: int = 20000
    # sweep
    sweep_parameter: str = ""
    sweep_values: tuple = ()
    link_r_w: bool = False
    # outputs
    csv: str = "results.csv"
    svg: str = ""
    cache: str = ""

    def region_polygon(self) -> np.ndarray:
        if self.region == "square":
            return np.asarray(SQUARE, dtype=float)
        if self.region == "polygon":
            return np.asarray(self.polygon, dtype=float)
        raise ConfigError(f"unknown region {self.region!r}")

    def with_param(self, name: str, value):
        """A copy with one sweep parameter replaced (used by cmd_sweep)."""
        if name == "kind":
            kind = str(value)
            if kind not in KIND_NAMES:
                raise ConfigError(f"unknown system kind {kind!r}")
            return replace(self, kind=kind)
        if name == "a":
            new = replace(self, a=float(value))
            if self.link_r_w:
                k = max(int(np.floor(self.r_w / (self.a * np.pi) + 1e-9)), 1)
                new = replace(new, r_w=k * float(value) * np.pi)
            return new
        if name == "r_w":
            return replace(self, r_w=float(value))
        if name == "k":
            # robustness target with r_w held fixed: a = r_w / (k pi)
            k = int(value)
            if k < 1:
                raise ConfigError("robustness target k must be >= 1")
            return replace(self, a=self.r_w / (k * np.pi))
        if name == "nodes":
            return replace(self, nodes=int(value))
        if name == "contributors":
            return replace(self, contributors=int(value))
        if name == "queriers":
            return replace(self, queriers=int(value))
        raise ConfigError(f"unknown sweep parameter {name!r}")


_SECTIONS = {
    "deployment": ("nodes", "region", "polygon", "seed"),
    "system": ("kind", "r_w", "a", "dual"),
    "workload": ("contributors", "queriers", "r_values", "mode", "events",
                 "mix_samples", "read_termination", "data_id", "hash_override"),
    "run": ("repetitions", "robustness_trials", "solver_tol", "solver_max_iters"),
    "sweep": ("sweep_parameter", "sweep_values", "link_r_w"),
    "outputs": ("csv", "svg", "cache"),
}

_KEY_TO_SECTION = {k: s for s, keys in _SECTIONS.items() for k in keys}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip decimal
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):  # polygon: "x,y x,y ..."
            return " ".join(f"{repr(float(x))},{repr(float(y))}" for x, y in value)
        return ", ".join(_fmt(v) for v in value)
    if value is None:
        return ""
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_fmt(getattr(cfg, key))}")
        lines.append("")
    return "\n".join(lines)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    default = getattr(ExperimentConfig(), key)
    if key == "polygon":
        if not raw:
            return SQUARE
        try:
            return tuple(tuple(float(c) for c in pair.split(",")) for pair in raw.split())
        except ValueError as exc:
            raise ConfigError(f"bad polygon spec {raw!r}") from exc
    if key == "hash_override":
        if not raw:
            return None
        parts = [float(c) for c in raw.replace(",", " ").split()]
        if len(parts) != 3:
            raise ConfigError("hash_override needs three coordinates")
        return tuple(parts)
    if key == "r_values":
        if not raw:
            return ()
        return tuple(float(v) for v in raw.replace(",", " ").split())
    if key == "sweep_values":
        if not raw:
            return ()
        vals = []
        for v in raw.replace(",", " ").split():
            try:
                vals.append(float(v))
            except ValueError:
                vals.append(v)  # kind sweeps carry names
        return tuple(vals)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer for {key}: {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad number for {key}: {raw!r}") from exc
    return raw


def config_from_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped or (stripped.startswith("[") and stripped.endswith("]")):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TO_SECTION:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.nodes < 16:
        raise ConfigError("nodes must be at least 16")
    if not cfg.r_values:
        raise ConfigError("r_values must be non-empty")
    if cfg.kind not in KIND_NAMES:
        raise ConfigError(f"unknown system kind {cfg.kind!r}")
    if cfg.mode not in ("montecarlo", "expected"):
        raise ConfigError(f"unknown workload mode {cfg.mode!r}")
    if cfg.read_termination not in ("full", "first_hit"):
        raise ConfigError(f"unknown read_termination {cfg.read_termination!r}")
    if cfg.contributors < 1 or cfg.queriers < 0:
        raise ConfigError("need at least one contributor")
    if cfg.contributors + cfg.queriers > cfg.nodes:
        raise ConfigError("more accessors than nodes")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_text(fh.read())


# ---------------------------------------------------------------------------
# presets

def preset(name: str) -> ExperimentConfig:
    """Named experiment presets at desk scale."""
    if name == "comparison":
        return ExperimentConfig(kind="GeoQuorum", r_w=0.2 * np.pi, a=0.2,
                                r_values=(4.0, 6.0, 8.0, 10.0),
                                sweep_parameter="kind",
                                sweep_values=("QG", "QGm", "QL", "GeoQuorum"))
    if name == "paper-scale":
        return ExperimentConfig(nodes=5000, contributors=500, queriers=100,
                                kind="GeoQuorum", r_w=0.2 * np.pi, a=0.2)
    if name == "load-tuning":
        return ExperimentConfig(kind="GeoQuorum", r_w=0.025 * np.pi, a=0.025,
                                sweep_parameter="a",
                                sweep_values=(0.025, 0.05, 0.1, 0.2, 0.3),
                                link_r_w=True)
    if name == "robustness":
        return ExperimentConfig(kind="GeoQuorum", r_w=0.3 * np.pi, a=0.3,
                                sweep_parameter="k",
                                sweep_values=(1, 2, 3, 4, 5))
    if name == "irregular":
        return ExperimentConfig(nodes=4000, contributors=400, queriers=100,
                                region="polygon", polygon=IRREGULAR,
                                kind="GeoQuorum", r_w=0.2 * np.pi, a=0.2)
    raise ConfigError(f"unknown preset {name!r}")
