"""Experiment configuration: a flat `key = value` text format with sections.

Every field has a default, so an empty file is a valid config; serializing and
re-parsing a config reproduces it exactly. Every config is validated where it
is built, however it is built, and an invalid one raises `ConfigError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral

import numpy as np

from .errors import ConfigError, DegenerateInput, OutOfRange
from .mesh import polygon_area, validate_simple_polygon
from .quorums import QuorumSystemKind
from .sphere import require_unit

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
    polygon: tuple = SQUARE           # the deployment region's outline
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
    solver_max_iters: int = 40        # Newton steps per round of the sphere solve
    # sweep
    sweep_parameter: str = ""
    sweep_values: tuple = ()
    link_r_w: bool = False
    # outputs
    csv: str = "results.csv"
    svg: str = ""

    def __post_init__(self):
        _validate(self)

    def region_polygon(self) -> np.ndarray:
        return np.asarray(self.polygon, dtype=float)

    def system(self) -> QuorumSystemKind:
        """The quorum system this config runs."""
        if self.kind == "GeoQuorum":
            return QuorumSystemKind.geoquorum(self.r_w, self.a, dual=self.dual)
        return QuorumSystemKind(self.kind)

    def with_param(self, name: str, value):
        """A copy with one sweep parameter replaced (used by cmd_sweep): a
        field of _SWEEP_FIELDS, read with its default's type, or `k`, the
        robustness target with r_w held fixed, which sets a = r_w / (k pi).
        An integer parameter takes only an integral value, such as 2000.0."""
        if name != "k" and name not in _SWEEP_FIELDS:
            raise ConfigError(f"unknown sweep parameter {name!r}")
        typ = int if name == "k" else type(getattr(_DEFAULTS, name))
        try:
            cast = typ(value)
            if typ is int and float(value) != cast:
                raise ValueError("not an integer")
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {name} sweep value {value!r}") from exc
        value = cast
        if name == "k":
            if value < 1:
                raise ConfigError("robustness target k must be >= 1")
            return replace(self, a=self.r_w / (value * np.pi))
        changes = {name: value}
        if name == "a" and self.link_r_w:
            k = max(int(np.floor(self.r_w / (self.a * np.pi) + 1e-9)), 1)
            changes["r_w"] = k * value * np.pi
        return replace(self, **changes)


_SWEEP_FIELDS = ("kind", "a", "r_w", "nodes", "contributors", "queriers")

_SECTIONS = {
    "deployment": ("nodes", "polygon", "seed"),
    "system": ("kind", "r_w", "a", "dual"),
    "workload": ("contributors", "queriers", "r_values", "mode", "events",
                 "mix_samples", "read_termination", "data_id", "hash_override"),
    "run": ("repetitions", "robustness_trials", "solver_tol", "solver_max_iters"),
    "sweep": ("sweep_parameter", "sweep_values", "link_r_w"),
    "outputs": ("csv", "svg"),
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


def _vertex(item: str) -> tuple:
    return tuple(float(c) for c in item.split(","))


def _number_or_name(item: str):
    try:
        return float(item)
    except ValueError:
        return item   # kind sweeps carry names


# how each list-valued key reads one item: a polygon vertex is "x,y", and
# the other lists separate their items by commas or spaces
_ITEMS = {"polygon": _vertex, "hash_override": float, "r_values": float,
          "sweep_values": _number_or_name}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, raw: str):
    """`raw` read as `key`'s value: a list key item by item (an empty list
    reads as the default, but r_values must be given), any other key with
    its default's type."""
    raw = raw.strip()
    default = getattr(_DEFAULTS, key)
    try:
        if key in _ITEMS:
            items = raw.split() if key == "polygon" else raw.replace(",", " ").split()
            value = tuple(_ITEMS[key](item) for item in items)
            return value if value or key == "r_values" else default
        return _BOOLS[raw.lower()] if isinstance(default, bool) else type(default)(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


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
    return ExperimentConfig(**values)


def _validate(cfg: ExperimentConfig) -> None:
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if type(field.default) is int and not isinstance(value, Integral):
            raise ConfigError(f"{field.name} must be an integer, got {value!r}")
    if cfg.nodes < 16:
        raise ConfigError("nodes must be at least 16")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if not cfg.r_values:
        raise ConfigError("r_values must be non-empty")
    if not all(math.isfinite(r) and r > 0 for r in cfg.r_values):
        raise ConfigError(f"r_values must be finite and positive, got {cfg.r_values}")
    try:   # the kind name, GeoQuorum's r_w and a, the region and the hash point
        cfg.system()
        if any(len(v) != 2 for v in cfg.polygon):
            raise DegenerateInput(f"polygon vertices must be (x, y) pairs, got {cfg.polygon}")
        validate_simple_polygon(cfg.polygon)   # three or more vertices, no crossing
        if not 0 < polygon_area(cfg.polygon) < math.inf:
            raise DegenerateInput(f"polygon encloses no finite area: {cfg.polygon}")
        if cfg.hash_override is not None:
            if len(cfg.hash_override) != 3:
                raise DegenerateInput("hash_override needs three coordinates")
            require_unit(cfg.hash_override)
    except (DegenerateInput, OutOfRange) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.sweep_parameter not in ("", "k", *_SWEEP_FIELDS):
        raise ConfigError(f"unknown sweep parameter {cfg.sweep_parameter!r}")
    if cfg.mode not in ("montecarlo", "expected"):
        raise ConfigError(f"unknown workload mode {cfg.mode!r}")
    if cfg.read_termination not in ("full", "first_hit"):
        raise ConfigError(f"unknown read_termination {cfg.read_termination!r}")
    if cfg.contributors < 1 or cfg.queriers < 0:
        raise ConfigError("need at least one contributor")
    if cfg.contributors + cfg.queriers > cfg.nodes:
        raise ConfigError("more accessors than nodes")
    if cfg.events < 1 or cfg.mix_samples < 1:
        raise ConfigError("events and mix_samples must be >= 1")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if cfg.robustness_trials < 0:
        raise ConfigError("robustness_trials must be >= 0")
    if cfg.solver_max_iters < 1:
        raise ConfigError("solver_max_iters must be >= 1")
    if not (math.isfinite(cfg.solver_tol) and cfg.solver_tol > 0):
        raise ConfigError(f"solver_tol must be finite and positive, got {cfg.solver_tol}")


_DEFAULTS = ExperimentConfig()


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
                                polygon=IRREGULAR,
                                kind="GeoQuorum", r_w=0.2 * np.pi, a=0.2)
    raise ConfigError(f"unknown preset {name!r}")
