"""Experiment configuration: a JSON-serializable dataclass plus its hash.

The hash covers every semantically meaningful field, so two configs with
the same hash describe the same experiment; the output directory is
deliberately excluded.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

from ..dp import NOISE_MODES

KINDS = (
    "single_client_curve",
    "rank_table",
    "privacy_heatmap",
    "k_sweep",
    "t_sweep",
    "empirical",
)

RMSFE_AGGREGATES = ("mean", "pooled")

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PanelSpec:
    """One client's CSV panel and its preprocessing.

    transforms: per-column code, or a single code broadcast to every
    column. 0 leaves a column as is, 1 takes first differences, 2 takes
    log differences (positive data only). sensitive lists 1-based column
    indices, none beyond the panel's width (load_panel checks it). They
    are recorded in run manifests only: stage-1 noise goes
    on every gradient coordinate, so they change no result.  label names
    the client in every output: client_id, or the path when it is empty.
    A value of the wrong type raises ValueError, not a coercion: path and
    client_id are strings, standardize a bool, and every transforms and
    sensitive entry an integer other than a bool.
    """

    path: str
    transforms: tuple = (0,)
    standardize: bool = False
    sensitive: tuple = ()
    client_id: str = ""

    def __post_init__(self):
        for name, kind in (("path", str), ("client_id", str), ("standardize", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"panel {name} must be a {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        if _is_int(self.transforms):
            object.__setattr__(self, "transforms", (self.transforms,))
        for name in ("transforms", "sensitive"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or not all(map(_is_int, values)):
                raise ValueError(f"panel {name} entries must be integers, got {values!r}")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        for t in self.transforms:
            if t not in (0, 1, 2):
                raise ValueError(f"unknown transform code {t}")
        if any(i < 1 for i in self.sensitive):
            raise ValueError("sensitive indices are 1-based")

    @property
    def label(self):
        return self.client_id or self.path


# numeric fields by type; None is allowed where it is the default
_INT_FIELDS = ("reps", "d", "p", "rank", "n_clients", "t_len", "fista_iters",
               "n_origins", "rounds")
_FLOAT_FIELDS = ("eps", "delta", "kappa", "sensitivity", "ratio", "q", "s_q",
                 "target_radius", "lam_scale", "omega_scale", "zeta", "rho_scale",
                 "varpi_scale")
_NONE_ALLOWED = ("rounds", "zeta")


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_types(cfg):
    """ValueError for a numeric field or grid entry of the wrong type, such
    as a JSON string or boolean; int fields and int grids take integers."""
    for names, ok, what in ((_INT_FIELDS, _is_int, "an integer"),
                            (_FLOAT_FIELDS, _is_real, "a number")):
        for name in names:
            v = getattr(cfg, name)
            if not ok(v) and not (v is None and name in _NONE_ALLOWED):
                raise ValueError(f"{name} must be {what}, got {v!r}")
    for name in ("t_grid", "rank_grid", "k_grid"):
        for v in getattr(cfg, name):
            if not (_is_real(v) and float(v).is_integer()):
                raise ValueError(f"{name} entries must be integers, got {v!r}")
    for name in ("eps_grid", "delta_grid"):
        for v in getattr(cfg, name):
            if not _is_real(v):
                raise ValueError(f"{name} entries must be numbers, got {v!r}")


def _panel_spec(doc):
    """A PanelSpec from a JSON panel object; unknown keys raise ValueError."""
    if not isinstance(doc, dict) or "path" not in doc:
        raise ValueError(f"a panel must be an object with a path, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(PanelSpec)})
    if unknown:
        raise ValueError(f"unknown panel fields: {', '.join(unknown)}")
    return PanelSpec(**doc)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs besides the output location.

    Grid fields left empty fall back to per-kind defaults at run time.
    rounds=None means the ceil(10 log T) default.  Numeric fields and grid
    entries must be numbers (integers where the field counts something);
    a string or a boolean raises ValueError.  A simulated rank lies in
    [1, d]: every ``rank_grid`` entry of a rank_table, and ``rank`` for
    the other simulation kinds; ``t_grid`` and ``k_grid`` entries are
    >= 1; ``target_radius`` lies in (0, 1).  The privacy fields are
    checked in every noise mode, so a bad one fails before any
    replication.
    Two panels may not share a label (PanelSpec.label).
    """

    kind: str
    seed: int
    out_dir: str = "out"
    d: int = 20
    p: int = 1
    rank: int = 2
    n_clients: int = 5
    t_len: int = 400
    reps: int = 100
    t_grid: tuple = ()
    rank_grid: tuple = ()
    k_grid: tuple = ()
    eps_grid: tuple = ()
    delta_grid: tuple = ()
    eps: float = 2.0
    delta: float = 0.1
    noise_mode: str = "none"
    kappa: float = 1.0
    sensitivity: float = 1.0
    ratio: float = 5.0
    q: float = 0.1
    s_q: float = 10.0
    target_radius: float = 0.9
    lam_scale: float = 1.4
    omega_scale: float = 1.0
    zeta: float | None = None
    rho_scale: float = 0.5
    varpi_scale: float = 0.5
    rounds: int | None = None
    fista_iters: int = 20
    n_origins: int = 20
    rmsfe_agg: str = "mean"
    panels: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        _check_types(self)
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for name in ("d", "p", "rank", "n_clients", "t_len", "fista_iters", "n_origins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.rmsfe_agg not in RMSFE_AGGREGATES:
            raise ValueError(f"unknown rmsfe aggregate {self.rmsfe_agg!r}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1 when given")
        for name in ("t_grid", "rank_grid", "k_grid"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        for name in ("eps_grid", "delta_grid"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        for name in ("t_grid", "k_grid"):
            if not all(v >= 1 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be >= 1, got {getattr(self, name)}")
        # an empirical run takes d from its panels and checks rank once they load
        if self.kind != "empirical":
            ranks = self.rank_grid if self.kind == "rank_table" else (self.rank,)
            for r in ranks:
                if not 1 <= r <= self.d:
                    raise ValueError(f"rank {r} outside [1, d={self.d}] for {self.kind}")
        # the worlds' largest companion radius: 0 gives all-zero coefficients,
        # 1 or more a world no path can be simulated from
        if not 0 < self.target_radius < 1:
            raise ValueError(f"target_radius must lie in (0, 1), got {self.target_radius}")
        # an infinite eps would calibrate a "private" run with no noise
        for name in ("eps", "kappa", "sensitivity"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not all(0 < v < math.inf for v in self.eps_grid):
            raise ValueError(
                f"eps_grid entries must be positive and finite, got {self.eps_grid}"
            )
        if not all(0 < v < 1 for v in self.delta_grid):
            raise ValueError(f"delta_grid entries must lie in (0, 1), got {self.delta_grid}")
        specs = tuple(
            s if isinstance(s, PanelSpec) else _panel_spec(s) for s in self.panels
        )
        object.__setattr__(self, "panels", specs)
        labels = [s.label for s in specs]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(
                    f"two panels are labelled {label!r}; set distinct client_ids"
                )
        if self.kind == "empirical" and not specs:
            raise ValueError("empirical experiments need at least one panel")


def to_json(cfg, path=None):
    """The public config writer: the JSON text of a config, also written
    to ``path`` if given.  ``from_json`` reads it back, so
    ``from_json(text=to_json(cfg)) == cfg``."""
    doc = asdict(cfg)
    doc["format_version"] = FORMAT_VERSION
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def from_json(text=None, path=None, overrides=None):
    """Parse a config from JSON text or a file, applying CLI overrides."""
    if (text is None) == (path is None):
        raise ValueError("pass exactly one of text or path")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    version = doc.pop("format_version", FORMAT_VERSION)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ValueError(f"format_version {version!r} is not {FORMAT_VERSION}")
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    if "kind" not in doc or "seed" not in doc:
        raise ValueError("config must set kind and seed")
    for name in ("t_grid", "rank_grid", "k_grid", "eps_grid", "delta_grid", "panels"):
        if name in doc and isinstance(doc[name], list):
            doc[name] = tuple(doc[name])
    return ExperimentConfig(**doc)


def config_hash(cfg):
    """Hex digest over every field except the output directory."""
    doc = asdict(cfg)
    doc.pop("out_dir")
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
