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

import numpy as np

from ..dp import NOISE_MODES
from ..matops import SVD_DIM_CAP

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


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Each kind's grid defaults, filled in where a config leaves a grid empty.
KIND_DEFAULTS = {
    "single_client_curve": {"t_grid": (200, 400, 800, 1600)},
    "rank_table": {"t_grid": (400, 1600), "rank_grid": (1, 2, 3)},
    "privacy_heatmap": {"eps_grid": (0.5, 1.0, 2.0, 4.0)},
    "k_sweep": {"k_grid": (2, 5, 10)},
    "t_sweep": {"t_grid": (200, 400, 800)},
    "empirical": {},
}

KINDS = tuple(KIND_DEFAULTS)

# One row per numeric field and grid (for a *_grid, its entries): the
# type, the interval every value lies in ("(" and ")" mark open ends, "["
# and "]" closed ones; None for no bound) and whether None is allowed.
# An integer also fits np.intp, as every array dimension and list length does.
CONTRACT = {
    "seed": (int, "[0, inf)", False),
    "reps": (int, "[1, inf)", False),
    "d": (int, "[1, inf)", False),
    "p": (int, "[1, inf)", False),
    "rank": (int, "[1, inf)", False),
    "n_clients": (int, "[1, inf)", False),
    "t_len": (int, "[1, inf)", False),
    "t_grid": (int, "[1, inf)", False),
    "rank_grid": (int, None, False),  # [1, d] for a rank_table, checked below
    "k_grid": (int, "[1, inf)", False),
    "eps_grid": (float, "(0, inf)", False),
    "delta_grid": (float, "(0, 1)", False),
    "eps": (float, "(0, inf)", False),  # inf would calibrate no noise
    "delta": (float, "(0, 1)", False),
    "kappa": (float, "(0, inf)", False),
    "sensitivity": (float, "(0, inf)", False),
    "ratio": (float, "(0, inf)", False),
    "q": (float, "(0, 1]", False),
    "s_q": (float, "(0, inf)", False),
    # the worlds' largest companion radius: 0 gives all-zero coefficients,
    # 1 or more a world no path can be simulated from
    "target_radius": (float, "(0, 1)", False),
    "lam_scale": (float, "[0, inf)", False),
    "omega_scale": (float, "[0, inf)", False),
    "zeta": (float, "(0, inf)", True),
    # stage 1 steps by rho_scale / lambda_max(S), S the pooled Gram matrix
    # sum_k T_k sxx_k / sum_k T_k.  The pooled quadratic's Hessian is 2 S,
    # so its gradient is 2 lambda_max(S)-Lipschitz, and a gradient step
    # contracts along every direction only below 2 / (2 lambda_max(S)):
    # rho_scale < 1.  A tangent step moves within a subspace, where the
    # same bound holds.  At 1.5 a k_sweep diverged to errors of 1e23 with
    # exit 0; 0 would release the non-private start
    "rho_scale": (float, "(0, 1)", False),
    "varpi_scale": (float, "[0, inf)", False),
    "rounds": (int, "[1, inf)", True),
    "n_origins": (int, "[1, inf)", False),
}


def _as_float(v):
    """v as a float, or inf for an int beyond the float range, which no
    row's interval holds."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _within(v, interval):
    lo, hi = map(float, interval[1:-1].split(","))
    above = lo < v if interval[0] == "(" else lo <= v
    return above and (v < hi if interval[-1] == ")" else v <= hi)


def _range_text(interval, kind):
    """'lie in (0, 1)', or for no upper end 'be positive' or 'be >= 1'; an
    infinite end is open, so such a float must also be finite."""
    lo, hi = interval[1:-1].split(", ")
    if hi != "inf":
        return f"lie in {interval}"
    bound = "positive" if interval.startswith("(0,") else f">= {lo}"
    return f"be {bound}" + " and finite" * (kind is float)


def _check_contract(cfg):
    """ValueError for a numeric field or grid entry of the wrong type (a
    JSON string or boolean, say) or range; stores each grid as a tuple of
    its type, an empty one as the kind's default."""
    intp_max = np.iinfo(np.intp).max
    for name, (kind, interval, none_ok) in CONTRACT.items():
        value = getattr(cfg, name)
        if name.endswith("_grid"):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            for v in value:
                # an int entry is not converted: a float of it may overflow
                if not (_is_int(v) or _is_real(v) and (kind is float or float(v).is_integer())):
                    plural = "integers" if kind is int else "numbers"
                    raise ValueError(f"{name} entries must be {plural}, got {v!r}")
            value = tuple(map(_as_float if kind is float else int, value))
            value = value or KIND_DEFAULTS[cfg.kind].get(name, ())
            object.__setattr__(cfg, name, value)
            what, values = f"{name} entries", value
        elif value is None and none_ok:
            continue
        elif not (_is_int(value) if kind is int else _is_real(value)):
            article = "an integer" if kind is int else "a number"
            raise ValueError(f"{name} must be {article}, got {value!r}")
        else:
            what, values = name, (_as_float(value) if kind is float else value,)
        if interval is not None and not all(_within(v, interval) for v in values):
            raise ValueError(f"{what} must {_range_text(interval, kind)}, got {value}")
        if kind is int and any(v > intp_max for v in values):
            raise ValueError(f"{what} must be at most {intp_max}, got {value}")


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
    """Everything a run needs besides the output location, complete and
    checked once it is built.

    Each numeric field and grid has its type, range and None allowance
    in CONTRACT; a grid is a list, an empty one filled from KIND_DEFAULTS.
    rounds=None means the ceil(10 log T) default, zeta=None no clip.  A
    simulation kind's rank lies in [1, d] (every ``rank_grid`` entry of a
    rank_table) and its p * d is at most matops.SVD_DIM_CAP; an empirical
    config runs one replication (reps is set to 1) over at least one
    panel, no two of one label (PanelSpec.label), and checks rank once
    they load.  A privacy_heatmap needs a noise mode other than "none".
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
    n_origins: int = 20
    rmsfe_agg: str = "mean"
    panels: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        _check_contract(self)
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.rmsfe_agg not in RMSFE_AGGREGATES:
            raise ValueError(f"unknown rmsfe aggregate {self.rmsfe_agg!r}")
        if self.kind == "empirical":
            object.__setattr__(self, "reps", 1)
        else:
            ranks = self.rank_grid if self.kind == "rank_table" else (self.rank,)
            for r in ranks:
                if not 1 <= r <= self.d:
                    raise ValueError(f"rank {r} outside [1, d={self.d}] for {self.kind}")
            if self.p * self.d > SVD_DIM_CAP:
                raise ValueError(f"p * d = {self.p * self.d} exceeds the SVD cap {SVD_DIM_CAP}")
        if self.kind == "privacy_heatmap" and self.noise_mode == "none":
            raise ValueError("privacy_heatmap needs noise_mode fixed_scale or calibrated")
        if not isinstance(self.panels, (list, tuple)):
            raise ValueError(f"panels must be a list, got {self.panels!r}")
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
    return ExperimentConfig(**doc)


def config_hash(cfg):
    """Hex digest over every field except the output directory."""
    doc = asdict(cfg)
    doc.pop("out_dir")
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
