"""Experiment harness: config files, panel ingestion, runners, and the CLI."""

from .config import KINDS, ExperimentConfig, PanelSpec, config_hash
from .experiments import fed_config, run_experiment
from .panels import load_panel, write_panel

__all__ = [
    "KINDS",
    "ExperimentConfig",
    "PanelSpec",
    "config_hash",
    "fed_config",
    "load_panel",
    "run_experiment",
    "write_panel",
]
