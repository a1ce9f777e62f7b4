import csv
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import fedvar
from fedvar import dp, fed_core, single_client, var
from fedvar.harness import (
    ExperimentConfig,
    PanelSpec,
    config_hash,
    load_panel,
    run_experiment,
    write_panel,
)
from fedvar.harness import cli, experiments
from fedvar.harness import panels as panels_module
from fedvar.harness.config import CONTRACT, KIND_DEFAULTS, from_json, to_json

from oracles import (
    cold_l1_forecaster,
    cold_single_forecaster,
    per_client_federated_forecaster,
    reference_rmsfe,
    scale_to_radius,
)

INTP_MAX = int(np.iinfo(np.intp).max)  # the largest integer a config holds


def assert_reruns_identical_and_reps_independent(cfg, tmp_path):
    """Reruns write identical bytes, and the records of replications 0-1
    of a 4-replication run equal those of a 2-replication run."""
    runs = []
    for i, reps in enumerate((4, 4, 2)):
        res = run_experiment(replace(cfg, reps=reps), run_dir=str(tmp_path / f"run{i}"))
        with open(res.raw_csv, "rb") as fh:
            runs.append((res.records, fh.read()))
    (long_recs, long_raw), (_, rerun_raw), (short_recs, short_raw) = runs
    assert long_raw == rerun_raw
    assert {rec["rep"] for rec in long_recs} == {0, 1, 2, 3}
    assert short_recs and [r for r in long_recs if r["rep"] < 2] == list(short_recs)
    assert long_raw.startswith(short_raw)


def stub_simulation(monkeypatch, kind, draw, fit):
    """Replace a simulation kind's draw and fit steps."""
    monkeypatch.setitem(experiments.SIMULATIONS, kind, experiments.Simulation(draw, fit))


def record_replications(monkeypatch, kind):
    """Stub a kind's steps to record each replication they reach; returns
    the list they append to."""
    calls = []
    stub_simulation(
        monkeypatch, kind,
        lambda cfg, rep: calls.append(rep) or [],
        lambda cfg, chunk: [calls.append(rep) or [] for rep, _, _ in chunk],
    )
    return calls


# simulate's config-overriding flags besides --out, each with a valid value
OVERRIDE_FLAGS = (
    ("--seed", "9"),
    ("--eps", "1.0"),
    ("--delta", "0.1"),
    ("--noise-mode", "calibrated"),
    ("--reps", "7"),
    ("--rmsfe-agg", "pooled"),
)


def tiny_config(**overrides):
    base = dict(
        kind="single_client_curve",
        seed=5,
        d=4,
        p=1,
        rank=1,
        t_grid=(60,),
        reps=2,
        ratio=5.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPanelSpec:
    def test_single_code_broadcasts(self):
        spec = PanelSpec(path="x.csv", transforms=1)
        assert spec.transforms == (1,)

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            PanelSpec(path="x.csv", transforms=(0, 3))

    def test_sensitive_indices_one_based(self):
        with pytest.raises(ValueError):
            PanelSpec(path="x.csv", sensitive=(0,))
        assert PanelSpec(path="x.csv", sensitive=(2, 1)).sensitive == (2, 1)

    def test_label_is_client_id_else_path(self):
        assert PanelSpec(path="x.csv").label == "x.csv"
        assert PanelSpec(path="x.csv", client_id="north").label == "north"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("transforms", (1.5, True), "transforms entries must be integers"),
            ("transforms", [1, True], "transforms entries must be integers"),
            ("transforms", 1.0, "transforms entries must be integers"),
            ("sensitive", (2.7,), "sensitive entries must be integers"),
            ("sensitive", [True], "sensitive entries must be integers"),
            ("sensitive", 2, "sensitive entries must be integers"),
            ("standardize", "false", "standardize must be a bool"),
            ("standardize", 1, "standardize must be a bool"),
            ("path", 5, "path must be a str"),
            ("client_id", 5, "client_id must be a str"),
        ],
    )
    def test_wrong_types_rejected_not_coerced(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PanelSpec(**{"path": "a.csv", field: value})


class TestExperimentConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="volume_sweep", seed=1)

    def test_unknown_noise_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="t_sweep", seed=1, noise_mode="laplace")

    def test_empirical_requires_panels(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="empirical", seed=1)

    def test_grids_coerced_to_typed_tuples(self):
        cfg = ExperimentConfig(
            kind="t_sweep", seed=1, t_grid=[100, 200.0], eps_grid=[1, 2]
        )
        assert cfg.t_grid == (100, 200)
        assert cfg.eps_grid == (1.0, 2.0)

    def test_panel_dicts_wrapped(self):
        cfg = ExperimentConfig(
            kind="empirical",
            seed=1,
            panels=[{"path": "a.csv", "transforms": 1}],
        )
        assert isinstance(cfg.panels[0], PanelSpec)
        assert cfg.panels[0].transforms == (1,)

    def test_unknown_or_pathless_panel_rejected(self):
        with pytest.raises(ValueError, match="unknown panel fields: bogus, other"):
            ExperimentConfig(
                kind="empirical",
                seed=1,
                panels=[{"path": "a.csv", "other": 0, "bogus": 1}],
            )
        for panel in ({"transforms": 1}, "a.csv"):
            with pytest.raises(ValueError, match="with a path"):
                ExperimentConfig(kind="empirical", seed=1, panels=[panel])

    @pytest.mark.parametrize(
        "panels, label",
        [
            ((("a.csv", "x"), ("b.csv", "x")), "x"),
            ((("a.csv", ""), ("a.csv", "")), "a.csv"),
            ((("a.csv", "b.csv"), ("b.csv", "")), "b.csv"),
        ],
        ids=["same_id", "same_path", "id_is_other_path"],
    )
    def test_duplicate_panel_labels_rejected(self, panels, label):
        specs = tuple(PanelSpec(path=path, client_id=cid) for path, cid in panels)
        message = f"two panels are labelled '{label}'; set distinct client_ids"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(kind="empirical", seed=1, panels=specs)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("eps", 0.0),
            ("eps", -1.0),
            ("eps", float("nan")),
            ("delta", 0.0),
            ("delta", 1.0),
            ("delta", 1.5),
            ("eps_grid", (1.0, 0.0)),
            ("delta_grid", (0.1, 1.0)),
            ("delta_grid", (-0.1,)),
            ("kappa", 0.0),
            ("sensitivity", -1.0),
            # an infinite eps calibrated a run with sigma 0
            ("eps", float("inf")),
            ("eps_grid", (1.0, float("inf"))),
            ("eps_grid", (float("nan"),)),
            ("kappa", float("inf")),
            ("kappa", float("nan")),
            ("sensitivity", float("inf")),
            ("sensitivity", float("nan")),
        ],
    )
    def test_privacy_fields_checked_in_every_noise_mode(self, field, bad):
        for mode in ("none", "fixed_scale", "calibrated"):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(kind="k_sweep", seed=1, noise_mode=mode, **{field: bad})


    def test_every_numeric_field_has_a_contract_row(self):
        # a count, a real (None allowed or not) or a grid: each is checked
        # against its row when the config is built
        types = {f.name: f.type for f in fields(ExperimentConfig)}
        numeric = {
            name for name, t in types.items()
            if t in ("int", "float", "int | None", "float | None") or name.endswith("_grid")
        }
        assert numeric == set(CONTRACT)
        for name, (kind, _, none_ok) in CONTRACT.items():
            assert kind in (int, float)
            assert none_ok == types[name].endswith(" | None")

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_target_radius_outside_unit_interval_rejected(self, bad):
        for kind in ("rank_table", "privacy_heatmap"):
            with pytest.raises(ValueError, match=r"target_radius must lie in \(0, 1\)"):
                ExperimentConfig(kind=kind, seed=1, noise_mode="fixed_scale", target_radius=bad)

    @pytest.mark.parametrize(
        "doc",
        [
            {"reps": "2"},
            {"eps": "2"},
            {"reps": True},
            {"seed": True},
            {"rounds": 2.0},
            {"zeta": "1"},
            {"t_grid": [100, "200"]},
            {"t_grid": [100.5]},
            {"eps_grid": [1.0, True]},
        ],
    )
    def test_numeric_fields_type_checked(self, doc, tmp_path, capsys):
        field = next(iter(doc))
        text = json.dumps({"kind": "t_sweep", "seed": 1, **doc})
        with pytest.raises(ValueError, match=field):
            from_json(text=text)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "out"
        argv = ["simulate", "t_sweep", "--config", str(path), "--out", str(out)]
        assert cli.main(argv) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestConfigJson:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            kind="empirical",
            seed=42,
            eps_grid=(0.5, 1.0),
            panels=(PanelSpec(path="a.csv", transforms=(1, 0), sensitive=(2,)),),
        )
        path = tmp_path / "cfg.json"
        to_json(cfg, path)
        assert from_json(path=str(path)) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            from_json(text='{"kind": "t_sweep", "seed": 1, "bogus": 2}')

    def test_kind_and_seed_required(self):
        with pytest.raises(ValueError, match="kind and seed"):
            from_json(text='{"kind": "t_sweep"}')

    def test_overrides_win_and_none_is_skipped(self):
        cfg = from_json(
            text='{"kind": "t_sweep", "seed": 1, "eps": 2.0}',
            overrides={"eps": 4.0, "seed": None},
        )
        assert cfg.eps == 4.0
        assert cfg.seed == 1

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            from_json(text="{}", path="also.json")

    @pytest.mark.parametrize("version", [2, 0, "1", 1.5, True])
    def test_other_format_version_refused(self, version, tmp_path, capsys):
        doc = json.dumps({"kind": "t_sweep", "seed": 1, "format_version": version})
        with pytest.raises(ValueError, match="format_version"):
            from_json(text=doc)
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", "t_sweep", "--config", str(path), "--out", str(out)]) == 1
        assert f"format_version {version!r} is not 1" in capsys.readouterr().err
        assert not out.exists()


class TestConfigHash:
    def test_out_dir_excluded(self):
        a = tiny_config(out_dir="a")
        b = tiny_config(out_dir="b")
        assert config_hash(a) == config_hash(b)

    def test_semantic_fields_change_hash(self):
        assert config_hash(tiny_config(seed=5)) != config_hash(tiny_config(seed=6))
        assert config_hash(tiny_config()) != config_hash(tiny_config(lam_scale=1.0))


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadPanel:
    def test_identity_code_drops_first_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["a", "b"], [[1, 10], [2, 20], [3, 30], [4, 40]])
        panel = load_panel(PanelSpec(path=str(path)), p=1)
        assert panel.presample.tolist() == [[2.0, 20.0]]
        assert panel.observations.tolist() == [[3.0, 30.0], [4.0, 40.0]]

    def test_first_difference_then_standardize(self, tmp_path):
        # diffs of (1, 3, 6, 10) are (2, 3, 4); population sd of the
        # centered diffs is sqrt(2/3)
        path = tmp_path / "p.csv"
        write_csv(path, ["a"], [[1], [3], [6], [10]])
        spec = PanelSpec(path=str(path), transforms=1, standardize=True)
        panel = load_panel(spec, p=1)
        sd = np.sqrt(2.0 / 3.0)
        got = np.vstack([panel.presample, panel.observations]).ravel()
        assert got == pytest.approx([-1.0 / sd, 0.0, 1.0 / sd])

    def test_log_difference_of_geometric_is_constant(self, tmp_path):
        # log-diffs of powers of e are all exactly 1, so standardizing
        # must reject the column
        path = tmp_path / "p.csv"
        write_csv(path, ["a"], [[np.exp(k)] for k in range(5)])
        spec = PanelSpec(path=str(path), transforms=2, standardize=True)
        with pytest.raises(ValueError, match="constant column"):
            load_panel(spec, p=1)
        panel = load_panel(PanelSpec(path=str(path), transforms=2), p=1)
        assert np.vstack([panel.presample, panel.observations]) == pytest.approx(
            np.ones((4, 1))
        )

    def test_log_difference_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["a"], [[1.0], [-2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="nonpositive"):
            load_panel(PanelSpec(path=str(path), transforms=2), p=1)

    def test_mixed_codes_per_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["lvl", "diff"], [[5, 1], [6, 3], [7, 6], [8, 10]])
        panel = load_panel(PanelSpec(path=str(path), transforms=(0, 1)), p=1)
        full = np.vstack([panel.presample, panel.observations])
        assert full.tolist() == [[6.0, 2.0], [7.0, 3.0], [8.0, 4.0]]

    def test_code_count_must_match_width(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError, match="transform codes"):
            load_panel(PanelSpec(path=str(path), transforms=(0, 1, 0)), p=1)

    def test_non_numeric_cell_is_located(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n1,2\n3,oops\n5,6\n")
        with pytest.raises(ValueError, match="row 3, column 'b'"):
            load_panel(PanelSpec(path=str(path)), p=1)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_panel(PanelSpec(path=str(path)), p=1)

    @pytest.mark.parametrize(
        "text, transforms, message",
        [
            ("a,b\n1,2\n\n3,x\n", (0,), "non-numeric cell at row 4, column 'b'"),
            ("a,b\n\n1,2\n\n\n3\n", (0,), "row 6 has 1 cells"),
            ("a,b\n1,2\n\n3,inf\n5,6\n", (0,), "non-finite cell at row 4, column 'b'"),
            ("a,b\n1,2\n\n3,4\n-1,5\n6,7\n", (2,), "nonpositive value at row 5, column 'a'"),
        ],
        ids=["non-numeric", "ragged", "non-finite", "nonpositive"],
    )
    def test_bad_cell_after_blank_line_gives_its_file_line(
        self, text, transforms, message, tmp_path
    ):
        # a reported row is a line of the file, blank lines counted
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_panel(PanelSpec(path=str(path), transforms=transforms), p=1)

    def test_too_short_after_preprocessing(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["a"], [[1], [2], [3]])
        with pytest.raises(ValueError, match="need at least"):
            load_panel(PanelSpec(path=str(path)), p=1)

    def test_short_panel_reported_before_standardizing(self, tmp_path):
        # one row after differencing is also a constant column; the row
        # count is the cause to report
        path = tmp_path / "p.csv"
        write_csv(path, ["a"], [[1], [2]])
        with pytest.raises(ValueError, match="1 rows after transforming, need at least"):
            load_panel(PanelSpec(path=str(path), standardize=True), p=1)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        panel = var.TimeSeriesPanel(
            presample=rng.standard_normal((2, 3)),
            observations=rng.standard_normal((7, 3)),
        )
        path = tmp_path / "p.csv"
        write_panel(panel, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "v1,v2,v3"
        # code 0 drops one leading row, so reload with p = 1: the
        # observations and the last presample row survive bit-for-bit
        back = load_panel(PanelSpec(path=str(path)), p=1)
        assert np.array_equal(back.presample, panel.presample[1:])
        assert np.array_equal(back.observations, panel.observations)

    def test_write_panel_name_count_checked(self, tmp_path):
        panel = var.TimeSeriesPanel(
            presample=np.zeros((1, 2)), observations=np.ones((2, 2))
        )
        with pytest.raises(ValueError):
            write_panel(panel, str(tmp_path / "p.csv"), var_names=["only"])


class TestRunExperiment:
    def test_emits_three_files_with_manifest(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path))
        res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
        for name in ("raw.csv", "summary.json", "manifest.json"):
            assert os.path.exists(os.path.join(res.out_dir, name))
        assert res.manifest["seed"] == 5
        assert res.manifest["config_hash"] == config_hash(cfg)
        assert res.manifest["aborted_replications"] == 0
        assert res.summary["replications"] == 2
        key = "t_len=60|metric=ak_err"
        assert res.summary["groups"][key]["n"] == 2
        metrics = [rec["metric"] for rec in res.records]
        assert metrics == ["ak_err", "a0_err", "delta_err"] * 2

    def test_grid_defaults_fill_and_hash_ignores_spelling(self, tmp_path):
        # leaving a grid empty and spelling out the default are the same
        # experiment: the config fills the default when it is built, so
        # the two are equal and hash identically in the manifest
        base = dict(kind="privacy_heatmap", seed=9, reps=1, d=4, noise_mode="fixed_scale")
        sparse = ExperimentConfig(**base)
        explicit = ExperimentConfig(**base, eps_grid=(0.5, 1.0, 2.0, 4.0))
        assert sparse.eps_grid == KIND_DEFAULTS["privacy_heatmap"]["eps_grid"]
        assert sparse == explicit
        assert config_hash(sparse) == config_hash(explicit)
        assert from_json(text=to_json(sparse)) == sparse

    def test_timestamped_dir_under_out(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path), reps=1)
        res = run_experiment(cfg)
        assert res.out_dir.startswith(
            os.path.join(str(tmp_path), "single_client_curve")
        )

    def test_raw_csv_byte_identical_across_runs_and_rep_counts(self, tmp_path):
        assert_reruns_identical_and_reps_independent(
            tiny_config(out_dir=str(tmp_path)), tmp_path
        )

    def test_replications_run_serially_in_order(self, tmp_path, monkeypatch):
        calls = []

        def draw(cfg, rep):
            calls.append((threading.get_ident(), "draw", rep))
            return []

        def fit(cfg, chunk):
            out = []
            for rep, _, _ in chunk:
                calls.append((threading.get_ident(), "fit", rep))
                out.append([{"rep": rep, "t_len": 60, "metric": "ak_err", "value": 1.0}])
            return out

        stub_simulation(monkeypatch, "single_client_curve", draw, fit)
        res = run_experiment(
            tiny_config(out_dir=str(tmp_path), reps=6), run_dir=str(tmp_path / "run")
        )
        # worlds without paths fill no chunk: every draw, then every fit
        me = threading.get_ident()
        assert calls == [(me, step, rep) for step in ("draw", "fit") for rep in range(6)]
        assert [r["rep"] for r in res.records] == list(range(6))

    def test_abort_rate_over_one_percent_fails(self, tmp_path, monkeypatch):
        def explode(cfg, rep):
            raise RuntimeError("boom")

        stub_simulation(
            monkeypatch, "single_client_curve", explode, lambda cfg, chunk: [[] for _ in chunk]
        )
        with pytest.raises(RuntimeError, match="aborted"):
            run_experiment(
                tiny_config(out_dir=str(tmp_path)), run_dir=str(tmp_path / "run")
            )

    def test_rare_abort_is_tolerated_and_counted(self, tmp_path, monkeypatch):
        # the 200 replications draw no paths, so they make one chunk; its
        # fit raises, and only replication 7 raises again on its own
        def fit(cfg, chunk):
            if any(rep == 7 for rep, _, _ in chunk):
                raise RuntimeError("boom")
            return [[{"rep": rep, "t_len": 60, "metric": "ak_err", "value": 1.0}]
                    for rep, _, _ in chunk]

        stub_simulation(monkeypatch, "single_client_curve", lambda cfg, rep: [], fit)
        res = run_experiment(
            tiny_config(out_dir=str(tmp_path), reps=200),
            run_dir=str(tmp_path / "run"),
        )
        assert res.manifest["aborted_replications"] == 1
        assert res.summary["groups"]["t_len=60|metric=ak_err"]["n"] == 199

    def test_empirical_runs_once_regardless_of_reps(self, tmp_path):
        spec = self._write_world(tmp_path)
        cfg = ExperimentConfig(
            kind="empirical",
            seed=3,
            out_dir=str(tmp_path),
            d=4,
            p=1,
            rank=1,
            reps=50,
            n_origins=3,
            panels=(spec,),
        )
        res = run_experiment(cfg, run_dir=str(tmp_path / "emp"))
        assert res.summary["replications"] == 1
        methods = {r["method"] for r in res.records}
        assert methods == set(experiments.EMPIRICAL_METHODS)
        per_all = [r for r in res.records if r["variable"] == "all"]
        assert len(per_all) == len(methods)
        assert res.manifest["sensitive_indices"] == {"c1": [2]}

    def test_sensitive_index_beyond_panel_width_refused(self, tmp_path):
        spec = replace(self._write_world(tmp_path), sensitive=(2, 5))
        cfg = ExperimentConfig(
            kind="empirical", seed=3, d=4, p=1, rank=1, n_origins=3, panels=(spec,)
        )
        with pytest.raises(ValueError, match=f"{spec.path}: sensitive index 5 exceeds"):
            run_experiment(cfg, run_dir=str(tmp_path / "emp"))
        assert not (tmp_path / "emp").exists()

    @staticmethod
    def _write_world(tmp_path):
        rng = np.random.default_rng(12)
        a0, deltas = var.assemble_dgp(4, 1, 1, 1, rng, ratio=5.0)
        panel = var.simulate(a0 + deltas[0], 1, 30, rng)
        path = tmp_path / "c1.csv"
        write_panel(panel, str(path))
        return PanelSpec(path=str(path), sensitive=(2,), client_id="c1")


# one tiny config of every simulation kind, three replications each
CHUNKED_KINDS = {
    "single_client_curve": dict(t_grid=(60, 40)),
    "rank_table": dict(rank_grid=(1, 2), t_grid=(40, 60)),
    "privacy_heatmap": dict(n_clients=2, t_len=60, rounds=3, eps_grid=(0.5, 2.0),
                            noise_mode="fixed_scale"),
    "k_sweep": dict(t_len=60, k_grid=(2, 3), noise_mode="calibrated", rounds=3),
    "t_sweep": dict(n_clients=2, t_grid=(40, 60), rounds=3),
}


def chunked_config(kind, tmp_path, **overrides):
    return ExperimentConfig(kind=kind, seed=6, d=4, p=2, rank=1, reps=3,
                            out_dir=str(tmp_path), **{**CHUNKED_KINDS[kind], **overrides})


def count_stacks(monkeypatch):
    """Count the var.simulate_paths calls the harness makes."""
    calls = []
    real = var.simulate_paths
    monkeypatch.setattr(
        var, "simulate_paths", lambda coefs, *rest: calls.append(len(coefs)) or real(coefs, *rest)
    )
    return calls


def count_solver_calls(monkeypatch):
    """Count the single_client.fit_admm and fed_core.stage1_run calls."""
    calls = {"fit_admm": 0, "stage1_run": 0}
    for module, name in ((single_client, "fit_admm"), (fed_core, "stage1_run")):
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestChunks:
    """Replications' worlds are simulated in chunks of at most
    CHUNK_BYTES of paths."""

    @pytest.mark.parametrize("kind", sorted(CHUNKED_KINDS))
    def test_records_do_not_depend_on_chunking(self, kind, tmp_path, monkeypatch):
        cfg = chunked_config(kind, tmp_path)
        rep_bytes = experiments._path_bytes(cfg, experiments.SIMULATIONS[kind].draw(cfg, 0))
        stacks = count_stacks(monkeypatch)
        solvers = count_solver_calls(monkeypatch)
        runs = {}
        # every replication in one chunk, two to a chunk, each on its own
        for name, budget in (("one", 3 * rep_bytes), ("two", 2 * rep_bytes), ("each", 1)):
            monkeypatch.setattr(experiments, "CHUNK_BYTES", budget)
            runs[name] = run_experiment(cfg, run_dir=str(tmp_path / name)).records
        per_rep = stacks[0] // 3
        assert stacks == [3 * per_rep, 2 * per_rep, per_rep, per_rep, per_rep, per_rep]
        # each of the six chunks is fitted in one ADMM stack, and a
        # multi-client kind's federations in one stage-1 stack
        stage1 = 0 if kind in ("single_client_curve", "rank_table") else 6
        assert solvers == {"fit_admm": 6, "stage1_run": stage1}
        assert runs["one"] == runs["two"] == runs["each"]
        assert {r["rep"] for r in runs["one"]} == {0, 1, 2}
        solo = run_experiment(replace(cfg, reps=1), run_dir=str(tmp_path / "solo")).records
        assert list(solo) == [r for r in runs["one"] if r["rep"] == 0]

    @pytest.mark.parametrize("kind", sorted(CHUNKED_KINDS))
    def test_every_client_gets_its_own_path(self, kind, tmp_path, monkeypatch):
        cfg = chunked_config(kind, tmp_path)
        sim = experiments.SIMULATIONS[kind]
        seen, fits = {}, []

        def keep(cfg, chunk):
            fits.append([rep for rep, _, _ in chunk])
            seen.update((rep, panels) for rep, _, panels in chunk)
            return [[] for _ in chunk]

        stub_simulation(monkeypatch, kind, sim.draw, keep)
        stacks = count_stacks(monkeypatch)
        run_experiment(cfg, run_dir=str(tmp_path / "run"))
        # one chunk: one stack of paths and one fit of every replication
        assert len(stacks) == 1 and fits == [[0, 1, 2]]
        # a world drawn again, its clients simulated one by one in order
        for rep, panels in seen.items():
            worlds = sim.draw(cfg, rep)
            assert len(panels) == len(worlds)
            for world, client_panels in zip(worlds, panels):
                assert len(client_panels) == len(world.deltas)
                for dl, got in zip(world.deltas, client_panels):
                    want = var.simulate(world.a0 + dl, cfg.p, world.t_len, world.rng)
                    assert got.presample.tobytes() == want.presample.tobytes()
                    assert got.observations.tobytes() == want.observations.tobytes()

    def test_draw_that_raises_aborts_its_replication_alone(self, tmp_path, monkeypatch):
        cfg = chunked_config("t_sweep", tmp_path)
        sim = experiments.SIMULATIONS["t_sweep"]
        want = experiments._run_simulation(cfg, sim)

        def draw(cfg, rep):
            if rep == 1:
                raise RuntimeError("boom")
            return sim.draw(cfg, rep)

        stacks = count_stacks(monkeypatch)
        got = experiments._run_simulation(cfg, experiments.Simulation(draw, sim.fit))
        # replications 0 and 2 still share one stack, and fit as before
        assert stacks == [2 * 2 * len(cfg.t_grid)]
        assert got == [want[0], None, want[2]]

    def test_fit_that_raises_aborts_its_replication_alone(self, tmp_path, monkeypatch):
        cfg = chunked_config("rank_table", tmp_path)
        sim = experiments.SIMULATIONS["rank_table"]
        want = experiments._run_simulation(cfg, sim)
        calls = []

        def fit(cfg, chunk):
            calls.append([rep for rep, _, _ in chunk])
            if any(rep == 0 for rep, _, _ in chunk):
                raise RuntimeError("boom")
            return sim.fit(cfg, chunk)

        got = experiments._run_simulation(cfg, experiments.Simulation(sim.draw, fit))
        # the chunk's fit raises, so its replications are fitted one by one
        assert calls == [[0, 1, 2], [0], [1], [2]]
        assert got == [None, want[1], want[2]]

    def test_solver_failure_in_a_stacked_fit_aborts_its_replication_alone(
        self, tmp_path, monkeypatch, caplog
    ):
        # replication 1's panels are scaled past float64's square, so its
        # lag designs raise: the chunk's stacked fit fails, and on their
        # own replications 0 and 2 fit as in a clean run
        cfg = chunked_config("k_sweep", tmp_path)
        sim = experiments.SIMULATIONS["k_sweep"]
        want = experiments._run_simulation(cfg, sim)
        real, calls = experiments._simulate_worlds, []

        def poisoned(cfg, worlds):
            panels = real(cfg, worlds)
            panels[1] = [var.TimeSeriesPanel(pn.presample, pn.observations * 1e200)
                         for pn in panels[1]]
            return panels

        def fit(cfg, chunk):
            calls.append([rep for rep, _, _ in chunk])
            return sim.fit(cfg, chunk)

        monkeypatch.setattr(experiments, "_simulate_worlds", poisoned)
        got = experiments._run_simulation(cfg, experiments.Simulation(sim.draw, fit))
        assert calls == [[0, 1, 2], [0], [1], [2]]
        assert got == [want[0], None, want[2]]
        aborts = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert aborts == ["replication 1 of seed 6 aborted"]

    def test_prefix_design_is_bitwise_a_separately_simulated_world(self):
        # rank_table's T=400 design is a row prefix of its T=1600 world
        cfg = ExperimentConfig(kind="rank_table", seed=8)
        full_world = experiments._draw_world(cfg, 3, 1, 1600, rank=2)
        ((panel,),) = experiments._simulate_worlds(cfg, [full_world])
        got = experiments._row_prefix(var.lag_design(panel), 400)
        world = experiments._draw_world(cfg, 3, 1, 400, rank=2)
        assert world.a0.tobytes() == full_world.a0.tobytes()
        want = var.lag_design(
            var.simulate(world.a0 + world.deltas[0], cfg.p, 400, world.rng)
        )
        assert got.t_len == 400
        for name in ("x", "y", "sxx", "sxy"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.syy == want.syy

    def test_chunk_holds_as_many_replications_as_fit_the_budget(self):
        # d = 20: a rank_table replication is three 1,801-row paths, 0.86 MB
        cfg = ExperimentConfig(kind="rank_table", seed=1)
        worlds = experiments.SIMULATIONS["rank_table"].draw(cfg, 0)
        rep_bytes = experiments._path_bytes(cfg, worlds)
        assert rep_bytes == 3 * 1801 * 20 * 8
        assert experiments.CHUNK_BYTES // rep_bytes == 4


def empirical_config(tmp_path, lengths, **overrides):
    """An empirical config over one world's clients, client k a panel
    that load_panel reads back with lengths[k] rows, forecasting from 3
    origins each."""
    rng = np.random.default_rng(31)
    a0, deltas = var.assemble_dgp(4, 1, 1, len(lengths), rng, ratio=5.0)
    specs = []
    for k, t_len in enumerate(lengths):
        # load_panel drops the first row, so it reads back t_len rows
        panel = var.simulate(a0 + deltas[k], 1, t_len + 1, rng)
        path = tmp_path / f"c{k + 1}.csv"
        write_panel(panel, str(path))
        specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
    return ExperimentConfig(
        kind="empirical", seed=8, d=4, p=1, rank=1, n_origins=3,
        panels=tuple(specs), **overrides,
    )


class TestEmpiricalFederation:
    """One federation per forecast origin, shared by every client that
    forecasts from it."""

    LENGTHS = (30, 31, 33)

    def _config(self, tmp_path, monkeypatch, methods=("federated",), **overrides):
        monkeypatch.setattr(experiments, "EMPIRICAL_METHODS", methods)
        return empirical_config(tmp_path, self.LENGTHS, **overrides)

    def test_one_stage1_fit_per_distinct_origin(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, monkeypatch, noise_mode="fixed_scale")
        real = fed_core.stage1_run
        calls = []

        def counting(design_sets, fcfgs, rngs):
            origins = []
            for c, (designs, fcfg, rng) in enumerate(zip(design_sets, fcfgs, rngs)):
                # the longest panel covers every origin, so it gives the origin
                origin = max(ds.t_len for ds in designs)
                # the last member is the full-sample fit, on the stream (0, 1)
                key = (0, 1) if c == len(design_sets) - 1 else (0, 1, origin)
                want = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=key))
                assert rng.bit_generator.state == want.bit_generator.state
                assert fcfg.noise.mode == "fixed_scale"
                origins.append(origin)
            calls.append(origins)
            return real(design_sets, fcfgs, rngs)

        monkeypatch.setattr(fed_core, "stage1_run", counting)
        experiments._rep_empirical(cfg, 0)
        distinct = {t - h for t in self.LENGTHS for h in (1, 2, 3)}
        assert len(distinct) < 3 * len(self.LENGTHS)
        # every origin's federation is one member of one stacked call, and
        # the full-sample fit, at origin max T_k, is its last member
        assert calls == [sorted(distinct) + [max(self.LENGTHS)]]

    def test_noise_free_rmsfe_equals_per_client_federation(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, monkeypatch)
        recs = experiments._rep_empirical(cfg, 0)
        panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
        assert [pn.t_len for pn in panels] == list(self.LENGTHS)
        for k, (spec, panel) in enumerate(zip(cfg.panels, panels)):
            want = reference_rmsfe(
                per_client_federated_forecaster(cfg, panels, k),
                panel,
                cfg.n_origins,
                cfg.rmsfe_agg,
            )
            got = [r["value"] for r in recs if r["client"] == spec.client_id]
            assert got == want


    def test_one_refinement_of_every_client_origin_pair(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, monkeypatch, methods=("federated", "single_l1"))
        real_stage1, real_refine = fed_core.stage1_run, fed_core.refine_fista
        shared, calls = {}, []

        def stage1(design_sets, fcfgs, rngs):
            a0_hats, traces = real_stage1(design_sets, fcfgs, rngs)
            for designs, a0_hat in zip(design_sets, a0_hats):
                shared[max(ds.t_len for ds in designs)] = a0_hat
            return a0_hats, traces

        def recording(designs, a0_hats, varpis, iters):
            calls.append(([ds.t_len for ds in designs], np.array(a0_hats)))
            return real_refine(designs, a0_hats, varpis, iters)

        monkeypatch.setattr(fed_core, "stage1_run", stage1)
        monkeypatch.setattr(fed_core, "refine_fista", recording)
        experiments._rep_empirical(cfg, 0)
        baseline = [sizes for sizes, a0_hats in calls if not a0_hats.any()]
        federated = [(sizes, a0_hats) for sizes, a0_hats in calls if a0_hats.any()]
        # every (client, origin) pair in one call, for each method
        want = [t - h for t in self.LENGTHS for h in (3, 2, 1)]
        assert baseline == [want]
        # the federated call refines every client of every federation: each
        # distinct origin and the full-sample fit at max T_k
        members = sorted({t - h for t in self.LENGTHS for h in (3, 2, 1)})
        members.append(max(self.LENGTHS))
        ((sizes, a0_hats),) = federated
        assert sizes == [min(o, t) for o in members for t in self.LENGTHS]
        # each pair is refined around its federation's shared estimate
        for j, a0_hat in enumerate(a0_hats):
            assert np.array_equal(a0_hat, shared[members[j // len(self.LENGTHS)]])

    @pytest.mark.parametrize("flag", sorted(cli.NOISE_FLAG_MODES))
    def test_fit_saves_the_full_sample_fit(self, flag, tmp_path, monkeypatch, capsys):
        cfg = self._config(tmp_path, monkeypatch, noise_mode=cli.NOISE_FLAG_MODES[flag])
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        out = tmp_path / "fitout"
        argv = ["fit", "--config", str(cfg_path), "--out", str(out), "--noise-mode", flag]
        assert cli.main(argv) == 0
        # one federation over every whole design, on the stream (0, 1)
        designs = [var.lag_design(load_panel(spec, cfg.p)) for spec in cfg.panels]
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0, 1)))
        (want,), _ = fed_core.fit_federated(
            [designs],
            experiments.fed_config(cfg, [designs]),
            [[experiments.refine_penalty(cfg, ds) for ds in designs]],
            [rng],
        )
        with np.load(out / "estimates.npz") as got:
            assert sorted(got.files) == ["a0", "delta_1", "delta_2", "delta_3"]
            assert got["a0"].tobytes() == want[0].a0.tobytes()
            for k, dec in enumerate(want):
                assert got[f"delta_{k + 1}"].tobytes() == dec.delta.tobytes()

    def test_each_lag_design_built_once_across_methods(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, monkeypatch, methods=experiments.EMPIRICAL_METHODS)
        loaded = [load_panel(spec, cfg.p) for spec in cfg.panels]
        real_lag_design, real_design = var.lag_design, var.LagDesign
        lag_designs, built = [], []

        def client(y):
            # a design's first target row tells whose panel it is
            return next(spec.client_id for spec, pn in zip(cfg.panels, loaded)
                        if np.array_equal(pn.observations[0], y[0]))

        def counting_lag_design(panel):
            lag_designs.append(client(panel.observations))
            return real_lag_design(panel)

        def counting_design(x, y):
            built.append((client(y), y.shape[0]))
            return real_design(x=x, y=y)

        monkeypatch.setattr(var, "lag_design", counting_lag_design)
        monkeypatch.setattr(var, "LagDesign", counting_design)
        experiments._rep_empirical(cfg, 0)
        clients = [(f"c{k + 1}", t) for k, t in enumerate(self.LENGTHS)]
        assert lag_designs == [c for c, _ in clients]
        origins = {t - h for t in self.LENGTHS for h in (1, 2, 3)}
        # each full design, every (client, origin) pair, and what each
        # federation sees of the clients whose panels end before its origin
        want = set(clients)
        want |= {(c, t - h) for c, t in clients for h in (1, 2, 3)}
        want |= {(c, min(o, t)) for c, t in clients for o in origins}
        assert sorted(built) == sorted(want)

    def test_single_l1_equals_cold_per_origin_fits(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path, monkeypatch, methods=("single_l1",))
        recs = experiments._rep_empirical(cfg, 0)
        panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
        for spec, panel in zip(cfg.panels, panels):
            want = reference_rmsfe(
                cold_l1_forecaster(cfg), panel, cfg.n_origins, cfg.rmsfe_agg
            )
            got = [r["value"] for r in recs if r["client"] == spec.client_id]
            assert got == want


class TestColdForecasters:
    """The single-client ADMM methods fit every origin from zero."""

    METHODS = ("single_nuc_l1", "single_nuclear")

    def _config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "EMPIRICAL_METHODS", self.METHODS)
        rng = np.random.default_rng(41)
        a0, deltas = var.assemble_dgp(4, 2, 1, 2, rng, ratio=5.0)
        specs = []
        for k, t_len in enumerate((40, 44)):
            panel = var.simulate(a0 + deltas[k], 2, t_len, rng)
            path = tmp_path / f"c{k + 1}.csv"
            write_panel(panel, str(path))
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
        return ExperimentConfig(
            kind="empirical", seed=8, d=4, p=2, rank=1, n_origins=6,
            panels=tuple(specs),
        )

    def test_rmsfe_matches_cold_fits(self, tmp_path, monkeypatch):
        # every stack member is bitwise its one-problem fit
        cfg = self._config(tmp_path, monkeypatch)
        panels = [load_panel(spec, cfg.p) for spec in cfg.panels]
        recs, _ = experiments.empirical_rmsfe(cfg, [var.lag_design(pn) for pn in panels], 0)
        for spec, panel in zip(cfg.panels, panels):
            for method in self.METHODS:
                want = reference_rmsfe(
                    cold_single_forecaster(cfg, method),
                    panel,
                    cfg.n_origins,
                    cfg.rmsfe_agg,
                )
                got = [
                    r["value"]
                    for r in recs
                    if r["client"] == spec.client_id and r["method"] == method
                ]
                assert got == want


class TestFedConfig:
    """fed_config starts the rounds from the largest client's fit."""

    CFG = ExperimentConfig(kind="t_sweep", seed=1, d=4, p=1, rank=1)

    def test_picks_largest_client(self):
        rng = np.random.default_rng(15)
        a = scale_to_radius(var.gen_low_rank(4, 1, 1, rng), 1, 0.8)
        big = var.lag_design(var.simulate(a, 1, 600, rng, burn_in=100))
        big = var.LagDesign(x=big.x, y=big.x @ a.T)  # exact targets
        small = var.LagDesign(x=big.x[:80], y=-(big.x[:80] @ a.T))
        (fcfg,) = experiments.fed_config(self.CFG, [[small, big]])
        init = fcfg.init_a0
        assert np.sum(init * a) > 0  # follows the large client's sign
        (want,) = fed_core.initial_shared_estimate(
            [big], 1, [experiments.admm_config(big, self.CFG)]
        )
        assert np.array_equal(init, want)

    def test_tie_resolves_to_first(self):
        rng = np.random.default_rng(16)
        a = scale_to_radius(var.gen_low_rank(4, 1, 1, rng), 1, 0.8)
        base = var.lag_design(var.simulate(a, 1, 300, rng, burn_in=100))
        plus = var.LagDesign(x=base.x, y=base.x @ a.T)
        minus = var.LagDesign(x=base.x, y=-(base.x @ a.T))
        first, second = experiments.fed_config(self.CFG, [[plus, minus], [minus, plus]])
        assert np.sum(first.init_a0 * a) > 0
        assert np.sum(second.init_a0 * a) < 0

    def test_shared_largest_design_fitted_once(self):
        rng = np.random.default_rng(17)
        a = scale_to_radius(var.gen_low_rank(4, 1, 1, rng), 1, 0.8)
        big, small, other = (
            var.lag_design(var.simulate(a, 1, t, rng, burn_in=100)) for t in (90, 60, 80)
        )
        fcfgs = experiments.fed_config(self.CFG, [[big, small], [small, big], [other]])
        assert fcfgs[0].init_a0 is fcfgs[1].init_a0
        (want,) = fed_core.initial_shared_estimate(
            [big], 1, [experiments.admm_config(big, self.CFG)]
        )
        assert np.array_equal(fcfgs[0].init_a0, want)

    def test_fitted_start_is_bitwise_a_new_fit(self, monkeypatch):
        rng = np.random.default_rng(18)
        a = scale_to_radius(var.gen_low_rank(4, 1, 1, rng), 1, 0.8)
        designs = [var.lag_design(var.simulate(a, 1, t, rng, burn_in=100)) for t in (90, 60)]
        sets = [designs, designs[1:]]
        want = experiments.fed_config(self.CFG, sets)
        fits = experiments.fit_single(self.CFG, designs)
        calls = []
        real = single_client.fit_admm
        monkeypatch.setattr(
            single_client, "fit_admm",
            lambda designs, *rest: calls.append(len(designs)) or real(designs, *rest),
        )
        # the first list's start comes from its fit, the second's is new
        got = experiments.fed_config(self.CFG, sets, zip(designs[:1], fits[:1]))
        assert calls == [1]
        for g, w in zip(got, want):
            assert g.init_a0.tobytes() == w.init_a0.tobytes()
        both = experiments.fed_config(self.CFG, sets, zip(designs, fits))
        assert calls == [1]
        for g, w in zip(both, want):
            assert g.init_a0.tobytes() == w.init_a0.tobytes()

    @pytest.mark.parametrize(
        "kind, fields, stacks_want",
        [
            ("k_sweep", {"k_grid": (2, 3, 5)}, [5]),
            ("t_sweep", {"t_grid": (40, 60), "n_clients": 3}, [6]),
            # no single-client fits of its own: the start is the only stack
            ("privacy_heatmap", {"n_clients": 2, "eps_grid": (1.0,), "rounds": 2,
                                 "noise_mode": "fixed_scale"}, [1]),
            # every (method, client, origin) fit, then the full-sample start
            ("empirical", {"lengths": (32, 32, 32)}, [2 * 3 * 3, 1]),
            # origins 30 and 31's largest clients end there, as does the
            # full sample, so those starts are not in the stack
            ("empirical", {"lengths": TestEmpiricalFederation.LENGTHS}, [2 * 3 * 3, 3]),
        ],
        ids=["k_sweep", "t_sweep", "privacy_heatmap", "empirical", "empirical_unequal"],
    )
    def test_sweep_starts_from_its_single_fits(
        self, kind, fields, stacks_want, tmp_path, monkeypatch
    ):
        if kind == "empirical":
            cfg = empirical_config(tmp_path, fields["lengths"], out_dir=str(tmp_path))
        else:
            cfg = ExperimentConfig(
                kind=kind, seed=3, d=4, p=1, rank=1, t_len=60, reps=1,
                out_dir=str(tmp_path), **fields,
            )
        stacks, truncations, per_call = [], [], []
        real_fit, real_truncate = single_client.fit_admm, experiments.svd_truncate
        monkeypatch.setattr(
            single_client, "fit_admm",
            lambda designs, *rest: stacks.append(designs) or real_fit(designs, *rest),
        )

        def truncate(m, r):
            truncations.append(np.ndim(m))
            return real_truncate(m, r)

        def counted(fn):
            def wrapped(*args):
                before = len(truncations)
                out = fn(*args)
                per_call.append((fn.__name__, len(truncations) - before))
                return out
            return wrapped

        for module in (experiments, fed_core):
            monkeypatch.setattr(module, "svd_truncate", truncate)
        monkeypatch.setattr(experiments, "fed_config", counted(experiments.fed_config))
        monkeypatch.setattr(fed_core, "stage1_run", counted(fed_core.stage1_run))
        res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
        # one ADMM stack of every single-client fit; a start is fitted
        # again, in one more stack, only for a design that is not in it
        assert [len(designs) for designs in stacks] == stacks_want
        fitted = {id(ds) for ds in stacks[0]}
        assert not any(id(ds) in fitted for designs in stacks[1:] for ds in designs)
        # one stage-1 stack per replication; each fed_config call truncates
        # its starts in one stacked call, and the stage1_run call its
        # members' starts in one more
        assert [name for name, _ in per_call].count("stage1_run") == 1
        assert {name for name, _ in per_call} == {"fed_config", "stage1_run"}
        assert all(n == 1 for _, n in per_call)
        assert truncations == [3] * len(per_call)
        assert res.manifest["aborted_replications"] == 0


def heatmap_config(tmp_path, **overrides):
    base = dict(
        kind="privacy_heatmap",
        seed=5,
        out_dir=str(tmp_path),
        d=4,
        rank=1,
        n_clients=2,
        t_len=60,
        reps=1,
        rounds=3,
        eps_grid=(0.5, 2.0),
        delta_grid=(0.05, 0.1),
        kappa=0.7,
        noise_mode="fixed_scale",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPrivacyHeatmap:
    @pytest.mark.parametrize("mode", ["fixed_scale", "calibrated"])
    def test_noise_mode_sets_each_cell_sigma(self, mode, tmp_path, monkeypatch):
        seen = []

        def record(m, sigma, rng):
            seen.append(sigma)
            return dp.add_gaussian_noise(m, sigma, rng)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", record)
        cfg = heatmap_config(tmp_path, noise_mode=mode)
        res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
        # the cells run in lockstep, so their draws interleave round by
        # round: count rounds x clients draws at each cell's sigma
        per_cell = cfg.rounds * cfg.n_clients
        assert len(seen) == per_cell * len(res.records)
        assert seen.count(0.0) == per_cell and res.records[0]["noise"] == "none"
        for rec in res.records[1:]:
            assert rec["noise"] == mode
            if mode == "fixed_scale":
                want = cfg.kappa * dp.gaussian_sigma(1.0, rec["eps"], rec["delta"])
            else:
                want = dp.gaussian_sigma(
                    cfg.sensitivity, rec["eps"] / cfg.rounds, rec["delta"] / cfg.rounds
                )
            assert sum(math.isclose(s, want, rel_tol=1e-15) for s in seen) == per_cell
        assert [(r["eps"], r["delta"]) for r in res.records[1:]] == [
            (e, dl) for dl in cfg.delta_grid for e in cfg.eps_grid
        ]

    def test_noisy_raw_csv_byte_identical_across_runs_and_rep_counts(self, tmp_path):
        assert_reruns_identical_and_reps_independent(heatmap_config(tmp_path), tmp_path)

    def test_calibrated_and_fixed_scale_differ(self, tmp_path):
        blobs = []
        for mode in ("fixed_scale", "calibrated"):
            res = run_experiment(
                heatmap_config(tmp_path, noise_mode=mode),
                run_dir=str(tmp_path / mode),
            )
            with open(res.raw_csv, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] != blobs[1]

    def test_no_noise_is_rejected_before_any_replication(self, tmp_path):
        # the config refuses it when it is built, so no run can start
        with pytest.raises(ValueError, match="noise_mode"):
            heatmap_config(tmp_path, noise_mode="none")


class TestCli:
    def test_simulate_prints_run_dir(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        to_json(tiny_config(out_dir=str(tmp_path)), str(cfg_path))
        code = cli.main(["simulate", "single_client_curve", "--config", str(cfg_path)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert os.path.exists(os.path.join(printed, "raw.csv"))

    def test_simulate_without_config_needs_seed(self, tmp_path, capsys):
        assert cli.main(["simulate", "rank_table"]) == 1
        code = cli.main(
            [
                "simulate",
                "rank_table",
                "--seed",
                "4",
                "--reps",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        # d=20 defaults make this a real run; just check the exit path
        assert code == 0

    def test_closed_output_pipe_exits_141_silently(self, tmp_path):
        # the reader is gone before the run prints its directory, as in
        # `fedvar simulate ... | true`
        cfg_path = tmp_path / "cfg.json"
        to_json(tiny_config(out_dir=str(tmp_path)), str(cfg_path))
        src = os.path.dirname(os.path.dirname(fedvar.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["simulate", "single_client_curve", "--config", str(cfg_path)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "fedvar.harness.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_simulation_and_fit_leave_scipy_unloaded(self, tmp_path):
        # numpy is the one runtime dependency: a t_sweep replication (ADMM
        # starts, stage 1 and FISTA) and a fedvar fit import no scipy module
        sim_path, fit_path = tmp_path / "sim.json", tmp_path / "fit.json"
        to_json(tiny_config(kind="t_sweep", t_grid=(60, 80), reps=1), str(sim_path))
        to_json(empirical_config(tmp_path, (30, 31)), str(fit_path))
        script = (
            "import sys\n"
            "from fedvar.harness import cli\n"
            f"assert cli.main(['simulate', 't_sweep', '--config', {str(sim_path)!r},"
            f" '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
            f"assert cli.main(['fit', '--config', {str(fit_path)!r},"
            f" '--out', {str(tmp_path / 'fit')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(fedvar.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fit" / "estimates.npz").is_file()
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_heatmap_without_noise_mode_exits_one(self, tmp_path, capsys):
        argv = ["simulate", "privacy_heatmap", "--seed", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "noise_mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag, value",
        [("k_sweep", "--eps", "-1"), ("privacy_heatmap", "--delta", "1.5"),
         # inf once ran a "calibrated" sweep with sigma 0 and exit 0
         ("k_sweep", "--eps", "inf"), ("k_sweep", "--eps", "nan")],
    )
    def test_bad_privacy_flag_exits_one_before_any_replication(
        self, kind, flag, value, tmp_path, capsys, monkeypatch
    ):
        calls = record_replications(monkeypatch, kind)
        argv = ["simulate", kind, "--seed", "1", "--reps", "2", flag, value,
                "--noise-mode", "calibrated", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert flag[2:] in capsys.readouterr().err
        assert calls == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "field, text",
        [("eps", "Infinity"), ("kappa", "NaN"), ("sensitivity", "Infinity"),
         ("eps_grid", "[1.0, Infinity]")],
    )
    def test_non_finite_privacy_config_exits_one_before_any_replication(
        self, field, text, tmp_path, capsys, monkeypatch
    ):
        # JSON configs may spell non-finite numbers; none reaches a run
        monkeypatch.chdir(tmp_path)
        kind = "privacy_heatmap" if field == "eps_grid" else "k_sweep"
        calls = record_replications(monkeypatch, kind)
        (tmp_path / "cfg.json").write_text(
            f'{{"kind": "{kind}", "seed": 1, "reps": 2, '
            f'"noise_mode": "calibrated", "{field}": {text}}}'
        )
        assert cli.main(["simulate", kind, "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert field in err and "positive and finite" in err
        assert calls == []
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "k_sweep", "d": 4, "rank": 6}, "rank 6 outside [1, d=4] for k_sweep"),
            ({"kind": "rank_table", "d": 4, "rank_grid": [0]},
             "rank 0 outside [1, d=4] for rank_table"),
            ({"kind": "rank_table", "d": 4, "rank_grid": [6]},
             "rank 6 outside [1, d=4] for rank_table"),
            ({"kind": "t_sweep", "t_grid": [0]}, "t_grid entries must be >= 1, got (0,)"),
            ({"kind": "k_sweep", "k_grid": [0, 2]}, "k_grid entries must be >= 1, got (0, 2)"),
            # 1.0 once aborted every replication with exit 2; 0.0 wrote a
            # study of all-zero worlds with exit 0
            ({"kind": "rank_table", "target_radius": 1.0},
             "target_radius must lie in (0, 1), got 1.0"),
            ({"kind": "t_sweep", "target_radius": 0.0},
             "target_radius must lie in (0, 1), got 0.0"),
            # each of these once aborted every replication, or failed after
            # them, with exit 2
            ({"kind": "t_sweep", "ratio": -1}, "ratio must be positive and finite, got -1"),
            ({"kind": "t_sweep", "q": 2}, "q must lie in (0, 1], got 2"),
            ({"kind": "t_sweep", "s_q": -1}, "s_q must be positive and finite, got -1"),
            ({"kind": "t_sweep", "lam_scale": -1}, "lam_scale must be >= 0 and finite, got -1"),
            ({"kind": "t_sweep", "omega_scale": -1},
             "omega_scale must be >= 0 and finite, got -1"),
            ({"kind": "t_sweep", "zeta": -1}, "zeta must be positive and finite, got -1"),
            ({"kind": "t_sweep", "rho_scale": -1}, "rho_scale must lie in (0, 1), got -1"),
            ({"kind": "t_sweep", "varpi_scale": -1},
             "varpi_scale must be >= 0 and finite, got -1"),
            ({"kind": "t_sweep", "out_dir": 5}, "out_dir must be a string, got 5"),
            ({"kind": "t_sweep", "t_grid": 400}, "t_grid must be a list, got 400"),
            ({"kind": "t_sweep", "panels": 5}, "panels must be a list, got 5"),
            # 0 once released the non-private start from a calibrated run
            ({"kind": "t_sweep", "rho_scale": 0}, "rho_scale must lie in (0, 1), got 0"),
            # a step past the stability bound: 1.5 once wrote a fed_a0_err
            # of 1e23 with exit 0
            ({"kind": "k_sweep", "rho_scale": 1.5}, "rho_scale must lie in (0, 1), got 1.5"),
            ({"kind": "k_sweep", "d": 20, "p": 52},
             "p * d = 1040 exceeds the SVD cap 1024"),
        ],
        ids=["rank", "rank_grid_0", "rank_grid_6", "t_grid", "k_grid",
             "target_radius_1", "target_radius_0", "ratio", "q", "s_q", "lam_scale",
             "omega_scale", "zeta", "rho_scale", "varpi_scale", "out_dir", "t_grid_scalar",
             "panels", "rho_scale_0", "rho_scale_1_5", "svd_cap"],
    )
    def test_bad_rank_or_grid_exits_one_before_any_replication(
        self, doc, message, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        calls = record_replications(monkeypatch, doc["kind"])
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1, "reps": 2, **doc}))
        assert cli.main(["simulate", doc["kind"], "--config", "cfg.json"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert calls == []
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_step_inside_the_stability_bound_runs(self, tmp_path, capsys, monkeypatch):
        # the sweep that diverged at rho_scale 1.5 converges just inside
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(
            json.dumps({"kind": "k_sweep", "seed": 3, "reps": 2, "rho_scale": 0.99})
        )
        assert cli.main(["simulate", "k_sweep", "--config", "cfg.json", "--out", "sim"]) == 0
        run_dir = capsys.readouterr().out.strip()
        with open(os.path.join(run_dir, "raw.csv"), newline="", encoding="utf-8") as fh:
            errs = [float(r["value"]) for r in csv.DictReader(fh) if r["metric"] == "fed_a0_err"]
        assert len(errs) == 2 * 3 and max(errs) < 1.0

    @pytest.mark.parametrize(
        "doc, message",
        [({"kind": "rank_table", "d": 4, "rank_grid": [10**400]},
          f"rank_grid entries must be at most {INTP_MAX}, got ({10**400},)"),
         ({"kind": "t_sweep", "d": 4, "t_grid": [10**400]},
          f"t_grid entries must be at most {INTP_MAX}, got ({10**400},)"),
         ({"kind": "t_sweep", "d": 4, "reps": 10**400},
          f"reps must be at most {INTP_MAX}, got {10**400}"),
         ({"kind": "k_sweep", "d": 4, "t_len": INTP_MAX + 1},
          f"t_len must be at most {INTP_MAX}, got {INTP_MAX + 1}"),
         ({"kind": "k_sweep", "d": 4, "n_clients": 10**400},
          f"n_clients must be at most {INTP_MAX}, got {10**400}"),
         # a float field holds no such value
         ({"kind": "privacy_heatmap", "d": 4, "noise_mode": "fixed", "eps_grid": [10**400]},
          "eps_grid entries must be positive and finite, got (inf,)"),
         ({"kind": "t_sweep", "d": 4, "eps": 10**400},
          f"eps must be positive and finite, got {10**400}")],
        ids=["rank_grid", "t_grid", "reps", "t_len", "n_clients", "eps_grid", "eps"],
    )
    def test_integer_too_large_for_a_float_exits_one(
        self, doc, message, tmp_path, capsys, monkeypatch
    ):
        # a 400-digit grid entry once overflowed the config check's
        # conversion to float, and a 400-digit eps failed every replication;
        # each exited 2.  An integer field or grid entry beyond np.intp
        # was let through to numpy or to a list of that length: reps exited
        # 2, and t_grid exited 1 with numpy's message, which names no field
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1, "reps": 2, **doc}))
        argv = ["simulate", doc["kind"], "--config", "cfg.json", "--out", "out"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("field", ["bogus", "fista_iters"])
    def test_unknown_config_field_exits_one(self, field, tmp_path, capsys, monkeypatch):
        # fista_iters was a field once; the refinement cap is now fixed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(
            json.dumps({"kind": "t_sweep", "seed": 1, "reps": 1, field: 20})
        )
        argv = ["simulate", "t_sweep", "--config", "cfg.json", "--out", "out"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert f"unknown config fields: {field}" in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_unknown_panel_field_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"kind": "empirical", "seed": 1, "panels": [{"path": "p.csv", "bogus": 1}]}
            )
        )
        assert cli.main(["fit", "--config", str(cfg_path)]) == 1
        assert "unknown panel fields: bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("standardize", "false"), ("transforms", [1.5]), ("sensitive", [2.7]),
         ("client_id", 5)],
    )
    def test_mistyped_panel_field_exits_one(self, field, value, tmp_path, capsys):
        rng = np.random.default_rng(25)
        path = tmp_path / "c1.csv"
        write_panel(var.simulate(0.3 * np.eye(4), 1, 20, rng), str(path))
        panel = {"path": str(path), field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "empirical", "seed": 1, "panels": [panel]}))
        out = tmp_path / "fitout"
        assert cli.main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"panel {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_rank_exits_one_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # d = 4 panels: rank 5 is refused before the first ADMM stack
        cfg = replace(empirical_config(tmp_path, (30, 31)), rank=5)
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        stacks = []
        monkeypatch.setattr(single_client, "fit_admm", lambda *args: stacks.append(args))
        out = tmp_path / "fitout"
        assert cli.main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "rank 5 outside [1, d=4]" in capsys.readouterr().err
        assert stacks == []
        assert not out.exists()

    def test_all_zero_panels_exit_one(self, tmp_path, capsys):
        # every Gram matrix is zero, so no stage-1 step can be set
        specs = []
        for k in range(2):
            path = tmp_path / f"c{k + 1}.csv"
            path.write_text("a,b,c\n" + "0,0,0\n" * 12)
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
        cfg = ExperimentConfig(
            kind="empirical", seed=1, d=3, p=1, rank=1, n_origins=3, panels=tuple(specs)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        out = tmp_path / "fitout"
        assert cli.main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "zero pooled Gram matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "rank-select", "simulate"])
    def test_overflowing_panels_exit_one(self, command, tmp_path, capsys):
        # finite readings whose squares pass the float64 range
        rng = np.random.default_rng(25)
        specs = []
        for k in range(2):
            path = tmp_path / f"c{k + 1}.csv"
            pn = var.simulate(0.3 * np.eye(4), 1, 30, rng)
            write_panel(var.TimeSeriesPanel(pn.presample * 1e160, pn.observations * 1e160),
                        str(path))
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}", standardize=False))
        cfg = ExperimentConfig(
            kind="empirical", seed=1, d=4, p=1, rank=1, n_origins=3, panels=tuple(specs)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        out = tmp_path / "out"
        argv = {
            "fit": ["fit", "--config", str(cfg_path), "--out", str(out)],
            "rank-select": ["rank-select", "--config", str(cfg_path)],
            "simulate": ["simulate", "empirical", "--config", str(cfg_path), "--out", str(out)],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        assert "lag design statistic sxx overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_checks_every_panel_before_creating_output(self, tmp_path, capsys):
        rng = np.random.default_rng(23)
        good = tmp_path / "c1.csv"
        write_panel(var.simulate(0.3 * np.eye(4), 1, 20, rng), str(good))
        short = tmp_path / "short.csv"
        short.write_text("a,b,c,d\n1,2,3,4\n2,3,4,5\n")
        for bad, message in (
            (tmp_path / "missing.csv", "panel file not found: "),
            (short, "need at least p + 2"),
        ):
            cfg = ExperimentConfig(
                kind="empirical", seed=1, d=4, p=1, rank=1, n_origins=3,
                panels=(PanelSpec(path=str(good)), PanelSpec(path=str(bad))),
            )
            cfg_path = tmp_path / "cfg.json"
            to_json(cfg, str(cfg_path))
            out = tmp_path / "fitout"
            assert cli.main(["fit", "--config", str(cfg_path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert message in err and str(bad) in err
            assert not out.exists()

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main([]) == 1
        assert cli.main(["simulate", "not_a_kind"]) == 1
        assert cli.main(["simulate", "t_sweep", "--bogus"]) == 1
        assert cli.main(["forecast", "--config", "x.json"]) == 1  # missing --estimates

    def test_missing_config_path_exits_one(self, capsys):
        assert cli.main(["fit", "--config", "/no/such/file.json"]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "forecast", "rank-select"])
    def test_missing_panel_file_exits_one(self, command, tmp_path, capsys):
        rng = np.random.default_rng(23)
        good = tmp_path / "c1.csv"
        write_panel(var.simulate(0.3 * np.eye(4), 1, 20, rng), str(good))
        missing = tmp_path / "missing.csv"
        cfg = ExperimentConfig(
            kind="empirical", seed=1, d=4, p=1, rank=1, n_origins=3,
            panels=(PanelSpec(path=str(good)), PanelSpec(path=str(missing))),
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_path)]
        if command != "rank-select":
            argv += ["--out", str(out)]
        if command == "forecast":
            argv += ["--estimates", str(tmp_path / "estimates.npz")]
        assert cli.main(argv) == 1
        assert f"panel file not found: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "forecast", "rank-select"])
    def test_mixed_panel_widths_exit_one(self, command, tmp_path, capsys):
        rng = np.random.default_rng(25)
        specs = []
        for k, d in enumerate((4, 3)):
            path = tmp_path / f"c{k + 1}.csv"
            write_panel(var.simulate(0.3 * np.eye(d), 1, 30, rng), str(path))
            specs.append(PanelSpec(path=str(path)))
        cfg = ExperimentConfig(
            kind="empirical", seed=1, d=4, p=1, rank=1, n_origins=3, panels=tuple(specs)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        est = tmp_path / "estimates.npz"
        np.savez(est, a0=np.zeros((4, 4)), delta_1=np.zeros((4, 4)), delta_2=np.zeros((4, 4)))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_path)]
        if command != "rank-select":
            argv += ["--out", str(out)]
        if command == "forecast":
            argv += ["--estimates", str(est)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{specs[1].path}: 3 columns, but {specs[0].path} has 4" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["fit"], ["simulate", "empirical"]], ids=["fit", "simulate"]
    )
    def test_empirical_usage_errors_exit_one(self, command, tmp_path, capsys):
        rng = np.random.default_rng(26)
        good = tmp_path / "c1.csv"
        write_panel(var.simulate(0.3 * np.eye(4), 1, 20, rng), str(good))
        missing = tmp_path / "missing.csv"
        for panel, n_origins, message in (
            (missing, 3, f"panel file not found: {missing}"),
            (good, 20, f"n_origins 20 outside [1, 18] for panel {good}"),
        ):
            cfg = ExperimentConfig(
                kind="empirical", seed=1, d=4, p=1, rank=1, n_origins=n_origins,
                panels=(PanelSpec(path=str(good), client_id="c1"),
                        PanelSpec(path=str(panel), client_id="c2")),
            )
            cfg_path = tmp_path / "cfg.json"
            to_json(cfg, str(cfg_path))
            out = tmp_path / "out"
            argv = command + ["--config", str(cfg_path), "--out", str(out)]
            assert cli.main(argv) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "delta_2, message",
        [
            (np.zeros((4, 5)), "delta_2 has shape (4, 5), the panels need (4, 4)"),
            (np.full((4, 4), np.nan), "--estimates delta_2 contains non-finite entries"),
        ],
        ids=["too_wide", "non_finite"],
    )
    def test_forecast_checks_every_estimate_before_writing(
        self, delta_2, message, tmp_path, capsys
    ):
        rng = np.random.default_rng(27)
        specs = []
        for k in range(2):
            path = tmp_path / f"c{k + 1}.csv"
            write_panel(var.simulate(0.3 * np.eye(4), 1, 20, rng), str(path))
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
        cfg = ExperimentConfig(
            kind="empirical", seed=6, d=4, p=1, rank=1, panels=tuple(specs)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        est = tmp_path / "estimates.npz"
        np.savez(est, a0=np.zeros((4, 4)), delta_1=np.zeros((4, 4)), delta_2=delta_2)
        out = tmp_path / "out"
        argv = ["forecast", "--config", str(cfg_path), "--estimates", str(est)]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(24)
        path = tmp_path / "c1.csv"
        write_panel(var.simulate(0.3 * np.eye(4), 1, 40, rng), str(path))
        cfg = ExperimentConfig(
            kind="empirical", seed=1, d=4, p=1, rank=1, panels=(PanelSpec(path=str(path)),)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))

        def failing(designs, cfgs):
            raise RuntimeError("solver broke")

        monkeypatch.setattr(single_client, "fit_admm", failing)
        assert cli.main(["rank-select", "--config", str(cfg_path)]) == 2
        assert "runtime failure: solver broke" in capsys.readouterr().err

    def test_fit_then_forecast_round_trip(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(21)
        a0, deltas = var.assemble_dgp(4, 1, 1, 2, rng, ratio=5.0)
        specs = []
        for k in range(2):
            panel = var.simulate(a0 + deltas[k], 1, 40, rng)
            path = tmp_path / f"c{k + 1}.csv"
            write_panel(panel, str(path))
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
        cfg = ExperimentConfig(
            kind="empirical",
            seed=6,
            d=4,
            p=1,
            rank=1,
            n_origins=3,
            panels=tuple(specs),
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))

        loaded = []

        def counting_load(spec, p):
            loaded.append(spec.path)
            return load_panel(spec, p)

        monkeypatch.setattr(panels_module, "load_panel", counting_load)
        fit_dir = tmp_path / "fitout"
        code = cli.main(["fit", "--config", str(cfg_path), "--out", str(fit_dir)])
        assert code == 0
        assert sorted(loaded) == sorted(spec.path for spec in specs)  # once each
        est = fit_dir / "estimates.npz"
        assert est.exists() and (fit_dir / "rmsfe.csv").exists()
        with np.load(est) as bundle:
            assert bundle["a0"].shape == (4, 4)
            assert {"delta_1", "delta_2"} <= set(bundle.files)

        fc_dir = tmp_path / "fcout"
        code = cli.main(
            [
                "forecast",
                "--config",
                str(cfg_path),
                "--out",
                str(fc_dir),
                "--estimates",
                str(est),
            ]
        )
        assert code == 0
        lines = (fc_dir / "forecasts.csv").read_text().splitlines()
        assert lines[0].startswith("client")
        assert len(lines) == 1 + 2 * 4

    def test_forecast_with_estimates_for_fewer_clients_exits_one(
        self, tmp_path, capsys
    ):
        rng = np.random.default_rng(22)
        specs = []
        for k in range(3):
            panel = var.simulate(0.3 * np.eye(4), 1, 20, rng)
            path = tmp_path / f"c{k + 1}.csv"
            write_panel(panel, str(path))
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
        cfg = ExperimentConfig(
            kind="empirical", seed=6, d=4, p=1, rank=1, panels=tuple(specs)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        est = tmp_path / "estimates.npz"
        np.savez(est, a0=np.zeros((4, 4)), delta_1=np.zeros((4, 4)))
        argv = ["forecast", "--config", str(cfg_path), "--estimates", str(est)]
        code = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert code == 1
        assert "lacks delta_2, delta_3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rank_select_reports_json(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a0, deltas = var.assemble_dgp(6, 1, 2, 2, rng, ratio=5.0)
        specs = []
        for k in range(2):
            panel = var.simulate(a0 + deltas[k], 1, 400, rng)
            path = tmp_path / f"c{k + 1}.csv"
            write_panel(panel, str(path))
            specs.append(PanelSpec(path=str(path), client_id=f"c{k + 1}"))
        cfg = ExperimentConfig(
            kind="empirical", seed=6, d=6, p=1, rank=2, panels=tuple(specs)
        )
        cfg_path = tmp_path / "cfg.json"
        to_json(cfg, str(cfg_path))
        assert cli.main(["rank-select", "--config", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"rank", "per_client"}
        assert set(doc["per_client"]) == {"c1", "c2"}

    @pytest.mark.parametrize(
        "command",
        [["fit"], ["forecast"], ["rank-select"], ["simulate", "empirical"]],
        ids=["fit", "forecast", "rank-select", "simulate"],
    )
    def test_duplicate_client_label_exits_one(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(29)
        panels = []
        for k in range(2):
            path = f"c{k + 1}.csv"
            write_panel(var.simulate(0.3 * np.eye(4), 1, 30, rng), path)
            panels.append({"path": path, "client_id": "x"})
        doc = {"kind": "empirical", "seed": 1, "d": 4, "p": 1, "rank": 1,
               "n_origins": 3, "panels": panels}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv = command + ["--config", "cfg.json"]
        if command != ["rank-select"]:
            argv += ["--out", "out"]
        if command == ["forecast"]:
            np.savez("estimates.npz", a0=np.zeros((4, 4)), delta_1=np.zeros((4, 4)),
                     delta_2=np.zeros((4, 4)))
            argv += ["--estimates", "estimates.npz"]
        before = sorted(os.listdir(tmp_path))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "two panels are labelled 'x'; set distinct client_ids" in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "single_client_curve", "--seed", "1", "--reps", "1", "--d", "4"],
             "unrecognized arguments: --d 4"),
            (["simulate", "rank_table", "--se", "1"], "unrecognized arguments: --se 1"),
            (["simulate", "t_sweep", "--seed", "1", "--noise", "fixed"],
             "unrecognized arguments: --noise fixed"),
            (["fit", "--conf", "cfg.json"], "required: --config"),
            (["forecast", "--config", "cfg.json", "--est", "e.npz"], "required: --estimates"),
            (["rank-select", "--conf", "cfg.json"], "required: --config"),
            (["--he"], "required: command"),
        ],
        ids=["simulate_d", "simulate_se", "simulate_noise", "fit", "forecast", "rank-select",
             "top_level"],
    )
    def test_abbreviated_flag_exits_one(self, argv, message, tmp_path, capsys, monkeypatch):
        # argparse would otherwise read --d as --delta, --se as --seed and
        # --he as --help
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("reps", ["7", "2", "0"])
    def test_simulate_empirical_refuses_reps_other_than_one(
        self, reps, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        write_panel(var.simulate(0.3 * np.eye(4), 1, 30, np.random.default_rng(30)), "c1.csv")
        doc = {"kind": "empirical", "seed": 1, "d": 4, "p": 1, "rank": 1,
               "n_origins": 3, "panels": [{"path": "c1.csv"}]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        base = ["simulate", "empirical", "--config", "cfg.json", "--out", "out"]
        assert cli.main(base + ["--reps", reps]) == 1
        captured = capsys.readouterr()
        assert f"the empirical kind runs one replication, got --reps {reps}" in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["c1.csv", "cfg.json"]
        assert cli.main(base + ["--reps", "1"]) == 0
        with open(os.path.join(capsys.readouterr().out.strip(), "manifest.json")) as fh:
            assert json.load(fh)["replications"] == 1

    def test_unnamed_panels_carry_their_path_in_every_output(self, tmp_path, capsys):
        rng = np.random.default_rng(28)
        a0, deltas = var.assemble_dgp(4, 1, 1, 2, rng, ratio=5.0)
        specs = []
        for k in range(2):
            path = tmp_path / f"p{k + 1}.csv"
            write_panel(var.simulate(a0 + deltas[k], 1, 40, rng), str(path))
            specs.append(PanelSpec(path=str(path), sensitive=(1,)))
        cfg = ExperimentConfig(
            kind="empirical", seed=6, d=4, p=1, rank=1, n_origins=3, panels=tuple(specs)
        )
        cfg_path = str(tmp_path / "cfg.json")
        to_json(cfg, cfg_path)
        paths = [spec.path for spec in specs]

        def clients(table):
            with open(table, newline="", encoding="utf-8") as fh:
                return list(dict.fromkeys(row["client"] for row in csv.DictReader(fh)))

        fit_dir, fc_dir = tmp_path / "fit", tmp_path / "fc"
        assert cli.main(["fit", "--config", cfg_path, "--out", str(fit_dir)]) == 0
        est = str(fit_dir / "estimates.npz")
        argv = ["forecast", "--config", cfg_path, "--estimates", est, "--out", str(fc_dir)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(["rank-select", "--config", cfg_path]) == 0
        per_client = json.loads(capsys.readouterr().out)["per_client"]
        argv = ["simulate", "empirical", "--config", cfg_path, "--out", str(tmp_path / "sim")]
        assert cli.main(argv) == 0
        run_dir = capsys.readouterr().out.strip()
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            sensitive = json.load(fh)["sensitive_indices"]

        assert clients(fit_dir / "rmsfe.csv") == paths
        assert clients(fc_dir / "forecasts.csv") == paths
        assert clients(os.path.join(run_dir, "raw.csv")) == paths
        assert sorted(per_client) == sorted(sensitive) == sorted(paths)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("fit", "--reps", "7")]
        + [("forecast", flag, value) for flag, value in OVERRIDE_FLAGS]
        + [("rank-select", flag, value)
           for flag, value in (("--out", "nowhere"), *OVERRIDE_FLAGS)],
    )
    def test_flag_the_command_does_not_read_exits_one(
        self, command, flag, value, tmp_path, capsys
    ):
        argv = [command, "--config", str(tmp_path / "cfg.json"), flag, value]
        if command == "forecast":
            argv += ["--estimates", str(tmp_path / "estimates.npz")]
        assert cli.main(argv) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
