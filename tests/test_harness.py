import json
import os

import numpy as np
import pytest

from fedvar import dp, fed_core, var
from fedvar.harness import (
    ExperimentConfig,
    PanelSpec,
    config_hash,
    load_panel,
    run_experiment,
    write_panel,
)
from fedvar.harness import cli, experiments
from fedvar.harness.config import from_json, to_json


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
        assert panel.client_id == str(path)

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

    def test_too_short_after_preprocessing(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["a"], [[1], [2], [3]])
        with pytest.raises(ValueError, match="need at least"):
            load_panel(PanelSpec(path=str(path)), p=1)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        panel = var.TimeSeriesPanel(
            presample=rng.standard_normal((2, 3)),
            observations=rng.standard_normal((7, 3)),
            client_id="rt",
        )
        path = tmp_path / "p.csv"
        write_panel(panel, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "v1,v2,v3"
        # code 0 drops one leading row, so reload with p = 1: the
        # observations and the last presample row survive bit-for-bit
        back = load_panel(PanelSpec(path=str(path), client_id="rt"), p=1)
        assert np.array_equal(back.presample, panel.presample[1:])
        assert np.array_equal(back.observations, panel.observations)

    def test_write_panel_name_count_checked(self, tmp_path):
        panel = var.TimeSeriesPanel(
            presample=np.zeros((1, 2)), observations=np.ones((2, 2))
        )
        with pytest.raises(ValueError):
            write_panel(panel, str(tmp_path / "p.csv"), var_names=["only"])


class TestRunExperiment:
    def test_emits_three_files_with_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
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

    def test_grid_defaults_fill_and_hash_ignores_spelling(self, tmp_path):
        # leaving a grid empty and spelling out the default are the same
        # experiment, so they must hash identically in the manifest
        sparse = ExperimentConfig(kind="privacy_heatmap", seed=9, reps=1, d=4)
        explicit = ExperimentConfig(
            kind="privacy_heatmap", seed=9, reps=1, d=4, eps_grid=(0.5, 1.0, 2.0, 4.0)
        )
        filled = experiments._fill_grids(sparse)
        assert filled.eps_grid == explicit.eps_grid
        assert config_hash(filled) == config_hash(explicit)

    def test_timestamped_dir_under_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
        cfg = tiny_config(out_dir=str(tmp_path), reps=1)
        res = run_experiment(cfg)
        assert res.out_dir.startswith(
            os.path.join(str(tmp_path), "single_client_curve")
        )

    def test_raw_csv_byte_identical_across_runs_and_threads(
        self, tmp_path, monkeypatch
    ):
        cfg = tiny_config(out_dir=str(tmp_path), reps=3)
        blobs = []
        for i, threads in enumerate(("1", "2", "1")):
            monkeypatch.setenv("FEDVAR_THREADS", threads)
            res = run_experiment(cfg, run_dir=str(tmp_path / f"run{i}"))
            with open(res.raw_csv, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_abort_rate_over_one_percent_fails(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")

        def explode(cfg, rep):
            raise RuntimeError("boom")

        monkeypatch.setitem(experiments.REP_FUNCTIONS, "single_client_curve", explode)
        with pytest.raises(RuntimeError, match="aborted"):
            run_experiment(
                tiny_config(out_dir=str(tmp_path)), run_dir=str(tmp_path / "run")
            )

    def test_rare_abort_is_tolerated_and_counted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "2")

        def stub(cfg, rep):
            if rep == 7:
                raise RuntimeError("boom")
            return [{"rep": rep, "t_len": 60, "metric": "ak_err", "value": 1.0}]

        monkeypatch.setitem(experiments.REP_FUNCTIONS, "single_client_curve", stub)
        res = run_experiment(
            tiny_config(out_dir=str(tmp_path), reps=200),
            run_dir=str(tmp_path / "run"),
        )
        assert res.manifest["aborted_replications"] == 1
        assert res.summary["groups"]["t_len=60|metric=ak_err"]["n"] == 199

    def test_empirical_runs_once_regardless_of_reps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
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

    @staticmethod
    def _write_world(tmp_path):
        rng = np.random.default_rng(12)
        a0, deltas = var.assemble_dgp(4, 1, 1, 1, rng, ratio=5.0)
        panel = var.simulate(a0 + deltas[0], 1, 30, rng, client_id="c1")
        path = tmp_path / "c1.csv"
        write_panel(panel, str(path))
        return PanelSpec(path=str(path), sensitive=(2,), client_id="c1")


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
        monkeypatch.setenv("FEDVAR_THREADS", "1")
        seen = []

        def record(m, sigma, rng):
            seen.append(sigma)
            return dp.add_gaussian_noise(m, sigma, rng)

        monkeypatch.setattr(fed_core, "add_gaussian_noise", record)
        cfg = heatmap_config(tmp_path, noise_mode=mode)
        res = run_experiment(cfg, run_dir=str(tmp_path / "run"))
        # rounds x clients draws per cell, cells in record order
        per_cell = cfg.rounds * cfg.n_clients
        cells = [seen[i : i + per_cell] for i in range(0, len(seen), per_cell)]
        assert len(cells) == len(res.records)
        assert all(len(set(c)) == 1 for c in cells)
        assert cells[0][0] == 0.0 and res.records[0]["noise"] == "none"
        for rec, cell in zip(res.records[1:], cells[1:]):
            assert rec["noise"] == mode
            if mode == "fixed_scale":
                want = cfg.kappa * dp.gaussian_sigma(1.0, rec["eps"], rec["delta"])
            else:
                want = dp.gaussian_sigma(
                    cfg.sensitivity, rec["eps"] / cfg.rounds, rec["delta"] / cfg.rounds
                )
            assert cell[0] == pytest.approx(want, rel=1e-15)
        assert [(r["eps"], r["delta"]) for r in res.records[1:]] == [
            (e, dl) for dl in cfg.delta_grid for e in cfg.eps_grid
        ]

    def test_calibrated_and_fixed_scale_differ(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
        blobs = []
        for mode in ("fixed_scale", "calibrated"):
            res = run_experiment(
                heatmap_config(tmp_path, noise_mode=mode),
                run_dir=str(tmp_path / mode),
            )
            with open(res.raw_csv, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] != blobs[1]

    def test_no_noise_is_rejected_before_any_replication(
        self, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setitem(
            experiments.REP_FUNCTIONS,
            "privacy_heatmap",
            lambda cfg, rep: calls.append(rep) or [],
        )
        with pytest.raises(ValueError, match="noise_mode"):
            run_experiment(
                heatmap_config(tmp_path, noise_mode="none"),
                run_dir=str(tmp_path / "none"),
            )
        assert calls == []
        assert not os.path.exists(tmp_path / "none")


class TestCli:
    def test_simulate_prints_run_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
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

    def test_heatmap_without_noise_mode_exits_one(self, tmp_path, capsys):
        argv = ["simulate", "privacy_heatmap", "--seed", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "noise_mode" in capsys.readouterr().err

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main([]) == 1
        assert cli.main(["simulate", "not_a_kind"]) == 1
        assert cli.main(["simulate", "t_sweep", "--bogus"]) == 1
        assert cli.main(["forecast", "--config", "x.json"]) == 1  # missing --estimates

    def test_missing_config_path_exits_one(self, capsys):
        assert cli.main(["fit", "--config", "/no/such/file.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = ExperimentConfig(
            kind="empirical",
            seed=1,
            panels=(PanelSpec(path=str(tmp_path / "missing.csv")),),
        )
        to_json(cfg, str(cfg_path))
        assert cli.main(["rank-select", "--config", str(cfg_path)]) == 2

    def test_fit_then_forecast_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
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

        fit_dir = tmp_path / "fitout"
        code = cli.main(["fit", "--config", str(cfg_path), "--out", str(fit_dir)])
        assert code == 0
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

    def test_rank_select_reports_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDVAR_THREADS", "1")
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
