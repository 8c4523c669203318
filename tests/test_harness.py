"""Experiment runner determinism, config round-trips, presets, and the CLI."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclopt import harness
from oclopt.cli import main as cli_main
from oclopt.harness import (ConfigError, PRESET_NAMES, apply_overrides,
                            config_from_dict, config_to_dict, expand_variants,
                            load_config, preset, run_experiment, run_from_manifest,
                            run_with_companions, save_config,
                            verify_bounds_from_config)
from oclopt.model import DivergenceError


def tiny_config(**overrides):
    cfg = preset("main-comparison")
    cfg.variants = None
    cfg.stream.horizon = 80
    cfg.optimizer.k_w = 60
    cfg.schedule.k_r = 30
    cfg.eval_every = 20
    cfg.seeds = [5]
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = preset("malr-ablation")
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        assert config_to_dict(load_config(path)) == config_to_dict(cfg)

    def test_from_dict_rejects_unknown_keys(self):
        d = config_to_dict(tiny_config())
        d["stream"]["bogus"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(d)

    @pytest.mark.parametrize("key,value", [
        ("stream.horizon", 1.5), ("iters_per_step", 0.5), ("stream.task_length", 1.5),
        ("replay.capacity", 1.5), ("optimizer.k_w", True), ("iters_per_step", None)])
    def test_integer_keys_take_integers(self, key, value):
        with pytest.raises(ConfigError, match="must be an integer"):
            apply_overrides(tiny_config(), {key: value})

    def test_optional_integer_keys_take_null(self):
        cfg = apply_overrides(tiny_config(), {"replay.capacity": None, "ft_k1": None})
        assert cfg.replay.capacity is None and cfg.ft_k1 is None

    def test_override_paths_validated(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            apply_overrides(cfg, {"schedule.nope": 1})

    def test_validation_catches_inconsistencies(self):
        cfg = tiny_config()
        cfg.optimizer.averaging = "none"
        cfg.schedule.kind = "malr"
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = tiny_config()
        cfg.schedule.kind = "cyclic"
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_every_preset_builds_and_validates(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            for _, concrete in expand_variants(cfg):
                concrete.validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("does-not-exist")


class TestRunExperiment:
    def test_no_update_budget_stays_at_chance(self):
        # frozen model over two full mean rotations: time-averaged next-step
        # accuracy is chance for 2 balanced classes
        cfg = tiny_config(**{"schedule.kind": "constant",
                             "stream.angular_velocity": 4 * np.pi / 80})
        cfg.iters_per_step = 0
        res = run_experiment(cfg, seed=1)
        assert res.costs.update == 0
        p_le = res.final_metrics()["p_le"]
        assert abs(p_le - 0.5) < 0.1

    def test_same_seed_bitwise_identical(self):
        a = run_experiment(tiny_config(), seed=9)
        b = run_experiment(tiny_config(), seed=9)
        # nan-valued fields (e.g. P_FT near the horizon) break tuple ==;
        # repr equality is the same contract as CSV byte identity
        assert repr(a.metric_rows) == repr(b.metric_rows)
        assert repr(a.schedule_rows) == repr(b.schedule_rows)
        assert np.array_equal(a.base.theta, b.base.theta)

    def test_different_seed_differs(self):
        a = run_experiment(tiny_config(), seed=1)
        b = run_experiment(tiny_config(), seed=2)
        assert not np.array_equal(a.base.theta, b.base.theta)

    def test_artifact_csvs_bit_identical_across_reruns(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, seed=4, out_dir=tmp_path / "a")
        run_experiment(cfg, seed=4, out_dir=tmp_path / "b")
        for name in ("metrics.csv", "schedule.csv", "config.yaml", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_manifest_replay_reproduces_csvs(self, tmp_path):
        cfg = tiny_config()
        run_experiment(cfg, seed=4, out_dir=tmp_path / "orig")
        run_from_manifest(tmp_path / "orig" / "manifest.json",
                          out_dir=tmp_path / "replay")
        assert (tmp_path / "orig" / "metrics.csv").read_bytes() == \
               (tmp_path / "replay" / "metrics.csv").read_bytes()

    def test_manifest_seed_is_checked(self, tmp_path):
        run_experiment(tiny_config(), seed=4, out_dir=tmp_path / "orig")
        path = tmp_path / "orig" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["seed"] = -1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="seeds must be non-negative integers"):
            run_from_manifest(path)

    def test_one_run_is_built_per_experiment(self, monkeypatch):
        built = []

        class CountingRun(harness.Run):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(harness, "Run", CountingRun)
        run_experiment(tiny_config(), seed=3)
        assert len(built) == 1

    def test_a_config_without_seeds_is_a_config_error(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(seeds=[]))

    def test_output_directory_does_not_change_numbers(self, tmp_path):
        cfg = tiny_config()
        plain = run_experiment(cfg, seed=4)
        written = run_experiment(cfg, seed=4, out_dir=tmp_path / "out")
        assert repr(plain.metric_rows) == repr(written.metric_rows)

    def test_divergence_flagged_and_partial(self):
        cfg = tiny_config(**{"schedule.kind": "constant", "schedule.alpha0": 1e6})
        res = run_experiment(cfg, seed=1)
        assert res.diverged

    def test_quadratic_stream_runs(self):
        cfg = tiny_config(**{
            "stream.kind": "drifting-quadratic",
            "model.kind": "quadratic-probe",
            "model.loss": "quadratic",
            "model.weight_decay": 0.0,
            "schedule.kind": "constant",
            "schedule.alpha0": 0.2,
            "stream.noise_radius": 0.3,
        })
        cfg.stream.velocity = [0.001, 0.001]
        cfg.stream.center0 = [1.0, -1.0]
        res = run_experiment(cfg, seed=2)
        assert not res.diverged
        # negative-loss performance improves as the probe approaches the pool mean
        p_irs = [r[3] for r in res.metric_rows if not np.isnan(r[3])]
        assert p_irs[-1] > p_irs[0]

    def test_ema_replay_companion_uses_main_lr_trace(self):
        cfg = tiny_config()
        cfg.companion = "ema-replay"
        results = run_with_companions(cfg, seed=3)
        assert set(results) == {"main", "ema-replay"}
        assert results["ema-replay"].lr_trace == results["main"].lr_trace

    def test_mixed_replay_runs(self):
        cfg = tiny_config(**{"replay.mode": "mixed"})
        res = run_experiment(cfg, seed=1)
        assert not res.diverged


class TestComputeAccounting:
    @pytest.mark.parametrize("averaging,n_models", [("none", 0), ("ema", 1), ("ama", 2)])
    @pytest.mark.parametrize("holdout_fraction", [0.05, 0.002])
    def test_costs_match_closed_form_for_every_averager(self, averaging, n_models,
                                                        holdout_fraction):
        # criterion 11's closed form with m MA models: F = K + (m+1)(K//k_v -
        # skipped), G = K, U = K + m(K//k_m); the small holdout fraction leaves
        # the holdout pool empty at the first validation folds
        cfg = tiny_config(**{"optimizer.averaging": averaging, "schedule.kind": "rwp",
                             "replay.holdout_fraction": holdout_fraction})
        res = run_experiment(cfg, seed=2)
        k_total, o = len(res.lr_trace), cfg.optimizer
        skipped = res.ama.skipped_validations
        assert k_total == cfg.stream.horizon * cfg.iters_per_step
        assert (skipped > 0) == (holdout_fraction < 0.01)
        assert len(res.ama.ma) == n_models
        assert (res.costs.forward, res.costs.grad, res.costs.update) == (
            k_total + (n_models + 1) * (k_total // o.k_v - skipped), k_total,
            k_total + n_models * (k_total // o.k_m))


class TestTheoryConfig:
    def test_theory_preset_has_at_least_six_configs(self):
        cfg = preset("theory-verify")
        assert len(cfg.theory["configs"]) >= 6

    def test_verify_bounds_small(self):
        cfg = preset("theory-verify")
        cfg.theory["k_max"] = 200
        cfg.theory["n_seeds"] = 6
        cfg.theory["configs"] = cfg.theory["configs"][:2]
        reports = verify_bounds_from_config(cfg)
        assert len(reports) == 2
        assert all(rep.all_hold for _, rep in reports)


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg = tiny_config()
        cfg_path = tmp_path / "cfg.yaml"
        save_config(cfg, cfg_path)
        code = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "runs")])
        assert code == 0
        assert (tmp_path / "runs" / "base" / "seed5" / "main" / "metrics.csv").exists()
        code = cli_main(["report", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "p_ir" in out

    def test_preset_emits_yaml(self, tmp_path):
        out = tmp_path / "p.yaml"
        code = cli_main(["preset", "buffer-size", "--out", str(out)])
        assert code == 0
        assert load_config(out).name == "buffer-size"

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("stream: {kind: nope}\n")
        assert cli_main(["run", str(bad)]) == 2

    # main-comparison streams rotating Gaussians under malr; the piecewise
    # keys need a piecewise-task preset. Space separates several overrides.
    @pytest.mark.parametrize("name,override", [
        *(pytest.param("main-comparison", o, id=o) for o in (
            "optimizer.delta=0", "optimizer.gamma0=1.5", "optimizer.k_m=0",
            "optimizer.k_v=0", "optimizer.k_w=0", "eval_every=0", "stream.horizon=0",
            "stream.batch_size=0", "replay.capacity=0", "replay.holdout_fraction=1.0",
            "schedule.k_r=0", "schedule.beta_lr=0", "schedule.alpha0=0",
            "stream.n_classes=1", "stream.d_in=1", "model.weight_decay=-1")),
        *(pytest.param("objective-comparison", o, id=o) for o in (
            "stream.d_in=0", "stream.classes_per_task=0", "stream.classes_per_task=5",
            "stream.task_length=0", "model.kind=mlp-1-hidden model.hidden=0")),
        *(pytest.param("theory-verify", o, id=o) for o in (
            "stream.mu=0", "stream.d_in=3", "stream.noise_radius=-1")),
        pytest.param("adam-base", "optimizer.beta1=1.0", id="optimizer.beta1=1.0"),
        *(pytest.param("main-comparison", o, id=o) for o in (
            "optimizer.delta=0.5", "schedule.kind=constant schedule.alpha0=0",
            "ft_k1=0", "val_batch_size=-1", "stream.horizon=1.5", "optimizer.delta=x"))])
    def test_out_of_range_value_is_a_config_error(self, name, override, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)   # a run that got past validation writes runs/ here
        args = ["preset", name, "--override", "stream.horizon=30"]
        for o in override.split():
            args += ["--override", o]
        code = cli_main(args + ["--run"])
        assert code == 2
        assert "config error: " in capsys.readouterr().err

    def test_every_variant_is_validated_before_the_first_run(self, tmp_path, monkeypatch,
                                                             capsys):
        # ama-malr is valid on a rotating stream, sgd-cyclic is not
        monkeypatch.chdir(tmp_path)
        code = cli_main(["preset", "task-cyclic", "--override", "stream.horizon=30",
                         "--override", "stream.kind=rotating-gaussian", "--run"])
        assert code == 2
        assert "cyclic schedule requires" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_empty_seed_list_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli_main(["preset", "main-comparison", "--override", "seeds=[]", "--run"])
        assert code == 2
        assert "at least one seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["[0,-1]", "[0,true]", "[0,1.5]", '[0,\"1\"]'])
    def test_every_seed_must_be_a_non_negative_integer(self, seeds, tmp_path,
                                                        monkeypatch, capsys):
        # every seed's run is built during validation, so a bad later seed
        # stops the sweep before any run writes output
        monkeypatch.chdir(tmp_path)
        code = cli_main(["preset", "main-comparison", "--override", "stream.horizon=30",
                         "--override", f"seeds={seeds}", "--run"])
        assert code == 2
        assert "seeds must be non-negative integers" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unknown_schedule_metric_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown schedule metric 'acuracy'"):
            tiny_config(**{"schedule.metric": "acuracy"}).validate()

    def test_override_parsing(self, tmp_path, capsys):
        code = cli_main(["preset", "main-comparison", "--override",
                         "stream.horizon=5"])
        assert code == 0
        assert "horizon: 5" in capsys.readouterr().out

    def test_divergence_exit_code(self, tmp_path):
        cfg = tiny_config(**{"schedule.kind": "constant", "schedule.alpha0": 1e6})
        cfg_path = tmp_path / "cfg.yaml"
        save_config(cfg, cfg_path)
        code = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "runs")])
        assert code == 3

    def test_verify_bounds_cli(self, tmp_path):
        code = cli_main(["verify-bounds", "--override", "theory.k_max=150",
                         "--override", "theory.n_seeds=4",
                         "--out", str(tmp_path / "bounds")])
        assert code == 0
        assert (tmp_path / "bounds" / "drift-constant.csv").exists()


class TestBatchSizeAblation:
    def test_larger_batches_degrade_all_metrics(self):
        # compute-matched arms: bigger minibatch, proportionally fewer
        # iterations and larger rate; seed-averaged finals degrade
        finals = {}
        for label, concrete in expand_variants(preset("batch-size")):
            ms = {"p_le": [], "p_ir": [], "p_ft": []}
            for seed in range(20):
                fm = run_experiment(concrete, seed=seed).final_metrics()
                for k in ms:
                    ms[k].append(fm[k])
            finals[label] = {k: float(np.mean(v)) for k, v in ms.items()}
        for metric in ("p_le", "p_ir", "p_ft"):
            assert finals["m16"][metric] > finals["m128"][metric], metric
        assert finals["m16"]["p_le"] >= finals["m64"]["p_le"] >= finals["m128"]["p_le"]


class TestCliSweepAndBoundFailure:
    def test_sweep_runs_matching_configs(self, tmp_path, capsys):
        for i, horizon in enumerate((40, 60)):
            cfg = tiny_config()
            cfg.stream.horizon = horizon
            cfg.name = f"sweep{i}"
            cfg.out_dir = str(tmp_path / f"out{i}")
            save_config(cfg, tmp_path / f"cfg{i}.yaml")
        code = cli_main(["sweep", str(tmp_path / "cfg*.yaml")])
        assert code == 0
        assert (tmp_path / "out0" / "base" / "seed5" / "main" / "metrics.csv").exists()
        assert (tmp_path / "out1" / "base" / "seed5" / "main" / "metrics.csv").exists()

    def test_bound_violation_exit_code(self, monkeypatch):
        from oclopt import cli as climod
        from oclopt.theory import BoundCheckpoint, BoundReport

        failing = BoundReport(n_seeds=2, lipschitz=1.0, rho=0.0, radius=1.0,
                              stationary=True)
        failing.checkpoints.append(BoundCheckpoint(
            k=1, lhs=2.0, lhs_se=0.0, t1=0.5, t2=0.0, t3=0.0, rhs=0.5,
            rhs_se=0.0, holds=False, denom_growth=1.0, t2_ratio=0.0,
            t3_ratio=0.0))
        monkeypatch.setattr(climod, "verify_bounds_from_config",
                            lambda cfg: [("fake", failing)])
        assert cli_main(["verify-bounds"]) == 4


class TestPresetSmoke:
    def test_cyclic_schedule_path_runs(self):
        cfg = preset("task-cyclic")
        cfg = apply_overrides(cfg, {"optimizer.averaging": "none",
                                    "schedule.kind": "cyclic",
                                    "stream.horizon": 200})
        cfg.variants = None
        res = run_experiment(cfg, seed=1)
        assert not res.diverged
        # rate restarts at alpha0 on each task boundary and decays within tasks
        task_iters = cfg.stream.task_length * cfg.iters_per_step
        assert res.lr_trace[0] == cfg.schedule.alpha0
        assert res.lr_trace[task_iters] == cfg.schedule.alpha0
        assert res.lr_trace[task_iters - 1] < 0.01 * cfg.schedule.alpha0

    def test_adam_base_variants_run(self):
        cfg = preset("adam-base")
        cfg.stream.horizon = 100
        for label, concrete in expand_variants(cfg):
            res = run_experiment(concrete, seed=2)
            assert not res.diverged, label


class TestForwardTransferDefaults:
    def test_window_defaults_to_10_and_25_percent_of_horizon(self):
        cfg = tiny_config()
        cfg.stream.horizon = 200
        cfg.eval_every = 50
        res = run_experiment(cfg, seed=1)
        # rows where the future window still fits carry a real P_FT value;
        # with k1=20, k2=50 the last such recording step is t=150
        recorded = [t for (t, *_rest) in res.metric_rows]
        with_ft = [t for row in res.metric_rows if not np.isnan(row[4])
                   for t in [row[0]]]
        assert recorded == [50, 100, 150, 200]
        assert with_ft == [50, 100, 150]


# the probe grid: every variant of seven presets, one numeric scalar key set to
# one of a few small values, on a 24-step run
PROBE_VARIANTS = [concrete for name in ("main-comparison", "malr-ablation",
                                        "objective-comparison", "theory-verify",
                                        "task-cyclic", "adam-base", "batch-size")
                  for _, concrete in expand_variants(preset(name))]
PROBE_KEYS = (
    [f"stream.{k}" for k in ("d_in", "batch_size", "horizon", "mu", "l_smooth",
                             "noise_radius", "n_classes", "mean_radius",
                             "angular_velocity", "noise_std", "classes_per_task",
                             "task_length", "mean_scale")]
    + ["model.weight_decay", "model.hidden"]
    + [f"optimizer.{k}" for k in ("momentum", "beta1", "beta2", "adam_eps", "gamma0",
                                  "delta", "k_m", "k_v", "k_w")]
    + [f"replay.{k}" for k in ("batch_size", "window", "capacity", "holdout_fraction")]
    + [f"schedule.{k}" for k in ("alpha0", "beta_lr", "k_r", "epsilon")]
    + ["iters_per_step", "eval_every", "ft_k1", "ft_k2", "val_batch_size"])


class TestValidationBuildsTheRun:
    @settings(max_examples=100, deadline=None)
    @given(config=st.sampled_from(PROBE_VARIANTS), key=st.sampled_from(PROBE_KEYS),
           value=st.sampled_from((-1, 0, 0.5, 1, 1.5, 2, 3)))
    def test_a_validated_config_runs_or_diverges(self, config, key, value):
        try:
            cfg = apply_overrides(config, {"seeds": [0], "stream.horizon": 24,
                                           "eval_every": 4, key: value})
            cfg.validate()
        except ConfigError:
            return
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                run_experiment(cfg)
            except DivergenceError:
                pass
