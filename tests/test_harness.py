"""Experiment runner determinism, config round-trips, presets, and the CLI."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oclopt import cli as climod
from oclopt import datapool, harness, model, optim
from oclopt import rng as rngmod
from oclopt.cli import main as cli_main
from oclopt.harness import (AVERAGING, METRIC_COLUMNS, ConfigError, ExperimentConfig,
                            PRESET_NAMES, apply_overrides, config_from_dict, config_to_dict,
                            expand_variants, identical_bound_configs, load_config, preset,
                            run_experiment, run_with_companions, save_config,
                            verify_bounds_from_config)
from oclopt.model import DivergenceError
from tests.oracles import run_from_manifest, stored_items


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


# sha256 of each preset's sorted YAML, recorded before the presets became
# override tables. The golden artifacts run presets at another horizon and
# expand their variants, so they pin neither the horizon nor the variant list.
PRESET_SHA256 = {
    "main-comparison": "cb32e3f3527b79348be1816a44104b448a282766ad4a85061b85be1bb5bd365c",
    "malr-ablation": "312a27bbf7a6e6f1a1673494f47f7822f276801e1de313620a11ff0f7cf572eb",
    "ama-vs-ema": "4fbd38a46f7046427fa56405e565343bc646ebe825859d7df29275dc7606bf41",
    "batch-size": "f9429ca925aeda7e5baf929128ea98b90337f0b2ed7bd116267b0a3a6b281708",
    "buffer-size": "4e0b05d07894e651977f3bf7079de40d6c592cdd2690d23d1f5374bb37b20cd7",
    "objective-comparison": "48ecb063b0bed44d9e9b72d737e40825d4919c09b204be8eab2524e6620d73e0",
    "adam-base": "437469f64b54305390eb58fa5ab35ec663d31241b4cc5545eb5b5293943aa3f1",
    "task-cyclic": "9d70d747c357be83bdb52c5f361db5becc570b1b82a1ffec86a94ab1eda3fb7a",
    "theory-verify": "3ee8db0a0c6538fb0686f7dc6ed109ac2e8e24c1ae211e327de4bd211139089c",
}


# sha256 of each CSV `oclopt verify-bounds --override theory.k_max=150` writes
# (24 seeds), recorded before the bounds writer moved onto the artifact writer
BOUNDS_CSV_SHA256 = {
    "stationary-constant": "0efd5dc570fee69c1b96a8e0605232545c6915903379937de5c6741d8829cefa",
    "stationary-invsqrt": "25dc5fcc531794798c13238e562e6b2b797f80899c07653fcde9dd3e9c72321e",
    "drift-constant": "491784fd8f8d8c51099ae4dfc5b9c883eb0b7c554e84a95433049456b1c6a94c",
    "drift-invsqrt": "818ac5012cfacc684de0f801ef72e1f437b187ad1e89fa20d2083a64f2d3e2c0",
    "drift-halving": "491784fd8f8d8c51099ae4dfc5b9c883eb0b7c554e84a95433049456b1c6a94c",
    "fast-drift-constant": "b73b7e43b40b6a2ae79512eace3903ce46a47d356bd54ca1d189555f53f02507",
    "fast-drift-halving": "b73b7e43b40b6a2ae79512eace3903ce46a47d356bd54ca1d189555f53f02507",
}

# `oclopt report` stdout over REPORT_RUN, recorded before the report and
# RunResult.final_metrics shared one last-value helper
REPORT_RUN = {"seeds": [5, 6], "companion": "ema-replay",
              "variants": [["malr", {}], ["rwp", {"schedule.kind": "rwp", "schedule.k_r": 10}]]}
REPORT_STDOUT = """\
run                                          p_le     p_ir     p_ft      alpha
malr/seed5/ema-replay                      0.7567   1.0000   1.0000  5.000e-02
malr/seed5/main                            0.9486   1.0000   1.0000  5.000e-02
malr/seed6/ema-replay                      0.9838   0.9917   0.9928  5.000e-02
malr/seed6/main                            0.9917   1.0000   1.0000  5.000e-02
rwp/seed5/ema-replay                       0.7496   1.0000   1.0000  1.221e-05
rwp/seed5/main                             0.9486   1.0000   1.0000  1.221e-05
rwp/seed6/ema-replay                       0.9826   0.9835   0.9880  1.221e-05
rwp/seed6/main                             0.9917   1.0000   1.0000  1.221e-05
"""


# key -> annotation of every config field annotated float or list[float]
# (the top-level fields have none)
FLOAT_KEYS = {f"{block}.{f.name}": f.type for block, cls in (
    ("stream", harness.StreamConfig), ("model", harness.ModelConfig),
    ("optimizer", harness.OptimizerConfig), ("replay", harness.ReplayConfig),
    ("schedule", harness.ScheduleConfig), ("theory", harness.TheoryConfig))
    for f in dataclasses.fields(cls) if f.type in ("float", "list[float]")}


def preset_sha256(cfg) -> str:
    return hashlib.sha256(yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
                          .encode()).hexdigest()


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

    @pytest.mark.parametrize("key,value,message", [
        ("schedule.use_c2", "no", "must be true or false"),
        ("optimizer.adapt", "off", "must be true or false"),
        ("schedule.use_c3", 1, "must be true or false"),
        ("name", {"a": 1}, "must be a string, got"),
        ("replay.mode", 1, "must be a string, got"),
        ("out_dir", 5, "must be a string or null")])
    def test_bool_and_string_keys_take_their_own_type(self, key, value, message):
        # "no" and "off" are truthy, so a run would keep the switch on
        with pytest.raises(ConfigError, match=message):
            apply_overrides(tiny_config(), {key: value})

    def test_override_paths_validated(self):
        # a leaf (stream.horizon) and a null block (theory) have no keys below them
        for key in ("schedule.nope", "nope.kind", "stream.horizon.x", "theory.k_max"):
            with pytest.raises(ConfigError, match="unknown override key"):
                apply_overrides(tiny_config(), {key: 1})

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

    @pytest.mark.parametrize("variants", [5, ("a", {}), {"a": {}}],
                             ids=["number", "one-pair", "mapping"])
    def test_variants_set_in_code_must_be_a_list(self, variants):
        # a config file's non-list is rejected at load; one set in code is
        # rejected when the variants expand, and no entry stands for itself
        cfg = ExperimentConfig()
        cfg.variants = variants
        with pytest.raises(ConfigError, match="variants are a list of"):
            list(expand_variants(cfg))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("does-not-exist")

    def test_preset_names_keep_their_order(self):
        assert PRESET_NAMES == tuple(PRESET_SHA256)

    @pytest.mark.parametrize("name", PRESET_SHA256)
    def test_preset_tables_are_pinned(self, name):
        cfg = preset(name)
        assert preset_sha256(cfg) == PRESET_SHA256[name]
        # a returned config shares no list or dict with the preset tables
        if cfg.variants:
            cfg.variants[-1][1]["stream.horizon"] = 7
            cfg.variants.reverse()
        if cfg.theory:
            cfg.theory.configs.pop()
        cfg.stream.center0.append(9.0)
        assert preset_sha256(preset(name)) == PRESET_SHA256[name]

    @pytest.mark.parametrize("name,overrides,legal", [
        pytest.param("main-comparison", {}, False, id="ama-malr"),
        pytest.param("main-comparison", {"optimizer.averaging": "none",
                                         "schedule.kind": "rwp"}, False, id="sgd-rwp"),
        pytest.param("main-comparison", {"schedule.kind": "constant"}, False, id="ama-clr"),
        pytest.param("main-comparison", {"schedule.kind": "constant",
                                         "optimizer.adapt": False}, False, id="fixed-ama-clr"),
        pytest.param("main-comparison", {"schedule.kind": "constant",
                                         "optimizer.averaging": "ema"}, True, id="ema-clr"),
        pytest.param("main-comparison", {"schedule.kind": "trace", "schedule.lr_trace": [0.05],
                                         "optimizer.averaging": "none"}, True, id="sgd-trace"),
        pytest.param("task-cyclic", {"schedule.kind": "cyclic", "optimizer.averaging": "ema"},
                     True, id="ema-cyclic")])
    def test_no_holdout_is_a_config_error_for_rwp_malr_and_adaptive_ama(self, name, overrides,
                                                                     legal):
        cfg = apply_overrides(preset(name), {"variants": None, "stream.horizon": 20,
                                             "replay.holdout_fraction": 0.0, **overrides})
        if not legal:
            with pytest.raises(ConfigError, match="holdout_fraction > 0"):
                cfg.validate()
            return
        res = run_experiment(cfg.validate())
        assert res.ama.skipped_validations == len(res.lr_trace) // cfg.optimizer.k_v > 0


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
        # a run directory replays through the CLI from its config.yaml
        run_experiment(tiny_config(), seed=5, out_dir=tmp_path / "orig")
        assert cli_main(["run", str(tmp_path / "orig" / "config.yaml"),
                         "--out", str(tmp_path / "replay")]) == 0
        replay = tmp_path / "replay" / "base" / "seed5" / "main"
        for name in ("metrics.csv", "schedule.csv", "config.yaml", "manifest.json"):
            assert (tmp_path / "orig" / name).read_bytes() == (replay / name).read_bytes(), name

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

    def test_divergence_raises_no_floating_point_warning(self):
        # overflow is silenced once around the run, not per loss evaluation
        cfg = tiny_config(**{"schedule.kind": "constant", "schedule.alpha0": 1e6})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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

    def test_divergence_mid_step_keeps_completed_iterations(self):
        # alpha0=1e6 diverges at iteration 77, the second of step 16's five:
        # iteration 76 stays applied, both pools keep step 16's offers (what
        # they hold does not depend on the learning rate, so a run at the
        # preset's rate is the reference), and the replay generator, drawn
        # only at block starts, stays where it was
        name = "mixed-p5"
        ok = apply_overrides(dict(expand_variants(preset("objective-comparison")))[name],
                             {"stream.horizon": 300})
        cfg = apply_overrides(ok, {"schedule.alpha0": 1e6})
        run, clean = harness.Run(cfg, 0), harness.Run(ok, 0)

        def pools(run):
            return [(pool.size, pool.seen_count, pool.last_step,
                     [a.tobytes() for a in stored_items(pool)])
                    for pool in (run.pool, run.holdout)]

        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, 16):
                assert run.step(t)
            replay_state = run.pool._replay_rng.bit_generator.state
            assert not run.step(16)
            for t in range(1, 17):
                assert clean.step(t)
        assert run.diverged
        assert len(run.lr_trace) == 76
        assert run.pool.last_step == run.holdout.last_step == 16
        assert pools(run) == pools(clean)
        np.testing.assert_equal(run.pool._replay_rng.bit_generator.state, replay_state)

    def test_a_divergence_ends_the_run_and_its_artifacts_are_written(self, tmp_path,
                                                                     monkeypatch):
        # the run takes no step after the one whose update diverges, and
        # still writes its artifacts, which hold the steps before it
        cfg = apply_overrides(dict(expand_variants(preset("objective-comparison")))["mixed-p5"],
                              {"stream.horizon": 300, "schedule.alpha0": 1e6,
                               "eval_every": 5})
        steps = []

        class CountingRun(harness.Run):
            def step(self, t):
                steps.append(t)
                return super().step(t)

        monkeypatch.setattr(harness, "Run", CountingRun)
        res = run_experiment(cfg, seed=0, out_dir=tmp_path)
        assert res.diverged and steps == list(range(1, 17))
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "diverged"
        assert (tmp_path / "checkpoint.npz").is_file()
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [5, 10, 15]

    @pytest.mark.parametrize("name,label,seed", [("main-comparison", "ama-malr", 26),
                                                 ("theory-verify", "base", 26),
                                                 ("theory-verify", "base", 35)])
    def test_pure_replay_step_with_empty_training_pool_runs_no_iterations(self, name,
                                                                          label, seed):
        # one datum per step, and these seeds route step 1's to the holdout;
        # a step runs its iterations once the training pool holds an item
        cfg = dict(expand_variants(apply_overrides(preset(name), {
            "stream.batch_size": 1, "stream.horizon": 30})))[label]
        run = harness.Run(cfg, seed)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, 31):
                k = run.k
                assert run.step(t)
                assert run.k == k + (cfg.iters_per_step if run.pool.size else 0)
                assert t > 1 or run.pool.size == 0
        assert 0 < run.k < 30 * cfg.iters_per_step

    def test_pool_draws_come_only_at_block_starts(self, monkeypatch):
        # a noise-free work count: inside run_protocol_step, count the calls on
        # the pools' generators and on the routing coins' step generators
        # (swapped for a subclass whose draw methods are Python frames, which
        # a profile hook sees) and the np.unique calls
        class Counted(np.random.Generator):
            def integers(self, *args, **kwargs):
                return super().integers(*args, **kwargs)

            def random(self, *args, **kwargs):
                return super().random(*args, **kwargs)

        cfg = dict(expand_variants(apply_overrides(preset("buffer-size"),
                                                   {"stream.horizon": 600})))["cap-100"]
        run = harness.Run(cfg, 0)
        for pool in (run.pool, run.holdout):
            for name in ("_reservoir_rng", "_replay_rng"):
                setattr(pool, name, Counted(getattr(pool, name).bit_generator))
        step_streams = datapool.step_streams

        def counted_streams(*args):   # the coins are the only random() draws
            return (Counted(g.bit_generator) for g in step_streams(*args))

        monkeypatch.setattr(datapool, "step_streams", counted_streams)
        step = harness.run_protocol_step.__code__
        counted = {Counted.integers.__code__, Counted.random.__code__,
                   np.unique.__wrapped__.__code__}
        calls, coins, steps = {}, {}, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is step:
                steps.append(frame.f_locals["t"])
            elif event == "call" and steps and frame.f_code in counted:
                calls[steps[-1]] = calls.get(steps[-1], 0) + 1
                if frame.f_code is Counted.random.__code__:
                    coins[steps[-1]] = coins.get(steps[-1], 0) + 1
            elif event == "return" and frame.f_code is step:
                steps.pop()

        sys.setprofile(profile)
        try:
            for t in range(1, 601):
                assert run.step(t)
        finally:
            sys.setprofile(None)
        assert sorted(calls) == [1, rngmod.BLOCK + 1, 2 * rngmod.BLOCK + 1]
        # one coin draw per step in the horizon, each at its block's start
        assert coins == {1: rngmod.BLOCK, rngmod.BLOCK + 1: rngmod.BLOCK,
                         2 * rngmod.BLOCK + 1: 600 - 2 * rngmod.BLOCK}

    @pytest.mark.parametrize("name,label", [("objective-comparison", "mixed-p5"),
                                            ("main-comparison", "ama-malr"),
                                            ("buffer-size", "cap-1000")])
    def test_regular_steps_draw_no_validation_and_gather_no_pool_rows(self, name, label):
        # a noise-free work count: inside run_protocol_step, count the calls on
        # the validation generator (swapped for a subclass whose draw methods
        # are Python frames) and the takes whose source is a pool's storage
        # (C calls, which a profile hook sees with the array they are bound to).
        # The capped pure-replay pool overwrites stored items at most of its
        # steps, and still only a block's first step gathers.
        class Counted(np.random.Generator):
            def integers(self, *args, **kwargs):
                return super().integers(*args, **kwargs)

            def random(self, *args, **kwargs):
                return super().random(*args, **kwargs)

        cfg = dict(expand_variants(apply_overrides(preset(name),
                                                   {"stream.horizon": 600})))[label]
        run = harness.Run(cfg, 0)
        run.val_rng = Counted(run.val_rng.bit_generator)
        step = harness.run_protocol_step.__code__
        counted = {Counted.integers.__code__, Counted.random.__code__}
        calls, steps = {}, []

        def storage():
            return [a for pool in (run.pool, run.holdout) for a in (pool._xs, pool._ys)
                    if a is not None]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is step:
                steps.append(frame.f_locals["t"])
            elif event == "return" and frame.f_code is step:
                steps.pop()
            elif steps and ((event == "call" and frame.f_code in counted)
                            or (event == "c_call" and getattr(arg, "__name__", "") == "take"
                                and any(getattr(arg, "__self__", None) is a
                                        for a in storage()))):
                calls[steps[-1]] = calls.get(steps[-1], 0) + 1

        sys.setprofile(profile)
        try:
            for t in range(1, 601):
                assert run.step(t)
        finally:
            sys.setprofile(None)
        assert sorted(calls) == [1, rngmod.BLOCK + 1, 2 * rngmod.BLOCK + 1]

    @pytest.mark.parametrize("name,label", [("main-comparison", "ama-malr"),
                                            ("buffer-size", "cap-1000")])
    def test_a_regular_step_makes_few_python_calls(self, name, label):
        # a noise-free work count: the Python-level calls inside
        # run_protocol_step, not counting those inside Run.iterate, of each
        # step that starts no block, whether or not its offers overwrite
        # stored items (the unlimited pool never does, the capped one at most
        # steps). Served by index, with each model's prediction views kept
        # and the step's targets built once, such a step makes 9 calls (two
        # of them to Run.iterate), and 10 where a model predicts for the first
        # time and sizes its buffers; with a minibatch built per iteration it
        # made 10 and 11. Slicing the inference model's blocks on every step
        # it made 14, through the stream, the pools' offers and the replay
        # samplers 25, and a capped pool's overwriting step that gathered its
        # replay rows again 15 to 16.
        cfg = dict(expand_variants(apply_overrides(preset(name),
                                                   {"stream.horizon": 600})))[label]
        run = harness.Run(cfg, 0)
        step, iterate = harness.run_protocol_step.__code__, harness.Run.iterate.__code__
        calls, steps, inside = {}, [], []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is step:
                steps.append(frame.f_locals["t"])
            elif event == "return" and frame.f_code is step:
                steps.pop()
            elif event == "call" and steps:
                if not inside:
                    calls[steps[-1]] = calls.get(steps[-1], 0) + 1
                if frame.f_code is iterate:
                    inside.append(frame)
            elif event == "return" and inside and frame is inside[-1]:
                inside.pop()

        sys.setprofile(profile)
        try:
            for t in range(1, 601):
                assert run.step(t)
        finally:
            sys.setprofile(None)
        regular = [calls[t] for t in range(1, 601) if (t - 1) % rngmod.BLOCK]
        assert len(regular) == 597 and max(regular) <= 11

    @pytest.mark.parametrize("name,label", [("objective-comparison", "mixed-p5"),
                                            ("main-comparison", "ama-malr"),
                                            ("buffer-size", "cap-1000")])
    def test_an_iteration_makes_few_python_calls(self, name, label):
        # a noise-free work count: the Python-level calls inside Run.update,
        # Run.iterate included, per iteration, over steps 10 to 256 of seed 0
        # (none starts a block). With the one-hot targets built once per step,
        # the kernel bound once (one gradient call and one base step) and the
        # averager reached only where one of its intervals ends, this is 5.5
        # to 5.8; with a minibatch, a forward, a softmax, a finite check and
        # an averager call per iteration it was 12.0.
        cfg = dict(expand_variants(apply_overrides(preset(name),
                                                   {"stream.horizon": 256})))[label]
        run = harness.Run(cfg, 0)
        update, inside, calls = harness.Run.update.__code__, [], [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is update:
                inside.append(frame)
            elif event == "return" and inside and frame is inside[-1]:
                inside.pop()
            elif event == "call" and inside:
                calls[0] += 1

        for t in range(1, 10):
            assert run.step(t)
        k = run.k
        sys.setprofile(profile)
        try:
            for t in range(10, 257):
                assert run.step(t)
        finally:
            sys.setprofile(None)
        assert run.k - k == 247 * cfg.iters_per_step
        assert calls[0] <= 6 * (run.k - k)

    @pytest.mark.parametrize("adapt", [True, False])
    def test_the_averager_takes_every_iteration_where_an_interval_ends(self, adapt,
                                                                       monkeypatch):
        # intervals that share no factor: ama_step runs at each multiple of
        # k_m or k_v, and of k_w where weights adapt, and at no other iteration
        cfg = tiny_config(**{"optimizer.k_m": 3, "optimizer.k_v": 4, "optimizer.k_w": 5,
                             "optimizer.adapt": adapt, "schedule.kind": "constant"})
        seen, ama_step = [], harness.ama_step
        monkeypatch.setattr(harness, "ama_step",
                            lambda state, k, *args: seen.append(k) or ama_step(state, k, *args))
        run = harness.Run(cfg, 0)
        for t in range(1, cfg.stream.horizon + 1):
            assert run.step(t)
        assert run.k > 60
        assert seen == [k for k in range(1, run.k + 1)
                        if k % 3 == 0 or k % 4 == 0 or adapt and k % 5 == 0]

    @pytest.mark.parametrize("averaging", AVERAGING)
    def test_a_fold_checks_and_forwards_its_batch_once(self, averaging):
        # a validation fold scores the MA models and the SGD model as one
        # stack, in one forward pass, not one per model; its rows were
        # checked once, with every other fold's of the block, when the block
        # planned its folds
        cfg = dict(expand_variants(apply_overrides(
            preset("main-comparison"),
            {"stream.horizon": 300, "optimizer.averaging": averaging})))["ama-clr"]
        run = harness.Run(cfg, 0)
        fold, plan = optim.ama_step.__code__, harness.Run.plan_folds.__code__
        counted = (model.check_batch.__code__, model.Workspace.propagate.__code__)
        calls, inside = {fold: [], plan: []}, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in calls:
                inside.append(frame)
                calls[frame.f_code].append([0, 0])   # [check_batch, propagate] calls
            elif event == "return" and inside and frame is inside[-1]:
                inside.pop()
            elif event == "call" and inside and frame.f_code in counted:
                calls[inside[-1].f_code][-1][counted.index(frame.f_code)] += 1

        sys.setprofile(profile)
        try:
            for t in range(1, 301):
                assert run.step(t)
        finally:
            sys.setprofile(None)
        folds = [c for c in calls[fold] if c != [0, 0]]
        assert len(folds) == run.k // run.averager.k_v - run.averager.skipped_validations > 0
        assert all(c == [0, 1] for c in folds)
        assert calls[plan] == [[1, 0]] * -(-300 // rngmod.BLOCK)   # one check per block

    @pytest.mark.parametrize("name,label,horizon", [("buffer-size", "cap-100", 800),
                                                    ("objective-comparison", "mixed-p5", 600),
                                                    ("main-comparison", "ama-malr", 300)])
    def test_the_last_block_plans_only_the_steps_in_the_horizon(self, name, label, horizon):
        # the block holding the horizon draws its coins and plans its offers,
        # replay and validation folds for its steps inside the horizon, not a
        # full block
        cfg = dict(expand_variants(apply_overrides(preset(name),
                                                   {"stream.horizon": horizon})))[label]
        run = harness.Run(cfg, 0)
        for t in range(1, horizon + 1):
            assert run.step(t)
        last = horizon - (horizon - 1) // rngmod.BLOCK * rngmod.BLOCK
        assert len(run.pool._offers.counts) == len(run.holdout._offers.counts) == last
        assert run.pool._replay.first + len(run.pool._replay.bound) - 1 == horizon
        first, bounds, _ = run.folds
        assert first + len(bounds) - 1 == horizon * cfg.iters_per_step // cfg.optimizer.k_v

    def test_generators_are_built_per_block_not_per_step(self, monkeypatch):
        # a count, unlike a timing, does not move with host noise: per-step
        # construction would build about three generators per step
        built, philox = [], np.random.Philox
        monkeypatch.setattr(rngmod.np.random, "Philox",
                            lambda *a, **kw: built.append(1) or philox(*a, **kw))
        run_experiment(apply_overrides(preset("main-comparison"), {"stream.horizon": 300}))
        blocks = -(-300 // rngmod.BLOCK)
        # stream, eval and coin blocks, plus the init, validation and replay generators
        assert 0 < len(built) <= 3 * blocks + 4


class TestServedSteps:
    """Every step is served by index into its block's plans, and keeps the
    protocol's order and its guarantees."""

    def test_a_served_step_checks_the_order_and_ends_the_run_when_it_raises(self):
        # the protocol's guarantees hold on a step served by index: steps
        # come in order, and a step that raises keeps its pool moves
        cfg = dict(expand_variants(apply_overrides(preset("main-comparison"),
                                                   {"stream.horizon": 300})))["ama-malr"]
        run = harness.Run(cfg, 0)
        assert run.step(1) and run.step(2)
        assert 3 < run.served.stop
        with pytest.raises(harness.ProtocolError, match="expected step 3, got 4"):
            harness.run_protocol_step(run, 4)
        run.iterate = lambda x, target: 1 / 0
        with pytest.raises(ZeroDivisionError):
            run.step(3)
        assert run.pool.last_step == run.holdout.last_step == 3
        with pytest.raises(harness.ProtocolError, match="expected step 4, got 3"):
            harness.run_protocol_step(run, 3)

    def test_predictions_come_before_the_step_moves_the_pools(self):
        # a served step asks for predictions while the pools still stand
        # after the step before
        cfg = dict(expand_variants(apply_overrides(preset("main-comparison"),
                                                   {"stream.horizon": 300})))["ama-malr"]
        run, seen = harness.Run(cfg, 0), []
        predict = run.predict
        run.predict = lambda inputs: seen.append(run.pool.last_step) or predict(inputs)
        for t in range(1, 301):
            assert run.step(t)
        assert seen == list(range(300))


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
        assert len(cfg.theory.configs) >= 6

    def test_verify_bounds_small(self):
        cfg = preset("theory-verify")
        cfg.theory.k_max = 200
        cfg.theory.n_seeds = 6
        cfg.theory.configs = cfg.theory.configs[:2]
        reports = verify_bounds_from_config(cfg)
        assert len(reports) == 2
        assert all(rep.all_hold for _, rep in reports)

    @pytest.mark.parametrize("seeds", [[], [-1]], ids=["none", "negative"])
    def test_verify_bounds_validates_its_config(self, seeds):
        # the command validates before it makes its output directory; the
        # function validates too, for every other caller
        cfg = apply_overrides(preset("theory-verify"), {"theory.k_max": 20, "seeds": seeds})
        with pytest.raises(ConfigError, match="seed"):
            verify_bounds_from_config(cfg)


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(**REPORT_RUN), cfg_path)
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "runs")]) == 0
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().out == REPORT_STDOUT

    def test_preset_run_writes_under_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "elsewhere"
        code = cli_main(["preset", "main-comparison", "--override", f"out_dir={out}",
                         "--override", "variants=null", "--override", "stream.horizon=5",
                         "--run"])
        assert code == 0
        assert (out / "base" / "seed0" / "main" / "metrics.csv").exists()
        assert not (tmp_path / "runs").exists()

    def test_preset_emits_yaml(self, tmp_path):
        out = tmp_path / "p.yaml"
        code = cli_main(["preset", "buffer-size", "--out", str(out)])
        assert code == 0
        assert load_config(out).name == "buffer-size"

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("stream: {kind: nope}\n")
        assert cli_main(["run", str(bad)]) == 2

    # a file that holds no mapping, variants that are not [label, {table}], and
    # labels that cannot name one output directory each
    @pytest.mark.parametrize("text,message", [
        ("", "a config is a mapping of keys to values, got nothing"),
        ("- 1\n", "a config is a mapping of keys to values, got list"),
        ("variants: [[a]]\n", "a variant is [label, {key: value}], got ['a']"),
        ("variants: [[a, {iters_per_step: 2}], b]\n", "a variant is [label, {key: value}], got 'b'"),
        ("variants: 5\n", "top-level key variants must be a list or null, got 5"),
        ("variants: [[a, {1: 2}]]\n", "unknown override key 1"),
        ("variants: [[a, {schedule.alpha0: 0.01}], [a, {schedule.alpha0: 0.05}]]\n",
         "variant label 'a' is used twice"),
        *((f"variants: [[{label}, {{}}]]\n", "a variant label is a non-empty name with no "
           f"path separator, got {shown}") for label, shown in (
            ("''", "''"), ("a/b", "'a/b'"), ("'..'", "'..'"), ("1", "1")))],
        ids=["empty", "list", "variant-without-table", "variant-not-a-pair",
             "variants-not-a-list", "key-not-a-string", "duplicate-label", "empty-label",
             "label-with-separator", "label-dot-dot", "label-not-a-string"])
    def test_malformed_file_is_a_config_error(self, text, message, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "runs").exists()

    # main-comparison streams rotating Gaussians under malr; the piecewise
    # keys need a piecewise-task preset. Space separates several overrides.
    @pytest.mark.parametrize("name,override", [
        *(pytest.param("main-comparison", o, id=o) for o in (
            "optimizer.delta=0", "optimizer.gamma0=1.5", "optimizer.k_m=0",
            "optimizer.k_v=0", "optimizer.k_w=0", "eval_every=0", "stream.horizon=0",
            "stream.batch_size=0", "replay.capacity=0", "replay.holdout_fraction=1.0",
            "schedule.k_r=0", "schedule.beta_lr=0", "schedule.alpha0=0",
            "stream.n_classes=1", "stream.d_in=1", "model.weight_decay=-1",
            "model.hidden=0", "model.hidden=-1", "optimizer.momentum=-3",
            "optimizer.momentum=1")),
        *(pytest.param("objective-comparison", o, id=o) for o in (
            "stream.d_in=0", "stream.classes_per_task=0", "stream.classes_per_task=5",
            "stream.task_length=0", "model.kind=mlp-1-hidden model.hidden=0")),
        *(pytest.param("theory-verify", o, id=o) for o in (
            "stream.mu=0", "stream.d_in=3", "stream.noise_radius=-1")),
        pytest.param("adam-base", "optimizer.beta1=1.0", id="optimizer.beta1=1.0"),
        pytest.param("adam-base", "optimizer.adam_eps=0", id="optimizer.adam_eps=0"),
        *(pytest.param("main-comparison", o, id=o) for o in (
            "optimizer.delta=0.5", "optimizer.delta=0.5 optimizer.gamma0=0.4",
            "schedule.kind=constant schedule.alpha0=0",
            "ft_k1=0", "val_batch_size=-1", "stream.horizon=1.5", "optimizer.delta=x")),
        # a rate that is not a finite positive number, and a C3 threshold no
        # sigma can pass
        *(pytest.param("main-comparison", o, id=o) for o in (
            "schedule.alpha0=NaN", "schedule.alpha0=Infinity", "schedule.alpha0=true",
            "schedule.kind=trace schedule.lr_trace=[0.05,NaN]", "schedule.epsilon=NaN")),
        # a float field takes an int or a float that is not a bool, and
        # center0/velocity take lists of such numbers
        *(pytest.param("main-comparison", o, id=o) for o in (
            "optimizer.momentum=abc", "optimizer.momentum=null", "optimizer.adam_eps=x",
            "optimizer.beta1=x", "stream.noise_std=x", "stream.mean_radius=x")),
        pytest.param("objective-comparison", "stream.mean_scale=x", id="stream.mean_scale=x"),
        *(pytest.param("theory-verify", o, id=o) for o in (
            'stream.center0=["a",1,1,1]', "stream.center0=[true,1,1,1]",
            "stream.velocity=0",
            'theory.configs=[["a",{"velocity":NaN,"schedule":"constant"}]]')),
        # the theory block is checked at load, by every command: its rate
        # kinds, a halving rate's halve_every and its seed count included
        *(pytest.param("theory-verify", o, id=o) for o in (
            'theory.k_max="x"', 'theory.configs=[["a",{"velocity":0}]]', "theory.configs=[]",
            'theory.configs=[["x",{"velocity":0.0,"schedule":"bogus"}]]',
            "theory.halve_every=0", "theory.n_seeds=1")),
        # a companion no run knows, and a config block that is no mapping
        *(pytest.param("main-comparison", o, id=o) for o in (
            "companion=ema-replay-typo", "stream=5")),
        # a bool field takes only true or false (a string such as "no" is
        # truthy), a string field only a string, and an optional one null too
        *(pytest.param("main-comparison", o, id=o) for o in (
            'schedule.use_c2="no"', 'optimizer.adapt="off"', "schedule.use_c3=1",
            'name={"a":1}', "out_dir=5")),
        # a list field takes only a list, and an optional one null too, even
        # where the run does not read it
        *(pytest.param("main-comparison", o, id=o) for o in (
            'schedule.lr_trace="abc"', 'schedule.lr_trace={"a":1}')),
        # a negative history window holds nothing, and a negative noise
        # standard deviation is no spread
        *(pytest.param("main-comparison", o, id=o) for o in (
            "replay.mode=mixed replay.window=-3", "stream.noise_std=-0.6")),
        pytest.param("objective-comparison", "stream.noise_std=-0.6",
                     id="piecewise-stream.noise_std=-0.6")])
    def test_out_of_range_value_is_a_config_error(self, name, override, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)   # a run that got past validation writes runs/ here
        args = ["preset", name, "--override", "stream.horizon=30"]
        for o in override.split():
            args += ["--override", o]
        code = cli_main(args + ["--run"])
        assert code == 2
        assert "config error: " in capsys.readouterr().err

    # A float field takes only a finite number, and a list[float] field a
    # list of them: NaN, an infinity and an integer too large for a float
    # (JSON and YAML both give these) are config errors at load, whether or
    # not the run reads the field. The theory block is checked by
    # verify-bounds.
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("key", list(FLOAT_KEYS))
    def test_a_number_that_is_not_finite_is_a_config_error(self, key, value, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        override = f"{key}={value if FLOAT_KEYS[key] == 'float' else f'[{value},1.0]'}"
        args = (["verify-bounds"] if key.startswith("theory.")
                else ["preset", "main-comparison", "--run", "--override", "stream.horizon=30"])
        assert cli_main(args + ["--override", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "finite number" in err

    # inputs that once ended in a traceback and exit 1, run in a fresh process
    # so that stderr holds everything a user would see
    @pytest.mark.parametrize("args", [
        ["verify-bounds", "--override", "theory.k_max=x"],
        ["verify-bounds", "--override", "theory.k_max=-5"],
        ["verify-bounds", "--override", "theory.n_seeds=1"],
        ["verify-bounds", "--override", "theory.alpha0=3"],
        ["run", "missing.yaml"],
        ["verify-bounds", "missing.yaml"],
        ["verify-bounds", "--override", 'theory.configs=[["a",{"velocity":0}]]'],
        ["verify-bounds", "--override", 'theory.configs=[["a",{"schedule":"constant"}]]'],
        ["verify-bounds", "--override", "seeds=[]"],
        ["verify-bounds", "--override", "theory.configs=[]"],
        # the bound check runs on the run's drifting quadratic
        ["verify-bounds", "--override", "stream.kind=rotating-gaussian", "--override",
         "model.kind=linear-softmax", "--override", "model.loss=cross-entropy"],
        # theory values are checked as config fields are, not cast
        *(["verify-bounds", "--override", o] for o in (
            "theory.k_max=20.9", "theory.k_max=true", 'theory.k_max="20"',
            'theory.configs=[["a",{"velocity":"0.002","schedule":"constant"}]]',
            'theory.configs=[["a",{"velocity":true,"schedule":"constant"}]]',
            'theory.configs=[["a",{"velocity":0,"schedule":"constant","typo":1}]]',
            'theory={"k_max":20,"n_seeds":2,"alpha0":0.2,"typo":1,'
            '"configs":[["a",{"velocity":0,"schedule":"constant"}]]}',
            'theory={"k_max":20,"alpha0":0.2,'
            '"configs":[["a",{"velocity":0,"schedule":"constant"}]]}')),
        # a label names the CSV that --out gets, as a variant label names a directory
        *(["verify-bounds", "--out", "out", "--override", f"theory.configs={entries}"]
          for entries in ('[["../escaped",{"velocity":0,"schedule":"constant"}]]',
                          '[[1,{"velocity":0,"schedule":"constant"}]]',
                          '[["a",{"velocity":0,"schedule":"constant"}],'
                          '["a",{"velocity":0.01,"schedule":"constant"}]]'))],
        ids=["k_max=x", "k_max=-5", "n_seeds=1", "alpha0=3", "run-missing-file",
             "verify-bounds-missing-file", "no-schedule", "no-velocity", "no-seeds",
             "no-configs", "rotating-stream",
             "k_max=20.9", "k_max=true", "k_max-string", "velocity-string", "velocity-bool",
             "unknown-config-key", "unknown-theory-key", "no-n_seeds", "label-escapes-out",
             "label-not-a-string", "label-twice"])
    def test_unusable_input_exits_2_without_a_traceback(self, args, tmp_path):
        src = Path(harness.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "oclopt.cli", *args], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob("*.csv"))

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

    @pytest.mark.parametrize("command,seeds", [
        *(pytest.param("preset", s, id=s) for s in ("[0,-1]", "[0,true]", "[0,1.5]", '[0,"1"]')),
        *(pytest.param("verify-bounds", s, id=f"verify-bounds-{s}")
          for s in ("[1.5]", "[true]", "[-1]"))])
    def test_every_seed_must_be_a_non_negative_integer(self, command, seeds, tmp_path,
                                                        monkeypatch, capsys):
        # every seed's run is built during validation, so a bad later seed
        # stops the sweep before any run writes output; verify-bounds
        # validates its config as a run
        monkeypatch.chdir(tmp_path)
        args = {"preset": ["preset", "main-comparison", "--override", "stream.horizon=30",
                           "--run"],
                "verify-bounds": ["verify-bounds", "--out", "runs", "--override",
                                  "theory.k_max=20", "--override", "theory.n_seeds=2"]}
        code = cli_main(args[command] + ["--override", f"seeds={seeds}"])
        assert code == 2
        assert "seeds must be non-negative integers" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_a_plateau_cut_never_reaches_a_rate_of_0(self, tmp_path, monkeypatch):
        # 0.05 * 1e-100 ** 4 underflows to 0.0, a rate no optimizer step takes
        monkeypatch.chdir(tmp_path)
        overrides = {"variants": None, "schedule.kind": "rwp", "schedule.k_r": 1,
                     "schedule.beta_lr": 1e-100, "stream.horizon": 300}
        args = [a for key, value in overrides.items()
                for a in ("--override", f"{key}={json.dumps(value)}")]
        assert cli_main(["preset", "main-comparison", *args, "--run"]) == 0
        lr_trace = run_experiment(apply_overrides(preset("main-comparison"), overrides)).lr_trace
        assert min(lr_trace) > 0 and lr_trace[-1] < 1e-300

    # an output path that cannot be made ends in one line of stderr naming
    # it and exit 2, and nothing else is printed: run finds it before its
    # first run, verify-bounds before its check
    @pytest.mark.parametrize("args", [
        ["run", "cfg.yaml", "--out", "afile"],
        ["verify-bounds", "--override", "theory.k_max=8", "--override", "theory.n_seeds=2",
         "--out", "afile"],
        ["preset", "main-comparison", "--out", "afile/x.yaml"]],
        ids=["run", "verify-bounds", "preset"])
    def test_an_unusable_output_path_exits_2(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_config(tiny_config(), tmp_path / "cfg.yaml")
        (tmp_path / "afile").touch()
        monkeypatch.setattr(climod, "run_with_companions", None)   # no run may start
        monkeypatch.setattr(climod, "verify_bounds_from_config", None)   # nor any check
        assert cli_main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line[:16] for line in captured.err.splitlines()] == ["cannot use afile"]

    # preset writes or prints a config only once run would accept it
    @pytest.mark.parametrize("override", ["replay.batch_size=0", "seeds=[]"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_preset_emits_no_config_that_run_rejects(self, override, to_file, tmp_path,
                                                     capsys):
        path = tmp_path / "s.yaml"
        args = ["preset", "main-comparison", "--override", override]
        assert cli_main(args + (["--out", str(path)] if to_file else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
        assert not path.exists()

    # report reads only files headed by METRIC_COLUMNS whose rows hold 10 numbers
    @pytest.mark.parametrize("text,line", [
        (",".join(METRIC_COLUMNS) + "\n20,20,abc,1,1,0.05,0,0,0,0\n", 2),
        ("garbage\n1,2,3,4,5,6\n", 1),
        (",".join(METRIC_COLUMNS) + "\n20,20,1,1,1,0.05,0,0,0,0\n1,2,3,4,5,6\n", 3),
        ("", 1)], ids=["not-a-number", "wrong-header", "short-row", "empty"])
    def test_report_rejects_a_malformed_metrics_file(self, text, line, tmp_path, capsys):
        path = tmp_path / "runs" / "a" / "metrics.csv"
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert cli_main(["report", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path} line {line}: ")

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
        out = tmp_path / "bounds"
        assert cli_main(["verify-bounds", "--override", "theory.k_max=150",
                         "--out", str(out)]) == 0
        assert {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.glob("*.csv")} == BOUNDS_CSV_SHA256

    def test_verify_bounds_names_identical_configurations(self, capsys):
        # halve_every is 250, so below k_max=250 a halving schedule never
        # halves and repeats the constant one at the same drift
        assert identical_bound_configs(preset("theory-verify")) == []
        assert cli_main(["verify-bounds", "--override", "theory.k_max=150",
                         "--override", "theory.n_seeds=2"]) == 0
        assert capsys.readouterr().err == (
            "note: drift-halving has the drift and rates of drift-constant, so its "
            "results are identical\n"
            "note: fast-drift-halving has the drift and rates of fast-drift-constant, so "
            "its results are identical\n")


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

    def test_sweep_validates_every_config_before_the_first_run(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.chdir(tmp_path)
        for name in "abc":
            cfg = tiny_config(**({"seeds": []} if name == "b" else {}))
            cfg.out_dir = f"out-{name}"
            save_config(cfg, tmp_path / f"{name}.yaml")
        assert cli_main(["sweep", "*.yaml"]) == 2
        assert capsys.readouterr().err == ("config error: b.yaml: seeds must list at least "
                                           "one seed\n")
        assert not list(tmp_path.glob("out-*"))

    def test_bound_violation_exit_code(self, monkeypatch):
        from oclopt.theory import BoundCheckpoint, BoundReport

        failing = BoundReport(n_seeds=2, lipschitz=1.0, rho=0.0, radius=1.0,
                              stationary=True)
        failing.checkpoints.append(BoundCheckpoint(
            k=1, lhs=2.0, lhs_se=0.0, t1=0.5, t2=0.0, t3=0.0, rhs=0.5,
            rhs_se=0.0, holds=False))
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


# every key of the config schema, each block's own key included, with its
# value in a preset, and the string values the config's kinds and modes take
SCHEMA = {key: value for name in ("theory-verify", "main-comparison")
          for block, tree in config_to_dict(preset(name)).items()
          for key, value in [(block, tree)] + [(f"{block}.{k}", v) for k, v in
                                               (tree.items() if isinstance(tree, dict) else ())]}
WORDS = ("constant", "rwp", "malr", "cyclic", "trace", "invsqrt", "halving", "sgd", "adam",
         "none", "ema", "ama", "pure", "mixed", "accuracy", "loss", "drifting-quadratic",
         "rotating-gaussian", "piecewise-task", "quadratic-probe", "linear-softmax",
         "mlp-1-hidden", "cross-entropy", "quadratic", "ema-replay", "a", "b")
# integers stay small, so that no example asks for a large allocation
NUMBERS = st.integers(-3, 64) | st.floats()
SCALARS = st.none() | st.booleans() | NUMBERS | st.sampled_from(WORDS)
# [[label, {key: value}], ...] as variants and theory.configs take them
ENTRIES = st.lists(st.tuples(st.sampled_from(("a", "b")), st.dictionaries(
    st.sampled_from(("velocity", "schedule", *SCHEMA)), SCALARS, max_size=2)).map(list),
    max_size=2)
VALUES = st.recursive(SCALARS | ENTRIES, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(WORDS + tuple(SCHEMA)), inner,
                                        max_size=3), max_leaves=6)


def overrides_of(key):
    """(key, value): a value of the type the key's preset value has, or any
    JSON value."""
    typed = {bool: st.booleans(), int: st.integers(-3, 64), float: NUMBERS,
             str: st.sampled_from(WORDS), list: st.lists(NUMBERS, max_size=5) | ENTRIES,
             type(None): st.integers(-3, 64) | st.sampled_from(WORDS) | ENTRIES}
    return st.tuples(st.just(key), typed.get(type(SCHEMA.get(key)), VALUES) | VALUES)


# the keys that set a run's or the bound check's length, and their largest value
LENGTHS = {"stream.horizon": 30, "theory.k_max": 20, "theory.n_seeds": 4}


class TestCliInputs:
    @settings(max_examples=80, deadline=None)
    @given(command=st.sampled_from(("run", "preset", "verify-bounds")),
           name=st.sampled_from(PRESET_NAMES), flag=st.booleans(),
           overrides=st.lists(st.sampled_from([*SCHEMA, "nope", "stream.nope"]).flatmap(
               overrides_of), max_size=3))
    @example(command="preset", name="main-comparison", flag=True, overrides=[
        ("variants", None), ("schedule.kind", "rwp"), ("schedule.k_r", 1),
        ("schedule.beta_lr", 1e-100)]).via("a plateau cut that reached a rate of 0")
    def test_any_override_exits_with_a_known_code(self, command, name, flag, overrides):
        # run and verify-bounds read the preset from a file (verify-bounds
        # from its built-in one unless flag), preset runs it if flag; the
        # lengths are set first, and a random override keeps them small
        name = "theory-verify" if command == "verify-bounds" else name
        short = [(k, v) for k, v in LENGTHS.items()
                 if name == "theory-verify" or k == "stream.horizon"]
        short += [(k, min(v, LENGTHS[k]) if k in LENGTHS and type(v) is int else v)
                  for k, v in overrides]
        args = [a for k, v in short for a in ("--override", f"{k}={json.dumps(v)}")]
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            os.chdir(tmp)
            try:
                save_config(preset(name), "config.yaml")
                argv = {"run": ["run", "config.yaml", "--out", "out"],
                        "preset": ["preset", name] + ["--run"] * flag,
                        "verify-bounds": ["verify-bounds"] + ["config.yaml"] * flag}
                code = cli_main(argv[command] + args)
            finally:
                os.chdir(cwd)
        assert code in (0, 2, 3, 4)


# (stream kind, model kind) pairs a run accepts
STREAM_MODELS = (("rotating-gaussian", "linear-softmax"), ("rotating-gaussian", "mlp-1-hidden"),
                 ("piecewise-task", "linear-softmax"), ("piecewise-task", "mlp-1-hidden"),
                 ("drifting-quadratic", "quadratic-probe"))


@st.composite
def small_configs(draw):
    """A valid config of at most 40 steps over the kinds a run combines."""
    stream_kind, model_kind = draw(st.sampled_from(STREAM_MODELS))
    averaging = draw(st.sampled_from(AVERAGING))
    kinds = ["constant", "rwp", "trace"] + ["malr"] * (averaging != "none") + [
        "cyclic"] * (stream_kind == "piecewise-task")
    horizon, batch_size = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    items = horizon * batch_size   # a capacity of at least this never evicts
    return apply_overrides(ExperimentConfig(), {
        "seeds": [draw(st.integers(0, 99))],
        "stream.kind": stream_kind, "model.kind": model_kind,
        "stream.horizon": horizon,
        "stream.batch_size": batch_size,
        "stream.n_classes": draw(st.integers(2, 4)),
        "stream.task_length": draw(st.integers(1, 8)),
        "replay.mode": draw(st.sampled_from(["pure", "mixed"])),
        "replay.batch_size": 2 * draw(st.integers(1, 4)),
        "replay.window": draw(st.none() | st.integers(1, 8)),
        "replay.capacity": draw(st.integers(1, 30) | st.integers(items, items + 30)),
        "replay.holdout_fraction": draw(st.sampled_from([0.05, 0.2, 0.5])),
        "optimizer.base": draw(st.sampled_from(["sgd", "adam"])),
        "optimizer.averaging": averaging,
        "optimizer.k_m": draw(st.integers(1, 4)), "optimizer.k_v": draw(st.integers(1, 4)),
        "optimizer.k_w": draw(st.integers(1, 16)),
        "schedule.kind": draw(st.sampled_from(kinds)),
        "schedule.k_r": draw(st.integers(1, 8)),
        "schedule.lr_trace": draw(st.lists(st.sampled_from([0.01, 0.05]), min_size=1,
                                           max_size=4)),
        "iters_per_step": draw(st.integers(0, 3)),
        "eval_every": draw(st.integers(1, 12)),
    })


class TestRunInvariants:
    # a fold missing from the run's fold plan raises, so every run here also
    # shows that each validation fold is served from the plan
    @settings(max_examples=60, deadline=None)
    @given(cfg=small_configs())
    def test_a_run_keeps_its_counts(self, cfg):
        run, horizon, p = harness.Run(cfg, cfg.seeds[0]), cfg.stream.horizon, cfg.iters_per_step
        revealed = iterations = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, horizon + 1):
                if not run.step(t):
                    return   # diverged: the step's counts are rolled back in part
                revealed += cfg.stream.batch_size
                # a pure-replay step with an empty training pool runs nothing
                iterations += p if cfg.replay.mode == "mixed" or run.pool.size else 0
        k, o, avg = run.k, cfg.optimizer, run.averager
        assert len(run.lr_trace) == k == iterations
        e = cfg.eval_every
        assert [row[0] for row in run.metric_rows] == sorted({*range(e, horizon + 1, e),
                                                               horizon})
        m = len(avg.ma)   # criterion 11's closed form
        assert (run.costs.forward, run.costs.grad, run.costs.update) == (
            k + (m + 1) * (k // o.k_v - avg.skipped_validations), k, k + m * (k // o.k_m))
        assert run.pool.seen_count + run.holdout.seen_count == revealed
        if cfg.replay.capacity >= horizon * cfg.stream.batch_size:
            assert run.pool.size + run.holdout.size == revealed

    # an unlimited pool is a pool of the stream's item bound, which it never
    # reaches, so algorithm R never draws and the artifacts are the same bytes
    @settings(max_examples=20, deadline=None)
    @given(cfg=small_configs())
    def test_unlimited_writes_what_the_item_bound_writes(self, cfg):
        written = []
        with tempfile.TemporaryDirectory() as tmp:
            for capacity in (None, cfg.stream.horizon * cfg.stream.batch_size):
                out = Path(tmp) / str(capacity)
                run_experiment(apply_overrides(cfg, {"replay.capacity": capacity}), out_dir=out)
                written.append([(out / name).read_bytes()
                                for name in ("metrics.csv", "schedule.csv")])
        assert written[0] == written[1]
