"""Stream generation, drift oracles, and the four-step protocol contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclopt import rng as rngmod
from oclopt import stream as stream_module
from oclopt.datapool import UNSERVED, DataPool, Minibatch, sample_pure_replay
from oclopt.harness import (PRESET_NAMES, ProtocolError, build_stream_spec,
                            expand_variants, preset, run_protocol_step)
from oclopt.rng import BLOCK, substream
from oclopt.stream import (DriftingQuadraticSpec, HorizonError, PiecewiseTaskSpec,
                           RotatingGaussianSpec, StreamSpec, _labels, eval_window,
                           training_block)
from tests.oracles import (ROOM, grad_at, integrate, step_batch, step_coins, step_window,
                           stored_items)


def rotation_matrix(angle: float) -> np.ndarray:
    """2-D rotation matrix, an independent oracle for the rotating stream."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def quad_spec(v=(0.0, 0.0), noise=0.0, horizon=50, seed=7, batch=4):
    quad = DriftingQuadraticSpec(dim=2, mu=0.5, l_smooth=1.5, center0=(1.0, -2.0),
                                 velocity=tuple(v), noise_radius=noise)
    return StreamSpec(kind="drifting-quadratic", d_in=2, batch_size=batch,
                      horizon=horizon, seed=seed, quadratic=quad)


def rotating_spec(omega=0.05, horizon=100, seed=3, n_classes=2, batch=8):
    rot = RotatingGaussianSpec(n_classes=n_classes, mean_radius=2.0,
                               angular_velocity=omega, noise_std=0.3)
    return StreamSpec(kind="rotating-gaussian", d_in=2, batch_size=batch,
                      horizon=horizon, seed=seed, rotating=rot)


def piecewise_spec(horizon=60, seed=11, task_length=10, n_classes=6, cpt=2, batch=8):
    pw = PiecewiseTaskSpec(n_classes=n_classes, classes_per_task=cpt,
                           task_length=task_length, mean_scale=3.0, noise_std=0.2)
    return StreamSpec(kind="piecewise-task", d_in=3, batch_size=batch,
                      horizon=horizon, seed=seed, piecewise=pw)


def batch_at(spec, t):
    """Step t's training batch as runs are served it: the first row of
    ``training_block(spec, t)``."""
    inputs, labels = training_block(spec, t)
    return Minibatch(inputs[0], labels[0])


class TestNextBatch:
    """A step's training batch, read as runs are served it (``batch_at``)."""

    def test_determinism_same_seed(self):
        spec = rotating_spec()
        a, b = batch_at(spec, 1), batch_at(spec, 1)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_random_access_matches_sequential(self):
        spec = rotating_spec()
        sequential = [batch_at(spec, t) for t in range(1, 6)]
        assert np.array_equal(batch_at(spec, 4).inputs, sequential[3].inputs)

    def test_zero_drift_is_stationary(self):
        spec = quad_spec(v=(0.0, 0.0))
        q = spec.quadratic
        theta = np.array([0.3, 0.8])
        losses = [q.loss_at(theta, t) for t in range(1, 20)]
        assert np.allclose(losses, losses[0])
        assert q.chi(5, radius=10.0) == 0.0

    def test_rotating_mean_matches_rotation_oracle(self):
        # class-1 mean at t equals the t=0 mean rotated by t*omega
        omega = 0.07
        spec = rotating_spec(omega=omega)
        rot = spec.rotating
        for k in (1, 5, 23):
            expected = rotation_matrix(k * omega) @ rot.mean(1, 0, 2)
            assert np.allclose(rot.mean(1, k, 2), expected, atol=1e-12)

    def test_mean_table_equals_the_per_class_scalar_path(self):
        # every rotating-gaussian preset variant over its horizon, plus the
        # main-comparison stream stretched to 4 800 steps
        def scalar_table(rot, t, d_in):
            rows = []
            for c in range(rot.n_classes):
                angle = 2.0 * np.pi * c / rot.n_classes + rot.angular_velocity * t
                m = np.zeros(d_in)
                m[0] = rot.mean_radius * np.cos(angle)
                m[1] = rot.mean_radius * np.sin(angle)
                rows.append(m)
            return np.stack(rows)

        streams = set()
        for name in PRESET_NAMES:
            for _, cfg in expand_variants(preset(name)):
                if cfg.stream.kind == "rotating-gaussian":
                    streams.add(build_stream_spec(cfg, 0))
                    if name == "main-comparison":
                        cfg.stream.horizon = 4800
                        streams.add(build_stream_spec(cfg, 0))
        assert len({s.horizon for s in streams}) == 2
        for spec in streams:
            rot = spec.rotating
            for t in range(1, spec.horizon + 1):
                table = rot.mean(np.arange(rot.n_classes), t, spec.d_in)
                assert np.array_equal(table, scalar_table(rot, t, spec.d_in)), (spec, t)

    def test_horizon_exceeded(self):
        # a step past the horizon is refused when its block would be planned,
        # and step 0 is refused before any step
        run = _FakeRun()
        run.stream_spec = rotating_spec(horizon=10)
        with pytest.raises(ProtocolError):
            run_protocol_step(run, 0)
        for t in range(1, 11):
            run_protocol_step(run, t)
        with pytest.raises(HorizonError):
            run_protocol_step(run, 11)

    def test_eval_batch_differs_from_training_batch(self):
        spec = rotating_spec()
        assert not np.array_equal(batch_at(spec, 3).inputs, eval_window(spec, 3, 3)[0])

    def test_piecewise_active_classes_switch_and_cycle(self):
        spec = piecewise_spec(task_length=10, n_classes=6, cpt=2)
        served = {t: set(batch_at(spec, t).labels.tolist()) for t in (1, 10, 11, 21, 31)}
        assert served[1] == {0, 1}
        assert served[10] == {0, 1}
        assert served[11] == {2, 3}
        assert served[21] == {4, 5}
        assert served[31] == {0, 1}  # cycles mod n_classes

    def test_piecewise_class_means_are_one_read_only_draw(self):
        pw = piecewise_spec(n_classes=6).piecewise
        means = pw.class_means(11, 3)
        fresh = pw.mean_scale * substream(11, rngmod.MEANS).standard_normal((6, 3))
        assert means.tobytes() == fresh.tobytes()
        assert pw.class_means(11, 3) is means
        with pytest.raises(ValueError):
            means[0, 0] = 0.0

    def test_quadratic_noise_bounded(self):
        spec = quad_spec(noise=0.4, batch=64)
        q = spec.quadratic
        for t in (1, 9):
            batch = batch_at(spec, t)
            dev = np.linalg.norm(batch.inputs - q.center(t), axis=1)
            assert np.all(dev <= 0.4 + 1e-12)


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestServedDraws:
    """Batches, forward-transfer windows and routing coins served from blocks
    of steps equal the same draws made one step at a time."""

    @settings(max_examples=60, deadline=None)
    @given(make=st.sampled_from([quad_spec, rotating_spec, piecewise_spec]),
           seed=st.sampled_from([0, 2**32, 2**64 - 1]) | st.integers(0, 2**40),
           horizon=st.integers(1, 2 * BLOCK + 2), classes=st.sampled_from([2, 3, 4, 16]),
           batch=st.sampled_from([1, 3, 8]) | st.integers(1, 33), data=st.data())
    def test_served_draws_equal_per_step_draws(self, make, seed, horizon, classes, batch,
                                               data):
        # odd batch sizes leave half of a step's last label word unused
        kw = {quad_spec: {"noise": 0.4, "v": (0.01, -0.02)},
              rotating_spec: {"n_classes": classes},
              piecewise_spec: {"n_classes": classes,
                               "cpt": data.draw(st.integers(1, classes), label="cpt")}}[make]
        spec = make(horizon=horizon, seed=seed, batch=batch, **kw)
        edges = [t for t in (1, BLOCK, BLOCK + 1, 2 * BLOCK, horizon) if t <= horizon]
        t = data.draw(st.sampled_from(edges) | st.integers(1, horizon), label="t")
        first = data.draw(st.integers(max(1, t - BLOCK - 2), t), label="first")
        batch, (inputs, labels) = batch_at(spec, t), step_batch(spec, t, rngmod.STREAM)
        assert same(batch.inputs, inputs) and same(batch.labels, labels)
        assert not (batch.inputs.flags.writeable or batch.labels.flags.writeable)
        assert all(map(same, eval_window(spec, t, t), step_batch(spec, t, rngmod.EVAL)))
        window = eval_window(spec, first, t)
        assert all(map(same, window, step_window(spec, first, t, rngmod.EVAL)))
        assert same(eval_window(spec, first, first)[0], step_batch(spec, first, rngmod.EVAL)[0])
        # coins are drawn when offers are planned: here for the steps from
        # first on, then for those from t on
        pool, holdout = DataPool(ROOM, seed=seed), DataPool(ROOM, seed=seed, holdout_fraction=0.5)
        for step in sorted({first, t}):
            integrate(pool, holdout, spec, step)
            hold = step_coins(seed, step, spec.batch_size) < 0.5
            rows = step_batch(spec, step, rngmod.STREAM)
            for target, keep in ((pool, ~hold), (holdout, hold)):
                if not target.size:   # storage is reserved at the first stored item
                    assert not keep.any()
                    continue
                xs, ys, arrival = stored_items(target)
                assert same(xs[arrival == step], rows[0][keep])
                assert same(ys[arrival == step], rows[1][keep])


class TestBlockLabels:
    """A block's labels come from each step's raw words, scaled by Lemire's
    method once per block; a step whose words reject draws again as
    ``Generator.integers`` does."""

    @pytest.mark.parametrize("width", [2, 3, 5, 16, 1000])
    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_labels_of_raw_words_equal_integers(self, width, n):
        g = substream(4, rngmod.STREAM, width + n)
        raw = np.random.Generator(np.random.Philox())
        raw.bit_generator.state = g.bit_generator.state
        labels, rejected = _labels(raw.bit_generator.random_raw((n + 1) // 2)[None], width, n)
        assert not rejected[0]
        assert same(labels[0], g.integers(0, width, size=n))
        # the draws that follow the labels start at the same word
        assert raw.bit_generator.random_raw() == g.bit_generator.random_raw()

    @pytest.mark.parametrize("width", [3, 5, 7, 2**31 + 1])
    def test_a_word_half_below_the_threshold_rejects(self, width):
        # Lemire rejects a draw u whose u * width mod 2**32 falls below
        # (2**32 - width) % width: u = 0 always does for such widths
        threshold = (2**32 - width) % width
        assert threshold > 0
        words = np.array([[1 << 32, 5], [7 << 32, 0], [3 | 3 << 32, 9 | 9 << 32]], np.uint64)
        labels, rejected = _labels(words, width, 3)
        # row 0's draws are 0, 1, 5; row 1's 0, 7, 0; row 2's 3, 3, 9
        assert rejected.tolist() == [True, True, False]
        assert labels.tolist()[2] == [(3 * width) >> 32, (3 * width) >> 32, (9 * width) >> 32]
        # a step of one label leaves its word's high half unused
        assert not _labels(np.array([[3]], np.uint64), width, 1)[1][0]

    @pytest.mark.parametrize("make", [rotating_spec, piecewise_spec])
    def test_rejected_steps_draw_as_integers_does(self, make, monkeypatch):
        # force rejections, whose labels are not the ones integers() draws:
        # those steps are drawn again on their own, so the block still equals
        # per-step draws, and the other steps keep theirs
        def rejecting(words, width, n):
            labels, rejected = _labels(words, width, n)
            labels[::3], rejected[::3] = -1, True
            return labels, rejected

        spec = make(horizon=40, seed=9, batch=5)
        monkeypatch.setattr(stream_module, "_labels", rejecting)
        for t in (1, 2, 3, 4, 40):
            batch = batch_at(spec, t)
            assert all(map(same, (batch.inputs, batch.labels), step_batch(spec, t, rngmod.STREAM)))


class TestDriftConstants:
    def test_chi_closed_form_matches_sampled_sup(self):
        # chi bounds |l_{t+1} - l_t| over the ball; the bound is tight, so a
        # coarse max over sampled theta approaches it from below
        quad = DriftingQuadraticSpec(dim=2, mu=0.5, l_smooth=1.5, center0=(1.0, -2.0),
                                     velocity=(0.03, -0.01), noise_radius=0.0)
        radius = 5.0
        rng = np.random.default_rng(0)
        t = 7
        chi = quad.chi(t, radius)
        thetas = rng.standard_normal((20000, 2))
        thetas = radius * thetas / np.maximum(np.linalg.norm(thetas, axis=1, keepdims=True), 1e-12)
        diffs = np.abs([quad.loss_at(th, t + 1) - quad.loss_at(th, t) for th in thetas[:500]])
        assert diffs.max() <= chi + 1e-12
        assert diffs.max() >= 0.8 * chi

    def test_lipschitz_witness_equality_on_top_eigenvector(self):
        quad = DriftingQuadraticSpec(dim=3, mu=0.5, l_smooth=2.0, center0=(0,) * 3,
                                     velocity=(0,) * 3)
        a = quad.eigenvalues()
        top = np.zeros(3)
        top[np.argmax(a)] = 1.0
        g1 = grad_at(quad, top * 2.0, 1)
        g2 = grad_at(quad, top * 0.5, 1)
        assert np.isclose(np.linalg.norm(g1 - g2), quad.lipschitz() * 1.5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.standard_normal((2, 3))
            lhs = np.linalg.norm(grad_at(quad, x, 1) - grad_at(quad, y, 1))
            assert lhs <= quad.lipschitz() * np.linalg.norm(x - y) + 1e-12


class _FakeRun:
    """What ``run_protocol_step`` drives: a stream, a training pool and a
    holdout pool, plus a learner that predicts zeros and whose update draws a
    replay minibatch, then raises while ``fail_at`` equals the step."""

    def __init__(self, holdout_fraction=0.05, seed=5):
        self.stream_spec = rotating_spec(seed=seed)
        self.pool = DataPool(ROOM, seed=seed)
        self.holdout = DataPool(ROOM, seed=seed, holdout_fraction=holdout_fraction)
        self.served = UNSERVED
        self.fail_at = None
        self.updates = []

    def predict(self, inputs):
        return np.zeros(len(inputs), dtype=np.int64)

    def update(self, t):
        if self.pool.size:
            sample_pure_replay(self.pool, 4)
        if self.fail_at == t:
            raise RuntimeError("boom")
        self.updates.append(t)


class TestProtocol:
    def test_noop_learner_still_grows_pool(self):
        run = _FakeRun(holdout_fraction=0.0)
        for t in (1, 2, 3):
            run_protocol_step(run, t)
        assert run.pool.size == 3 * run.stream_spec.batch_size
        assert run.updates == [1, 2, 3]

    def test_steps_must_be_sequential(self):
        run = _FakeRun()
        run_protocol_step(run, 1)
        with pytest.raises(ProtocolError):
            run_protocol_step(run, 3)

    def test_predictions_are_pure_in_prior_params(self):
        # rerunning the prediction with labels withheld gives identical output
        run = _FakeRun()
        preds, batch = run_protocol_step(run, 1)
        again = run.predict(batch.inputs)
        assert np.array_equal(preds, again)

    def test_a_failed_step_ends_the_run(self):
        # nothing is rolled back: the pools keep the failed step's offers,
        # so the step cannot be run again
        run = _FakeRun(holdout_fraction=0.2)
        run_protocol_step(run, 1)
        run.fail_at = 2
        with pytest.raises(RuntimeError, match="boom"):
            run_protocol_step(run, 2)
        assert run.pool.last_step == run.holdout.last_step == 2
        with pytest.raises(ProtocolError, match="expected step 3, got 2"):
            run_protocol_step(run, 2)
        assert run.updates == [1]

    def test_holdout_routing_matches_enumeration(self):
        # oracle: re-enumerate the routing coins from the pinned substream
        run = _FakeRun(holdout_fraction=0.05, seed=5)
        total = 0
        expected_holdout = 0
        for t in (1, 2, 3):
            run_protocol_step(run, t)
            n = run.stream_spec.batch_size
            coins = substream(run.stream_spec.seed, rngmod.HOLDOUT, t).random(n)
            expected_holdout += int((coins < 0.05).sum())
            total += n
        assert run.holdout.size == expected_holdout
        assert run.pool.size == total - expected_holdout
