"""Stream generation, drift oracles, and the four-step protocol contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclopt import rng as rngmod
from oclopt.datapool import DataPool, sample_pure_replay
from oclopt.harness import ProtocolError, run_protocol_step
from oclopt.rng import substream
from oclopt.stream import (DriftingQuadraticSpec, HorizonError, PiecewiseTaskSpec,
                           RotatingGaussianSpec, StreamSpec, eval_batch, next_batch)


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


def piecewise_spec(horizon=60, seed=11, task_length=10, n_classes=6, cpt=2):
    pw = PiecewiseTaskSpec(n_classes=n_classes, classes_per_task=cpt,
                           task_length=task_length, mean_scale=3.0, noise_std=0.2)
    return StreamSpec(kind="piecewise-task", d_in=3, batch_size=8,
                      horizon=horizon, seed=seed, piecewise=pw)


class TestNextBatch:
    def test_determinism_same_seed(self):
        spec = rotating_spec()
        a, b = next_batch(spec, 1), next_batch(spec, 1)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_random_access_matches_sequential(self):
        spec = rotating_spec()
        sequential = [next_batch(spec, t) for t in range(1, 6)]
        assert np.array_equal(next_batch(spec, 4).inputs, sequential[3].inputs)

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

    def test_horizon_exceeded(self):
        spec = rotating_spec(horizon=10)
        with pytest.raises(HorizonError):
            next_batch(spec, 11)
        with pytest.raises(HorizonError):
            next_batch(spec, 0)

    def test_eval_batch_differs_from_training_batch(self):
        spec = rotating_spec()
        assert not np.array_equal(next_batch(spec, 3).inputs, eval_batch(spec, 3).inputs)

    def test_piecewise_active_classes_switch_and_cycle(self):
        spec = piecewise_spec(task_length=10, n_classes=6, cpt=2)
        pw = spec.piecewise
        assert list(pw.active_classes(1)) == [0, 1]
        assert list(pw.active_classes(10)) == [0, 1]
        assert list(pw.active_classes(11)) == [2, 3]
        assert list(pw.active_classes(21)) == [4, 5]
        assert list(pw.active_classes(31)) == [0, 1]  # cycles mod n_classes
        batch = next_batch(spec, 15)
        assert set(np.unique(batch.labels)) <= {2, 3}

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
            batch = next_batch(spec, t)
            dev = np.linalg.norm(batch.inputs - q.center(t), axis=1)
            assert np.all(dev <= 0.4 + 1e-12)


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
        g1 = quad.grad_at(top * 2.0, 1)
        g2 = quad.grad_at(top * 0.5, 1)
        assert np.isclose(np.linalg.norm(g1 - g2), quad.lipschitz() * 1.5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.standard_normal((2, 3))
            lhs = np.linalg.norm(quad.grad_at(x, 1) - quad.grad_at(y, 1))
            assert lhs <= quad.lipschitz() * np.linalg.norm(x - y) + 1e-12


class _FakeRun:
    """What ``run_protocol_step`` drives: a stream, a training pool and a
    holdout pool, plus a learner that predicts zeros and whose update draws a
    replay minibatch, then raises while ``fail_at`` equals the step."""

    def __init__(self, holdout_fraction=0.05, seed=5, capacity=None):
        self.stream_spec = rotating_spec(seed=seed)
        self.pool = DataPool(capacity=capacity, seed=seed)
        self.holdout = DataPool(seed=seed, holdout_fraction=holdout_fraction)
        self.fail_at = None
        self.updates = []

    def predict(self, inputs):
        return np.zeros(len(inputs), dtype=np.int64)

    def update(self, t, batch):
        if self.pool.size:
            sample_pure_replay(self.pool, 4)
        if self.fail_at == t:
            raise RuntimeError("boom")
        self.updates.append(t)


def pool_state(pool):
    stored = pool.items() + (pool.record_ids(),) if pool.size else ()
    return (pool.size, pool.seen_count, pool.last_step, [a.tobytes() for a in stored],
            pool._reservoir_rng.bit_generator.state, pool._replay_rng.bit_generator.state)


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

    # each step routes 7 items to the training pool and 1 to the holdout, so
    # with capacity 8 the failed step overwrites slots of step 1's items
    @pytest.mark.parametrize("capacity", [None, 8], ids=["unlimited", "capped"])
    def test_failed_update_rolls_back_pools(self, capacity):
        run, clean = (_FakeRun(holdout_fraction=0.2, capacity=capacity)
                      for _ in range(2))
        run_protocol_step(run, 1)
        run_protocol_step(clean, 1)
        run.fail_at = 2
        with pytest.raises(RuntimeError, match="boom"):
            run_protocol_step(run, 2)
        assert run.pool.last_step == run.holdout.last_step == 1
        for pool, ref in ((run.pool, clean.pool), (run.holdout, clean.holdout)):
            np.testing.assert_equal(pool_state(pool), pool_state(ref))
        # the step can be retried cleanly
        run.fail_at = None
        run_protocol_step(run, 2)
        run_protocol_step(clean, 2)
        assert run.pool.last_step == run.holdout.last_step == 2
        for pool, ref in ((run.pool, clean.pool), (run.holdout, clean.holdout)):
            np.testing.assert_equal(pool_state(pool), pool_state(ref))
        assert run.updates == clean.updates == [1, 2]

    # each step offers 8 items; a capped pool overwrites slots of earlier
    # steps' items, so the undo log of the failed step is exercised
    @settings(max_examples=100, deadline=None)
    @given(capacity=st.none() | st.integers(1, 16),
           holdout_fraction=st.floats(0.0, 0.5), fail_at=st.integers(1, 6),
           failures=st.integers(1, 2))
    def test_failed_update_at_any_step_rolls_back_pools(self, capacity, holdout_fraction,
                                                        fail_at, failures):
        run, clean = (_FakeRun(holdout_fraction=holdout_fraction, capacity=capacity)
                      for _ in range(2))
        for t in range(1, fail_at):
            run_protocol_step(run, t)
            run_protocol_step(clean, t)
        run.fail_at = fail_at
        for _ in range(failures):
            with pytest.raises(RuntimeError, match="boom"):
                run_protocol_step(run, fail_at)
            assert run.pool.last_step == run.holdout.last_step == fail_at - 1
            for pool, ref in ((run.pool, clean.pool), (run.holdout, clean.holdout)):
                np.testing.assert_equal(pool_state(pool), pool_state(ref))
        # the step can be retried cleanly
        run.fail_at = None
        run_protocol_step(run, fail_at)
        run_protocol_step(clean, fail_at)
        assert run.pool.last_step == run.holdout.last_step == fail_at
        for pool, ref in ((run.pool, clean.pool), (run.holdout, clean.holdout)):
            np.testing.assert_equal(pool_state(pool), pool_state(ref))
        assert run.updates == clean.updates == list(range(1, fail_at + 1))

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
