"""Metric definitions against enumeration oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclopt import metrics
from oclopt.datapool import UNSERVED, DataPool, EmptyPoolError
from oclopt.metrics import MetricError, MetricLedger, forward_transfer, information_retention
from oclopt.model import ModelSpec, init_params, predict
from oclopt.rng import substream
from oclopt.stream import RotatingGaussianSpec, StreamSpec, eval_window
from tests.oracles import ROOM, integrate, offer_step, prefix_mean, retained_rows


def softmax_spec():
    return ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2, n_classes=2)


class TestLearningEfficacy:
    def test_perfect_predictor(self):
        ledger = MetricLedger()
        for j in range(1, 6):
            ledger.record_step_ahead(j, 1.0)
        assert ledger.learning_efficacy(5) == 1.0

    def test_two_step_arithmetic(self):
        ledger = MetricLedger()
        ledger.record_step_ahead(1, 0.5)
        ledger.record_step_ahead(2, 0.7)
        assert np.isclose(ledger.learning_efficacy(2), 0.6)

    def test_missing_records_raise(self):
        ledger = MetricLedger()
        ledger.record_step_ahead(1, 0.5)
        with pytest.raises(MetricError):
            ledger.learning_efficacy(3)

    # records arrive in order; the mean is taken over the same float64
    # sequence, so it equals the dict walk bit for bit
    @settings(max_examples=100, deadline=None)
    @given(perfs=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0]), min_size=1,
                          max_size=300), data=st.data())
    def test_prefix_mean_equals_the_dict_walk(self, perfs, data):
        n = data.draw(st.integers(1, len(perfs)), label="kept")
        ledger, records = MetricLedger(), {}
        for j in range(1, n + 1):
            ledger.record_step_ahead(j, perfs[j - 1])
            records[j] = perfs[j - 1]
        assert ledger.step_ahead.tobytes() == np.array(perfs[:n]).tobytes()
        for t in range(0, len(perfs) + 2):
            if t <= n:
                with np.errstate(invalid="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("ignore")   # t = 0: the mean of nothing
                    got, want = ledger.learning_efficacy(t), prefix_mean(records, t)
                assert np.array(got).tobytes() == np.array(want).tobytes()
            else:
                with pytest.raises(MetricError):
                    ledger.learning_efficacy(t)

    # a run records j = t - 1 at every step t >= 2; any other record is refused
    # and leaves the ledger as it was
    @pytest.mark.parametrize("made,refused", [([1, 2], 2), ([1, 2], 4), ([], 2)],
                             ids=["duplicate", "gap", "out-of-order"])
    def test_a_record_that_is_not_the_next_raises(self, made, refused):
        ledger = MetricLedger()
        for j in made:
            ledger.record_step_ahead(j, float(j))
        with pytest.raises(MetricError, match=f"step-ahead record {refused} is not the next"):
            ledger.record_step_ahead(refused, 0.0)
        assert ledger.step_ahead.tolist() == [float(j) for j in made]

    def test_step_ahead_is_read_only(self):
        ledger = MetricLedger()
        ledger.record_step_ahead(1, 0.5)
        with pytest.raises(ValueError):
            ledger.step_ahead[0] = 1.0
        assert ledger.learning_efficacy(1) == 0.5

    def test_prefix_mean_increment_bound(self):
        rng = np.random.default_rng(1)
        ledger = MetricLedger()
        for j in range(1, 101):
            ledger.record_step_ahead(j, float(rng.random()))
        prev = ledger.learning_efficacy(1)
        for t in range(2, 101):
            cur = ledger.learning_efficacy(t)
            assert abs(cur - prev) <= 1.0 / t + 1e-12
            prev = cur

    def test_enumeration_oracle_on_hand_stream(self):
        # frozen model predicting a 5-step stream: direct enumeration
        spec = softmax_spec()
        theta = init_params(spec, substream(3, 6))
        ledger = MetricLedger()
        rng = np.random.default_rng(2)
        accs = []
        for j in range(1, 6):
            xs = rng.standard_normal((10, 2))
            ys = rng.integers(0, 2, 10)
            preds = predict(spec, theta, xs)
            correct = sum(int(p == y) for p, y in zip(preds, ys))
            accs.append(correct / 10)
            ledger.record_step_ahead(j, float(np.mean(preds == ys)))
        assert np.isclose(ledger.learning_efficacy(5), np.mean(accs))


class TestInformationRetention:
    def test_memorizing_single_class(self):
        spec = softmax_spec()
        theta = np.zeros(spec.n_params)
        spec.block(theta, "b")[:] = np.array([10.0, 0.0])
        holdout = DataPool(ROOM, seed=0)
        xs = np.random.default_rng(0).standard_normal((10, 2))
        offer_step(holdout, 1, xs, np.zeros(10, dtype=np.int64))
        assert information_retention(spec, theta, holdout, 1) == 1.0

    def test_enumeration_of_ten_items(self):
        spec = softmax_spec()
        theta = init_params(spec, substream(9, 6))
        holdout = DataPool(ROOM, seed=0)
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((10, 2))
        ys = rng.integers(0, 2, 10)
        offer_step(holdout, 1, xs, ys)
        preds = predict(spec, theta, xs)
        expected = float(np.mean(preds == ys))
        assert information_retention(spec, theta, holdout, 1) == expected

    def test_respects_arrival_cutoff(self):
        spec = softmax_spec()
        theta = np.zeros(spec.n_params)
        spec.block(theta, "b")[:] = np.array([10.0, 0.0])
        holdout = DataPool(ROOM, seed=0)
        offer_step(holdout, 1, np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
        offer_step(holdout, 2, np.zeros((5, 2)), np.ones(5, dtype=np.int64))
        assert information_retention(spec, theta, holdout, 1) == 1.0
        assert information_retention(spec, theta, holdout, 2) == 0.5

    def test_empty_holdout_raises(self):
        spec = softmax_spec()
        theta = np.zeros(spec.n_params)
        with pytest.raises(EmptyPoolError):
            information_retention(spec, theta, DataPool(ROOM, seed=0), 1)

    # an unlimited holdout is read as a prefix of its slots, a capped one
    # that has evicted through a mask; either way the scored rows, in order,
    # are those of copying every item and masking arrival <= t
    @pytest.mark.parametrize("capacity", [ROOM, 12], ids=["unlimited", "capped"])
    def test_scores_the_copy_and_mask_rows(self, capacity, monkeypatch):
        spec = softmax_spec()
        holdout = DataPool(capacity=capacity, seed=7)
        rng = np.random.default_rng(11)
        for t in range(1, 9):
            n = int(rng.integers(0, 6))
            offer_step(holdout, t, rng.standard_normal((n, 2)), rng.integers(0, 2, n))
        assert (holdout.size < holdout.seen_count) == (capacity != ROOM)
        monkeypatch.setattr(metrics, "validation_performance",
                            lambda spec, theta, batch: (batch.inputs.tobytes(),
                                                        batch.labels.tobytes()))
        for t in range(int(holdout._arrival[: holdout.size].min()), 10):
            xs, ys = retained_rows(holdout, t)
            assert information_retention(spec, None, holdout, t) == (xs.tobytes(),
                                                                     ys.tobytes())


def rotating_stream(omega=0.0, horizon=200, seed=0):
    rot = RotatingGaussianSpec(n_classes=2, mean_radius=2.0,
                               angular_velocity=omega, noise_std=0.4)
    return StreamSpec(kind="rotating-gaussian", d_in=2, batch_size=16,
                      horizon=horizon, seed=seed, rotating=rot)


class TestForwardTransfer:
    def test_stationary_ft_close_to_ir_distribution(self):
        # with zero drift, future and past evaluation data share a distribution
        spec = softmax_spec()
        theta = init_params(spec, substream(1, 6))
        stream = rotating_stream(omega=0.0)
        early = forward_transfer(spec, theta, stream, t=10, k1=1, k2=20)
        late = forward_transfer(spec, theta, stream, t=100, k1=1, k2=20)
        assert abs(early - late) < 0.15

    def test_single_step_window_equals_batch_accuracy(self):
        spec = softmax_spec()
        theta = init_params(spec, substream(2, 6))
        stream = rotating_stream(omega=0.02)
        t, k1, k2 = 5, 3, 4
        got = forward_transfer(spec, theta, stream, t, k1, k2)
        batches = [eval_window(stream, t + k1, t + k1), eval_window(stream, t + k2, t + k2)]
        xs = np.concatenate([x for x, _ in batches])
        ys = np.concatenate([y for _, y in batches])
        preds = predict(spec, theta, xs)
        assert got == float(np.mean(preds == ys))

    def test_insufficient_horizon_raises(self):
        spec = softmax_spec()
        theta = init_params(spec, substream(2, 6))
        stream = rotating_stream(horizon=50)
        with pytest.raises(MetricError):
            forward_transfer(spec, theta, stream, t=40, k1=5, k2=20)

    def test_window_validation(self):
        spec = softmax_spec()
        theta = init_params(spec, substream(2, 6))
        stream = rotating_stream()
        with pytest.raises(ValueError):
            forward_transfer(spec, theta, stream, t=1, k1=5, k2=5)


class TestRetentionInvariants:
    def test_stationary_retention_has_no_trend(self):
        # frozen model, zero-drift stream: P_IR is stable in t up to sampling
        # noise in the accumulating holdout
        stream = rotating_stream(omega=0.0, horizon=200, seed=4)
        spec = softmax_spec()
        theta = init_params(spec, substream(8, 6))
        pool = DataPool(ROOM, seed=4)
        holdout = DataPool(ROOM, seed=4, holdout_fraction=0.3)
        values, served = [], UNSERVED
        for t in range(1, 201):
            served = integrate(pool, holdout, stream, t, served)
            if t % 40 == 0:
                values.append(information_retention(spec, theta, holdout, t))
        assert max(values) - min(values) < 0.05

    def test_retention_independent_of_training_capacity(self):
        # the holdout route never touches the training pool, so retention of a
        # fixed model is identical whatever the training capacity
        stream = rotating_stream(omega=0.01, horizon=50, seed=9)
        spec = softmax_spec()
        theta = init_params(spec, substream(8, 6))
        values = []
        for capacity in (ROOM, 64, 8):
            pool = DataPool(capacity=capacity, seed=9)
            holdout = DataPool(ROOM, seed=9, holdout_fraction=0.2)
            served = UNSERVED
            for t in range(1, 51):
                served = integrate(pool, holdout, stream, t, served)
            values.append(information_retention(spec, theta, holdout, 50))
        assert values[0] == values[1] == values[2]
