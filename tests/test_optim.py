"""Base-optimizer recurrences, MA algebra, the adaptive weight search, and
checkpoint round-trips."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclopt.model import DivergenceError
from oclopt.optim import (CostCounter, adam_step, ama_step, best_ma, init_adam,
                          init_averager, init_sgd, load_optimizer, ma_update,
                          save_optimizer, sgd_step, unfolded_ma_coefficients)


def pv(*values):
    return np.array(values, dtype=float)


class TestSgd:
    def test_plain_update_is_theta_minus_lr_grad(self):
        state = init_sgd(pv(1.0, 2.0), beta=0.0)
        sgd_step(state, pv(0.5, -1.0), lr=0.1)
        assert np.allclose(state.theta, [0.95, 2.1])

    def test_zero_grad_keeps_theta_fixed(self):
        state = init_sgd(pv(3.0), beta=0.9)
        for _ in range(5):
            sgd_step(state, pv(0.0), lr=0.2)
        assert state.theta[0] == 3.0

    def test_momentum_matches_scalar_recurrence_oracle(self):
        # independent recurrence in plain python floats
        lam, c, alpha, beta = 0.8, 2.0, 0.1, 0.9
        theta_ref, buf = 1.0, 0.0
        state = init_sgd(pv(1.0), beta=beta)
        for _ in range(3):
            g = lam * (state.theta[0] - c)
            sgd_step(state, pv(g), lr=alpha)
            g_ref = lam * (theta_ref - c)
            buf = beta * buf + g_ref
            theta_ref = theta_ref - alpha * buf
        assert np.isclose(state.theta[0], theta_ref, rtol=1e-12)

    @pytest.mark.parametrize("init,step", [(init_sgd, sgd_step), (init_adam, adam_step)],
                             ids=["sgd_step", "adam_step"])
    def test_nonfinite_grad_signals_divergence(self, init, step):
        # the step functions own the gradient check: nothing changes on a raise
        state = init(pv(1.0, 2.0))
        step(state, pv(0.5, -1.0), lr=0.1)   # non-zero buffers to compare
        before = copy.deepcopy(vars(state))
        with pytest.raises(DivergenceError):
            step(state, pv(0.5, float("nan")), lr=0.2)
        np.testing.assert_equal(vars(state), before)

    def test_nonpositive_lr_rejected(self):
        state = init_sgd(pv(1.0))
        with pytest.raises(ValueError):
            sgd_step(state, pv(1.0), lr=0.0)


class TestAdam:
    def test_zero_grad_from_init_keeps_theta(self):
        state = init_adam(pv(1.0, -1.0))
        adam_step(state, pv(0.0, 0.0), lr=0.1)
        assert np.allclose(state.theta, [1.0, -1.0])

    def test_first_step_is_signlike(self):
        # bias correction makes m_hat/sqrt(v_hat) = g/|g| on the first step
        state = init_adam(pv(0.0))
        adam_step(state, pv(0.04), lr=0.1)
        assert np.isclose(state.theta[0], -0.1, rtol=1e-4)

    def test_five_step_scalar_oracle(self):
        b1, b2, eps, alpha = 0.9, 0.999, 1e-8, 0.05
        grads = [0.3, -0.2, 0.8, 0.1, -0.5]
        theta_ref, m, v = 1.0, 0.0, 0.0
        state = init_adam(pv(1.0), beta1=b1, beta2=b2, eps=eps)
        for i, g in enumerate(grads, start=1):
            adam_step(state, pv(g), lr=alpha)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta_ref -= alpha * (m / (1 - b1 ** i)) / (np.sqrt(v / (1 - b2 ** i)) + eps)
        assert np.isclose(state.theta[0], theta_ref, rtol=1e-12)


class TestMaUpdate:
    def test_gamma_zero_copies_sgd(self):
        ma = pv(5.0, 5.0)
        ma_update(ma, 0.0, pv(1.0, 2.0))
        assert np.allclose(ma, [1.0, 2.0])

    def test_gamma_one_freezes(self):
        ma = pv(5.0, 5.0)
        ma_update(ma, 1.0, pv(1.0, 2.0))
        assert np.allclose(ma, [5.0, 5.0])

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ma_update(pv(0.0), 1.5, pv(1.0))

    def test_constant_gamma_matches_unfolded_expansion(self):
        # oracle: the explicit unrolled sum with coefficients (1-g) g^{k-i}
        rng = np.random.default_rng(0)
        gamma = 0.9
        thetas = rng.standard_normal(12)
        ma = pv(thetas[0])
        for th in thetas[1:]:
            ma_update(ma, gamma, pv(th))
        k = len(thetas) - 1
        expected = gamma ** k * thetas[0]
        for i in range(1, k + 1):
            expected += (1 - gamma) * gamma ** (k - i) * thetas[i]
        assert np.isclose(ma[0], expected, rtol=1e-12)

    def test_varying_gamma_matches_explicit_products(self):
        rng = np.random.default_rng(1)
        gammas = rng.uniform(0, 1, 15)
        thetas = rng.standard_normal(16)
        ma = pv(thetas[0])
        for g, th in zip(gammas, thetas[1:]):
            ma_update(ma, g, pv(th))
        # independent expansion with explicit suffix products
        k = len(gammas)
        expected = np.prod(gammas) * thetas[0]
        for i in range(1, k + 1):
            expected += (1 - gammas[i - 1]) * np.prod(gammas[i:]) * thetas[i]
        assert np.isclose(ma[0], expected, rtol=1e-10)


class TestUnfoldedCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=60))
    def test_coefficients_sum_to_one(self, gammas):
        coeffs = unfolded_ma_coefficients(np.array(gammas))
        assert abs(coeffs.sum() - 1.0) < 1e-12
        assert np.all(coeffs >= -1e-15)

    def test_convex_hull_bounds_hold(self):
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal(501)
        gammas = rng.uniform(0, 1, 500)
        ma = pv(thetas[0])
        lo = hi = thetas[0]
        for g, th in zip(gammas, thetas[1:]):
            ma_update(ma, g, pv(th))
            lo, hi = min(lo, th), max(hi, th)
            assert lo - 1e-12 <= ma[0] <= hi + 1e-12


def steer(value):
    """Evaluate hook whose 'performance' is the first parameter coordinate."""
    return lambda params, batch: float(params[0])


class TestAmaStep:
    def test_initialization_splits_gamma_by_delta(self):
        state = init_averager(pv(1.0), 2, gamma0=0.99, delta=5.0)
        assert state.gammas[0] == 0.99
        assert np.isclose(state.gammas[1], 0.198)
        assert state.i_best == 1 and state.n == 0

    # checked before gamma0 / delta, and with no MA model to carry gamma0
    @pytest.mark.parametrize("n_models,kwargs", [(2, {"delta": 0.0}), (0, {"gamma0": 1.5}),
                                                 (0, {"gamma0": -0.1})])
    def test_bad_weight_parameters_rejected(self, n_models, kwargs):
        with pytest.raises(ValueError, match="need gamma0 in"):
            init_averager(pv(1.0), n_models, **kwargs)

    @pytest.mark.parametrize("interval", ["k_m", "k_v", "k_w"])
    def test_intervals_below_one_rejected(self, interval):
        with pytest.raises(ValueError, match="k_m, k_v and k_w"):
            init_averager(pv(1.0), 2, **{interval: 0})

    def test_weight_event_best1_clamps_and_copies(self):
        state = init_averager(pv(1.0), 2, gamma0=0.99, delta=5.0, k_m=10**9, k_v=10**9,
                              k_w=1)
        state.ma = [pv(7.0), pv(3.0)]
        state.i_best = 1
        ama_step(state, pv(0.0), 1, lambda: None, steer(0))
        assert state.gammas[0] == 1.0                   # min(1, 4.95)
        assert np.isclose(state.gammas[1], 0.2)         # gamma1 / delta
        assert state.ma[1][0] == 7.0             # copy of the best
        assert state.i_best == 2
        assert state.val[0].mean == state.val[1].mean == 0.0 and state.n == 0

    def test_weight_event_best2_divides_and_copies(self):
        state = init_averager(pv(1.0), 2, gamma0=0.99, delta=5.0, k_m=10**9, k_v=10**9,
                              k_w=1)
        state.ma = [pv(7.0), pv(3.0)]
        state.i_best = 2
        ama_step(state, pv(0.0), 1, lambda: None, steer(0))
        assert np.isclose(state.gammas[0], 0.198)
        assert np.isclose(state.gammas[1], 0.0396)
        assert state.ma[0][0] == 3.0
        assert state.i_best == 1

    def test_window_event_without_adapt_keeps_means_weights_and_models(self):
        state = init_averager(pv(1.0), 2, gamma0=0.99, delta=5.0, k_m=10**9, k_v=1,
                              k_w=2, adapt=False)
        state.ma = [pv(7.0), pv(3.0)]
        evaluate = lambda params, batch: float(params[0])
        for k in (1, 2, 3, 4):
            ama_step(state, pv(0.5), k, lambda: "batch", evaluate)
        # k = 2 and 4 are k_w boundaries: no reset, no weight move, no copy
        assert state.n == 4
        assert (state.val[0].mean, state.val[1].mean, state.val_sgd.mean) == (7.0, 3.0, 0.5)
        assert state.gammas == [0.99, 0.99 / 5.0]
        assert (state.ma[0][0], state.ma[1][0]) == (7.0, 3.0)
        assert state.i_best == 1
        # one and zero models always reset at k_w (they have no weights to move)
        for n_models in (0, 1):
            other = init_averager(pv(1.0), n_models, k_m=10**9, k_v=1, k_w=2)
            ama_step(other, pv(0.5), 1, lambda: "batch", evaluate)
            assert other.n == 1
            ama_step(other, pv(0.5), 2, lambda: "batch", evaluate)
            assert other.n == 0 and other.gammas == [0.99] * n_models

    def test_validation_folds_running_means(self):
        state = init_averager(pv(0.0), 2, k_m=10**9, k_v=1, k_w=10**9)
        state.ma = [pv(1.0), pv(0.0)]
        evaluate = lambda params, batch: float(params[0])
        ama_step(state, pv(0.5), 1, lambda: "batch", evaluate)
        assert (state.val[0].mean, state.val[1].mean, state.val_sgd.mean,
                state.n) == (1.0, 0.0, 0.5, 1)
        assert state.i_best == 1
        state.ma = [pv(0.0), pv(1.0)]
        ama_step(state, pv(0.5), 2, lambda: "batch", evaluate)
        assert (state.val[0].mean, state.val[1].mean, state.n) == (0.5, 0.5, 2)
        # exact tie retains the previous selection
        assert state.i_best == 1
        ama_step(state, pv(0.5), 3, lambda: "batch", evaluate)
        assert state.i_best == 2
        assert np.isclose(state.sigma(), state.val[1].mean - state.val_sgd.mean)

    def test_empty_validation_source_skips_with_warning(self):
        state = init_averager(pv(0.0), 2, k_m=10**9, k_v=1, k_w=10**9)
        ama_step(state, pv(0.5), 1, lambda: None, steer(0))
        assert state.n == 0
        assert state.skipped_validations == 1

    def test_ma_updates_only_on_km_boundary(self):
        state = init_averager(pv(0.0), 2, gamma0=0.5, k_m=3, k_v=10**9, k_w=10**9)
        for k in (1, 2):
            ama_step(state, pv(1.0), k, lambda: None, steer(0))
        assert state.ma[0][0] == 0.0
        ama_step(state, pv(1.0), 3, lambda: None, steer(0))
        assert state.ma[0][0] == 0.5

    def test_gamma_ratio_invariant_after_every_weight_event(self):
        rng = np.random.default_rng(4)
        state = init_averager(pv(0.0), 2, gamma0=0.99, delta=5.0, k_m=2, k_v=4, k_w=8)
        ev = lambda params, batch: float(rng.random())
        for k in range(1, 200):
            ama_step(state, pv(float(rng.standard_normal())), k,
                     lambda: "b", ev)
            if k % 8 == 0:
                assert np.isclose(state.gammas[1], state.gammas[0] / state.delta)
            assert 0.0 <= state.gammas[0] <= 1.0
            assert 0.0 <= state.gammas[1] <= 1.0

    def test_best_ma_returns_selected_model(self):
        state = init_averager(pv(0.0), 2)
        state.ma = [pv(1.0), pv(2.0)]
        state.i_best = 1
        assert best_ma(state)[0] == 1.0
        state.i_best = 2
        assert best_ma(state)[0] == 2.0


class TestEquivalences:
    def run_trajectory(self, make_ma, steps=200, seed=0, k_m=1):
        """Shared SGD trajectory; returns the MA model after each iteration."""
        rng = np.random.default_rng(seed)
        sgd = init_sgd(pv(*rng.standard_normal(3)), beta=0.9)
        ma_state = make_ma(sgd.theta)
        out = []
        for k in range(1, steps + 1):
            g = (0.7 * (sgd.theta - np.array([1.0, -1.0, 0.5]))
                 + 0.1 * rng.standard_normal(3))
            sgd_step(sgd, g, lr=0.05)
            ama_step(ma_state, sgd.theta, k, lambda: "b", lambda p, b: 0.0)
            out.append(ma_state.ma[0].copy())
        return np.array(out)

    def test_ama_with_delta_one_and_no_adapt_is_ema_bitwise(self):
        gamma0, k_m = 0.95, 4
        ema_traj = self.run_trajectory(lambda th: init_averager(th, 1, gamma0, k_m=k_m))
        ama_traj = self.run_trajectory(
            lambda th: init_averager(th, 2, gamma0=gamma0, delta=1.0, k_m=k_m, k_v=8,
                                     k_w=16, adapt=False))
        assert np.array_equal(ema_traj, ama_traj)

    def test_ema_gamma_zero_tracks_sgd_bitwise(self):
        rng = np.random.default_rng(1)
        sgd = init_sgd(pv(*rng.standard_normal(2)), beta=0.0)
        ema = init_averager(sgd.theta, 1, 0.0, k_m=1)
        for k in range(1, 100):
            g = rng.standard_normal(2)
            sgd_step(sgd, g, lr=0.03)
            ama_step(ema, sgd.theta, k, lambda: "b", lambda p, b: 0.0)
            assert np.array_equal(ema.ma[0], sgd.theta)


class TestCheckpoint:
    def test_sgd_ama_round_trip_resumes_bit_identically(self, tmp_path):
        rng = np.random.default_rng(9)
        sgd = init_sgd(pv(*rng.standard_normal(4)), beta=0.9)
        ama = init_averager(sgd.theta, 2, k_m=2, k_v=4, k_w=8)
        ev = lambda p, b: float(p[0])
        for k in range(1, 21):
            sgd_step(sgd, rng.standard_normal(4), lr=0.05)
            ama_step(ama, sgd.theta, k, lambda: "b", ev)
        path = tmp_path / "ckpt.npz"
        save_optimizer(path, sgd, ama)
        sgd2, ama2 = load_optimizer(path)
        follow = np.random.default_rng(77)
        grads = [follow.standard_normal(4) for _ in range(20)]
        for k in range(21, 41):
            g = grads[k - 21]
            sgd_step(sgd, g.copy(), lr=0.05)
            ama_step(ama, sgd.theta, k, lambda: "b", ev)
            sgd_step(sgd2, g.copy(), lr=0.05)
            ama_step(ama2, sgd2.theta, k, lambda: "b", ev)
        assert np.array_equal(sgd.theta, sgd2.theta)
        assert np.array_equal(ama.ma[0], ama2.ma[0])
        assert np.array_equal(ama.ma[1], ama2.ma[1])
        assert (ama.gammas, ama.i_best, ama.n) == (ama2.gammas, ama2.i_best, ama2.n)

    def test_adam_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        adam = init_adam(pv(*rng.standard_normal(3)))
        for _ in range(10):
            adam_step(adam, rng.standard_normal(3), lr=0.01)
        path = tmp_path / "adam.npz"
        save_optimizer(path, adam)
        adam2, ma = load_optimizer(path)
        assert ma is None
        g = rng.standard_normal(3)
        adam_step(adam, g.copy(), lr=0.01)
        adam_step(adam2, g.copy(), lr=0.01)
        assert np.array_equal(adam.theta, adam2.theta)


class TestCostAccounting:
    def test_event_counts_over_interval_window(self):
        k_m, k_v, k_w = 10, 20, 40
        window = 40
        state = init_averager(pv(0.0), 2, k_m=k_m, k_v=k_v, k_w=k_w)
        costs = CostCounter()
        for k in range(1, window + 1):
            ama_step(state, pv(1.0), k, lambda: "b", lambda p, b: 0.0, costs)
        assert costs.update == 2 * (window // k_m)
        assert costs.forward == 3 * (window // k_v)
