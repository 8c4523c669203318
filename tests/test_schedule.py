"""Plateau-detection semantics, the MALR condition gates, and cyclic rates."""

import math

import numpy as np
import pytest

from oclopt.schedule import cyclic_lr, init_schedule, malr_update, rwp_update


class TestRwp:
    def test_strictly_improving_never_reduces(self):
        st = init_schedule("rwp", alpha0=0.1, k_r=10)
        for k in range(1, 200):
            rwp_update(st, val_perf=0.01 * k, k=k)
        assert st.alpha == 0.1 and st.n_cuts == 0

    def test_plateau_fires_exactly_at_best_plus_kr(self):
        st = init_schedule("rwp", alpha0=0.1, k_r=10)
        rwp_update(st, 0.5, k=3)          # becomes the best
        for k in range(4, 13):
            rwp_update(st, 0.5, k=k)      # no improvement
            assert st.n_cuts == 0
        rwp_update(st, 0.5, k=13)          # 13 - 3 = k_r
        assert st.n_cuts == 1
        assert np.isclose(st.alpha, 0.05)

    def test_flat_then_improving_trace_matches_counter_oracle(self):
        # independent counter walk over the same trace
        trace = [0.3] * 25 + [0.35] * 5 + [0.35] * 40
        k_r, beta = 12, 0.5
        st = init_schedule("rwp", alpha0=0.2, k_r=k_r, beta_lr=beta)
        cuts = []
        for k, v in enumerate(trace, start=1):
            before = st.n_cuts
            rwp_update(st, v, k=k)
            if st.n_cuts > before:
                cuts.append(k)
        # oracle: replay with an explicit last-improvement pointer
        best, last, alpha, expected = -np.inf, 0, 0.2, []
        for k, v in enumerate(trace, start=1):
            if v > best + 1e-6:
                best, last = v, k
            elif k - last >= k_r:
                alpha *= beta
                best, last = v, k
                expected.append(k)
        assert cuts == expected
        assert np.isclose(st.alpha, 0.2 * beta ** len(expected))

    def test_alpha_monotone_and_exact_factor(self):
        st = init_schedule("rwp", alpha0=1.0, k_r=5, beta_lr=0.5)
        alphas = []
        for k in range(1, 100):
            rwp_update(st, 0.0, k=k)
            alphas.append(st.alpha)
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))
        assert st.alpha == 0.5 ** st.n_cuts


class TestMalr:
    def test_c3_vetoes_under_threshold(self):
        # sigma never exceeds epsilon: no reduction regardless of plateaus
        st = init_schedule("malr", alpha0=0.1, k_r=5, epsilon=0.03)
        for k in range(1, 100):
            malr_update(st, val_perf=0.5, sigma_k=0.01, k=k)
        assert st.alpha == 0.1 and st.n_cuts == 0

    def test_c2_vetoes_while_sigma_rises(self):
        st = init_schedule("malr", alpha0=0.1, k_r=5, epsilon=0.03)
        for k in range(1, 50):
            malr_update(st, val_perf=0.5, sigma_k=0.05 + 0.01 * k, k=k)
        assert st.n_cuts == 0

    def test_all_conditions_fire_reduction(self):
        st = init_schedule("malr", alpha0=0.1, k_r=5, epsilon=0.03)
        for k in range(1, 30):
            malr_update(st, val_perf=0.5, sigma_k=0.05, k=k)
        assert st.n_cuts >= 1
        assert st.alpha < 0.1

    def test_three_predicate_replay_oracle(self):
        rng = np.random.default_rng(0)
        vals = np.cumsum(rng.uniform(-0.01, 0.012, 300))
        sigs = 0.05 + 0.03 * np.sin(np.arange(300) / 15.0)
        k_r, eps, tol = 20, 0.04, 1e-6
        st = init_schedule("malr", alpha0=0.5, k_r=k_r, epsilon=eps)
        cuts = []
        for k, (v, s) in enumerate(zip(vals, sigs), start=1):
            before = st.n_cuts
            malr_update(st, v, s, k=k)
            if st.n_cuts > before:
                cuts.append(k)
        # independent three-predicate replay
        best_v = best_s = -np.inf
        last_v = last_s = 0
        expected = []
        for k, (v, s) in enumerate(zip(vals, sigs), start=1):
            if v > best_v + tol:
                best_v, last_v = v, k
            if s > best_s + tol:
                best_s, last_s = s, k
            if k - last_v >= k_r and k - last_s >= k_r and s > eps:
                expected.append(k)
                best_v, best_s = v, s
                last_v = last_s = k
        assert cuts == expected

    def test_disabled_conditions_reduce_to_rwp(self):
        trace = [(0.4, 0.0)] * 40
        a = init_schedule("malr", alpha0=0.1, k_r=7, use_c2=False, use_c3=False)
        b = init_schedule("rwp", alpha0=0.1, k_r=7)
        for k, (v, s) in enumerate(trace, start=1):
            malr_update(a, v, s, k=k)
            rwp_update(b, v, k=k)
        assert a.alpha == b.alpha and a.n_cuts == b.n_cuts

    def test_rwp_anneals_unboundedly_while_c3_floors_malr(self):
        # engineered trace keeps sigma below epsilon: RWP shrinks below any
        # threshold, MALR stays at its initial rate
        rwp = init_schedule("rwp", alpha0=0.1, k_r=3)
        malr = init_schedule("malr", alpha0=0.1, k_r=3, epsilon=0.03)
        for k in range(1, 400):
            rwp_update(rwp, 0.2, k=k)
            malr_update(malr, 0.2, 0.005, k=k)
        assert rwp.alpha < 1e-8
        assert malr.alpha == 0.1

    def test_determinism_pure_function_of_trace(self):
        rng = np.random.default_rng(3)
        trace = [(float(rng.random()), float(rng.random() * 0.1)) for _ in range(200)]
        runs = []
        for _ in range(2):
            st = init_schedule("malr", alpha0=0.1, k_r=9)
            hist = []
            for k, (v, s) in enumerate(trace, start=1):
                malr_update(st, v, s, k=k)
                hist.append(st.alpha)
            runs.append(hist)
        assert runs[0] == runs[1]


class TestCyclic:
    def test_boundary_values(self):
        assert cyclic_lr(0.1, 0, 100) == 0.1
        assert np.isclose(cyclic_lr(0.1, 50, 100), 0.05)

    def test_matches_closed_form_at_sampled_points(self):
        alpha0, T = 0.3, 128
        for k in (0, 1, 13, 40, 64, 99, 100, 120, 126, 127):
            expected = 0.5 * alpha0 * (1 + math.cos(math.pi * k / T))
            assert np.isclose(cyclic_lr(alpha0, k, T), expected, rtol=1e-15)

    def test_approaches_zero_at_task_end(self):
        assert cyclic_lr(0.1, 999, 1000) < 1e-5
        assert cyclic_lr(0.1, 999, 1000) > 0.0

    def test_out_of_task_rejected(self):
        with pytest.raises(ValueError):
            cyclic_lr(0.1, 100, 100)
        with pytest.raises(ValueError):
            cyclic_lr(0.1, 0, 0)
