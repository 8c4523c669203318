"""Plateau-detection semantics, the MALR condition gates, cyclic rates, and
every rate controller against the rate code it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oclopt.harness import Run, ScheduleConfig, apply_overrides, preset
from oclopt.schedule import controller
from tests.oracles import _TOL, ReferenceRate

NAN = float("nan")


def rate(kind, period=0, **keys):
    """The controller of a schedule block of the given kind and keys."""
    return controller(ScheduleConfig(kind=kind, **keys), period)


def cyclic(alpha0, k_within_task, task_length):
    """The cyclic rate at a position within a task."""
    return rate("cyclic", task_length, alpha0=alpha0).alpha(k_within_task + 1)


class TestRwp:
    def test_strictly_improving_never_reduces(self):
        st = rate("rwp", alpha0=0.1, k_r=10)
        for k in range(1, 200):
            st.observe(k, 0.01 * k, NAN)
        assert st.alpha(k) == 0.1 and st.n_cuts == 0

    def test_plateau_fires_exactly_at_best_plus_kr(self):
        st = rate("rwp", alpha0=0.1, k_r=10)
        st.observe(3, 0.5, NAN)          # becomes the best
        for k in range(4, 13):
            st.observe(k, 0.5, NAN)      # no improvement
            assert st.n_cuts == 0
        st.observe(13, 0.5, NAN)          # 13 - 3 = k_r
        assert st.n_cuts == 1
        assert np.isclose(st.alpha(13), 0.05)

    def test_flat_then_improving_trace_matches_counter_oracle(self):
        # independent counter walk over the same trace
        trace = [0.3] * 25 + [0.35] * 5 + [0.35] * 40
        k_r, beta = 12, 0.5
        st = rate("rwp", alpha0=0.2, k_r=k_r, beta_lr=beta)
        cuts = []
        for k, v in enumerate(trace, start=1):
            before = st.n_cuts
            st.observe(k, v, NAN)
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
        assert np.isclose(st.alpha(k), 0.2 * beta ** len(expected))

    def test_alpha_monotone_and_exact_factor(self):
        st = rate("rwp", alpha0=1.0, k_r=5, beta_lr=0.5)
        alphas = []
        for k in range(1, 100):
            st.observe(k, 0.0, NAN)
            alphas.append(st.alpha(k))
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))
        assert st.alpha(k) == 0.5 ** st.n_cuts

    def test_a_cut_that_would_reach_zero_is_skipped(self):
        # a fourth cut by 1e-100 underflows to 0.0, a rate no step can take
        st = rate("rwp", alpha0=0.05, k_r=1, beta_lr=1e-100)
        for k in range(1, 10):
            st.observe(k, 0.0, NAN)
        assert st.n_cuts == 3 and 0 < st.alpha(k) < 1e-300


class TestMalr:
    def test_c3_vetoes_under_threshold(self):
        # sigma never exceeds epsilon: no reduction regardless of plateaus
        st = rate("malr", alpha0=0.1, k_r=5, epsilon=0.03)
        for k in range(1, 100):
            st.observe(k, 0.5, 0.01)
        assert st.alpha(k) == 0.1 and st.n_cuts == 0

    def test_c2_vetoes_while_sigma_rises(self):
        st = rate("malr", alpha0=0.1, k_r=5, epsilon=0.03)
        for k in range(1, 50):
            st.observe(k, 0.5, 0.05 + 0.01 * k)
        assert st.n_cuts == 0

    def test_all_conditions_fire_reduction(self):
        st = rate("malr", alpha0=0.1, k_r=5, epsilon=0.03)
        for k in range(1, 30):
            st.observe(k, 0.5, 0.05)
        assert st.n_cuts >= 1
        assert st.alpha(k) < 0.1

    def test_three_predicate_replay_oracle(self):
        rng = np.random.default_rng(0)
        vals = np.cumsum(rng.uniform(-0.01, 0.012, 300))
        sigs = 0.05 + 0.03 * np.sin(np.arange(300) / 15.0)
        k_r, eps, tol = 20, 0.04, 1e-6
        st = rate("malr", alpha0=0.5, k_r=k_r, epsilon=eps)
        cuts = []
        for k, (v, s) in enumerate(zip(vals, sigs), start=1):
            before = st.n_cuts
            st.observe(k, v, s)
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
        a = rate("malr", alpha0=0.1, k_r=7, use_c2=False, use_c3=False)
        b = rate("rwp", alpha0=0.1, k_r=7)
        for k, (v, s) in enumerate(trace, start=1):
            a.observe(k, v, s)
            b.observe(k, v, s)
        assert a.alpha(k) == b.alpha(k) and a.n_cuts == b.n_cuts

    def test_rwp_anneals_unboundedly_while_c3_floors_malr(self):
        # engineered trace keeps sigma below epsilon: RWP shrinks below any
        # threshold, MALR stays at its initial rate
        rwp = rate("rwp", alpha0=0.1, k_r=3)
        malr = rate("malr", alpha0=0.1, k_r=3, epsilon=0.03)
        for k in range(1, 400):
            rwp.observe(k, 0.2, NAN)
            malr.observe(k, 0.2, 0.005)
        assert rwp.alpha(k) < 1e-8
        assert malr.alpha(k) == 0.1

    def test_determinism_pure_function_of_trace(self):
        rng = np.random.default_rng(3)
        trace = [(float(rng.random()), float(rng.random() * 0.1)) for _ in range(200)]
        runs = []
        for _ in range(2):
            st = rate("malr", alpha0=0.1, k_r=9)
            hist = []
            for k, (v, s) in enumerate(trace, start=1):
                st.observe(k, v, s)
                hist.append(st.alpha(k))
            runs.append(hist)
        assert runs[0] == runs[1]


class TestCyclic:
    def test_boundary_values(self):
        assert cyclic(0.1, 0, 100) == 0.1
        assert np.isclose(cyclic(0.1, 50, 100), 0.05)

    def test_matches_closed_form_at_sampled_points(self):
        alpha0, T = 0.3, 128
        for k in (0, 1, 13, 40, 64, 99, 100, 120, 126, 127):
            expected = 0.5 * alpha0 * (1 + math.cos(math.pi * k / T))
            assert np.isclose(cyclic(alpha0, k, T), expected, rtol=1e-15)

    def test_approaches_zero_at_task_end(self):
        assert cyclic(0.1, 999, 1000) < 1e-5
        assert cyclic(0.1, 999, 1000) > 0.0

    def test_out_of_task_rejected(self):
        # the controller takes each iteration's position within its task, so
        # no iteration lies outside one: iteration T + 1 starts the next task.
        # A run without a task length to take it from is what is rejected.
        assert cyclic(0.1, 100, 100) == cyclic(0.1, 0, 100) == 0.1
        tasks = apply_overrides(preset("task-cyclic"), {"variants": None,
                                                         "optimizer.averaging": "none",
                                                         "schedule.kind": "cyclic"})
        with pytest.raises(ValueError, match="cyclic schedule requires a task-aware"):
            Run(apply_overrides(tasks, {"stream.kind": "rotating-gaussian"}), 0)
        with pytest.raises(ValueError, match="task_length must be >= 1"):
            Run(apply_overrides(tasks, {"stream.task_length": 0}), 0)


@st.composite
def schedule_blocks(draw):
    """A valid schedule block of any kind."""
    return ScheduleConfig(
        kind=draw(st.sampled_from(["constant", "cyclic", "trace", "rwp", "malr"])),
        alpha0=draw(st.floats(1e-4, 10.0)), beta_lr=draw(st.floats(0.01, 0.99)),
        k_r=draw(st.integers(1, 40)), epsilon=draw(st.floats(-0.05, 0.1)),
        use_c2=draw(st.booleans()), use_c3=draw(st.booleans()),
        lr_trace=draw(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=8)))


# (iterations since the last observation, change of val_perf, sigma): val_perf
# repeats, moves by less than, exactly or just over _TOL, or jumps; sigma
# repeats or is NaN
OBSERVATIONS = st.lists(st.tuples(
    st.integers(1, 25),
    st.sampled_from([0.0, 0.5 * _TOL, _TOL, 2 * _TOL, -_TOL]) | st.floats(-0.05, 0.05),
    st.sampled_from([0.0, 0.03, 0.05, NAN]) | st.floats(-0.1, 0.2)), max_size=40)


class TestAgainstReference:
    # a cyclic task of at least 2e6 iterations reaches the 1e-12 floor at its
    # end; a trace of at most 8 entries is clamped from iteration 9 on
    @settings(max_examples=150, deadline=None)
    @given(s=schedule_blocks(), period=st.integers(1, 50) | st.integers(2 * 10**6, 10**9),
           observations=OBSERVATIONS, far=st.lists(st.integers(1, 4 * 10**9), max_size=5))
    @example(s=ScheduleConfig(kind="cyclic", alpha0=0.1), period=10**7, observations=[],
             far=[]).via("the cyclic floor")
    @example(s=ScheduleConfig(kind="trace", lr_trace=[0.1, 0.2]), period=1,
             observations=[(5, 0.0, 0.0)], far=[]).via("the trace clamp")
    @example(s=ScheduleConfig(kind="rwp", k_r=2), period=1, far=[],
             observations=[(1, 0.0, 0.0), (2, -0.2, 0.0), (1, 0.1, 0.0), (1, 0.0, 0.0)],
             ).via("a cut at 0.3 makes 0.4 an improvement")
    def test_rates_and_rows_equal_the_reference(self, s, period, observations, far):
        ctrl, ref = controller(s, period), ReferenceRate(s, period)
        k, val = 0, 0.5
        for gap, step, sigma in observations:
            for j in range(k + 1, k + gap + 1):
                assert ctrl.alpha(j) == ref.alpha(j)
            k, val = k + gap, val + step
            assert repr(ctrl.observe(k, val, sigma)) == repr(ref.observe(k, val, sigma))
        for j in far + [m * period + d for m in (1, 2) for d in (-1, 0, 1)]:
            assert ctrl.alpha(max(j, 1)) == ref.alpha(max(j, 1))
