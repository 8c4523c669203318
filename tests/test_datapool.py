"""Reservoir behavior, replay sampling distributions, holdout disjointness,
and planned draws against per-call references."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oclopt import datapool
from oclopt import rng as rngmod
from oclopt.datapool import (DataPool, EmptyPoolError, Minibatch, sample_mixed_replay,
                             sample_pure_replay, update)
from oclopt.harness import (ExperimentConfig, Run, apply_overrides, expand_variants, preset,
                            run_protocol_step)
from oclopt.rng import BLOCK, substream
from oclopt.stream import HorizonError, RotatingGaussianSpec, StreamSpec
from tests.oracles import (ROOM, ReferencePool, consecutive_draws, integrate, offer_step,
                           per_call_pure_replay, same_items, scan_mixed_replay,
                           step_batch, step_coins, stored_items)


def offer_items(pool, n, t=1, d=2):
    xs = np.arange(n * d, dtype=float).reshape(n, d) + 1000 * t
    offer_step(pool, t, xs, np.arange(n, dtype=np.int64))


def offer_none_of(pool, t, current):
    """Offer the pool none of the rows of step t's batch ``current`` (all
    held out), so that it stands at the step for a mixed draw."""
    offer_step(pool, t, current.inputs, current.labels, np.zeros(len(current.labels), bool))


def make_items(t, n=10, d=2, seed=0):
    rng = np.random.default_rng(seed + t)
    return rng.standard_normal((n, d)), rng.integers(0, 3, n)


def make_batch(t, n=10, d=2, seed=0):
    return Minibatch(*make_items(t, n, d, seed))


def small_stream(n=10, horizon=30, seed=0):
    rot = RotatingGaussianSpec(n_classes=3, mean_radius=2.0, angular_velocity=0.01,
                               noise_std=0.4)
    return StreamSpec(kind="rotating-gaussian", d_in=2, batch_size=n, horizon=horizon,
                      seed=seed, rotating=rot)


class TestStorage:
    @pytest.mark.parametrize("capacity", [None, True, 1.0, 2.5, 0, -1])
    def test_capacity_is_an_integer_of_at_least_one(self, capacity):
        with pytest.raises(ValueError, match="capacity must be an integer >= 1"):
            DataPool(capacity)

    def test_each_pool_reserves_its_arrays_once(self, monkeypatch):
        # the unlimited training pool and the holdout each reserve their three
        # arrays for the stream's item bound at their first item; no array is
        # replaced as the pools grow
        reserve, reserved = datapool._reserve, []

        def counted(shape, dtype):
            reserved.append(reserve(shape, dtype))
            return reserved[-1]

        monkeypatch.setattr(datapool, "_reserve", counted)
        cfg = dict(expand_variants(preset("main-comparison")))["ama-malr"]
        cfg = apply_overrides(cfg, {"stream.horizon": 600})
        assert cfg.replay.capacity is None
        run = Run(cfg, 0)
        for t in range(1, 601):
            assert run.step(t)
        arrays = [getattr(pool, name) for pool in (run.pool, run.holdout)
                  for name in ("_xs", "_ys", "_arrival")]
        assert len(reserved) == 6
        assert all(any(a is r for r in reserved) for a in arrays)
        assert {len(a) for a in reserved} == {600 * cfg.stream.batch_size}
        assert run.pool.size + run.holdout.size == 600 * cfg.stream.batch_size


class TestReservoir:
    def test_unlimited_pool_keeps_everything(self):
        # a capacity of exactly the items offered is never exceeded
        pool, holdout = DataPool(capacity=100, seed=0), DataPool(ROOM)
        spec, served = small_stream(horizon=10), datapool.UNSERVED
        for t in range(1, 11):
            served = integrate(pool, holdout, spec, t, served)
        assert pool.size == pool.seen_count == 100

    def test_capacity_clamp(self):
        pool = DataPool(capacity=7, seed=0)
        offer_items(pool, 50)
        assert pool.size == 7
        assert pool.seen_count == 50

    def test_size_is_min_seen_capacity(self):
        pool = DataPool(capacity=20, seed=1)
        offer_items(pool, 12)
        assert pool.size == 12
        offer_items(pool, 30, t=2)
        assert pool.size == 20

    def test_inclusion_probability_monte_carlo(self):
        # capacity 10, offer 100 items: each should be kept with p = 0.1;
        # check every item's inclusion frequency within 3 standard errors
        trials = 20000
        n, cap = 100, 10
        counts = np.zeros(n)
        for s in range(trials):
            pool = DataPool(capacity=cap, seed=s)
            offer_items(pool, n)
            _, ys, _ = stored_items(pool)
            counts[ys] += 1
        p = cap / n
        se = np.sqrt(p * (1 - p) / trials)
        freq = counts / trials
        assert np.all(np.abs(freq - p) <= 3.33 * se), (
            f"worst deviation {np.abs(freq - p).max() / se:.2f} se")

    def test_inclusion_chi_square(self):
        trials = 4000
        n, cap = 50, 10
        counts = np.zeros(n)
        for s in range(trials):
            pool = DataPool(capacity=cap, seed=10_000 + s)
            offer_items(pool, n)
            _, ys, _ = stored_items(pool)
            counts[ys] += 1
        expected = trials * cap / n
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # negative correlation between inclusions makes this conservative
        assert chi2 < stats.chi2.ppf(0.99, df=n - 1)


class TestHoldoutRouting:
    def test_disjoint_items(self):
        # features are continuous draws, so a stored row's bytes name its item
        pool = DataPool(ROOM, seed=3)
        holdout = DataPool(ROOM, seed=3, holdout_fraction=0.2)
        spec, served = small_stream(n=20, horizon=29, seed=3), datapool.UNSERVED
        for t in range(1, 30):
            served = integrate(pool, holdout, spec, t, served)
        train_items, hold_items = ({row.tobytes() for row in stored_items(p)[0]}
                                   for p in (pool, holdout))
        assert train_items.isdisjoint(hold_items)
        assert len(train_items) + len(hold_items) == 29 * 20

    def test_zero_fraction_routes_everything_to_training(self):
        pool = DataPool(ROOM, seed=3)
        holdout = DataPool(ROOM, seed=3, holdout_fraction=0.0)
        integrate(pool, holdout, small_stream(), 1)
        assert holdout.size == 0 and pool.size == 10

    def test_out_of_order_step_rejected(self):
        pool, holdout, spec = DataPool(ROOM, seed=0), DataPool(ROOM), small_stream()
        integrate(pool, holdout, spec, 5)
        with pytest.raises(ValueError):
            update(pool, holdout, spec, 5)

    def test_a_step_past_the_horizon_raises_horizon_error(self):
        # fresh pools, and pools that took every step of the stream
        spec = small_stream(horizon=5)
        with pytest.raises(HorizonError, match="step 6 outside"):
            update(DataPool(ROOM), DataPool(ROOM, holdout_fraction=0.2), spec, 6)
        pool, holdout = DataPool(ROOM), DataPool(ROOM, holdout_fraction=0.2)
        served = datapool.UNSERVED
        for t in range(1, 6):
            served = integrate(pool, holdout, spec, t, served)
        with pytest.raises(HorizonError, match="step 6 outside"):
            update(pool, holdout, spec, 6)
        assert pool.last_step == holdout.last_step == 5


class TestPureReplay:
    def test_singleton_pool_repeats(self):
        pool = DataPool(ROOM, seed=0)
        offer_items(pool, 1)
        mb = sample_pure_replay(pool, 6)
        assert np.all(mb.labels == mb.labels[0])
        assert len(mb.inputs) == 6

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPoolError):
            sample_pure_replay(DataPool(ROOM, seed=0), 4)

    def test_uniform_over_items_chi_square(self):
        # frequency per originating step converges to n_t / sum(n_t)
        pool = DataPool(ROOM, seed=5)
        sizes = {1: 10, 2: 30, 3: 60}
        for t, n in sizes.items():
            offer_step(pool, t, np.full((n, 1), float(t)), np.full(n, t, dtype=np.int64))
        draws = 10_000
        mb = sample_pure_replay(pool, draws)
        counts = np.array([(mb.labels == t).sum() for t in sizes])
        expected = draws * np.array(list(sizes.values())) / 100
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=2)

    def test_marginal_total_variation(self):
        # empirical item distribution within 0.02 TV of uniform at 1e5 draws
        pool = DataPool(ROOM, seed=9)
        offer_items(pool, 100)
        draws = 100_000
        mb = sample_pure_replay(pool, draws)
        counts = np.bincount(mb.labels.astype(int), minlength=100)
        tv = 0.5 * float(np.abs(counts / draws - 0.01).sum())
        assert tv < 0.02

    def test_full_capacity_equals_unlimited(self):
        limited = DataPool(capacity=100, seed=4)
        unlimited = DataPool(capacity=ROOM, seed=4)
        offer_items(limited, 100)
        offer_items(unlimited, 100)
        a = sample_pure_replay(limited, 50)
        b = sample_pure_replay(unlimited, 50)
        assert np.array_equal(a.inputs, b.inputs)


class TestMixedReplay:
    def test_no_history_falls_back_to_current(self):
        pool = DataPool(ROOM, seed=0)
        current = make_batch(1)
        offer_none_of(pool, 1, current)
        mb = sample_mixed_replay(pool, 8)
        assert len(mb.inputs) == 8
        # every item comes from the current batch
        assert all(any(np.array_equal(x, c) for c in current.inputs) for x in mb.inputs)

    def test_odd_batch_size_rejected(self):
        pool = DataPool(ROOM, seed=0)
        with pytest.raises(ValueError):
            sample_mixed_replay(pool, 7)

    def test_half_and_half_counts_exact(self):
        pool = DataPool(ROOM, seed=1)
        for t in range(1, 5):
            offer_step(pool, t, np.full((10, 1), float(t)), np.full(10, t, dtype=np.int64))
        current = Minibatch(np.full((10, 1), 5.0), np.full(10, 5, dtype=np.int64))
        offer_none_of(pool, 5, current)
        # 200 minibatches, equal to 200 calls with count=1 (TestJoinedDraws)
        labels = sample_mixed_replay(pool, 10, count=200).labels.reshape(200, 10)
        assert ((labels == 5).sum(1) == 5).all()
        assert ((labels < 5).sum(1) == 5).all()

    def test_window_restricts_history(self):
        pool = DataPool(ROOM, seed=1)
        for t in range(1, 5):
            offer_step(pool, t, np.full((10, 1), float(t)), np.full(10, t, dtype=np.int64))
        current = Minibatch(np.full((4, 1), 5.0), np.full(4, 5, dtype=np.int64))
        offer_none_of(pool, 5, current)
        mb = sample_mixed_replay(pool, 40, window=2)
        hist = mb.labels[mb.labels != 5]
        assert set(np.unique(hist)) <= {3, 4}

    def test_full_window_covers_all_past(self):
        pool = DataPool(ROOM, seed=2)
        for t in range(1, 4):
            offer_step(pool, t, np.full((5, 1), float(t)), np.full(5, t, dtype=np.int64))
        current = Minibatch(np.full((5, 1), 4.0), np.full(5, 4, dtype=np.int64))
        offer_none_of(pool, 4, current)
        mb = sample_mixed_replay(pool, 6, count=100)
        assert set(np.unique(mb.labels[mb.labels != 4])) == {1, 2, 3}

    def test_a_pool_offered_nothing_raises(self):
        # the current step is the pool's last offered step, and a pool that
        # was never offered a step has no current batch
        with pytest.raises(ValueError, match="last offered step 0"):
            sample_mixed_replay(DataPool(ROOM, seed=0), 4)


class TestMixedReplayMatchesScan:
    # Offers of a random subset of each step's batch (the rest held out) at
    # increasing steps into unlimited pools (a capacity of the most items the
    # offers hold), whose arrivals stay sorted, and capped ones, which may
    # evict; a draw at the step of every offer, with that step's batch as
    # the current one.
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 50) | st.just(15 * 20), seed=st.integers(0, 2**16),
           offers=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 20)), max_size=15),
           data=st.data())
    def test_draws_equal_the_scan(self, capacity, seed, offers, data):
        pool = DataPool(capacity=capacity, seed=seed)
        t = 0
        for gap, n in offers:
            t += gap
            current = make_batch(t, n=n, seed=seed)
            keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="keep")
            offer_step(pool, t, current.inputs, current.labels, keep)
            window = data.draw(st.none() | st.integers(0, t + 3), label="window")
            m = data.draw(st.sampled_from([2, 4, 8]), label="m")
            g = copy.deepcopy(pool._replay_rng)
            mb = sample_mixed_replay(pool, m, window=window)
            xs, ys = scan_mixed_replay(pool, t, current, m, window, g)
            assert mb.inputs.tobytes() == xs.tobytes()
            assert mb.labels.tobytes() == ys.tobytes()
            np.testing.assert_equal(pool._replay_rng.bit_generator.state,
                                    g.bit_generator.state)


class TestJoinedDraws:
    # One call with count=p must equal p consecutive per-call reference
    # draws: unlimited pools (a capacity no offers reach) and capped ones
    # (which evict past their capacity), windowed draws, and the fallback
    # when the window holds nothing (an empty pool at t=1, or a window past
    # every stored item). Mixed replay draws at a step that offers nothing.
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 30) | st.just(8 * 12), seed=st.integers(0, 2**16),
           sizes=st.lists(st.integers(0, 12), max_size=8), mixed=st.booleans(),
           half=st.integers(1, 6), count=st.integers(1, 6),
           window=st.none() | st.integers(0, 4), n_current=st.integers(1, 5))
    def test_joined_draw_equals_consecutive_draws(self, capacity, seed, sizes, mixed, half,
                                                  count, window, n_current):
        pool = DataPool(capacity=capacity, seed=seed)
        for t, n in enumerate(sizes, start=1):
            offer_step(pool, t, *make_items(t, n=n, seed=seed))
        if not mixed and pool.size == 0:
            return
        g = copy.deepcopy(pool._replay_rng)
        m = 2 * half
        if mixed:
            t = len(sizes) + 1
            current = make_batch(t, n=n_current, seed=seed)
            offer_none_of(pool, t, current)
            block = sample_mixed_replay(pool, m, window=window, count=count)
            xs, ys = consecutive_draws(scan_mixed_replay, count, pool, t, current, m, window, g)
        else:
            block = sample_pure_replay(pool, m, count=count)
            xs, ys = consecutive_draws(per_call_pure_replay, count, pool, m, g)
        assert block.inputs.tobytes() == xs.tobytes()
        assert block.labels.tobytes() == ys.tobytes()
        np.testing.assert_equal(pool._replay_rng.bit_generator.state, g.bit_generator.state)


class TestOffer:
    # the pool matches the per-item reference after every offer, generators
    # included
    @staticmethod
    def assert_matches_reference(pool, ref):
        same_items(pool, ref)
        np.testing.assert_equal(pool._reservoir_rng.bit_generator.state,
                                ref.reservoir_rng.bit_generator.state)
        np.testing.assert_equal(pool._replay_rng.bit_generator.state,
                                ref.replay_rng.bit_generator.state)

    # an unlimited pool (a capacity no offers reach) only appends, a capped
    # one evicts
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 50) | st.just(20 * 40), seed=st.integers(0, 2**16),
           sizes=st.lists(st.integers(0, 40), max_size=20))
    def test_offer_matches_reference(self, capacity, seed, sizes):
        pool = DataPool(capacity=capacity, seed=seed)
        ref = ReferencePool(capacity, seed, room=max(sum(sizes), 1))
        for t, n in enumerate(sizes, start=1):
            xs, ys = make_items(t, n=n)
            offer_step(pool, t, xs, ys)
            ref.offer(xs, ys, t)
            self.assert_matches_reference(pool, ref)

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_repeated_slot_keeps_the_later_item(self, capacity):
        # the first offer fills the pool without a draw, so the second
        # block's slots are the first draws of the reservoir generator; take
        # the first seed whose block of 8 draws a kept slot twice
        draws = capacity + np.arange(8) + 1
        for seed in range(1000):
            slots = substream(seed, rngmod.RESERVOIR).integers(0, draws)
            kept = slots[slots < capacity]
            if len(kept) > len(set(kept)):
                break
        else:
            pytest.fail("no seed draws a kept slot twice")
        pool = DataPool(capacity=capacity, seed=seed)
        ref = ReferencePool(capacity, seed, room=capacity)
        for t, n in ((1, capacity), (2, 8)):
            xs, ys = make_items(t, n=n)
            offer_step(pool, t, xs, ys)
            ref.offer(xs, ys, t)
        self.assert_matches_reference(pool, ref)


class TestPlannedSteps:
    # Protocol steps take their pool draws and rows from plans made once per
    # block of steps. At every step both pools must equal per-item references
    # fed the same routed items, and the replay rows served to the step must
    # equal per-call reference draws over the training pool's reference,
    # from a generator keyed like the pool's. Pools that never evict (a
    # capacity of every item), that evict from the first blocks, and that
    # first evict partway through a later block (capacities of one to four
    # blocks of steps) take their rows from gathers of whole blocks (pure
    # replay) whose rows later steps overwrite, or gathers that stop at each
    # step whose offers overwrite a stored item (mixed replay). The first
    # examples draw pure and mixed replay from a pool that overwrites at
    # some steps of a block but not at others, which a step served by index
    # from a gather must tell apart. The next one's pool fills at step 200
    # and evicts from there on; the last one's single slot takes several
    # items at one step and is written again at most later steps.
    @example(capacity=60, holdout_fraction=0.1, mixed=True, window=None, iters=2, n=4, seed=3,
             horizon=300)
    @example(capacity=60, holdout_fraction=0.1, mixed=False, window=None, iters=2, n=4, seed=3,
             horizon=300)
    @example(capacity=400, holdout_fraction=0.0, mixed=False, window=None, iters=2, n=2, seed=5,
             horizon=600)
    @example(capacity=1, holdout_fraction=0.1, mixed=False, window=None, iters=3, n=6, seed=0,
             horizon=300)
    @settings(max_examples=25, deadline=None)
    @given(capacity=st.integers(1, 300) | st.integers(BLOCK, 4 * BLOCK) | st.just(600 * 6),
           holdout_fraction=st.sampled_from([0.0, 0.1, 0.5]),
           mixed=st.booleans(), window=st.none() | st.integers(0, 40),
           iters=st.integers(0, 5), n=st.integers(1, 6), seed=st.integers(0, 2**16),
           horizon=st.sampled_from([257, 513, 600]) | st.integers(1, 600))
    def test_planned_steps_equal_per_call_draws(self, capacity, holdout_fraction, mixed,
                                                window, iters, n, seed, horizon):
        m = 4
        cfg = apply_overrides(ExperimentConfig(), {
            "stream.horizon": horizon, "stream.batch_size": n, "iters_per_step": iters,
            "replay.mode": "mixed" if mixed else "pure", "replay.batch_size": m,
            "replay.window": window, "replay.capacity": capacity,
            "replay.holdout_fraction": holdout_fraction,
            "schedule.kind": "constant", "optimizer.averaging": "none"})
        run, rows = Run(cfg, seed), []
        run.predict = lambda inputs: None
        run.iterate = lambda x, target: rows.append((x, target))
        ref, ref_hold = (ReferencePool(cap, seed, room=horizon * n) for cap in (capacity, None))
        g = substream(seed, rngmod.REPLAY)
        for t in range(1, horizon + 1):
            run_protocol_step(run, t)
            batch = Minibatch(*step_batch(run.stream_spec, t, rngmod.STREAM))
            hold = step_coins(seed, t, n) < holdout_fraction
            for pool, keep in ((ref, ~hold), (ref_hold, hold)):
                pool.offer(batch.inputs[keep], batch.labels[keep], t)
            same_items(run.pool, ref)
            same_items(run.holdout, ref_hold)
            if iters == 0 or not (mixed or ref.size):
                assert rows == []
                continue
            if mixed:
                xs, ys = consecutive_draws(scan_mixed_replay, iters, ref, t, batch, m, window, g)
            else:
                xs, ys = consecutive_draws(per_call_pure_replay, iters, ref, m, g)
            # each iteration gets its rows and their labels' one-hot targets
            assert np.concatenate([x for x, _ in rows]).tobytes() == xs.tobytes()
            hot = np.eye(run.model_spec.n_classes)[ys]
            assert np.concatenate([target for _, target in rows]).tobytes() == hot.tobytes()
            rows.clear()

    # A replay draw serves the step the pool was offered last, from the offer
    # plan that holds that step, with the pool standing after the step's
    # offers. A draw after the next block is planned but before its first
    # step is taken, or from a pool that an older plan moved past the plan
    # it holds (one made for a stream of larger batches), would serve rows
    # of a step the pool does not stand at.
    @pytest.mark.parametrize("sample", [sample_pure_replay, sample_mixed_replay])
    def test_a_draw_before_the_planned_step_is_taken_raises(self, sample):
        spec, served = small_stream(horizon=2 * BLOCK), datapool.UNSERVED
        pool, holdout = DataPool(ROOM), DataPool(ROOM, holdout_fraction=0.1)
        for t in range(1, BLOCK + 1):
            served = integrate(pool, holdout, spec, t, served)
        update(pool, holdout, spec, BLOCK + 1)
        with pytest.raises(ValueError, match="needs the offers of the pool's last offered"):
            sample(pool, 4)

    @pytest.mark.parametrize("sample", [sample_pure_replay, sample_mixed_replay])
    def test_a_draw_from_a_pool_another_plan_moved_raises(self, sample):
        spec, served = small_stream(), datapool.UNSERVED
        pool, holdout = DataPool(ROOM), DataPool(ROOM)
        for t in range(1, 6):
            served = integrate(pool, holdout, spec, t, served)
        update(pool, holdout, small_stream(n=12), 6)
        datapool.advance(served, 6)
        with pytest.raises(ValueError, match="needs the offers of the pool's last offered"):
            sample(pool, 4)


class TestPlannedFolds:
    # Runs draw their validation minibatches once per block of steps, with
    # one bound per fold. Every fold must get what one
    # per_call_pure_replay(holdout, m, g) call per fold gives, at the same
    # holdout state, from a generator keyed like the run's; a skipped fold
    # (an empty holdout) draws nothing. A sparse holdout skips the first
    # folds, and one datum per step leaves some early pure-replay steps with
    # an empty training pool, which run no iterations. The plans stop at the
    # horizon, so both generators end in the same state. Seed 1 routes the
    # datum of steps 1-3 to a holdout of fraction 0.5; seed 3 routes none to a
    # holdout of fraction 0.01 until step 131.
    @example(mixed=False, holdout_fraction=0.5, iters=2, k_v=1, n=1, capacity=2400, seed=1,
             horizon=300)
    @example(mixed=False, holdout_fraction=0.01, iters=3, k_v=4, n=1, capacity=50, seed=3,
             horizon=600)
    @example(mixed=True, holdout_fraction=0.01, iters=1, k_v=3, n=1, capacity=2400, seed=3,
             horizon=257)
    @settings(max_examples=25, deadline=None)
    @given(mixed=st.booleans(), holdout_fraction=st.sampled_from([0.01, 0.1, 0.5]),
           iters=st.integers(1, 5), k_v=st.integers(1, 7), n=st.integers(1, 4),
           capacity=st.integers(1, 300) | st.just(600 * 4), seed=st.integers(0, 2**16),
           horizon=st.sampled_from([256, 257, 600]) | st.integers(1, 600))
    def test_planned_folds_equal_per_call_draws(self, mixed, holdout_fraction, iters, k_v, n,
                                                capacity, seed, horizon):
        m = 3
        cfg = apply_overrides(ExperimentConfig(), {
            "stream.horizon": horizon, "stream.batch_size": n, "iters_per_step": iters,
            "replay.mode": "mixed" if mixed else "pure", "replay.batch_size": 4,
            "replay.capacity": capacity, "replay.holdout_fraction": holdout_fraction,
            "val_batch_size": m, "optimizer.k_v": k_v, "schedule.kind": "constant",
            "optimizer.averaging": "none"})
        run, g, folds = Run(cfg, seed), substream(seed, rngmod.VALIDATION), []

        def iterate(x, target):
            run.k += 1
            if run.k % k_v == 0:
                got = run.sample_validation()
                want = per_call_pure_replay(run.holdout, m, g) if run.holdout.size else None
                folds.append(want is None)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.inputs.tobytes() == want[0].tobytes()
                    assert got.labels.tobytes() == want[1].tobytes()

        run.predict, run.iterate = (lambda inputs: None), iterate
        for t in range(1, horizon + 1):
            run_protocol_step(run, t)
        assert len(folds) == run.k // k_v
        np.testing.assert_equal(run.val_rng.bit_generator.state, g.bit_generator.state)

    def test_a_fold_missing_from_the_plan_raises(self):
        # drawing the fold on its own would shift every later fold's rows
        cfg = apply_overrides(ExperimentConfig(), {
            "stream.horizon": 20, "replay.holdout_fraction": 0.5, "schedule.kind": "constant"})
        run = Run(cfg, 0)
        for t in range(1, 11):
            assert run.step(t)
        assert run.holdout.size > 0
        state = run.val_rng.bit_generator.state
        first, bounds, rows = run.folds
        run.folds = (first, bounds[:0], rows)
        with pytest.raises(RuntimeError, match="not in the fold plan"):
            run.sample_validation()
        np.testing.assert_equal(run.val_rng.bit_generator.state, state)
