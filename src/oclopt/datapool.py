"""Accumulated training pool, holdout pool, reservoir storage, replay sampling.

The training pool stores every offered item up to ``capacity``; beyond that it
runs reservoir sampling (algorithm R), so after any prefix of insertions each
offered item is present with probability min(1, capacity / seen_count).
Every capacity is finite: an unlimited pool is offered no more items than its
capacity (a run gives its pools the stream's ``horizon * batch_size``). Storage
is reserved once, and the OS commits it as rows are written (see ``DataPool``).

New data is routed per datum: with probability ``holdout_fraction`` an item
goes to the holdout pool (online information-retention validation set), else
it is offered to the training pool. Routing coins come from a random-access
substream keyed by the arrival step, so the routing of any step can be
re-enumerated independently.

Every pool-side draw and row copy is planned. At the first step of a block
of ``BLOCK`` steps (those inside the horizon) ``update`` draws the block's
routing coins, which no pool keeps, and plans both pools' offers: every
reservoir draw in one generator call, every appended row stored at once
(rows past ``size`` are invisible: every reader stops there), and the rows
the block's later steps overwrite with, taken in write order. A replay draw
draws the rest of the block in one call. Pure replay gathers its rows with
one take per array and gives a row whose slot a later step overwrites first
that step's row; mixed replay gathers up to the next step whose offers
overwrite a stored item, which draws again. ``sample_folds`` plans
validation minibatches alike. Every step of the block, its first included,
is ``Served``: ``advance`` moves the pools by their plans and writes only
the slots a step overwrites, and gathered rows are read by index.
``update`` is the only way rows enter a pool, and ``advance``, following its
plans, the only way one moves. Planned draws equal draws made one call at a
time: reservoir draws come one per evicting item in offer order, each
item's once, and a replay plan serves a step only while the pool stands
where the plan was made to find it.
"""

from __future__ import annotations

import math
import mmap
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import rng as rngmod
from .rng import BLOCK, step_streams, substream
from .stream import HorizonError, training_block


GATHER_STEPS = 32   # steps per chunk of a mixed-replay gather


class EmptyPoolError(RuntimeError):
    """Sampling from a pool with no stored items."""


class Minibatch(NamedTuple):
    """A sampled training minibatch (inputs + labels, no step identity)."""

    inputs: np.ndarray
    labels: np.ndarray


def _reserve(shape: tuple, dtype) -> np.ndarray:
    """An array on its own private anonymous mapping, bypassing numpy's
    allocator: the OS commits each page when it is first written."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype, count).reshape(shape)


class _Offers(NamedTuple):
    """Planned offers of ``counts[i]`` items at step ``first + i`` into one pool.

    Step i appends its first ``fill[i]`` items and writes rows ``a:b`` of
    ``written`` to slots ``slots[a:b]``, for ``a, b = at[i], at[i + 1]``: one
    write per slot, the step's last item drawn to it, in slot order.
    ``written`` holds (inputs, labels) of those items in write order, taken
    from ``block``, the range's stream batches stacked per step, when the
    plan was made, and the range's appended rows were stored then too. Rows
    read after step i stay put through step ``calm[i] - 1``, the last before
    one that writes."""

    first: int
    counts: list
    seen: list          # seen_count before each step, then after the last
    fill: list
    at: list
    slots: np.ndarray
    written: tuple
    calm: list
    block: tuple


class Served(NamedTuple):
    """The steps ``first`` .. ``stop - 1`` of the offer plans ``update`` made:
    step t's batch is row ``t - first`` of ``inputs`` and ``labels``, and
    ``advance`` takes step t's offers into each (pool, offer plan) of
    ``offers``."""

    first: int
    stop: int
    inputs: Optional[np.ndarray]
    labels: Optional[np.ndarray]
    offers: tuple


UNSERVED = Served(0, 0, None, None, ())   # serves no step


class _Replay(NamedTuple):
    """Planned replay draws of steps ``first`` .. ``first + len(bound) - 1``,
    made under ``key`` from the offer plan ``source``:
    ``idx[i]`` was drawn for step ``first + i`` with bound ``bound[i]`` (the
    pool size, or the history window's item count). ``windows`` locates the
    history windows of mixed replay (see ``_windows``)."""

    key: tuple
    source: _Offers
    first: int
    bound: np.ndarray
    idx: np.ndarray
    windows: object = None


class DataPool:
    """Capacity-limited item store with reservoir eviction.

    Items are kept in parallel arrays (features, labels, arrival step) of
    ``capacity`` rows, an integer >= 1 (unlimited: more rows than will be
    offered), reserved once and committed by the OS as rows are written.
    ``seed`` pins the reservoir and replay randomness.
    """

    def __init__(self, capacity: int, seed: int = 0, holdout_fraction: float = 0.0):
        # type() rather than isinstance(): a bool is not a capacity
        if type(capacity) is not int or capacity < 1:
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        if not (0.0 <= holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must be in [0, 1)")
        self.capacity, self.seed, self.holdout_fraction = capacity, seed, holdout_fraction
        self.size = self.seen_count = self.last_step = 0
        self._xs = self._ys = self._arrival = None   # reserved at the first item
        self._offers: Optional[_Offers] = None
        self._replay: Optional[_Replay] = None
        self.gathered = (0, (), ())   # (first step, inputs, labels) of the last replay gather
        self._buffers = {}                  # purpose -> (shape, (inputs, labels) buffers)

    # each built on its first draw
    _reservoir_rng = cached_property(lambda self: substream(self.seed, rngmod.RESERVOIR))
    _replay_rng = cached_property(lambda self: substream(self.seed, rngmod.REPLAY))

    # -- storage ------------------------------------------------------------

    def _plan_offers(self, first: int, counts: np.ndarray, block: tuple, rows: np.ndarray):
        """Plan the offers of ``counts[i]`` items at step ``first + i`` from the
        current state: every reservoir draw of the range at once (the item
        with global index i past capacity draws slot j ~ Uniform{0..i}), and,
        per step, algorithm R's writes (item i survives at slot j iff j <
        capacity; a slot drawn twice in one step keeps the later item). The
        items are the ``rows`` of ``block``'s batches joined in step order;
        take the rows the range's steps write, and store every row the range
        appends (until the pool fills, an item's slot is its offer index)."""
        self._offers = None   # free the old plan first
        joined = tuple(a.reshape(-1, *a.shape[2:]) for a in block)
        seen = self.seen_count + np.concatenate(([0], np.cumsum(counts)))
        cap, n_steps = self.capacity, len(counts)
        fill = np.clip(cap - seen[:-1], 0, counts)
        items = np.arange(max(seen[0], cap), seen[-1])
        drawn = self._reservoir_rng.integers(0, items + 1) if len(items) else items
        hit = (drawn < cap).nonzero()[0]
        step = seen.searchsorted(items.take(hit), "right") - 1
        # unique over the reversed (step, slot) keys finds each key's last draw
        key, last = np.unique((step * cap + drawn.take(hit))[::-1], return_index=True)
        hit = hit[::-1].take(last)
        step, slots = np.divmod(key, cap)
        src = rows.take(items.take(hit) - seen[0])
        at = step.searchsorted(np.arange(n_steps + 1))
        writes = np.flatnonzero(np.diff(at))
        calm = np.append(writes, n_steps)[writes.searchsorted(np.arange(n_steps), "right")]
        # per-step scalars as lists: a step reads them as Python ints
        self._offers = _Offers(first, counts.tolist(), seen.tolist(), fill.tolist(),
                               at.tolist(), slots, tuple(a.take(src, 0) for a in joined),
                               calm.tolist(), block)
        lo, hi = min(seen[0], cap), min(seen[-1], cap)
        if hi > lo:
            xs, ys = joined
            if self._xs is None:   # the first stored items fix the row shapes
                self._xs = _reserve((cap,) + xs.shape[1:], np.float64)
                self._ys = _reserve((cap,) + ys.shape[1:], ys.dtype)
                self._arrival = _reserve((cap,), np.int64)
            new = rows[lo - seen[0]:hi - seen[0]]
            # the indices are in range; mode "raise" would take into a temporary first
            xs.take(new, 0, out=self._xs[lo:hi], mode="wrap")
            ys.take(new, 0, out=self._ys[lo:hi], mode="wrap")
            self._arrival[lo:hi] = seen.searchsorted(np.arange(lo, hi), "right") + (first - 1)

    # -- views --------------------------------------------------------------

    def slots_between(self, first: int, last: int):
        """Slots of the stored items that arrived in steps [first, last], in
        slot order. A pool that has never dropped or overwritten an item (every
        unlimited pool) keeps its arrivals sorted, so this is a slice found by
        binary search; otherwise an index array from an O(size) scan."""
        if self.size == 0:
            return slice(0, 0)
        arrival = self._arrival[: self.size]
        if self.size == self.seen_count:
            return slice(*arrival.searchsorted((first, last + 1)))
        return np.flatnonzero((arrival >= first) & (arrival <= last))

    def _rows(self, purpose: str, n: int, width: int, xs: np.ndarray, ys: np.ndarray):
        """(inputs, labels) arrays of n x ``width`` rows like those of xs and
        ys: views of the pool's buffers for ``purpose``, made anew only to
        grow or to change shape."""
        shape = (width, xs.shape[1:], ys.shape[1:], ys.dtype)
        have, buf = self._buffers.get(purpose, (None, None))
        if have != shape or len(buf[0]) < n:
            buf = tuple(np.empty((n, width) + a.shape[1:], a.dtype) for a in (xs, ys))
            self._buffers[purpose] = (shape, buf)
        return buf[0][:n], buf[1][:n]

    def _gather(self, purpose: str, idx: np.ndarray):
        """The stored rows at the (n, width) slots ``idx``, by one take per
        array into the ``purpose`` buffers (for one row of slots, a buffer
        would save no allocation worth its upkeep)."""
        if len(idx) == 1:
            return self._xs.take(idx, 0), self._ys.take(idx, 0)
        xs, ys = self._rows(purpose, *idx.shape, self._xs, self._ys)
        # the indices are in range; mode "raise" would gather into a temporary first
        self._xs.take(idx, 0, out=xs, mode="wrap")
        self._ys.take(idx, 0, out=ys, mode="wrap")
        return xs, ys


def update(pool: DataPool, holdout: DataPool, spec, t: int) -> Served:
    """Plan the offers of step t of the stream ``spec`` and of the later steps
    of its block inside the horizon: route each datum of those steps' batches
    to the holdout or the training pool, and return the ``Served`` steps.

    A datum goes to the holdout iff its routing coin, drawn from the (seed,
    HOLDOUT, t) substream of the stream's seed, is below the holdout's
    fraction, so the split of any step is re-enumerable; the steps' coins are
    drawn at once. Each pool plans its offers of the steps: it gathers their
    items from the served stream block (``stream.training_block``) and stores
    the rows they append at once. No pool moves: ``advance`` takes each step.
    Steps must increase, so a pool that has never dropped or overwritten an
    item stores its arrivals in order.
    """
    if t <= pool.last_step:
        raise ValueError(f"step {t} does not exceed last integrated step {pool.last_step}")
    if t > spec.horizon:
        raise HorizonError(f"step {t} outside [1, {spec.horizon}]")
    i, n = (t - 1) % BLOCK, spec.batch_size
    stop = min(t - i + BLOCK, spec.horizon + 1)
    hold = np.zeros((stop - t, n), dtype=bool)
    if holdout.holdout_fraction > 0.0:
        coins = np.empty((stop - t, n))
        for row, g in zip(coins, step_streams(spec.seed, rngmod.HOLDOUT, t, stop)):
            g.random(out=row)
        hold = coins < holdout.holdout_fraction
    block = training_block(spec, t)
    for target, mask in ((pool, ~hold), (holdout, hold)):
        # row j * n + r of the steps is row r of step t + j
        target._plan_offers(t, mask.sum(1), block, np.flatnonzero(mask))
    return Served(t, stop, *block, ((pool, pool._offers), (holdout, holdout._offers)))


def advance(served: Served, t: int):
    """Integrate step t of ``served`` into each pool: the one way a pool
    moves. The step's appended rows are stored already, so a pool writes
    only the slots its offers overwrite (reservoir eviction past capacity),
    then moves by its offer plan's counters."""
    for pool, plan in served.offers:
        k = t - plan.first
        a, b = plan.at[k], plan.at[k + 1]
        if a < b:
            j = plan.slots[a:b]
            pool._xs[j], pool._ys[j] = plan.written[0][a:b], plan.written[1][a:b]
            pool._arrival[j] = t
        pool.size += plan.fill[k]
        pool.seen_count = plan.seen[k + 1]
        pool.last_step = t


def _replayed(pool: DataPool, key: tuple, make, gather) -> Minibatch:
    """The rows of the pool's replay plan for its last offered step t, as
    views. The plan serves if it was made under ``key`` from the offer plan
    the pool stands at and holds step t; else ``make(offer plan, step t's
    index)`` draws the one that replaces it. ``gather(plan, i)`` gathers the
    rows of the plan's steps from its i-th, step t, on into
    ``pool.gathered``."""
    t, source = pool.last_step, pool._offers
    k = -1 if source is None else t - source.first
    if not (0 <= k < len(source.counts) and source.seen[k + 1] == pool.seen_count):
        raise ValueError(f"replay needs the offers of the pool's last offered step {t}")
    plan = pool._replay
    if (plan is None or plan.key != key or plan.source is not source
            or not 0 <= t - plan.first < len(plan.bound)):
        pool._replay = None   # free the old plan before drawing the new one
        plan = pool._replay = make(source, k)
    xs, ys = gather(plan, t - plan.first)
    pool.gathered = (t, xs, ys)
    return Minibatch(xs[0], ys[0])


def _patch(pool: DataPool, idx: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Give the rows ``xs``, ``ys`` gathered from storage at the slots ``idx``
    of the pool's last offered step t and the later steps of its offer plan,
    one row of slots per step, the rows those steps stand at. Storage holds
    every write through step t; at step s, a slot that some step in (t, s]
    writes holds the row of the last such write. The later writes come in
    step order, so those through step s are the first ``stop[s - t]``. A
    row's slot whose first later write is past that stop keeps the stored
    row, one whose last is before it takes that write, and the rest search
    their slot's writes."""
    source = pool._offers
    k = pool.last_step - source.first
    a = source.at[k + 1]
    slots = source.slots[a:]
    n = len(slots)
    if n == 0:   # no later step writes
        return
    stop = np.array(source.at[k + 1:]) - a
    order = slots.argsort(kind="stable")   # by slot, each slot's writes in step order
    by_slot = slots.take(order)
    head = np.flatnonzero(np.diff(by_slot, prepend=-1))   # each slot's first in by_slot
    first, last = np.full((2, pool.capacity), n)   # n: no later write to the slot
    first[by_slot.take(head)] = order.take(head)
    last[by_slot.take(head)] = order.take(np.append(head[1:], n) - 1)
    rows = np.flatnonzero(first.take(idx) < stop[:, None])
    if len(rows) == 0:
        return
    v, lim = idx.reshape(-1).take(rows), stop.take(rows // idx.shape[1])
    w = last.take(v)
    again = np.flatnonzero(w >= lim)
    if len(again):   # the last (slot, write) key below (slot, stop) is the slot's own
        keys = by_slot * n + order
        w[again] = order.take(keys.searchsorted(v.take(again) * n + lim.take(again)) - 1)
    w += a
    for out, new in zip((xs, ys), source.written):
        out.reshape(-1, *out.shape[2:])[rows] = new.take(w, 0)


def sample_pure_replay(pool: DataPool, m: int, count: int = 1) -> Minibatch:
    """``count`` minibatches of m items, uniform with replacement over
    everything stored, as one block of ``count * m`` rows: rows [i*m, (i+1)*m)
    are the i-th minibatch. One joined draw equals ``count`` consecutive
    draws of m, row for row, and leaves the generator in the same state.

    Serves views of the rows of the pool's replay plan, made at the first
    call of an offer plan's range with one draw for each step's pool size,
    from the pool's own generator. The call gathers the rows of its step and
    of every later step of the range with one take per array, and gives a
    row whose slot a later step overwrites first the row that step writes
    (see ``_patch``).
    """
    if pool.size == 0:
        raise EmptyPoolError("cannot sample from an empty pool")
    key = ("pure", m, count)

    def make(source, k):
        bounds = np.minimum(source.seen[k + 1:], pool.capacity)
        idx = pool._replay_rng.integers(0, bounds[:, None], size=(len(bounds), count * m))
        return _Replay(key, source, pool.last_step, bounds, idx)

    def gather(plan, i):
        xs, ys = pool._gather("replay", plan.idx[i:])
        _patch(pool, plan.idx[i:], xs, ys)
        return xs, ys

    return _replayed(pool, key, make, gather)


def _windows(pool: DataPool, steps: np.ndarray, window: Optional[int], size: int) -> tuple:
    """(item counts, windows) of the history windows [t - window, t - 1]
    (window=None: [1, t - 1]) of the given steps, over the first ``size``
    slots, for steps between which the pool overwrites no stored item. A
    pool that has never dropped or overwritten an item keeps its arrivals
    sorted, including the rows its offer plan has stored ahead, so windows
    are the first slots of runs (binary search); otherwise the pool stays
    full and unchanged, and windows are slot arrays (an O(size) scan each)."""
    lo = np.ones_like(steps) if window is None else steps - window
    if size == 0:
        return np.zeros(len(steps), dtype=np.int64), np.zeros(len(steps), dtype=np.int64)
    if pool.size == pool.seen_count:
        arrival = pool._arrival[:size]
        first = arrival.searchsorted(lo)
        return arrival.searchsorted(steps) - first, first
    slots = [pool.slots_between(a, b - 1) for a, b in zip(lo, steps)]
    return np.array([len(s) for s in slots]), slots


def sample_mixed_replay(pool: DataPool, m: int, window: Optional[int] = None,
                        count: int = 1) -> Minibatch:
    """Half the minibatch from the current step, half uniform from the history window.

    The current step t is the pool's last offered step, and its batch the
    step's rows of the served stream block of the offer plan that holds it.
    The history half draws uniformly from stored items with arrival step in
    [t - window, t - 1]; window=None means t-1 (full coverage). If the window
    holds nothing (e.g. t=1), the whole minibatch falls back to current data.

    ``count`` minibatches come as one block of ``count * m`` rows: rows
    [i*m, (i+1)*m) are the i-th minibatch, current half first. They are drawn
    by one call whose bounds repeat [current, history] ``count`` times, so
    the block equals ``count`` consecutive calls with ``count=1``, row for
    row, and leaves the replay generator in the same state. Serves views of
    the rows of the pool's replay plan, drawn and gathered at the first call
    of an offer plan's range for the steps up to the next one whose offers
    overwrite a stored item (see ``_windows``).
    """
    if m % 2 != 0:
        raise ValueError("mixed replay needs an even minibatch size")
    t, half = pool.last_step, m // 2
    key = ("mixed", m, count, window)

    def make(source, k):
        n, n_steps = source.block[1].shape[1], source.calm[k] - k
        size = min(source.seen[k + n_steps], pool.capacity)
        bounds, windows = _windows(pool, t + np.arange(n_steps), window, size)
        # per step and minibatch: the current half, then the history half
        # (all current when the window is empty)
        high = np.stack((np.full(n_steps, n), np.where(bounds > 0, bounds, n)), 1)
        idx = pool._replay_rng.integers(0, high[:, None, :, None],
                                        size=(n_steps, count, 2, half))
        return _Replay(key, source, t, bounds, idx, windows)

    def gather(plan, lo):
        hi = len(plan.bound)   # the plan stops before the next step that writes
        # current rows: the offer plan's stream batches, joined in step order
        cur_x, cur_y = (a.reshape(-1, *a.shape[2:]) for a in plan.source.block)
        n = plan.source.block[1].shape[1]
        xs, ys = pool._rows("replay", hi - lo, count * m, cur_x, cur_y)
        for a in range(lo, hi, GATHER_STEPS):   # the takes' temporaries hold one chunk
            b = min(a + GATHER_STEPS, hi)
            steps = np.arange(a, b) + (plan.first - plan.source.first)
            cur, hist = plan.idx[a:b, :, 0] + n * steps[:, None, None], plan.idx[a:b, :, 1]
            full, windows = plan.bound[a:b] > 0, plan.windows[a:b]
            if isinstance(windows, list):   # an empty window draws all current rows
                hist = [w.take(h) if f else h + n * s
                        for w, h, f, s in zip(windows, hist, full, steps)]
            else:
                hist = hist + np.where(full, windows, n * steps)[:, None, None]
            for out, cur_src, pool_src in ((xs, cur_x, pool._xs), (ys, cur_y, pool._ys)):
                out = out[a - lo:b - lo].reshape(b - a, count, 2, half, *out.shape[2:])
                out[:, :, 0] = cur_src.take(cur, 0)
                if full.all():
                    out[:, :, 1] = pool_src.take(hist, 0)
                else:
                    for i, h in enumerate(hist):
                        out[i, :, 1] = (pool_src if full[i] else cur_src).take(h, 0)
        return xs, ys

    return _replayed(pool, key, make, gather)


def sample_folds(pool: DataPool, m: int, rng: np.random.Generator, bounds: np.ndarray):
    """(inputs, labels) of one minibatch of m items per bound, shaped
    (len(bounds), m, ...): fold i's items are uniform with replacement over
    the first ``bounds[i]`` stored items, which must stay put until it is
    served. One generator call draws every fold, equal to one
    ``rng.integers(0, bound, size=m)`` call per fold in order; a bound of 0
    (a skipped fold) draws nothing. One take per array gathers the rows into
    buffers the pool keeps. None if every bound is 0."""
    if not bounds.any():
        return None
    # a bound of 1 draws without consuming the generator
    return pool._gather("folds", rng.integers(0, np.maximum(bounds, 1)[:, None],
                                              size=(len(bounds), m)))
