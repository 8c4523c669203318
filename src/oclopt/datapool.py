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

Every pool-side draw and row copy of a block of ``BLOCK`` steps (those
inside the horizon) is planned at its first step, before any pool moves,
into one ``Block``. ``update`` draws the block's routing coins, which no
pool keeps, and plans both pools' offers: every reservoir draw in one
generator call, every appended row stored at once (rows past ``size`` are
invisible: every reader stops there), and the rows the block's steps
overwrite with, taken in write order. A replay planner then draws every
step's replay indices: pure replay in one call, mixed replay in one call per
segment, from the first step and from each step whose offers overwrite a
stored item up to the next, with the history windows the arrival steps give
after the writes of the segment's first step. Both gather their rows with
one take per array and source, and give a row whose slot a step up to its
own overwrites the row of the last such write (``_patch``).
``sample_folds`` plans validation minibatches alike. Gathered input rows
carry a trailing 1.0 for a classifier layer's bias (see ``oclopt.model``).
Every step of the block, its first included, is served by index:
``advance`` moves the pools by their plans and writes only the slots a step
overwrites. ``update`` is the only way rows enter a pool, and ``advance``,
following its plans, the only way one moves. Planned draws equal draws made
one call at a time: reservoir draws come one per evicting item in offer
order, each item's once, and replay draws in the order per-step calls would
make them, each from the rows the pool holds at its step.
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


GATHER_STEPS = 32   # steps (or folds) per chunk of a gather, which bounds its temporaries


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
    plan was made, and the range's appended rows were stored then too."""

    first: int
    counts: list
    seen: list          # seen_count before each step, then after the last
    fill: list
    at: list
    slots: np.ndarray
    written: tuple
    block: tuple


class Block(NamedTuple):
    """The steps ``first`` .. ``stop - 1``, every draw and row copy of them
    planned at the first: step t's batch is row ``t - first`` of ``inputs``
    and ``labels``, and ``advance`` takes step t's offers into each (pool,
    offer plan) of ``offers``. ``replay`` holds the replay rows of the
    block's last steps, one row of minibatches per step, ending with the
    block's last step (a step before them runs no iterations), and
    ``folds`` (first fold, bounds, rows) of the validation folds the block
    reaches (see ``sample_folds``)."""

    first: int
    stop: int
    inputs: np.ndarray
    labels: np.ndarray
    offers: tuple
    replay: Minibatch = Minibatch((), ())
    folds: tuple = (0, (), None)


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

    # each built on its first draw
    _reservoir_rng = cached_property(lambda self: substream(self.seed, rngmod.RESERVOIR))
    _replay_rng = cached_property(lambda self: substream(self.seed, rngmod.REPLAY))

    # -- storage ------------------------------------------------------------

    def _plan_offers(self, first: int, counts: np.ndarray, block: tuple,
                     rows: np.ndarray) -> _Offers:
        """Plan the offers of ``counts[i]`` items at step ``first + i`` from the
        current state: every reservoir draw of the range at once (the item
        with global index i past capacity draws slot j ~ Uniform{0..i}), and,
        per step, algorithm R's writes (item i survives at slot j iff j <
        capacity; a slot drawn twice in one step keeps the later item). The
        items are the ``rows`` of ``block``'s batches joined in step order;
        take the rows the range's steps write, and store every row the range
        appends (until the pool fills, an item's slot is its offer index)."""
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
        # per-step scalars as lists: a step reads them as Python ints
        return _Offers(first, counts.tolist(), seen.tolist(), fill.tolist(), at.tolist(), slots,
                       tuple(a.take(src, 0) for a in joined), block)

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


def update(pool: DataPool, holdout: DataPool, spec, t: int) -> Block:
    """Plan the offers of step t of the stream ``spec`` and of the later steps
    of its block inside the horizon: route each datum of those steps' batches
    to the holdout or the training pool, and return the ``Block`` of the
    steps, with no replay rows or folds yet.

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
    # row j * n + r of the steps is row r of step t + j
    offers = tuple((target, target._plan_offers(t, mask.sum(1), block, np.flatnonzero(mask)))
                   for target, mask in ((pool, ~hold), (holdout, hold)))
    return Block(t, stop, *block, offers)


def advance(block: Block, t: int):
    """Integrate step t of ``block`` into each pool: the one way a pool
    moves. The step's appended rows are stored already, so a pool writes
    only the slots its offers overwrite (reservoir eviction past capacity),
    then moves by its offer plan's counters."""
    for pool, plan in block.offers:
        k = t - plan.first
        a, b = plan.at[k], plan.at[k + 1]
        if a < b:
            j = plan.slots[a:b]
            pool._xs[j], pool._ys[j] = plan.written[0][a:b], plan.written[1][a:b]
            pool._arrival[j] = t
        pool.size += plan.fill[k]
        pool.seen_count = plan.seen[k + 1]
        pool.last_step = t


def _take(pool: DataPool, refs: np.ndarray, block: tuple) -> Minibatch:
    """The rows ``refs`` refers to, in arrays of their own shaped like it,
    each input row with a trailing 1.0 for a classifier layer's bias (see
    ``oclopt.model``). A reference below the pool's capacity is a slot of
    its storage, and ``capacity + j`` row j of ``block``, stream batches
    stacked per step, joined in step order; the references of each run
    along the last axis all refer to one of the two. One take per array and
    source, a chunk of GATHER_STEPS rows of ``refs`` at a time."""
    cap, joined = pool.capacity, tuple(a.reshape(-1, *a.shape[2:]) for a in block)
    stores = joined if pool._xs is None else (pool._xs, pool._ys)   # no slot to refer to yet
    xs = np.empty(refs.shape + (joined[0].shape[1] + 1,))
    xs[..., -1] = 1.0
    ys = np.empty(refs.shape + joined[1].shape[1:], joined[1].dtype)
    for a in range(0, len(refs), GATHER_STEPS):
        r, chunk = refs[a:a + GATHER_STEPS], slice(a, a + GATHER_STEPS)
        stored = r[..., 0] < cap
        for out, store, rows in zip((xs[chunk, ..., :-1], ys[chunk]), stores, joined):
            if stored.all():   # in range: mode "raise" would take into a temporary first
                store.take(r, 0, out=out, mode="wrap")
            else:
                out[stored] = store.take(r[stored], 0)
                out[~stored] = rows.take(r[~stored] - cap, 0)
    return Minibatch(xs, ys)


def _patch(offers: _Offers, capacity: int, refs: np.ndarray, rows: Minibatch):
    """Give the ``rows`` of ``refs`` (see ``_take``), one row of references
    per step of the offer plan ``offers``, ending with its last step, the
    rows those steps stand at. Storage holds the writes of the steps before
    the plan's; at step s, a slot that a step of the plan through s writes
    holds the row of the last such write. The writes come in step order, so
    those through step s are the first ``at[s + 1]``, the row's stop. A
    row's slot whose first write is past that stop keeps the stored row,
    one whose last is before it takes that write, and the rest search their
    slot's writes."""
    slots = offers.slots
    n = len(slots)
    if n == 0:   # no step writes
        return
    stop = np.array(offers.at[len(offers.at) - len(refs):])
    order = slots.argsort(kind="stable")   # by slot, each slot's writes in step order
    by_slot = slots.take(order)
    head = np.flatnonzero(np.diff(by_slot, prepend=-1))   # each slot's first in by_slot
    # n: no write to the slot; entry ``capacity`` stands for every stream row
    first, last = np.full((2, capacity + 1), n)
    first[by_slot.take(head)] = order.take(head)
    last[by_slot.take(head)] = order.take(np.append(head[1:], n) - 1)
    hit = np.flatnonzero(first.take(refs, mode="clip") < stop[:, None])
    if len(hit) == 0:
        return
    v, lim = refs.reshape(-1).take(hit), stop.take(hit // refs.shape[1])
    w = last.take(v)
    again = np.flatnonzero(w >= lim)
    if len(again):   # the last (slot, write) key below (slot, stop) is the slot's own
        keys = by_slot * n + order
        w[again] = order.take(keys.searchsorted(v.take(again) * n + lim.take(again)) - 1)
    for out, new in zip((rows.inputs[..., :-1], rows.labels), offers.written):
        out.reshape(-1, *out.shape[2:])[hit] = new.take(w, 0)


def _gather(pool: DataPool, offers: _Offers, refs: np.ndarray) -> Minibatch:
    """The replay rows of ``refs`` (see ``_take``), whose first axis runs over
    the plan's last ``len(refs)`` steps: one row of rows per step, each the
    row its step reads (see ``_patch``)."""
    shape = len(refs), math.prod(refs.shape[1:])
    rows = Minibatch(*(a.reshape(*shape, *a.shape[refs.ndim:])
                       for a in _take(pool, refs, offers.block)))
    _patch(offers, pool.capacity, refs.reshape(shape), rows)
    return rows


def sample_pure_replay(pool: DataPool, offers: _Offers, m: int, count: int = 1) -> Minibatch:
    """Plan the pure replay of the steps of the offer plan ``offers``, the
    pool standing before the first: ``count`` minibatches of m items per
    step, uniform with replacement over everything stored at the step, as
    one row of ``count * m`` rows: rows [i*m, (i+1)*m) are the i-th
    minibatch. A pool never shrinks, so the steps with a stored item are the
    last ones; the rows are theirs, one row per step, and a step before them
    draws nothing.

    One draw from the pool's own generator, bounded by each step's pool
    size, equals ``count`` consecutive draws of m per step, row for row, and
    leaves the generator in the same state. One take per array gathers the
    rows, and a row whose slot a step up to its own overwrites takes that
    step's row (see ``_patch``).
    """
    bounds = np.minimum(offers.seen[1:], pool.capacity)
    bounds = bounds[bounds > 0]
    return _gather(pool, offers, pool._replay_rng.integers(0, bounds[:, None],
                                                           size=(len(bounds), count * m)))


def _windows(arrival: np.ndarray, steps: np.ndarray, window: Optional[int],
             in_order: bool) -> tuple:
    """(item counts, windows) of the history windows [t - window, t - 1]
    (window=None: [1, t - 1]) of the given steps among the slots whose
    arrival steps are ``arrival``. Arrivals ``in_order`` (those of a pool
    that has never dropped or overwritten an item, including the rows its
    offer plan has stored ahead) make windows the first slots of runs
    (binary search); otherwise windows are slot arrays (an O(size) scan
    each)."""
    lo = np.ones_like(steps) if window is None else steps - window
    if in_order:
        first = arrival.searchsorted(lo)
        return arrival.searchsorted(steps) - first, first
    slots = [np.flatnonzero((arrival >= a) & (arrival < b)) for a, b in zip(lo, steps)]
    return np.array([len(s) for s in slots]), slots


def sample_mixed_replay(pool: DataPool, offers: _Offers, m: int, window: Optional[int] = None,
                        count: int = 1) -> Minibatch:
    """Plan the mixed replay of the steps of the offer plan ``offers``, the
    pool standing before the first: at step t, half of each minibatch comes
    from the step's batch, its rows of the plan's stream block, and half
    uniformly from the stored items with arrival step in [t - window, t - 1]
    (window=None: [1, t - 1]). If the window holds nothing (e.g. t=1), the
    whole minibatch comes from the current batch.

    ``count`` minibatches of a step come as one row of ``count * m`` rows:
    rows [i*m, (i+1)*m) are the i-th minibatch, current half first. They are
    drawn with bounds that repeat [current, history] ``count`` times, which
    equals ``count`` consecutive draws, row for row. The steps are drawn in
    segments, from the first step and from each step whose offers overwrite
    a stored item up to the next: one call on the pool's replay generator
    per segment, with the history windows of the arrival steps after the
    writes of the segment's first step (see ``_windows``). One take per
    array and source gathers the rows (see ``_gather``).
    """
    if m % 2 != 0:
        raise ValueError("mixed replay needs an even minibatch size")
    cap, at, seen, half = pool.capacity, offers.at, offers.seen, m // 2
    n_steps, n = len(offers.counts), offers.block[1].shape[1]
    writes = np.flatnonzero(np.diff(at)[1:]) + 1
    edges = [0, *writes, n_steps]
    refs = []   # each segment's draws, made references in place
    arrival = None   # a full pool's arrival steps, after the current segment's first writes
    for a, b in zip(edges[:-1], edges[1:]):
        steps = np.arange(a, b)
        cur = cap + n * steps[:, None, None]   # row j of a step's batch is cur + j
        if seen[a + 1] <= cap:   # nothing dropped or overwritten yet: arrivals in order
            size = min(seen[b], cap)
            ahead = pool._arrival[:size] if size else np.empty(0, np.int64)
            bounds, windows = _windows(ahead, offers.first + steps, window, True)
        else:
            if arrival is None:
                arrival = pool._arrival.copy()
            arrival[offers.slots[at[a]:at[a + 1]]] = offers.first + a
            bounds, windows = _windows(arrival, offers.first + steps, window, False)
        # per step and minibatch: the current half, then the history half
        # (all current when the window is empty)
        full = bounds > 0
        high = np.stack((np.full(b - a, n), np.where(full, bounds, n)), 1)
        idx = pool._replay_rng.integers(0, high[:, None, :, None], size=(b - a, count, 2, half))
        idx[:, :, 0] += cur
        if isinstance(windows, list):
            idx[:, :, 1] = [w.take(h) if f else h + c
                            for w, h, f, c in zip(windows, idx[:, :, 1], full, cur)]
        else:
            idx[:, :, 1] += np.where(full[:, None, None], windows[:, None, None], cur)
        refs.append(idx)
    # one segment (every block of a pool that never overwrites) is gathered without a copy
    return _gather(pool, offers, refs[0] if len(refs) == 1 else np.concatenate(refs))


def sample_folds(pool: DataPool, block: tuple, m: int, rng: np.random.Generator,
                 bounds: np.ndarray):
    """(inputs, labels) of one minibatch of m items per bound, shaped
    (len(bounds), m, ...) like the rows of ``block``'s stream batches, each
    input row with a trailing 1.0. Fold i's items are uniform with
    replacement over the first ``bounds[i]`` stored items, which must stay
    put until it is served. One generator call draws every fold, equal to
    one ``rng.integers(0, bound, size=m)`` call per fold in order; a bound
    of 0 (a skipped fold) draws nothing. One take per array gathers the
    rows. None if every bound is 0."""
    if not bounds.any():
        return None
    # a bound of 1 draws without consuming the generator
    return _take(pool, rng.integers(0, np.maximum(bounds, 1)[:, None], size=(len(bounds), m)),
                 block)
