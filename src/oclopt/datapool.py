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

Every pool-side draw is planned. A planner takes a range of steps and makes
all of the range's reservoir draws, or all of its replay draws, in one
generator call; each step then applies its slice of the plan's flat arrays.
``update`` plans both pools' offers, and ``block=True`` replay draws plan the
pool's replay, for the rest of a ``BLOCK``-step block at its first step, so
the block's other steps make no generator call (except mixed replay from a
pool that evicts: its window changes with each eviction, so it plans one
step at a time). A direct ``offer`` or replay
call is the same planner over a range of one call. Planned draws equal draws
made one call at a time: reservoir draws come one per evicting item in offer
order and are kept by item index until no checkpoint can rewind past them,
and a replay plan serves a step only if the step's bounds are the ones it
drew with.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import rng as rngmod
from .rng import BLOCK, step_streams, substream
from .stream import StreamBatch


class EmptyPoolError(RuntimeError):
    """Sampling from a pool with no stored items."""


@dataclass(frozen=True)
class Minibatch:
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

    Step i appends its first ``fill[i]`` items and writes its item ``src[w]``
    to slot ``slots[w]`` for w in ``at[i]:at[i + 1]``: one write per slot,
    the step's last item drawn to it, in slot order."""

    first: int
    counts: list
    seen: list          # seen_count before each step, then after the last
    fill: list
    at: list
    slots: np.ndarray
    src: np.ndarray


class _Replay(NamedTuple):
    """Planned replay draws of steps ``first`` .. ``first + len(bound) - 1``:
    ``idx[i]`` was drawn for step ``first + i`` with bound ``bound[i]`` (the
    pool size, or the history window's item count), under ``key``."""

    key: tuple
    first: int
    bound: np.ndarray
    idx: np.ndarray


class DataPool:
    """Capacity-limited item store with reservoir eviction.

    Items are kept in parallel arrays (features, labels, arrival step, record
    id) of ``capacity`` rows, an integer >= 1 (unlimited: more rows than will
    be offered), reserved once and committed by the OS as rows are written.
    ``seed`` pins the reservoir and replay randomness; holdout routing is
    keyed off the same seed.
    """

    def __init__(self, capacity: int, seed: int = 0, holdout_fraction: float = 0.0):
        # type() rather than isinstance(): a bool is not a capacity
        if type(capacity) is not int or capacity < 1:
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        if not (0.0 <= holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must be in [0, 1)")
        self.capacity, self.seed, self.holdout_fraction = capacity, seed, holdout_fraction
        self.size = self.seen_count = self.last_step = 0
        self._xs = self._ys = self._arrival = self._rid = None   # reserved at the first item
        self._undo: Optional[list] = None   # rows overwritten since checkpoint()
        self._ckpt_id = 0
        self._rewind: Optional[int] = None  # seen_count of the latest checkpoint
        self._coins = (None, None, None)    # (block, n, coins) of the latest read
        self._routes = (None, None)         # ((block, n, fraction), routes) of the latest
        self._offers: Optional[_Offers] = None
        self._replay: Optional[_Replay] = None
        # reservoir slots drawn for the items with global index start, start + 1, ...
        self._draws = (capacity, np.empty(0, dtype=np.int64))

    # each built on its first draw
    _reservoir_rng = cached_property(lambda self: substream(self.seed, rngmod.RESERVOIR))
    _replay_rng = cached_property(lambda self: substream(self.seed, rngmod.REPLAY))

    def routing_coins(self, t: int, n: int) -> np.ndarray:
        """``substream(seed, HOLDOUT, t).random(n)``, read-only, from a block of
        ``BLOCK`` steps drawn at once; only the latest block is kept. Blocks
        start at the steps a stream's blocks start at, so both fill on one step."""
        b, i = divmod(t - 1, BLOCK)
        if self._coins[:2] != (b, n):
            coins = np.empty((BLOCK, n))
            for row, g in zip(coins, step_streams(self.seed, rngmod.HOLDOUT, b * BLOCK + 1,
                                                  (b + 1) * BLOCK + 1)):
                g.random(out=row)
            coins.setflags(write=False)
            self._coins = (b, n, coins)
        return self._coins[2][i]

    def _split(self, t: int, n: int, fraction: float) -> tuple:
        """((rows, at) for this pool, (rows, at) for the holdout) over the block
        holding step t: block step i offers rows[at[i]:at[i + 1]] of its batch."""
        b = (t - 1) // BLOCK
        if self._routes[0] != (b, n, fraction):
            self._routes = (None, None)   # free the old block's routes first
            if fraction > 0.0:
                self.routing_coins(t, n)
                hold = self._coins[2] < fraction
            else:
                hold = np.zeros((BLOCK, n), dtype=bool)
            routes = tuple((np.flatnonzero(mask) % n, [0] + np.cumsum(mask.sum(1)).tolist())
                           for mask in (~hold, hold))
            self._routes = ((b, n, fraction), routes)
        return self._routes[1]

    # -- storage ------------------------------------------------------------

    def _slot_draws(self, lo: int, hi: int) -> np.ndarray:
        """Reservoir slots of the items with global index lo .. hi - 1 (all at
        or past capacity): item i draws j ~ Uniform{0..i}. Each index is drawn
        once, in order, and kept until no checkpoint can rewind past it."""
        start, drawn = self._draws
        end = start + len(drawn)
        if hi > end:
            new = self._reservoir_rng.integers(0, np.arange(end, hi) + 1)
            keep = lo if self._rewind is None else min(lo, max(self._rewind, start))
            drawn = np.concatenate((drawn[keep - start:], new))
            self._draws = (start := keep, drawn)
        return drawn[lo - start:hi - start]

    def _plan_offers(self, first: int, counts: np.ndarray):
        """Plan the offers of ``counts[i]`` items at step ``first + i`` from the
        current state: every reservoir draw of the range at once, and, per
        step, algorithm R's writes (item i survives at slot j iff j <
        capacity; a slot drawn twice in one step keeps the later item)."""
        self._offers = None   # free the old plan first
        seen = self.seen_count + np.concatenate(([0], np.cumsum(counts)))
        cap = self.capacity
        fill = np.clip(cap - seen[:-1], 0, counts)
        items = np.arange(max(seen[0], cap), seen[-1])
        drawn = self._slot_draws(items[0], seen[-1]) if len(items) else items
        hit = (drawn < cap).nonzero()[0]
        step = seen.searchsorted(items.take(hit), "right") - 1
        # unique over the reversed (step, slot) keys finds each key's last draw
        key, last = np.unique((step * cap + drawn.take(hit))[::-1], return_index=True)
        hit = hit[::-1].take(last)
        step, slots = np.divmod(key, cap)
        src = items.take(hit) - seen.take(step)
        at = step.searchsorted(np.arange(len(counts) + 1))
        # per-step scalars as lists: a step reads them as Python ints
        self._offers = _Offers(first, counts.tolist(), seen.tolist(), fill.tolist(),
                               at.tolist(), slots, src)

    def _step(self, t: int, n: int) -> Optional[int]:
        """Step t's index in the offer plan if the plan offers n items then,
        from the current state; else None."""
        plan = self._offers
        if plan is not None and 0 <= t - plan.first < len(plan.counts):
            k = t - plan.first
            if plan.seen[k] == self.seen_count and plan.counts[k] == n:
                return k
        return None

    def _ahead(self, t: int):
        """(offer plan, step t's index) if the plan's step t is the last step
        offered; else None."""
        plan = self._offers
        if plan is not None and t == self.last_step and 0 <= t - plan.first < len(plan.counts):
            k = t - plan.first
            if plan.seen[k + 1] == self.seen_count:
                return plan, k
        return None

    def offer(self, xs: np.ndarray, ys: np.ndarray, t: int, rids: np.ndarray):
        """Offer a block of items; reservoir-evict past capacity.

        Applies step t's entry of the offer plan, first planning a range of
        this one call if no plan holds one for the current state. Steps must
        not decrease (an equal step is allowed: the holdout's empty offers
        reuse it), so a pool that has never dropped or overwritten an item
        stores its arrivals in non-decreasing order.
        """
        if t < self.last_step:
            raise ValueError(f"step {t} is below last offered step {self.last_step}")
        k = self._step(t, len(xs))
        if k is None:
            self._plan_offers(t, np.array([len(xs)]))
            k = 0
        plan = self._offers
        fill = plan.fill[k]
        if fill:
            if self._xs is None:   # the first stored items fix the row shapes
                cap = (self.capacity,)
                self._xs = _reserve(cap + xs.shape[1:], np.float64)
                self._ys = _reserve(cap + ys.shape[1:], ys.dtype)
                self._arrival, self._rid = _reserve(cap, np.int64), _reserve(cap, np.int64)
            new = slice(self.size, self.size + fill)
            self._xs[new], self._ys[new] = xs[:fill], ys[:fill]
            self._arrival[new], self._rid[new] = t, rids[:fill]
            self.size += fill
        a, b = plan.at[k], plan.at[k + 1]
        if b > a:
            j, src = plan.slots[a:b], plan.src[a:b]
            if self._undo is not None:
                self._undo.append((j, self._xs.take(j, 0), self._ys.take(j, 0),
                                   self._arrival.take(j), self._rid.take(j)))
            self._xs[j], self._ys[j] = xs.take(src, 0), ys.take(src, 0)
            self._arrival[j], self._rid[j] = t, rids.take(src)
        self.seen_count = plan.seen[k + 1]
        self.last_step = t

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

    # -- checkpoint / restore (atomic protocol steps) -------------------------

    def checkpoint(self) -> dict:
        """Mark the state ``restore`` returns to and open an undo log.

        The checkpoint holds the counters only, not items and no generator
        state: until the next checkpoint, each evicting ``offer`` logs one
        entry of the old rows it overwrites, and items appended past ``size``
        need no entry. Draws are never rolled back; they stay in their plans,
        so steps offered again after a restore reuse them. Only the latest
        checkpoint of a pool can be restored.
        """
        self._ckpt_id += 1
        self._undo = []
        self._rewind = self.seen_count
        return {"id": self._ckpt_id, "size": self.size, "seen": self.seen_count,
                "last_step": self.last_step}

    def restore(self, ckpt: dict):
        """Write the logged rows back newest first and reset the counters;
        O(slots overwritten). Plans and generators are left as they are: a
        retried step finds its plan. Idempotent."""
        if ckpt["id"] != self._ckpt_id:
            raise ValueError("only the latest checkpoint of a pool can be restored")
        for j, x, y, arrival, rid in reversed(self._undo):
            self._xs[j], self._ys[j], self._arrival[j], self._rid[j] = x, y, arrival, rid
        self._undo.clear()
        self.size, self.seen_count, self.last_step = ckpt["size"], ckpt["seen"], ckpt["last_step"]


def update(pool: DataPool, holdout: DataPool, batch: StreamBatch):
    """Integrate one revealed batch: route each datum to holdout or training pool.

    Routing coins are drawn from the (seed, HOLDOUT, t) substream (see
    ``DataPool.routing_coins``), so the split of any step is re-enumerable.
    Record ids continue the global offer sequence across both pools. At the
    first step of a block each pool plans its offers for the whole block,
    unless a retried step finds the plan already made.
    """
    t, n, xs, ys = batch.t, batch.n, batch.inputs, batch.labels
    if t <= pool.last_step:
        raise ValueError(f"step {t} does not exceed last integrated step {pool.last_step}")
    base = pool.seen_count + holdout.seen_count
    i = (t - 1) % BLOCK
    for target, (rows, at) in zip((pool, holdout), pool._split(t, n, holdout.holdout_fraction)):
        if i == 0 and target._step(t, at[1]) is None:
            target._plan_offers(t, np.diff(at))
        r = rows[at[i]:at[i + 1]]
        target.offer(xs.take(r, 0), ys.take(r, 0), t, r + base)


def _replay_draws(pool: DataPool, key: tuple, t: int, bound: int, block: bool, ahead, draw):
    """Step t's replay draws. A block call serves them from the pool's replay
    plan if the plan drew step t under ``key`` with this bound, else plans
    the steps ``ahead()`` bounds from t on (just t without an offer plan);
    ``draw(bounds)`` makes every draw of a plan in one call."""
    plan = pool._replay if block else None
    if (plan is None or plan.key != key or not 0 <= t - plan.first < len(plan.bound)
            or plan.bound[t - plan.first] != bound):
        if block:
            pool._replay = None   # free the old plan before drawing the new one
        bounds = ahead() if block else np.array([bound])
        plan = _Replay(key, t, bounds, draw(bounds))
        if block:
            pool._replay = plan
    return plan.idx[t - plan.first]


def sample_pure_replay(pool: DataPool, m: int,
                       rng: Optional[np.random.Generator] = None,
                       count: int = 1, block: bool = False) -> Minibatch:
    """``count`` minibatches of m items, uniform with replacement over
    everything stored, as one block of ``count * m`` rows: rows [i*m, (i+1)*m)
    are the i-th minibatch. One joined draw equals ``count`` consecutive
    draws of m, row for row, and leaves the generator in the same state.

    ``block=True`` serves the rows from the pool's replay plan, made at the
    first such call of an offer plan's range with one draw for each step's
    pool size (a step with an empty pool draws nothing), from the pool's own
    generator.
    """
    if pool.size == 0:
        raise EmptyPoolError("cannot sample from an empty pool")
    g = pool._replay_rng if rng is None else rng

    def ahead():
        found = pool._ahead(pool.last_step)
        if found is None:
            return np.array([pool.size])
        plan, k = found
        return np.minimum(plan.seen[k + 1:], pool.capacity)

    def draw(bounds):
        # a bound of 1 draws without consuming the generator
        return g.integers(0, np.maximum(bounds, 1)[:, None], size=(len(bounds), count * m))

    idx = _replay_draws(pool, ("pure", m, count), pool.last_step, pool.size, block, ahead, draw)
    return Minibatch(inputs=pool._xs.take(idx, 0), labels=pool._ys.take(idx, 0))


def _window_counts(pool: DataPool, window: Optional[int]) -> np.ndarray:
    """Stored items inside the history window of each step t' from the pool's
    last step t to the end of its offer plan, after the step's offers: the
    items stored now plus those the plan's later steps append. Just step t
    without a plan, or when a later step evicts, which changes what the
    window holds: such a pool plans its replay one step at a time."""
    t = pool.last_step
    plan, k = pool._ahead(t) or (None, 0)
    n_steps = 1 if plan is None or plan.at[-1] > plan.at[k + 1] else len(plan.counts) - k
    steps = t + np.arange(n_steps)
    lo = np.ones(n_steps, dtype=np.int64) if window is None else steps - window
    arrival = np.empty(0, dtype=np.int64) if pool.size == 0 else pool._arrival[: pool.size]
    if pool.size != pool.seen_count:   # only a pool that never evicted keeps them sorted
        arrival = np.sort(arrival)
    counts = arrival.searchsorted(steps) - arrival.searchsorted(lo)
    if n_steps > 1:
        # items appended at steps t + 1 .. t' - 1 that lie inside the window
        born = np.concatenate(([0, 0], np.cumsum(plan.fill[k + 1:])))
        counts += born[:-1] - born[np.minimum(np.clip(lo - t, 1, None), np.arange(n_steps))]
    return counts


def sample_mixed_replay(pool: DataPool, current: StreamBatch, m: int,
                        window: Optional[int] = None, count: int = 1,
                        block: bool = False) -> Minibatch:
    """Half the minibatch from the current step, half uniform from the history window.

    The history half draws uniformly from stored items with arrival step in
    [t - window, t - 1]; window=None means t-1 (full coverage). If the window
    holds nothing (e.g. t=1), the whole minibatch falls back to current data.
    The window is found once per call (see ``DataPool.slots_between``).

    ``count`` minibatches come as one block of ``count * m`` rows: rows
    [i*m, (i+1)*m) are the i-th minibatch, current half first. They are drawn
    by one call whose bounds repeat [current, history] ``count`` times, so
    the block equals ``count`` consecutive calls with ``count=1``, row for
    row, and leaves the replay generator in the same state. ``block=True``
    serves them from the pool's replay plan, drawn at the first such call of
    an offer plan's range with each step's window count, for current batches
    of the same size; a pool that evicts later in the range plans one step
    at a time (see ``_window_counts``).
    """
    if m % 2 != 0:
        raise ValueError("mixed replay needs an even minibatch size")
    t, n, half = current.t, current.n, m // 2
    b = (t - 1) if window is None else window
    slots = pool.slots_between(t - b, t - 1)
    scanned = not isinstance(slots, slice)
    lo, hi = (0, len(slots)) if scanned else (slots.start, slots.stop)

    def ahead():
        return _window_counts(pool, window) if t == pool.last_step else np.array([hi - lo])

    def draw(bounds):
        # per step and minibatch: the current half, then the history half
        # (all current when the window is empty)
        high = np.stack((np.full(len(bounds), n), np.where(bounds > 0, bounds, n)), 1)
        return pool._replay_rng.integers(0, high[:, None, :, None],
                                         size=(len(bounds), count, 2, half))

    idx = _replay_draws(pool, ("mixed", m, count, window, n), t, hi - lo, block, ahead, draw)
    if hi <= lo:
        idx = idx.reshape(-1)
        return Minibatch(current.inputs.take(idx, 0), current.labels.take(idx, 0))
    cur, hist = idx[:, 0], idx[:, 1]
    hist = slots.take(hist) if scanned else hist + lo
    inputs = np.concatenate((current.inputs.take(cur, 0), pool._xs.take(hist, 0)), 1)
    labels = np.concatenate((current.labels.take(cur, 0), pool._ys.take(hist, 0)), 1)
    return Minibatch(inputs=inputs.reshape(count * m, *inputs.shape[2:]),
                     labels=labels.reshape(count * m, *labels.shape[2:]))
