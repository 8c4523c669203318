"""Accumulated training pool, holdout pool, reservoir storage, replay sampling.

The training pool stores every offered item up to ``capacity``; beyond that it
runs reservoir sampling (algorithm R), so after any prefix of insertions each
offered item is present with probability min(1, capacity / seen_count).

New data is routed per datum: with probability ``holdout_fraction`` an item
goes to the holdout pool (online information-retention validation set), else
it is offered to the training pool. Routing coins come from a random-access
substream keyed by the arrival step, so the routing of any step can be
re-enumerated independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


class DataPool:
    """Capacity-limited item store with reservoir eviction.

    Items are kept in parallel arrays (features, labels, arrival step, record
    id). ``capacity=None`` means unlimited. ``seed`` pins the reservoir and
    replay randomness; holdout routing is keyed off the same seed.
    """

    def __init__(self, capacity: Optional[int] = None, seed: int = 0,
                 holdout_fraction: float = 0.0):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        if not (0.0 <= holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must be in [0, 1)")
        self.capacity = capacity
        self.seed = seed
        self.holdout_fraction = holdout_fraction
        self.size = 0
        self.seen_count = 0
        self.last_step = 0
        self._xs: Optional[np.ndarray] = None
        self._ys: Optional[np.ndarray] = None
        self._arrival: Optional[np.ndarray] = None
        self._rid: Optional[np.ndarray] = None
        self._undo: Optional[list] = None   # rows overwritten since checkpoint()
        self._ckpt_id = 0
        self._coins = (None, None, None)    # (block, n, coins) of the latest read

    _RNGS = ("_reservoir_rng", "_replay_rng")   # each built on its first draw
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

    # -- storage ------------------------------------------------------------

    def _ensure_storage(self, xs: np.ndarray, ys: np.ndarray, extra: int):
        if self._xs is None:
            alloc = self.capacity if self.capacity is not None else max(64, extra)
            self._xs = np.empty((alloc,) + xs.shape[1:], dtype=np.float64)
            self._ys = np.empty((alloc,) + ys.shape[1:], dtype=ys.dtype)
            self._arrival = np.empty(alloc, dtype=np.int64)
            self._rid = np.empty(alloc, dtype=np.int64)
        elif self.capacity is None and self.size + extra > len(self._xs):
            alloc = max(2 * len(self._xs), self.size + extra)
            for name in ("_xs", "_ys", "_arrival", "_rid"):
                old = getattr(self, name)
                new = np.empty((alloc,) + old.shape[1:], dtype=old.dtype)
                new[: self.size] = old[: self.size]
                setattr(self, name, new)

    def offer(self, xs: np.ndarray, ys: np.ndarray, t: int, rids: np.ndarray):
        """Offer a block of items; reservoir-evict past capacity.

        Steps must not decrease (an equal step is allowed: the holdout's
        empty offers reuse it), so a pool that has never dropped or
        overwritten an item stores its arrivals in non-decreasing order.
        """
        if t < self.last_step:
            raise ValueError(f"step {t} is below last offered step {self.last_step}")
        n = len(xs)
        if n == 0:
            self.last_step = t
            return
        self._ensure_storage(xs, ys, n)
        cap = self.capacity if self.capacity is not None else self.seen_count + n
        fill = min(max(cap - self.seen_count, 0), n)
        if fill:
            new = slice(self.size, self.size + fill)
            self._xs[new], self._ys[new] = xs[:fill], ys[:fill]
            self._arrival[new], self._rid[new] = t, rids[:fill]
            self.size += fill
        if fill < n:
            # Algorithm R: item with 0-based global index i survives at slot
            # j ~ Uniform{0..i} iff j < capacity. A slot drawn twice keeps the
            # later item, so each drawn slot is written once, with its last draw.
            idx = self.seen_count + np.arange(fill, n)
            slots = self._reservoir_rng.integers(0, idx + 1)
            hit = (slots < cap).nonzero()[0]
            if len(hit):
                j = slots.take(hit)
                if len(hit) > 1:
                    j, last = np.unique(j[::-1], return_index=True)
                    hit = hit[::-1].take(last)
                src = fill + hit
                if self._undo is not None:
                    self._undo.append((j, self._xs.take(j, 0), self._ys.take(j, 0),
                                       self._arrival.take(j), self._rid.take(j)))
                self._xs[j], self._ys[j] = xs.take(src, 0), ys.take(src, 0)
                self._arrival[j], self._rid[j] = t, rids.take(src)
        self.seen_count += n
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

        The checkpoint holds the counters and the states of the generators
        built so far (one never drawn is not recorded), not items: until the
        next checkpoint, each evicting ``offer`` logs one entry of the old
        rows it overwrites, and items appended past ``size`` need no entry.
        Only the latest checkpoint of a pool can be restored.
        """
        self._ckpt_id += 1
        self._undo = []
        built = vars(self)
        return {"id": self._ckpt_id, "size": self.size, "seen": self.seen_count,
                "last_step": self.last_step, "rngs": {name: built[name].bit_generator.state
                                                      for name in self._RNGS if name in built}}

    def restore(self, ckpt: dict):
        """Write the logged rows back newest first, reset counters and recorded
        generators, drop the ones built since; O(slots overwritten). Idempotent."""
        if ckpt["id"] != self._ckpt_id:
            raise ValueError("only the latest checkpoint of a pool can be restored")
        for j, x, y, arrival, rid in reversed(self._undo):
            self._xs[j], self._ys[j], self._arrival[j], self._rid[j] = x, y, arrival, rid
        self._undo.clear()
        self.size, self.seen_count, self.last_step = ckpt["size"], ckpt["seen"], ckpt["last_step"]
        for name in self._RNGS:
            if name in ckpt["rngs"]:
                getattr(self, name).bit_generator.state = ckpt["rngs"][name]
            else:   # rebuilt as new on its next draw
                vars(self).pop(name, None)


def update(pool: DataPool, holdout: DataPool, batch: StreamBatch):
    """Integrate one revealed batch: route each datum to holdout or training pool.

    Routing coins are drawn from the (seed, HOLDOUT, t) substream (see
    ``DataPool.routing_coins``), so the split of any step is re-enumerable.
    Record ids continue the global offer sequence across both pools.
    """
    t, n, xs, ys = batch.t, batch.n, batch.inputs, batch.labels
    if t <= pool.last_step:
        raise ValueError(f"step {t} does not exceed last integrated step {pool.last_step}")
    base = pool.seen_count + holdout.seen_count
    rids = np.arange(base, base + n, dtype=np.int64)
    to_holdout = None
    if holdout.holdout_fraction > 0.0:
        to_holdout = pool.routing_coins(t, n) < holdout.holdout_fraction
    if to_holdout is None or not to_holdout.any():
        pool.offer(xs, ys, t, rids)
        holdout.offer(xs[:0], ys[:0], t, rids[:0])
        return
    hold, keep = to_holdout.nonzero()[0], (~to_holdout).nonzero()[0]
    pool.offer(xs.take(keep, 0), ys.take(keep, 0), t, rids.take(keep))
    holdout.offer(xs.take(hold, 0), ys.take(hold, 0), t, rids.take(hold))


def sample_pure_replay(pool: DataPool, m: int,
                       rng: Optional[np.random.Generator] = None,
                       count: int = 1) -> Minibatch:
    """``count`` minibatches of m items, uniform with replacement over
    everything stored, as one block of ``count * m`` rows: rows [i*m, (i+1)*m)
    are the i-th minibatch. One joined draw equals ``count`` consecutive
    draws of m, row for row, and leaves the generator in the same state."""
    if pool.size == 0:
        raise EmptyPoolError("cannot sample from an empty pool")
    g = pool._replay_rng if rng is None else rng
    idx = g.integers(0, pool.size, size=count * m)
    return Minibatch(inputs=pool._xs.take(idx, 0), labels=pool._ys.take(idx, 0))


def sample_mixed_replay(pool: DataPool, current: StreamBatch, m: int,
                        window: Optional[int] = None, count: int = 1) -> Minibatch:
    """Half the minibatch from the current step, half uniform from the history window.

    The history half draws uniformly from stored items with arrival step in
    [t - window, t - 1]; window=None means t-1 (full coverage). If the window
    holds nothing (e.g. t=1), the whole minibatch falls back to current data.
    The window is found once per call (see ``DataPool.slots_between``).

    ``count`` minibatches come as one block of ``count * m`` rows: rows
    [i*m, (i+1)*m) are the i-th minibatch, current half first. They are drawn
    by one call whose bounds repeat [current, history] ``count`` times, so
    the block equals ``count`` consecutive calls with ``count=1``, row for
    row, and leaves the replay generator in the same state.
    """
    if m % 2 != 0:
        raise ValueError("mixed replay needs an even minibatch size")
    t = current.t
    b = (t - 1) if window is None else window
    g = pool._replay_rng
    slots = pool.slots_between(t - b, t - 1)
    scanned = not isinstance(slots, slice)
    lo, hi = (0, len(slots)) if scanned else (slots.start, slots.stop)
    if hi <= lo:
        idx = g.integers(0, current.n, size=count * m)
        return Minibatch(current.inputs.take(idx, 0), current.labels.take(idx, 0))
    half = m // 2
    # array bounds (no size=) draw element by element in order: per
    # minibatch, the current half, then the history half
    history = np.arange(count * m) % m >= half
    idx = g.integers(np.where(history, lo, 0),
                     np.where(history, hi, current.n)).reshape(count, m)
    cur, hist = idx[:, :half], idx[:, half:]
    if scanned:
        hist = slots.take(hist)
    inputs = np.concatenate((current.inputs.take(cur, 0), pool._xs.take(hist, 0)), 1)
    labels = np.concatenate((current.labels.take(cur, 0), pool._ys.take(hist, 0)), 1)
    return Minibatch(inputs=inputs.reshape(count * m, *inputs.shape[2:]),
                     labels=labels.reshape(count * m, *labels.shape[2:]))
