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
from typing import Optional

import numpy as np

from . import rng as rngmod
from .rng import substream
from .stream import StreamBatch


class EmptyPoolError(RuntimeError):
    """Sampling from a pool with no stored items."""


@dataclass(frozen=True)
class Minibatch:
    """A sampled training minibatch (inputs + labels, no step identity)."""

    inputs: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return len(self.inputs)


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
        self._reservoir_rng = substream(seed, rngmod.RESERVOIR)
        self._replay_rng = substream(seed, rngmod.REPLAY)

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
        self._ensure_storage(xs, ys, n)
        cap = self.capacity if self.capacity is not None else self.seen_count + n
        fill = min(max(cap - self.seen_count, 0), n)
        new = slice(self.size, self.size + fill)
        self._xs[new], self._ys[new] = xs[:fill], ys[:fill]
        self._arrival[new], self._rid[new] = t, rids[:fill]
        self.size += fill
        if fill < n:
            # Algorithm R: item with 0-based global index i survives at slot
            # j ~ Uniform{0..i} iff j < capacity. Slots are written one by one
            # in arrival order: a slot drawn twice keeps the later item.
            idx = self.seen_count + np.arange(fill, n)
            slots = self._reservoir_rng.integers(0, idx + 1)
            for i in np.flatnonzero(slots < cap):
                j = slots[i]
                if self._undo is not None:
                    self._undo.append((j, self._xs[j].copy(), self._ys[j].copy(),
                                       self._arrival[j], self._rid[j]))
                self._xs[j], self._ys[j] = xs[fill + i], ys[fill + i]
                self._arrival[j], self._rid[j] = t, rids[fill + i]
        self.seen_count += n
        self.last_step = t

    # -- views --------------------------------------------------------------

    def record_ids(self) -> np.ndarray:
        return np.array([], dtype=np.int64) if self._rid is None else self._rid[: self.size].copy()

    def items(self):
        """(inputs, labels, arrival steps) copies of the stored items."""
        if self.size == 0:
            raise EmptyPoolError("pool is empty")
        return (self._xs[: self.size].copy(), self._ys[: self.size].copy(),
                self._arrival[: self.size].copy())

    # -- checkpoint / restore (atomic protocol steps) -------------------------

    def checkpoint(self) -> dict:
        """Mark the state ``restore`` returns to and open an undo log.

        The checkpoint holds the counters and generator states, not items:
        until the next checkpoint, ``offer`` logs the old row of each slot
        reservoir eviction overwrites, and items appended past ``size`` need
        no entry. Only the latest checkpoint of a pool can be restored.
        """
        self._ckpt_id += 1
        self._undo = []
        return {"id": self._ckpt_id, "size": self.size, "seen": self.seen_count,
                "last_step": self.last_step,
                "reservoir_state": self._reservoir_rng.bit_generator.state,
                "replay_state": self._replay_rng.bit_generator.state}

    def restore(self, ckpt: dict):
        """Write the logged rows back newest first, then reset counters and
        generators; costs O(slots overwritten), not O(pool). Idempotent."""
        if ckpt["id"] != self._ckpt_id:
            raise ValueError("only the latest checkpoint of a pool can be restored")
        for j, x, y, arrival, rid in reversed(self._undo):
            self._xs[j], self._ys[j], self._arrival[j], self._rid[j] = x, y, arrival, rid
        self._undo.clear()
        self.size, self.seen_count, self.last_step = ckpt["size"], ckpt["seen"], ckpt["last_step"]
        self._reservoir_rng.bit_generator.state = ckpt["reservoir_state"]
        self._replay_rng.bit_generator.state = ckpt["replay_state"]


def update(pool: DataPool, holdout: Optional[DataPool], batch: StreamBatch):
    """Integrate one revealed batch: route each datum to holdout or training pool.

    Routing coins are drawn from the (seed, HOLDOUT, t) substream, so the
    split of any step is re-enumerable. Record ids continue the global offer
    sequence across both pools.
    """
    if batch.t <= pool.last_step:
        raise ValueError(f"step {batch.t} does not exceed last integrated step {pool.last_step}")
    n = batch.n
    base = pool.seen_count + (holdout.seen_count if holdout is not None else 0)
    rids = base + np.arange(n, dtype=np.int64)
    if holdout is not None and holdout.holdout_fraction > 0.0:
        coins = substream(pool.seed, rngmod.HOLDOUT, batch.t).random(n)
        to_holdout = coins < holdout.holdout_fraction
    else:
        to_holdout = np.zeros(n, dtype=bool)
    keep = ~to_holdout
    pool.offer(batch.inputs[keep], batch.labels[keep], batch.t, rids[keep])
    if holdout is not None:
        holdout.offer(batch.inputs[to_holdout], batch.labels[to_holdout], batch.t,
                      rids[to_holdout])


def sample_pure_replay(pool: DataPool, m: int,
                       rng: Optional[np.random.Generator] = None) -> Minibatch:
    """m items uniform with replacement over everything stored."""
    if pool.size == 0:
        raise EmptyPoolError("cannot sample from an empty pool")
    g = pool._replay_rng if rng is None else rng
    idx = g.integers(0, pool.size, size=m)
    return Minibatch(inputs=pool._xs[idx].copy(), labels=pool._ys[idx].copy())


def sample_mixed_replay(pool: DataPool, current: StreamBatch, m: int,
                        window: Optional[int] = None,
                        rng: Optional[np.random.Generator] = None) -> Minibatch:
    """Half the minibatch from the current step, half uniform from the history window.

    The history half draws uniformly from stored items with arrival step in
    [t - window, t - 1]; window=None means t-1 (full coverage). If the window
    holds nothing (e.g. t=1), the whole minibatch falls back to current data.

    A pool that has never dropped or overwritten an item (every unlimited
    pool) keeps its arrivals sorted, so the window is a slot range found by
    binary search: O(log n). Once a capped pool has evicted, the window is
    found by a scan of its O(capacity) arrivals.
    """
    if m % 2 != 0:
        raise ValueError("mixed replay needs an even minibatch size")
    t = current.t
    b = (t - 1) if window is None else window
    g = pool._replay_rng if rng is None else rng
    eligible = None
    if pool.size == 0:
        lo = hi = 0
    elif pool.size == pool.seen_count:
        lo, hi = pool._arrival[: pool.size].searchsorted((t - b, t))
    else:
        arr = pool._arrival[: pool.size]
        eligible = np.flatnonzero((arr >= t - b) & (arr <= t - 1))
        lo, hi = 0, len(eligible)
    if hi <= lo:
        idx_cur = g.integers(0, current.n, size=m)
        return Minibatch(inputs=current.inputs[idx_cur].copy(),
                         labels=current.labels[idx_cur].copy())
    half = m // 2
    idx_cur = g.integers(0, current.n, size=half)
    idx_hist = lo + g.integers(0, hi - lo, size=half)
    if eligible is not None:
        idx_hist = eligible[idx_hist]
    inputs = np.concatenate([current.inputs[idx_cur], pool._xs[idx_hist]])
    labels = np.concatenate([current.labels[idx_cur], pool._ys[idx_hist]])
    return Minibatch(inputs=inputs, labels=labels)


# -- persistence --------------------------------------------------------------
#
# Record file layout (little endian): u32 d_in header, then per record
# d_in float64 features, one float64 label, one u64 arrival step. Vector-label
# pools (the quadratic stream) do not fit this layout and are rejected.

def _record_dtype(d_in: int) -> np.dtype:
    return np.dtype([("x", "<f8", (d_in,)), ("y", "<f8"), ("t", "<u8")])


def save_pool(pool: DataPool, path):
    if pool.size == 0:
        raise EmptyPoolError("refusing to persist an empty pool")
    xs, ys, arrival = pool.items()
    if ys.ndim != 1:
        raise ValueError("persistence supports scalar labels only")
    records = np.empty(pool.size, dtype=_record_dtype(xs.shape[1]))
    records["x"], records["y"], records["t"] = xs, ys, arrival
    with open(path, "wb") as f:
        f.write(np.uint32(xs.shape[1]).astype("<u4").tobytes())
        f.write(records.tobytes())


def load_pool(path, capacity: Optional[int] = None, seed: int = 0,
              label_kind: str = "float") -> DataPool:
    """Load a persisted pool. label_kind 'int' casts labels back to class indices."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise ValueError("corrupt pool file: shorter than the 4-byte header")
    d_in = int(np.frombuffer(raw, dtype="<u4", count=1)[0])
    if d_in == 0:
        raise ValueError("corrupt pool file: zero input dimension")
    rec_size = 8 * d_in + 8 + 8
    if (len(raw) - 4) % rec_size != 0:
        raise ValueError("corrupt pool file: truncated record")
    records = np.frombuffer(raw, dtype=_record_dtype(d_in),
                            count=(len(raw) - 4) // rec_size, offset=4)
    xs = records["x"].astype(np.float64)
    ys = records["y"].astype(np.float64)
    arrival = records["t"].astype(np.int64)
    pool = DataPool(capacity=capacity, seed=seed)
    labels = ys.astype(np.int64) if label_kind == "int" else ys
    order = np.argsort(arrival, kind="stable")
    for t in np.unique(arrival[order]):
        mask = arrival == t
        rids = pool.seen_count + np.arange(int(mask.sum()), dtype=np.int64)
        pool.offer(xs[mask], labels[mask], int(t), rids)
    return pool
