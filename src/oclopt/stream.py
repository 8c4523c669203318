"""Synthetic non-stationary data streams.

Three stream families with analytically known drift:

* ``drifting-quadratic``: noisy observations of a linearly moving optimum of a
  fixed quadratic bowl. Smoothness, gradient-noise, and per-step
  non-stationarity constants are available in closed form.
* ``rotating-gaussian``: classification with class means rotating at a fixed
  angular velocity on a circle.
* ``piecewise-task``: task-incremental classification where the active class
  subset switches every ``task_length`` steps (subsets cycle modulo the class
  count).

Batch generation is pure and random-access: batch t depends only on
(seed, t), so streams can be replayed or sampled out of order. Training
batches are read a block of steps at a time (``training_block``), when
``oclopt.datapool.update`` plans the block; ``oclopt.harness.run_protocol_step``
serves them step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import rng as rngmod
from .rng import BLOCK, ball_uniform, substream


class HorizonError(ValueError):
    """Requested time step lies outside [1, horizon]."""


@dataclass(frozen=True)
class DriftingQuadraticSpec:
    """Quadratic bowl 0.5*(theta-c_t)' A (theta-c_t) whose center moves linearly.

    A is diagonal with eigenvalues spaced linearly over [mu, l_smooth], so the
    loss is l_smooth-smooth and mu-strongly convex at every step. Revealed
    data are center observations c_t + eta with eta uniform in the ball of
    radius ``noise_radius``; the induced gradient noise is bounded by
    l_smooth * noise_radius.
    """

    dim: int
    mu: float
    l_smooth: float
    center0: tuple[float, ...]
    velocity: tuple[float, ...]
    noise_radius: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.mu <= self.l_smooth):
            raise ValueError("need 0 < mu <= l_smooth")
        if len(self.center0) != self.dim or len(self.velocity) != self.dim:
            raise ValueError("center0 and velocity must have length dim")
        if not np.all(np.isfinite(self.velocity)) or self.noise_radius < 0:
            raise ValueError("drift magnitudes must be finite and non-negative")

    def eigenvalues(self) -> np.ndarray:
        if self.dim == 1:
            return np.array([self.l_smooth])
        return np.linspace(self.mu, self.l_smooth, self.dim)

    def center(self, t) -> np.ndarray:
        c0 = np.asarray(self.center0, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return c0 + v * float(t)
        return c0[None, :] + v[None, :] * t[:, None]

    def loss_at(self, theta: np.ndarray, t: int) -> np.ndarray:
        """The loss at step t of theta, or of each row of theta."""
        d = theta - self.center(t)
        return 0.5 * np.sum(d * d * self.eigenvalues(), axis=-1)

    def lipschitz(self) -> float:
        return self.l_smooth

    def noise_bound(self) -> float:
        """Analytic bound on ||grad - stochastic grad|| for unit batches."""
        return self.l_smooth * self.noise_radius

    def chi(self, t, radius: float) -> np.ndarray:
        """Exact sup over the ball ||theta|| <= radius of |l_{t+1} - l_t|.

        l_{t+1}(th) - l_t(th) = v' A (m - th) with m the midpoint of the two
        centers, so the sup is |v' A m| + radius * ||A v||.
        """
        a = self.eigenvalues()
        v = np.asarray(self.velocity, dtype=float)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        mid = self.center(t) + 0.5 * v[None, :]
        av_norm = float(np.linalg.norm(a * v))
        out = np.abs(mid @ (a * v)) + radius * av_norm
        return out if out.size > 1 else out[0]


@dataclass(frozen=True)
class RotatingGaussianSpec:
    """Classification stream with class means rotating on a circle.

    Class i's mean at step t sits at angle 2*pi*i/n_classes + omega*t, scaled
    by mean_radius, in the first two input dimensions. Extra dimensions are
    pure noise.
    """

    n_classes: int
    mean_radius: float = 2.0
    angular_velocity: float = 0.01
    noise_std: float = 0.5

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if not np.isfinite(self.angular_velocity):
            raise ValueError("drift magnitudes must be finite")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

    def mean(self, klass, t: int, d_in: int) -> np.ndarray:
        """Class ``klass``'s mean at step t; an array of classes gives a row each."""
        angle = 2.0 * np.pi * np.asarray(klass) / self.n_classes + self.angular_velocity * t
        m = np.zeros(angle.shape + (d_in,))
        m[..., 0] = self.mean_radius * np.cos(angle)
        m[..., 1] = self.mean_radius * np.sin(angle)
        return m


@dataclass(frozen=True)
class PiecewiseTaskSpec:
    """Task-incremental stream: the active class subset switches per task.

    Class means are a fixed seeded Gaussian layout; task j activates classes
    [(j*classes_per_task + i) mod n_classes], so subsets cycle when the task
    count exceeds n_classes / classes_per_task.
    """

    n_classes: int
    classes_per_task: int = 2
    task_length: int = 100
    mean_scale: float = 3.0
    noise_std: float = 0.5

    def __post_init__(self):
        if not (1 <= self.classes_per_task <= self.n_classes):
            raise ValueError("classes_per_task must be in [1, n_classes]")
        if self.task_length < 1:
            raise ValueError("task_length must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

    def task_index(self, t: int) -> int:
        return (t - 1) // self.task_length

    def class_means(self, seed: int, d_in: int) -> np.ndarray:
        """The (n_classes, d_in) mean table; cached and read-only."""
        return _class_means(self, seed, d_in)


@lru_cache(maxsize=256)
def _class_means(spec: PiecewiseTaskSpec, seed: int, d_in: int) -> np.ndarray:
    g = substream(seed, rngmod.MEANS)
    means = spec.mean_scale * g.standard_normal((spec.n_classes, d_in))
    means.setflags(write=False)
    return means


@dataclass(frozen=True)
class StreamSpec:
    """Full description of a stream: kind, dimensions, drift, horizon, seed.

    The same seed yields a bit-identical batch sequence.
    """

    kind: str
    d_in: int
    batch_size: int
    horizon: int
    seed: int
    quadratic: Optional[DriftingQuadraticSpec] = None
    rotating: Optional[RotatingGaussianSpec] = None
    piecewise: Optional[PiecewiseTaskSpec] = None

    def __post_init__(self):
        kinds = {"drifting-quadratic", "rotating-gaussian", "piecewise-task"}
        if self.kind not in kinds:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.batch_size < 1 or self.horizon < 1:
            raise ValueError("batch_size and horizon must be >= 1")
        sub = {"drifting-quadratic": self.quadratic,
               "rotating-gaussian": self.rotating,
               "piecewise-task": self.piecewise}[self.kind]
        if sub is None:
            raise ValueError(f"stream kind {self.kind!r} requires its parameter block")
        if self.kind == "drifting-quadratic" and self.quadratic.dim != self.d_in:
            raise ValueError("quadratic dim must equal d_in")
        if self.kind == "rotating-gaussian" and self.d_in < 2:
            raise ValueError("rotating-gaussian needs d_in >= 2")

    # purpose -> {block index: (inputs, labels)}: the blocks served last
    _held = cached_property(lambda self: {})


def _labels(words: np.ndarray, width: int, n: int) -> tuple:
    """(labels, rejected) of rows of raw 64-bit words: n labels in [0, width)
    per row, as ``integers(0, width, size=n)`` makes them from the row's
    words, low half first, by Lemire's method; ``rejected[i]`` marks a row in
    which that method rejects a half and draws again."""
    halves = words.astype("<u8", copy=False).view("<u4")[:, :n]   # each word's low half first
    scaled = halves * np.uint64(width)
    rejected = ((scaled & 0xFFFFFFFF) < (2**32 - width) % width).any(axis=1)
    scaled >>= 32
    return scaled.view(np.int64), rejected


def _fill(spec: StreamSpec, purpose: int, b: int) -> tuple:
    """(inputs, labels) of the steps of block ``b`` that lie in the horizon,
    stacked per step and read-only. Each step draws from its own substream in
    the per-step order (labels, then normals; a quadratic step draws its ball);
    a step takes its labels' raw words, which ``_labels`` scales once per
    block, and a step whose words reject draws again as ``integers`` does.
    The class means, scaling and add run once per block."""
    first = b * BLOCK + 1
    ts = np.arange(first, min(first + BLOCK, spec.horizon + 1))
    draws = rngmod.step_streams(spec.seed, purpose, first, first + len(ts))
    n, d = spec.batch_size, spec.d_in
    if spec.kind == "drifting-quadratic":
        q = spec.quadratic
        inputs = np.stack([ball_uniform(g, n, q.dim, q.noise_radius) for g in draws])
        inputs += q.center(ts)[:, None, :]
        labels = inputs
    else:
        c = spec.rotating or spec.piecewise
        width = c.n_classes if spec.rotating else c.classes_per_task
        inputs = np.empty((len(ts), n, d))
        words = np.zeros((len(ts), (n + 1) // 2), dtype=np.uint64)
        for i, g in enumerate(draws):
            if width > 1:   # integers() draws nothing for one class
                words[i] = g.bit_generator.random_raw(words.shape[1])
            g.standard_normal(out=inputs[i])
        labels, rejected = _labels(words, width, n)
        for i in np.flatnonzero(rejected):
            g = substream(spec.seed, purpose, int(ts[i]))
            labels[i] = g.integers(0, width, size=n)
            g.standard_normal(out=inputs[i])
        if spec.rotating:
            means = c.mean(np.arange(width), ts[:, None], d).reshape(-1, d)
            rows = labels + width * np.arange(len(ts))[:, None]
        else:
            labels = (labels + c.classes_per_task * c.task_index(ts)[:, None]) % c.n_classes
            means, rows = c.class_means(spec.seed, d), labels
        inputs *= c.noise_std
        inputs += means.take(rows, axis=0)
    inputs.setflags(write=False)
    labels.setflags(write=False)
    return inputs, labels


def _blocks(spec: StreamSpec, purpose: int, lo: int, hi: int) -> dict:
    """{b: block b} for blocks lo..hi of a purpose, each built on first read.
    A spec keeps, per purpose, only the blocks of its latest read."""
    held = spec._held.get(purpose, {})
    if not (lo in held and hi in held and len(held) == hi - lo + 1):
        held = spec._held[purpose] = {b: held[b] if b in held else _fill(spec, purpose, b)
                                        for b in range(lo, hi + 1)}
    return held


def training_block(spec: StreamSpec, t: int) -> tuple:
    """(inputs, labels) of the training batches of step t and the later steps
    of its block, stacked per step: read-only views of the served block."""
    b, i = divmod(t - 1, BLOCK)
    inputs, labels = _blocks(spec, rngmod.STREAM, b, b)[b]
    return inputs[i:], labels[i:]


def eval_window(spec: StreamSpec, first: int, last: int) -> tuple:
    """(inputs, labels) of the evaluation batches of steps first..last, joined
    in step order from slices of the blocks that hold them: same distribution
    as training batches, from draws never used in training."""
    if not (1 <= first <= last <= spec.horizon):
        raise HorizonError(f"steps {first}..{last} outside [1, {spec.horizon}]")
    held = _blocks(spec, rngmod.EVAL, (first - 1) // BLOCK, (last - 1) // BLOCK)
    rows = [slice(max(first - 1 - b * BLOCK, 0), last - b * BLOCK) for b in held]
    inputs, labels = (np.concatenate([block[i][r] for block, r in zip(held.values(), rows)])
                      for i in (0, 1))
    return inputs.reshape(-1, *inputs.shape[2:]), labels.reshape(-1, *labels.shape[2:])
