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
(seed, t), so streams can be replayed or sampled out of order. The protocol
that consumes the batches is ``oclopt.harness.run_protocol_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import rng as rngmod
from .rng import ball_uniform, substream


class HorizonError(ValueError):
    """Requested time step lies outside [1, horizon]."""


@dataclass(frozen=True)
class StreamBatch:
    """One time step's revealed data: inputs plus (eventually revealed) labels."""

    t: int
    inputs: np.ndarray   # (n, d_in)
    labels: np.ndarray   # (n,) int for classification, (n, d) float for regression

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must have equal length")
        if len(self.inputs) < 1:
            raise ValueError("batch must contain at least one datum")

    @property
    def n(self) -> int:
        return len(self.inputs)


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

    def loss_at(self, theta: np.ndarray, t: int) -> float:
        d = theta - self.center(t)
        return 0.5 * float(d @ (self.eigenvalues() * d))

    def grad_at(self, theta: np.ndarray, t) -> np.ndarray:
        return self.eigenvalues() * (theta - self.center(t))

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

    def mean(self, klass: int, t: int, d_in: int) -> np.ndarray:
        angle = 2.0 * np.pi * klass / self.n_classes + self.angular_velocity * t
        m = np.zeros(d_in)
        m[0] = self.mean_radius * np.cos(angle)
        m[1] = self.mean_radius * np.sin(angle)
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

    def task_index(self, t: int) -> int:
        return (t - 1) // self.task_length

    def active_classes(self, t: int) -> np.ndarray:
        j = self.task_index(t)
        base = j * self.classes_per_task
        return (base + np.arange(self.classes_per_task)) % self.n_classes

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


def _generate(spec: StreamSpec, t: int, purpose: int) -> StreamBatch:
    g = substream(spec.seed, purpose, t)
    n = spec.batch_size
    if spec.kind == "drifting-quadratic":
        q = spec.quadratic
        obs = q.center(t)[None, :] + ball_uniform(g, n, q.dim, q.noise_radius)
        return StreamBatch(t=t, inputs=obs, labels=obs.copy())
    if spec.kind == "rotating-gaussian":
        r = spec.rotating
        labels = g.integers(0, r.n_classes, size=n)
        means = np.stack([r.mean(int(c), t, spec.d_in) for c in range(r.n_classes)])
        inputs = means[labels] + r.noise_std * g.standard_normal((n, spec.d_in))
        return StreamBatch(t=t, inputs=inputs, labels=labels)
    p = spec.piecewise
    active = p.active_classes(t)
    labels = active[g.integers(0, len(active), size=n)]
    means = p.class_means(spec.seed, spec.d_in)
    inputs = means[labels] + p.noise_std * g.standard_normal((n, spec.d_in))
    return StreamBatch(t=t, inputs=inputs, labels=labels)


def next_batch(spec: StreamSpec, t: int) -> StreamBatch:
    """The t-th training batch. Deterministic in (spec.seed, t)."""
    if not (1 <= t <= spec.horizon):
        raise HorizonError(f"step {t} outside [1, {spec.horizon}]")
    return _generate(spec, t, rngmod.STREAM)


def eval_batch(spec: StreamSpec, t: int) -> StreamBatch:
    """An evaluation batch for step t: same distribution, draws never used in training."""
    if not (1 <= t <= spec.horizon):
        raise HorizonError(f"step {t} outside [1, {spec.horizon}]")
    return _generate(spec, t, rngmod.EVAL)
