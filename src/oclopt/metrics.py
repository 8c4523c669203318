"""Online continual learning metrics and the running-mean validation accumulator.

Three stream-level metrics, all higher-is-better:

* learning efficacy: prefix mean of next-step performance, computed from
  predictions made strictly before each batch's labels were revealed.
* information retention: current-model performance on every holdout item that
  arrived so far.
* forward transfer: current-model performance on evaluation data from the
  future window [t + k1, t + k2], materialized from the deterministic stream
  spec without touching any training path.

For classification streams "performance" is accuracy in [0, 1]; quadratic
streams substitute negative loss so all comparisons stay maximizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datapool import DataPool, EmptyPoolError, Minibatch
from .model import ModelSpec, validation_performance
from .stream import StreamSpec, eval_window


class MetricError(RuntimeError):
    """A metric was requested from records that do not exist."""


@dataclass
class RunningMean:
    """Incremental mean: mean <- (n * mean + x) / (n + 1)."""

    mean: float = 0.0
    n: int = 0

    def fold(self, x: float) -> "RunningMean":
        self.mean = (self.n * self.mean + x) / (self.n + 1)
        self.n += 1
        return self

    def reset(self):
        self.mean = 0.0
        self.n = 0


@dataclass
class MetricLedger:
    """Append-only per-step records backing the metric computations."""

    step_ahead: dict = field(default_factory=dict)   # j -> perf of theta_j on batch j+1
    # step_ahead[1..n] up to the first missing record, in a float64 buffer
    # that doubles when full
    _prefix: np.ndarray = field(default_factory=lambda: np.empty(64), init=False,
                                repr=False, compare=False)
    _n: int = field(default=0, init=False, repr=False, compare=False)

    def record_step_ahead(self, j: int, perf: float):
        if j in self.step_ahead:
            raise MetricError(f"step-ahead record {j} already exists")
        self.step_ahead[j] = perf
        while self._n + 1 in self.step_ahead:
            if self._n == len(self._prefix):
                self._prefix = np.concatenate((self._prefix, np.empty(self._n)))
            self._prefix[self._n] = self.step_ahead[self._n + 1]
            self._n += 1

    def learning_efficacy(self, t: int) -> float:
        """Prefix mean over j = 1..t of step-(j+1) performance under theta_j."""
        if t > self._n:
            missing = [j for j in range(1, t + 1) if j not in self.step_ahead]
            raise MetricError(f"missing step-ahead records for steps {missing[:5]}")
        return float(np.mean(self._prefix[:max(t, 0)]))


def information_retention(spec: ModelSpec, theta: np.ndarray, holdout: DataPool,
                          t: int) -> float:
    """Performance of theta on all holdout items with arrival step <= t."""
    if holdout.size == 0:
        raise EmptyPoolError("holdout pool is empty")
    slots = holdout.slots_between(0, t)   # arrival steps are >= 0
    xs, ys = holdout._xs[slots], holdout._ys[slots]
    if len(ys) == 0:
        raise EmptyPoolError(f"holdout pool has no items from steps <= {t}")
    return validation_performance(spec, theta, Minibatch(xs, ys))


def forward_transfer(spec: ModelSpec, theta: np.ndarray, stream_spec: StreamSpec,
                     t: int, k1: int, k2: int) -> float:
    """Performance of theta on evaluation data from steps t+k1 .. t+k2."""
    if not (k2 > k1 >= 1):
        raise ValueError("need k2 > k1 >= 1")
    if t + k2 > stream_spec.horizon:
        raise MetricError(f"future window [{t + k1}, {t + k2}] exceeds horizon "
                          f"{stream_spec.horizon}")
    return validation_performance(spec, theta, Minibatch(*eval_window(stream_spec, t + k1,
                                                                      t + k2)))
