"""Online continual learning metrics.

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

import numpy as np

from .datapool import DataPool, EmptyPoolError, Minibatch
from .model import ModelSpec, validation_performance
from .stream import StreamSpec, eval_window


class MetricError(RuntimeError):
    """A metric was requested from records that do not exist."""


class MetricLedger:
    """Append-only per-step records backing the metric computations: record
    j, the performance of theta_j on batch j + 1, is made after record j - 1."""

    def __init__(self):
        self._records, self._n = np.empty(64), 0   # a float64 buffer, doubled when full

    @property
    def step_ahead(self) -> np.ndarray:
        """The records made so far, read-only: record j at index j - 1."""
        view = self._records[:self._n]
        view.flags.writeable = False
        return view

    def record_step_ahead(self, j: int, perf: float):
        if j != self._n + 1:
            raise MetricError(f"step-ahead record {j} is not the next one, {self._n + 1}")
        if self._n == len(self._records):
            self._records = np.concatenate((self._records, np.empty(self._n)))
        self._records[self._n] = perf
        self._n += 1

    def learning_efficacy(self, t: int) -> float:
        """Prefix mean over j = 1..t of step-(j+1) performance under theta_j."""
        if t > self._n:
            raise MetricError(f"missing step-ahead records for steps {self._n + 1}..{t}")
        return float(np.mean(self.step_ahead[:max(t, 0)]))


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
