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
from functools import lru_cache

import numpy as np

from .datapool import DataPool, EmptyPoolError, Minibatch
from .model import ModelSpec, ParamVector, validation_performance
from .stream import StreamSpec, eval_batch


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

    def record_step_ahead(self, j: int, perf: float):
        if j in self.step_ahead:
            raise MetricError(f"step-ahead record {j} already exists")
        self.step_ahead[j] = perf

    def learning_efficacy(self, t: int) -> float:
        """Prefix mean over j = 1..t of step-(j+1) performance under theta_j."""
        missing = [j for j in range(1, t + 1) if j not in self.step_ahead]
        if missing:
            raise MetricError(f"missing step-ahead records for steps {missing[:5]}")
        return float(np.mean([self.step_ahead[j] for j in range(1, t + 1)]))


def information_retention(spec: ModelSpec, theta: ParamVector, holdout: DataPool,
                          t: int, metric: str = "accuracy") -> float:
    """Performance of theta on all holdout items with arrival step <= t."""
    if holdout.size == 0:
        raise EmptyPoolError("holdout pool is empty")
    xs, ys, arrival = holdout.items()
    mask = arrival <= t
    if not mask.any():
        raise EmptyPoolError(f"holdout pool has no items from steps <= {t}")
    return validation_performance(spec, theta, Minibatch(xs[mask], ys[mask]),
                                  metric=metric)


@lru_cache(maxsize=8192)
def _eval_batch_cached(stream_spec: StreamSpec, t: int):
    # evaluation windows overlap heavily across recording events; the spec is
    # hashable and batches are treated as read-only
    return eval_batch(stream_spec, t)


def forward_transfer(spec: ModelSpec, theta: ParamVector, stream_spec: StreamSpec,
                     t: int, k1: int, k2: int, metric: str = "accuracy") -> float:
    """Performance of theta on evaluation data from steps t+k1 .. t+k2."""
    if not (k2 > k1 >= 1):
        raise ValueError("need k2 > k1 >= 1")
    if t + k2 > stream_spec.horizon:
        raise MetricError(f"future window [{t + k1}, {t + k2}] exceeds horizon "
                          f"{stream_spec.horizon}")
    batches = [_eval_batch_cached(stream_spec, j) for j in range(t + k1, t + k2 + 1)]
    inputs = np.concatenate([b.inputs for b in batches])
    labels = np.concatenate([b.labels for b in batches])
    return validation_performance(spec, theta, Minibatch(inputs, labels),
                                  metric=metric)
