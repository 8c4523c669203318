"""Learning-rate controllers: reduce-when-plateau, MALR, and the cyclic cosine rate.

Reduce-when-plateau (rwp) halves the rate (factor ``beta_lr``) when the
validation signal has not improved for ``k_r`` iterations. MALR adds two
conditions computed from the gap ``sigma_k`` between the moving-average model
and the SGD model on the same validation signal:

* C1: validation performance has not improved for k_r iterations.
* C2: sigma has not increased for k_r iterations.
* C3: sigma exceeds the threshold ``epsilon``.

The rate is reduced only when every enabled condition holds. C3 bounds the
rate away from zero once the MA advantage vanishes, which is exactly the
regime where further reduction stops being useful.

Both controllers are pure functions of the observation trace: feed them the
same (value, iteration) sequence and they make the same decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_NEG_INF = float("-inf")


@dataclass
class ScheduleState:
    """State shared by the plateau-based controllers.

    Improvement is strict, with an absolute tolerance ``tol`` to absorb float
    noise. ``use_c2``/``use_c3`` turn individual MALR conditions off for
    ablations; rwp ignores them. Counters are measured in iterations even
    though updates typically arrive only at validation-refresh events.
    """

    kind: str                 # rwp | malr
    alpha: float
    alpha0: float
    beta_lr: float = 0.5
    k_r: int = 60000
    epsilon: float = 0.03
    tol: float = 1e-6
    use_c2: bool = True
    use_c3: bool = True
    best_val: float = _NEG_INF
    best_sigma: float = _NEG_INF
    last_val_improve_k: int = 0
    last_sigma_increase_k: int = 0
    n_cuts: int = 0
    last_conditions: tuple = (False, False, False)

    def __post_init__(self):
        if self.alpha <= 0.0 or self.alpha0 <= 0.0:
            raise ValueError("learning rates must be positive")
        if not (0.0 < self.beta_lr < 1.0):
            raise ValueError("beta_lr must lie in (0, 1)")
        if self.k_r < 1:
            raise ValueError("k_r must be >= 1")


def init_schedule(kind: str, alpha0: float, beta_lr: float = 0.5, k_r: int = 60000,
                  epsilon: float = 0.03, use_c2: bool = True,
                  use_c3: bool = True) -> ScheduleState:
    if kind not in ("rwp", "malr"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    return ScheduleState(kind=kind, alpha=alpha0, alpha0=alpha0, beta_lr=beta_lr,
                         k_r=k_r, epsilon=epsilon, use_c2=use_c2, use_c3=use_c3)


def _track_val(state: ScheduleState, val_perf: float, k: int):
    if val_perf > state.best_val + state.tol:
        state.best_val = val_perf
        state.last_val_improve_k = k


def _track_sigma(state: ScheduleState, sigma_k: float, k: int):
    if sigma_k > state.best_sigma + state.tol:
        state.best_sigma = sigma_k
        state.last_sigma_increase_k = k


def _cut(state: ScheduleState, val_perf: float, sigma_k: float, k: int):
    state.alpha *= state.beta_lr
    state.best_val = val_perf
    state.best_sigma = sigma_k
    state.last_val_improve_k = k
    state.last_sigma_increase_k = k
    state.n_cuts += 1


def rwp_update(state: ScheduleState, val_perf: float, k: int) -> ScheduleState:
    """Reduce-when-plateau: cut once val_perf stalls for k_r iterations."""
    _track_val(state, val_perf, k)
    c1 = k - state.last_val_improve_k >= state.k_r
    state.last_conditions = (c1, False, False)
    if c1:
        _cut(state, val_perf, _NEG_INF, k)
    return state


def malr_update(state: ScheduleState, val_perf: float, sigma_k: float,
                k: int) -> ScheduleState:
    """MALR: cut only when C1 and every enabled extra condition hold at k."""
    _track_val(state, val_perf, k)
    _track_sigma(state, sigma_k, k)
    c1 = k - state.last_val_improve_k >= state.k_r
    c2 = k - state.last_sigma_increase_k >= state.k_r
    c3 = sigma_k > state.epsilon
    state.last_conditions = (c1, c2, c3)
    if c1 and (c2 or not state.use_c2) and (c3 or not state.use_c3):
        _cut(state, val_perf, sigma_k, k)
    return state


def cyclic_lr(alpha0: float, k_within_task: int, task_length: int) -> float:
    """Cosine rate within one task: alpha0 at the boundary, decaying to 0."""
    if task_length < 1:
        raise ValueError("cyclic schedule requires a known task length")
    if not (0 <= k_within_task < task_length):
        raise ValueError(f"k_within_task {k_within_task} outside [0, {task_length})")
    return 0.5 * alpha0 * (1.0 + math.cos(math.pi * k_within_task / task_length))
