"""Base optimizers and the moving-average family.

The moving-average (MA) model is a convex combination of the SGD iterates:
``ma <- gamma * ma + (1 - gamma) * theta`` with gamma in [0, 1]. One averager
(``AmaState``) covers the family. With two MA models (AMA) the weights sit a
factor ``delta`` apart and population search adapts them: every ``k_w``
iterations the better model (by running online validation performance) is
copied over the other and the weights move up or down by ``delta``. One model
is a fixed-weight EMA; no model is plain SGD with online validation only.

Interval hyperparameters, all counted in global update iterations:

* ``k_m``: MA models update every k_m iterations.
* ``k_v``: online validation folds every k_v iterations (one shared holdout
  minibatch evaluated on every MA model and the SGD model).
* ``k_w``: weight adaptation plus running-mean reset every k_w iterations.

All updates mutate state in place and return it; per-event costs can be
tallied into a CostCounter for compute accounting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .metrics import RunningMean
from .model import DivergenceError

log = logging.getLogger(__name__)


@dataclass
class CostCounter:
    """Counts of forward passes, gradient computations, and parameter updates."""

    forward: int = 0
    grad: int = 0
    update: int = 0


def _check_finite(g: np.ndarray):
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient")


# -- base optimizers ----------------------------------------------------------

@dataclass
class SgdState:
    """Heavy-ball SGD: buffer <- beta * buffer + g; theta <- theta - lr * buffer.

    beta = 0 recovers the plain update theta <- theta - lr * g.
    """

    theta: np.ndarray
    momentum: np.ndarray
    beta: float = 0.9
    lr: float = 0.0

    def __post_init__(self):
        if self.momentum.shape != self.theta.shape:
            raise ValueError("momentum buffer shape must match theta")


def init_sgd(theta: np.ndarray, beta: float = 0.9) -> SgdState:
    return SgdState(theta=theta, momentum=np.zeros_like(theta), beta=beta)


def sgd_step(state: SgdState, grad, lr: float) -> SgdState:
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    g = np.asarray(grad)
    if g.shape != state.theta.shape:
        raise ValueError("gradient shape mismatch")
    _check_finite(g)
    state.momentum *= state.beta
    state.momentum += g
    state.theta -= lr * state.momentum
    state.lr = lr
    return state


@dataclass
class AdamState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    lr: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must lie in [0, 1)")
        if self.m.shape != self.theta.shape or self.v.shape != self.theta.shape:
            raise ValueError("moment accumulator shape must match theta")


def init_adam(theta: np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta),
                     beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, grad, lr: float) -> AdamState:
    if lr <= 0.0:
        raise ValueError("learning rate must be positive")
    g = np.asarray(grad)
    if g.shape != state.theta.shape:
        raise ValueError("gradient shape mismatch")
    _check_finite(g)
    state.step += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    state.theta -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.lr = lr
    return state


# -- moving averages ----------------------------------------------------------

def ma_update(ma: np.ndarray, gamma: float, theta: np.ndarray) -> np.ndarray:
    """Elementwise convex combination ma <- gamma * ma + (1 - gamma) * theta."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"MA weight must lie in [0, 1], got {gamma}")
    ma *= gamma
    ma += (1.0 - gamma) * theta
    return ma


@dataclass
class AmaState:
    """The moving-average family: 0, 1 or 2 MA models of the SGD iterates.

    Two models are the adaptive variant (AMA): weights a factor ``delta``
    apart, adapted by population search. One model is a fixed-weight EMA,
    and no model is plain SGD, which still keeps the online validation mean.
    ``val`` holds one running validation mean per MA model and ``val_sgd``
    the SGD model's; they fold every k_v iterations on a shared minibatch and
    reset every k_w iterations. i_best (1-based) selects the MA model used
    for inference and for the sigma signal.

    With ``adapt`` off the k_w window event never fires: no reset and no
    weight move, so a 2-model averager with delta=1 reproduces EMA exactly.
    """

    ma: list
    gammas: list
    val: list
    val_sgd: RunningMean
    delta: float = 5.0
    k_m: int = 10
    k_v: int = 20
    k_w: int = 10000
    i_best: int = 1
    adapt: bool = True
    skipped_validations: int = 0

    def __post_init__(self):
        if not (len(self.ma) == len(self.gammas) == len(self.val) <= 2):
            raise ValueError("need one weight and one validation mean per MA model, "
                             "at most two models")
        for g in self.gammas:
            if not (0.0 <= g <= 1.0):
                raise ValueError("MA weights must lie in [0, 1]")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if min(self.k_m, self.k_v, self.k_w) < 1:
            raise ValueError("k_m, k_v and k_w must be >= 1")

    @property
    def n(self) -> int:
        """Validation folds since the last reset."""
        return self.val_sgd.n

    def best_perf(self) -> float:
        """Running validation performance of the selected model (SGD if none)."""
        return self.val[self.i_best - 1].mean if self.ma else self.val_sgd.mean

    def sigma(self) -> float:
        """Validation-performance gap between the best MA model and the SGD model."""
        return self.best_perf() - self.val_sgd.mean if self.ma else float("nan")

    def search_columns(self) -> tuple:
        """(sigma, gamma_ma1, gamma_ma2, i_best) of the two-model weight search.

        Averagers without a search report (nan, nan, nan, 0).
        """
        if len(self.ma) < 2:
            return float("nan"), float("nan"), float("nan"), 0
        return self.sigma(), self.gammas[0], self.gammas[1], self.i_best


def init_averager(theta0: np.ndarray, n_models: int, gamma0: float = 0.99,
                  delta: float = 5.0, k_m: int = 10, k_v: int = 20, k_w: int = 10000,
                  adapt: bool = True) -> AmaState:
    """n_models copies of theta0 with weights gamma0, gamma0 / delta."""
    if not (0.0 <= gamma0 <= 1.0 and delta > 0.0):
        raise ValueError("need gamma0 in [0, 1] and delta > 0")
    return AmaState(ma=[theta0.copy() for _ in range(n_models)],
                    gammas=[gamma0 / delta ** i for i in range(n_models)],
                    val=[RunningMean() for _ in range(n_models)], val_sgd=RunningMean(),
                    delta=delta, k_m=k_m, k_v=k_v, k_w=k_w, adapt=adapt)


def ama_step(state: AmaState, sgd_theta: np.ndarray, k: int,
             sample_validation: Callable[[], object],
             evaluate: Callable[[np.ndarray, object], float],
             costs: Optional[CostCounter] = None) -> AmaState:
    """One iteration of the moving-average bookkeeping after an SGD step.

    Args:
        state: averager, mutated in place.
        sgd_theta: the SGD model after update iteration k.
        k: global update iteration (1-based).
        sample_validation: returns a holdout minibatch, or None when no
            holdout data exists yet (the validation fold is then skipped and
            counted in ``skipped_validations``).
        evaluate: higher-is-better performance of parameters on a minibatch.
        costs: optional compute accounting.
    """
    if k < 1:
        raise ValueError("iteration counter is 1-based")
    if k % state.k_m == 0:
        for ma, gamma in zip(state.ma, state.gammas):
            ma_update(ma, gamma, sgd_theta)
        if costs is not None:
            costs.update += len(state.ma)
    if k % state.k_v == 0:
        batch = sample_validation()
        if batch is None:
            state.skipped_validations += 1
            log.warning("no holdout data at validation iteration %d; fold skipped", k)
        else:
            for ma, acc in zip(state.ma, state.val):
                acc.fold(evaluate(ma, batch))
            state.val_sgd.fold(evaluate(sgd_theta, batch))
            if costs is not None:
                costs.forward += len(state.ma) + 1
            if len(state.ma) == 2:
                acc1, acc2 = state.val[0].mean, state.val[1].mean
                if acc1 > acc2:
                    state.i_best = 1
                elif acc2 > acc1:
                    state.i_best = 2
                # exact tie: keep the previous selection
    if state.adapt and k % state.k_w == 0:
        for acc in state.val + [state.val_sgd]:
            acc.reset()
        if len(state.ma) == 2:
            # copy the better model over the other, move both weights by delta
            (ma1, ma2), (g1, g2) = state.ma, state.gammas
            if state.i_best == 1:
                g1 = min(1.0, state.delta * g1)
                state.gammas = [g1, g1 / state.delta]
                ma2[:] = ma1
                state.i_best = 2
            else:
                state.gammas = [g1 / state.delta, g2 / state.delta]
                ma1[:] = ma2
                state.i_best = 1
    return state


def best_ma(state: AmaState) -> np.ndarray:
    """The MA model currently selected for inference."""
    return state.ma[state.i_best - 1]


def unfolded_ma_coefficients(gammas: np.ndarray) -> np.ndarray:
    """Coefficients of theta_0..theta_k in the unrolled MA recursion.

    For weights gamma_1..gamma_k the MA model equals
    sum_i coeff[i] * theta_i with coeff[k] = 1 - gamma_k,
    coeff[i] = (1 - gamma_i) * prod_{j>i} gamma_j for 0 < i < k, and
    coeff[0] = prod_j gamma_j. The coefficients sum to 1 for any weight
    sequence; tests rely on this identity.
    """
    gammas = np.asarray(gammas, dtype=float)
    k = len(gammas)
    coeffs = np.empty(k + 1)
    suffix = np.concatenate([np.cumprod(gammas[::-1])[::-1], [1.0]])
    coeffs[0] = suffix[0]
    for i in range(1, k + 1):
        coeffs[i] = (1.0 - gammas[i - 1]) * suffix[i]
    return coeffs


# -- checkpointing -------------------------------------------------------------

def save_optimizer(path, base, ma=None):
    """Serialize optimizer state (and optional averager state) to an .npz archive.

    Float64 values round-trip exactly, so a restored optimizer continues
    bit-identically to one that was never saved.
    """
    blobs = {}
    if isinstance(base, SgdState):
        blobs.update(base_kind="sgd", base_theta=base.theta,
                     base_momentum=base.momentum,
                     base_scalars=np.array([base.beta, base.lr]))
    elif isinstance(base, AdamState):
        blobs.update(base_kind="adam", base_theta=base.theta,
                     base_m=base.m, base_v=base.v,
                     base_scalars=np.array([base.beta1, base.beta2, base.eps,
                                            float(base.step), base.lr]))
    else:
        raise TypeError(f"unsupported base optimizer {type(base)!r}")
    if isinstance(ma, AmaState):
        blobs.update(ma_models=np.array(ma.ma).reshape(-1, len(base.theta)),
                     ma_gammas=np.array(ma.gammas, dtype=float),
                     ma_means=np.array([acc.mean for acc in ma.val + [ma.val_sgd]]),
                     ma_scalars=np.array([ma.delta, float(ma.k_m), float(ma.k_v),
                                          float(ma.k_w), float(ma.n), float(ma.i_best),
                                          float(ma.adapt),
                                          float(ma.skipped_validations)]))
    elif ma is not None:
        raise TypeError(f"unsupported MA state {type(ma)!r}")
    np.savez(path, **blobs)


def load_optimizer(path):
    """Restore (base_state, averager) saved by save_optimizer."""
    with np.load(path, allow_pickle=False) as z:
        kind = str(z["base_kind"])
        if kind == "sgd":
            beta, lr = z["base_scalars"]
            base = SgdState(theta=z["base_theta"].copy(),
                            momentum=z["base_momentum"].copy(), beta=float(beta),
                            lr=float(lr))
        else:
            b1, b2, eps, step, lr = z["base_scalars"]
            base = AdamState(theta=z["base_theta"].copy(),
                             m=z["base_m"].copy(), v=z["base_v"].copy(),
                             beta1=float(b1), beta2=float(b2), eps=float(eps),
                             step=int(step), lr=float(lr))
        ma = None
        if "ma_models" in z:
            delta, k_m, k_v, k_w, n, i_best, adapt, skipped = z["ma_scalars"]
            means = [RunningMean(float(m), int(n)) for m in z["ma_means"]]
            ma = AmaState(ma=[v.copy() for v in z["ma_models"]],
                          gammas=[float(g) for g in z["ma_gammas"]],
                          val=means[:-1], val_sgd=means[-1], delta=float(delta),
                          k_m=int(k_m), k_v=int(k_v), k_w=int(k_w), i_best=int(i_best),
                          adapt=bool(adapt), skipped_validations=int(skipped))
    return base, ma
