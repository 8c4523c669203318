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

from .model import DivergenceError

log = logging.getLogger(__name__)


@dataclass
class CostCounter:
    """Counts of forward passes, gradient computations, and parameter updates."""

    forward: int = 0
    grad: int = 0
    update: int = 0


def _refusal(lr: float) -> Exception:
    """Why a base step moves nothing: the rate, or else a non-finite gradient."""
    if lr <= 0.0:
        return ValueError("learning rate must be positive")
    return DivergenceError("non-finite gradient")


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
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"momentum beta must lie in [0, 1), got {self.beta}")
        if self.momentum.shape != self.theta.shape:
            raise ValueError("momentum buffer shape must match theta")


def init_sgd(theta: np.ndarray, beta: float = 0.9) -> SgdState:
    return SgdState(theta=theta, momentum=np.zeros_like(theta), beta=beta)


def sgd_step(state: SgdState, grad: np.ndarray, lr: float) -> SgdState:
    """The heavy-ball step on grad, an array of theta's shape (a run's
    gradient buffer, whose shape its ``Workspace`` fixed): nothing moves
    unless lr is positive and every entry of grad is finite."""
    if lr <= 0.0 or not np.logical_and.reduce(np.isfinite(grad)):
        raise _refusal(lr)
    state.momentum *= state.beta
    state.momentum += grad
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
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.m.shape != self.theta.shape or self.v.shape != self.theta.shape:
            raise ValueError("moment accumulator shape must match theta")


def init_adam(theta: np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta),
                     beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, grad: np.ndarray, lr: float) -> AdamState:
    """The Adam step on grad, as ``sgd_step`` takes its gradient and refuses it."""
    if lr <= 0.0 or not np.logical_and.reduce(np.isfinite(grad)):
        raise _refusal(lr)
    state.step += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    state.theta -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.lr = lr
    return state


# -- moving averages ----------------------------------------------------------

def ma_update(ma: np.ndarray, gamma, theta: np.ndarray) -> np.ndarray:
    """Elementwise convex combination ma <- gamma * ma + (1 - gamma) * theta, in
    one pass for a stack of models (n, P) with one weight each in gamma."""
    gamma = np.asarray(gamma, dtype=float)[..., None]
    if not np.logical_and.reduce((0.0 <= gamma) & (gamma <= 1.0), axis=None):
        raise ValueError(f"MA weight must lie in [0, 1], got {gamma.ravel().tolist()}")
    ma *= gamma
    ma += (1.0 - gamma) * theta
    return ma


@dataclass
class AmaState:
    """The moving-average family: 0, 1 or 2 MA models of the SGD iterates.

    ``models`` holds the MA models (``ma``) and the SGD iterate (``sgd``, which
    the base optimizer steps) as rows of one array, scored by a fold in one
    call. Two models are the adaptive variant (AMA): weights a factor ``delta``
    apart, adapted by population search. One model is a fixed-weight EMA,
    and no model is plain SGD, which still keeps the online validation mean.
    ``means`` holds one running validation mean per row of ``models`` (the
    MA models', then the SGD model's), over the ``n`` folds since the last
    reset; they fold every k_v iterations on a shared minibatch and reset
    every k_w iterations. i_best (1-based) selects the MA model used for
    inference and for the sigma signal (with no MA model, the SGD iterate).

    With ``adapt`` off the k_w window event never fires: no reset and no
    weight move, so a 2-model averager with delta=1 reproduces EMA exactly.
    """

    models: np.ndarray
    gammas: list
    means: list
    n: int = 0
    delta: float = 5.0
    k_m: int = 10
    k_v: int = 20
    k_w: int = 10000
    i_best: int = 1
    adapt: bool = True
    skipped_validations: int = 0

    def __post_init__(self):
        if not (len(self.models) - 1 == len(self.gammas) == len(self.means) - 1 <= 2):
            raise ValueError("need one weight per MA model and one validation mean per "
                             "model, at most two MA models")
        for g in self.gammas:
            if not (0.0 <= g <= 1.0):
                raise ValueError("MA weights must lie in [0, 1]")
        if self.delta < 1.0:   # below 1 a down-move raises the weights, past 1 at times
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if min(self.k_m, self.k_v, self.k_w) < 1:
            raise ValueError("k_m, k_v and k_w must be >= 1")
        self.ma, self.sgd = self.models[:-1], self.models[-1]   # views of the rows

    def best_perf(self) -> float:
        """Running validation performance of the selected model (SGD if none)."""
        return self.means[self.i_best - 1]   # best_ma's row

    def sigma(self) -> float:
        """Validation-performance gap between the best MA model and the SGD model."""
        return self.best_perf() - self.means[-1] if self.gammas else float("nan")

    def search_columns(self) -> tuple:
        """(sigma, gamma_ma1, gamma_ma2, i_best) of the two-model weight search.

        Averagers without a search report (nan, nan, nan, 0).
        """
        if len(self.gammas) < 2:
            return float("nan"), float("nan"), float("nan"), 0
        return self.sigma(), self.gammas[0], self.gammas[1], self.i_best


def init_averager(theta0: np.ndarray, n_models: int, gamma0: float = 0.99,
                  delta: float = 5.0, k_m: int = 10, k_v: int = 20, k_w: int = 10000,
                  adapt: bool = True) -> AmaState:
    """n_models copies of theta0 with weights gamma0, gamma0 / delta, then its copy ``sgd``."""
    if not (0.0 <= gamma0 <= 1.0 and delta >= 1.0):
        raise ValueError("need gamma0 in [0, 1] and delta >= 1")
    return AmaState(models=np.tile(theta0, (n_models + 1, 1)),
                    gammas=[gamma0 / delta ** i for i in range(n_models)],
                    means=[0.0] * (n_models + 1),
                    delta=delta, k_m=k_m, k_v=k_v, k_w=k_w, adapt=adapt)


def ama_step(state: AmaState, k: int, sample_validation: Callable[[], object],
             evaluate: Callable[[np.ndarray, object], list],
             costs: Optional[CostCounter] = None) -> AmaState:
    """One iteration of the moving-average bookkeeping after an SGD step.

    Args:
        state: averager, mutated in place; ``sgd`` is the model after iteration k.
        k: global update iteration (1-based).
        sample_validation: returns a holdout minibatch, or None when no
            holdout data exists yet (the validation fold is then skipped and
            counted in ``skipped_validations``).
        evaluate: higher-is-better performance of each row of a stack on a minibatch.
        costs: optional compute accounting.
    """
    if k < 1:
        raise ValueError("iteration counter is 1-based")
    if k % state.k_m == 0 and state.gammas:
        ma_update(state.ma, state.gammas, state.sgd)
        if costs is not None:
            costs.update += len(state.gammas)
    if k % state.k_v == 0:
        batch = sample_validation()
        if batch is None:
            state.skipped_validations += 1
            log.warning("no holdout data at validation iteration %d; fold skipped", k)
        else:
            n = state.n
            state.means = [(n * m + x) / (n + 1)
                           for m, x in zip(state.means, evaluate(state.models, batch))]
            state.n = n + 1
            if costs is not None:
                costs.forward += len(state.models)
            if len(state.gammas) == 2:
                acc1, acc2 = state.means[:2]
                if acc1 > acc2:
                    state.i_best = 1
                elif acc2 > acc1:
                    state.i_best = 2
                # exact tie: keep the previous selection
    if state.adapt and k % state.k_w == 0:
        state.means = [0.0] * len(state.means)
        state.n = 0
        if len(state.gammas) == 2:
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
    """The MA model currently selected for inference; with none, the SGD iterate."""
    return state.models[state.i_best - 1]


# -- checkpointing -------------------------------------------------------------

def save_optimizer(path, base, ma=None):
    """Serialize optimizer state (and optional averager state) to an .npz
    archive whose float64 arrays hold every value exactly (the README lists
    the keys and the order of the scalars)."""
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
                     ma_means=np.array(ma.means),
                     ma_scalars=np.array([ma.delta, float(ma.k_m), float(ma.k_v),
                                          float(ma.k_w), float(ma.n), float(ma.i_best),
                                          float(ma.adapt),
                                          float(ma.skipped_validations)]))
    elif ma is not None:
        raise TypeError(f"unsupported MA state {type(ma)!r}")
    np.savez(path, **blobs)

