"""Empirical verification of the SGD convergence bounds on drifting quadratics.

For a non-stationary sequence of objectives l_k under Lipschitz smoothness
(constant L), unbiased bounded gradient noise (rho), and bounded per-iteration
objective change (chi_k), running SGD with rates alpha_k < L/2 gives

    min_{j in 0..k} E ||grad l_{j+1}(theta_j)||^2  <=  T1 + T2 + T3,

with D(k) = sum_{j=0..k} (2 alpha_{j+1} - L alpha_{j+1}^2) and

    T1 = 2 (l_1(theta_0) - E[l_{k+2}(theta_{k+1})]) / D(k)
    T2 = L rho^2 sum alpha_{j+1}^2 / D(k)
    T3 = 2 sum chi_{j+1} / D(k).

The stationary case drops T3 and the remaining two terms reduce to the
classical result. On the drifting quadratic all constants are analytic, so the
verifier estimates only the expectations (by seed averaging) and checks the
inequality with reported standard errors. chi_k is a uniform bound over a
compact ball ||theta|| <= radius; trajectories leaving the ball are flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .rng import ball_uniform, substream
from .stream import DriftingQuadraticSpec


class AssumptionError(ValueError):
    """A theorem precondition failed; the message names the assumption."""


@dataclass
class BoundInputs:
    """Everything needed to evaluate the bound terms at any checkpoint k.

    alphas[j] is alpha_{j+1} (the rate used at update j+1); chis[j] is
    chi_{j+1}. final_losses[k] estimates E[l_{k+2}(theta_{k+1})] (stationary
    mode: E[l(theta_{k+1})]). chis=None selects the stationary two-term bound.
    """

    lipschitz: float
    rho: float
    alphas: np.ndarray
    initial_loss: float
    final_losses: np.ndarray
    chis: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.lipschitz < 0 or self.rho < 0:
            raise AssumptionError("A1/A3: constants L and rho must be non-negative")
        if self.chis is not None and np.any(np.asarray(self.chis) < 0):
            raise AssumptionError("A4: chi_k must be non-negative")

    def denominator(self, k: int) -> float:
        """D(k) = sum_{j=0..k} (2 alpha_{j+1} - L alpha_{j+1}^2)."""
        a = np.asarray(self.alphas[: k + 1], dtype=float)
        return float(np.sum(2.0 * a - self.lipschitz * a * a))


def check_rates(alphas: np.ndarray, lipschitz: float):
    """Theorem preconditions on the learning-rate sequence."""
    a = np.asarray(alphas, dtype=float)
    if np.any(a >= lipschitz / 2.0):
        k = int(np.argmax(a >= lipschitz / 2.0))
        raise AssumptionError(
            f"precondition alpha_k < L/2 failed at k={k + 1}: "
            f"alpha={a[k]:.6g}, L/2={lipschitz / 2.0:.6g}")
    if np.any(2.0 * a - lipschitz * a * a <= 0.0):
        k = int(np.argmax(2.0 * a - lipschitz * a * a <= 0.0))
        raise AssumptionError(
            f"denominator 2*alpha - L*alpha^2 not positive at k={k + 1}")


def bound_terms(inputs: BoundInputs, k: int):
    """(T1, T2, T3) at checkpoint k; T3 is 0 in stationary mode."""
    if not (0 <= k < len(inputs.alphas)):
        raise ValueError(f"checkpoint {k} outside the recorded horizon")
    a = np.asarray(inputs.alphas[: k + 1], dtype=float)
    check_rates(a, inputs.lipschitz)
    denom = inputs.denominator(k)
    t1 = 2.0 * (inputs.initial_loss - float(inputs.final_losses[k])) / denom
    t2 = inputs.lipschitz * inputs.rho ** 2 * float(np.sum(a * a)) / denom
    if inputs.chis is None:
        t3 = 0.0
    else:
        t3 = 2.0 * float(np.sum(inputs.chis[: k + 1])) / denom
    return t1, t2, t3


# -- simulation-backed verification --------------------------------------------

@dataclass
class BoundCheckpoint:
    k: int
    lhs: float
    lhs_se: float
    t1: float
    t2: float
    t3: float
    rhs: float
    rhs_se: float
    holds: bool


@dataclass
class BoundReport:
    n_seeds: int
    lipschitz: float
    rho: float
    radius: float
    stationary: bool
    checkpoints: list = field(default_factory=list)
    excursions: int = 0

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checkpoints)

    def rows(self):
        for c in self.checkpoints:
            yield (c.k, c.lhs, c.lhs_se, c.t1, c.t2, c.t3, c.rhs, c.rhs_se,
                   int(c.holds))


def default_radius(quad: DriftingQuadraticSpec) -> float:
    """Compact-domain radius for the chi bound: 10x the initial optimum norm."""
    r = 10.0 * float(np.linalg.norm(quad.center(1)))
    return r if r > 0.0 else 10.0


def simulate_sgd_trajectories(quad: DriftingQuadraticSpec, alphas: np.ndarray,
                              k_max: int, n_seeds: int, base_seed: int = 0):
    """SGD from theta_0 = 0 on the per-iteration drifting objective, vectorized
    across seeds.

    Returns (grad_sq, lookahead, max_norm): grad_sq[s, j] is the exact
    ||grad l_{j+1}(theta_j)||^2 along seed s's trajectory, lookahead[s, j] is
    l_{j+2}(theta_{j+1}), and max_norm[s] tracks the largest ||theta|| visited.
    """
    d = quad.dim
    a_eig = quad.eigenvalues()
    if len(alphas) < k_max + 2:
        raise ValueError("need alpha_1 .. alpha_{k_max+2}")
    noise = np.empty((n_seeds, k_max + 2, d))
    for s in range(n_seeds):
        g = substream(base_seed + s, rngmod.NOISE)
        noise[s] = ball_uniform(g, k_max + 2, d, quad.noise_radius)
    theta = np.zeros((n_seeds, d))
    grad_sq = np.empty((n_seeds, k_max + 1))
    lookahead = np.empty((n_seeds, k_max + 1))
    max_norm = np.zeros(n_seeds)
    for j in range(k_max + 1):
        c_next = quad.center(j + 1)
        grad_true = a_eig[None, :] * (theta - c_next[None, :])
        grad_sq[:, j] = np.sum(grad_true * grad_true, axis=1)
        g_stoch = grad_true + a_eig[None, :] * noise[:, j, :]
        theta = theta - alphas[j] * g_stoch
        max_norm = np.maximum(max_norm, np.linalg.norm(theta, axis=1))
        lookahead[:, j] = quad.loss_at(theta, j + 2)
    return grad_sq, lookahead, max_norm


def verify_bound(quad: DriftingQuadraticSpec, alphas: Sequence[float], k_max: int,
                 n_seeds: int = 20, base_seed: int = 0,
                 radius: Optional[float] = None) -> BoundReport:
    """Run seed-averaged SGD from theta_0 = 0 and check the bound at each
    checkpoint: k = 4, 8, 16, ... below k_max, and k_max.

    The inequality is accepted when the seed-averaged left side does not
    exceed the right side by more than two combined standard errors.
    """
    if n_seeds < 2:
        raise ValueError("need at least 2 seeds to estimate standard errors")
    alphas = np.asarray(alphas, dtype=float)
    lipschitz = quad.lipschitz()
    check_rates(alphas[: k_max + 2], lipschitz)
    radius = default_radius(quad) if radius is None else radius
    stationary = not np.any(np.asarray(quad.velocity))
    grad_sq, lookahead, max_norm = simulate_sgd_trajectories(
        quad, alphas, k_max, n_seeds, base_seed)
    initial_loss = float(quad.loss_at(np.zeros(quad.dim), 1))
    chis = None if stationary else np.asarray(quad.chi(np.arange(1, k_max + 2), radius))
    mean_grad = grad_sq.mean(axis=0)
    sd_grad = grad_sq.std(axis=0, ddof=1)
    mean_look = lookahead.mean(axis=0)
    sd_look = lookahead.std(axis=0, ddof=1)
    checkpoints = sorted({2 ** i for i in range(2, 40) if 2 ** i <= k_max} | {k_max})
    report = BoundReport(n_seeds=n_seeds, lipschitz=lipschitz, rho=quad.noise_bound(),
                         radius=radius, stationary=stationary,
                         excursions=int(np.sum(max_norm > radius)))
    inputs = BoundInputs(lipschitz=lipschitz, rho=quad.noise_bound(),
                         alphas=alphas, initial_loss=initial_loss,
                         final_losses=mean_look, chis=chis)
    for k in checkpoints:
        j_star = int(np.argmin(mean_grad[: k + 1]))
        lhs = float(mean_grad[j_star])
        lhs_se = float(sd_grad[j_star]) / math.sqrt(n_seeds)
        t1, t2, t3 = bound_terms(inputs, k)
        rhs = t1 + t2 + t3
        rhs_se = 2.0 * float(sd_look[k]) / math.sqrt(n_seeds) / inputs.denominator(k)
        holds = lhs <= rhs + 2.0 * math.hypot(lhs_se, rhs_se)
        report.checkpoints.append(BoundCheckpoint(
            k=k, lhs=lhs, lhs_se=lhs_se, t1=t1, t2=t2, t3=t3, rhs=rhs,
            rhs_se=rhs_se, holds=holds))
    return report


def make_rate_schedule(kind: str, alpha0: float, n: int,
                       halve_every: int = 0) -> np.ndarray:
    """Rate sequences used by the bound verifier.

    constant: alpha0 everywhere. invsqrt: alpha0 / sqrt(k). halving:
    alpha0 * 0.5^floor((k-1)/halve_every), the anneal-toward-zero pattern that
    makes the non-stationarity term blow up.
    """
    k = np.arange(1, n + 1, dtype=float)
    if kind == "constant":
        return np.full(n, alpha0, dtype=float)
    if kind == "invsqrt":
        return alpha0 / np.sqrt(k)
    if kind == "halving":
        if halve_every < 1:
            raise ValueError("halving schedule needs halve_every >= 1")
        return alpha0 * 0.5 ** np.floor((k - 1) / halve_every)
    raise ValueError(f"unknown rate schedule {kind!r}")
