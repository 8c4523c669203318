"""Learning-rate controllers: one per run, built from a config's ``schedule``
block by ``controller``.

A controller gives the rate of iteration k, ``alpha(k)``, and is shown every
validation fold the run scores through ``observe(k, val_perf, sigma)``, which
returns the fold's ``schedule.csv`` row ``(k, alpha, sigma, val_perf,
conditions)``, or None. Constant, cyclic and trace rates read no validation:
they observe nothing and write no row.

Reduce-when-plateau (rwp) and MALR share one plateau rule. It cuts the rate
by the factor ``beta_lr`` on conditions computed from the validation signal
and from the gap ``sigma_k`` between the moving-average model and the SGD
model on the same signal:

* C1: validation performance has not improved for k_r iterations.
* C2: sigma has not increased for k_r iterations.
* C3: sigma exceeds the threshold ``epsilon``.

rwp computes C1 alone and cuts when it holds. MALR computes all three and
cuts when C1 and every enabled extra condition (``use_c2``, ``use_c3``) hold.
C3 bounds the rate away from zero once the MA advantage vanishes, which is
exactly the regime where further reduction stops being useful. A row's
``conditions`` is the bitmask C1 + 2·C2 + 4·C3, so rwp's reads 1 or 0.

Every controller is a pure function of its observations: fed the same
(k, val_perf, sigma) sequence, it gives the same rates and rows.
"""

from __future__ import annotations

import math
import numbers

_NEG_INF = float("-inf")
_TOL = 1e-6  # absolute tolerance of an improvement, to absorb float noise


def _number(name: str, value, positive=True):
    # a bool is not a number here
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or positive and value <= 0):
        raise ValueError(f"{name} must be a finite {'positive ' * positive}number, got {value!r}")
    return value


class Constant:
    """alpha0 at every iteration. The rates that read no validation derive
    from it."""

    def __init__(self, s, period: int):
        self.alpha0, self.period = _number("schedule.alpha0", s.alpha0), period

    def alpha(self, k: int) -> float:
        return self.alpha0

    def observe(self, k: int, val_perf: float, sigma: float):
        """A rate that reads no validation writes no schedule row."""
        return None


class Cyclic(Constant):
    """Cosine rate restarted every ``period`` iterations (one task): alpha0
    at a task's first iteration, decaying toward 0, floored at 1e-12·alpha0."""

    def alpha(self, k: int) -> float:
        j, T = (k - 1) % self.period, self.period
        return max(0.5 * self.alpha0 * (1.0 + math.cos(math.pi * j / T)), 1e-12 * self.alpha0)


class Trace(Constant):
    """A recorded rate per iteration (``lr_trace``), held at its last entry
    past the end."""

    def __init__(self, s, period: int):
        if not isinstance(s.lr_trace, list) or not s.lr_trace:
            raise ValueError("trace schedule requires lr_trace, a list of rates")
        self.trace = [_number("a schedule.lr_trace entry", a) for a in s.lr_trace]
        self.last = len(self.trace) - 1

    def alpha(self, k: int) -> float:
        return self.trace[min(k - 1, self.last)]


class Plateau:
    """rwp and MALR: the rate cut by ``beta_lr`` on plateaus (see the module
    docstring).

    Improvement is strict, beyond the absolute tolerance ``_TOL``. A cut
    restarts both plateaus at the cut's observation. Counters are measured in
    iterations, though observations arrive only at validation folds.
    """

    def __init__(self, s, period: int):
        self.current = _number("schedule.alpha0", s.alpha0)
        self.beta_lr, self.k_r = s.beta_lr, s.k_r
        if not 0.0 < self.beta_lr < 1.0:
            raise ValueError("beta_lr must lie in (0, 1)")
        if self.k_r < 1:
            raise ValueError("k_r must be >= 1")
        self.malr = s.kind == "malr"   # computes C2 and C3
        if self.malr:
            self.epsilon = _number("schedule.epsilon", s.epsilon, positive=False)
            self.use_c2, self.use_c3 = s.use_c2, s.use_c3
        self.best_val = self.best_sigma = _NEG_INF
        self.val_k = self.sigma_k = 0   # iteration of the last improvement
        self.n_cuts = 0

    def alpha(self, k: int) -> float:
        return self.current

    def observe(self, k: int, val_perf: float, sigma: float) -> tuple:
        if val_perf > self.best_val + _TOL:
            self.best_val, self.val_k = val_perf, k
        cut = c1 = k - self.val_k >= self.k_r
        c2 = c3 = False
        if self.malr:
            if sigma > self.best_sigma + _TOL:
                self.best_sigma, self.sigma_k = sigma, k
            c2 = k - self.sigma_k >= self.k_r
            c3 = sigma > self.epsilon
            cut = c1 and (c2 or not self.use_c2) and (c3 or not self.use_c3)
        if cut and self.current * self.beta_lr > 0.0:   # a cut never reaches a rate of 0
            self.current *= self.beta_lr
            self.best_val, self.best_sigma = val_perf, sigma
            self.val_k = self.sigma_k = k
            self.n_cuts += 1
        return k, self.current, sigma, val_perf, c1 + 2 * c2 + 4 * c3


_KINDS = {"constant": Constant, "cyclic": Cyclic, "trace": Trace, "rwp": Plateau,
          "malr": Plateau}


def controller(s, period: int):
    """The rate controller of a ``schedule`` block. ``period`` is the length
    of a task in iterations, which only ``cyclic`` reads. Raises ValueError
    on a kind or value the schedule cannot use."""
    if s.kind not in _KINDS:
        raise ValueError(f"unknown schedule kind {s.kind!r}")
    return _KINDS[s.kind](s, period)
