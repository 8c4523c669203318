"""Reference implementations the tests check the program against, and the
helpers that feed and read the program's pools."""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oclopt.datapool import UNSERVED, Served, advance, update
from oclopt.harness import config_from_dict, run_experiment
from oclopt.rng import HOLDOUT, REPLAY, RESERVOIR, ball_uniform, substream


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


def folded_means(folds: list, width: int) -> list:
    """Per-row running means of ``folds``, one list of ``width`` scores per
    fold, folded one score at a time from 0.0 as mean <- (n * mean + x) /
    (n + 1): the averager's fold, frozen."""
    means = [0.0] * width
    for n, scores in enumerate(folds):
        for i, x in enumerate(scores):
            means[i] = (n * means[i] + x) / (n + 1)
    return means


def grad_at(quad, theta: np.ndarray, t) -> np.ndarray:
    """Exact gradient of a ``DriftingQuadraticSpec``'s step-t loss at theta."""
    return quad.eigenvalues() * (theta - quad.center(t))


# a pool capacity larger than any test offers: a pool with it never evicts
ROOM = 10_000


def stored_items(pool):
    """(inputs, labels, arrival steps) copies of the items a ``DataPool``
    stores, in slot order."""
    n = pool.size
    return pool._xs[:n].copy(), pool._ys[:n].copy(), pool._arrival[:n].copy()


class ReferencePool:
    """Per-item Algorithm R, one array write per item: the oracle for offer.
    It stores its items under a ``DataPool``'s names, so the readers here
    read either."""

    def __init__(self, capacity, seed, room, d=2):
        self.capacity, self.size, self.seen_count = capacity, 0, 0
        self._xs = np.empty((room, d))
        self._ys = np.empty(room, dtype=np.int64)
        self._arrival = np.empty(room, dtype=np.int64)
        self.reservoir_rng = substream(seed, RESERVOIR)
        self.replay_rng = substream(seed, REPLAY)

    def offer(self, xs, ys, t):
        n = len(xs)
        if n == 0:
            return
        cap = self.capacity if self.capacity is not None else self.seen_count + n
        fill = min(max(cap - self.seen_count, 0), n)
        for i in range(fill):
            self._xs[self.size] = xs[i]
            self._ys[self.size] = ys[i]
            self._arrival[self.size] = t
            self.size += 1
        if fill < n:
            idx = self.seen_count + np.arange(fill, n)
            slots = self.reservoir_rng.integers(0, idx + 1)
            for i, j in zip(range(fill, n), slots):
                if j < cap:
                    self._xs[j] = xs[i]
                    self._ys[j] = ys[i]
                    self._arrival[j] = t
        self.seen_count += n


def same_items(pool, ref):
    """A pool stores what a ReferencePool stores, slot for slot and dtype for dtype."""
    assert (pool.size, pool.seen_count) == (ref.size, ref.seen_count)
    if pool.size:
        for name in ("_xs", "_ys", "_arrival"):
            a, b = getattr(pool, name), getattr(ref, name)
            assert a.dtype == b.dtype
            assert a[: pool.size].tobytes() == b[: ref.size].tobytes()


def offer_step(pool, t, xs, ys, keep=None):
    """Offer the rows of (xs, ys) that the mask ``keep`` selects (all by
    default) to a ``DataPool`` at step t, as ``datapool.update`` does: the
    rows stacked as one step, as ``stream.training_block`` serves steps, and
    the kept ones planned by the same ``_plan_offers`` call, then taken by
    ``datapool.advance``."""
    rows = np.flatnonzero(np.ones(len(xs), bool) if keep is None else keep)
    pool._plan_offers(t, np.array([len(rows)]), (xs[None], ys[None]), rows)
    advance(Served(t, t + 1, xs[None], ys[None], ((pool, pool._offers),)), t)


def integrate(pool, holdout, spec, t, served=UNSERVED):
    """Take step t of the stream ``spec`` into the pools as
    ``run_protocol_step`` does: at a block's first step (one at or past
    ``served.stop``) plan the block's offers with ``datapool.update``, then
    advance the pools by the step's. Returns the served steps, which the
    next step takes back as ``served``."""
    if t >= served.stop:
        served = update(pool, holdout, spec, t)
    advance(served, t)
    return served


def per_call_pure_replay(pool, m, g):
    """m items uniform with replacement over a ``DataPool``'s stored items,
    drawn from g on their own: the reference for pure replay and folds."""
    idx = g.integers(0, pool.size, size=m)
    return pool._xs[idx], pool._ys[idx]


def scan_mixed_replay(pool, t, current, m, window, g):
    """The mixed draw at step t, whose batch is the ``Minibatch`` current,
    with the eligible history found by a scan of every stored arrival: the
    oracle for sample_mixed_replay."""
    b = (t - 1) if window is None else window
    if pool.size > 0:
        arr = pool._arrival[: pool.size]
        eligible = np.flatnonzero((arr >= t - b) & (arr <= t - 1))
    else:
        eligible = np.array([], dtype=np.int64)
    if len(eligible) == 0:
        idx_cur = g.integers(0, len(current.labels), size=m)
        return current.inputs[idx_cur], current.labels[idx_cur]
    half = m // 2
    idx_cur = g.integers(0, len(current.labels), size=half)
    idx_hist = eligible[g.integers(0, len(eligible), size=half)]
    return (np.concatenate([current.inputs[idx_cur], pool._xs[idx_hist]]),
            np.concatenate([current.labels[idx_cur], pool._ys[idx_hist]]))


def consecutive_draws(sample, count, *args, **kwargs):
    """(inputs, labels) of ``count`` consecutive calls of a per-call reference
    draw, stacked in call order: the reference for one joined draw."""
    draws = [sample(*args, **kwargs) for _ in range(count)]
    return np.concatenate([d[0] for d in draws]), np.concatenate([d[1] for d in draws])


def retained_rows(holdout, t):
    """The rows information retention scores, by copy and mask: every stored
    holdout item with arrival step <= t, copied in slot order."""
    xs, ys, arrival = stored_items(holdout)
    keep = arrival <= t
    return xs[keep], ys[keep]


def step_batch(spec, t, purpose):
    """(inputs, labels) of step t drawn on its own from ``substream(seed,
    purpose, t)``, as streams drew batches before blocks of steps: the
    reference for served batches."""
    g = substream(spec.seed, purpose, t)
    n = spec.batch_size
    if spec.kind == "drifting-quadratic":
        q = spec.quadratic
        obs = q.center(t)[None, :] + ball_uniform(g, n, q.dim, q.noise_radius)
        return obs, obs.copy()
    if spec.kind == "rotating-gaussian":
        r = spec.rotating
        labels = g.integers(0, r.n_classes, size=n)
        means = r.mean(np.arange(r.n_classes), t, spec.d_in)
        return means.take(labels, axis=0) + r.noise_std * g.standard_normal((n, spec.d_in)), labels
    p = spec.piecewise
    first = p.task_index(t) * p.classes_per_task   # task j's classes, mod n_classes
    active = (first + np.arange(p.classes_per_task)) % p.n_classes
    labels = active[g.integers(0, len(active), size=n)]
    means = p.class_means(spec.seed, spec.d_in)
    return means.take(labels, axis=0) + p.noise_std * g.standard_normal((n, spec.d_in)), labels


def step_window(spec, first, last, purpose):
    """Per-step batches of steps first..last, joined in step order."""
    steps = [step_batch(spec, t, purpose) for t in range(first, last + 1)]
    return np.concatenate([x for x, _ in steps]), np.concatenate([y for _, y in steps])


def step_coins(seed, t, n):
    """Holdout routing coins of step t drawn on their own."""
    return substream(seed, HOLDOUT, t).random(n)


def prefix_mean(step_ahead: dict, t: int) -> float:
    """Learning efficacy by walking a {j: perf} dict over j = 1..t."""
    return float(np.mean([step_ahead[j] for j in range(1, t + 1)]))


def run_from_manifest(path, out_dir=None):
    """Rerun the run a ``manifest.json`` records: its config and its seed."""
    manifest = json.loads(Path(path).read_text())
    config = config_from_dict(manifest["config"])
    return run_experiment(config, seed=manifest["seed"], out_dir=out_dir)


# -- the learning rate before one controller set it: ``oclopt.schedule``'s
# plateau state and update functions and ``cyclic_lr``, copied unchanged, and
# ``ReferenceRate``, the branches of ``Run.alpha`` and the rwp/malr dispatch
# and schedule row of ``Run.iterate``. The references for
# ``oclopt.schedule.controller``.

_NEG_INF = float("-inf")
_TOL = 1e-6  # absolute tolerance of an improvement, to absorb float noise


@dataclass
class ScheduleState:
    """State shared by the plateau-based controllers.

    Improvement is strict, beyond the absolute tolerance ``_TOL``.
    ``use_c2``/``use_c3`` turn individual MALR conditions off for
    ablations; rwp ignores them. Counters are measured in iterations even
    though updates typically arrive only at validation-refresh events.
    """

    kind: str                 # rwp | malr
    alpha: float
    alpha0: float
    beta_lr: float = 0.5
    k_r: int = 60000
    epsilon: float = 0.03
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
    if val_perf > state.best_val + _TOL:
        state.best_val = val_perf
        state.last_val_improve_k = k


def _track_sigma(state: ScheduleState, sigma_k: float, k: int):
    if sigma_k > state.best_sigma + _TOL:
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


class ReferenceRate:
    """A schedule block's rate as ``Run`` set it: ``alpha(k)`` is
    ``Run.alpha``, and ``observe`` is ``Run.iterate``'s work at a validation
    fold, returning the schedule row it appended or None. ``task_iters`` is
    the task length in iterations."""

    def __init__(self, s, task_iters):
        self.s, self.task_iters = s, task_iters
        self.sched = None
        if s.kind in ("rwp", "malr"):
            self.sched = init_schedule(s.kind, s.alpha0, beta_lr=s.beta_lr, k_r=s.k_r,
                                       epsilon=s.epsilon, use_c2=s.use_c2,
                                       use_c3=s.use_c3)

    def alpha(self, k: int) -> float:
        s = self.s
        if self.sched is not None:
            return self.sched.alpha
        if s.kind == "constant":
            return s.alpha0
        if s.kind == "cyclic":
            return max(cyclic_lr(s.alpha0, (k - 1) % self.task_iters, self.task_iters),
                       1e-12 * s.alpha0)
        # trace replay: clamp to the recorded horizon
        return s.lr_trace[min(k - 1, len(s.lr_trace) - 1)]

    def observe(self, k, val_perf, sig):
        if self.sched is None:
            return None
        if self.sched.kind == "rwp":
            rwp_update(self.sched, val_perf, k)
        else:
            malr_update(self.sched, val_perf, sig, k)
        mask = sum(1 << i for i, c in enumerate(self.sched.last_conditions) if c)
        return (k, self.sched.alpha, sig, val_perf, mask)


# -- the model's evaluation paths before they shared one forward ---------------

def frozen_loss_and_grad(spec, theta, batch):
    """The kernel before softmax and gradient writes went in place: the oracle
    the in-place kernel must match bit for bit."""
    def softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    x = np.asarray(batch.inputs, dtype=float)
    y = np.asarray(batch.labels)
    n = len(x)
    grad = np.zeros_like(theta)
    if spec.kind == "quadratic-probe":
        a = np.asarray(spec.curvature)
        d = theta[None, :] - y
        loss = 0.5 * float(np.mean(np.sum(d * d * a[None, :], axis=1)))
        grad[:] = a * (theta - y.mean(axis=0))
    elif spec.kind == "linear-softmax":
        w, b = spec.block(theta, "w"), spec.block(theta, "b")
        p = softmax(x @ w.T + b[None, :])
        loss = float(-np.mean(np.log(np.maximum(p[np.arange(n), y], 1e-300))))
        dz = p.copy()
        dz[np.arange(n), y] -= 1.0
        dz /= n
        spec.block(grad, "w")[:] = dz.T @ x
        spec.block(grad, "b")[:] = dz.sum(axis=0)
    else:
        w1, b1 = spec.block(theta, "w1"), spec.block(theta, "b1")
        w2, b2 = spec.block(theta, "w2"), spec.block(theta, "b2")
        h = np.tanh(x @ w1.T + b1[None, :])
        p = softmax(h @ w2.T + b2[None, :])
        loss = float(-np.mean(np.log(np.maximum(p[np.arange(n), y], 1e-300))))
        dz = p.copy()
        dz[np.arange(n), y] -= 1.0
        dz /= n
        spec.block(grad, "w2")[:] = dz.T @ h
        spec.block(grad, "b2")[:] = dz.sum(axis=0)
        dh = (dz @ w2) * (1.0 - h * h)
        spec.block(grad, "w1")[:] = dh.T @ x
        spec.block(grad, "b1")[:] = dh.sum(axis=0)
    if spec.weight_decay > 0.0:
        loss += 0.5 * spec.weight_decay * float(theta @ theta)
        grad += spec.weight_decay * theta
    return loss, grad


def frozen_logits(spec, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs, dtype=float)
    if spec.kind == "linear-softmax":
        return x @ spec.block(theta, "w").T + spec.block(theta, "b")[None, :]
    if spec.kind == "mlp-1-hidden":
        h = np.tanh(x @ spec.block(theta, "w1").T + spec.block(theta, "b1")[None, :])
        return h @ spec.block(theta, "w2").T + spec.block(theta, "b2")[None, :]
    raise ValueError("logits are defined for classification models only")


def frozen_predict(spec, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Labels for classification (argmax, ties to the lowest class index);
    the parameter vector replicated per datum for the quadratic probe."""
    if spec.kind == "quadratic-probe":
        return np.tile(theta, (len(inputs), 1))
    return frozen_logits(spec, theta, inputs).argmax(axis=1)


def frozen_accuracy(spec, theta: np.ndarray, batch) -> float:
    """Fraction of argmax-correct predictions. Classification only."""
    if not spec.classification:
        raise ValueError("accuracy is undefined for regression models; use loss-based metrics")
    if len(batch.inputs) == 0:
        raise ValueError("dataset must be non-empty")
    correct = frozen_predict(spec, theta, batch.inputs) == np.asarray(batch.labels)
    return float(np.count_nonzero(correct) / correct.size)


def _without_decay(spec):
    return type(spec)(kind=spec.kind, loss=spec.loss, weight_decay=0.0, dim=spec.dim,
                      curvature=spec.curvature, d_in=spec.d_in,
                      n_classes=spec.n_classes, hidden=spec.hidden)


def frozen_data_loss(spec, theta: np.ndarray, batch) -> float:
    """Mean per-example loss without the weight-decay term (an evaluation metric)."""
    loss, _ = frozen_loss_and_grad(_without_decay(spec), theta, batch)
    return loss


def frozen_validation_performance(spec, theta: np.ndarray, batch,
                                  metric: str = "accuracy") -> float:
    if spec.classification and metric == "accuracy":
        return frozen_accuracy(spec, theta, batch)
    return -frozen_data_loss(spec, theta, batch)


def frozen_step_ahead_performance(spec, predictions: np.ndarray, batch) -> float:
    y = np.asarray(batch.labels)
    if spec.classification:
        return float(np.count_nonzero(predictions == y) / y.size)
    a = np.asarray(spec.curvature)
    d = predictions - y
    return -0.5 * float(np.mean(np.sum(d * d * a[None, :], axis=1)))


def frozen_check_batch(spec, batch) -> np.ndarray:
    """The batch check with two label reductions, a minimum and a maximum:
    the oracle for the one-reduction label check on integer labels."""
    x = np.asarray(batch.inputs, dtype=float)
    if len(x) == 0:
        raise ValueError("minibatch must be non-empty")
    expected = spec.dim if spec.kind == "quadratic-probe" else spec.d_in
    if x.shape[1] != expected:
        raise ValueError(f"input dimension {x.shape[1]} != model dimension {expected}")
    y = np.asarray(batch.labels)
    if spec.classification and (y.shape != (len(x),) or np.minimum.reduce(y) < 0
                                or np.maximum.reduce(y) >= spec.n_classes):
        raise ValueError(f"a classifier needs one label in [0, {spec.n_classes}) per row")
    if not spec.classification and y.shape != x.shape:
        raise ValueError(f"a quadratic probe needs one target of dimension {spec.dim} per row")
    return x
