"""Reference implementations the tests check the program against."""

import json
from pathlib import Path

import numpy as np

from oclopt.harness import config_from_dict, run_experiment
from oclopt.rng import HOLDOUT, ball_uniform, substream


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


def grad_at(quad, theta: np.ndarray, t) -> np.ndarray:
    """Exact gradient of a ``DriftingQuadraticSpec``'s step-t loss at theta."""
    return quad.eigenvalues() * (theta - quad.center(t))


# a pool capacity larger than any test offers: a pool with it never evicts
ROOM = 10_000


def record_ids(pool) -> np.ndarray:
    """Record ids of the items a ``DataPool`` stores, in slot order."""
    return np.array([], dtype=np.int64) if pool._rid is None else pool._rid[: pool.size].copy()


def stored_items(pool):
    """(inputs, labels, arrival steps) copies of the items a ``DataPool``
    stores, in slot order."""
    n = pool.size
    return pool._xs[:n].copy(), pool._ys[:n].copy(), pool._arrival[:n].copy()


def per_call_pure_replay(pool, m, g):
    """m items uniform with replacement over a ``DataPool``'s stored items,
    drawn from g on their own: the reference for pure replay and folds."""
    idx = g.integers(0, pool.size, size=m)
    return pool._xs[idx], pool._ys[idx]


def scan_mixed_replay(pool, current, m, window, g):
    """The mixed draw with the eligible history found by a scan of every
    stored arrival: the oracle for sample_mixed_replay."""
    t = current.t
    b = (t - 1) if window is None else window
    if pool.size > 0:
        arr = pool._arrival[: pool.size]
        eligible = np.flatnonzero((arr >= t - b) & (arr <= t - 1))
    else:
        eligible = np.array([], dtype=np.int64)
    if len(eligible) == 0:
        idx_cur = g.integers(0, current.n, size=m)
        return current.inputs[idx_cur], current.labels[idx_cur]
    half = m // 2
    idx_cur = g.integers(0, current.n, size=half)
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
