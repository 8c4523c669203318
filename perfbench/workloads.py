"""Benchmark workloads and the correctness gate applied to every run.

A workload is a list of runs ``(run_id, config, run_seed)`` built from one
preset and the workload seed. Everything the program receives is derived
from those seeded configs. Each workload stresses a different layer:

* ``rotating-growth``: ``main-comparison/ama-malr`` with an unlimited pool and
  a long horizon. The pool only grows, so ``DataPool.checkpoint`` copies O(t)
  bytes every protocol step and dominates; forward-transfer windows also
  grow with the horizon. One seed, so seed vectorization has nothing to do.
* ``task-reservoir-sweep``: the ``buffer-size`` preset, all three capacities
  times three seeds in one process, in the order ``oclopt run`` uses.
  Bounded pools with reservoir eviction keep checkpoints small; loss and
  gradient, substream derivation, stream generation and per-run set-up lead.
* ``mixed-replay``: ``objective-comparison/mixed-p5`` with a longer horizon.
  Five iterations per step, each mixed-replay draw scanning the whole
  arrival array, next to the per-step checkpoint writes.

Evaluation stays at each preset's ``eval_every``, because users pay for it.

This module imports nothing from ``oclopt``: callers pass the imported
``oclopt.harness`` module, so that importing the program stays inside the
timed set-up.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

ARTIFACTS = ("metrics.csv", "schedule.csv", "config.yaml", "manifest.json")

# name -> (preset, variant labels, horizon override or None, seeds per
#          workload seed)
WORKLOADS = {
    "rotating-growth": ("main-comparison", ("ama-malr",), 4800, 1),
    "task-reservoir-sweep": ("buffer-size", ("cap-100", "cap-1000", "cap-10000"), None, 3),
    "mixed-replay": ("objective-comparison", ("mixed-p5",), 3600, 1),
}


def run_seeds(workload: str, seed: int) -> list:
    """Seeds of the runs in one workload, all derived from the workload seed."""
    per = WORKLOADS[workload][3]
    return [per * seed + i for i in range(per)]


def n_runs(workload: str) -> int:
    _, labels, _, per = WORKLOADS[workload]
    return len(labels) * per


def build_runs(harness, workload: str, seed: int) -> list:
    """[(run_id, config, run_seed)] in execution order: variants, then seeds."""
    preset, labels, horizon, _ = WORKLOADS[workload]
    overrides = {"seeds": run_seeds(workload, seed)}
    if horizon is not None:
        overrides["stream.horizon"] = horizon
    base = harness.apply_overrides(harness.preset(preset), overrides)
    runs = []
    for label, cfg in harness.expand_variants(base):
        if label not in labels:
            continue
        for s in cfg.seeds:
            runs.append((f"{label}/seed{s}", cfg, s))
    if len(runs) != n_runs(workload):
        raise RuntimeError(f"{workload}: built {len(runs)} runs, expected {n_runs(workload)}")
    return runs


def artifact_digest(out_dir) -> str:
    """One sha256 over the byte-compared artifacts of a run directory."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update(name.encode())
        h.update(hashlib.sha256((Path(out_dir) / name).read_bytes()).digest())
    return h.hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_run(cfg, result) -> list:
    """Invariants that hold for any seed; returns a list of failures.

    * the run did not diverge and took horizon * iters_per_step iterations;
    * metric rows sit at every ``eval_every`` step and the last step, and
      every column is finite where the run defines it (p_le from t = 2,
      p_ft while the future window fits in the horizon, NaN after);
    * the compute counters match the closed form of acceptance criterion 11
      for AMA runs: F = K + 3(K // k_v - skipped), G = K,
      U = K + 2 (K // k_m).
    """
    errors = []
    horizon, p = cfg.stream.horizon, cfg.iters_per_step
    k_total = len(result.lr_trace)
    if result.diverged:
        errors.append("diverged")
    if k_total != horizon * p:
        errors.append(f"{k_total} iterations, expected {horizon * p}")

    k2 = cfg.ft_k2 if cfg.ft_k2 is not None else max(2, horizon // 4)
    want_t = [t for t in range(1, horizon + 1) if t % cfg.eval_every == 0 or t == horizon]
    got_t = [row[0] for row in result.metric_rows]
    if got_t != want_t:
        errors.append("metric rows at unexpected steps")
    ama = cfg.optimizer.averaging == "ama"
    for t, k, p_le, p_ir, p_ft, alpha, sig, g1, g2, i_best in result.metric_rows:
        if k != t * p:
            errors.append(f"t={t}: k={k}, expected {t * p}")
        must = [("p_ir", p_ir), ("alpha", alpha)]
        if t >= 2:
            must.append(("p_le", p_le))
        if ama:
            must += [("sigma", sig), ("gamma_ma1", g1), ("gamma_ma2", g2)]
        bad = [name for name, v in must if not _finite(v)]
        if (t + k2 <= horizon) != _finite(p_ft):
            bad.append("p_ft")
        for name, v in (("p_le", p_le), ("p_ir", p_ir), ("p_ft", p_ft)):
            if _finite(v) and not 0.0 <= v <= 1.0:
                bad.append(f"{name} outside [0, 1]")
        if ama and i_best not in (1, 2):
            bad.append("i_best")
        if bad:
            errors.append(f"t={t}: bad {', '.join(bad)}")

    c = result.costs
    if ama and result.ama is not None:
        o = cfg.optimizer
        want = (k_total + 3 * (k_total // o.k_v - result.ama.skipped_validations),
                k_total, k_total + 2 * (k_total // o.k_m))
        if (c.forward, c.grad, c.update) != want:
            errors.append(f"costs (F,G,U)=({c.forward},{c.grad},{c.update}), "
                          f"closed form {want}")
    elif c.grad != k_total:
        errors.append(f"costs G={c.grad}, expected {k_total}")
    return errors[:5]
