"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Imports ``oclopt`` from ``src/`` of the checkout this file sits in, builds
the workload's seeded configs, calls ``oclopt.harness.run_experiment`` for
every run with artifacts under DIR, checks each run, and prints one JSON
object on stdout. ``perfbench/run.py`` starts one of these per repetition,
so set-up time and peak memory are per process and no cache is warm.

Without ``--trace`` only ``run_protocol_step`` (the name ``oclopt.harness``
resolves) is wrapped, by one ``perf_counter`` pair. With ``--trace`` the
public functions of every layer are wrapped in spans instead (see
``tracing.py``), and the spans are written to DIR/spans.csv.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# (attribute, span name) for every name oclopt.harness resolves at call time;
# spans are named after the module that defines the function
HARNESS_NAMES = (
    ("run_experiment", "harness.run_experiment"),
    ("write_artifacts", "harness.write_artifacts"),
    ("run_protocol_step", "stream.run_protocol_step"),
    ("substream", "rng.substream"),
    ("init_params", "model.init_params"),
    ("predict", "model.predict"),
    ("loss_and_grad", "model.loss_and_grad"),
    ("validation_performance", "model.validation_performance"),
    ("step_ahead_performance", "model.step_ahead_performance"),
    ("sample_pure_replay", "datapool.sample_pure_replay"),
    ("sample_mixed_replay", "datapool.sample_mixed_replay"),
    ("forward_transfer", "metrics.forward_transfer"),
    ("information_retention", "metrics.information_retention"),
    ("sgd_step", "optim.sgd_step"),
    ("adam_step", "optim.adam_step"),
    ("ema_step", "optim.ema_step"),
    ("ama_step", "optim.ama_step"),
    ("best_ma", "optim.best_ma"),
    ("save_optimizer", "optim.save_optimizer"),
    ("malr_update", "schedule.malr_update"),
    ("rwp_update", "schedule.rwp_update"),
)


def _array_bytes(obj) -> int:
    """Bytes of every numpy array reachable from a checkpoint object."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj))
    return 0


def install_tracer() -> tracing.Tracer:
    import numpy as np
    from oclopt import datapool, harness, metrics, stream

    tr = tracing.Tracer()

    def checkpoint_bytes(tr, ckpt, pool):
        tr.count("datapool.checkpoint.bytes", _array_bytes(ckpt))

    def mixed_scanned(tr, _, pool, *args, **kwargs):
        tr.count("datapool.sample_mixed_replay.scanned", pool.size)

    def ft_items(tr, _, spec, theta, stream_spec, t, k1, k2, *args, **kwargs):
        tr.count("metrics.forward_transfer.items", (k2 - k1 + 1) * stream_spec.batch_size)

    def offer_evicted(tr, _, pool, xs, ys, t, rids):
        # rids are the offer sequence, so stored ids >= rids[0] are this
        # call's items; those beyond the free slots replaced older items
        n, cap, stored = len(rids), pool.capacity, getattr(pool, "_rid", None)
        if n == 0 or cap is None or stored is None:
            return
        fill = min(max(cap - (pool.seen_count - n), 0), n)
        if fill < n:
            new = int(np.count_nonzero(stored[: pool.size] >= rids[0]))
            tr.count("datapool.offer.evicted", new - fill)

    hooks = {"sample_mixed_replay": mixed_scanned, "forward_transfer": ft_items}
    targets = [(harness, attr, name, hooks.get(attr)) for attr, name in HARNESS_NAMES]
    targets += [
        (metrics, "eval_batch", "stream.eval_batch", None),
        (metrics.MetricLedger, "learning_efficacy", "metrics.learning_efficacy", None),
        (stream, "next_batch", "stream.next_batch", None),
        (stream, "substream", "rng.substream", None),
        (datapool, "update", "datapool.update", None),
        (datapool, "substream", "rng.substream", None),
        (datapool.DataPool, "checkpoint", "datapool.checkpoint", checkpoint_bytes),
        (datapool.DataPool, "restore", "datapool.restore", None),
        (datapool.DataPool, "offer", "datapool.offer", offer_evicted),
    ]
    for owner, attr, name, after in targets:
        if hasattr(owner, attr):   # a later version may drop a name
            tr.patch(owner, attr, name, after)
    return tr


def counted(oclopt, tr: tracing.Tracer, results) -> dict:
    """Computed counts of one traced repetition, next to the span stats."""
    out = dict(tr.counts)
    cached = getattr(oclopt.metrics, "_eval_batch_cached", None)
    info = cached.cache_info() if hasattr(cached, "cache_info") else None
    lookups = info.hits + info.misses if info else 0
    out["stream.eval_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
    for field in ("forward", "grad", "update"):
        out[f"optim.costs.{field}"] = sum(getattr(r.costs, field) for r in results)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)

    t_import = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import oclopt
    import oclopt.harness as harness
    if Path(oclopt.__file__).resolve().parent != (ROOT / "src" / "oclopt").resolve():
        print(f"imported oclopt from {oclopt.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    runs = workloads.build_runs(harness, args.workload, args.seed)

    step_at = []    # perf_counter at the start of every protocol step
    step_s = []
    tr = None
    if args.trace:
        tr = install_tracer()
    else:
        step = harness.run_protocol_step

        def timed_step(*a, **kw):
            start = perf_counter()
            result = step(*a, **kw)
            step_s.append(perf_counter() - start)
            step_at.append(start)
            return result

        harness.run_protocol_step = timed_step

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    results = []
    for i, (run_id, cfg, seed) in enumerate(runs):
        if tr is not None:
            tr.run = i
        results.append(harness.run_experiment(cfg, seed, out / run_id))
    wall = perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "iters": sum(len(r.lr_trace) for r in results),
        "wall_s": wall,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024.0,
        "minor_faults": cpu1.ru_minflt - cpu0.ru_minflt,
        "runs": [],
    }
    if tr is None:
        report["setup_s"] = step_at[0] - t_import
        report["step_s"] = step_s
        report["step_at_s"] = [t - start for t in step_at]
    for (run_id, cfg, seed), res in zip(runs, results):
        report["runs"].append({"id": run_id, "errors": workloads.check_run(cfg, res),
                               "digest": workloads.artifact_digest(out / run_id)})
    shutil.rmtree(out, ignore_errors=True)
    if tr is not None:
        report["counts"] = counted(oclopt, tr, results)
        report["stats"] = tr.stats
        out.mkdir(parents=True, exist_ok=True)
        tr.write_spans(out / "spans.csv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
