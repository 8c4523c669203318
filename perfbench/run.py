"""oclopt benchmark: end-to-end and per-layer timing of preset-derived workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``oclopt`` is imported from its ``src/``.
``--workload all`` runs every workload in turn. Each repetition runs in a
fresh ``perfbench/worker.py`` process with one BLAS thread.

``--trace 0`` times a fixed number of repetitions, set by ``--seconds`` (see
``REP_S``), and reports the end-to-end metrics. Wall microseconds per
optimizer iteration (first ``run_experiment`` call to last return, artifact
writing included) and the p50 latency of one protocol step take every step
at its fastest over the repetitions; set-up time and peak RSS are medians
over them. The step p99 is printed but not gated: on a shared host its
spread across runs exceeds any bound the benchmark may set (see README.md).
``--trace 1`` alternates untraced and traced repetitions while the next one
is expected to end within ``--seconds``, and reports the per-layer metrics
of the traced ones, the tracing overhead, and the untraced step p99.

Every run of every repetition passes the correctness gate or counts as
failed: invariants for any seed (see ``workloads.check_run``) and, for the
workload seeds listed in ``digests.json``, byte-identical artifacts. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# workers inherit this; set before numpy is imported for the host reference
os.environ.update(BLAS_ENV)

HARD_LIMIT_S = 165.0   # a run must exit within 180 s

# Nominal seconds of one untraced repetition on a busy shared 2-vCPU host. An
# untraced run times max(3, round(seconds / REP_S)) repetitions: the per-step
# minimum falls as repetitions are added, so every run and every commit takes
# it over the same number. No repetition starts that is expected to end after
# OVERRUN * seconds, which only a host far slower than nominal reaches.
REP_S = {"rotating-growth": 8.5, "task-reservoir-sweep": 5.5, "mixed-replay": 10.5}
OVERRUN = 1.25

END_TO_END = (
    ("us_per_iter", "us"),
    ("step_us_p50", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in (
        "datapool.checkpoint", "datapool.replay", "datapool.update",
        "datapool.offer", "datapool.sample_pure_replay", "model.loss_and_grad",
        "model.predict", "model.validation_performance", "model.step_ahead_performance",
        "rng.substream", "stream.next_batch", "stream.run_protocol_step",
        "metrics.forward_transfer", "metrics.information_retention",
        "metrics.learning_efficacy", "optim.sgd_step", "optim.ama_step",
        "harness.run_experiment", "harness.write_artifacts")]
    + [(f"{layer}.calls", "count") for layer in (
        "model.loss_and_grad", "rng.substream", "stream.eval_batch",
        "schedule.malr_update", "stream.run_protocol_step")]
    + [("datapool.checkpoint.bytes", "B"),
       ("datapool.sample_mixed_replay.scanned", "count"),
       ("datapool.offer.evicted", "count"),
       ("metrics.forward_transfer.items", "count"),
       ("stream.eval_cache.hit_ratio", "ratio"),
       ("optim.costs.forward", "count"),
       ("optim.costs.grad", "count"),
       ("optim.costs.update", "count"),
       ("stream.run_protocol_step.p99_us", "us"),
       ("process.minor_faults", "count"),
       ("trace.wall_s", "s"),
       ("trace.overhead_frac", "ratio"),
       ("host.ref_loop_us", "us")])


def log(msg: str):
    print(msg, flush=True)


def host_reference_us(blocks: int = 5, n: int = 20000) -> list:
    """µs per 32x6 @ 6x2 matmul: a fixed loop that does not use the program,
    so that a drift of the host can be told apart from a regression."""
    import numpy as np
    a = np.full((32, 6), 0.5)
    b = np.full((6, 2), 0.25)
    out = []
    for _ in range(blocks):
        t = perf_counter()
        for _ in range(n):
            a @ b
        out.append((perf_counter() - t) / n * 1e6)
    return out


def environment() -> str:
    import numpy as np
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "oclopt").rglob("*.py")))
    blas = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return (f"python {platform.python_version()}, numpy {np.__version__}, {blas}, "
            f"nproc {os.cpu_count()}, src lines {src_lines}")


def load_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_worker(workload: str, seed: int, out: Path, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh process; raises RuntimeError if it fails."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:   # subprocess.run has killed and reaped it
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# a reported self time adds up these spans, so that no reported time is 0 by
# construction on a workload that never calls one of them
SPAN_GROUPS = {"datapool.replay": ("datapool.sample_pure_replay",
                                   "datapool.sample_mixed_replay")}


def layer_value(rep: dict, name: str):
    """``<span>.self_s`` and ``<span>.calls`` come from the span stats, other
    quantities from the counts a traced worker computed; 0 if never seen."""
    span, _, quantity = name.rpartition(".")
    stats = [rep["stats"].get(s, (0, 0.0, 0.0)) for s in SPAN_GROUPS.get(span, (span,))]
    if quantity == "self_s":
        return sum(s[2] for s in stats)
    if quantity == "calls":
        return sum(s[0] for s in stats)
    return rep["counts"].get(name, 0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = perf_counter()
    reference = load_digests().get(workload, {}).get(str(seed))
    host = host_reference_us()
    kinds = ("plain", "traced") if trace else ("plain",)
    wanted = max(3, round(seconds / REP_S[workload]))
    reps = {k: [] for k in kinds}
    durations = {k: [] for k in kinds}
    attempted = failed = 0
    mismatched = []
    while True:
        kind = min(kinds, key=lambda k: len(reps[k]))
        done = all(reps[k] for k in kinds)
        elapsed = perf_counter() - t0
        expect = statistics.median(durations[kind]) if durations[kind] else 0.0
        if trace and done and elapsed + expect > seconds:
            break
        if not trace and done and (len(reps["plain"]) >= wanted
                                   or elapsed + expect > OVERRUN * seconds):
            break
        out = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-{kind}"
        r0 = perf_counter()
        try:
            rep = run_worker(workload, seed, out, kind == "traced",
                             max(1.0, HARD_LIMIT_S - elapsed))
        except RuntimeError as e:
            log(f"{workload} seed {seed}: {kind} repetition failed: {e}")
            attempted += workloads.n_runs(workload)
            failed += workloads.n_runs(workload)
            break
        durations[kind].append(perf_counter() - r0)
        reps[kind].append(rep)
        for run in rep["runs"]:
            attempted += 1
            bad = list(run["errors"])
            if reference is not None and reference.get(run["id"]) != run["digest"]:
                bad.append("artifact digest differs from digests.json")
            if bad:
                failed += 1
                mismatched.append(f"{run['id']}: {'; '.join(bad)}")
        log(f"{workload} seed {seed}: {kind} repetition {len(reps[kind])}: "
            f"{rep['iters']} iterations in {rep['wall_s']:.3f} s "
            f"({rep['cpu_s']:.3f} s CPU)")
    host += host_reference_us()

    for line in mismatched[:10]:
        log(f"  FAILED {line}")
    gate = "digests and invariants" if reference is not None else "invariants only"
    log(f"environment: {environment()}")
    log(f"host reference (ungated): {statistics.median(host):.4f} us per 32x6 matmul")
    log(f"correctness gate: {gate}; {attempted} runs attempted, {failed} failed, "
        f"fail_frac {failed / attempted:.4g}")

    metrics = {}
    plain = reps["plain"]
    if plain:
        steps = [s for rep in plain for s in rep["step_s"]]
        cuts = statistics.quantiles(steps, n=100, method="inclusive")
        step_p99 = cuts[98] * 1e6
        log(f"{len(plain)} untraced repetitions, {len(steps)} protocol steps; "
            f"step p99 {step_p99:.1f} us ({len(steps) // 100} steps beyond it, ungated)")
    if plain and not trace:
        # Every repetition of one workload seed runs the same steps, so the
        # timed region splits into aligned segments: set-up of the first run,
        # then each protocol step with the work up to the next one (metrics,
        # artifacts, next run's set-up), the last up to the final return.
        # On a shared host another tenant slows each segment by up to 2x for
        # milliseconds at a time; the fastest of the repetitions is the
        # program's own cost.
        import numpy as np
        if len(plain) < wanted:
            log(f"only {len(plain)} of {wanted} repetitions fit in {OVERRUN} x {seconds} s")
        segs = np.array([np.diff([0.0, *r["step_at_s"], r["wall_s"]]) for r in plain])
        best_steps = np.array([r["step_s"] for r in plain]).min(axis=0)
        log(f"ungated: median repetition {statistics.median(r['wall_s'] / r['iters'] * 1e6 for r in plain):.1f} "
            f"us per iteration, pooled step p50 {cuts[49] * 1e6:.1f} us")
        values = {
            "us_per_iter": float(segs.min(axis=0).sum()) / plain[0]["iters"] * 1e6,
            "step_us_p50": float(np.median(best_steps)) * 1e6,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    elif trace and plain and reps["traced"]:
        traced = reps["traced"]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values = {
            "stream.run_protocol_step.p99_us": step_p99,
            "process.minor_faults": statistics.median(r["minor_faults"] for r in plain),
            "trace.wall_s": traced_wall,
            "trace.overhead_frac":
                traced_wall / statistics.median(r["wall_s"] for r in plain) - 1.0,
            "host.ref_loop_us": statistics.median(host),
        }
        for name, _ in PER_LAYER:
            if name not in values:
                values[name] = statistics.median(layer_value(r, name) for r in traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        stats = traced[-1]["stats"]
        wall = traced[-1]["wall_s"]
        log(f"self time by span, last traced repetition ({wall:.3f} s traced wall, "
            f"overhead {values['trace.overhead_frac']:+.1%}):")
        for name, (calls, total, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
            log(f"  {name:34s} {self_s:9.4f} s {self_s / wall:6.1%}  {calls:8d} calls")
        log(f"spans: {ROOT / '.perfbench_out' / f'{workload}-seed{seed}-traced' / 'spans.csv'}")
    for name, m in metrics.items():
        log(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": bool(metrics) and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "oclopt" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'oclopt'} is missing", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
