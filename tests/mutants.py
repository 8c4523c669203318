"""Mutants of the program that the tests must kill, and their runner.

    python tests/mutants.py [NAME ...]

Each mutant names a file under ``src/``, an exact snippet of it, the
snippet's replacement and the tests that should catch the change. The runner
first runs every listed test on an unmutated copy of the checkout. Then, for
each mutant (all of them, or those named), it copies the checkout to a
temporary directory, applies the mutant, runs the mutant's tests there with
``pytest -x`` under the ``mutants`` hypothesis profile (``tests/conftest.py``:
no shrinking, since a killing example need not be minimal) and prints killed
or survived with the time taken. It exits 1
if a mutant survives, or if its snippet no longer occurs exactly once in its
file, so the list stays current. pytest does not collect this file;
``tests/test_surface.py`` checks the snippets and test paths in tier-1.

A change to a path listed here adds its mutants.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HARNESS = "src/oclopt/harness.py"
SCHEDULE = "src/oclopt/schedule.py"
RATE_TESTS = ("tests/test_schedule.py", "tests/test_golden_artifacts.py")
BAD_CONFIG_TESTS = ("tests/test_harness.py::TestCli::test_out_of_range_value_is_a_config_error",)
FINITE_TESTS = (
    "tests/test_harness.py::TestCli::test_a_number_that_is_not_finite_is_a_config_error",)
SEED_TESTS = ("tests/test_harness.py::TestCli::test_every_seed_must_be_a_non_negative_integer",
              "tests/test_harness.py::TestTheoryConfig::test_verify_bounds_validates_its_config")
OPTIM = "src/oclopt/optim.py"
AVERAGER_TESTS = ("tests/test_optim.py::TestAmaStep",)
MODEL = "src/oclopt/model.py"
MODEL_TESTS = ("tests/test_model.py",)
KERNEL_TESTS = ("tests/test_model.py::TestRunKernel", "tests/test_optim.py::TestSgd")
ONE_PRODUCT_TESTS = ("tests/test_model.py::TestOneProduct",)
EVENT_TESTS = ("tests/test_harness.py::TestRunExperiment::"
               "test_the_averager_takes_every_iteration_where_an_interval_ends",)
DATAPOOL = "src/oclopt/datapool.py"
OFFER_TESTS = ("tests/test_datapool.py::TestOffer",)
STEP_TESTS = ("tests/test_datapool.py::TestPlannedSteps",)
FOLD_TESTS = ("tests/test_datapool.py::TestPlannedFolds",)
STREAM = "src/oclopt/stream.py"
CLI = "src/oclopt/cli.py"
METRICS = "src/oclopt/metrics.py"
SERVED_TESTS = ("tests/test_stream.py::TestServedDraws",)
LABEL_TESTS = ("tests/test_stream.py::TestBlockLabels",)
SERVED_STEP_TESTS = ("tests/test_harness.py::TestServedSteps",
                     "tests/test_stream.py::TestProtocol")
SCORE_CHECK = "    (work, x), y = _prepared(spec, theta, batch, work), np.asarray(batch.labels)\n"
UNCHECKED = ("    (work, x), y = (Workspace(spec, theta), np.asarray(batch.inputs, dtype=float)), "
             "np.asarray(batch.labels)\n")
STACK_DECAY = " - 0.5 * spec.weight_decay * np.add.reduce(theta * theta, axis=-1)"
LOSS_SCORE = "        score = np.add.reduce(np.log(np.maximum(picked, 1e-300)), axis=-1) / len(x)"

# name -> (file, snippet, replacement, tests)
MUTANTS = {
    "malr-ignores-c2": (
        SCHEDULE, "(c2 or not self.use_c2)", "(True or not self.use_c2)", RATE_TESTS),
    "rwp-reports-c2-c3": (
        SCHEDULE, "        c2 = c3 = False\n", "        c2 = c3 = True\n", RATE_TESTS),
    "cut-keeps-old-best": (
        SCHEDULE, "            self.best_val, self.best_sigma = val_perf, sigma\n",
        "            self.best_sigma = sigma\n", RATE_TESTS),
    "cyclic-phase-k-mod-t": (
        SCHEDULE, "j, T = (k - 1) % self.period, self.period",
        "j, T = k % self.period, self.period", RATE_TESTS),
    "cyclic-no-floor": (
        SCHEDULE, "return max(0.5 * self.alpha0 * (1.0 + math.cos(math.pi * j / T)), "
                  "1e-12 * self.alpha0)",
        "return 0.5 * self.alpha0 * (1.0 + math.cos(math.pi * j / T))", RATE_TESTS),
    "trace-wraps": (
        SCHEDULE, "self.trace[min(k - 1, self.last)]", "self.trace[(k - 1) % (self.last + 1)]",
        RATE_TESTS),
    "rates-need-not-be-finite": (
        SCHEDULE, "            or not math.isfinite(value) or positive and value <= 0):",
        "            or positive and value <= 0):", BAD_CONFIG_TESTS),
    "float-fields-unchecked": (
        HARNESS, '"float": ((int, float), "a finite number"),', "", FINITE_TESTS),
    "float-fields-take-non-finite": (
        HARNESS, "return type(v) in (int, float) and math.isfinite(v)",
        "return type(v) in (int, float)", FINITE_TESTS),
    "bool-fields-take-any-value": (
        HARNESS, '"bool": ((bool,), "true or false"),', "", BAD_CONFIG_TESTS),
    "str-fields-take-any-value": (HARNESS, '"str": ((str,), "a string"),', "", BAD_CONFIG_TESTS),
    "list-fields-take-any-value": (
        HARNESS, '"Optional[list]": ((list, type(None)), "a list or null"),', "",
        BAD_CONFIG_TESTS),
    "negative-window-accepted": (
        HARNESS, '(r.window is not None and r.window < 0, "replay.window must be >= 0 or null"),',
        "", BAD_CONFIG_TESTS),
    "bool-is-a-number": (
        HARNESS, "return type(v) in (int, float) and math.isfinite(v)",
        "return isinstance(v, (int, float)) and math.isfinite(v)", BAD_CONFIG_TESTS),
    "loss-score-keeps-decay": (MODEL, LOSS_SCORE, LOSS_SCORE + STACK_DECAY, MODEL_TESTS),
    "probe-score-keeps-decay": (
        MODEL, "        score = -_quadratic(spec, theta[..., None, :] - y)",
        "        score = -_quadratic(spec, theta[..., None, :] - y)" + STACK_DECAY, MODEL_TESTS),
    "forward-drops-b1": (MODEL, "                h += first.b\n", "", MODEL_TESTS),
    "forward-drops-output-bias": (MODEL, "            p += out.b\n", "", MODEL_TESTS),
    "stacked-bias-on-wrong-axis": (MODEL, "mat[..., -1:, :]", "mat[-1:]", MODEL_TESTS),
    "one-column-written-as-zero": (
        DATAPOOL, "    xs[..., -1] = 1.0\n", "    xs[..., -1] = 0.0\n", STEP_TESTS),
    "one-product-gradient-drops-the-bias-column": (
        MODEL, "np.matmul(p.T, feats, out=out.grad)",
        "np.matmul(p.T, feats[..., :-1], out=out.grad_w)", ONE_PRODUCT_TESTS),
    "one-row-takes-one-product": (
        MODEL, "self.fused = [n >= 2 and layer.gemm", "self.fused = [n >= 1 and layer.gemm",
        ONE_PRODUCT_TESTS),
    "checkpoint-in-internal-order": (
        HARNESS, "result.ama, result.model_spec.canonical)", "result.ama)",
        ("tests/test_harness.py::TestRunExperiment::"
         "test_the_checkpoint_lists_each_layers_weights_then_its_bias",)),
    "softmax-shifts-by-the-first-logit": (
        MODEL, "p.take(self.row_offsets + p.argmax(axis=-1))", "p.take(self.row_offsets)",
        MODEL_TESTS),
    "decay-check-dropped": (
        MODEL, "            if not math.isfinite(penalty):\n", "            if False:\n",
        MODEL_TESTS),
    "probe-loss-check-dropped": (
        MODEL, "        if not math.isfinite(_quadratic(self.spec, theta - target) + penalty):\n",
        "        if False:\n", MODEL_TESTS),
    "quadratic-drops-half": (
        MODEL, "return 0.5 * np.mean(", "return np.mean(", MODEL_TESTS),
    "quadratic-targets-unchecked": (
        MODEL, "    if not spec.classification and y.shape != x.shape:\n", "    if False:\n",
        MODEL_TESTS),
    "loss-score-skips-check": (
        MODEL, SCORE_CHECK,
        UNCHECKED + '    if metric == "accuracy":\n        check_batch(spec, batch)\n',
        MODEL_TESTS),
    "accuracy-skips-check": (
        MODEL, SCORE_CHECK,
        UNCHECKED + '    if metric != "accuracy":\n        check_batch(spec, batch)\n',
        MODEL_TESTS),
    "one-hot-against-shifted-classes": (
        MODEL, "return np.eye(self.n_classes)", "return np.eye(self.n_classes, k=1)", MODEL_TESTS),
    "finite-check-after-the-momentum-update": (
        OPTIM, "    if lr <= 0.0 or not np.logical_and.reduce(np.isfinite(grad)):\n"
               "        raise _refusal(lr)\n"
               "    state.momentum *= state.beta\n"
               "    state.momentum += grad\n",
        "    state.momentum *= state.beta\n"
        "    state.momentum += grad\n"
        "    if lr <= 0.0 or not np.logical_and.reduce(np.isfinite(grad)):\n"
        "        raise _refusal(lr)\n",
        KERNEL_TESTS),
    "event-test-skips-the-window": (
        HARNESS, "if k % avg.k_m and k % avg.k_v and (k % avg.k_w or not avg.adapt):",
        "if k % avg.k_m and k % avg.k_v:", EVENT_TESTS),
    "step-targets-one-row-late": (
        HARNESS, "self.iterate(x[i:i + m], hot[i:i + m])",
        "self.iterate(x[i:i + m], hot[i + 1:i + m + 1])", STEP_TESTS),
    "label-bound-counts-the-sign-bit": (
        MODEL, 'bits = 8 * y.itemsize - (y.dtype.kind == "i")', "bits = 8 * y.itemsize",
        MODEL_TESTS),
    "reservoir-draws-below-own-index": (
        DATAPOOL, "integers(0, items + 1)", "integers(0, items)", OFFER_TESTS),
    "replay-gathers-past-overwrite": (
        DATAPOOL, "    if len(again):", "    if False:", STEP_TESTS),
    "patch-keeps-the-first-write": (
        DATAPOOL, "    w = last.take(v)\n", "    w = first.take(v)\n", STEP_TESTS),
    "patch-misses-the-steps-own-writes": (
        DATAPOOL, "stop = np.array(offers.at[len(offers.at) - len(refs):])",
        "stop = np.array(offers.at[len(offers.at) - len(refs) - 1:-1])", STEP_TESTS),
    "patch-applies-the-next-steps-writes": (
        DATAPOOL, "stop = np.array(offers.at[len(offers.at) - len(refs):])",
        "stop = np.array(offers.at[len(offers.at) - len(refs) + 1:] + offers.at[-1:])",
        STEP_TESTS),
    "replay-gather-skips-the-patch": (
        DATAPOOL, "    _patch(offers, pool.capacity, refs.reshape(shape), rows)\n", "",
        STEP_TESTS),
    "written-rows-skip-the-routing": (
        DATAPOOL, "src = rows.take(items.take(hit) - seen[0])", "src = items.take(hit) - seen[0]",
        STEP_TESTS),
    "mixed-current-rows-off-plan": (
        DATAPOOL, "cur = cap + n * steps[:, None, None]",
        "cur = cap + n * (steps - a)[:, None, None]", STEP_TESTS),
    "last-block-past-horizon": (
        DATAPOOL, "stop = min(t - i + BLOCK, spec.horizon + 1)",
        "stop = min(t - i + BLOCK, spec.horizon + 2)", STEP_TESTS),
    "coins-from-next-step": (
        DATAPOOL, "step_streams(spec.seed, rngmod.HOLDOUT, t, stop)",
        "step_streams(spec.seed, rngmod.HOLDOUT, t + 1, stop + 1)", SERVED_TESTS),
    "routes-by-training-fraction": (
        DATAPOOL, "hold = coins < holdout.holdout_fraction",
        "hold = coins < pool.holdout_fraction", SERVED_TESTS),
    "stream-block-one-step-late": (
        STREAM, "step_streams(spec.seed, purpose, first, first + len(ts))",
        "step_streams(spec.seed, purpose, first + 1, first + 1 + len(ts))", SERVED_TESTS),
    "label-words-high-half-first": (
        STREAM, 'words.astype("<u8", copy=False).view("<u4")',
        'words.astype(">u8").view(">u4")', LABEL_TESTS),
    "rejected-labels-kept": (
        STREAM, "        for i in np.flatnonzero(rejected):\n",
        "        for i in np.flatnonzero(rejected)[:0]:\n", LABEL_TESTS),
    "served-step-reads-next-row": (
        HARNESS, "    i = t - block.first\n", "    i = t + 1 - block.first\n", SERVED_STEP_TESTS),
    "advance-moves-by-last-steps-fill": (
        DATAPOOL, "pool.size += plan.fill[k]", "pool.size += plan.fill[k - 1]",
        SERVED_STEP_TESTS + STEP_TESTS),
    "block-starts-one-step-late": (
        HARNESS, "if block is None or t >= block.stop:", "if block is None or t > block.stop:",
        SERVED_STEP_TESTS + FOLD_TESTS),
    "fold-plan-drops-last-fold": (
        HARNESS, "folds = np.arange(self.k // k_v + 1, done[-1] // k_v + 1)",
        "folds = np.arange(self.k // k_v + 1, done[-1] // k_v)", FOLD_TESTS),
    "fold-plan-counts-empty-pool-steps": (
        HARNESS, "iters[:len(sizes) - replayed] = 0", "iters[:0] = 0", FOLD_TESTS),
    "pure-replay-draws-for-an-empty-pool": (
        DATAPOOL, "bounds = bounds[bounds > 0]", "bounds = bounds[bounds >= 0]", FOLD_TESTS),
    "arrival-ahead-one-step-late": (
        DATAPOOL, '"right") + (first - 1)', '"right") + first', STEP_TESTS),
    "mixed-draws-past-overwrite": (
        DATAPOOL, "writes = np.flatnonzero(np.diff(at)[1:]) + 1",
        "writes = np.flatnonzero(np.diff(at)[1:])[:0] + 1", STEP_TESTS),
    "mixed-draws-one-segment-short": (
        DATAPOOL, "edges = [0, *writes, n_steps]", "edges = [0, *writes[1:], n_steps]",
        STEP_TESTS),
    "mixed-window-one-step-stale": (
        DATAPOOL, "            arrival[offers.slots[at[a]:at[a + 1]]] = offers.first + a\n"
                  "            bounds, windows = _windows(arrival, offers.first + steps, window, "
                  "False)\n",
        "            bounds, windows = _windows(arrival, offers.first + steps, window, False)\n"
        "            arrival[offers.slots[at[a]:at[a + 1]]] = offers.first + a\n", STEP_TESTS),
    "mixed-window-takes-later-writes": (
        DATAPOOL, "arrival[offers.slots[at[a]:at[a + 1]]] = offers.first + a",
        "arrival[offers.slots[at[a]:]] = offers.first + a", STEP_TESTS),
    "theory-block-not-built": (
        HARNESS, '        parts["theory"] = _build(TheoryConfig, d.pop("theory"), "theory")\n',
        "        pass\n", BAD_CONFIG_TESTS),
    "verify-bounds-skips-validation": (
        HARNESS, "th = config.validate().theory", "th = config.theory", SEED_TESTS),
    "reset-keeps-the-means": (
        OPTIM, "        state.means = [0.0] * len(state.means)\n", "", AVERAGER_TESTS),
    "best-perf-reads-the-sgd-row": (
        OPTIM, "return self.means[self.i_best - 1]", "return self.means[-1]", AVERAGER_TESTS),
    "delta-below-one-accepted": (
        OPTIM, "if self.delta < 1.0:", "if self.delta <= 0.0:", AVERAGER_TESTS),
    "fold-scores-the-sgd-row-for-every-model": (
        OPTIM, "evaluate(state.models, batch)",
        "evaluate(state.models[[-1] * len(state.models)], batch)", AVERAGER_TESTS),
    "ma-update-takes-the-other-rows-weight": (
        OPTIM, "ma_update(state.ma, state.gammas, state.sgd)",
        "ma_update(state.ma, state.gammas[::-1], state.sgd)", AVERAGER_TESTS),
    "predict-reads-the-sgd-row": (
        HARNESS, "work = self.predictors[self.averager.i_best - 1]", "work = self.predictors[-1]",
        ("tests/test_golden_artifacts.py",)),
    "plateau-cut-reaches-zero": (
        SCHEDULE, "if cut and self.current * self.beta_lr > 0.0:", "if cut:", RATE_TESTS),
    "overwrite-reads-from-block-start": (
        DATAPOOL, "plan.written[0][a:b], plan.written[1][a:b]",
        "plan.written[0][:b - a], plan.written[1][:b - a]", STEP_TESTS),
    "overwrite-keeps-old-arrival": (DATAPOOL, "            pool._arrival[j] = t\n", "",
                                    OFFER_TESTS),
    "theory-schedule-unchecked": (
        HARNESS, 'make_rate_schedule(p["schedule"], self.alpha0, 1, self.halve_every)', "pass",
        BAD_CONFIG_TESTS),
    "sweep-validates-as-it-runs": (
        CLI, "    jobs = []   # no config runs unless every one is valid\n"
             "    for path in paths:\n"
             "        try:\n"
             "            jobs.append(_job(load_config(path)))\n"
             "        except ConfigError as e:\n"
             '            raise ConfigError(f"{path}: {e}") from e\n',
        "    jobs = (_job(load_config(path)) for path in paths)\n",
        ("tests/test_harness.py::TestCliSweepAndBoundFailure",)),
    "preset-emits-before-validating": (
        CLI, "    job = _job(config)   # nothing is written or printed that run would reject\n",
        "    job = None\n",
        ("tests/test_harness.py::TestCli::test_preset_emits_no_config_that_run_rejects",)),
    "verify-bounds-makes-out-after-its-check": (
        CLI, "        out.mkdir(parents=True, exist_ok=True)\n"
             "    reports = verify_bounds_from_config(config)\n",
        "        pass\n    reports = verify_bounds_from_config(config)\n"
        "    if out:\n        out.mkdir(parents=True, exist_ok=True)\n",
        ("tests/test_harness.py::TestCli::test_an_unusable_output_path_exits_2",)),
    "report-header-unchecked": (
        CLI, "    if data[:1] != [list(METRIC_COLUMNS)]:", "    if False:",
        ("tests/test_harness.py::TestCli::test_report_rejects_a_malformed_metrics_file",)),
    "ledger-order-unchecked": (
        METRICS, "        if j != self._n + 1:", "        if j < 1:",
        ("tests/test_metrics.py::TestLearningEfficacy",)),
}


def copy_checkout(dest: Path) -> Path:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "runs", ".perfbench_out"))
    return dest


def run_tests(checkout: Path, tests) -> int:
    """pytest's exit code for the tests, run with -x against checkout's src/."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *tests],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run_mutant(name: str, tmp: Path) -> str:
    """killed, survived, stale (the snippet does not occur exactly once) or
    error (pytest could not run the tests)."""
    path, snippet, replacement, tests = MUTANTS[name]
    checkout = copy_checkout(tmp / name)
    source = checkout / path
    text = source.read_text()
    if text.count(snippet) != 1:
        return "stale"
    source.write_text(text.replace(snippet, replacement))
    return {0: "survived", 1: "killed"}.get(run_tests(checkout, tests), "error")


def main(argv) -> int:
    names = argv or list(MUTANTS)
    unknown = set(names) - set(MUTANTS)
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for name in names for t in MUTANTS[name][3]})
        if run_tests(copy_checkout(Path(tmp) / "unmutated"), tests) != 0:
            print("the tests fail without a mutant; fix them first", file=sys.stderr)
            return 1
        outcomes = []
        for name in names:
            start = time.perf_counter()
            outcome = run_mutant(name, Path(tmp))
            outcomes.append(outcome)
            print(f"{outcome:9s}{name:34s}{time.perf_counter() - start:7.1f} s", flush=True)
    print(f"{outcomes.count('killed')} of {len(names)} mutants killed")
    return 0 if outcomes.count("killed") == len(names) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
