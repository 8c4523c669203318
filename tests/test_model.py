"""Gradient correctness against finite differences, the kernel, its
divergence rule and the scores (one model or a stack) against their frozen
copies, accuracy contracts, and the analytic assumption witnesses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oclopt.datapool import Minibatch
from oclopt.harness import (PRESET_NAMES, ExperimentConfig, Run, apply_overrides,
                            expand_variants, preset)
from oclopt.model import (DivergenceError, ModelSpec, Workspace, check_batch, gradient,
                          init_params, predict, step_ahead_performance, targets,
                          validation_performance)
from tests.oracles import (frozen_check_batch, frozen_logits, frozen_loss_and_grad,
                           frozen_predict, frozen_step_ahead_performance,
                           frozen_validation_performance)


def fd_gradient(spec, theta, batch, h=1e-5):
    """Central-difference gradient of the frozen kernel's loss, the independent
    oracle."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        lu, _ = frozen_loss_and_grad(spec, up, batch)
        ld, _ = frozen_loss_and_grad(spec, dn, batch)
        grad[i] = (lu - ld) / (2 * h)
    return grad


def grad_agreement(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric))) / max(1.0, float(np.max(np.abs(analytic))))


def random_model_and_batch(rng):
    kind = rng.choice(["quadratic-probe", "linear-softmax", "mlp-1-hidden"])
    n = int(rng.integers(2, 9))
    wd = float(rng.choice([0.0, 1e-3, 1e-2]))
    if kind == "quadratic-probe":
        d = int(rng.integers(1, 5))
        spec = ModelSpec(kind=kind, loss="quadratic", weight_decay=wd, dim=d,
                         curvature=tuple(rng.uniform(0.2, 2.0, d)))
        batch = Minibatch(rng.standard_normal((n, d)), rng.standard_normal((n, d)))
    else:
        d = int(rng.integers(2, 5))
        c = int(rng.integers(2, 4))
        hidden = int(rng.integers(2, 6))
        spec = ModelSpec(kind=kind, loss="cross-entropy", weight_decay=wd,
                         d_in=d, n_classes=c, hidden=hidden)
        batch = Minibatch(rng.standard_normal((n, d)), rng.integers(0, c, n))
    theta = init_params(spec, rng)
    theta[:] += 0.3 * rng.standard_normal(theta.size)
    return spec, theta, batch


class TestGradients:
    def test_quadratic_stationary_point(self):
        spec = ModelSpec(kind="quadratic-probe", loss="quadratic", dim=3,
                         curvature=(0.5, 1.0, 1.5))
        target = np.array([1.0, -2.0, 0.5])
        theta = target.copy()
        batch = Minibatch(np.tile(target, (4, 1)), np.tile(target, (4, 1)))
        grad = gradient(spec, theta, batch)
        assert validation_performance(spec, theta, batch, "loss") == 0.0
        assert np.allclose(grad, 0.0)

    def test_softmax_zero_params_gives_ln2(self):
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=3,
                         n_classes=2)
        theta = np.zeros(spec.n_params)
        batch = Minibatch(np.random.default_rng(0).standard_normal((6, 3)),
                          np.array([0, 1, 0, 1, 1, 0]))
        assert np.isclose(validation_performance(spec, theta, batch, "loss"), -np.log(2.0))

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        spec = ModelSpec(kind="mlp-1-hidden", loss="cross-entropy", d_in=3,
                         n_classes=3, hidden=5, weight_decay=1e-3)
        theta = init_params(spec, rng)
        batch = Minibatch(rng.standard_normal((8, 3)), rng.integers(0, 3, 8))
        grad = gradient(spec, theta, batch)
        numeric = fd_gradient(spec, theta, batch)
        assert grad_agreement(grad, numeric) < 1e-6

    def test_all_kinds_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            spec, theta, batch = random_model_and_batch(rng)
            grad = gradient(spec, theta, batch)
            numeric = fd_gradient(spec, theta, batch)
            assert grad_agreement(grad, numeric) < 1e-6, spec.kind

    def test_dimension_mismatch_raises(self):
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=3,
                         n_classes=2)
        theta = np.zeros(spec.n_params)
        bad = Minibatch(np.zeros((4, 5)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            gradient(spec, theta, bad)

    @pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), (6, 1)])
    def test_parameters_must_be_flat_of_n_params(self, shape):
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=2)
        batch = Minibatch(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="parameter shape"):
            gradient(spec, np.zeros(shape), batch)

    @pytest.mark.parametrize("labels", [[0, 1, 3, 0], [0, -1, 2, 0], [0, 1, 2]])
    def test_labels_must_be_one_class_in_range_per_row(self, labels):
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=3)
        batch = Minibatch(np.zeros((4, 2)), np.array(labels))
        with pytest.raises(ValueError, match="label"):
            gradient(spec, np.zeros(spec.n_params), batch)

    @pytest.mark.parametrize("targets", [(4,), (4, 1), (3, 4), (4, 4, 1)])
    def test_quadratic_targets_must_be_one_row_of_dim_per_row(self, targets):
        spec = ModelSpec(kind="quadratic-probe", loss="quadratic", dim=4,
                         curvature=(1.0,) * 4)
        batch = Minibatch(np.zeros((4, 4)), np.ones(targets))
        with pytest.raises(ValueError, match="target"):
            gradient(spec, np.zeros(4), batch)

    @pytest.mark.parametrize("kind", ["quadratic-probe", "linear-softmax", "mlp-1-hidden"])
    def test_loss_score_checks_the_batch(self, kind):
        if kind == "quadratic-probe":
            spec = ModelSpec(kind=kind, loss="quadratic", dim=2, curvature=(1.0, 1.0))
            bad = [Minibatch(np.zeros((4, 2)), np.zeros(2)),
                   Minibatch(np.zeros((4, 3)), np.zeros((4, 3)))]
        else:
            spec = ModelSpec(kind=kind, loss="cross-entropy", d_in=2, n_classes=3, hidden=2)
            bad = [Minibatch(np.zeros((4, 2)), np.array([0, 1, 3, 0])),
                   Minibatch(np.zeros((4, 2)), np.zeros((4, 1), int)),
                   Minibatch(np.zeros((4, 3)), np.zeros(4, dtype=int))]
        # a classifier's accuracy is checked as its loss score is
        for batch in bad:
            for metric in ("accuracy", "loss"):
                with pytest.raises(ValueError):
                    validation_performance(spec, np.zeros(spec.n_params), batch, metric)

    def test_workspace_serves_only_its_parameter_array(self):
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=2)
        theta = np.zeros(spec.n_params)
        batch = Minibatch(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="workspace"):
            gradient(spec, theta.copy(), batch, work=Workspace(spec, theta))

    def test_empty_batch_raises(self):
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=2)
        theta = np.zeros(spec.n_params)
        with pytest.raises(ValueError):
            gradient(spec, theta, Minibatch(np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_unbiased_minibatch_gradients(self):
        # mean of single-item gradients equals the full-pool gradient
        rng = np.random.default_rng(3)
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=3, weight_decay=1e-3)
        theta = init_params(spec, rng)
        xs, ys = rng.standard_normal((16, 2)), rng.integers(0, 3, 16)
        full = gradient(spec, theta, Minibatch(xs, ys))
        singles = [gradient(spec, theta, Minibatch(xs[i:i + 1], ys[i:i + 1]))
                   for i in range(16)]
        assert np.allclose(np.mean(singles, axis=0), full, atol=1e-12)


def random_spec_and_labels(rng, kind, wd, n, d_in, n_classes, hidden):
    if kind == "quadratic-probe":
        spec = ModelSpec(kind=kind, loss="quadratic", weight_decay=wd, dim=d_in,
                         curvature=tuple(rng.uniform(0.2, 2.0, d_in)))
        return spec, rng.standard_normal((n, d_in))
    spec = ModelSpec(kind=kind, loss="cross-entropy", weight_decay=wd, d_in=d_in,
                     n_classes=n_classes, hidden=hidden)
    return spec, rng.integers(0, n_classes, n)


def diverges(call) -> bool:
    """Whether a training kernel call diverges: it raises DivergenceError or
    its gradient, which the base step then rejects, is not all finite."""
    try:
        grad = call()
    except DivergenceError:
        return True
    return not np.all(np.isfinite(grad))


KINDS = st.sampled_from(["quadratic-probe", "linear-softmax", "mlp-1-hidden"])


class TestKernelMatchesFrozen:
    # scales up to 1e200 overflow the logits and the decay term; where the
    # kernel does not raise, its gradient, non-finite or not, must equal the
    # frozen kernel's, and where it raises the frozen loss is not finite
    @settings(max_examples=300, deadline=None)
    @given(kind=KINDS, wd=st.sampled_from([0.0, 1e-4, 0.3]), n=st.integers(1, 64),
           d_in=st.integers(1, 6), n_classes=st.integers(2, 16), hidden=st.integers(1, 16),
           log_scale=st.floats(-3.0, 200.0), seed=st.integers(0, 2**32 - 1))
    def test_gradient_equals_the_frozen_kernel(self, kind, wd, n, d_in, n_classes, hidden,
                                               log_scale, seed):
        rng = np.random.default_rng(seed)
        spec, labels = random_spec_and_labels(rng, kind, wd, n, d_in, n_classes, hidden)
        batch = Minibatch(rng.standard_normal((n, d_in)), labels)
        theta = 10.0 ** log_scale * rng.standard_normal(spec.n_params)
        # a run's workspace has served other calls, of this size or another
        work = Workspace(spec, theta)
        with np.errstate(all="ignore"):
            want_loss, want_grad = frozen_loss_and_grad(spec, theta, batch)
            try:
                gradient(spec, theta, Minibatch(batch.inputs[:1], labels[:1]), work=work)
                grad = gradient(spec, theta, batch)
                work_grad = gradient(spec, theta, batch, work=work)
            except DivergenceError:
                assert not np.isfinite(want_loss)
                return
        for got in (grad, work_grad):
            assert np.array_equal(got, want_grad, equal_nan=True)
        assert work_grad is work.grad and grad is not work.grad

    # theta entries up to 1e160 overflow the decay term, inputs up to 1e300
    # the logits: the kernel diverges exactly where the frozen kernel's loss
    # or gradient is not finite, which is where a run used to stop. The
    # examples overflow the decay term (or the probe's loss) alone, with a
    # finite gradient
    @settings(max_examples=300, deadline=None)
    @example(kind="linear-softmax", wd=0.3, n=4, d_in=2, n_classes=3, hidden=2,
             log_scale=160.0, log_inputs=0.0, seed=0)
    @example(kind="mlp-1-hidden", wd=1e-4, n=4, d_in=2, n_classes=3, hidden=2,
             log_scale=160.0, log_inputs=0.0, seed=0)
    @example(kind="quadratic-probe", wd=0.0, n=4, d_in=2, n_classes=3, hidden=2,
             log_scale=160.0, log_inputs=0.0, seed=0)
    @given(kind=KINDS, wd=st.sampled_from([0.0, 1e-4, 0.3]), n=st.integers(1, 32),
           d_in=st.integers(1, 6), n_classes=st.integers(2, 16), hidden=st.integers(1, 16),
           log_scale=st.floats(-3.0, 160.0), log_inputs=st.floats(-3.0, 300.0),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_diverges_where_the_frozen_kernel_does(
            self, kind, wd, n, d_in, n_classes, hidden, log_scale, log_inputs, seed):
        rng = np.random.default_rng(seed)
        spec, labels = random_spec_and_labels(rng, kind, wd, n, d_in, n_classes, hidden)
        batch = Minibatch(10.0 ** log_inputs * rng.standard_normal((n, d_in)), labels)
        theta = 10.0 ** log_scale * rng.standard_normal(spec.n_params)
        work = Workspace(spec, theta)
        with np.errstate(all="ignore"):
            want_loss, want_grad = frozen_loss_and_grad(spec, theta, batch)
            want = not (np.isfinite(want_loss) and np.all(np.isfinite(want_grad)))
            assert diverges(lambda: gradient(spec, theta, batch)) == want
            assert diverges(lambda: gradient(spec, theta, batch, work=work)) == want
        if not want:
            assert np.array_equal(work.grad, want_grad)


def kernel_run(kind, base, wd, d_in, n_classes, hidden, lr) -> Run:
    """A run of the model kind and base optimizer at the constant rate lr,
    with no averager, whose kernel the test drives through ``Run.iterate``."""
    if kind == "quadratic-probe":
        model = {"stream.kind": "drifting-quadratic", "model.loss": "quadratic",
                 "stream.center0": [1.0] * d_in, "stream.velocity": [0.0] * d_in}
    else:
        model = {"stream.n_classes": n_classes, "model.hidden": hidden}
    return Run(apply_overrides(ExperimentConfig(), {
        **model, "model.kind": kind, "stream.d_in": d_in, "model.weight_decay": wd,
        "optimizer.base": base, "optimizer.averaging": "none", "schedule.kind": "constant",
        "schedule.alpha0": lr, "stream.horizon": 2}), 0)


def reference_step(base, state: dict, g, lr) -> dict:
    """The heavy-ball or Adam step, written out, on a copy of the state's arrays."""
    s = {name: np.copy(value) for name, value in state.items()}
    if base == "sgd":
        s["momentum"] = s["beta"] * s["momentum"] + g
        s["theta"] = s["theta"] - lr * s["momentum"]
    else:
        s["step"] = step = s["step"] + 1
        s["m"] = s["beta1"] * s["m"] + (1.0 - s["beta1"]) * g
        s["v"] = s["beta2"] * s["v"] + (1.0 - s["beta2"]) * g * g
        m_hat, v_hat = s["m"] / (1.0 - s["beta1"] ** step), s["v"] / (1.0 - s["beta2"] ** step)
        s["theta"] = s["theta"] - lr * m_hat / (np.sqrt(v_hat) + s["eps"])
    s["lr"] = lr
    return s


def same_state(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        np.array_equal(got[name], want[name], equal_nan=True) for name in got)


class TestRunKernel:
    # one iteration of a run's bound kernel (its model kind's gradient, then
    # its base step) against the frozen gradient and the step written out;
    # parameter scales up to 1e200 overflow the decay term, inputs up to
    # 1e300 the logits. Where the frozen loss or gradient is not finite the
    # kernel raises before any of the run's state moves, and only the forward
    # and gradient costs count the failed iteration. The examples overflow
    # the decay term (or the probe's loss) alone, and the logits alone, so
    # that the base step refuses the gradient.
    @settings(max_examples=200, deadline=None)
    @example(kind="linear-softmax", base="sgd", wd=0.3, n=4, d_in=2, n_classes=3, hidden=2,
             log_scale=160.0, log_inputs=0.0, lr=0.1, seed=0)
    @example(kind="mlp-1-hidden", base="adam", wd=1e-4, n=4, d_in=2, n_classes=3, hidden=2,
             log_scale=160.0, log_inputs=0.0, lr=0.1, seed=0)
    @example(kind="quadratic-probe", base="sgd", wd=0.0, n=4, d_in=2, n_classes=3, hidden=2,
             log_scale=160.0, log_inputs=0.0, lr=0.1, seed=0)
    @example(kind="linear-softmax", base="sgd", wd=0.0, n=8, d_in=2, n_classes=3, hidden=2,
             log_scale=0.0, log_inputs=300.0, lr=0.1, seed=0)
    @example(kind="mlp-1-hidden", base="adam", wd=1e-4, n=8, d_in=2, n_classes=3, hidden=2,
             log_scale=10.0, log_inputs=300.0, lr=0.1, seed=0)
    @given(kind=KINDS, base=st.sampled_from(["sgd", "adam"]), wd=st.sampled_from([0.0, 1e-4, 0.3]),
           n=st.integers(1, 64), d_in=st.integers(2, 6), n_classes=st.integers(2, 16),
           hidden=st.integers(1, 16), log_scale=st.floats(-3.0, 200.0),
           log_inputs=st.floats(-3.0, 300.0), lr=st.sampled_from([1e-3, 0.05, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_an_iteration_is_the_frozen_gradient_then_the_written_out_step(
            self, kind, base, wd, n, d_in, n_classes, hidden, log_scale, log_inputs, lr, seed):
        rng = np.random.default_rng(seed)
        run = kernel_run(kind, base, wd, d_in, n_classes, hidden, lr)
        spec, state = run.model_spec, run.base
        state.theta[:] = 10.0 ** log_scale * rng.standard_normal(spec.n_params)
        if base == "sgd":
            state.momentum[:] = rng.standard_normal(spec.n_params)
        else:
            state.m[:], state.v[:] = rng.standard_normal((2, spec.n_params)) ** [[1], [2]]
            state.step = int(rng.integers(0, 4))
        labels = (rng.standard_normal((n, d_in)) if kind == "quadratic-probe"
                  else rng.integers(0, n_classes, n))
        batch = Minibatch(10.0 ** log_inputs * rng.standard_normal((n, d_in)), labels)
        before = {name: np.copy(value) for name, value in vars(state).items()}
        with np.errstate(all="ignore"):
            want_loss, want_grad = frozen_loss_and_grad(spec, before["theta"], batch)
            if not (np.isfinite(want_loss) and np.all(np.isfinite(want_grad))):
                with pytest.raises(DivergenceError):
                    run.iterate(batch.inputs, targets(spec, labels))
                assert same_state(vars(state), before)
                assert (run.k, run.lr_trace, vars(run.costs)) == (
                    0, [], {"forward": 1, "grad": 1, "update": 0})
                return
            public = gradient(spec, before["theta"], batch)
            run.iterate(batch.inputs, targets(spec, labels))
            want = reference_step(base, before, want_grad, lr)
        assert run.work.grad.tobytes() == want_grad.tobytes() == public.tobytes()
        assert same_state(vars(state), want)
        assert (run.k, run.lr_trace, vars(run.costs)) == (
            1, [lr], {"forward": 1, "grad": 1, "update": 1})


def same(got, want) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


class TestScoresMatchFrozen:
    # the evaluation paths against their copies from before they shared the
    # kernel's forward; scales up to 1e200 overflow the logits, so NaN must
    # match NaN. No golden case scores an MLP by loss: this property covers it
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["quadratic-probe", "linear-softmax", "mlp-1-hidden"]),
           wd=st.sampled_from([0.0, 0.3]), n=st.integers(1, 2048), d_in=st.integers(1, 6),
           n_classes=st.integers(2, 16), hidden=st.integers(1, 16),
           log_scale=st.floats(-3.0, 200.0), seed=st.integers(0, 2**32 - 1))
    def test_scores_equal_the_frozen_copies(self, kind, wd, n, d_in, n_classes, hidden,
                                            log_scale, seed):
        rng = np.random.default_rng(seed)
        if kind == "quadratic-probe":
            spec = ModelSpec(kind=kind, loss="quadratic", weight_decay=wd, dim=d_in,
                             curvature=tuple(rng.uniform(0.2, 2.0, d_in)))
            labels = rng.standard_normal((n, d_in))
        else:
            spec = ModelSpec(kind=kind, loss="cross-entropy", weight_decay=wd, d_in=d_in,
                             n_classes=n_classes, hidden=hidden)
            labels = rng.integers(0, n_classes, n)
        batch = Minibatch(rng.standard_normal((n, d_in)), labels)
        theta = 10.0 ** log_scale * rng.standard_normal(spec.n_params)
        with np.errstate(all="ignore"):
            preds = predict(spec, theta, batch.inputs)
            want_preds = frozen_predict(spec, theta, batch.inputs)
            assert np.array_equal(preds, want_preds)
            assert same(step_ahead_performance(spec, preds, batch),
                        frozen_step_ahead_performance(spec, want_preds, batch))
            for metric in ("accuracy", "loss"):
                assert same(validation_performance(spec, theta, batch, metric),
                            frozen_validation_performance(spec, theta, batch, metric))


    # a stack of models is scored in one pass: each row's score equals the
    # frozen copy's for that row alone, bit for bit, as a Python float; rows
    # take scales of their own, so some overflow while others do not
    @settings(max_examples=300, deadline=None)
    @given(kind=KINDS, wd=st.sampled_from([0.0, 0.3]), m=st.sampled_from([1, 2, 3]),
           n=st.integers(1, 256), d_in=st.integers(1, 6), n_classes=st.integers(2, 16),
           hidden=st.integers(1, 16), log_scale=st.floats(-3.0, 200.0),
           seed=st.integers(0, 2**32 - 1))
    def test_a_stack_scores_as_its_rows(self, kind, wd, m, n, d_in, n_classes, hidden,
                                        log_scale, seed):
        rng = np.random.default_rng(seed)
        spec, labels = random_spec_and_labels(rng, kind, wd, n, d_in, n_classes, hidden)
        batch = Minibatch(rng.standard_normal((n, d_in)), labels)
        scales = 10.0 ** rng.uniform(-3.0, log_scale, (m, 1))
        stack = scales * rng.standard_normal((m, spec.n_params))
        with np.errstate(all="ignore"):
            for metric in ("accuracy", "loss"):
                got = validation_performance(spec, stack, batch, metric)
                want = [frozen_validation_performance(spec, row, batch, metric)
                        for row in stack]
                assert type(got) is list and all(type(v) is float for v in got)
                assert len(got) == m and all(map(same, got, want))


def accepts(check, spec, batch) -> bool:
    try:
        check(spec, batch)
    except ValueError:
        return False
    return True


class TestLabelCheckMatchesFrozen:
    # one reduction over the labels viewed unsigned must accept and reject
    # what a minimum and a maximum did, for every integer dtype: negative
    # labels, labels at or past the class count, and class counts past the
    # largest label a narrow dtype holds
    @settings(max_examples=400, deadline=None)
    @given(dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                                  np.uint8, np.uint16, np.uint32, np.uint64]),
           n_classes=st.integers(2, 20) | st.sampled_from([127, 128, 129, 255, 256, 257]),
           data=st.data())
    def test_label_check_equals_the_frozen_check(self, dtype, n_classes, data):
        info = np.iinfo(dtype)
        near = st.integers(max(info.min, -3), min(info.max, n_classes + 2))
        labels = data.draw(st.lists(near | st.integers(info.min, info.max),
                                    min_size=1, max_size=6), label="labels")
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=n_classes)
        batch = Minibatch(np.zeros((len(labels), 2)), np.array(labels, dtype=dtype))
        assert accepts(check_batch, spec, batch) == accepts(frozen_check_batch, spec, batch)


def wide(x: np.ndarray) -> np.ndarray:
    """Rows as a pool gathers them: each with a trailing 1.0."""
    return np.concatenate((x, np.ones((len(x), 1))), axis=1)


def run_shapes() -> set:
    """(model kind, d_in, n_classes, hidden, rows) of every replay minibatch
    and validation fold that a preset variant or a golden case runs with a
    classifier, read from the configs (the classifier's layers follow from
    the first four)."""
    from tests.test_golden_artifacts import cases
    configs = [cfg for name in PRESET_NAMES for _, cfg in expand_variants(preset(name))]
    shapes = set()
    for cfg in configs + [cfg for cfg, _ in cases().values()]:
        run = Run(cfg, cfg.seeds[0])
        spec = run.model_spec
        if spec.classification:
            for rows in (cfg.replay.batch_size, run.val_batch_size):
                shapes.add((spec.kind, spec.d_in, spec.n_classes, spec.hidden, rows))
    return shapes


class TestOneProduct:
    # rows with the trailing 1.0 take each fused layer in one product each
    # way: bit for bit what the product plus the bias and the product plus
    # the bias's reduction give (the frozen kernels), on every shape a run
    # takes: replay minibatches train, and folds score a stack of models
    def test_the_one_product_form_equals_the_two_op_form_on_every_run_shape(self):
        shapes = run_shapes()
        assert {kind for kind, *_ in shapes} == {"linear-softmax", "mlp-1-hidden"}
        for kind, d_in, n_classes, hidden, n in sorted(shapes):
            spec = ModelSpec(kind=kind, loss="cross-entropy", weight_decay=1e-4, d_in=d_in,
                             n_classes=n_classes, hidden=hidden)
            for seed in range(4):
                rng = np.random.default_rng(seed)
                theta = 10.0 ** rng.uniform(-2.0, 1.0) * rng.standard_normal(spec.n_params)
                x, labels = rng.standard_normal((n, d_in)), rng.integers(0, n_classes, n)
                work = Workspace(spec, theta)
                grad = work.gradient(wide(x), targets(spec, labels))
                assert all(work.fused) and len(work.fused) == len(spec.layers)
                _, want = frozen_loss_and_grad(spec, theta, Minibatch(x, labels))
                assert grad.tobytes() == want.tobytes()
                stack = rng.standard_normal((3, spec.n_params))
                scorer = Workspace(spec, stack)
                logits = scorer.propagate(wide(x))
                assert all(scorer.fused)
                for row, got in zip(stack, logits):
                    assert got.tobytes() == frozen_logits(spec, row, x).tobytes()

    # a layer that one row, one input or one unit leaves outside a gemm call
    # is never fused, so rows with the trailing 1.0 take the plain form there,
    # bit for bit as plain rows do, on any host: one row, or else a
    # classifier's one input or the MLP's one hidden unit
    @settings(max_examples=150, deadline=None)
    @example(kind="linear-softmax", one="rows", n=5, d_in=3, n_classes=4, hidden=2, seed=0)
    @example(kind="mlp-1-hidden", one="rows", n=5, d_in=6, n_classes=9, hidden=5, seed=1)
    @given(kind=st.sampled_from(["linear-softmax", "mlp-1-hidden"]),
           one=st.sampled_from(["rows", "width"]), n=st.integers(1, 64),
           d_in=st.integers(1, 6), n_classes=st.integers(2, 16), hidden=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_no_gemm_call_serves_take_the_plain_form(self, kind, one, n, d_in, n_classes,
                                                          hidden, seed):
        if one == "rows":
            n = 1
        elif kind == "linear-softmax":
            d_in = 1
        else:   # one hidden unit: one unit in, one input out
            hidden = 1
        rng = np.random.default_rng(seed)
        spec = ModelSpec(kind=kind, loss="cross-entropy", weight_decay=1e-4, d_in=d_in,
                         n_classes=n_classes, hidden=hidden)
        theta = rng.standard_normal(spec.n_params)
        x, labels = rng.standard_normal((n, d_in)), rng.integers(0, n_classes, n)
        work = Workspace(spec, theta)
        grad = work.gradient(wide(x), targets(spec, labels))
        assert not any(work.fused)
        _, want = frozen_loss_and_grad(spec, theta, Minibatch(x, labels))
        assert grad.tobytes() == want.tobytes()
        assert Workspace(spec, theta).propagate(wide(x)).tobytes() == \
            frozen_logits(spec, theta, x).tobytes()


class TestAccuracy:
    def spec(self):
        return ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=2)

    def test_perfect_predictor(self):
        spec = self.spec()
        theta = np.zeros(spec.n_params)
        spec.block(theta, "w")[:] = np.array([[5.0, 0.0], [-5.0, 0.0]])
        xs = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0]])
        ys = np.array([0, 1, 0])
        assert validation_performance(spec, theta, Minibatch(xs, ys)) == 1.0

    def test_tie_breaks_toward_lowest_class(self):
        # zero params tie all logits; predictions are class 0 everywhere
        spec = self.spec()
        theta = np.zeros(spec.n_params)
        xs = np.random.default_rng(0).standard_normal((10, 2))
        ys = np.array([0] * 6 + [1] * 4)
        assert validation_performance(spec, theta, Minibatch(xs, ys)) == 0.6

    def test_matches_enumerated_prediction_table(self):
        rng = np.random.default_rng(12)
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=3,
                         n_classes=4)
        theta = init_params(spec, rng)
        xs = rng.standard_normal((20, 3))
        ys = rng.integers(0, 4, 20)
        # independent enumeration: per-example argmax over explicit dot products
        w, b = spec.block(theta, "w"), spec.block(theta, "b")
        correct = 0
        for i in range(20):
            scores = [float(w[c] @ xs[i]) + float(b[c]) for c in range(4)]
            best = max(range(4), key=lambda c: (scores[c], -c))
            correct += int(best == ys[i])
        assert validation_performance(spec, theta, Minibatch(xs, ys)) == correct / 20

    def test_regression_model_is_scored_by_loss(self):
        # a quadratic probe has no accuracy: either metric is the negative
        # mean quadratic loss, 0.5 * mean(sum(a * (theta - y)^2))
        spec = ModelSpec(kind="quadratic-probe", loss="quadratic", dim=2,
                         curvature=(1.0, 3.0), weight_decay=0.5)
        batch = Minibatch(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 2.0]]))
        theta = np.array([1.0, 0.0])   # the decay term would add 0.25
        for metric in ("accuracy", "loss"):
            assert validation_performance(spec, theta, batch, metric) == -3.25

    @pytest.mark.parametrize("metric", ["accuracy", "loss"])
    def test_empty_batch_raises(self, metric):
        spec = self.spec()
        with pytest.raises(ValueError, match="non-empty"):
            validation_performance(spec, np.zeros(spec.n_params),
                                   Minibatch(np.zeros((0, 2)), np.zeros(0, dtype=int)), metric)

    def test_validation_performance_orientation(self):
        spec = ModelSpec(kind="quadratic-probe", loss="quadratic", dim=2,
                         curvature=(1.0, 1.0))
        good = np.array([1.0, 1.0])
        bad = np.array([9.0, 9.0])
        batch = Minibatch(np.tile([1.0, 1.0], (4, 1)), np.tile([1.0, 1.0], (4, 1)))
        assert validation_performance(spec, good, batch) > validation_performance(spec, bad, batch)


class TestLayout:
    # a classifier layer of u units on i inputs is one (u, i + 1) matrix in
    # the vector, row by row: unit u's row is [w_u | b_u], and the layers
    # follow each other. Every block is a view of its entries; the canonical
    # order lists each layer's weights, then its bias, flat.
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["quadratic-probe", "linear-softmax", "mlp-1-hidden"]),
           d_in=st.integers(1, 6), n_classes=st.integers(2, 5),
           hidden=st.integers(1, 7), dim=st.integers(1, 6), seed=st.integers(0, 99))
    def test_each_unit_is_one_row_of_weights_then_bias(self, kind, d_in, n_classes, hidden,
                                                        dim, seed):
        if kind == "quadratic-probe":   # one block, the whole vector
            spec = ModelSpec(kind=kind, loss="quadratic", dim=dim, curvature=(1.0,) * dim)
            theta = init_params(spec, np.random.default_rng(seed))
            assert theta.shape == (dim,) and spec.canonical.tolist() == list(range(dim))
            assert np.shares_memory(spec.block(theta, "theta"), theta)
            return
        spec = ModelSpec(kind=kind, loss="cross-entropy", d_in=d_in, n_classes=n_classes,
                         hidden=hidden)
        layers = ([(n_classes, d_in)] if kind == "linear-softmax"
                  else [(hidden, d_in), (n_classes, hidden)])
        names = [("w", "b")] if kind == "linear-softmax" else [("w1", "b1"), ("w2", "b2")]
        theta = init_params(spec, np.random.default_rng(seed))
        assert theta.shape == (spec.n_params,)
        start, canonical = 0, []
        for (units, inputs), (w, b) in zip(layers, names):
            rows = np.arange(start, start + units * (inputs + 1)).reshape(units, inputs + 1)
            for name, index in ((w, rows[:, :-1]), (b, rows[:, -1])):
                view = spec.block(theta, name)
                assert view.shape == index.shape and np.shares_memory(view, theta)
                assert view.tobytes() == theta[index].tobytes()
                canonical += index.ravel().tolist()
            start += rows.size
        assert start == spec.n_params and list(spec.layout) == [n for pair in names for n in pair]
        assert spec.canonical.tolist() == canonical

    def test_block_views_share_memory(self):
        # per unit: [w_u | b_u], so a write to b lands at the end of each row
        spec = ModelSpec(kind="linear-softmax", loss="cross-entropy", d_in=2,
                         n_classes=2)
        theta = np.zeros(spec.n_params)
        spec.block(theta, "b")[:] = 7.0
        spec.block(theta, "w")[1] = 3.0
        assert theta.tolist() == [0.0, 0.0, 7.0, 3.0, 3.0, 7.0]
        assert theta[spec.canonical].tolist() == [0.0, 0.0, 3.0, 3.0, 7.0, 7.0]

    def test_init_is_deterministic(self):
        from oclopt.rng import substream
        spec = ModelSpec(kind="mlp-1-hidden", loss="cross-entropy", d_in=3,
                         n_classes=2, hidden=4)
        a = init_params(spec, substream(5, 6))
        b = init_params(spec, substream(5, 6))
        assert np.array_equal(a, b)


class TestNoiseWitness:
    def test_single_item_gradient_deviation_within_analytic_bound(self):
        # quadratic stream: single-observation gradients deviate from the
        # batch-mean gradient by at most l_smooth * noise_radius * 2 (each
        # observation is within noise_radius of the center)
        from oclopt.rng import STREAM
        from oclopt.stream import DriftingQuadraticSpec, StreamSpec
        from tests.oracles import grad_at, step_batch

        quad = DriftingQuadraticSpec(dim=3, mu=0.4, l_smooth=1.2,
                                     center0=(1.0, 0.0, -1.0),
                                     velocity=(0.0, 0.0, 0.0), noise_radius=0.5)
        stream = StreamSpec(kind="drifting-quadratic", d_in=3, batch_size=64,
                            horizon=10, seed=3, quadratic=quad)
        spec = ModelSpec(kind="quadratic-probe", loss="quadratic", dim=3,
                         curvature=tuple(quad.eigenvalues()))
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(3)
        batch = Minibatch(*step_batch(stream, 1, STREAM))
        # true gradient of the per-step objective at the noiseless center
        true_grad = grad_at(quad, theta, 1)
        rho = quad.noise_bound()
        for i in range(len(batch.inputs)):
            single = Minibatch(batch.inputs[i:i + 1], batch.labels[i:i + 1])
            g = gradient(spec, theta, single)
            assert np.linalg.norm(g - true_grad) <= rho + 1e-12
