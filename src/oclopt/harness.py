"""Config-driven experiment runner tying streams, pools, models, optimizers,
schedules, and metrics together.

An experiment executes the online protocol for the configured horizon. One
``Run`` holds a seed's state, and ``run_protocol_step`` executes one step on
it: reveal a batch, record pre-update predictions, integrate the batch into
the training/holdout pools, then take the step's replay minibatches and run
``iters_per_step`` optimizer iterations on them. Pool draws and row copies
are planned once per block of steps (see ``oclopt.datapool``).
Moving-average, online validation, and learning-rate events fire on their
global-iteration intervals. Everything is deterministic per seed; rerunning the
``config.yaml`` of a run directory reproduces its artifacts byte for byte.
"""

from __future__ import annotations

import copy as copymod
import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__, datapool
from . import rng as rngmod
from .datapool import (UNSERVED, DataPool, EmptyPoolError, Minibatch, sample_folds,
                       sample_mixed_replay, sample_pure_replay)
from .metrics import MetricLedger, forward_transfer, information_retention
from .model import (DivergenceError, ModelSpec, Workspace, check_batch, init_params, predict,
                    step_ahead_performance, targets, validation_performance)
from .optim import (AmaState, CostCounter, adam_step, ama_step, best_ma, init_adam,
                    init_averager, init_sgd, save_optimizer, sgd_step)
from .rng import substream
from .schedule import controller
from .stream import DriftingQuadraticSpec, PiecewiseTaskSpec, RotatingGaussianSpec, StreamSpec
from .theory import BoundReport, make_rate_schedule, verify_bound


class ConfigError(ValueError):
    """The experiment configuration is inconsistent or incomplete."""


class ProtocolError(RuntimeError):
    """Protocol steps must be executed strictly in order."""


# -- configuration tree ---------------------------------------------------------

@dataclass
class StreamConfig:
    kind: str = "rotating-gaussian"
    d_in: int = 2
    batch_size: int = 32
    horizon: int = 1000
    # drifting-quadratic
    mu: float = 0.5
    l_smooth: float = 1.0
    center0: list[float] = field(default_factory=lambda: [1.0, 1.0])
    velocity: list[float] = field(default_factory=lambda: [0.0, 0.0])
    noise_radius: float = 0.5
    # rotating-gaussian
    n_classes: int = 2
    mean_radius: float = 2.0
    angular_velocity: float = 0.01
    noise_std: float = 0.5
    # piecewise-task
    classes_per_task: int = 2
    task_length: int = 100
    mean_scale: float = 3.0


@dataclass
class ModelConfig:
    kind: str = "linear-softmax"
    loss: str = "cross-entropy"
    weight_decay: float = 1e-4
    hidden: int = 16


AVERAGING = ("none", "ema", "ama")   # index: the number of MA models kept


@dataclass
class OptimizerConfig:
    base: str = "sgd"          # sgd | adam
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    averaging: str = "ama"     # none | ema | ama
    gamma0: float = 0.99
    delta: float = 5.0
    k_m: int = 10
    k_v: int = 20
    k_w: int = 10000
    adapt: bool = True


@dataclass
class ReplayConfig:
    mode: str = "pure"         # pure | mixed
    batch_size: int = 32
    window: Optional[int] = None   # mixed-replay history window; None = full
    capacity: Optional[int] = None # None = unlimited: the stream's horizon * batch_size
    holdout_fraction: float = 0.05


@dataclass
class ScheduleConfig:
    kind: str = "malr"         # constant | rwp | malr | cyclic | trace
    alpha0: float = 0.025
    beta_lr: float = 0.5
    k_r: int = 500
    epsilon: float = 0.03
    metric: str = "accuracy"   # accuracy | loss
    use_c2: bool = True
    use_c3: bool = True
    lr_trace: Optional[list] = None   # kind == trace: alpha per iteration


@dataclass
class TheoryConfig:
    k_max: int
    n_seeds: int
    alpha0: float
    configs: list              # [[label, {velocity: speed, schedule: rate kind}], ...]
    halve_every: int = 250

    def __post_init__(self):
        if not self.configs:
            raise ConfigError("theory.configs must list at least one config")
        for label, p in _labelled(self.configs, "config"):
            _check(p, {"velocity": "float", "schedule": "str"}, f"config {label!r}",
                   required=("velocity", "schedule"))
            try:   # the rate kind, and halve_every for a halving one
                make_rate_schedule(p["schedule"], self.alpha0, 1, self.halve_every)
            except ValueError as e:
                raise ConfigError(f"theory config {label!r}: {e}") from e
        if self.k_max < 1 or self.n_seeds < 2:
            raise ConfigError(f"theory needs k_max >= 1 and n_seeds >= 2, got "
                              f"{self.k_max} and {self.n_seeds}")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seeds: list = field(default_factory=lambda: [0])
    stream: StreamConfig = field(default_factory=StreamConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    iters_per_step: int = 1
    eval_every: int = 20
    ft_k1: Optional[int] = None   # default: 10% of horizon
    ft_k2: Optional[int] = None   # default: 25% of horizon
    val_batch_size: Optional[int] = None  # default: replay batch size
    out_dir: Optional[str] = None
    companion: Optional[str] = None       # e.g. ema-replay
    variants: Optional[list] = None       # [[label, {dotted.key: value}], ...]
    theory: Optional[TheoryConfig] = None  # the bound check (theory-verify presets)

    def validate(self):
        """Build every seed's run; the run's constructor owns every other
        check and reports what it rejects as a ConfigError."""
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        for seed in self.seeds:
            Run(self, seed)
        return self


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def _finite(v) -> bool:
    """v is an int or a float, not a bool, that a float holds finite (an
    integer too large for a float is not: math.isfinite raises on it)."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def _check(block, kinds: dict, where: str, required=()):
    """Reject a block that is no mapping, keys ``kinds`` (key -> annotation) does not
    name, ``required`` keys it lacks and values their key's annotation does not take."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping of keys to values, got {block!r}")
    unknown = set(block) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown, key=str)}")
    missing = [key for key in required if key not in block]
    if missing:
        raise ConfigError(f"missing {where} keys: {missing}")
    for key, value in block.items():
        # type() rather than isinstance(): a bool is neither an integer nor a number
        # here, and a string or a number is no bool
        kind = kinds[key]
        types, what = {
            "int": ((int,), "an integer"), "Optional[int]": ((int, type(None)), "an integer"),
            "float": ((int, float), "a finite number"),
            "list[float]": ((list,), "a list of finite numbers"),
            "bool": ((bool,), "true or false"), "str": ((str,), "a string"),
            "Optional[str]": ((str, type(None)), "a string or null"),
            "list": ((list,), "a list"), "Optional[list]": ((list, type(None)), "a list or null"),
        }.get(kind, ((type(value),), ""))
        numbers = {"float": [value], "list[float]": value}.get(kind, ())
        if type(value) not in types or not all(map(_finite, numbers)):
            raise ConfigError(f"{where} key {key} must be {what}, got {value!r}")


def _build(cls, block: dict, where: str):
    """cls(**block), rejecting unknown or missing keys and values of the wrong type."""
    fields = dataclasses.fields(cls)
    _check(block, {f.name: f.type for f in fields}, where, [
        f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING])
    return cls(**block)


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("a config is a mapping of keys to values, got "
                          + ("nothing" if d is None else type(d).__name__))
    d = copymod.deepcopy(d)
    parts = {name: _build(cls, d.pop(name, {}), name)
             for name, cls in (("stream", StreamConfig), ("model", ModelConfig),
                               ("optimizer", OptimizerConfig), ("replay", ReplayConfig),
                               ("schedule", ScheduleConfig))}
    if d.get("theory") is not None:
        parts["theory"] = _build(TheoryConfig, d.pop("theory"), "theory")
    return _build(ExperimentConfig, {**d, **parts}, "top-level")


def save_config(config: ExperimentConfig, path):
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=True))


def load_config(path) -> ExperimentConfig:
    try:
        return config_from_dict(yaml.safe_load(Path(path).read_text()))
    except (OSError, TypeError, yaml.YAMLError) as e:   # OSError: a file it cannot read
        raise ConfigError(str(e)) from e


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply dotted-key overrides (e.g. {'schedule.kind': 'rwp'}) to a copy."""
    d = config_to_dict(config)
    for key, value in overrides.items():
        node, parts = d, str(key).split(".")
        for p in parts[:-1]:   # a path through a leaf or a null block is unknown too
            node = node.get(p) if isinstance(node, dict) else None
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ConfigError(f"unknown override key {key!r}")
        node[parts[-1]] = value
    return config_from_dict(d)


# -- experiment construction -----------------------------------------------------

def build_stream_spec(config: ExperimentConfig, seed: int) -> StreamSpec:
    s = config.stream
    quadratic = rotating = piecewise = None
    if s.kind == "drifting-quadratic":
        quadratic = DriftingQuadraticSpec(
            dim=s.d_in, mu=s.mu, l_smooth=s.l_smooth,
            center0=tuple(s.center0), velocity=tuple(s.velocity),
            noise_radius=s.noise_radius)
    elif s.kind == "rotating-gaussian":
        rotating = RotatingGaussianSpec(
            n_classes=s.n_classes, mean_radius=s.mean_radius,
            angular_velocity=s.angular_velocity, noise_std=s.noise_std)
    elif s.kind == "piecewise-task":
        piecewise = PiecewiseTaskSpec(
            n_classes=s.n_classes, classes_per_task=s.classes_per_task,
            task_length=s.task_length, mean_scale=s.mean_scale,
            noise_std=s.noise_std)
    return StreamSpec(kind=s.kind, d_in=s.d_in, batch_size=s.batch_size,
                      horizon=s.horizon, seed=seed, quadratic=quadratic,
                      rotating=rotating, piecewise=piecewise)


def build_model_spec(config: ExperimentConfig, stream_spec: StreamSpec) -> ModelSpec:
    m, s = config.model, config.stream
    if m.kind == "quadratic-probe":
        return ModelSpec(kind="quadratic-probe", loss="quadratic",
                         weight_decay=m.weight_decay, dim=s.d_in,
                         curvature=tuple(stream_spec.quadratic.eigenvalues()))
    return ModelSpec(kind=m.kind, loss=m.loss, weight_decay=m.weight_decay,
                     d_in=s.d_in, n_classes=s.n_classes, hidden=m.hidden)


# -- runs ------------------------------------------------------------------------

@dataclass
class RunResult:
    config: ExperimentConfig
    seed: int
    metric_rows: list          # (t, k, p_le, p_ir, p_ft, alpha, sigma, g1, g2, i_best)
    schedule_rows: list        # (k, alpha, sigma, val_perf, conditions_mask)
    ledger: MetricLedger
    costs: CostCounter
    lr_trace: list             # alpha used at each iteration 1..K
    base: object               # the base optimizer state (SgdState or AdamState)
    diverged: bool = False
    ama: Optional[AmaState] = None   # the averager (0, 1 or 2 MA models)

    def final_metrics(self) -> dict:
        return last_values(self.metric_rows)


METRIC_COLUMNS = ("t", "k", "p_le", "p_ir", "p_ft", "alpha", "sigma",
                  "gamma_ma1", "gamma_ma2", "i_best")
SCHEDULE_COLUMNS = ("k", "alpha", "sigma", "val_perf", "conditions")


def last_values(rows) -> dict:
    """The last non-NaN p_le, p_ir, p_ft and alpha over metric rows (a run's,
    or those read back from a metrics.csv), NaN where a column has none."""
    last = dict.fromkeys(METRIC_COLUMNS[2:6], float("nan"))
    for row in rows:
        for name, val in zip(METRIC_COLUMNS[2:6], map(float, row[2:6])):
            if not math.isnan(val):
                last[name] = val
    return last


def _check_rows(spec: ModelSpec, xs: np.ndarray, ys: np.ndarray):
    """``check_batch`` on a block's rows, stacked by step or fold."""
    check_batch(spec, Minibatch(*(a.reshape(-1, *a.shape[2:]) for a in (xs, ys))))


def run_protocol_step(run, t: int):
    """Execute step t of the online protocol on a run.

    A block's first step (one at or past ``run.served.stop``) plans the
    block's pool offers (``datapool.update``) and keeps them in
    ``run.served``. Then every step is served by index, in order: (1) its
    batch is its row of the served stream block, (2) ``run.predict`` scores
    every datum before labels are revealed, (3) ``datapool.advance`` moves
    ``run.pool`` and ``run.holdout`` by their offer plans, (4)
    ``run.update(t)`` runs the iterations. A step draws nothing outside a
    block's first, except where a capped pool's offers overwrite stored
    items under mixed replay: from that step on, its history windows are
    drawn and gathered again. A pure-replay step that overwrites only
    writes its slots (see ``oclopt.datapool``).

    A step that raises ends the run: nothing is rolled back. The pools keep
    the step's offers (their ``last_step`` is t, so the step cannot be run
    again), and the optimizer, averager, schedule, compute costs and
    learning-rate trace keep the iterations completed before the failure.

    ``run`` is anything with ``stream_spec``, ``pool``, ``holdout``,
    ``served`` (``datapool.UNSERVED`` before the first step), ``predict``
    and ``update``. Returns (predictions, batch); predictions come from the
    pre-update parameters.
    """
    pool, served = run.pool, run.served
    if t != pool.last_step + 1:
        raise ProtocolError(f"expected step {pool.last_step + 1}, got {t}")
    if t >= served.stop:
        served = run.served = datapool.update(pool, run.holdout, run.stream_spec, t)
    i = t - served.first
    batch = Minibatch(served.inputs[i], served.labels[i])
    predictions = run.predict(batch.inputs)
    datapool.advance(served, t)
    run.update(t)
    return predictions, batch


class Run:
    """All mutable state of one seed's run, and the learner the protocol drives.

    Building a run validates a config for one seed: the constructor checks
    the seed and the kinds and pairings only the harness knows, and reports
    whatever the constructors it calls reject as a ConfigError. One rate
    controller, ``rate`` (see ``oclopt.schedule``), sets every iteration's
    rate. ``step(t)`` executes protocol step t through ``run_protocol_step``,
    which calls back ``predict`` and ``update``, then records the step's
    metrics.
    """

    def __init__(self, config: ExperimentConfig, seed: int):
        try:
            o, r, s = config.optimizer, config.replay, config.schedule
            stream_kind, model_kind = config.stream.kind, config.model.kind
            horizon = config.stream.horizon
            self.val_batch_size = (r.batch_size if config.val_batch_size is None
                                   else config.val_batch_size)
            self.ft_k1 = config.ft_k1 if config.ft_k1 is not None else max(1, horizon // 10)
            self.ft_k2 = config.ft_k2 if config.ft_k2 is not None else max(2, horizon // 4)
            # the kinds, pairings and values only the harness resolves; every
            # other range check sits in the constructor that owns the value
            errors = [message for bad, message in (
                # type() rather than isinstance(): a bool is not a seed
                (type(seed) is not int or seed < 0,
                 f"seeds must be non-negative integers, got {seed!r}"),
                (r.mode not in ("pure", "mixed"), f"unknown replay mode {r.mode!r}"),
                (r.mode == "mixed" and r.batch_size % 2 != 0,
                 "mixed replay needs an even batch size"),
                (r.window is not None and r.window < 0, "replay.window must be >= 0 or null"),
                (s.metric not in ("accuracy", "loss"), f"unknown schedule metric {s.metric!r}"),
                (o.averaging not in AVERAGING, f"unknown averaging mode {o.averaging!r}"),
                (s.kind == "malr" and o.averaging == "none",
                 "malr needs a moving-average model for the sigma signal"),
                # with no holdout every validation fold is skipped
                (r.holdout_fraction == 0 and (s.kind in ("rwp", "malr") or o.averaging == "ama"),
                 "rwp, malr and ama read validation, which needs replay.holdout_fraction > 0"),
                (s.kind == "cyclic" and stream_kind != "piecewise-task",
                 "cyclic schedule requires a task-aware (piecewise) stream"),
                (o.base not in ("sgd", "adam"), f"unknown base optimizer {o.base!r}"),
                (config.companion not in (None, "ema-replay"),
                 f"unknown companion {config.companion!r}"),
                (config.model.hidden < 1, "model.hidden must be >= 1"),
                (model_kind == "quadratic-probe" and stream_kind != "drifting-quadratic",
                 "quadratic-probe model requires the drifting-quadratic stream"),
                (stream_kind == "drifting-quadratic" and model_kind != "quadratic-probe",
                 "drifting-quadratic stream requires the quadratic-probe model"),
                (config.iters_per_step < 0, "iters_per_step must be >= 0"),
                (config.eval_every < 1, "eval_every must be >= 1"),
                (r.batch_size < 1, "replay.batch_size must be >= 1"),
                (self.val_batch_size < 1, "val_batch_size must be >= 1 or null"),
                (not self.ft_k2 > self.ft_k1 >= 1,
                 "the forward-transfer window needs ft_k2 > ft_k1 >= 1")) if bad]
            if errors:
                raise ValueError("; ".join(errors))
            self.rate = controller(s, config.stream.task_length * config.iters_per_step)

            self.config = config
            self.seed = seed
            self.stream_spec = build_stream_spec(config, seed)
            self.model_spec = build_model_spec(config, self.stream_spec)
            items = horizon * config.stream.batch_size   # no pool is offered more
            self.pool = DataPool(items if r.capacity is None else r.capacity, seed=seed)
            self.holdout = DataPool(items, seed=seed, holdout_fraction=r.holdout_fraction)
            theta = init_params(self.model_spec, substream(seed, rngmod.INIT))
            n_models = AVERAGING.index(o.averaging)
            # EMA and plain SGD have no weights to adapt, but their validation
            # window still resets every k_w iterations
            self.averager = init_averager(theta, n_models, gamma0=o.gamma0, delta=o.delta,
                                          k_m=o.k_m, k_v=o.k_v, k_w=o.k_w,
                                          adapt=o.adapt or n_models < 2)
            theta = self.averager.sgd   # the base optimizer steps the models' last row
            # the training kernel, bound once: the model kind's gradient and the base step
            self.work = Workspace(self.model_spec, theta)
            self.gradient = self.work.gradient
            if o.base == "sgd":
                self.base, self.base_step = init_sgd(theta, beta=o.momentum), sgd_step
            else:
                self.base, self.base_step = init_adam(theta, beta1=o.beta1, beta2=o.beta2,
                                                      eps=o.adam_eps), adam_step
            # each model's views and prediction buffers, apart from training's,
            # and the whole stack's, which a validation fold scores
            self.predictors = [Workspace(self.model_spec, row) for row in self.averager.models]
            self.scorer = Workspace(self.model_spec, self.averager.models)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e
        self.k = 0
        self.diverged = False
        self.ledger = MetricLedger()
        self.costs = CostCounter()
        self.metric_rows = []
        self.schedule_rows = []
        self.lr_trace = []
        self.val_rng = substream(seed, rngmod.VALIDATION)
        self.folds = (0, (), None)   # (first fold, bounds, rows)
        self.served = UNSERVED      # the block's steps served by index

    def plan_folds(self):
        """Plan the validation minibatches of the folds the run reaches in the
        block, at its first step: one bound per fold, the holdout's size at
        the fold's step, read from the offer plans. The holdout keeps every
        datum routed to it, so its rows stay put through the block. Every
        fold's rows are checked here, so a fold scores them as they are."""
        p, k_v = self.config.iters_per_step, self.averager.k_v
        (_, pool_plan), (_, holdout_plan) = self.served.offers
        sizes = np.array(holdout_plan.seen[1:])
        iters = np.full(len(sizes), p)
        if self.config.replay.mode == "pure":   # a step with an empty pool runs no iterations
            iters *= np.array(pool_plan.seen[1:]) > 0
        done = self.k + np.cumsum(iters)
        folds = np.arange(self.k // k_v + 1, done[-1] // k_v + 1)
        bounds = sizes[done.searchsorted(folds * k_v)]
        rows = sample_folds(self.holdout, self.val_batch_size, self.val_rng, bounds)
        if rows is not None:
            _check_rows(self.model_spec, *rows)
        self.folds = (self.k // k_v + 1, bounds, rows)

    def sample_validation(self):
        """The validation minibatch of the fold at iteration k, from the fold
        plan; None while the holdout is empty (the fold is skipped). A fold
        that the plan did not draw at the holdout's current size is an
        internal error: drawing it now would shift every later fold."""
        size, (first, bounds, rows) = self.holdout.size, self.folds
        i = self.k // self.averager.k_v - first
        if size == 0:
            return None
        if not (0 <= i < len(bounds) and bounds[i] == size):
            raise RuntimeError(f"internal error: fold {i + first} at holdout size {size} "
                               "is not in the fold plan")
        return Minibatch(rows[0][i], rows[1][i])

    def evaluate(self, models, batch) -> list:
        # rows checked by plan_folds; the schedule/validation signal orientation
        # is configurable, the stream metrics use the model family's natural one
        return validation_performance(self.model_spec, models, batch,
                                      metric=self.config.schedule.metric, work=self.scorer)

    def predict(self, inputs):
        work = self.predictors[self.averager.i_best - 1]   # best_ma's row
        return predict(self.model_spec, work.theta, inputs, work)

    def update(self, t: int):
        """Run one iteration on each of the step's replay minibatches: taken
        by index from the rows the pool gathered at an earlier step, or else
        drawn from the pool's plan for the block, which gathers them for
        every later step of the block (pure replay, capped or not) or for the
        steps up to the next one whose offers overwrite a stored item (mixed
        replay). A pure-replay step with an empty training pool (every datum
        so far went to the holdout) runs no iterations. The first step of a
        block checks the served rows, which replay serves, against the model
        and plans the block's validation folds. The step's targets (one-hot
        rows of a classifier's labels) are built once for all its iterations."""
        p, r, served = self.config.iters_per_step, self.config.replay, self.served
        if p and t == served.first:
            _check_rows(self.model_spec, served.inputs, served.labels)
            self.plan_folds()
        first, xs, ys = self.pool.gathered
        if not 0 <= t - first < len(xs):
            if p == 0 or (r.mode == "pure" and self.pool.size == 0):
                return
            if r.mode == "pure":
                sample_pure_replay(self.pool, r.batch_size, count=p)
            else:
                sample_mixed_replay(self.pool, r.batch_size, window=r.window, count=p)
            first, xs, ys = self.pool.gathered
        x, m = xs[t - first], r.batch_size
        hot = targets(self.model_spec, ys[t - first])
        for i in range(0, p * m, m):
            self.iterate(x[i:i + m], hot[i:i + m])

    def iterate(self, x, target):
        """One optimizer iteration on a replay minibatch, its inputs x and its
        labels' targets (``model.targets``): the run's kernel takes the base
        step at the controller's rate, then the averager takes the iteration
        if one of its intervals ends there. At a validation fold whose window
        is non-empty, the controller observes the fold, and a row it returns
        goes to ``schedule_rows``."""
        k = self.k + 1
        alpha = self.rate.alpha(k)
        self.costs.forward += 1
        self.costs.grad += 1
        self.base_step(self.base, self.gradient(x, target), alpha)
        self.costs.update += 1
        self.k = k
        self.lr_trace.append(alpha)
        avg = self.averager
        if k % avg.k_m and k % avg.k_v and (k % avg.k_w or not avg.adapt):
            return   # the averager moves nothing at k
        ama_step(avg, k, self.sample_validation, self.evaluate, self.costs)
        if k % avg.k_v == 0 and avg.n > 0:   # a fold scored a non-empty window
            row = self.rate.observe(k, avg.best_perf(), avg.sigma())
            if row is not None:
                self.schedule_rows.append(row)

    def step(self, t: int) -> bool:
        """Run protocol step t and record its metrics; False once diverged."""
        try:
            predictions, batch = run_protocol_step(self, t)
        except DivergenceError:
            self.diverged = True
            return False
        if t >= 2:
            self.ledger.record_step_ahead(
                t - 1, step_ahead_performance(self.model_spec, predictions, batch))
        horizon = self.config.stream.horizon
        if t % self.config.eval_every == 0 or t == horizon:
            p_le = self.ledger.learning_efficacy(t - 1) if t >= 2 else float("nan")
            try:
                p_ir = information_retention(self.model_spec, best_ma(self.averager),
                                             self.holdout, t)
            except EmptyPoolError:
                p_ir = float("nan")
            if t + self.ft_k2 <= horizon:
                p_ft = forward_transfer(self.model_spec, best_ma(self.averager),
                                        self.stream_spec, t, self.ft_k1, self.ft_k2)
            else:
                p_ft = float("nan")
            alpha_now = self.lr_trace[-1] if self.lr_trace else float("nan")
            self.metric_rows.append((t, self.k, p_le, p_ir, p_ft, alpha_now)
                                    + self.averager.search_columns())
        return True

    def result(self) -> RunResult:
        return RunResult(config=self.config, seed=self.seed, metric_rows=self.metric_rows,
                         schedule_rows=self.schedule_rows, ledger=self.ledger,
                         costs=self.costs, lr_trace=self.lr_trace, base=self.base,
                         diverged=self.diverged, ama=self.averager)


def run_experiment(config: ExperimentConfig, seed: Optional[int] = None,
                   out_dir=None) -> RunResult:
    """Execute the protocol for one seed; optionally write artifacts."""
    run = Run(config, config.seeds[0] if seed is None and config.seeds else seed)
    # non-finite values are the divergence signal, so overflow is not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.stream.horizon + 1):
            if not run.step(t):
                break
    result = run.result()
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


# -- artifacts -------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_artifacts(result: RunResult, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "metrics.csv", METRIC_COLUMNS, result.metric_rows)
    write_csv(out / "schedule.csv", SCHEDULE_COLUMNS, result.schedule_rows)
    save_config(result.config, out / "config.yaml")
    save_optimizer(out / "checkpoint.npz", result.base, result.ama)
    manifest = {
        "package_version": __version__,
        "seed": result.seed,
        "config": config_to_dict(result.config),
        "status": "diverged" if result.diverged else "ok",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def run_with_companions(config: ExperimentConfig, seed: Optional[int] = None,
                        out_dir=None) -> dict:
    """Run a config plus its companion runs (e.g. EMA replaying the MALR LR trace)."""
    results = {}
    base_dir = Path(out_dir) if out_dir is not None else None
    main_out = base_dir / "main" if base_dir else None
    results["main"] = run_experiment(config, seed=seed, out_dir=main_out)
    if config.companion == "ema-replay":
        ema_cfg = apply_overrides(config, {
            "optimizer.averaging": "ema",
            "schedule.kind": "trace",
            "schedule.lr_trace": [float(a) for a in results["main"].lr_trace],
            "companion": None,
        })
        ema_out = base_dir / "ema-replay" if base_dir else None
        results["ema-replay"] = run_experiment(ema_cfg, seed=seed, out_dir=ema_out)
    return results


# -- presets ---------------------------------------------------------------------

# Interval scaling: the paper-scale intervals (K_W=10000, K_R=60000 over tens
# of millions of iterations) shrink proportionally at desk scale. Presets keep
# K_M=10 and use K_V=10, K_W in the 200-400 range (20-40 validation folds per
# adaptation window) and K_R ~= 2-5% of the total iteration count.

# slow mean rotation; retention validation declines once the swept arc
# outgrows any fixed boundary, which drives plateau-based annealing
_ROTATING = {"stream.horizon": 900, "stream.angular_velocity": 0.004, "stream.noise_std": 0.6,
             "optimizer.k_v": 10, "optimizer.k_w": 300, "schedule.alpha0": 0.05,
             "schedule.k_r": 40, "iters_per_step": 2, "eval_every": 100, "val_batch_size": 64}
# every task introduces fresh classes, so an over-annealed rate never
# recovers the later tasks; K_W spans 40 validation folds so the sigma
# estimate stays smooth enough for C3 to gate reliably
_TASKS = {"stream.kind": "piecewise-task", "stream.d_in": 6, "stream.n_classes": 16,
          "stream.horizon": 800, "stream.mean_scale": 2.2, "stream.noise_std": 1.0,
          "optimizer.k_v": 10, "optimizer.k_w": 400, "schedule.alpha0": 0.08,
          "schedule.k_r": 40, "iters_per_step": 2, "eval_every": 200, "val_batch_size": 128}
# tasks cycle, so the future window (one full cycle) rewards retention
_CYCLE = {"stream.kind": "piecewise-task", "stream.d_in": 4, "stream.n_classes": 4,
          "stream.task_length": 50, "stream.horizon": 400, "stream.mean_scale": 2.0,
          "stream.noise_std": 1.2, "optimizer.k_v": 10, "optimizer.k_w": 200,
          "schedule.kind": "constant", "eval_every": 50, "val_batch_size": 64,
          "ft_k1": 40, "ft_k2": 140}
# the base optimizer alone, annealed on plateaus of the validation loss
_PLAIN_RWP = {"optimizer.averaging": "none", "schedule.kind": "rwp", "schedule.metric": "loss"}

PRESETS = {
    "main-comparison": {**_ROTATING, "variants": [
        ["ama-malr", {}],
        ["ama-rwp", {"schedule.kind": "rwp", "schedule.metric": "loss"}],
        ["sgd-rwp", _PLAIN_RWP],
        ["ama-clr", {"schedule.kind": "constant"}],
        ["sgd-clr", {"optimizer.averaging": "none", "schedule.kind": "constant"}]]},
    "malr-ablation": {**_TASKS, "variants": [
        ["malr", {}],
        ["no-c2", {"schedule.use_c2": False}],
        ["no-c3", {"schedule.use_c3": False}],
        ["rwp", {"schedule.use_c2": False, "schedule.use_c3": False}]]},
    "ama-vs-ema": {**_ROTATING, "companion": "ema-replay"},
    # heavy-parallelism trade: larger minibatches take proportionally fewer
    # iterations per step at a proportionally larger rate
    "batch-size": {**_CYCLE, "stream.batch_size": 64, "schedule.alpha0": 0.06,
                   "replay.batch_size": 16, "iters_per_step": 8, "variants": [
        ["m16", {"replay.batch_size": 16, "iters_per_step": 8, "schedule.alpha0": 0.06}],
        ["m64", {"replay.batch_size": 64, "iters_per_step": 2, "schedule.alpha0": 0.3}],
        ["m128", {"replay.batch_size": 128, "iters_per_step": 1, "schedule.alpha0": 0.6}]]},
    # same task stream as the ablation; capacities sweep three decades
    "buffer-size": {**_TASKS, "variants": [
        ["cap-100", {"replay.capacity": 100}],
        ["cap-1000", {"replay.capacity": 1000}],
        ["cap-10000", {"replay.capacity": 10000}]]},
    # pure replay doubles the minibatch so gradient steps per image match
    "objective-comparison": {**_CYCLE, "schedule.alpha0": 0.05, "replay.batch_size": 64,
                             "variants": [
        ["pure-p1", {"replay.mode": "pure", "replay.batch_size": 64, "iters_per_step": 1}],
        ["pure-p5", {"replay.mode": "pure", "replay.batch_size": 64, "iters_per_step": 5}],
        ["mixed-p1", {"replay.mode": "mixed", "replay.batch_size": 32, "iters_per_step": 1}],
        ["mixed-p5", {"replay.mode": "mixed", "replay.batch_size": 32, "iters_per_step": 5}]]},
    "adam-base": {**_ROTATING, "optimizer.base": "adam", "schedule.alpha0": 0.002,
                  "variants": [["adam-ama-malr", {}], ["adam-rwp", _PLAIN_RWP]]},
    "task-cyclic": {**_TASKS, "stream.n_classes": 10, "stream.horizon": 1000,
                    "eval_every": 100, "variants": [
        ["ama-malr", {}],
        ["sgd-cyclic", {"optimizer.averaging": "none", "schedule.kind": "cyclic"}],
        ["sgd-rwp", _PLAIN_RWP]]},
    "theory-verify": {
        "stream.kind": "drifting-quadratic", "stream.d_in": 4, "stream.mu": 0.25,
        "stream.center0": [2.0, -1.0, 1.0, 0.5], "stream.velocity": [0.0] * 4,
        "stream.batch_size": 1, "stream.horizon": 4000, "model.kind": "quadratic-probe",
        "model.loss": "quadratic", "model.weight_decay": 0.0,
        "schedule.kind": "constant", "schedule.alpha0": 0.2,
        "theory": {"k_max": 2000, "n_seeds": 24, "alpha0": 0.2, "halve_every": 250,
                   "configs": [
            ["stationary-constant", {"velocity": 0.0, "schedule": "constant"}],
            ["stationary-invsqrt", {"velocity": 0.0, "schedule": "invsqrt"}],
            ["drift-constant", {"velocity": 0.002, "schedule": "constant"}],
            ["drift-invsqrt", {"velocity": 0.002, "schedule": "invsqrt"}],
            ["drift-halving", {"velocity": 0.002, "schedule": "halving"}],
            ["fast-drift-constant", {"velocity": 0.01, "schedule": "constant"}],
            ["fast-drift-halving", {"velocity": 0.01, "schedule": "halving"}]]}},
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> ExperimentConfig:
    """A desk-scale config mirroring the structure of one headline experiment:
    its PRESETS table of dotted-key overrides applied to the config defaults."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return apply_overrides(ExperimentConfig(name=name), PRESETS[name])


def _labelled(entries, what: str) -> list:
    """[(label, table)] of a list of [label, {key: value}] entries. A label
    names an output file or directory, so labels are unique non-empty names
    with no path separator."""
    if not isinstance(entries, list):
        raise ConfigError(f"{what}s are a list of [label, {{key: value}}] entries, "
                          f"got {entries!r}")
    out = {}
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[1], dict)):
            raise ConfigError(f"a {what} is [label, {{key: value}}], got {entry!r}")
        label, table = entry
        if not isinstance(label, str) or label in ("", ".", "..") or {"/", "\\"} & set(label):
            raise ConfigError(f"a {what} label is a non-empty name with no path separator, "
                              f"got {label!r}")
        if label in out:
            raise ConfigError(f"{what} label {label!r} is used twice")
        out[label] = table
    return list(out.items())


def expand_variants(config: ExperimentConfig):
    """Yield (label, concrete config) pairs for a config and its variants. A
    label names the variant's output directory, so labels are unique names."""
    if not config.variants:
        yield "base", config
        return
    for label, overrides in _labelled(config.variants, "variant"):
        out = apply_overrides(config, overrides)
        out.variants = None
        out.name = f"{config.name}/{label}"
        yield label, out


# -- theory-verify plumbing --------------------------------------------------------

def _bound_setups(config: ExperimentConfig) -> list:
    """[(label, drifting quadratic, rates alpha_1 .. alpha_{k_max+2})] of every
    (schedule, drift) combination of a theory-verify config: the run's quadratic
    at each config's drift speed, spread evenly over its axes."""
    th, d = config.theory, config.stream.d_in
    if th is None or config.stream.kind != "drifting-quadratic":
        raise ValueError("needs this block and a drifting-quadratic stream, as in theory-verify")
    q = build_stream_spec(config, config.seeds[0]).quadratic
    return [(label, dataclasses.replace(q, velocity=tuple(np.full(d, p["velocity"]) / np.sqrt(d))),
             make_rate_schedule(p["schedule"], th.alpha0, th.k_max + 2, th.halve_every))
            for label, p in _labelled(th.configs, "config")]


def verify_bounds_from_config(config: ExperimentConfig) -> list:
    """[(label, BoundReport)] of every (schedule, drift) combination of a
    theory-verify config, which must validate as a run first."""
    th = config.validate().theory
    try:   # verify_bound checks the rates against the quadratic
        return [(label, verify_bound(quad, alphas, th.k_max, n_seeds=th.n_seeds,
                                     base_seed=config.seeds[0]))
                for label, quad, alphas in _bound_setups(config)]
    except ValueError as e:   # AssumptionError is a ValueError
        raise ConfigError(f"theory: {e}") from e


def identical_bound_configs(config: ExperimentConfig) -> list:
    """[(earlier label, later label)] of the combinations whose drift and rate
    sequence over the checked horizon are identical, so their results are too
    (for example a halving schedule that never halves before k_max)."""
    keys = [(label, (quad, alphas.tobytes())) for label, quad, alphas in _bound_setups(config)]
    first = {key: label for label, key in reversed(keys)}   # the earliest label of each key
    return [(first[key], label) for label, key in keys if first[key] != label]
