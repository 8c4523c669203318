"""Config-driven experiment runner tying streams, pools, models, optimizers,
schedules, and metrics together.

An experiment executes the online protocol for the configured horizon. One
``Run`` holds a seed's state, and ``run_protocol_step`` executes one step on
it: reveal a batch, record pre-update predictions, integrate the batch into
the training/holdout pools, then run ``iters_per_step`` optimizer
iterations, each drawing a replay minibatch. Moving-average, online
validation, and learning-rate events fire on their global-iteration
intervals. Everything is deterministic per seed; rerunning a manifest
reproduces the CSVs byte for byte.
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

from . import __version__, datapool, stream
from . import rng as rngmod
from .datapool import DataPool, EmptyPoolError, sample_mixed_replay, sample_pure_replay
from .metrics import MetricLedger, forward_transfer, information_retention
from .model import (DivergenceError, ModelSpec, init_params, loss_and_grad, predict,
                    step_ahead_performance, validation_performance)
from .optim import (AmaState, CostCounter, adam_step, ama_step, best_ma, init_adam,
                    init_averager, init_sgd, save_optimizer, sgd_step)
from .rng import substream
from .schedule import cyclic_lr, init_schedule, malr_update, rwp_update
from .stream import (DriftingQuadraticSpec, PiecewiseTaskSpec, RotatingGaussianSpec,
                     StreamSpec)
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
    center0: list = field(default_factory=lambda: [1.0, 1.0])
    velocity: list = field(default_factory=lambda: [0.0, 0.0])
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
    capacity: Optional[int] = None # None = unlimited pool
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
    # theory-verify presets only
    theory: Optional[dict] = None

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


def _build(cls, block: dict, where: str):
    """cls(**block), rejecting unknown keys and non-integers for int fields."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in block.items():
        # type() rather than isinstance(): a bool is not an integer here
        if (fields[key] in ("int", "Optional[int]") and type(value) is not int
                and not (value is None and fields[key] == "Optional[int]")):
            raise ConfigError(f"{where} key {key} must be an integer, got {value!r}")
    return cls(**block)


def config_from_dict(d: dict) -> ExperimentConfig:
    d = copymod.deepcopy(d)
    parts = {name: _build(cls, d.pop(name, {}), name)
             for name, cls in (("stream", StreamConfig), ("model", ModelConfig),
                               ("optimizer", OptimizerConfig), ("replay", ReplayConfig),
                               ("schedule", ScheduleConfig))}
    return _build(ExperimentConfig, {**d, **parts}, "top-level")


def save_config(config: ExperimentConfig, path):
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=True))


def load_config(path) -> ExperimentConfig:
    try:
        return config_from_dict(yaml.safe_load(Path(path).read_text()))
    except (TypeError, yaml.YAMLError) as e:
        raise ConfigError(str(e)) from e


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply dotted-key overrides (e.g. {'schedule.kind': 'rwp'}) to a copy."""
    d = config_to_dict(config)
    for key, value in overrides.items():
        node = d
        parts = key.split(".")
        for p in parts[:-1]:
            if p not in node:
                raise ConfigError(f"unknown override path {key!r}")
            node = node[p]
        if parts[-1] not in node:
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
        last = {}
        for row in self.metric_rows:
            for name, val in zip(("p_le", "p_ir", "p_ft"), row[2:5]):
                if not math.isnan(val):
                    last[name] = val
        last["alpha"] = self.lr_trace[-1] if self.lr_trace else float("nan")
        return last


METRIC_COLUMNS = ("t", "k", "p_le", "p_ir", "p_ft", "alpha", "sigma",
                  "gamma_ma1", "gamma_ma2", "i_best")
SCHEDULE_COLUMNS = ("k", "alpha", "sigma", "val_perf", "conditions")


def run_protocol_step(run, t: int):
    """Execute step t of the online protocol on a run.

    In order: (1) sample the batch, (2) ask ``run.predict`` for every datum
    before labels are revealed, (3) integrate the batch into ``run.pool`` and
    ``run.holdout``, (4) call ``run.update``. If the update raises, both
    pools (items, counters, generators and ``last_step``) are rolled back and
    the step is not counted. Nothing else is rolled back: the run's changes
    from iterations completed before the failure (optimizer, averager,
    schedule, compute costs and the learning-rate trace) stay applied.

    ``run`` is anything with ``stream_spec``, ``pool``, ``holdout``,
    ``predict`` and ``update``. Returns (predictions, batch); predictions
    come from the pre-update parameters.
    """
    if t != run.pool.last_step + 1:
        raise ProtocolError(f"expected step {run.pool.last_step + 1}, got {t}")
    batch = stream.next_batch(run.stream_spec, t)
    predictions = run.predict(batch.inputs)
    pool_ckpt, hold_ckpt = run.pool.checkpoint(), run.holdout.checkpoint()
    datapool.update(run.pool, run.holdout, batch)
    try:
        run.update(t, batch)
    except Exception:
        run.pool.restore(pool_ckpt)
        run.holdout.restore(hold_ckpt)
        raise
    return predictions, batch


class Run:
    """All mutable state of one seed's run, and the learner the protocol drives.

    Building a run validates a config for one seed: the constructor checks
    the seed and the kinds and pairings only the harness knows, and reports
    whatever the constructors it calls reject as a ConfigError. ``step(t)``
    executes protocol step t through ``run_protocol_step``, which calls back
    ``predict`` and ``update``, then records the step's metrics.
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
            rates = s.lr_trace if s.kind == "trace" and s.lr_trace else [s.alpha0]
            # the kinds, pairings and values only the harness resolves; every
            # other range check sits in the constructor that owns the value
            errors = [message for bad, message in (
                # type() rather than isinstance(): a bool is not a seed
                (type(seed) is not int or seed < 0,
                 f"seeds must be non-negative integers, got {seed!r}"),
                (r.mode not in ("pure", "mixed"), f"unknown replay mode {r.mode!r}"),
                (r.mode == "mixed" and r.batch_size % 2 != 0,
                 "mixed replay needs an even batch size"),
                (s.kind not in ("constant", "rwp", "malr", "cyclic", "trace"),
                 f"unknown schedule kind {s.kind!r}"),
                (s.metric not in ("accuracy", "loss"), f"unknown schedule metric {s.metric!r}"),
                (o.averaging not in AVERAGING, f"unknown averaging mode {o.averaging!r}"),
                (s.kind == "malr" and o.averaging == "none",
                 "malr needs a moving-average model for the sigma signal"),
                (s.kind == "cyclic" and stream_kind != "piecewise-task",
                 "cyclic schedule requires a task-aware (piecewise) stream"),
                (s.kind == "trace" and not s.lr_trace, "trace schedule requires lr_trace"),
                (o.base not in ("sgd", "adam"), f"unknown base optimizer {o.base!r}"),
                (model_kind == "quadratic-probe" and stream_kind != "drifting-quadratic",
                 "quadratic-probe model requires the drifting-quadratic stream"),
                (stream_kind == "drifting-quadratic" and model_kind != "quadratic-probe",
                 "drifting-quadratic stream requires the quadratic-probe model"),
                (config.iters_per_step < 0, "iters_per_step must be >= 0"),
                (config.eval_every < 1, "eval_every must be >= 1"),
                (r.batch_size < 1, "replay.batch_size must be >= 1"),
                (self.val_batch_size < 1, "val_batch_size must be >= 1 or null"),
                (not self.ft_k2 > self.ft_k1 >= 1,
                 "the forward-transfer window needs ft_k2 > ft_k1 >= 1"),
                (min(rates) <= 0, "the learning rate must be positive")) if bad]
            if errors:
                raise ValueError("; ".join(errors))

            self.config = config
            self.seed = seed
            self.stream_spec = build_stream_spec(config, seed)
            self.model_spec = build_model_spec(config, self.stream_spec)
            self.pool = DataPool(capacity=r.capacity, seed=seed)
            self.holdout = DataPool(capacity=None, seed=seed,
                                    holdout_fraction=r.holdout_fraction)
            theta = init_params(self.model_spec, substream(seed, rngmod.INIT))
            if o.base == "sgd":
                self.base = init_sgd(theta, beta=o.momentum)
            else:
                self.base = init_adam(theta, beta1=o.beta1, beta2=o.beta2, eps=o.adam_eps)
            n_models = AVERAGING.index(o.averaging)
            # EMA and plain SGD have no weights to adapt, but their validation
            # window still resets every k_w iterations
            self.averager = init_averager(theta, n_models, gamma0=o.gamma0, delta=o.delta,
                                          k_m=o.k_m, k_v=o.k_v, k_w=o.k_w,
                                          adapt=o.adapt or n_models < 2)
            self.sched = None
            if s.kind in ("rwp", "malr"):
                self.sched = init_schedule(s.kind, s.alpha0, beta_lr=s.beta_lr, k_r=s.k_r,
                                           epsilon=s.epsilon, use_c2=s.use_c2,
                                           use_c3=s.use_c3)
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
        self.task_iters = (config.stream.task_length * config.iters_per_step
                           if stream_kind == "piecewise-task" else 0)

    def inference_params(self):
        return best_ma(self.averager) if self.averager.ma else self.base.theta

    def alpha(self, k: int) -> float:
        s = self.config.schedule
        if self.sched is not None:
            return self.sched.alpha
        if s.kind == "constant":
            return s.alpha0
        if s.kind == "cyclic":
            return max(cyclic_lr(s.alpha0, (k - 1) % self.task_iters, self.task_iters),
                       1e-12 * s.alpha0)
        # trace replay: clamp to the recorded horizon
        return s.lr_trace[min(k - 1, len(s.lr_trace) - 1)]

    def sample_validation(self):
        if self.holdout.size == 0:
            return None
        return sample_pure_replay(self.holdout, self.val_batch_size, rng=self.val_rng)

    def evaluate(self, params, batch) -> float:
        # the schedule/validation signal orientation is configurable; the
        # stream metrics always use the natural metric for the model family
        return validation_performance(self.model_spec, params, batch,
                                      metric=self.config.schedule.metric)

    def predict(self, inputs):
        return predict(self.model_spec, self.inference_params(), inputs)

    def update(self, t: int, batch):
        for _ in range(self.config.iters_per_step):
            self.iterate(batch)

    def iterate(self, batch):
        """One optimizer iteration: replay draw, base step, averager, schedule."""
        k = self.k + 1
        alpha = self.alpha(k)
        r = self.config.replay
        if r.mode == "pure":
            mb = sample_pure_replay(self.pool, r.batch_size)
        else:
            mb = sample_mixed_replay(self.pool, batch, r.batch_size, window=r.window)
        loss, grad = loss_and_grad(self.model_spec, self.base.theta, mb)
        self.costs.forward += 1
        self.costs.grad += 1
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at iteration {k}")
        if self.config.optimizer.base == "sgd":
            sgd_step(self.base, grad, alpha)
        else:
            adam_step(self.base, grad, alpha)
        self.costs.update += 1
        self.k = k
        self.lr_trace.append(alpha)
        avg = ama_step(self.averager, self.base.theta, k, self.sample_validation,
                       self.evaluate, self.costs)
        if self.sched is not None and k % avg.k_v == 0 and avg.n > 0:
            val_perf, sig = avg.best_perf(), avg.sigma()
            if self.sched.kind == "rwp":
                rwp_update(self.sched, val_perf, k)
            else:
                malr_update(self.sched, val_perf, sig, k)
            mask = sum(1 << i for i, c in enumerate(self.sched.last_conditions) if c)
            self.schedule_rows.append((k, self.sched.alpha, sig, val_perf, mask))

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
                p_ir = information_retention(self.model_spec, self.inference_params(),
                                             self.holdout, t)
            except EmptyPoolError:
                p_ir = float("nan")
            if t + self.ft_k2 <= horizon:
                p_ft = forward_transfer(self.model_spec, self.inference_params(),
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


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_artifacts(result: RunResult, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", METRIC_COLUMNS, result.metric_rows)
    _write_csv(out / "schedule.csv", SCHEDULE_COLUMNS, result.schedule_rows)
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


def run_from_manifest(path, out_dir=None) -> RunResult:
    manifest = json.loads(Path(path).read_text())
    config = config_from_dict(manifest["config"])
    return run_experiment(config, seed=manifest["seed"], out_dir=out_dir)


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
            "companion": None,
        })
        ema_cfg.schedule.lr_trace = [float(a) for a in results["main"].lr_trace]
        ema_out = base_dir / "ema-replay" if base_dir else None
        results["ema-replay"] = run_experiment(ema_cfg, seed=seed, out_dir=ema_out)
    return results


# -- presets ---------------------------------------------------------------------

PRESET_NAMES = ("main-comparison", "malr-ablation", "ama-vs-ema", "batch-size",
                "buffer-size", "objective-comparison", "adam-base", "task-cyclic",
                "theory-verify")

# Interval scaling: the paper-scale intervals (K_W=10000, K_R=60000 over tens
# of millions of iterations) shrink proportionally at desk scale. Presets keep
# K_M=10 and use K_V=10, K_W in the 200-400 range (20-40 validation folds per
# adaptation window) and K_R ~= 2-5% of the total iteration count.


def preset(name: str) -> ExperimentConfig:
    """Desk-scale configs mirroring the structure of the headline experiments."""
    if name == "theory-verify":
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="drifting-quadratic", d_in=4, mu=0.25,
                                l_smooth=1.0, center0=[2.0, -1.0, 1.0, 0.5],
                                velocity=[0.0] * 4, noise_radius=0.5,
                                batch_size=1, horizon=4000),
            model=ModelConfig(kind="quadratic-probe", loss="quadratic",
                              weight_decay=0.0),
            schedule=ScheduleConfig(kind="constant", alpha0=0.2),
        )
        cfg.theory = {
            "k_max": 2000,
            "n_seeds": 24,
            "alpha0": 0.2,
            "halve_every": 250,
            "configs": [
                ["stationary-constant", {"velocity": 0.0, "schedule": "constant"}],
                ["stationary-invsqrt", {"velocity": 0.0, "schedule": "invsqrt"}],
                ["drift-constant", {"velocity": 0.002, "schedule": "constant"}],
                ["drift-invsqrt", {"velocity": 0.002, "schedule": "invsqrt"}],
                ["drift-halving", {"velocity": 0.002, "schedule": "halving"}],
                ["fast-drift-constant", {"velocity": 0.01, "schedule": "constant"}],
                ["fast-drift-halving", {"velocity": 0.01, "schedule": "halving"}],
            ],
        }
        return cfg

    if name in ("main-comparison", "adam-base"):
        # slow mean rotation; retention validation declines once the swept arc
        # outgrows any fixed boundary, which drives plateau-based annealing
        alpha0 = 0.05 if name == "main-comparison" else 0.002
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="rotating-gaussian", d_in=2, n_classes=2,
                                batch_size=32, horizon=900,
                                angular_velocity=0.004, mean_radius=2.0,
                                noise_std=0.6),
            optimizer=OptimizerConfig(base="sgd" if name == "main-comparison" else "adam",
                                      averaging="ama", k_m=10, k_v=10, k_w=300),
            schedule=ScheduleConfig(kind="malr", alpha0=alpha0, k_r=40),
            replay=ReplayConfig(mode="pure", batch_size=32),
            iters_per_step=2,
            eval_every=100,
            val_batch_size=64,
        )
        if name == "main-comparison":
            cfg.variants = [
                ["ama-malr", {}],
                ["ama-rwp", {"schedule.kind": "rwp", "schedule.metric": "loss"}],
                ["sgd-rwp", {"optimizer.averaging": "none", "schedule.kind": "rwp",
                             "schedule.metric": "loss"}],
                ["ama-clr", {"schedule.kind": "constant"}],
                ["sgd-clr", {"optimizer.averaging": "none", "schedule.kind": "constant"}],
            ]
        else:
            cfg.variants = [
                ["adam-ama-malr", {}],
                ["adam-rwp", {"optimizer.averaging": "none", "schedule.kind": "rwp",
                              "schedule.metric": "loss"}],
            ]
        return cfg

    if name == "malr-ablation":
        # every task introduces fresh classes, so an over-annealed rate never
        # recovers the later tasks; K_W spans 40 validation folds so the sigma
        # estimate stays smooth enough for C3 to gate reliably
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="piecewise-task", d_in=6, n_classes=16,
                                classes_per_task=2, task_length=100,
                                batch_size=32, horizon=800, mean_scale=2.2,
                                noise_std=1.0),
            optimizer=OptimizerConfig(averaging="ama", k_m=10, k_v=10, k_w=400),
            schedule=ScheduleConfig(kind="malr", alpha0=0.08, k_r=40),
            replay=ReplayConfig(mode="pure", batch_size=32),
            iters_per_step=2,
            eval_every=200,
            val_batch_size=128,
        )
        cfg.variants = [
            ["malr", {}],
            ["no-c2", {"schedule.use_c2": False}],
            ["no-c3", {"schedule.use_c3": False}],
            ["rwp", {"schedule.use_c2": False, "schedule.use_c3": False}],
        ]
        return cfg

    if name == "ama-vs-ema":
        return ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="rotating-gaussian", d_in=2, n_classes=2,
                                batch_size=32, horizon=900,
                                angular_velocity=0.004, noise_std=0.6),
            optimizer=OptimizerConfig(averaging="ama", k_m=10, k_v=10, k_w=300),
            schedule=ScheduleConfig(kind="malr", alpha0=0.05, k_r=40),
            iters_per_step=2,
            eval_every=100,
            val_batch_size=64,
            companion="ema-replay",
        )

    if name == "batch-size":
        # heavy-parallelism trade: larger minibatches take proportionally fewer
        # iterations per step at a proportionally larger rate
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="piecewise-task", d_in=4, n_classes=4,
                                classes_per_task=2, task_length=50,
                                batch_size=64, horizon=400, mean_scale=2.0,
                                noise_std=1.2),
            optimizer=OptimizerConfig(averaging="ama", k_m=10, k_v=10, k_w=200),
            schedule=ScheduleConfig(kind="constant", alpha0=0.06),
            iters_per_step=8,
            replay=ReplayConfig(mode="pure", batch_size=16),
            eval_every=50,
            val_batch_size=64,
            ft_k1=40,
            ft_k2=140,
        )
        cfg.variants = [
            ["m16", {"replay.batch_size": 16, "iters_per_step": 8,
                     "schedule.alpha0": 0.06}],
            ["m64", {"replay.batch_size": 64, "iters_per_step": 2,
                     "schedule.alpha0": 0.3}],
            ["m128", {"replay.batch_size": 128, "iters_per_step": 1,
                      "schedule.alpha0": 0.6}],
        ]
        return cfg

    if name == "buffer-size":
        # same task stream as the ablation; capacities sweep three decades
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="piecewise-task", d_in=6, n_classes=16,
                                classes_per_task=2, task_length=100,
                                batch_size=32, horizon=800, mean_scale=2.2,
                                noise_std=1.0),
            optimizer=OptimizerConfig(averaging="ama", k_m=10, k_v=10, k_w=400),
            schedule=ScheduleConfig(kind="malr", alpha0=0.08, k_r=40),
            replay=ReplayConfig(mode="pure", batch_size=32, capacity=None),
            iters_per_step=2,
            eval_every=200,
            val_batch_size=128,
        )
        cfg.variants = [
            ["cap-100", {"replay.capacity": 100}],
            ["cap-1000", {"replay.capacity": 1000}],
            ["cap-10000", {"replay.capacity": 10000}],
        ]
        return cfg

    if name == "objective-comparison":
        # tasks cycle, so the future window (one full cycle) rewards retention;
        # pure replay doubles the minibatch so gradient steps per image match
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="piecewise-task", d_in=4, n_classes=4,
                                classes_per_task=2, task_length=50,
                                batch_size=32, horizon=400, mean_scale=2.0,
                                noise_std=1.2),
            optimizer=OptimizerConfig(averaging="ama", k_m=10, k_v=10, k_w=200),
            schedule=ScheduleConfig(kind="constant", alpha0=0.05),
            iters_per_step=1,
            replay=ReplayConfig(mode="pure", batch_size=64),
            eval_every=50,
            val_batch_size=64,
            ft_k1=40,
            ft_k2=140,
        )
        cfg.variants = [
            ["pure-p1", {"replay.mode": "pure", "replay.batch_size": 64,
                         "iters_per_step": 1}],
            ["pure-p5", {"replay.mode": "pure", "replay.batch_size": 64,
                         "iters_per_step": 5}],
            ["mixed-p1", {"replay.mode": "mixed", "replay.batch_size": 32,
                          "iters_per_step": 1}],
            ["mixed-p5", {"replay.mode": "mixed", "replay.batch_size": 32,
                          "iters_per_step": 5}],
        ]
        return cfg

    if name == "task-cyclic":
        cfg = ExperimentConfig(
            name=name,
            stream=StreamConfig(kind="piecewise-task", d_in=6, n_classes=10,
                                classes_per_task=2, task_length=100,
                                batch_size=32, horizon=1000, mean_scale=2.2,
                                noise_std=1.0),
            optimizer=OptimizerConfig(averaging="ama", k_m=10, k_v=10, k_w=400),
            schedule=ScheduleConfig(kind="malr", alpha0=0.08, k_r=40),
            iters_per_step=2,
            eval_every=100,
            val_batch_size=128,
        )
        cfg.variants = [
            ["ama-malr", {}],
            ["sgd-cyclic", {"optimizer.averaging": "none", "schedule.kind": "cyclic"}],
            ["sgd-rwp", {"optimizer.averaging": "none", "schedule.kind": "rwp",
                         "schedule.metric": "loss"}],
        ]
        return cfg

    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def expand_variants(config: ExperimentConfig):
    """Yield (label, concrete config) pairs for a config and its variants."""
    if not config.variants:
        yield "base", config
        return
    for label, overrides in config.variants:
        out = apply_overrides(config, dict(overrides))
        out.variants = None
        out.name = f"{config.name}/{label}"
        yield label, out


# -- theory-verify plumbing --------------------------------------------------------

def verify_bounds_from_config(config: ExperimentConfig) -> list:
    """Run every (schedule, drift) combination of a theory-verify config.

    Returns [(label, BoundReport), ...].
    """
    if not config.theory:
        raise ConfigError("config has no theory block; use the theory-verify preset")
    th = config.theory
    s = config.stream
    k_max = int(th["k_max"])
    n_alphas = k_max + 2
    reports = []
    for label, params in th["configs"]:
        v = float(params["velocity"])
        quad = DriftingQuadraticSpec(
            dim=s.d_in, mu=s.mu, l_smooth=s.l_smooth, center0=tuple(s.center0),
            velocity=tuple(v * np.ones(s.d_in) / np.sqrt(s.d_in)),
            noise_radius=s.noise_radius)
        alphas = make_rate_schedule(params["schedule"], float(th["alpha0"]),
                                    n_alphas, halve_every=int(th.get("halve_every", 250)))
        report = verify_bound(quad, alphas, k_max, n_seeds=int(th["n_seeds"]),
                              base_seed=config.seeds[0])
        reports.append((label, report))
    return reports

