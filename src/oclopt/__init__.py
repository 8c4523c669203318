"""Online continual learning optimization toolkit.

Synthetic non-stationary streams, replay pools, one moving-average averager
(plain SGD, EMA and the adaptive two-model variant), moving-average-based
learning-rate control, OCL metrics, and empirical verification of SGD
convergence bounds.
"""

# the one version string: run manifests and pyproject.toml both read it
__version__ = "0.1.0"

from .datapool import (DataPool, EmptyPoolError, Minibatch, sample_mixed_replay,
                       sample_pure_replay, update)
from .harness import (ConfigError, ExperimentConfig, Run, apply_overrides,
                      expand_variants, load_config, preset, run_experiment,
                      run_protocol_step, run_with_companions, save_config,
                      verify_bounds_from_config)
from .metrics import (MetricLedger, RunningMean, forward_transfer,
                      information_retention)
from .model import (DivergenceError, ModelSpec, accuracy, init_params,
                    loss_and_grad, predict, validation_performance)
from .optim import (AdamState, AmaState, CostCounter, SgdState, adam_step,
                    ama_step, best_ma, init_adam, init_averager, init_sgd,
                    load_optimizer, ma_update, save_optimizer, sgd_step)
from .schedule import (ScheduleState, cyclic_lr, init_schedule, malr_update,
                       rwp_update)
from .stream import (DriftingQuadraticSpec, HorizonError, PiecewiseTaskSpec,
                     RotatingGaussianSpec, StreamBatch, StreamSpec, eval_batch,
                     next_batch)
from .theory import (AssumptionError, BoundInputs, BoundReport, bound_terms,
                     make_rate_schedule, verify_bound)
