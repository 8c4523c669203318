"""Parametric predictors with exact loss and gradient computation.

Three model kinds keep optimizer behavior testable without an autodiff
framework:

* ``quadratic-probe``: theta itself is the prediction; quadratic loss against
  the observed targets under a fixed diagonal curvature. The regression
  stand-in with fully analytic constants.
* ``linear-softmax``: multinomial logistic regression.
* ``mlp-1-hidden``: one tanh hidden layer + softmax. Smooth everywhere so
  Lipschitz-style assumptions stay globally valid.

Parameters, gradients and averaged models are plain flat float64 arrays of
shape ``(spec.n_params,)``. ``ModelSpec.layout`` names the blocks of that
vector, and ``spec.block(theta, name)`` is a reshaped view into it.

Losses are mean per-example loss plus 0.5 * weight_decay * ||theta||^2, and
gradients are exact. Training, prediction and validation share one ``forward``
and one loss per kind; validation runs no gradient and drops the decay term.
Models carry no running statistics, so averaged parameters need no recomputing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DivergenceError(FloatingPointError):
    """Non-finite parameters or gradients: the optimization diverged."""


@dataclass(frozen=True)
class ModelSpec:
    """Model family, loss and sizes; owns the layout of the parameter vector.

    ``layout`` maps block name -> (slice, shape); the blocks tile
    ``[0, n_params)`` contiguously in declared order.
    """

    kind: str                       # quadratic-probe | linear-softmax | mlp-1-hidden
    loss: str                       # quadratic | cross-entropy
    weight_decay: float = 0.0
    dim: int = 0                    # quadratic-probe parameter dimension
    curvature: tuple = ()           # quadratic-probe diagonal eigenvalues
    d_in: int = 0
    n_classes: int = 0
    hidden: int = 0

    def __post_init__(self):
        if self.kind == "quadratic-probe":
            if self.loss != "quadratic":
                raise ValueError("quadratic-probe requires quadratic loss")
            if self.dim < 1 or len(self.curvature) != self.dim:
                raise ValueError("quadratic-probe needs dim and matching curvature")
            if min(self.curvature) <= 0:
                raise ValueError("curvature eigenvalues must be positive")
        elif self.kind in ("linear-softmax", "mlp-1-hidden"):
            if self.loss != "cross-entropy":
                raise ValueError(f"{self.kind} requires cross-entropy loss")
            if self.d_in < 1 or self.n_classes < 2:
                raise ValueError("classification models need d_in >= 1 and n_classes >= 2")
            if self.kind == "mlp-1-hidden" and self.hidden < 1:
                raise ValueError("mlp-1-hidden needs hidden >= 1")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")

    @property
    def classification(self) -> bool:
        return self.kind != "quadratic-probe"

    @cached_property
    def layout(self) -> dict:
        if self.kind == "quadratic-probe":
            shapes = {"theta": (self.dim,)}
        elif self.kind == "linear-softmax":
            shapes = {"w": (self.n_classes, self.d_in), "b": (self.n_classes,)}
        else:
            shapes = {"w1": (self.hidden, self.d_in), "b1": (self.hidden,),
                      "w2": (self.n_classes, self.hidden), "b2": (self.n_classes,)}
        table, start = {}, 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            table[name] = (slice(start, stop), shape)
            start = stop
        return table

    @cached_property
    def n_params(self) -> int:
        return next(reversed(self.layout.values()))[0].stop

    def block(self, theta: np.ndarray, name: str) -> np.ndarray:
        """View of the named block of a flat parameter array (shares its memory)."""
        where, shape = self.layout[name]
        return theta[where].reshape(shape)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Deterministic initialization given the caller's generator."""
    theta = np.zeros(spec.n_params)
    if spec.kind == "linear-softmax":
        spec.block(theta, "w")[:] = 0.1 * rng.standard_normal((spec.n_classes, spec.d_in))
    elif spec.kind == "mlp-1-hidden":
        spec.block(theta, "w1")[:] = (rng.standard_normal((spec.hidden, spec.d_in))
                                      / np.sqrt(spec.d_in))
        spec.block(theta, "w2")[:] = (rng.standard_normal((spec.n_classes, spec.hidden))
                                      / np.sqrt(spec.hidden))
    return theta


def check_batch(spec: ModelSpec, batch) -> np.ndarray:
    """The batch's inputs as floats, once checked: non-empty, as wide as the
    model, and one integer label in range (a classifier) or target row (the probe)
    per row."""
    x = np.asarray(batch.inputs, dtype=float)
    if len(x) == 0:
        raise ValueError("minibatch must be non-empty")
    expected = spec.dim if spec.kind == "quadratic-probe" else spec.d_in
    if x.shape[1] != expected:
        raise ValueError(f"input dimension {x.shape[1]} != model dimension {expected}")
    y = np.asarray(batch.labels)
    if spec.classification:
        # viewed unsigned, a negative label is 2**bits or more: past every
        # non-negative label of its dtype, so one reduction finds both bad kinds
        bits = 8 * y.itemsize - (y.dtype.kind == "i")
        if (y.dtype.kind not in "iu" or y.shape != (len(x),)
                or np.maximum.reduce(y.view(f"u{y.itemsize}")) >= min(spec.n_classes, 1 << bits)):
            raise ValueError(f"a classifier needs one integer label in [0, {spec.n_classes}) "
                             "per row")
    if not spec.classification and y.shape != x.shape:
        raise ValueError(f"a quadratic probe needs one target of dimension {spec.dim} per row")
    return x


class Workspace:
    """Buffers and views that ``loss_and_grad`` reuses across calls on one
    parameter array: the gradient, the blocks of theta and of the gradient (the
    output layer's also as a pair), and, sized to the minibatch, the logits, the
    MLP's hidden layer and each logits row's flat offset. A call returns the
    gradient buffer, which the next call overwrites."""

    def __init__(self, spec: ModelSpec, theta: np.ndarray):
        if theta.shape != (spec.n_params,):
            raise ValueError(f"parameter shape {theta.shape} != expected ({spec.n_params},)")
        self.spec, self.theta, self.grad = spec, theta, np.empty_like(theta)
        self.blocks = {name: spec.block(theta, name) for name in spec.layout}
        self.grad_blocks = {name: spec.block(self.grad, name) for name in spec.layout}
        self.rows, self.hidden = 0, None
        out = list(spec.layout)[-2:]   # a classifier's output layer: its last two blocks
        self.out = tuple(self.blocks[name] for name in out)
        self.grad_out = tuple(self.grad_blocks[name] for name in out)

    def fit_rows(self, n: int):
        c, hidden = self.spec.n_classes, (n, self.spec.hidden)
        self.rows, self.logits, self.row_offsets = n, np.empty((n, c)), np.arange(n) * c
        if self.spec.kind == "mlp-1-hidden":
            self.hidden, self.dh = np.empty(hidden), np.empty(hidden)


def forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, work: Workspace | None = None):
    """A classifier's features (x, or the MLP's tanh layer) and logits, in the
    buffers of ``work`` if given; blocks are read singly, as a comprehension costs more."""
    mlp = spec.kind == "mlp-1-hidden"
    if work is None:
        hidden = logits = None
        w, b = spec.block(theta, "w2" if mlp else "w"), spec.block(theta, "b2" if mlp else "b")
        if mlp:
            w1, b1 = spec.block(theta, "w1"), spec.block(theta, "b1")
    else:
        if len(x) != work.rows:
            work.fit_rows(len(x))
        hidden, logits, (w, b) = work.hidden, work.logits, work.out
        if mlp:
            w1, b1 = work.blocks["w1"], work.blocks["b1"]
    feats = x
    if mlp:
        feats = np.matmul(x, w1.T, out=hidden)
        feats += b1
        np.tanh(feats, out=feats)
    z = np.matmul(feats, w.T, out=logits)
    z += b
    return feats, z


def _cross_entropy(p: np.ndarray, label_at: np.ndarray) -> float:
    """Mean cross-entropy of the logits p at the flat indices label_at, one
    per row; p becomes the loss gradient in the logits, in place."""
    p -= np.maximum.reduce(p, axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    picked = p.take(label_at)
    logs = np.maximum(picked, 1e-300)
    loss = -float(np.add.reduce(np.log(logs, out=logs))) / len(p)
    picked -= 1.0
    p.put(label_at, picked)
    p /= len(p)
    return loss


def _quadratic(spec: ModelSpec, d: np.ndarray) -> float:
    """Mean quadratic loss of the residual rows d under the probe's curvature."""
    return 0.5 * float(np.mean(np.sum(d * d * np.asarray(spec.curvature), axis=1)))


def loss_and_grad(spec: ModelSpec, theta: np.ndarray, batch, work: Workspace | None = None):
    """Mean per-example loss plus the L2 penalty, and its exact gradient.

    Deterministic in (theta, batch). Non-finite results are returned as-is;
    callers treat them as a divergence signal. A direct call gets numpy's
    default floating-point warnings; ``run_experiment`` silences overflow and
    invalid-value warnings once around a whole run.

    Without ``work`` the call checks the batch and runs on a throwaway
    workspace, so the gradient is a fresh array. With ``work``, a
    ``Workspace`` built for this spec and theta, the caller has checked the
    batch's arrays (``check_batch``) and the gradient is the workspace's buffer.
    """
    if work is None:
        work, x, y = Workspace(spec, theta), check_batch(spec, batch), np.asarray(batch.labels)
    elif work.spec is spec and work.theta is theta:
        x, y = batch.inputs, batch.labels
    else:
        raise ValueError("the workspace was built for another spec or parameter array")

    if spec.kind == "quadratic-probe":
        loss = _quadratic(spec, theta - y)
        work.grad[:] = np.asarray(spec.curvature) * (theta - y.mean(axis=0))
    else:
        feats, p = forward(spec, theta, x, work)
        loss = _cross_entropy(p, work.row_offsets + y)   # p is now dz
        grad_w, grad_b = work.grad_out
        np.matmul(p.T, feats, out=grad_w)
        np.add.reduce(p, axis=0, out=grad_b)
        if spec.kind == "mlp-1-hidden":
            dh = np.matmul(p, work.out[0], out=work.dh)
            dh *= 1.0 - feats * feats
            np.matmul(dh.T, x, out=work.grad_blocks["w1"])
            np.add.reduce(dh, axis=0, out=work.grad_blocks["b1"])

    if spec.weight_decay > 0.0:
        loss += 0.5 * spec.weight_decay * float(theta @ theta)
        work.grad += spec.weight_decay * theta
    return loss, work.grad


def predict(spec: ModelSpec, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Labels for classification (argmax of the logits, ties to the lowest
    class index); the parameter vector replicated per datum for the probe."""
    if spec.kind == "quadratic-probe":
        return np.tile(theta, (len(inputs), 1))
    return forward(spec, theta, np.asarray(inputs, dtype=float))[1].argmax(axis=1)


def validation_performance(spec: ModelSpec, theta: np.ndarray, batch,
                           metric: str = "accuracy") -> float:
    """Higher-is-better validation signal from a forward pass: a classifier's
    accuracy, or the negative loss without the weight-decay term for
    metric='loss' and always for the quadratic probe."""
    x = check_batch(spec, batch)
    if spec.classification and metric == "accuracy":
        return step_ahead_performance(spec, predict(spec, theta, x), batch)
    y = np.asarray(batch.labels)
    if not spec.classification:
        return -_quadratic(spec, theta - y)
    _, p = forward(spec, theta, x)
    return -_cross_entropy(p, np.arange(len(x)) * spec.n_classes + y)


def step_ahead_performance(spec: ModelSpec, predictions: np.ndarray, batch) -> float:
    """Score step-2 predictions once labels are revealed: a classifier's
    accuracy, or the quadratic probe's negative mean quadratic loss."""
    y = np.asarray(batch.labels)
    if spec.classification:
        return float(np.count_nonzero(predictions == y) / y.size)
    return -_quadratic(spec, predictions - y)
