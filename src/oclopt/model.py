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
shape ``(spec.n_params,)``, and a stack of M models is ``(M, n_params)``.
A classifier layer of ``units`` units on ``inputs`` inputs is one
``(units, inputs + 1)`` matrix in that vector, row by row: unit u's row is
``[w_u | b_u]``. ``ModelSpec.layout`` names the blocks (each layer's weights
and bias), ``spec.block(theta, name)`` is a view of one (per row of a
stack), and ``theta.take(spec.canonical, axis=-1)`` lists them in the
canonical order, each layer's weights then its bias, as ``checkpoint.npz``
holds them.

Losses are mean per-example loss plus 0.5 * weight_decay * ||theta||^2, and
training computes only their exact gradient. Training, prediction and
validation share one classifier pass (``Workspace.propagate``); validation
scores a stack in one pass and drops the decay term. The rows a pool gathers
for replay and validation carry a trailing 1.0, so a layer's product with
its matrix adds the bias in the same BLAS call. Models carry no running
statistics, so averaged parameters need no recomputing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    @cached_property
    def classification(self) -> bool:
        return self.kind != "quadratic-probe"

    @cached_property
    def layers(self) -> tuple:
        """(units, inputs) of each classifier layer, input to output; the probe has none."""
        if self.kind == "linear-softmax":
            return ((self.n_classes, self.d_in),)
        if self.kind == "mlp-1-hidden":
            return ((self.hidden, self.d_in), (self.n_classes, self.hidden))
        return ()

    @cached_property
    def layout(self) -> dict:
        """Block name -> (slice, shape, columns): the block is ``columns`` of
        the ``shape`` matrix that fills ``slice`` of the vector row by row. A
        layer's matrix is (units, inputs + 1); its weights "w" (or "w1", "w2")
        are the first ``inputs`` columns and its bias "b" (or "b1", "b2") the
        last. The probe's one block "theta" is the whole vector. Blocks come
        in the canonical order: each layer's weights, then its bias."""
        if not self.classification:
            return {"theta": (slice(0, self.dim), (self.dim,), np.s_[...])}
        table, start = {}, 0
        for i, (units, inputs) in enumerate(self.layers, 1):
            where, shape = slice(start, start + units * (inputs + 1)), (units, inputs + 1)
            suffix = str(i) if len(self.layers) > 1 else ""
            table["w" + suffix] = (where, shape, np.s_[..., :-1])
            table["b" + suffix] = (where, shape, np.s_[..., -1])
            start = where.stop
        return table

    @cached_property
    def one_hot(self) -> np.ndarray:
        """A classifier's target rows: row y is 1.0 at y and 0.0 elsewhere."""
        return np.eye(self.n_classes)

    @cached_property
    def n_params(self) -> int:
        return next(reversed(self.layout.values()))[0].stop

    @cached_property
    def canonical(self) -> np.ndarray:
        """Indices that list a parameter array's blocks in the canonical
        order, each block flat: ``theta.take(spec.canonical, axis=-1)``."""
        index = np.arange(self.n_params)
        return np.concatenate([self.block(index, name).ravel() for name in self.layout])

    def matrix(self, theta: np.ndarray, name: str) -> np.ndarray:
        """View of the whole matrix that holds the named block, per row of a stack."""
        where, shape, _ = self.layout[name]
        return theta[..., where].reshape(theta.shape[:-1] + shape)

    def block(self, theta: np.ndarray, name: str) -> np.ndarray:
        """View of the named block of a parameter array, per row of a stack (shares memory)."""
        return self.matrix(theta, name)[self.layout[name][2]]


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


class _Layer(NamedTuple):
    """A classifier layer's views in a ``Workspace``: theta's (inputs + 1,
    units) matrix, its weight rows and its bias row; the gradient's (units,
    inputs + 1) matrix, its weight columns and its bias column. ``gemm``: both
    forms of the layer's products are BLAS gemm calls at two rows or more."""

    inputs: int
    gemm: bool
    mat: np.ndarray
    w: np.ndarray
    b: np.ndarray
    grad: np.ndarray
    grad_w: np.ndarray
    grad_b: np.ndarray


class Workspace:
    """Buffers and views that the training kernel, ``predict`` and a fold's
    scoring reuse across calls on one parameter array, or a stack (M, P): the
    gradient, each layer's views of theta and of the gradient (``_Layer``)
    and, sized to the last call's rows, the logits, the MLP's hidden rows and
    each logits row's flat offset. ``gradient`` is the model kind's kernel,
    which a run binds once: it takes checked inputs and ``targets``, and
    returns the gradient buffer."""

    def __init__(self, spec: ModelSpec, theta: np.ndarray):
        if theta.ndim not in (1, 2) or theta.shape[-1] != spec.n_params:
            raise ValueError(f"parameter shape {theta.shape} != expected ({spec.n_params},), "
                             "or (models, n_params) for a stack")
        self.spec, self.theta, self.grad = spec, theta, np.empty_like(theta)
        self.layers = []
        for name, (units, inputs) in zip(list(spec.layout)[::2], spec.layers):
            mat, grad = spec.matrix(theta, name).swapaxes(-1, -2), spec.matrix(self.grad, name)
            self.layers.append(_Layer(inputs, min(units, inputs) >= 2, mat, mat[..., :-1, :],
                                      mat[..., -1:, :], grad, grad[..., :-1], grad[..., -1]))
        self.rows, self.decay = 0, spec.weight_decay

    @property
    def gradient(self):
        return self._probe_gradient if self.spec.kind == "quadratic-probe" else self.propagate

    def fit_rows(self, n: int):
        lead, c, h = self.theta.shape[:-1] + (n,), self.spec.n_classes, self.spec.hidden
        self.rows, self.logits = n, np.empty(lead + (c,))
        self.row_offsets = np.arange(0, self.logits.size, c).reshape(lead)
        # a layer is fused (see ``propagate``) where both its forms are gemm
        # calls: numpy sends a product with one row, input or unit to gemv or
        # to a loop of its own, whose bits differ from the one-product form's
        self.fused = [n >= 2 and layer.gemm for layer in self.layers]
        if len(self.layers) == 2:   # the MLP's hidden rows carry the output layer's 1.0
            self.hidden, self.dh = np.empty(lead + (h + 1,)), np.empty(lead + (h,))
            self.hidden[..., h] = 1.0
            self.units = self.hidden[..., :h]

    def propagate(self, x: np.ndarray, hot: np.ndarray | None = None, softmax: bool = False):
        """Rows x through a classifier, into buffers the next call overwrites:
        the logits, on a leading model axis for a stack, each bit-equal to its
        own call; with ``softmax``, the probabilities; given ``hot``, the rows'
        one-hot targets (one model), back to the gradient.

        Rows are plain, or carry a trailing 1.0 (the rows a pool gathers, and
        the MLP's hidden rows). A layer that ``fit_rows`` fused takes such
        rows in one product with its matrix each way, whose gemm call adds
        the bias after the inputs and sums the 1.0 column's rows as the
        two-op form does, bit for bit. Elsewhere a layer takes plain rows,
        or the features of wide ones copied contiguous (numpy reads a
        strided vector operand in other bits), times its weights plus its
        bias. The softmax shifts a row by its max, which argmax finds faster
        than a reduction (0.0 or -0.0, exp(z - max) is the same); a target
        row subtracts 1.0 at the label and 0.0, which changes no value,
        elsewhere."""
        theta, decay, layers = self.theta, self.decay, self.layers
        if hot is not None:
            penalty = 0.5 * decay * float(theta @ theta) if decay > 0.0 else 0.0
            if not math.isfinite(penalty):
                raise DivergenceError("non-finite weight-decay term")
        if len(x) != self.rows:
            self.fit_rows(len(x))
        first, out = layers[0], layers[-1]
        one = x.shape[-1] > first.inputs
        if one and not self.fused[0]:
            x, one = x[..., :-1].copy(), False
        feats, last = x, one
        if len(layers) == 2:   # the MLP's tanh layer, into the hidden rows' unit columns
            h = self.units
            if one:
                np.matmul(x, first.mat, out=h)
            else:
                np.matmul(x, first.w, out=h)
                h += first.b
            np.tanh(h, out=h)
            feats, last = (self.hidden, True) if self.fused[1] else (h.copy(), False)
        p = self.logits
        if last:
            np.matmul(feats, out.mat, out=p)
        else:
            np.matmul(feats, out.w, out=p)
            p += out.b
        if hot is None and not softmax:
            return p
        p -= p.take(self.row_offsets + p.argmax(axis=-1))[..., None]
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=-1, keepdims=True)
        if hot is None:
            return p
        p -= hot
        p /= len(p)   # p is now the loss gradient in the logits
        if last:
            np.matmul(p.T, feats, out=out.grad)
        else:
            np.matmul(p.T, feats, out=out.grad_w)
            np.add.reduce(p, axis=0, out=out.grad_b)
        if len(layers) == 2:
            dh = np.matmul(p, out.w.T, out=self.dh)
            dh *= 1.0 - h * h
            if one:
                np.matmul(dh.T, x, out=first.grad)
            else:
                np.matmul(dh.T, x, out=first.grad_w)
                np.add.reduce(dh, axis=0, out=first.grad_b)
        if decay > 0.0:
            self.grad += decay * theta
        return self.grad

    def _probe_gradient(self, x: np.ndarray, target: np.ndarray):
        """The quadratic probe's gradient against its target rows, once its
        whole loss is checked."""
        theta, decay = self.theta, self.decay
        penalty = 0.5 * decay * float(theta @ theta) if decay > 0.0 else 0.0
        if not math.isfinite(_quadratic(self.spec, theta - target) + penalty):
            raise DivergenceError("non-finite loss")
        self.grad[:] = np.asarray(self.spec.curvature) * (theta - target.mean(axis=0))
        if decay > 0.0:
            self.grad += decay * theta
        return self.grad


def targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """The gradient's targets of a minibatch's labels: a classifier's one-hot
    rows as floats, which subtract as False and True would, or the probe's
    target rows as they are."""
    if not spec.classification:
        return labels
    return spec.one_hot.take(labels, axis=0)


def _quadratic(spec: ModelSpec, d: np.ndarray):
    """Mean quadratic loss of the residual rows d under the probe's curvature (per model)."""
    return 0.5 * np.mean(np.sum(d * d * np.asarray(spec.curvature), axis=-1), axis=-1)


def _prepared(spec: ModelSpec, theta: np.ndarray, batch, work: Workspace | None):
    """(workspace, inputs) of a call on a batch: without ``work``, a new
    workspace and the inputs once checked; with ``work``, which must be built
    for this spec and theta, the inputs as they are (the caller checked the
    batch's arrays with ``check_batch``)."""
    if work is None:
        return Workspace(spec, theta), check_batch(spec, batch)
    if work.spec is not spec or work.theta is not theta:
        raise ValueError("the workspace was built for another spec or parameter array")
    return work, batch.inputs


def gradient(spec: ModelSpec, theta: np.ndarray, batch, work: Workspace | None = None):
    """The exact gradient of the mean per-example loss plus the L2 penalty,
    through the kernel a run binds (``Workspace.gradient``).

    Deterministic in (theta, batch). Raises DivergenceError where the loss is
    not finite and returns a non-finite gradient as-is, for the base step to
    reject: together, "loss or gradient not finite", with no classifier loss.
    Its data term, -mean(log(max(p[y], 1e-300))), is at most 690.8 and not
    finite only if some p[y] is NaN; then that row's softmax sum, so the whole
    row of p, and so the output bias's gradient, a sum over rows, are NaN. A
    finite data term and a finite decay term cannot overflow, so only the
    decay term is checked. The probe checks its whole loss.

    A direct call gets numpy's default floating-point warnings; ``run_experiment``
    silences overflow and invalid-value warnings around a whole run. Without
    ``work`` the call checks the batch and the gradient is a fresh array. With
    ``work``, a ``Workspace`` built for this spec and theta, the caller has
    checked the batch's arrays (``check_batch``) and gets the workspace's buffer.
    """
    if np.ndim(theta) != 1:
        raise ValueError(f"parameter shape {np.shape(theta)} != expected ({spec.n_params},)")
    work, x = _prepared(spec, theta, batch, work)
    return work.gradient(x, targets(spec, np.asarray(batch.labels)))


def predict(spec: ModelSpec, theta: np.ndarray, inputs: np.ndarray,
            work: Workspace | None = None) -> np.ndarray:
    """Labels for classification (argmax of the logits, ties to the lowest
    class index), through ``work``, a ``Workspace`` for theta, if given; the
    parameter vector replicated per datum for the probe."""
    if spec.kind == "quadratic-probe":
        return np.tile(theta, (len(inputs), 1))
    work = Workspace(spec, theta) if work is None else work
    return work.propagate(np.asarray(inputs, dtype=float)).argmax(axis=-1)


def validation_performance(spec: ModelSpec, theta: np.ndarray, batch,
                           metric: str = "accuracy", work: Workspace | None = None):
    """Higher-is-better validation signal from a forward pass: a classifier's
    accuracy, or the negative loss without the weight-decay term for
    metric='loss' and always for the quadratic probe. A float; for a stack
    (M, P), one pass and M floats, each its row's own score bit for bit. The
    batch is checked as ``gradient`` checks it, or, with ``work``, was."""
    (work, x), y = _prepared(spec, theta, batch, work), np.asarray(batch.labels)
    if not spec.classification:
        score = -_quadratic(spec, theta[..., None, :] - y)
    elif metric == "accuracy":
        hits = work.propagate(x).argmax(axis=-1) == y
        score = np.add.reduce(hits, axis=-1) / len(x)
    else:
        picked = work.propagate(x, softmax=True).take(work.row_offsets + y)
        score = np.add.reduce(np.log(np.maximum(picked, 1e-300)), axis=-1) / len(x)
    return score.tolist()   # Python floats: a numpy scalar's repr would reach the CSVs


def step_ahead_performance(spec: ModelSpec, predictions: np.ndarray, batch) -> float:
    """Score step-2 predictions once labels are revealed: a classifier's
    accuracy, or the quadratic probe's negative mean quadratic loss."""
    y = np.asarray(batch.labels)
    if spec.classification:
        return float(np.count_nonzero(predictions == y) / y.size)
    return -float(_quadratic(spec, predictions - y))
