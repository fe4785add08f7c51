"""MLP representation and training.

A network is an ordered stack of dense layers, each with a weight matrix,
an optional bias, and an elementwise activation. The forward pass captures
per-layer tap points (pre-activation and activation matrices) because the
layer-insertion algorithms regress against them. A small SGD-with-momentum
trainer with softmax cross-entropy loss produces parent models; it computes
in float32 and returns float64 weights, as every other function here takes.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NotFiniteError, OutOfRangeError, ShapeError, TrainingDivergedError
from .linalg import all_finite, as_matrix, as_matrix_with_sum, check_finite_fields, sum_of_squares

log = logging.getLogger(__name__)

ACTIVATION_KINDS = ("relu", "sigmoid", "tanh", "identity")
FLOAT32_MAX = float(np.finfo(np.float32).max)
# An array whose sum of squares is at most this has no entry beyond
# sqrt(0.5) * FLOAT32_MAX, rounding of the sum included
_FLOAT32_SAFE_SUM = 0.5 * FLOAT32_MAX**2


def _check_kind(kind: str) -> str:
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}")
    return kind


def apply_activation(kind: str, m: np.ndarray) -> np.ndarray:
    """Apply the named elementwise activation, preserving shape."""
    _check_kind(kind)
    return _activate(kind, np.asarray(m, dtype=np.float64))


def _activate(kind: str, m: np.ndarray, in_place: bool = False) -> np.ndarray:
    """`apply_activation` without the checks; `in_place` overwrites `m` and
    returns it (identity then costs nothing). Same bits either way."""
    out = m if in_place else None
    if kind == "relu":
        return np.maximum(m, 0.0, out=out)
    if kind == "sigmoid":
        # 1/(1+exp(-x)), one operation at a time into one buffer; below
        # x = -709 exp overflows to inf and the result is exactly 0.0
        out = np.negative(m, out=out)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)
    if kind == "tanh":
        return np.tanh(m, out=out)
    return m if in_place else m.copy()


def _scale_by_derivative(kind: str, delta: np.ndarray, act: np.ndarray) -> None:
    """delta *= the activation's derivative, expressed in terms of its
    output `act`. Multiplying by the boolean relu mask has the bits of
    multiplying by its 0.0/1.0 float form, signed zeros included; the
    identity derivative is 1 and is skipped."""
    if kind == "relu":
        delta *= act > 0
    elif kind == "sigmoid":
        delta *= act * (1.0 - act)
    elif kind == "tanh":
        delta *= 1.0 - act * act


@dataclass
class Layer:
    """Dense layer: weight (d_in, d_out), optional bias (d_out,), activation."""

    weight: np.ndarray
    bias: np.ndarray | None
    activation: str

    def __post_init__(self):
        self.weight = as_matrix(self.weight, "layer weight")
        _check_kind(self.activation)
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.ndim != 1 or self.bias.shape[0] != self.weight.shape[1]:
                raise ShapeError(
                    f"bias length {self.bias.shape} does not match output "
                    f"width {self.weight.shape[1]}"
                )
            if not all_finite(self.bias):
                raise NotFiniteError("layer bias: contains non-finite entries")

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]


@dataclass
class Mlp:
    """Ordered layer stack with chained dimensions."""

    layers: list[Layer]

    def __post_init__(self):
        _check_chain(self.layers)

    @property
    def d_in(self) -> int:
        return self.layers[0].d_in

    @property
    def d_out(self) -> int:
        return self.layers[-1].d_out


@dataclass
class TapOutputs:
    """Per-layer tap points from a forward pass.

    pre_activations[k] and activations[k] are the layer-k output before and
    after its activation; `input` is the checked batch that fed layer 0.
    """

    input: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]


def init_weights(d_in: int, d_out: int, activation: str, seed: int) -> np.ndarray:
    """Gaussian init keyed to the activation: variance 2/d_in for relu,
    1/d_in otherwise. Deterministic per seed."""
    if d_in < 1 or d_out < 1:
        raise ValueError(f"weight dimensions must be >= 1, got {d_in}x{d_out}")
    _check_kind(activation)
    std = np.sqrt(2.0 / d_in) if activation == "relu" else np.sqrt(1.0 / d_in)
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, std, size=(d_in, d_out))


def _check_chain(layers: list[Layer]) -> None:
    """The layer-chain rule: at least one layer, and each layer takes as
    many features as the one before it outputs."""
    if not layers:
        raise ShapeError("an Mlp needs at least one layer")
    for k in range(1, len(layers)):
        prev, cur = layers[k - 1], layers[k]
        if prev.d_out != cur.d_in:
            raise ShapeError(
                f"layer {k - 1} outputs {prev.d_out} features but layer "
                f"{k} expects {cur.d_in}"
            )


def _checked_input(mlp: Mlp, x, name: str = "input",
                   keep_float32: bool = False) -> tuple[np.ndarray, float | None]:
    """Validate the layer chain of `mlp`, edited or not since it was built,
    and `x` as a finite batch of `mlp.d_in` features; returns `x` as a
    float64 matrix (a float32 one stays float32 with `keep_float32`) and the
    `sum_of_squares` its finiteness check read."""
    _check_chain(mlp.layers)
    x, total = as_matrix_with_sum(x, name, keep_float32)
    if x.shape[1] != mlp.d_in:
        raise ShapeError(
            f"{name} has {x.shape[1]} features but layer 0 expects {mlp.d_in}"
        )
    return x, total


def _checked_data(mlp: Mlp, features, labels, name: str,
                  keep_float32: bool = False) -> tuple[np.ndarray, np.ndarray, float | None]:
    """The one check of a labelled data set against `mlp`: features through
    `_checked_input` as `name`, at least one row, and 1-D integer labels, one
    per row, in [0, mlp.d_out). Returns the features and labels as arrays,
    and the features' sum of squares."""
    x, total = _checked_input(mlp, features, name, keep_float32)
    n = x.shape[0]
    if n == 0:
        raise ShapeError(f"{name}: 0 rows, and at least one is needed (a synthetic --data spec "
                         f"needs n >= 1 for its train split and test >= 1 for its test split)")
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"{name}: labels must be 1-D integers, one per row; got "
                         f"{labels.dtype} labels of shape {labels.shape} for {n} rows")
    lo, hi = int(labels.min()), int(labels.max())
    if lo < 0 or hi >= mlp.d_out:
        raise ShapeError(f"{name}: labels must lie in [0, {mlp.d_out}) for a network of "
                         f"{mlp.d_out} outputs; got label {lo if lo < 0 else hi}")
    return x, labels, total


def _pre_activation(layer: Layer, a: np.ndarray) -> np.ndarray:
    """The layer's pre-activations on its input batch `a`, a @ weight + bias,
    in a fresh array."""
    pre = a @ layer.weight
    if layer.bias is not None:
        pre += layer.bias
    return pre


def _forward_layer(layer: Layer, a: np.ndarray) -> np.ndarray:
    """One layer of the forward pass on its input batch `a`: the
    pre-activation in a fresh array, activated in place, so an identity
    layer's output is its pre-activation."""
    return _activate(layer.activation, _pre_activation(layer, a), in_place=True)


def _layer_outputs(mlp: Mlp, x: np.ndarray, keep_pre: bool = True):
    """The forward pass on a batch `_checked_input` accepted, unchecked:
    (pre-activations, activations), one per layer. Without `keep_pre` each
    layer is one `_forward_layer` call and no pre-activation is kept (the
    list is empty). The activations have the same bits either way."""
    pres: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    a = x
    for layer in mlp.layers:
        if keep_pre:
            pres.append(_pre_activation(layer, a))
            a = _activate(layer.activation, pres[-1])
        else:
            a = _forward_layer(layer, a)
        acts.append(a)
    return pres, acts


def forward(mlp: Mlp, x) -> TapOutputs:
    """Run the batch through every layer, capturing all tap points."""
    x, _ = _checked_input(mlp, x)
    pres, acts = _layer_outputs(mlp, x)
    return TapOutputs(input=x, pre_activations=pres, activations=acts)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-3
    momentum: float = 0.9
    weight_decay: float = 1e-6
    epochs: int = 5
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_finite_fields(self)
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def _cross_entropy(logits: np.ndarray, labels: np.ndarray,
                   rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of `logits` against `labels`, and the log
    probabilities it came from; `rows` is np.arange(len(labels)). The mean
    has `np.mean`'s arithmetic: the sum in the logits' dtype, divided by the
    count in float64 and rounded back to that dtype."""
    log_probs = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_probs -= np.log(np.add.reduce(np.exp(log_probs), axis=1, keepdims=True))
    total = float(np.add.reduce(log_probs[rows, labels]))
    return -float(logits.dtype.type(total / len(labels))), log_probs


def _output_delta(log_probs: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The gradient of the mean cross-entropy with respect to the logits,
    (softmax - one-hot) / n, computed over `log_probs`, which it overwrites."""
    delta = np.exp(log_probs, out=log_probs)
    delta[rows, labels] -= 1.0
    delta /= len(labels)
    return delta


def _backward_layer(layer: Layer, a_in: np.ndarray, a_out: np.ndarray, delta: np.ndarray,
                    below: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One layer of backpropagation. `delta`, the loss gradient with respect
    to the layer's output `a_out`, is scaled in place by the activation's
    derivative. Returns the weight gradient, the bias gradient (None without
    a bias) and, when `below`, the loss gradient with respect to the input
    `a_in`. That one is computed with the layer's current weight, so the
    layer's update must come after this call."""
    _scale_by_derivative(layer.activation, delta, a_out)
    dw = a_in.T @ delta
    db = None if layer.bias is None else np.add.reduce(delta, axis=0)
    return dw, db, (delta @ layer.weight.T if below else None)


def _update_layer(layer: Layer, dw: np.ndarray, db: np.ndarray | None, state, hyper) -> None:
    """One layer's momentum step, in place: v = m*v - lr*(dw + wd*W) and
    W = W + v, operation for operation, and the same for the bias without
    decay. `state` is the layer's (weight velocity, scratch the weight's
    shape, bias velocity) and `hyper` is (lr, m, wd); `dw` and `db` are
    overwritten."""
    vw, decayed, vb = state
    lr, momentum, decay = hyper
    np.multiply(layer.weight, decay, out=decayed)
    dw += decayed
    vw *= momentum
    dw *= lr
    vw -= dw
    layer.weight += vw
    if db is not None:
        vb *= momentum
        db *= lr
        vb -= db
        layer.bias += vb


def loss_and_gradients(
        mlp: Mlp, x, labels) -> tuple[float, list[tuple[np.ndarray, np.ndarray | None]]]:
    """Softmax cross-entropy on the final activation output, plus analytic
    gradients for every weight and bias (ordered like mlp.layers). `x` and
    `labels` get `train_sgd`'s data check, with `x` named "input". The
    gradients come from the backward calls of `train_sgd`'s step."""
    x, labels, _ = _checked_data(mlp, x, labels, "input")
    acts = [x, *_layer_outputs(mlp, x, keep_pre=False)[1]]
    rows = np.arange(x.shape[0])
    loss, log_probs = _cross_entropy(acts[-1], labels, rows)
    delta = _output_delta(log_probs, labels, rows)
    grads: list[tuple[np.ndarray, np.ndarray | None]] = [None] * len(mlp.layers)
    for k in range(len(mlp.layers) - 1, -1, -1):
        dw, db, delta = _backward_layer(mlp.layers[k], acts[k], acts[k + 1], delta, k > 0)
        grads[k] = (dw, db)
    return loss, grads


def evaluate(mlp: Mlp, data) -> tuple[float, float]:
    """Mean cross-entropy loss and argmax accuracy over the dataset, after
    `train_sgd`'s data check with the features named "evaluation features";
    the forward pass keeps no pre-activation."""
    x, labels, _ = _checked_data(mlp, data.features, data.labels, "evaluation features")
    logits = _layer_outputs(mlp, x, keep_pre=False)[1][-1]
    loss, _ = _cross_entropy(logits, labels, np.arange(len(labels)))
    return loss, int(np.count_nonzero(logits.argmax(axis=1) == labels)) / len(labels)


def _copied(mlp: Mlp, dtype) -> Mlp:
    """`mlp` with a fresh `dtype` copy of every weight and bias, so in-place
    updates reach neither `mlp` nor a second layer that shares an array with
    this one. `Layer` stores float64, so another dtype is set after it."""
    net = Mlp([Layer(l.weight, l.bias, l.activation) for l in mlp.layers])
    for layer in net.layers:
        layer.weight = layer.weight.astype(dtype)
        if layer.bias is not None:
            layer.bias = layer.bias.astype(dtype)
    return net


def _check_float32_range(arr: np.ndarray, name: str, total: float | None = None) -> None:
    """Refuse a finite float64 array with an entry beyond float32's largest
    finite value, which the cast to float32 would make infinite. A sum of
    squares within `_FLOAT32_SAFE_SUM` clears the array in one read, none
    when the caller passes `arr`'s `sum_of_squares` as `total`; above it,
    the exact max and min decide. Neither takes a temporary the size of
    `arr`. A float32 array is in range by its type and is not read."""
    if arr.dtype == np.float32:
        return
    if total is None:
        total = sum_of_squares(arr)
    if total is not None and total <= _FLOAT32_SAFE_SUM:
        return
    top = max(arr.max(), -arr.min()) if arr.size else 0.0
    if top > FLOAT32_MAX:
        raise OutOfRangeError(f"{name}: an entry of magnitude {top:.6g} is beyond "
                              f"{FLOAT32_MAX:.6g}, the largest finite float32 value, "
                              f"and training computes in float32")


def train_sgd(mlp: Mlp, data, cfg: TrainConfig) -> tuple[Mlp, list[EpochStats]]:
    """SGD with momentum on softmax cross-entropy, computed in float32.

    Returns a trained copy (the input network is untouched) and one stats
    row per epoch, `epoch` 1 to cfg.epochs: the mean loss and accuracy over
    that epoch's mini-batches, each taken before its update. With 0 epochs
    the history is empty and the copy has the input's bytes; `evaluate`
    gives a network's metrics at any point, the starting one included.
    Weight decay applies to weights only. Mini-batch order is a pure
    function of cfg.seed. Each epoch's row is also logged at INFO on the
    `morphkit.network` logger, with the epoch's wall time.

    The data is checked once, up front, as "training features" (the check
    `evaluate` and `loss_and_gradients` make too), and so is the float32
    range of the learning rate, the weight decay, the features (from the
    sum of squares the data check read), the weights and the biases.
    Float32 features are trained on as given: checked in place, with no
    float64 copy, and each mini-batch is gathered from them with no cast.
    Features of any other dtype are checked as float64, and each mini-batch
    is gathered and cast to float32 one at a time, so the whole split is
    never copied. The cast rounds an entry as `features.astype(np.float32)`
    does, so a split and its float32 rounding train to the same bytes. The
    copy, the velocities, the hyperparameters and each mini-batch are
    float32, and every step runs unchecked and updates the copy in place,
    with the arithmetic of the out-of-place update, v = m*v - lr*(dw +
    wd*W) and W = W + v, operation for operation. A step is one
    `_forward_layer` call per layer, bottom up, then one `_backward_layer`
    and one `_update_layer` call per layer, top down: a layer is updated as
    soon as its gradient and the gradient for the layer below, which reads
    its weight, exist. The trained weights come back as float64, each one a
    float32 value; a non-finite one is a `TrainingDivergedError`, as a
    non-finite loss is.
    """
    x, labels, x_total = _checked_data(mlp, data.features, data.labels, "training features",
                                       keep_float32=True)
    for field in ("learning_rate", "weight_decay"):
        value = getattr(cfg, field)
        if value > FLOAT32_MAX:
            raise OutOfRangeError(f"{field}: {value:.6g} is beyond {FLOAT32_MAX:.6g}, the largest "
                                  f"finite float32 value, and training computes in float32")
    _check_float32_range(x, "training features", x_total)
    for k, l in enumerate(mlp.layers):
        _check_float32_range(l.weight, f"layer {k} weight")
        if l.bias is not None:
            _check_float32_range(l.bias, f"layer {k} bias")
    if cfg.epochs == 0:
        return _copied(mlp, np.float64), []
    n = x.shape[0]
    net = _copied(mlp, np.float32)
    layers = net.layers
    history = []

    hyper = tuple(np.float32(v) for v in (cfg.learning_rate, cfg.momentum, cfg.weight_decay))
    # per layer: weight velocity, weight-decay scratch, bias velocity
    state = [
        (np.zeros_like(l.weight), np.empty_like(l.weight),
         np.zeros_like(l.bias) if l.bias is not None else None)
        for l in layers
    ]
    all_rows = np.arange(min(cfg.batch_size, n))
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(1, cfg.epochs + 1):
        began = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            rows = all_rows[: len(idx)]
            yb = labels[idx]
            # acts[k] is layer k's input and acts[k + 1] its output
            acts = [x.take(idx, axis=0).astype(np.float32, copy=False)]
            for layer in layers:
                acts.append(_forward_layer(layer, acts[-1]))
            loss, log_probs = _cross_entropy(acts[-1], yb, rows)
            if not math.isfinite(loss):
                raise _diverged("loss", epoch, cfg)
            loss_sum += loss * len(idx)
            correct += int(np.count_nonzero(acts[-1].argmax(axis=1) == yb))
            delta = _output_delta(log_probs, yb, rows)
            for k in range(len(layers) - 1, -1, -1):
                dw, db, delta = _backward_layer(layers[k], acts[k], acts[k + 1], delta, k > 0)
                _update_layer(layers[k], dw, db, state[k], hyper)
        history.append(EpochStats(epoch=epoch, loss=loss_sum / n, accuracy=correct / n))
        log.info("epoch %d of %d: loss %.6g, accuracy %.4f, %.3f s", epoch, cfg.epochs,
                 history[-1].loss, history[-1].accuracy, time.perf_counter() - began)
    # the last update is checked by no later loss
    if not all(all_finite(a) for l in layers for a in (l.weight, l.bias) if a is not None):
        raise _diverged("a weight", cfg.epochs, cfg)
    return _copied(net, np.float64), history


def _diverged(what: str, epoch: int, cfg: TrainConfig) -> TrainingDivergedError:
    return TrainingDivergedError(
        f"{what} became non-finite at epoch {epoch}; the learning "
        f"rate {cfg.learning_rate} is likely too high"
    )
