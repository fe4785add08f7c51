"""MLP representation and training.

A network is an ordered stack of dense layers, each with a weight matrix,
an optional bias, and an elementwise activation. The forward pass captures
per-layer tap points (pre-activation and activation matrices) because the
layer-insertion algorithms regress against them. A small SGD-with-momentum
trainer with softmax cross-entropy loss produces parent models; it computes
in float32 and returns float64 weights, as every other function here takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFiniteError, OutOfRangeError, ShapeError, TrainingDivergedError
from .linalg import as_matrix, check_finite_fields

ACTIVATION_KINDS = ("relu", "sigmoid", "tanh", "identity")
FLOAT32_MAX = float(np.finfo(np.float32).max)


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
            if not np.isfinite(self.bias).all():
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


def _checked_input(mlp: Mlp, x, name: str = "input") -> np.ndarray:
    """Validate the layer chain of `mlp`, edited or not since it was built,
    and `x` as a finite batch of `mlp.d_in` features; returns `x` as a matrix."""
    _check_chain(mlp.layers)
    x = as_matrix(x, name)
    if x.shape[1] != mlp.d_in:
        raise ShapeError(
            f"{name} has {x.shape[1]} features but layer 0 expects {mlp.d_in}"
        )
    return x


def _checked_data(mlp: Mlp, features, labels, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The one check of a labelled data set against `mlp`: features through
    `_checked_input` as `name`, at least one row, and 1-D integer labels, one
    per row, in [0, mlp.d_out). Returns the features and labels as arrays."""
    x = _checked_input(mlp, features, name)
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
    return x, labels


def _layer_outputs(mlp: Mlp, x: np.ndarray, keep_pre: bool = True):
    """The forward pass on a batch `_checked_input` accepted, unchecked:
    (pre-activations, activations), one per layer. Without `keep_pre` each
    activation is computed in place over its pre-activation, which is not
    kept (the list is empty), and an identity layer's output is its
    pre-activation. The activations have the same bits either way."""
    pres: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    a = x
    for layer in mlp.layers:
        pre = a @ layer.weight
        if layer.bias is not None:
            pre += layer.bias
        if keep_pre:
            pres.append(pre)
        a = _activate(layer.activation, pre, in_place=not keep_pre)
        acts.append(a)
    return pres, acts


def forward(mlp: Mlp, x) -> TapOutputs:
    """Run the batch through every layer, capturing all tap points."""
    x = _checked_input(mlp, x)
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


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of `logits` against `labels`, and the log
    probabilities it came from."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -float(log_probs[np.arange(len(labels)), labels].mean()), log_probs


def _backward(mlp: Mlp, x: np.ndarray, acts: list[np.ndarray], labels: np.ndarray):
    """Loss and (dw, db) per layer from the input and the activations of a
    forward pass; leaves `acts` unchanged."""
    n = x.shape[0]
    loss, log_probs = _cross_entropy(acts[-1], labels)

    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray | None]] = [None] * len(mlp.layers)
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        _scale_by_derivative(layer.activation, delta, acts[k])
        dw = (x if k == 0 else acts[k - 1]).T @ delta
        db = delta.sum(axis=0) if layer.bias is not None else None
        grads[k] = (dw, db)
        if k > 0:
            delta = delta @ layer.weight.T
    return loss, grads


def loss_and_gradients(
        mlp: Mlp, x, labels) -> tuple[float, list[tuple[np.ndarray, np.ndarray | None]]]:
    """Softmax cross-entropy on the final activation output, plus analytic
    gradients for every weight and bias (ordered like mlp.layers). `x` and
    `labels` get `train_sgd`'s data check, with `x` named "input"."""
    x, labels = _checked_data(mlp, x, labels, "input")
    _, acts = _layer_outputs(mlp, x, keep_pre=False)
    return _backward(mlp, x, acts, labels)


def evaluate(mlp: Mlp, data) -> tuple[float, float]:
    """Mean cross-entropy loss and argmax accuracy over the dataset, after
    `train_sgd`'s data check with the features named "evaluation features";
    the forward pass keeps no pre-activation."""
    x, labels = _checked_data(mlp, data.features, data.labels, "evaluation features")
    logits = _layer_outputs(mlp, x, keep_pre=False)[1][-1]
    loss, _ = _cross_entropy(logits, labels)
    return loss, float((logits.argmax(axis=1) == labels).mean())


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


def _check_float32_range(arr: np.ndarray, name: str) -> None:
    """Refuse a finite float64 array with an entry beyond float32's largest
    finite value, which the cast to float32 would make infinite. max and min
    take no temporary the size of `arr`."""
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
    function of cfg.seed.

    The data is checked once, up front, as "training features" (the check
    `evaluate` and `loss_and_gradients` make too), and so is the float32
    range of the features, weights and biases. The copy, the velocities,
    the hyperparameters and each mini-batch, gathered one at a time, are
    float32, and every step runs unchecked and updates the copy in place,
    with the arithmetic of the out-of-place update, v = m*v - lr*(dw + wd*W)
    and W = W + v, operation for operation. The trained weights come back
    as float64, each one a float32 value; a non-finite one is a
    `TrainingDivergedError`, as a non-finite loss is.
    """
    x, labels = _checked_data(mlp, data.features, data.labels, "training features")
    _check_float32_range(x, "training features")
    for k, l in enumerate(mlp.layers):
        _check_float32_range(l.weight, f"layer {k} weight")
        if l.bias is not None:
            _check_float32_range(l.bias, f"layer {k} bias")
    if cfg.epochs == 0:
        return _copied(mlp, np.float64), []
    n = x.shape[0]
    net = _copied(mlp, np.float32)
    history = []

    lr, momentum, decay = (np.float32(v) for v in
                           (cfg.learning_rate, cfg.momentum, cfg.weight_decay))
    # per layer: weight velocity, weight-decay scratch, bias velocity
    state = [
        (np.zeros_like(l.weight), np.empty_like(l.weight),
         np.zeros_like(l.bias) if l.bias is not None else None)
        for l in net.layers
    ]
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb = x[idx].astype(np.float32)
            yb = labels[idx]
            _, acts = _layer_outputs(net, xb, keep_pre=False)
            loss, grads = _backward(net, xb, acts, yb)
            if not np.isfinite(loss):
                raise _diverged("loss", epoch, cfg)
            loss_sum += loss * len(idx)
            correct += int((acts[-1].argmax(axis=1) == yb).sum())
            for layer, (vw, decayed, vb), (dw, db) in zip(net.layers, state, grads):
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
        history.append(
            EpochStats(epoch=epoch, loss=loss_sum / n, accuracy=correct / n)
        )
    # the last update is checked by no later loss
    if not all(np.isfinite(a).all() for l in net.layers for a in (l.weight, l.bias)
               if a is not None):
        raise _diverged("a weight", cfg.epochs, cfg)
    return _copied(net, np.float64), history


def _diverged(what: str, epoch: int, cfg: TrainConfig) -> TrainingDivergedError:
    return TrainingDivergedError(
        f"{what} became non-finite at epoch {epoch}; the learning "
        f"rate {cfg.learning_rate} is likely too high"
    )
