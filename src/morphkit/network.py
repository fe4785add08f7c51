"""MLP representation and training.

A network is an ordered stack of dense layers, each with a weight matrix,
an optional bias, and an elementwise activation. The forward pass captures
per-layer tap points (pre-activation and activation matrices) because the
layer-insertion algorithms regress against them. A small SGD-with-momentum
trainer with softmax cross-entropy loss produces parent models.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ShapeError, TrainingDivergedError
from .linalg import as_matrix

ACTIVATION_KINDS = ("relu", "sigmoid", "tanh", "identity")


def _check_kind(kind: str) -> str:
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}")
    return kind


def apply_activation(kind: str, m: np.ndarray) -> np.ndarray:
    """Apply the named elementwise activation, preserving shape."""
    _check_kind(kind)
    m = np.asarray(m, dtype=np.float64)
    if kind == "relu":
        return np.maximum(m, 0.0)
    if kind == "sigmoid":
        return expit(m)
    if kind == "tanh":
        return np.tanh(m)
    return m.copy()


def activation_grad(kind: str, act: np.ndarray) -> np.ndarray:
    """Elementwise derivative, expressed in terms of the activation output."""
    _check_kind(kind)
    if kind == "relu":
        return (act > 0).astype(np.float64)
    if kind == "sigmoid":
        return act * (1.0 - act)
    if kind == "tanh":
        return 1.0 - act * act
    return np.ones_like(act)


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
                raise ShapeError("bias contains non-finite entries")

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
        if not self.layers:
            raise ShapeError("an Mlp needs at least one layer")
        for k in range(1, len(self.layers)):
            prev, cur = self.layers[k - 1], self.layers[k]
            if prev.d_out != cur.d_in:
                raise ShapeError(
                    f"layer {k - 1} outputs {prev.d_out} features but layer "
                    f"{k} expects {cur.d_in}"
                )

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
    after its activation; the network input is kept so that the activation
    feeding layer k is `activations[k-1]` with `input` standing in at k=0.
    """

    input: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]

    def activation_in(self, k: int) -> np.ndarray:
        return self.input if k == 0 else self.activations[k - 1]


def init_weights(d_in: int, d_out: int, activation: str, seed: int) -> np.ndarray:
    """Gaussian init keyed to the activation: variance 2/d_in for relu,
    1/d_in otherwise. Deterministic per seed."""
    if d_in < 1 or d_out < 1:
        raise ValueError(f"weight dimensions must be >= 1, got {d_in}x{d_out}")
    _check_kind(activation)
    std = np.sqrt(2.0 / d_in) if activation == "relu" else np.sqrt(1.0 / d_in)
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, std, size=(d_in, d_out))


def forward(mlp: Mlp, x) -> TapOutputs:
    """Run the batch through every layer, capturing all tap points."""
    x = as_matrix(x, "input")
    if x.shape[1] != mlp.d_in:
        raise ShapeError(
            f"input has {x.shape[1]} features but layer 0 expects {mlp.d_in}"
        )
    pres: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    a = x
    for k, layer in enumerate(mlp.layers):
        if a.shape[1] != layer.d_in:
            raise ShapeError(
                f"layer {k}: got {a.shape[1]} features, expected {layer.d_in}"
            )
        pre = a @ layer.weight
        if layer.bias is not None:
            pre = pre + layer.bias
        a = apply_activation(layer.activation, pre)
        pres.append(pre)
        acts.append(a)
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _backward(mlp: Mlp, taps: TapOutputs, labels: np.ndarray):
    logits = taps.activations[-1]
    n = logits.shape[0]
    log_probs = _log_softmax(logits)
    loss = -float(log_probs[np.arange(n), labels].mean())

    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads: list[tuple[np.ndarray, np.ndarray | None]] = [None] * len(mlp.layers)
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        delta = delta * activation_grad(layer.activation, taps.activations[k])
        a_in = taps.activation_in(k)
        dw = a_in.T @ delta
        db = delta.sum(axis=0) if layer.bias is not None else None
        grads[k] = (dw, db)
        if k > 0:
            delta = delta @ layer.weight.T
    return loss, grads, logits


def loss_and_gradients(
    mlp: Mlp, x: np.ndarray, labels: np.ndarray
) -> tuple[float, list[tuple[np.ndarray, np.ndarray | None]]]:
    """Softmax cross-entropy on the final activation output, plus analytic
    gradients for every weight and bias (ordered like mlp.layers)."""
    loss, grads, _ = _backward(mlp, forward(mlp, x), labels)
    return loss, grads


def evaluate(mlp: Mlp, data) -> tuple[float, float]:
    """Mean cross-entropy loss and argmax accuracy over the dataset."""
    if data.features.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if data.labels.max() >= mlp.d_out:
        raise ShapeError(
            f"labels reach {int(data.labels.max())} but the network has "
            f"{mlp.d_out} outputs"
        )
    logits = forward(mlp, data.features).activations[-1]
    log_probs = _log_softmax(logits)
    n = data.features.shape[0]
    loss = -float(log_probs[np.arange(n), data.labels].mean())
    accuracy = float((logits.argmax(axis=1) == data.labels).mean())
    return loss, accuracy


def train_sgd(mlp: Mlp, data, cfg: TrainConfig) -> tuple[Mlp, list[EpochStats]]:
    """SGD with momentum on softmax cross-entropy.

    Returns a trained copy (the input network is untouched) and per-epoch
    stats; row 0 records the untrained metrics so the history is never
    empty. Weight decay applies to weights only. Mini-batch order is a pure
    function of cfg.seed.
    """
    if mlp.d_out <= int(data.labels.max()):
        raise ShapeError(
            f"final layer width {mlp.d_out} does not cover label "
            f"{int(data.labels.max())}"
        )
    net = copy.deepcopy(mlp)
    vel = [
        (np.zeros_like(l.weight), np.zeros_like(l.bias) if l.bias is not None else None)
        for l in net.layers
    ]
    rng = np.random.default_rng(cfg.seed)
    n = data.features.shape[0]

    loss0, acc0 = evaluate(net, data)
    history = [EpochStats(epoch=0, loss=loss0, accuracy=acc0)]

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb = data.features[idx]
            yb = data.labels[idx]
            loss, grads, logits = _backward(net, forward(net, xb), yb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}; the learning "
                    f"rate {cfg.learning_rate} is likely too high"
                )
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == yb).sum())
            for layer, (vw, vb), (dw, db) in zip(net.layers, vel, grads):
                dw = dw + cfg.weight_decay * layer.weight
                vw *= cfg.momentum
                vw -= cfg.learning_rate * dw
                layer.weight = layer.weight + vw
                if db is not None:
                    vb *= cfg.momentum
                    vb -= cfg.learning_rate * db
                    layer.bias = layer.bias + vb
        history.append(
            EpochStats(epoch=epoch, loss=loss_sum / n, accuracy=correct / n)
        )
    return net, history
