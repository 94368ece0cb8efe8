"""Minimal dense neural-network engine.

Fully-connected layers with ReLU on hidden layers, a softmax output, and
mean-reduced categorical cross-entropy. Everything is float64 and every
operation is a pure function of its inputs (plus an explicit seed where
randomness is involved); no public function writes into an array it is
given.

A model's parameters are one flat float64 vector of ``spec.parameter_count``
entries, laid out layer by layer: the weight matrix ``[fan_in, fan_out]``
row-major, then the bias ``[fan_out]``. ``layer_views`` reads the layers
out of it as views. The checked functions (``forward``,
``compute_gradients``, ``finite_diff_grad``, ``evaluate``) take one such
vector and a ``Dataset``, whose rows are the batch.

Backpropagation has one implementation, ``_gradients_into``, which writes
into given gradient views and checks nothing. ``compute_gradients`` checks
its inputs and allocates around it; the federated round loop, which checks
its data once per run, calls it directly on a stack of K clients along a
leading axis (parameters ``[K, parameter_count]``, features
``[K, b, input_dim]``). Transposes swap the last two axes and reductions
run along the class or batch axis, so each client of a stack gets the bits
its own checked call gives.

The loss is always computed through the fused log-softmax path with
max-subtraction, which keeps it finite for arbitrary finite logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError
from .rng import Xoshiro256PP

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from .data import Dataset


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of a dense classifier.

    ``hidden`` lists the hidden-layer widths in order; an empty tuple gives
    plain softmax regression. Activations and loss are fixed: ReLU on
    hidden layers, softmax output, mean-reduced categorical cross-entropy.
    """

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1:
            raise ContractError("input_dim must be positive")
        if any(h < 1 for h in self.hidden):
            raise ContractError("hidden widths must be positive")
        if self.output_dim < 2:
            raise ContractError("output_dim must be at least 2")

    @property
    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) for every dense layer, input to output."""
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return tuple(zip(dims[:-1], dims[1:]))

    @property
    def parameter_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)


def layer_views(spec: NetworkSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(W [..., fan_in, fan_out], b [..., fan_out])`` views of ``params``.

    ``params`` is a flat parameter vector, or a stack of them with any
    leading axes; its last axis must hold ``spec.parameter_count`` entries
    with unit stride. The views share its memory, so writes go through.
    """
    if params.ndim < 1 or params.shape[-1] != spec.parameter_count:
        raise ContractError(
            f"parameters of shape {params.shape} do not hold the spec's"
            f" {spec.parameter_count} entries along the last axis"
        )
    lead = params.shape[:-1]
    views = []
    start = 0
    for fan_in, fan_out in spec.layer_dims:
        stop = start + fan_in * fan_out
        w = params[..., start:stop].reshape(*lead, fan_in, fan_out)
        views.append((w, params[..., stop : stop + fan_out]))
        start = stop + fan_out
    return views


def _require_data(spec: NetworkSpec, width: int, labels: np.ndarray) -> None:
    """Raise unless the features are ``input_dim`` wide and the labels index the outputs."""
    if width != spec.input_dim:
        raise ContractError(f"feature dim {width} != input_dim {spec.input_dim}")
    if labels.min() < 0 or labels.max() >= spec.output_dim:
        raise ContractError("labels out of range for the network output")


def init_weights(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights, zero biases, drawn from one seeded stream.

    Draw order is fixed (layers in order, entries row-major), so the same
    (spec, seed) pair yields bit-identical parameters everywhere.
    """
    rng = Xoshiro256PP(seed)
    parts: list[np.ndarray] = []
    for fan_in, fan_out in spec.layer_dims:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform_array(fan_in * fan_out, -bound, bound))
        parts.append(np.zeros(fan_out, dtype=np.float64))
    return np.concatenate(parts)


def _check_batch(
    spec: NetworkSpec, params: np.ndarray, batch: "Dataset"
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The layer views of flat ``params``, once ``batch`` is checked against the spec."""
    if params.ndim != 1:
        raise ContractError(f"parameters of shape {params.shape} are not one flat vector")
    layers = layer_views(spec, params)
    _require_data(spec, batch.input_dim, batch.labels)
    return layers


def _forward_core(
    layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Unchecked forward pass: (each layer's input, log-probs).

    The inputs are ``features`` and then each hidden layer's activation.
    The ReLU overwrites its pre-activation, so each hidden layer holds one
    array. A client stack (layers ``[K, ...]``, features ``[K, b, d]``) runs
    through the same operations, one matrix product per client.
    """
    activations = [features]
    for l, (w, b) in enumerate(layers):
        z = activations[l] @ w
        z += b[..., None, :]
        if l < len(layers) - 1:
            activations.append(np.maximum(z, 0.0, out=z))
    logits = z
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return activations, log_probs


def _loss(log_probs: np.ndarray, labels: np.ndarray) -> float:
    picked = np.take_along_axis(log_probs, labels[:, None], axis=1)[:, 0]
    return float(-picked.mean())


def _forward_full(
    spec: NetworkSpec, params: np.ndarray, batch: "Dataset"
) -> tuple[np.ndarray, float]:
    """Checked forward pass: (log-probs, loss).

    ``forward`` and ``compute_gradients`` both report this exact loss value,
    bit for bit, because they share ``_forward_core`` and ``_loss``.
    """
    layers = _check_batch(spec, params, batch)
    _, log_probs = _forward_core(layers, batch.features)
    return log_probs, _loss(log_probs, batch.labels)


def forward(spec: NetworkSpec, params: np.ndarray, batch: "Dataset") -> tuple[np.ndarray, float]:
    """Class probabilities ``[b, output_dim]`` and the mean cross-entropy loss of ``batch``."""
    log_probs, loss = _forward_full(spec, params, batch)
    return np.exp(log_probs), loss


def _gradients_into(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    features: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Backpropagation, unchecked: writes every layer's gradients into ``grad_layers``.

    ``layers`` and ``grad_layers`` are ``layer_views`` of the parameters and
    of a gradient buffer; ``features`` is ``[..., b, d]`` and ``targets``
    ``[..., b, classes]``, the one-hot float64 rows of the labels. The
    output delta is ``(p - targets) / b``: subtracting a target's 0.0 leaves
    a probability as it is, bit for bit, and its 1.0 gives ``fl(p - 1.0)``,
    so this equals subtracting 1.0 at each label. The ReLU's mask comes
    from its activation: ``max(z, 0) > 0`` is ``z > 0`` for every float,
    NaN and signed zero included. The inputs may be strided views: every
    product acts on one client's rows. Returns the log-probabilities, from
    which callers that want the loss take it.
    """
    activations, log_probs = _forward_core(layers, features)
    delta = np.exp(log_probs)
    delta -= targets
    delta /= features.shape[-2]
    for l in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[l]
        np.matmul(activations[l].swapaxes(-1, -2), delta, out=gw)
        delta.sum(axis=-2, out=gb)
        if l > 0:
            delta = delta @ layers[l][0].swapaxes(-1, -2)
            delta *= activations[l] > 0.0
    return log_probs


def compute_gradients(
    spec: NetworkSpec, params: np.ndarray, batch: "Dataset"
) -> tuple[float, np.ndarray]:
    """Analytic backpropagation of the mean-reduced cross-entropy over ``batch``.

    The gradients come back in a new array laid out like ``params``.
    """
    layers = _check_batch(spec, params, batch)
    grads = np.empty_like(params)
    targets = np.eye(spec.output_dim)[batch.labels]
    log_probs = _gradients_into(layers, layer_views(spec, grads), batch.features, targets)
    return _loss(log_probs, batch.labels), grads


def _descend(params: np.ndarray, grads: np.ndarray, eta: float, out: np.ndarray) -> np.ndarray:
    """``params - eta * grads`` into ``out``, scaling ``grads`` by ``eta`` in place."""
    grads *= eta
    return np.subtract(params, grads, out=out)


def sgd_step(params: np.ndarray, grads: np.ndarray, eta: float) -> np.ndarray:
    """One gradient-descent update, ``params - eta * grads``, into a new array.

    Public as the engine's documented step: with ``compute_gradients`` it
    trains a model one batch at a time. It is the checked counterpart of
    ``_descend``, which the round loop uses to update its stack in place,
    with the same bits.
    """
    if not (math.isfinite(eta) and eta >= 0):
        raise ContractError(f"learning rate must be finite and non-negative, got {eta}")
    if grads.shape != params.shape:
        raise ContractError(f"gradient shape does not match parameters {params.shape}")
    return params - eta * grads


def finite_diff_grad(
    spec: NetworkSpec, params: np.ndarray, batch: "Dataset", eps_fd: float
) -> np.ndarray:
    """Central-difference gradient oracle: ``(F(w+eps) - F(w-eps)) / (2 eps)``.

    Exhaustive over every entry of a flat parameter vector; intended for
    testing small networks, independently of the backpropagation path.
    """
    if eps_fd <= 0:
        raise ContractError("eps_fd must be positive")
    work = np.array(params, dtype=np.float64)
    out = np.zeros_like(work)
    for i in range(work.size):
        orig = work[i]
        work[i] = orig + eps_fd
        _, loss_plus = _forward_full(spec, work, batch)
        work[i] = orig - eps_fd
        _, loss_minus = _forward_full(spec, work, batch)
        work[i] = orig
        out[i] = (loss_plus - loss_minus) / (2.0 * eps_fd)
    return out


def evaluate(spec: NetworkSpec, params: np.ndarray, dataset: "Dataset") -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a whole dataset.

    Predictions take the argmax of the class probabilities; ties resolve to
    the lowest class index. Raises if the result is non-finite (the weights
    have diverged) so broken runs fail loudly instead of logging garbage.
    """
    if not np.isfinite(params).all():
        raise ContractError("weights are non-finite; training diverged")
    probs, loss = forward(spec, params, dataset)
    if not math.isfinite(loss):
        raise ContractError("evaluation produced a non-finite loss; weights have diverged")
    predictions = np.argmax(probs, axis=1)
    accuracy = float(np.mean(predictions == dataset.labels))
    return loss, accuracy
