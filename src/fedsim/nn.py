"""Minimal dense neural-network engine.

Fully-connected layers with ReLU on hidden layers, a softmax output, and
mean-reduced categorical cross-entropy. Everything is float64 and every
operation is a pure function of its inputs (plus an explicit seed where
randomness is involved); only ``sgd_step`` with ``out`` writes into arrays
it is given (``out`` and the gradients).

The forward pass and backpropagation also take a stack of K clients along
a leading axis (weights ``[K, fan_in, fan_out]``, biases ``[K, fan_out]``,
features ``[K, b, input_dim]``, labels ``[K, b]``). Transposes swap the last
two axes and reductions run along the class or batch axis, so each client
of a stack gets the bits its own 2-D call gives.

The loss is always computed through the fused log-softmax path with
max-subtraction, which keeps it finite for arbitrary finite logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

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


@dataclass
class ModelWeights:
    """Per-layer weight matrices ``[fan_in, fan_out]`` and bias vectors ``[fan_out]``."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def arrays(self) -> Iterator[np.ndarray]:
        """All parameter arrays in a fixed order (per layer: weights, then bias)."""
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b

    def copy(self) -> "ModelWeights":
        return ModelWeights([w.copy() for w in self.weights], [b.copy() for b in self.biases])


# Gradients share the exact structure of the weights they were taken from.
Gradients = ModelWeights


@dataclass(frozen=True)
class Batch:
    """A mini-batch: float64 features ``[b, input_dim]`` and integer class labels ``[b]``.

    A stack of K equal-sized client batches has features ``[K, b, input_dim]``
    and labels ``[K, b]``; ``size`` is then the per-client batch size ``b``.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim not in (2, 3):
            raise ContractError("batch features must be 2-D, or 3-D for a client stack")
        if self.labels.shape != self.features.shape[:-1]:
            raise ContractError("labels must match the batch size")
        if self.size < 1:
            raise ContractError("a batch must contain at least one sample")

    @property
    def size(self) -> int:
        return self.features.shape[-2]


def map_params(fn: Callable[..., np.ndarray], *param_sets: ModelWeights) -> ModelWeights:
    """Apply ``fn`` layer-wise across parameter sets, producing new arrays."""
    weights = [fn(*ws) for ws in zip(*(p.weights for p in param_sets))]
    biases = [fn(*bs) for bs in zip(*(p.biases for p in param_sets))]
    return ModelWeights(weights, biases)


def zeros_like(params: ModelWeights) -> ModelWeights:
    return map_params(np.zeros_like, params)


def max_abs_diff(a: ModelWeights, b: ModelWeights) -> float:
    """Largest element-wise absolute difference across all parameters."""
    _require_same_shape(a, b)
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.arrays(), b.arrays()))


def _require_same_shape(a: ModelWeights, b: ModelWeights) -> None:
    shapes_a = [x.shape for x in a.arrays()]
    shapes_b = [x.shape for x in b.arrays()]
    if shapes_a != shapes_b:
        raise ContractError(f"parameter shapes differ: {shapes_a} vs {shapes_b}")


def _require_congruent(spec: NetworkSpec, weights: ModelWeights, batch: Batch) -> None:
    """Layer shapes match the spec, with the batch's leading client axis if it has one."""
    expected = spec.layer_dims
    if len(weights.weights) != len(expected):
        raise ContractError("layer count does not match the network spec")
    stack = batch.features.shape[:-2]
    for (fi, fo), w, b in zip(expected, weights.weights, weights.biases):
        if w.shape != (*stack, fi, fo) or b.shape != (*stack, fo):
            raise ContractError(
                f"layer shape {w.shape}/{b.shape} does not match spec ({fi}, {fo})"
                f" for a batch of shape {batch.features.shape}"
            )


def _require_batch(spec: NetworkSpec, batch: Batch) -> None:
    if batch.features.shape[-1] != spec.input_dim:
        raise ContractError(
            f"batch feature dim {batch.features.shape[-1]} != input_dim {spec.input_dim}"
        )
    if batch.labels.min() < 0 or batch.labels.max() >= spec.output_dim:
        raise ContractError("batch labels out of range for the network output")


def init_weights(spec: NetworkSpec, seed: int) -> ModelWeights:
    """Glorot-uniform weights, zero biases, drawn from one seeded stream.

    Draw order is fixed (layers in order, entries row-major), so the same
    (spec, seed) pair yields bit-identical weights everywhere.
    """
    rng = Xoshiro256PP(seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for fan_in, fan_out in spec.layer_dims:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform_array(fan_in * fan_out, -bound, bound).reshape(fan_in, fan_out)
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return ModelWeights(weights, biases)


def _forward_full(
    spec: NetworkSpec, weights: ModelWeights, batch: Batch
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, float | np.ndarray]:
    """Shared forward pass: (pre-activations, activations, log-probs, loss).

    ``forward`` and ``compute_gradients`` both report this exact loss value,
    bit for bit, because they share this code path. A client stack (weights
    ``[K, fan_in, fan_out]``, biases ``[K, fan_out]``, a 3-D batch) runs
    through the same operations, one matrix product per client, and gives
    one loss per client.
    """
    _require_congruent(spec, weights, batch)
    _require_batch(spec, batch)
    num_layers = len(weights.weights)
    activations = [batch.features]
    pre_acts: list[np.ndarray] = []
    a = batch.features
    for l, (w, b) in enumerate(zip(weights.weights, weights.biases)):
        z = a @ w + b[..., None, :]
        pre_acts.append(z)
        if l < num_layers - 1:
            a = np.maximum(z, 0.0)
            activations.append(a)
    logits = pre_acts[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(log_probs, batch.labels[..., None], axis=-1)[..., 0]
    losses = -picked.mean(axis=-1)
    loss = float(losses) if losses.ndim == 0 else losses
    return pre_acts, activations, log_probs, loss


def forward(
    spec: NetworkSpec, weights: ModelWeights, batch: Batch
) -> tuple[np.ndarray, float | np.ndarray]:
    """Class probabilities ``[b, output_dim]`` and the mean cross-entropy loss.

    A client stack gives probabilities ``[K, b, output_dim]`` and ``[K]`` losses.
    """
    _, _, log_probs, loss = _forward_full(spec, weights, batch)
    return np.exp(log_probs), loss


def compute_gradients(
    spec: NetworkSpec, weights: ModelWeights, batch: Batch
) -> tuple[float | np.ndarray, Gradients]:
    """Analytic backpropagation of the mean-reduced cross-entropy.

    On a client stack each client's gradients equal, bit for bit, those of
    its own 2-D call: every product, reduction and label pick acts per client.
    """
    pre_acts, activations, log_probs, loss = _forward_full(spec, weights, batch)
    delta = np.exp(log_probs)
    # delta is a new C-contiguous array, so this reshape is a view of it.
    classes = delta.shape[-1]
    flat_labels = batch.labels.reshape(-1)
    delta.reshape(-1, classes)[np.arange(flat_labels.size), flat_labels] -= 1.0
    delta /= batch.size
    grad_w: list[np.ndarray] = [None] * len(weights.weights)  # type: ignore[list-item]
    grad_b: list[np.ndarray] = [None] * len(weights.biases)  # type: ignore[list-item]
    for l in range(len(weights.weights) - 1, -1, -1):
        grad_w[l] = activations[l].swapaxes(-1, -2) @ delta
        grad_b[l] = delta.sum(axis=-2)
        if l > 0:
            delta = (delta @ weights.weights[l].swapaxes(-1, -2)) * (pre_acts[l - 1] > 0.0)
    return loss, ModelWeights(grad_w, grad_b)


def sgd_step(
    weights: ModelWeights, grads: Gradients, eta: float, out: ModelWeights | None = None
) -> ModelWeights:
    """One gradient-descent update, ``weights - eta * grads``.

    The result goes into new arrays. With ``out`` (which may be ``weights``
    itself, an in-place update) it goes there instead, and ``grads`` serves
    as scratch: it is scaled by ``eta`` in place, so the step allocates no
    temporary array. The bits are the same either way.
    """
    if eta < 0:
        raise ContractError("learning rate must be non-negative")
    _require_same_shape(weights, grads)
    if out is None:
        return map_params(lambda w, g: w - eta * g, weights, grads)
    _require_same_shape(weights, out)
    for w, g, o in zip(weights.arrays(), grads.arrays(), out.arrays()):
        g *= eta
        np.subtract(w, g, out=o)
    return out


def finite_diff_grad(
    spec: NetworkSpec, weights: ModelWeights, batch: Batch, eps_fd: float
) -> Gradients:
    """Central-difference gradient oracle: ``(F(w+eps) - F(w-eps)) / (2 eps)``.

    Exhaustive over every parameter; intended for testing small networks,
    independently of the backpropagation path.
    """
    if eps_fd <= 0:
        raise ContractError("eps_fd must be positive")
    work = weights.copy()
    out = zeros_like(weights)
    work_arrays = list(work.arrays())
    out_arrays = list(out.arrays())
    for arr, dst in zip(work_arrays, out_arrays):
        flat = arr.reshape(-1)
        dflat = dst.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps_fd
            _, _, _, loss_plus = _forward_full(spec, work, batch)
            flat[i] = orig - eps_fd
            _, _, _, loss_minus = _forward_full(spec, work, batch)
            flat[i] = orig
            dflat[i] = (loss_plus - loss_minus) / (2.0 * eps_fd)
    return out


def evaluate(spec: NetworkSpec, weights: ModelWeights, dataset: "Dataset") -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a whole dataset.

    Predictions take the argmax of the class probabilities; ties resolve to
    the lowest class index. Raises if the result is non-finite (the weights
    have diverged) so broken runs fail loudly instead of logging garbage.
    """
    if dataset.features.shape[0] < 1:
        raise ContractError("cannot evaluate on an empty dataset")
    for arr in weights.arrays():
        if not np.isfinite(arr).all():
            raise ContractError("weights are non-finite; training diverged")
    batch = Batch(dataset.features, dataset.labels)
    probs, loss = forward(spec, weights, batch)
    if not math.isfinite(loss):
        raise ContractError("evaluation produced a non-finite loss; weights have diverged")
    predictions = np.argmax(probs, axis=1)
    accuracy = float(np.mean(predictions == batch.labels))
    return loss, accuracy
