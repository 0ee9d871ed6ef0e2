"""Dense neural-network substrate: MLP forward/backward, softmax cross-entropy, AdamW.

Everything is float64 numpy. Gradients are computed manually (no autograd) so
they can be checked against finite differences.

Each model keeps all its parameters in one buffer, `MlpModel.flat`, laid out
in `parameters()` order: W0 (row-major), b0, W1, b1, ... `weights`, `biases`
and `parameters()` are views into it. `AdamW` concatenates the per-parameter
gradients of `mlp_backward` into the same layout and updates a model in one
elementwise pass; cloning or checkpointing a model is one copy, write or read
of the buffer.

Divergence is caught at two points, both raising `NonFiniteError`: the scalar
loss of `softmax_cross_entropy`, and the parameter buffer after each
`AdamW.step`. Forward outputs and gradients are not scanned per step; the
training loops in `engine` reject non-finite features up front and check the
logits of their once-per-epoch whole-split passes.

`AdamW` applies the decoupled weight decay to the pre-update parameters, as
Algorithm 2 of Loshchilov & Hutter (arXiv 1711.05101) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteError",
    "MlpModel",
    "ForwardCache",
    "AdamW",
    "init_mlp",
    "clone_model",
    "mlp_forward",
    "mlp_backward",
    "softmax_cross_entropy",
    "log_softmax",
    "save_model",
    "load_model",
]


class NonFiniteError(ValueError):
    """A loss or a parameter became NaN or infinite: training diverged."""


def _layout(layer_dims: list[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, stop, shape) of each parameter in the flat buffer, in
    parameters() order: W0 (fan_in, fan_out), b0 (fan_out,), W1, b1, ..."""
    layout = []
    pos = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            n = math.prod(shape)
            layout.append((pos, pos + n, shape))
            pos += n
    return layout


class MlpModel:
    """Fully connected network: ReLU hidden layers, raw logits out.

    The parameters live in one float64 buffer `flat`; `weights`, `biases` and
    `parameters()` are views into it. The constructor copies the given arrays
    into a new buffer."""

    def __init__(self, layer_dims: list[int], weights: list[np.ndarray],
                 biases: list[np.ndarray]):
        arrays = [a for pair in zip(weights, biases) for a in pair]
        shapes = [shape for _, _, shape in _layout(list(layer_dims))]
        if len(weights) != len(biases) or [np.shape(a) for a in arrays] != shapes:
            raise ValueError(f"parameter shapes do not match layer dims {list(layer_dims)}")
        flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        self._bind(layer_dims, flat)

    @classmethod
    def from_flat(cls, layer_dims: list[int], flat: np.ndarray) -> MlpModel:
        """A model over a copy of `flat`, laid out in parameters() order."""
        model = cls.__new__(cls)
        model._bind(layer_dims, np.array(flat, dtype=np.float64))
        return model

    def _bind(self, layer_dims: list[int], flat: np.ndarray) -> None:
        self.layer_dims = list(layer_dims)
        self._layout = _layout(self.layer_dims)
        size = self._layout[-1][1] if self._layout else 0
        if flat.shape != (size,):
            raise ValueError(f"{flat.size} parameter values, expected {size}")
        self.flat = flat
        self._params = [flat[start:stop].reshape(shape)
                        for start, stop, shape in self._layout]
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def parameters(self) -> list[np.ndarray]:
        """Parameter list [W0, b0, W1, b1, ...]; arrays are live views of `flat`."""
        return list(self._params)


def init_mlp(layer_dims: list[int], rng: np.random.Generator) -> MlpModel:
    """Seeded init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError(f"invalid layer dims {layer_dims}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(list(layer_dims), weights, biases)


def clone_model(model: MlpModel) -> MlpModel:
    return MlpModel.from_flat(model.layer_dims, model.flat)


@dataclass
class ForwardCache:
    model: MlpModel
    activations: list[np.ndarray]  # input batch, hidden activations, logits


def mlp_forward(model: MlpModel, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; returns logits [B x C] and the cache needed for backward."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input dim {model.input_dim}"
        )
    acts = [batch]
    a = batch
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w
        a += b  # in place: no temporaries the size of the batch
        if i != last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return a, ForwardCache(model, acts)


def mlp_backward(cache: ForwardCache, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Exact gradients wrt parameters, in model.parameters() order."""
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != cache.activations[-1].shape:
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} does not match cached "
            f"logits shape {cache.activations[-1].shape}"
        )
    model = cache.model
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(model.weights))
    delta = grad_logits
    for layer in range(len(model.weights) - 1, -1, -1):
        a_in = cache.activations[layer]
        grads[2 * layer] = a_in.T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            # ReLU subgradient: 0 at exactly 0
            delta = delta @ model.weights[layer].T
            delta *= cache.activations[layer] > 0
    return grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Cross-entropy over the batch and its gradient wrt the logits: the mean
    over rows, or with `weights` the weighted sum sum_i w_i * CE_i. A
    non-finite loss raises NonFiniteError."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be [B x C] with one label per row")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must be in [0, {c})")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must hold one value per row")
    rows = np.arange(n)
    logp = log_softmax(logits)
    picked = logp[rows, labels]
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    if weights is None:
        loss = float(-picked.sum() / n)  # the bits of -picked.mean()
        grad /= n
    else:
        loss = float(-np.dot(weights, picked))
        grad *= weights[:, None]
    if not math.isfinite(loss):
        raise NonFiniteError(f"cross-entropy loss is {loss}")
    return loss, grad


def _tiled_buffer(arrays: list[np.ndarray]) -> np.ndarray:
    """The float64 buffer that `arrays` tile front to back, in order."""
    error = ValueError("AdamW parameters must tile one contiguous float64 buffer")
    if not arrays:
        raise error
    owner = arrays[0] if arrays[0].base is None else arrays[0].base
    if not isinstance(owner, np.ndarray) or not owner.flags.c_contiguous:
        raise error
    start = pos = owner.__array_interface__["data"][0]
    for a in arrays:
        if ((a is not owner and a.base is not owner) or a.dtype != np.float64
                or not a.flags.c_contiguous or a.__array_interface__["data"][0] != pos):
            raise error
        pos += a.nbytes
    if pos != start + owner.nbytes:
        raise error
    return owner.reshape(-1)


# AdamW's moment decay rates and the epsilon of its update denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with decoupled weight decay, bias-corrected moments.

    `params` must tile one float64 buffer front to back, in order: the list
    from `MlpModel.parameters()`, or a single contiguous array. Each step is
    one elementwise pass over that buffer. The weight decay scales the
    pre-update parameters, p <- p - lr * weight_decay * p, and then the Adam
    update is applied (Algorithm 2 of arXiv 1711.05101, with the decay
    multiplied by lr as in common implementations). After each step the
    parameters are checked; a NaN or infinity raises NonFiniteError.
    """

    def __init__(self, params: list[np.ndarray], lr: float, weight_decay: float = 0.0):
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.params = params
        self.flat = _tiled_buffer(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """One update; `grads` pairs one array with each parameter, in order."""
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        for p, g in zip(self.params, grads):
            if p.shape != np.shape(g):
                raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
        g = np.concatenate([np.ravel(g) for g in grads])
        p, m, v = self.flat, self.m, self.v
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        if self.weight_decay != 0.0:
            p -= self.lr * self.weight_decay * p  # decays the pre-update parameters
        p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        if not np.isfinite(p).all():
            raise NonFiniteError(f"parameters are non-finite after AdamW step {self.t}")


def save_model(model: MlpModel, path: str) -> None:
    """Text checkpoint: header then one value per line, 17 significant digits."""
    values = "\n".join(f"{x:.17g}" for x in model.flat.tolist())
    with open(path, "w") as fh:
        fh.write(f"mlp {' '.join(str(d) for d in model.layer_dims)}\n{values}\n")


def load_model(path: str) -> MlpModel:
    """Read a `save_model` checkpoint; a malformed one raises a ValueError
    naming the path (and, for a bad value, the line)."""
    values = []
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "mlp":
            raise ValueError(f"{path}: not an mlp checkpoint")
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    values.append(float(line))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric value "
                                     f"{line.strip()!r}") from None
    try:
        return MlpModel.from_flat([int(d) for d in header[1:]], np.array(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
