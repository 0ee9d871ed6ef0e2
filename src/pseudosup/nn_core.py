"""Dense neural-network substrate: MLP forward/backward, softmax cross-entropy, AdamW.

Everything is float64 numpy. Gradients are computed manually (no autograd) so
they can be checked against finite differences.

Each model keeps all its parameters in one buffer, `MlpModel.flat`, laid out
in `parameters()` order: W0 (row-major), b0, W1, b1, ... `weights`, `biases`
and `parameters()` are views into it. `mlp_backward` returns the gradient as
one array in the same layout, and `AdamW` steps the buffer with it in one
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
    parameters() order: W0 (fan_in, fan_out), b0 (fan_out,), W1, b1, ...
    A network needs at least two layer dims, each at least 1."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError(f"invalid layer dims {layer_dims}")
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

    `MlpModel(layer_dims, flat)` is the one constructor: it copies `flat` into
    a new float64 buffer, laid out in parameters() order, and checks its size
    against `layer_dims`. `weights`, `biases` and `parameters()` are views
    into that buffer."""

    def __init__(self, layer_dims: list[int], flat: np.ndarray):
        self.layer_dims = list(layer_dims)
        self._layout = _layout(self.layer_dims)
        size = self._layout[-1][1]
        self.flat = np.array(flat, dtype=np.float64)
        if self.flat.ndim != 1:
            raise ValueError(f"parameter buffer of shape {self.flat.shape}, expected ({size},)")
        if self.flat.size != size:
            raise ValueError(f"{self.flat.size} parameter values, expected {size}")
        self._params = self.views(self.flat)
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]

    def views(self, buf: np.ndarray) -> list[np.ndarray]:
        """[W0, b0, W1, b1, ...] as views into `buf`, a buffer in `flat`'s layout."""
        return [buf[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def parameters(self) -> list[np.ndarray]:
        """Parameter list [W0, b0, W1, b1, ...]; arrays are live views of `flat`."""
        return list(self._params)


def init_mlp(layer_dims: list[int], rng: np.random.Generator) -> MlpModel:
    """Seeded init: W ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), b = 0."""
    model = MlpModel(layer_dims, np.zeros(_layout(layer_dims)[-1][1]))
    for w in model.weights:
        scale = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-scale, scale, size=w.shape)
    return model


def clone_model(model: MlpModel) -> MlpModel:
    return MlpModel(model.layer_dims, model.flat)


@dataclass
class ForwardCache:
    model: MlpModel
    activations: list[np.ndarray]  # input batch, hidden activations, logits


def mlp_forward(model: MlpModel, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; returns logits [B x C] and the cache needed for backward."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input dim {model.layer_dims[0]}"
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


def mlp_backward(cache: ForwardCache, grad_logits: np.ndarray) -> np.ndarray:
    """Exact gradient wrt the parameters, one array in `model.flat`'s layout."""
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != cache.activations[-1].shape:
        raise ValueError(
            f"grad_logits shape {grad_logits.shape} does not match cached "
            f"logits shape {cache.activations[-1].shape}"
        )
    model = cache.model
    out = np.empty_like(model.flat)
    grads = model.views(out)
    delta = grad_logits
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(cache.activations[layer].T, delta, out=grads[2 * layer])
        delta.sum(axis=0, out=grads[2 * layer + 1])
        if layer > 0:
            # ReLU subgradient: 0 at exactly 0
            delta = delta @ model.weights[layer].T
            delta *= cache.activations[layer] > 0
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction. The input is
    never written to."""
    logits = np.asarray(logits, dtype=np.float64)
    # On a copy of the transpose a row's sum is one vector add per class,
    # without numpy's per-row reduction loop; terms add in column order, as
    # numpy's own row sum adds them below 8 columns.
    shifted = logits.T.copy()
    shifted -= shifted.max(axis=0)
    out = np.empty(logits.shape)
    np.subtract(shifted, np.log(np.exp(shifted).sum(axis=0)), out=out.T)
    return out


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


# AdamW's moment decay rates and the epsilon of its update denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with decoupled weight decay, bias-corrected moments.

    It steps one float64 buffer, `flat`: a model's `MlpModel.flat`, whose
    layout `mlp_backward`'s gradients share. Each step is one elementwise pass
    over that buffer. The weight decay scales the pre-update parameters,
    p <- p - lr * weight_decay * p, and then the Adam update is applied
    (Algorithm 2 of arXiv 1711.05101, with the decay multiplied by lr as in
    common implementations). After each step the parameters are checked; a
    NaN or infinity raises NonFiniteError. A NaN, infinite or negative `lr`
    or `weight_decay` is rejected with a ValueError before any step.
    """

    def __init__(self, flat: np.ndarray, lr: float, weight_decay: float = 0.0):
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"AdamW {name} must be finite and >= 0, got {value!r}")
        self.flat = flat
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0

    def step(self, g: np.ndarray) -> None:
        """One update from `g`, a gradient shaped like `flat`."""
        if np.shape(g) != self.flat.shape:
            raise ValueError(f"gradient shape {np.shape(g)} != parameter buffer "
                             f"shape {self.flat.shape}")
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
    values = tuple(model.flat.tolist())
    with open(path, "w") as fh:
        fh.write(f"mlp {' '.join(str(d) for d in model.layer_dims)}\n")
        fh.write(("%.17g\n" * len(values)) % values)


def load_model(path: str) -> MlpModel:
    """Read a `save_model` checkpoint; a malformed one raises a ValueError
    naming the path (and, for a bad layer dim, a blank line or a bad value,
    the line). A layer dim is an integer as `str` writes it: `+2`, `02` and
    `2_0` are bad. A value is an ASCII decimal number: `+2`, `.5`, `-0` and
    `1e5` load, while `1_0`, non-ASCII digits and bytes that are not UTF-8
    are non-numeric."""
    values = []
    # a byte that is not UTF-8 is kept as a lone surrogate, which no rule accepts
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().split()
        if not header or header[0] != "mlp":
            raise ValueError(f"{path}: not an mlp checkpoint")
        for tok in header[1:]:
            try:
                if str(int(tok)) == tok:
                    continue
            except ValueError:
                pass
            raise ValueError(f"{path}: line 1: bad layer dim {tok!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                raise ValueError(f"{path}: line {lineno}: blank line")
            try:
                # float() alone also reads `1_0` and non-ASCII digits
                if not line.isascii() or "_" in line:
                    raise ValueError
                value = float(line)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value "
                                 f"{line.strip()!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: non-finite value {value}")
            values.append(value)
    try:
        return MlpModel([int(d) for d in header[1:]], np.array(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
