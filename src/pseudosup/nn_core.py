"""Dense neural-network substrate: MLP forward/backward, softmax cross-entropy, AdamW.

Everything is float64 numpy. Models are plain parameter containers; gradients
are computed manually (no autograd) so they can be checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
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


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


@dataclass
class MlpModel:
    """Fully connected network: ReLU hidden layers, raw logits out."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


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
    return MlpModel(
        list(model.layer_dims),
        [w.copy() for w in model.weights],
        [b.copy() for b in model.biases],
    )


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
    _require_finite(a, "logits")
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
    over rows, or with `weights` the weighted sum sum_i w_i * CE_i."""
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
    logp = log_softmax(logits)
    picked = logp[np.arange(n), labels]
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    if weights is None:
        loss = -picked.mean()
        grad /= n
    else:
        loss = -np.dot(weights, picked)
        grad *= weights[:, None]
    _require_finite(grad, "cross-entropy gradient")
    return float(loss), grad


class AdamW:
    """Adam with decoupled weight decay, bias-corrected moments.

    Holds first/second moment accumulators matching the parameter shapes and
    updates parameters in place.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        for p, g in zip(self.params, grads):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay != 0.0:
                p -= self.lr * self.weight_decay * p


def save_model(model: MlpModel, path: str) -> None:
    """Text checkpoint: header then one value per line, 17 significant digits."""
    lines = ["mlp " + " ".join(str(d) for d in model.layer_dims)]
    for w, b in zip(model.weights, model.biases):
        lines.extend(f"{x:.17g}" for x in w.ravel())
        lines.extend(f"{x:.17g}" for x in b)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> MlpModel:
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "mlp":
            raise ValueError(f"{path}: not an mlp checkpoint")
        dims = [int(d) for d in header[1:]]
        values = [float(line) for line in fh if line.strip()]
    model = MlpModel(dims, [], [])
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        n = fan_in * fan_out
        model.weights.append(np.array(values[pos : pos + n]).reshape(fan_in, fan_out))
        pos += n
        model.biases.append(np.array(values[pos : pos + fan_out]))
        pos += fan_out
    if pos != len(values):
        raise ValueError(f"{path}: {len(values)} values, expected {pos}")
    return model
