"""Generalization-reinforced pseudo supervisor.

A policy network assigns pseudo labels to unlabeled mini-batches; the
classifier trains on labeled + pseudo-labeled batches; the change in
validation loss across each classifier update becomes a clamped reward
r = max(exp(loss_before - loss_after) - 1, 0); every `beta` steps the policy
ascends the discounted-return-weighted log-probability surrogate.

Supervised-only and confidence-threshold self-training baselines share the
same loop machinery so their degeneracy equivalences exercise real code paths.

The loops draw batches as index arrays into each split's arrays; only weak
augmentation runs row by row. Both updates run one forward/backward pass: the
classifier step over the stacked [labeled; pseudo] rows with cross-entropy row
weights 1/n_l and pseudo_loss_weight/n_u, and the policy update over the whole
beta-step window with row weights G_t/B_t, the returns coming from one reverse
accumulation. Every classifier update, the supervised warmup's included, goes
through `classifier_step`.

The training loops reject non-finite features in any split before they start.
A loss, a sampled log-probability, the logits of a whole-split pass
(`evaluate`, self-training's selection) or a parameter that goes non-finite
raises NonFiniteError; the training loops turn it into a ValueError that names
the seed and the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DatasetSplits, Split, augment_weak
from .metrics import MetricsReport, accuracy, auc_roc, f1_binary
from .nn_core import (
    AdamW,
    MlpModel,
    NonFiniteError,
    clone_model,
    init_mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    softmax_cross_entropy,
)

__all__ = [
    "ConfigError",
    "EngineConfig",
    "TrajectoryStep",
    "Trajectory",
    "StepRecord",
    "EpochRecord",
    "History",
    "TrainResult",
    "warmup_supervised",
    "sample_pseudo_labels",
    "eval_val_loss",
    "compute_reward",
    "classifier_step",
    "discounted_return",
    "policy_update",
    "train",
    "train_supervised_only",
    "train_self_training",
    "evaluate",
    "check_splits",
]


class ConfigError(ValueError):
    """A config value that breaks a rule of the class holding it."""


@dataclass(frozen=True)
class EngineConfig:
    hidden_dims: tuple[int, ...] = (64, 32)
    n_classes: int = 2
    beta: int = 50  # trajectory time window
    gamma: float = 0.9  # discount rate
    policy_lr: float = 4e-5
    classifier_lr: float = 4e-5
    weight_decay: float = 0.0
    epochs: int = 10
    batch_labeled: int = 32
    batch_unlabeled: int = 32
    batch_val: int = 64
    warmup_steps: int = 100
    seed: int = 1
    pseudo_loss_weight: float = 1.0
    augment: bool = False
    crop_scale_min: float = 0.8
    policy_warm_start: bool = True

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if self.beta < 1:
            raise ConfigError("beta must be >= 1")
        if not (0 < self.policy_lr < math.inf and 0 < self.classifier_lr < math.inf):
            raise ConfigError("learning rates must be positive and finite")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be non-negative")
        if min(self.batch_labeled, self.batch_unlabeled, self.batch_val) < 1:
            raise ConfigError("batch sizes must be >= 1")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError("hidden dims must be >= 1")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if not (0 <= self.weight_decay < math.inf and 0 <= self.pseudo_loss_weight < math.inf):
            raise ConfigError("weight_decay and pseudo_loss_weight must be finite and >= 0")
        if not 0.0 < self.crop_scale_min <= 1.0:
            raise ConfigError("crop_scale_min must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrajectoryStep:
    states: np.ndarray  # unlabeled mini-batch features [B x n]
    actions: np.ndarray  # sampled class indices [B]
    log_probs: np.ndarray  # log pi(a|s) per sample [B]
    reward: float  # shared by all samples of the step, >= 0


@dataclass
class Trajectory:
    max_len: int
    steps: list[TrajectoryStep] = field(default_factory=list)

    def append(self, step: TrajectoryStep) -> None:
        if len(self.steps) >= self.max_len:
            raise ValueError(f"trajectory already holds {self.max_len} steps")
        self.steps.append(step)

    def full(self) -> bool:
        return len(self.steps) == self.max_len

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class StepRecord:
    step: int
    epoch: int
    loss_val_before: float | None
    loss_val_after: float | None
    reward: float | None
    policy_update: bool


@dataclass
class EpochRecord:
    epoch: int
    metrics: MetricsReport


@dataclass
class History:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)

    CSV_HEADER = (
        "record,step,epoch,loss_val_before,loss_val_after,reward,"
        "policy_update_flag,accuracy,f1,auc"
    )

    def to_csv(self) -> str:
        def fmt(x):
            return "" if x is None else f"{x:.17g}"

        lines = [self.CSV_HEADER]
        for r in self.steps:
            lines.append(
                f"step,{r.step},{r.epoch},{fmt(r.loss_val_before)},"
                f"{fmt(r.loss_val_after)},{fmt(r.reward)},"
                f"{int(r.policy_update)},,,"
            )
        for e in self.epochs:
            m = e.metrics
            lines.append(
                f"epoch,,{e.epoch},,,,,"
                f"{m.accuracy:.17g},{m.f1:.17g},{m.auc:.17g}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


@dataclass
class TrainResult:
    classifier: MlpModel
    policy: MlpModel | None
    history: History

    @property
    def final_metrics(self) -> MetricsReport:
        """The test metrics after the last epoch."""
        return self.history.epochs[-1].metrics


# ---------------------------------------------------------------------------
# batch helpers: batches are index arrays into a split's arrays

def check_splits(splits: DatasetSplits, cfg: EngineConfig) -> None:
    """Labeled splits non-empty with labels in [0, n_classes), class 1 and another
    in test (for its AUC), all features finite, and grid dims if cfg.augment."""
    if cfg.augment and splits.grid is None:
        raise ValueError("augment requires splits with grid dims")
    for name in ("labeled_train", "validation", "test"):
        part = getattr(splits, name)
        if len(part) == 0:
            raise ValueError(f"{name} must be non-empty")
        if ((part.y < 0) | (part.y >= cfg.n_classes)).any():
            raise ValueError(f"{name} has a label outside [0, {cfg.n_classes})")
    if np.unique(splits.test.y == 1).size < 2:
        raise ValueError("test must hold class 1 and another class for the AUC")
    for name in ("labeled_train", "unlabeled_train", "validation", "test"):
        part = getattr(splits, name)
        if len(part) and not np.isfinite(part.X).all():
            raise ValueError(f"{name} has non-finite features")


def _rows(x: np.ndarray, idx: np.ndarray, cfg: EngineConfig,
          grid: tuple[int, int] | None, rng_aug: np.random.Generator) -> np.ndarray:
    """Rows `idx` of `x`, weakly augmented row by row (in batch order, from
    `rng_aug`) when cfg.augment is set."""
    if cfg.augment:
        return np.stack([augment_weak(x[i], grid, rng_aug, cfg.crop_scale_min)
                         for i in idx])
    return x[idx]


def _draw(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(n, size=min(size, n), replace=False)


def _labeled_batches(n: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch):
        yield order[start : start + batch]


def _diverged(cfg: EngineConfig, where: str, exc: NonFiniteError) -> ValueError:
    """The error a training loop raises when a NonFiniteError stops it,
    naming the seed and the step."""
    return ValueError(f"training diverged at seed {cfg.seed}, {where}: {exc}")


def _rngs(seed: int) -> dict[str, np.random.Generator]:
    return {
        name: np.random.default_rng([seed, salt])
        for salt, name in enumerate(["init", "warmup", "data", "policy", "val", "aug"])
    }


# ---------------------------------------------------------------------------
# core operations

def warmup_supervised(
    classifier: MlpModel,
    labeled: Split,
    cfg: EngineConfig,
    rng: np.random.Generator | None = None,
    optimizer: AdamW | None = None,
) -> MlpModel:
    """Initial supervised-only phase: cfg.warmup_steps cross-entropy
    mini-batch steps on labeled data."""
    if len(labeled) == 0:
        raise ValueError("warmup requires a non-empty labeled set")
    if rng is None:
        rng = _rngs(cfg.seed)["warmup"]
    if optimizer is None:
        optimizer = AdamW(classifier.parameters(), cfg.classifier_lr,
                          weight_decay=cfg.weight_decay)
    x, y = labeled.X, labeled.y
    steps_done = 0
    try:
        while steps_done < cfg.warmup_steps:
            for idx in _labeled_batches(len(labeled), cfg.batch_labeled, rng):
                if steps_done >= cfg.warmup_steps:
                    break
                classifier_step(classifier, x[idx], y[idx], None, None, optimizer, cfg)
                steps_done += 1
    except NonFiniteError as exc:
        raise _diverged(cfg, f"warmup step {steps_done + 1}", exc) from exc
    return classifier


def sample_pseudo_labels(
    policy: MlpModel, batch: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one pseudo label per sample from the policy's categorical output;
    returns the sampled class indices and their log-probabilities. A policy
    whose logits overflow raises NonFiniteError."""
    if len(batch) == 0:
        raise ValueError("cannot sample pseudo labels for an empty batch")
    logits, _ = mlp_forward(policy, batch)
    logp = log_softmax(logits)
    cum = np.cumsum(np.exp(logp), axis=1)
    u = rng.random(len(batch))
    actions = (u[:, None] > cum).sum(axis=1)
    actions = np.minimum(actions, logits.shape[1] - 1)
    log_probs = logp[np.arange(len(batch)), actions]
    # a non-finite logit makes its whole log-softmax row NaN or infinite
    if not math.isfinite(log_probs.sum()):
        raise NonFiniteError("policy log-probabilities are non-finite")
    return actions, log_probs


def eval_val_loss(classifier: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy on a labeled validation batch; no parameter mutation."""
    if len(x) == 0:
        raise ValueError("validation batch must be non-empty")
    logits, _ = mlp_forward(classifier, x)
    return float(-log_softmax(logits)[np.arange(len(y)), y].sum() / len(y))


def compute_reward(loss_before: float, loss_after: float) -> float:
    """r = max(exp(loss_before - loss_after) - 1, 0)."""
    if not (math.isfinite(loss_before) and math.isfinite(loss_after)):
        raise NonFiniteError("losses must be finite")
    return max(math.exp(loss_before - loss_after) - 1.0, 0.0)


def classifier_step(
    classifier: MlpModel,
    labeled_x: np.ndarray,
    labeled_y: np.ndarray,
    pseudo_x: np.ndarray | None,
    pseudo_y: np.ndarray | None,
    optimizer: AdamW,
    cfg: EngineConfig,
) -> None:
    """One optimizer step on CE(labeled) + pseudo_loss_weight * CE(pseudo).

    Both means come from one forward/backward pass over the stacked
    [labeled; pseudo] rows, weighted 1/n_l and pseudo_loss_weight/n_u. Without
    a pseudo batch, or at weight 0, the step is the plain labeled-only one."""
    if len(labeled_x) == 0:
        raise ValueError("classifier step needs a non-empty labeled batch")
    w = cfg.pseudo_loss_weight
    if pseudo_x is None or len(pseudo_x) == 0 or w == 0.0:
        logits, cache = mlp_forward(classifier, labeled_x)
        _, grad = softmax_cross_entropy(logits, labeled_y)
    else:
        n_l, n_u = len(labeled_x), len(pseudo_x)
        weights = np.repeat([1.0 / n_l, w / n_u], [n_l, n_u])
        logits, cache = mlp_forward(classifier, np.concatenate([labeled_x, pseudo_x]))
        _, grad = softmax_cross_entropy(
            logits, np.concatenate([labeled_y, pseudo_y]), weights)
    optimizer.step(mlp_backward(cache, grad))


def discounted_return(rewards, gamma: float, t: int) -> float:
    """Return-to-go G_t = sum_k gamma^k * rewards[t+k] over the buffered window."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if not 0 <= t < len(rewards):
        raise ValueError(f"index {t} out of range for {len(rewards)} rewards")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    tail = rewards[t:]
    return float(np.sum(tail * gamma ** np.arange(len(tail))))


def _returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Every return-to-go G_t of the window by one reverse accumulation,
    G_t = r_t + gamma * G_{t+1}; `discounted_return` is its per-t oracle."""
    out = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def _policy_loss_grads(
    policy: MlpModel, trajectory: Trajectory, gamma: float
) -> tuple[float, list[np.ndarray]]:
    """-J, the cross-entropy of the taken actions with row weights G_t / B_t,
    and its gradients, from one forward/backward pass over the whole window."""
    steps = trajectory.steps
    sizes = [len(s.actions) for s in steps]
    returns = _returns(np.array([s.reward for s in steps]), gamma)
    weights = np.repeat(returns / sizes, sizes)
    logits, cache = mlp_forward(policy, np.concatenate([s.states for s in steps]))
    loss, grad = softmax_cross_entropy(
        logits, np.concatenate([s.actions for s in steps]), weights)
    return loss, mlp_backward(cache, grad)


def _policy_surrogate_grads(
    policy: MlpModel, trajectory: Trajectory, gamma: float
) -> tuple[float, list[np.ndarray]]:
    """Surrogate J = sum_t G_t * mean_batch log pi(a_t|s_t) and dJ/dparams."""
    loss, grads = _policy_loss_grads(policy, trajectory, gamma)
    return -loss, [-g for g in grads]


def policy_update(
    policy: MlpModel,
    trajectory: Trajectory,
    cfg: EngineConfig,
    optimizer: AdamW | None = None,
) -> float:
    """Ascend the return-weighted log-probability surrogate by one optimizer
    step; returns the surrogate value before the update."""
    if len(trajectory) == 0:
        raise ValueError("policy update requires a non-empty trajectory")
    if optimizer is None:
        optimizer = AdamW(policy.parameters(), cfg.policy_lr,
                          weight_decay=cfg.weight_decay)
    loss, grads = _policy_loss_grads(policy, trajectory, cfg.gamma)
    optimizer.step(grads)  # descending -J ascends J
    trajectory.steps.clear()
    return -loss


# ---------------------------------------------------------------------------
# evaluation

def _finite_logits(model: MlpModel, x: np.ndarray, what: str) -> np.ndarray:
    """Logits of a whole-split pass, once per epoch; an overflow raises
    NonFiniteError instead of turning into NaN scores."""
    logits, _ = mlp_forward(model, x)
    if not np.isfinite(logits).all():
        raise NonFiniteError(f"{what} logits are non-finite")
    return logits


def evaluate(classifier: MlpModel, split: Split) -> MetricsReport:
    """Metrics on a fully labeled split, with class 1 as the positive class."""
    x, y = split.X, split.y
    if (y < 0).any():
        raise ValueError("evaluate requires a fully labeled split")
    logits = _finite_logits(classifier, x, "evaluated split")
    preds = logits.argmax(axis=1)
    scores = np.exp(log_softmax(logits))[:, 1]
    return MetricsReport(
        accuracy=accuracy(preds, y),
        f1=f1_binary(preds, y, 1),
        auc=auc_roc(scores, (y == 1).astype(int)),
        n_samples=len(y),
        positive_class=1,
    )


# ---------------------------------------------------------------------------
# training loops

def _warm_classifier(splits: DatasetSplits,
                     cfg: EngineConfig) -> tuple[dict, MlpModel, AdamW]:
    """Check `splits`; build the seed's RNGs, classifier and AdamW; run the warmup."""
    check_splits(splits, cfg)
    rngs = _rngs(cfg.seed)
    labeled = splits.labeled_train
    classifier = init_mlp([labeled.X.shape[1], *cfg.hidden_dims, cfg.n_classes], rngs["init"])
    opt_c = AdamW(classifier.parameters(), cfg.classifier_lr, weight_decay=cfg.weight_decay)
    warmup_supervised(classifier, labeled, cfg, rngs["warmup"], opt_c)
    return rngs, classifier, opt_c


def train(splits: DatasetSplits, cfg: EngineConfig) -> TrainResult:
    """Full pseudo-supervisor loop.

    Each step: evaluate validation loss, sample pseudo labels for an unlabeled
    mini-batch, update the classifier on labeled + pseudo batches, re-evaluate
    the same validation mini-batch, log the clamped reward, and every
    cfg.beta steps apply one policy-gradient update.

    With an empty unlabeled split the same loop degenerates to supervised
    training (the pseudo branch is simply never entered).
    """
    rngs, classifier, opt_c = _warm_classifier(splits, cfg)
    labeled, unlabeled, val = splits.labeled_train, splits.unlabeled_train, splits.validation
    if cfg.policy_warm_start:
        policy = clone_model(classifier)
    else:
        policy = init_mlp(classifier.layer_dims, rngs["init"])
    opt_p = AdamW(policy.parameters(), cfg.policy_lr, weight_decay=cfg.weight_decay)

    history = History()
    trajectory = Trajectory(cfg.beta)
    step = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            for idx in _labeled_batches(len(labeled), cfg.batch_labeled, rngs["data"]):
                step += 1
                xl = _rows(labeled.X, idx, cfg, splits.grid, rngs["aug"])
                yl = labeled.y[idx]
                if len(unlabeled):
                    v = _draw(len(val), cfg.batch_val, rngs["val"])
                    xv, yv = val.X[v], val.y[v]
                    loss_before = eval_val_loss(classifier, xv, yv)
                    u = _draw(len(unlabeled), cfg.batch_unlabeled, rngs["policy"])
                    xu = _rows(unlabeled.X, u, cfg, splits.grid, rngs["aug"])
                    actions, log_probs = sample_pseudo_labels(policy, xu, rngs["policy"])
                    classifier_step(classifier, xl, yl, xu, actions, opt_c, cfg)
                    loss_after = eval_val_loss(classifier, xv, yv)
                    reward = compute_reward(loss_before, loss_after)
                    trajectory.append(TrajectoryStep(xu, actions, log_probs, reward))
                    updated = False
                    if trajectory.full():
                        policy_update(policy, trajectory, cfg, opt_p)
                        updated = True
                    history.steps.append(
                        StepRecord(step, epoch, loss_before, loss_after, reward, updated)
                    )
                else:
                    classifier_step(classifier, xl, yl, None, None, opt_c, cfg)
                    history.steps.append(StepRecord(step, epoch, None, None, None, False))
            history.epochs.append(EpochRecord(epoch, evaluate(classifier, splits.test)))
    except NonFiniteError as exc:
        raise _diverged(cfg, f"step {step}", exc) from exc
    return TrainResult(classifier, policy, history)


def train_supervised_only(splits: DatasetSplits, cfg: EngineConfig) -> TrainResult:
    """Supervised baseline: the same loop with the unlabeled split stripped."""
    result = train(replace(splits, unlabeled_train=splits.unlabeled_train.take([])), cfg)
    return replace(result, policy=None)


@dataclass
class SelfTrainingResult(TrainResult):
    pseudo_label_accuracy: list[float] = field(default_factory=list)
    n_selected: list[int] = field(default_factory=list)


def train_self_training(
    splits: DatasetSplits, cfg: EngineConfig, confidence_threshold: float
) -> SelfTrainingResult:
    """Naive self-training baseline: each epoch, unlabeled samples whose max
    softmax probability reaches the threshold join training with their argmax
    as pseudo label."""
    if not 0.5 < confidence_threshold <= 1.0:
        raise ValueError("confidence_threshold must be in (0.5, 1]")
    rngs, classifier, opt_c = _warm_classifier(splits, cfg)
    labeled, unlabeled = splits.labeled_train, splits.unlabeled_train
    history = History()
    pseudo_acc: list[float] = []
    n_selected: list[int] = []
    step = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            selected = np.empty(0, dtype=np.intp)
            acc = float("nan")
            if len(unlabeled):
                logits = _finite_logits(classifier, unlabeled.X, "unlabeled_train")
                probs = np.exp(log_softmax(logits))
                preds = probs.argmax(axis=1)
                selected = np.flatnonzero(probs.max(axis=1) >= confidence_threshold)
                # diagnostics only: hidden is -1 where the ground truth is unknown
                known = selected[unlabeled.hidden[selected] >= 0]
                if len(known):
                    acc = float(np.mean(preds[known] == unlabeled.hidden[known]))
            n_selected.append(len(selected))
            pseudo_acc.append(acc)
            for idx in _labeled_batches(len(labeled), cfg.batch_labeled, rngs["data"]):
                step += 1
                xl = _rows(labeled.X, idx, cfg, splits.grid, rngs["aug"])
                yl = labeled.y[idx]
                if len(selected):
                    pick = selected[_draw(len(selected), cfg.batch_unlabeled, rngs["policy"])]
                    classifier_step(classifier, xl, yl, unlabeled.X[pick], preds[pick],
                                    opt_c, cfg)
                else:
                    classifier_step(classifier, xl, yl, None, None, opt_c, cfg)
                history.steps.append(StepRecord(step, epoch, None, None, None, False))
            history.epochs.append(EpochRecord(epoch, evaluate(classifier, splits.test)))
    except NonFiniteError as exc:
        raise _diverged(cfg, f"step {step}", exc) from exc
    return SelfTrainingResult(classifier, None, history, pseudo_acc, n_selected)
