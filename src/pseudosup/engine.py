"""Generalization-reinforced pseudo supervisor.

A policy network assigns pseudo labels to unlabeled mini-batches; the
classifier trains on labeled + pseudo-labeled batches; the change in
validation loss across each classifier update becomes a clamped reward
r = max(exp(loss_before - loss_after) - 1, 0); every `beta` steps the policy
ascends the discounted-return-weighted log-probability surrogate.

The confidence-threshold self-training loop is also the supervised baseline:
on splits with no unlabeled rows it has nothing to label, and `train` hands
such splits to it.

The loops draw batches as index arrays into each split's arrays. Both updates
run one forward/backward pass: the classifier step over a step's stacked
[labeled; pseudo] rows with cross-entropy row weights 1/n_l and
pseudo_loss_weight/n_u, laid out by `_step_blocks` (at weight 0 the labeled
rows alone), and the policy update over the whole beta-step window with row
weights G_t/B_t, the returns coming from one reverse accumulation. Every
classifier update, the supervised warmup's included, goes through
`_classifier_update`, which `classifier_step` calls after its forward.

`train` runs one classifier forward per step and one policy forward per
window, where a literal reading of the method runs three classifier forwards
and one policy forward per step. The policy changes only at the end of a
window, so one policy forward per window samples every step's pseudo labels,
and the window's update differentiates that same forward; a policy whose
log-probabilities go non-finite is reported at the first step of its window.
Step t's update runs with the parameters that give step t-1's after-loss, so
step t runs one forward over [x_t; v_{t-1}; v_t]: the update takes its
leading rows x_t ([xl_t; xu_t], a contiguous block of the window's stack,
which `_sample_window` fills with one gather per split), and the validation
rows give step t-1's after-loss and step t's before-loss. Step 1's forward
holds [x_1; v_1], and one forward over v_T follows the last step T. The
validation logits of a window are kept until its last after-loss is known;
then one log_softmax scores them all, `compute_reward` runs for each step in
order, and the window's policy update follows, all before the next window's
policy forward labels its rows. A NonFiniteError first scores the pending
logits and rewards, so each failure is named at its own step. Every RNG
stream is read in the order of the step-by-step loop. On OpenBLAS a stacked
forward equals separate forwards bit for bit when each block (a step's
update rows and each validation batch) has a multiple of 4 rows; otherwise
losses and rewards may differ from that loop in the last bits.
`sample_pseudo_labels`, `eval_val_loss` and `policy_update` keep the
step-by-step operations and share the loop's rules.

The training loops reject splits they cannot use before they start.
A loss, a reward, a sampled log-probability, the logits of a whole-split pass
(`evaluate`, self-training's selection) or a parameter that goes non-finite
raises NonFiniteError; the training loops turn it into a ValueError that names
the seed and the step.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain, count, islice

import numpy as np

from . import _public_names
from .data import DatasetSplits, Split, augment_weak
from .metrics import MetricsReport, accuracy, auc_roc, f1_binary
from .nn_core import (
    AdamW,
    ForwardCache,
    MlpModel,
    NonFiniteError,
    clone_model,
    init_mlp,
    log_softmax,
    mlp_backward,
    mlp_forward,
    softmax_cross_entropy,
)


class ConfigError(ValueError):
    """A config value that breaks a rule of the class holding it."""


class RowError(ValueError):
    """A `check_splits` rule that one row breaks; `row_id` is the row's id."""

    def __init__(self, message: str, row_id: str):
        super().__init__(message)
        self.row_id = row_id


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
        if not self.hidden_dims:
            raise ConfigError("hidden_dims must not be empty")
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


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """`header` and then each of `rows` as one comma-separated line, each line
    ending in a newline. This is the one cell rule of every CSV table the
    package writes: None is an empty cell; a float, np.float64 included, is
    written with 17 significant digits, which `float()` reads back as the
    same double; any other value is written as `str(v)`, so pass a bool as
    int."""
    def cell(v) -> str:
        return "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in chain([header], rows))


@dataclass
class History:
    """Per-step columns, one value per classifier step in run order, and
    `epochs`, the test metrics after each epoch. The loss and reward columns
    are None for a loop without a policy."""
    epoch: Sequence[int]
    policy_update: Sequence[bool]
    loss_val_before: Sequence[float] | None = None
    loss_val_after: Sequence[float] | None = None
    reward: Sequence[float] | None = None
    epochs: list[MetricsReport] = field(default_factory=list)

    CSV_HEADER = ["record", "step", "epoch", "loss_val_before", "loss_val_after", "reward",
                  "policy_update_flag", "accuracy", "f1", "auc"]

    def to_csv(self) -> str:
        """The table through `csv_text`: a `step` row per step, then an `epoch`
        row per epoch, each numbered from 1 by its position; a cell a row has
        no value for, such as a loss of a loop without a policy, is empty.
        Columns of unequal length raise ValueError."""
        def cells(column):
            return [None] * len(self.epoch) if column is None else column

        steps = zip(self.epoch, cells(self.loss_val_before), cells(self.loss_val_after),
                    cells(self.reward), self.policy_update, strict=True)
        rows = [["step", i, epoch, before, after, reward, int(updated), None, None, None]
                for i, (epoch, before, after, reward, updated) in enumerate(steps, start=1)]
        rows += [["epoch", None, i, None, None, None, None, m.accuracy, m.f1, m.auc]
                 for i, m in enumerate(self.epochs, start=1)]
        return csv_text(self.CSV_HEADER, rows)


@dataclass
class TrainResult:
    """A training loop's models and history; `diagnostics` holds named
    per-epoch columns that the loop computes beside training (self-training's
    `pseudo_label_accuracy` and `n_selected`)."""
    classifier: MlpModel
    policy: MlpModel | None
    history: History
    diagnostics: dict[str, list] = field(default_factory=dict)

    @property
    def final_metrics(self) -> MetricsReport:
        """The test metrics after the last epoch."""
        return self.history.epochs[-1]


# ---------------------------------------------------------------------------
# batch helpers: batches are index arrays into a split's arrays

def check_splits(splits: DatasetSplits, cfg: EngineConfig) -> None:
    """Labeled splits non-empty with labels in [0, n_classes), class 1 and another
    in test (for its AUC); every non-empty split with labeled_train's feature
    count, all finite; grid dims if cfg.augment, and any grid with sides >= 1
    and at most that many cells, as `load_dataset` requires. A label outside
    the range raises RowError naming the split and the first such row's id."""
    if cfg.augment and splits.grid is None:
        raise ValueError("augment requires splits with grid dims")
    for name in ("labeled_train", "validation", "test"):
        part = getattr(splits, name)
        if len(part) == 0:
            raise ValueError(f"{name} must be non-empty")
        bad = np.flatnonzero((part.y < 0) | (part.y >= cfg.n_classes))
        if len(bad):
            sid = str(part.ids[bad[0]])
            raise RowError(f"{name} has a label outside [0, {cfg.n_classes}): "
                           f"{part.y[bad[0]]} at id {sid!r}", sid)
    if np.unique(splits.test.y == 1).size < 2:
        raise ValueError("test must hold class 1 and another class for the AUC")
    n_features = splits.labeled_train.X.shape[1]
    for name in ("labeled_train", "unlabeled_train", "validation", "test"):
        part = getattr(splits, name)
        if len(part) and part.X.shape[1] != n_features:
            raise ValueError(f"{name} has {part.X.shape[1]} features, "
                             f"labeled_train has {n_features}")
        if len(part) and not np.isfinite(part.X).all():
            raise ValueError(f"{name} has non-finite features")
    if splits.grid is not None:
        h, w = splits.grid
        if min(h, w) < 1 or h * w > n_features:
            raise ValueError(f"grid {h}x{w} needs sides >= 1 and at most "
                             f"{n_features} cells")


def _augmented(x: np.ndarray, cfg: EngineConfig, grid: tuple[int, int] | None,
               rng_aug: np.random.Generator) -> np.ndarray:
    """The rows `x`, weakly augmented as one batch (each row's draws from
    `rng_aug` in row order) when cfg.augment is set."""
    if cfg.augment:
        return augment_weak(x, grid, rng_aug, cfg.crop_scale_min)
    return x


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
    rng: np.random.Generator,
    optimizer: AdamW,
) -> MlpModel:
    """Initial supervised-only phase: cfg.warmup_steps cross-entropy mini-batch
    steps on labeled data, batches drawn from `rng`, steps taken by `optimizer`."""
    if len(labeled) == 0:
        raise ValueError("warmup requires a non-empty labeled set")
    x, y = labeled.X, labeled.y
    # each epoch's permutation is drawn only when its first batch is taken
    epochs = (_labeled_batches(len(labeled), cfg.batch_labeled, rng) for _ in count())
    for step, idx in enumerate(islice(chain.from_iterable(epochs), cfg.warmup_steps), 1):
        try:
            classifier_step(classifier, x[idx], y[idx], optimizer)
        except NonFiniteError as exc:
            raise _diverged(cfg, f"warmup step {step}", exc) from exc
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
    return _inverse_cdf(log_softmax(logits), rng.random(len(batch)))


def _inverse_cdf(logp: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i's action is the first class whose cumulative probability reaches
    the uniform u[i]; returns the actions and their log-probabilities, and
    raises NonFiniteError if any of those is non-finite."""
    cum = np.cumsum(np.exp(logp), axis=1)
    actions = np.minimum((u[:, None] > cum).sum(axis=1), logp.shape[1] - 1)
    log_probs = logp[np.arange(len(u)), actions]
    # a non-finite logit makes its whole log-softmax row NaN or infinite
    if not math.isfinite(log_probs.sum()):
        raise NonFiniteError("policy log-probabilities are non-finite")
    return actions, log_probs


def eval_val_loss(classifier: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy on a labeled validation batch; no parameter mutation."""
    if len(x) == 0:
        raise ValueError("validation batch must be non-empty")
    logits, _ = mlp_forward(classifier, x)
    return float(-log_softmax(logits)[np.arange(len(y)), y].mean())


def compute_reward(loss_before: float, loss_after: float) -> float:
    """r = max(exp(loss_before - loss_after) - 1, 0); non-finite losses, or a
    reward that overflows a float, raise NonFiniteError."""
    if not (math.isfinite(loss_before) and math.isfinite(loss_after)):
        raise NonFiniteError("losses must be finite")
    try:
        return max(math.exp(loss_before - loss_after) - 1.0, 0.0)
    except OverflowError:
        raise NonFiniteError(f"reward overflows: loss_before {loss_before!r}, "
                             f"loss_after {loss_after!r}") from None


def classifier_step(
    classifier: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    optimizer: AdamW,
    weights: np.ndarray | None = None,
) -> None:
    """One optimizer step on the cross-entropy of the rows `x` with labels
    `y`, from one forward/backward pass: the mean over the rows, or with
    `weights` the weighted sum sum_i weights[i] * CE_i. A step with pseudo
    labels passes the rows, labels and weights that `_step_blocks` lays out
    (in self-training, from `_step_batch`); a labeled-only step passes its
    labeled rows alone. The step is `_classifier_update` on the forward over
    `x`."""
    if len(x) == 0:
        raise ValueError("classifier step needs a non-empty batch")
    _classifier_update(*mlp_forward(classifier, x), y, optimizer, weights)


def _classifier_update(logits: np.ndarray, cache: ForwardCache, y: np.ndarray,
                       optimizer: AdamW, weights: np.ndarray | None = None) -> None:
    """The optimizer step of `classifier_step` from a finished forward: on the
    leading len(y) rows of `logits`, the backward through `cache` sliced to
    them. Every classifier update goes through this function."""
    n = len(y)
    _, grad = softmax_cross_entropy(logits[:n], y, weights)
    optimizer.step(mlp_backward(ForwardCache(cache.model, [a[:n] for a in cache.activations]),
                                grad))


def _step_blocks(n_labeled: list[int], n_u: int,
                 w: float) -> list[tuple[slice, np.ndarray | None]]:
    """The classifier updates of steps stacked as [l_1; u_1; l_2; u_2; ...],
    one block at a time: each step's rows of the stack and their
    cross-entropy row weights. Step j's n_labeled[j] labeled rows weigh
    1/n_labeled[j] and its n_u pseudo-labeled rows w/n_u, so each step's
    weighted sum is CE(labeled) + w * CE(pseudo). At w == 0 a step trains on
    its labeled rows alone without weights, the labeled-only step bit for
    bit."""
    blocks, start = [], 0
    for n in n_labeled:
        rows = slice(start, start + (n + n_u if w else n))
        blocks.append((rows, np.repeat([1.0 / n, w / n_u], [n, n_u]) if w else None))
        start += n + n_u
    return blocks


def _step_batch(xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray,
                w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The rows, labels and row weights of one step's `classifier_step` on
    labeled rows `xl`, `yl` and pseudo-labeled rows `xu`, `yu`, laid out by
    `_step_blocks`."""
    (rows, weights), = _step_blocks([len(xl)], len(xu), w)
    return np.concatenate([xl, xu])[rows], np.concatenate([yl, yu])[rows], weights


def discounted_return(rewards, gamma: float, t: int) -> float:
    """Return-to-go G_t = sum_k gamma^k * rewards[t+k] over the buffered window,
    as the policy update computes it (`_returns`)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if not 0 <= t < len(rewards):
        raise ValueError(f"index {t} out of range for {len(rewards)} rewards")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    return float(_returns(rewards, gamma)[t])


def _returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Every return-to-go G_t of the window by one reverse accumulation,
    G_t = r_t + gamma * G_{t+1}."""
    out = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def _policy_loss_grads(
    policy: MlpModel, trajectory: Trajectory, gamma: float
) -> tuple[float, np.ndarray]:
    """-J, the cross-entropy of the taken actions with row weights G_t / B_t,
    and its gradient in `policy.flat`'s layout, from one forward/backward pass
    over the whole window, where J = sum_t G_t * mean_batch log pi(a_t|s_t)."""
    steps = trajectory.steps
    logits, cache = mlp_forward(policy, np.concatenate([s.states for s in steps]))
    return _surrogate_grads(logits, cache, np.concatenate([s.actions for s in steps]),
                            [s.reward for s in steps], [len(s.actions) for s in steps],
                            gamma)


def _surrogate_grads(logits: np.ndarray, cache: ForwardCache, actions: np.ndarray,
                     rewards: Sequence[float], sizes: list[int],
                     gamma: float) -> tuple[float, np.ndarray]:
    """-J and its gradient from the policy's forward over a window's stacked
    states: step t's B_t = sizes[t] rows each weigh G_t / B_t."""
    returns = _returns(np.asarray(rewards, dtype=np.float64), gamma)
    weights = np.repeat(returns / sizes, sizes)
    loss, grad = softmax_cross_entropy(logits, actions, weights)
    return loss, mlp_backward(cache, grad)


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
        optimizer = AdamW(policy.flat, cfg.policy_lr, weight_decay=cfg.weight_decay)
    loss, grad = _policy_loss_grads(policy, trajectory, cfg.gamma)
    optimizer.step(grad)  # descending -J ascends J
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
    return MetricsReport(accuracy=accuracy(preds, y), f1=f1_binary(preds, y),
                         auc=auc_roc(scores, (y == 1).astype(int)), n_samples=len(y))


# ---------------------------------------------------------------------------
# training loops

def _warm_classifier(splits: DatasetSplits,
                     cfg: EngineConfig) -> tuple[dict, MlpModel, AdamW]:
    """Check `splits`; build the seed's RNGs, classifier and AdamW; run the warmup."""
    check_splits(splits, cfg)
    rngs = _rngs(cfg.seed)
    labeled = splits.labeled_train
    classifier = init_mlp([labeled.X.shape[1], *cfg.hidden_dims, cfg.n_classes], rngs["init"])
    opt_c = AdamW(classifier.flat, cfg.classifier_lr, weight_decay=cfg.weight_decay)
    warmup_supervised(classifier, labeled, cfg, rngs["warmup"], opt_c)
    return rngs, classifier, opt_c


def _sample_window(splits: DatasetSplits, batches: list[np.ndarray], cfg: EngineConfig,
                   rngs: dict[str, np.random.Generator]
                   ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw the unlabeled rows of the steps whose labeled batches are
    `batches`, and lay out every step's classifier update.

    Returns (steps, x, y, is_u, u): `steps[j]` is step j's update rows,
    their labels and row weights, views of the window's stack `x` and of its
    labels `y`. The unlabeled rows x[is_u] have no labels yet:
    `train` samples y[is_u] from the policy with the uniforms `u` once the
    previous window's policy update is done, and the views see them.

    rngs["policy"] draws each step's unlabeled indices and then its uniforms,
    and rngs["aug"] augments the stack [xl_1; xu_1; xl_2; xu_2; ...] row by
    row, so every stream is read as a step-by-step loop reads it; the stack
    is filled by one gather per split. The labels [yl_1; a_1; ...] lie beside
    the stack, and step j trains on the block `_step_blocks` gives it: [xl_j;
    xu_j] with its row weights, or at pseudo_loss_weight 0 xl_j alone."""
    labeled, unlabeled = splits.labeled_train, splits.unlabeled_train
    picks, uniforms = [], []
    for _ in batches:
        picks.append(_draw(len(unlabeled), cfg.batch_unlabeled, rngs["policy"]))
        uniforms.append(rngs["policy"].random(len(picks[-1])))
    m, n_labeled = len(picks[0]), [len(idx) for idx in batches]
    is_u = np.repeat(np.tile([False, True], len(batches)),
                     [k for n in n_labeled for k in (n, m)])
    lab = np.concatenate(batches)
    x = np.empty((len(is_u), labeled.X.shape[1]))
    x[~is_u] = labeled.X[lab]
    x[is_u] = unlabeled.X[np.concatenate(picks)]
    x = _augmented(x, cfg, splits.grid, rngs["aug"])
    y = np.empty(len(is_u), dtype=np.intp)
    y[~is_u] = labeled.y[lab]
    steps = [(x[rows], y[rows], weights)
             for rows, weights in _step_blocks(n_labeled, m, cfg.pseudo_loss_weight)]
    return steps, x, y, is_u, np.concatenate(uniforms)


def train(splits: DatasetSplits, cfg: EngineConfig) -> TrainResult:
    """Full pseudo-supervisor loop.

    Each step samples pseudo labels for an unlabeled mini-batch, updates the
    classifier on labeled + pseudo batches, logs the clamped reward from the
    validation loss before and after that update, and every cfg.beta steps
    applies one policy-gradient update. Each step runs one classifier
    forward; the module docstring's paragraph on `train` says how.

    Splits with no unlabeled rows leave nothing to label: the run is then the
    supervised baseline, `train_self_training` with nothing to label, and
    its result has no policy.
    """
    if not len(splits.unlabeled_train):
        return train_self_training(splits, cfg, 1.0)
    rngs, classifier, opt_c = _warm_classifier(splits, cfg)
    labeled, val = splits.labeled_train, splits.validation
    policy = (clone_model(classifier) if cfg.policy_warm_start
              else init_mlp(classifier.layer_dims, rngs["init"]))
    opt_p = AdamW(policy.flat, cfg.policy_lr, weight_decay=cfg.weight_decay)

    # the labeled batches of the whole run; only these draws read rngs["data"]
    batches = [idx for _ in range(cfg.epochs)
               for idx in _labeled_batches(len(labeled), cfg.batch_labeled, rngs["data"])]
    per_epoch = len(batches) // cfg.epochs
    # v_t = vidx[(t-1)*n_v : t*n_v]; only these draws read rngs["val"]
    vidx = np.concatenate([_draw(len(val), cfg.batch_val, rngs["val"]) for _ in batches])
    n_v = len(vidx) // len(batches)
    yv = val.y[vidx].reshape(len(batches), n_v)
    nll = np.empty(2 * len(batches))  # [before_1, after_1, before_2, after_2, ...]
    rewards = np.empty(len(batches))
    pending = []  # validation logits not yet scored, n_v rows per nll entry

    def close(hi: int) -> None:
        """Score the pending logits, which complete nll[:hi], with one
        log_softmax, reward in order each step whose after-loss they complete,
        and if the last of these steps ends a window, update the policy; a
        failure is named at its step."""
        lo = hi - sum(map(len, pending)) // n_v
        t = lo // 2
        try:
            if pending:
                logits = np.concatenate(pending)
                pending.clear()
                labels = yv[np.arange(lo, hi) // 2].ravel()
                picked = log_softmax(logits)[np.arange(len(labels)), labels]
                nll[lo:hi] = -picked.reshape(hi - lo, n_v).mean(axis=-1)
            for t in range(lo // 2 + 1, hi // 2 + 1):
                rewards[t - 1] = compute_reward(*nll[2 * t - 2 : 2 * t].tolist())
            if t > lo // 2 and t % cfg.beta == 0:
                _, grad = _surrogate_grads(logits_p, cache_p, actions, rewards[t - cfg.beta : t],
                                           [len(actions) // cfg.beta] * cfg.beta, cfg.gamma)
                opt_p.step(grad)  # descending -J ascends J
        except NonFiniteError as exc:
            raise _diverged(cfg, f"step {t}", exc) from exc

    epochs = []
    step = 0
    try:
        for step in range(1, len(batches) + 1):
            j = (step - 1) % cfg.beta
            if j == 0:
                steps, x, y, is_u, u = _sample_window(
                    splits, batches[step - 1 :][: cfg.beta], cfg, rngs)
            xs, ys, weights = steps[j]
            v = val.X.take(vidx[max(step - 2, 0) * n_v : step * n_v], axis=0)
            logits, cache = mlp_forward(classifier, np.concatenate([xs, v]))
            pending.append(logits[len(ys):])  # [v_{t-1}; v_t], or v_1
            if j == 0:  # the previous window's policy update, then this one's labels
                close(2 * step - 1)
                logits_p = cache_p = None  # release the last window's forward before this one
                logits_p, cache_p = mlp_forward(policy, x[is_u])
                actions, _ = _inverse_cdf(log_softmax(logits_p), u)
                y[is_u] = actions
            _classifier_update(logits, cache, ys, opt_c, weights)
            if step % per_epoch == 0:
                epochs.append(evaluate(classifier, splits.test))
        pending.append(mlp_forward(classifier, val.X[vidx[-n_v:]])[0])  # v_T
        close(2 * step)
    except NonFiniteError as exc:
        close(2 * step - 1)  # no NonFiniteError comes before a step's forward
        raise _diverged(cfg, f"step {step}", exc) from exc
    history = History([t // per_epoch + 1 for t in range(len(batches))],
                      [t % cfg.beta == 0 for t in range(1, len(batches) + 1)],
                      nll[0::2], nll[1::2], rewards, epochs)
    return TrainResult(classifier, policy, history)


def train_supervised_only(splits: DatasetSplits, cfg: EngineConfig) -> TrainResult:
    """Supervised baseline: `train` on the splits with the unlabeled split
    stripped, which hands them to the self-training loop with nothing to
    label."""
    return train(replace(splits, unlabeled_train=splits.unlabeled_train.take([])), cfg)


def train_self_training(
    splits: DatasetSplits, cfg: EngineConfig, confidence_threshold: float
) -> TrainResult:
    """Naive self-training baseline: each epoch, unlabeled samples whose max
    softmax probability reaches the threshold join training with their argmax
    as pseudo label. Its diagnostics hold each epoch's `n_selected` and the
    selected labels' `pseudo_label_accuracy` against `hidden` (NaN where
    none is known)."""
    if not 0.5 < confidence_threshold <= 1.0:
        raise ValueError("confidence_threshold must be in (0.5, 1]")
    rngs, classifier, opt_c = _warm_classifier(splits, cfg)
    labeled, unlabeled = splits.labeled_train, splits.unlabeled_train
    epochs = []
    pseudo_acc: list[float] = []
    n_selected: list[int] = []
    step = 0
    try:
        for _ in range(cfg.epochs):
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
                xl = _augmented(labeled.X[idx], cfg, splits.grid, rngs["aug"])
                x, y, weights = xl, labeled.y[idx], None
                if len(selected):
                    pick = selected[_draw(len(selected), cfg.batch_unlabeled, rngs["policy"])]
                    x, y, weights = _step_batch(xl, y, unlabeled.X[pick], preds[pick],
                                                cfg.pseudo_loss_weight)
                classifier_step(classifier, x, y, opt_c, weights)
            epochs.append(evaluate(classifier, splits.test))
    except NonFiniteError as exc:
        raise _diverged(cfg, f"step {step}", exc) from exc
    history = History([e for e in range(1, cfg.epochs + 1) for _ in range(step // cfg.epochs)],
                      [False] * step, epochs=epochs)
    return TrainResult(classifier, None, history,
                       {"pseudo_label_accuracy": pseudo_acc, "n_selected": n_selected})


__all__ = _public_names(globals())
