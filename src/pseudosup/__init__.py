"""Generalization-reinforced pseudo-supervisor semi-supervised learning.

A policy network assigns pseudo labels to unlabeled samples and is trained by
policy gradient on rewards derived from validation-loss improvement of the
downstream classifier. Includes a minimal dense-NN substrate, synthetic data
tooling, evaluation metrics, and an experiment CLI.
"""

from .data import (
    DatasetSplits,
    LongitudinalSeries,
    QcRecord,
    Sample,
    Split,
    augment_weak,
    concat_modalities,
    derive_progression_labels,
    generate_overlapping_gaussians,
    load_dataset,
    qc_filter,
    save_dataset,
    split_dataset,
)
from .engine import (
    EngineConfig,
    Trajectory,
    TrajectoryStep,
    compute_reward,
    discounted_return,
    evaluate,
    policy_update,
    sample_pseudo_labels,
    train,
    train_self_training,
    train_supervised_only,
)
from .metrics import MetricsReport, accuracy, auc_roc, correlation_density, f1_binary
from .nn_core import (
    AdamW,
    MlpModel,
    NonFiniteError,
    init_mlp,
    load_model,
    mlp_backward,
    mlp_forward,
    save_model,
    softmax_cross_entropy,
)

__version__ = "0.1.0"
