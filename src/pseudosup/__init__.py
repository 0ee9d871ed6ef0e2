"""Generalization-reinforced pseudo-supervisor semi-supervised learning.

A policy network assigns pseudo labels to unlabeled samples and is trained by
policy gradient on rewards derived from validation-loss improvement of the
downstream classifier. Includes a minimal dense-NN substrate, synthetic data
tooling, evaluation metrics, and an experiment CLI.
"""

from . import data, engine, metrics, nn_core
from .data import *
from .engine import *
from .metrics import *
from .nn_core import *

__all__ = data.__all__ + engine.__all__ + metrics.__all__ + nn_core.__all__
__version__ = "0.1.0"
