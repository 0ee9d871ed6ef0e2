"""Generalization-reinforced pseudo-supervisor semi-supervised learning.

A policy network assigns pseudo labels to unlabeled samples and is trained by
policy gradient on rewards derived from validation-loss improvement of the
downstream classifier. Includes a minimal dense-NN substrate, synthetic data
tooling, evaluation metrics, and an experiment CLI.
"""

import gc
import types


# Defined above the submodule imports below: each submodule imports it while
# this package is still initialising, and ends with `__all__ =
# _public_names(globals())`.
def _public_names(namespace: dict) -> list[str]:
    """The export rule: the classes and functions the module whose globals are
    `namespace` defines itself, under names without a leading underscore, in
    definition order."""
    return [name for name, obj in namespace.items()
            if not name.startswith("_") and isinstance(obj, (type, types.FunctionType))
            and obj.__module__ == namespace["__name__"]]


# Importing the submodules (numpy and scipy.stats with them) builds a heap that
# lives as long as the process. The collector pauses meanwhile, instead of
# running over a hundred collections of that heap, and `gc.freeze()` then moves
# every object alive into the permanent generation, so no later collection,
# those at interpreter exit included, walks them again. The caller's collector
# state is restored; `gc.unfreeze()` undoes the freeze.
_collecting = gc.isenabled()
gc.disable()
try:
    from . import data, engine, metrics, nn_core
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

from .data import *
from .engine import *
from .metrics import *
from .nn_core import *

__all__ = data.__all__ + engine.__all__ + metrics.__all__ + nn_core.__all__
__version__ = "0.1.0"
