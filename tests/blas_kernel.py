"""The OpenBLAS kernel this process runs on, for messages of tests that pin bits.

numpy's wheel bundles OpenBLAS built with `DYNAMIC_ARCH`: it picks a gemm
kernel per CPU at start-up, and `OPENBLAS_CORETYPE` in a process's
environment forces another. The last bits of a matmul, and so the digests
the tests pin, can depend on that kernel.
"""

import ctypes
from pathlib import Path

import numpy as np

# Kernels on which every training digest pin of tests/test_cli.py passes
PIN_KERNELS = ("SkylakeX", "Haswell")


def openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, e.g. `SkylakeX`, or
    `"unknown"` if the library or its `scipy_openblas_get_corename64_`
    symbol is not there."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(sorted(libs.glob("libscipy_openblas64_*.so"))[0]))
        corename = lib.scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()
