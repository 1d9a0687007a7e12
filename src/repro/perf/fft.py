"""Batched 2-D FFT helpers.

The WGS hologram solver and the ambisonic audio chain both reduce to many
same-sized 2-D transforms per frame (§V-B's shared-primitive analysis).
Issuing them as one batched call over a ``(..., N, N)`` stack keeps the
work inside the FFT backend instead of a Python loop, which matters on the
single-core platforms the paper's Jetson-LP configuration models.

``scipy.fft`` (pocketfft) is preferred when present; the helpers fall back
to ``numpy.fft`` transparently.  Both backends compute identical transforms
to within 1 ulp, and the parity tests in ``tests/test_perf.py`` pin the
end-to-end agreement.  The backend is imported on the first transform, not
with this module, so importing :mod:`repro.perf` (as every
observability-enabled runtime does) stays cheap.
"""

from __future__ import annotations

import importlib
import importlib.util
from functools import lru_cache
from typing import Tuple

import numpy as np

FFT_BACKEND = "scipy" if importlib.util.find_spec("scipy") is not None else "numpy"


@lru_cache(maxsize=None)
def _backend():
    """The FFT module named by ``FFT_BACKEND``, imported on first use."""
    return importlib.import_module("scipy.fft") if FFT_BACKEND == "scipy" else np.fft


_PLANE_AXES: Tuple[int, int] = (-2, -1)


def fft2(array: np.ndarray, axes: Tuple[int, int] = _PLANE_AXES) -> np.ndarray:
    """2-D FFT over ``axes`` (default: the trailing two)."""
    return _backend().fft2(array, axes=axes)


def ifft2(array: np.ndarray, axes: Tuple[int, int] = _PLANE_AXES) -> np.ndarray:
    """2-D inverse FFT over ``axes`` (default: the trailing two)."""
    return _backend().ifft2(array, axes=axes)


def batched_fft2(stack: np.ndarray) -> np.ndarray:
    """Forward-transform every plane of a ``(..., N, M)`` stack in one call."""
    if stack.ndim < 2:
        raise ValueError(f"need at least a 2-D array, got shape {stack.shape}")
    return _backend().fft2(stack, axes=_PLANE_AXES)


def batched_ifft2(stack: np.ndarray) -> np.ndarray:
    """Inverse-transform every plane of a ``(..., N, M)`` stack in one call."""
    if stack.ndim < 2:
        raise ValueError(f"need at least a 2-D array, got shape {stack.shape}")
    return _backend().ifft2(stack, axes=_PLANE_AXES)
