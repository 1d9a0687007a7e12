"""Shared hot-path acceleration layer.

Per-component deadlines (Table I of the paper) leave each kernel a 2-20 ms
budget per frame, so the hot paths — WGS holography, TSDF fusion, the
SSIM/FLIP image metrics — cannot afford the naive one-item-at-a-time style.
This package collects the machinery those kernels share:

- :mod:`repro.perf.fft` -- batched 2-D FFT helpers over a ``(..., N, N)``
  stack (one backend call instead of a Python loop of transforms);
- :mod:`repro.perf.cache` -- :class:`PlanCache` for memoizing expensive
  precomputed operator arrays (e.g. angular-spectrum transfer stacks);
- :mod:`repro.perf.profile` -- the :func:`profiled` decorator and
  :func:`profile_summary`, lightweight opt-in wall-clock instrumentation of
  the accelerated kernels.

Every kernel rewired through this layer keeps its original implementation
behind an ``accelerated=False`` flag, and ``benchmarks/perf_harness.py``
times both paths and checks their numerical parity (see
``docs/performance.md``).
"""

from repro.perf.cache import PlanCache, global_plan_cache
from repro.perf.fft import FFT_BACKEND, batched_fft2, batched_ifft2, fft2, ifft2
from repro.perf.profile import (
    enable_profiling,
    profile_summary,
    profiled,
    profiling_enabled,
    reset_profile,
)

__all__ = [
    "FFT_BACKEND",
    "PlanCache",
    "batched_fft2",
    "batched_ifft2",
    "enable_profiling",
    "fft2",
    "global_plan_cache",
    "ifft2",
    "profile_summary",
    "profiled",
    "profiling_enabled",
    "reset_profile",
]
