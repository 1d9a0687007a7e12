"""Opt-in wall-clock profiling of the accelerated kernels.

Profiling is disabled by default so the hooks cost one attribute load and a
branch per call.  When enabled (``enable_profiling()``), every ``@profiled``
function records wall time into a process-wide registry that
``profile_summary()`` renders as plain dictionaries — the same shape
``benchmarks/perf_harness.py`` writes into ``BENCH_hotpaths.json``.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Optional

_enabled = False
_records: Dict[str, Dict[str, float]] = {}
# Callers may hit the registry from multiple threads; one lock keeps
# aggregation exact.
_lock = threading.Lock()
# Optional repro.obs tracer: when set, every profiled call also becomes a
# ``kernel`` span nested in the currently active plugin span, placing the
# host cost of real kernels at its simulated-time location.
_tracer: Optional[Any] = None


def enable_profiling(on: bool = True) -> None:
    """Globally switch the ``@profiled`` hooks on or off."""
    global _enabled
    _enabled = on


def profiling_enabled() -> bool:
    """Whether the hooks are currently recording."""
    return _enabled


def reset_profile() -> None:
    """Discard all recorded samples."""
    with _lock:
        _records.clear()


def set_tracer(tracer: Optional[Any]) -> None:
    """Install (or, with None, remove) a span tracer for kernel nesting.

    Wired by :meth:`repro.obs.Observability.attach`; while installed,
    ``_record`` emits a zero-simulated-duration ``kernel`` span carrying
    the wall time as a ``wall_s`` attribute -- but only when a plugin
    span is active, so standalone benchmark runs stay span-free.
    """
    global _tracer
    _tracer = tracer


def _record(name: str, elapsed: float) -> None:
    with _lock:
        stats = _records.get(name)
        if stats is None:
            _records[name] = {
                "calls": 1,
                "total_s": elapsed,
                "min_s": elapsed,
                "max_s": elapsed,
            }
        else:
            stats["calls"] += 1
            stats["total_s"] += elapsed
            stats["min_s"] = min(stats["min_s"], elapsed)
            stats["max_s"] = max(stats["max_s"], elapsed)
    tracer = _tracer
    if tracer is not None and tracer.current() is not None:
        kernel = tracer.start_span(name, track=tracer.current().track, kind="kernel", attributes={"wall_s": elapsed})
        tracer.end_span(kernel, end=kernel.start)


def profiled(name_or_fn: Optional[Callable[..., Any] | str] = None) -> Callable[..., Any]:
    """Decorator recording each call's wall time under the function's name.

    Usable bare (``@profiled``) or with an explicit registry name
    (``@profiled("hologram.solve")``).
    """

    def decorate(fn: Callable[..., Any], name: Optional[str] = None) -> Callable[..., Any]:
        label = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _record(label, time.perf_counter() - start)

        return wrapper

    if callable(name_or_fn):
        return decorate(name_or_fn)
    return lambda fn: decorate(fn, name_or_fn)


def profile_summary(reset: bool = False) -> Dict[str, Dict[str, float]]:
    """Per-name call counts and wall-time aggregates (mean derived)."""
    with _lock:
        summary = {
            name: {**stats, "mean_s": stats["total_s"] / stats["calls"]}
            for name, stats in _records.items()
        }
    if reset:
        reset_profile()
    return summary
