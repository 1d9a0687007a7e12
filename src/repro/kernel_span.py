"""Kernel spans: the host cost of a numeric kernel, placed in the active trace.

The paper characterizes each component on its own (Tables VI and VII);
a traced run shows where that cost lands inside the integrated system.
A kernel decorated with :func:`kernel_span` (hologram solve, TSDF fusion,
SSIM, FLIP) checks one module-level slot per call.  While a
:class:`repro.obs.tracer.Tracer` has a span active, the slot holds that
tracer (``Tracer.activate`` sets it and puts the previous value back on
exit), and the call is timed and recorded as a zero-simulated-duration
``kernel`` span nested in the active span, with the host wall time as its
``wall_s`` attribute.  Outside any activation the wrapper is one global
load and a branch, and nothing outlives the activation that set the slot.

This module imports only the standard library: kernels import it, and
importing a kernel must not load :mod:`repro.obs`.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

#: The tracer whose span is active right now, or None.  Written only by
#: ``Tracer.activate``.
active_tracer: Optional[Any] = None


def kernel_span(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorate a kernel so traced calls become ``kernel`` spans named ``name``."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = active_tracer
            if tracer is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                kernel = tracer.start_span(
                    name, track=tracer.current().track, kind="kernel", attributes={"wall_s": elapsed}
                )
                tracer.end_span(kernel, end=kernel.start)

        return wrapper

    return decorate
