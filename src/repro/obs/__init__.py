"""Unified observability: causal tracing, metrics, critical-path MTP.

Three previously disconnected telemetry islands -- the §III-E invocation
records (:mod:`repro.core.records`), the wall-clock cost of numeric
kernels (:mod:`repro.kernel_span`, recorded as ``kernel`` spans while a
tracer is active), and the rosbag-style event recorder
(:mod:`repro.analysis.trace`) -- meet here:

- :mod:`repro.obs.tracer` -- causal spans on the simulated clock, with
  trace contexts propagated through every switchboard event;
- :mod:`repro.obs.metrics` -- a labeled counters/gauges/histograms
  registry wired into the scheduler, switchboard, and the
  ``supervision`` topic;
- :mod:`repro.obs.export` -- Chrome trace-event JSON (Perfetto-loadable)
  with flow arrows along event lineage;
- :mod:`repro.obs.critical_path` -- per-frame MTP decomposition walked
  from span trees alone.

Opt in with ``build_runtime(..., observability=True)``; with it off,
every hook in the core is a single ``None``-check (the same
zero-overhead discipline as :mod:`repro.resilience`).
"""

from repro.obs.context import TraceContext
from repro.obs.critical_path import (
    FrameCriticalPath,
    critical_paths,
    decomposition_summary,
    lineage_fraction,
    render_report,
)
from repro.obs.export import chrome_trace, save_chrome_trace, validate_chrome_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observability import MTP_BUCKETS_S, Observability
from repro.obs.tracer import Span, SpanLink, Tracer

__all__ = [
    "Counter",
    "FrameCriticalPath",
    "Gauge",
    "Histogram",
    "MTP_BUCKETS_S",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanLink",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "critical_paths",
    "decomposition_summary",
    "lineage_fraction",
    "render_report",
    "save_chrome_trace",
    "validate_chrome_trace",
]
