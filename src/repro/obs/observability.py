"""The unified observability facade: one object the runtime wires in.

An :class:`Observability` instance owns a :class:`~repro.obs.tracer.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry` and implements the hook
protocols the core exposes:

- the **switchboard observer** (``publish_context`` / ``on_publish`` /
  ``on_read`` / ``on_injector_drop``), which stamps trace contexts onto
  events at ``put`` and turns reads into lineage links;
- the **scheduler hooks** (``begin_invocation`` / ``note_attempt`` /
  ``end_invocation`` / ``on_scheduler_drop``), which wrap every plugin
  invocation in a span and feed the scheduler metrics;
- a subscriber on the ``supervision`` topic, which converts supervisor
  lifecycle events (crash, hang, retry, quarantine, dead-letter) and
  plugin degradation notices into instant spans and counters so chaos
  runs are visible in exported traces.

Every hook site in the core is a ``None``-check: with no Observability
attached, the runtime pays one attribute load and a branch -- the same
zero-overhead discipline as the resilience layer.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, SpanLink, Tracer

#: MTP histogram bounds (seconds): 1 ms .. 100 ms, log-ish spacing that
#: brackets the 5 ms AR and 20 ms VR targets of Table I.
MTP_BUCKETS_S = (
    0.001, 0.002, 0.003, 0.005, 0.0075, 0.010, 0.0125, 0.015, 0.0175,
    0.020, 0.025, 0.030, 0.040, 0.050, 0.075, 0.100,
)


class Observability:
    """Tracer + metrics registry + the hook protocol implementations."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        # Pre-registered instruments (hot-path hooks must not pay the
        # registry lookup on every call).
        m = self.metrics
        self._publishes = m.counter(
            "switchboard_publishes_total", "events delivered per topic"
        )
        self._injector_drops = m.counter(
            "switchboard_drops_total", "publishes suppressed by fault injection"
        )
        self._queue_depth = m.gauge(
            "switchboard_queue_depth", "unread events on the deepest sync reader"
        )
        self._invocations = m.counter(
            "scheduler_invocations_total", "completed plugin invocations"
        )
        self._sched_drops = m.counter(
            "scheduler_drops_total", "ticks skipped because the plugin was busy"
        )
        self._deadline_misses = m.counter(
            "scheduler_deadline_misses_total", "invocations finishing past deadline"
        )
        self._kills = m.counter(
            "scheduler_kills_total", "invocations reaped by the watchdog"
        )
        self._supervisor_events = m.counter(
            "supervisor_events_total", "lifecycle events by kind"
        )
        self._mtp = m.histogram(
            "mtp_seconds", MTP_BUCKETS_S, "motion-to-photon latency per displayed frame"
        )
        self._mtp_segments = m.histogram(
            "mtp_segment_seconds", MTP_BUCKETS_S, "per-segment MTP decomposition"
        )

    # ------------------------------------------------------------------
    # Runtime wiring
    # ------------------------------------------------------------------

    def attach(self, engine, switchboard) -> None:
        """Bind to a run: clock, switchboard observer, supervision tap."""
        self.tracer.set_clock(lambda: engine.now)
        switchboard.install_observer(self)
        switchboard.topic("supervision").subscribe_callback(self._on_supervision_event)

    # ------------------------------------------------------------------
    # Switchboard observer protocol
    # ------------------------------------------------------------------

    def publish_context(self, topic_name: str) -> Optional[TraceContext]:
        """The trace context to stamp onto an event being published now:
        the publishing invocation's span, if one is active."""
        span = self.tracer.current()
        return span.context if span is not None else None

    def on_publish(self, topic, event) -> None:
        """Metrics for one delivered event (called from ``deliver``)."""
        self._publishes.inc(topic=topic.name)
        queues = topic._queues
        if queues:
            self._queue_depth.set(
                float(max(len(q) for q in queues)), topic=topic.name
            )

    def on_read(self, topic_name: str, event) -> None:
        """An asynchronous read observed inside an active span becomes a
        lineage link on that span."""
        span = self.tracer.current()
        if span is not None:
            span.links.append(
                SpanLink(
                    topic=topic_name,
                    sequence=event.sequence,
                    publish_time=event.publish_time,
                    data_time=event.data_time,
                    context=event.trace,
                )
            )

    def on_injector_drop(self, topic_name: str, kind: str) -> None:
        self._injector_drops.inc(topic=topic_name, kind=kind)

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------

    def begin_invocation(
        self, plugin, start: float, trigger_event, index: int
    ) -> Span:
        """Open the span for one plugin invocation.

        A triggered invocation continues the trigger event's trace (the
        synchronous dependence of Fig. 2); a periodic one roots a fresh
        trace -- sensor ticks are where lineage begins.
        """
        parent = getattr(trigger_event, "trace", None) if trigger_event is not None else None
        attributes: Dict[str, Any] = {
            "component": plugin.component,
            "pipeline": plugin.pipeline,
            "index": index,
        }
        if trigger_event is not None:
            attributes["trigger_publish_time"] = trigger_event.publish_time
        return self.tracer.start_span(
            f"{plugin.name}#{index}",
            track=plugin.name,
            kind="invocation",
            parent=parent,
            start=start,
            attributes=attributes,
        )

    def note_attempt(self, span: Span, now: float, attempt: int) -> None:
        """Record when iteration work actually began (retries move it)."""
        span.attributes["iteration_at"] = now
        span.attributes["attempts"] = attempt + 1

    def on_attempt_error(self, span: Span, now: float, exc: BaseException) -> None:
        span.attributes["error"] = repr(exc)
        self.tracer.mark(
            "crash", track=span.track, attributes={"error": repr(exc), "at": now}
        )

    def end_invocation(self, span: Span, end: float, record=None) -> None:
        """Close an invocation span and update the scheduler metrics.

        ``record`` is the invocation's
        :class:`~repro.core.records.InvocationRecord`; None means the
        iteration was skipped (or abandoned) and did no work.  A killed
        invocation counts as a kill only, not as a completion or a miss.
        """
        if record is None:
            span.attributes.update(cpu_time=0.0, gpu_time=0.0, skipped=True)
            self.tracer.end_span(span, end=end)
            return
        span.attributes["cpu_time"] = record.cpu_time
        span.attributes["gpu_time"] = record.gpu_time
        if record.killed:
            span.attributes["killed"] = True
            self._kills.inc(plugin=span.track)
        elif record.missed_deadline:
            span.attributes["missed_deadline"] = True
            self._deadline_misses.inc(plugin=span.track)
        if record.swap_time is not None:
            span.attributes["swap_time"] = record.swap_time
            if record.swap_time > end:
                swap = self.tracer.start_span(
                    "swap",
                    track=span.track,
                    kind="phase",
                    parent=span.context,
                    start=end,
                )
                swap.end = record.swap_time
        self.tracer.end_span(span, end=end)
        if not record.killed:
            self._invocations.inc(plugin=span.track)

    def on_scheduler_drop(self, plugin_name: str, scheduled_at: float) -> None:
        self._sched_drops.inc(plugin=plugin_name)

    # ------------------------------------------------------------------
    # Plugin-facing conveniences
    # ------------------------------------------------------------------

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the current invocation span."""
        self.tracer.annotate(**attributes)

    def record_mtp(self, sample) -> None:
        """Feed one MtpSample into the online latency histogram."""
        self._mtp.observe(sample.total)
        for segment, value in (
            ("imu_age", sample.imu_age),
            ("reprojection", sample.reprojection_time),
            ("swap", sample.swap_wait),
        ):
            self._mtp_segments.observe(value, segment=segment)

    # ------------------------------------------------------------------
    # Supervision tap
    # ------------------------------------------------------------------

    def _on_supervision_event(self, event) -> None:
        notice = event.data
        kind = getattr(notice, "kind", "event")
        plugin = getattr(notice, "plugin", "unknown")
        self._supervisor_events.inc(kind=kind, plugin=plugin)
        self.tracer.mark(
            kind,
            track=f"supervisor/{plugin}",
            attributes={"detail": getattr(notice, "detail", ""), "at": event.publish_time},
        )

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-serializable snapshot for ``RuntimeResult.summary``."""
        return {
            "spans": len(self.tracer.spans),
            "traces": self.tracer._next_trace - 1,
            "metrics": self.metrics.snapshot(),
        }
