"""Observability layer: tracing, metrics, export, and MTP attribution.

Covers the acceptance criteria of the causal-tracing work:

- traced integrated runs export valid Chrome trace JSON whose flow
  arrows link >= 95% of displayed frames back to an IMU sample;
- the trace-derived critical-path decomposition reproduces the online
  MTP metric per frame to 1e-6 s;
- supervisor lifecycle events are delivered once on ``supervision``;
- every core hook is a None-check: untraced runs see no trace state;
- ``@kernel_span`` kernels nest as spans under the active span only, and
  no tracer outlives its run.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.kernel_span as kernel_span_module
from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.hardware.platform import DESKTOP
from repro.kernel_span import kernel_span
from repro.obs import (
    MetricsRegistry,
    SpanLink,
    TraceContext,
    Tracer,
    chrome_trace,
    decomposition_summary,
    lineage_fraction,
    render_report,
    validate_chrome_trace,
)
from repro.resilience import FaultPlan, SupervisorConfig


@pytest.fixture(scope="module")
def traced_run():
    """One short full-fidelity traced run shared by the e2e assertions."""
    config = SystemConfig(duration_s=2.0, fidelity="full", seed=0)
    runtime = build_runtime(DESKTOP, "sponza", config, observability=True)
    poses = []
    runtime.switchboard.topic("fast_pose").subscribe_callback(poses.append)
    result = runtime.run()
    return runtime, result, poses


# ---------------------------------------------------------------------------
# Tracer unit behaviour
# ---------------------------------------------------------------------------


def test_span_parenting_explicit_active_fresh():
    tracer = Tracer()
    root = tracer.start_span("root", track="a", kind="invocation")
    assert root.parent_id is None  # fresh trace
    with tracer.activate(root):
        child = tracer.start_span("child", track="a")
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
    other = tracer.start_span("sibling", track="b", parent=root.context)
    assert other.parent_id == root.span_id
    fresh = tracer.start_span("fresh", track="c")
    assert fresh.trace_id != root.trace_id


def test_activation_stack_nesting_and_current():
    tracer = Tracer()
    assert tracer.current() is None
    with tracer.span("outer", track="t") as outer:
        assert tracer.current() is outer
        with tracer.span("inner", track="t") as inner:
            assert tracer.current() is inner
            assert inner.parent_id == outer.span_id
        assert tracer.current() is outer
    assert tracer.current() is None
    assert all(s.finished for s in tracer.spans)


def test_annotate_and_link_noop_outside_activation():
    tracer = Tracer()
    tracer.annotate(ignored=True)  # must not raise
    tracer.link(SpanLink("t", 0, 0.0, None, None))
    assert tracer.spans == []


def test_mark_is_instant_and_ancestry_walks_to_root():
    tracer = Tracer()
    mark = tracer.mark("crash", track="supervisor/vio")
    assert mark.duration == 0.0 and mark.finished
    a = tracer.start_span("a", track="x", kind="invocation")
    with tracer.activate(a):
        b = tracer.start_span("b", track="x")
        with tracer.activate(b):
            c = tracer.start_span("c", track="x")
    assert [s.name for s in tracer.ancestry(c)] == ["b", "a"]


def test_trace_context_child_of():
    parent = TraceContext(trace_id=7, span_id=3)
    child = parent.child_of()
    assert child.trace_id == 7 and child.parent_id == 3


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_labels_and_monotonicity():
    registry = MetricsRegistry()
    c = registry.counter("demo_total")
    c.inc(topic="imu")
    c.inc(2.0, topic="imu")
    c.inc(topic="camera")
    assert c.value(topic="imu") == 3.0
    assert c.total() == 4.0
    assert c.series() == {"topic=camera": 1.0, "topic=imu": 3.0}
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_high_water():
    g = MetricsRegistry().gauge("depth")
    g.set(3.0, topic="imu")
    g.set(1.0, topic="imu")
    assert g.value(topic="imu") == 1.0
    assert g.high_water(topic="imu") == 3.0


def test_histogram_quantiles_bracket_exact_percentiles():
    h = MetricsRegistry().histogram("lat_seconds", buckets=[b / 1000 for b in range(1, 101)])
    rng = np.random.default_rng(0)
    samples = rng.uniform(0.001, 0.09, size=2000)
    for s in samples:
        h.observe(float(s))
    # With 1 ms buckets the interpolated quantile is within one bucket
    # width of the exact percentile.
    for q in (0.5, 0.95, 0.99):
        exact = float(np.quantile(samples, q))
        assert h.quantile(q) == pytest.approx(exact, abs=1.5e-3)
    assert h.count() == 2000
    assert h.mean() == pytest.approx(float(samples.mean()), rel=1e-9)


def test_histogram_bucket_validation_and_overflow():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=[2.0, 1.0])
    h = registry.histogram("ok_seconds", buckets=[1.0, 2.0])
    h.observe(99.0)  # overflow bucket
    assert h.quantile(1.0) == 99.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_registry_rejects_cross_type_name_collisions():
    registry = MetricsRegistry()
    registry.counter("thing_total")
    with pytest.raises(ValueError):
        registry.gauge("thing_total")
    with pytest.raises(ValueError):
        registry.histogram("thing_total", buckets=[1.0])
    # Re-registration with the same type is get-or-create.
    assert registry.counter("thing_total") is registry.counter("thing_total")
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("needs_buckets")


# ---------------------------------------------------------------------------
# End-to-end: traced integrated run
# ---------------------------------------------------------------------------


def test_events_carry_trace_contexts(traced_run):
    _, _, poses = traced_run
    assert poses, "expected fast_pose traffic"
    # Every pose published from inside an invocation span is stamped.
    assert all(isinstance(e.trace, TraceContext) for e in poses)


def test_invocation_spans_cover_every_logged_invocation(traced_run):
    runtime, result, _ = traced_run
    tracer = result.observability.tracer
    for plugin in ("imu", "camera", "vio", "integrator", "timewarp"):
        # A record is logged for every finished, non-skipped invocation;
        # an invocation still in flight when the engine stops leaves an
        # unfinished span and no record.
        spans = [
            s
            for s in tracer.by_track(plugin)
            if s.kind == "invocation" and s.finished and not s.attributes.get("skipped")
        ]
        records = result.logger.for_plugin(plugin)
        assert len(spans) == len(records)


def test_exported_chrome_trace_is_valid(traced_run):
    _, result, _ = traced_run
    payload = result.chrome_trace()
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    thread_names = {
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"imu", "vio", "integrator", "timewarp"} <= thread_names
    assert any(e["ph"] == "s" for e in events), "expected flow arrows"
    assert payload["otherData"]["clock"] == "simulated"


def test_lineage_links_at_least_95_percent_of_frames(traced_run):
    _, result, _ = traced_run
    frames = result.critical_paths()
    assert len(frames) == len(result.mtp_samples)
    assert lineage_fraction(frames) >= 0.95


def test_critical_path_matches_online_mtp_within_1e6(traced_run):
    _, result, _ = traced_run
    frames = result.critical_paths()
    online = {round(s.frame_time, 9): s for s in result.mtp_samples}
    assert len(frames) == len(online)
    for frame in frames:
        sample = online[round(frame.frame_time, 9)]
        assert frame.imu_age == pytest.approx(sample.imu_age, abs=1e-6)
        assert frame.reprojection == pytest.approx(sample.reprojection_time, abs=1e-6)
        assert frame.swap == pytest.approx(sample.swap_wait, abs=1e-6)
        assert frame.total == pytest.approx(sample.total, abs=1e-6)


def test_decomposition_summary_and_report(traced_run):
    _, result, _ = traced_run
    frames = result.critical_paths()
    summary = decomposition_summary(frames)
    assert summary["count"] == len(frames)
    segs = summary["segment_mean_ms"]
    assert summary["mean_ms"] == pytest.approx(
        segs["imu_age"] + segs["reprojection"] + segs["swap"], rel=1e-9
    )
    assert summary["slowest_edge"] in ("imu_age", "reprojection", "swap")
    text = render_report(frames)
    assert "Critical-path MTP attribution" in text
    assert render_report([]).startswith("critical path: no displayed frames")


def test_scheduler_and_switchboard_metrics_populated(traced_run):
    _, result, _ = traced_run
    m = result.observability.metrics
    assert m.counter("switchboard_publishes_total").value(topic="imu") > 0
    assert m.counter("scheduler_invocations_total").value(plugin="timewarp") > 0
    snapshot = m.snapshot()
    assert "mtp_seconds" in snapshot["histograms"]
    assert result.summary()["observability"]["spans"] > 0


@kernel_span("obs_test.square")
def kernel_square(x):
    return x * x


def test_kernel_spans_nest_inside_invocations():
    """@kernel_span kernels fire as kernel spans inside the active span,
    with no enable call -- and stay span-free outside activations."""
    tracer = Tracer()
    invocation = tracer.start_span("timewarp#0", track="timewarp", kind="invocation")
    with tracer.activate(invocation):
        assert kernel_square(3) == 9
    assert kernel_square(4) == 16  # outside any span: no span emitted
    kernels = [s for s in tracer.spans if s.kind == "kernel"]
    assert len(kernels) == 1
    kernel = kernels[0]
    assert kernel.name == "obs_test.square"
    assert kernel.parent_id == invocation.span_id
    assert kernel.track == "timewarp"
    assert kernel.attributes["wall_s"] > 0
    assert kernel.duration == 0.0  # zero simulated time; wall_s carries cost


def test_kernel_spans_go_to_the_innermost_activation():
    outer, inner = Tracer(), Tracer()
    outer_span = outer.start_span("outer#0", track="outer", kind="invocation")
    inner_span = inner.start_span("inner#0", track="inner", kind="invocation")
    with outer.activate(outer_span):
        with inner.activate(inner_span):
            kernel_square(2)
        kernel_square(3)  # the outer tracer is restored on exit
    assert [s.parent_id for s in inner.spans if s.kind == "kernel"] == [inner_span.span_id]
    assert [s.parent_id for s in outer.spans if s.kind == "kernel"] == [outer_span.span_id]


def test_no_tracer_outlives_a_traced_run():
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config, observability=True)
    result = runtime.run()
    tracer = weakref.ref(result.observability.tracer)
    del runtime, result
    gc.collect()
    assert tracer() is None


def test_profiler_state_isolated_between_tests():
    # Every activation of the earlier tests has ended and put the slot
    # back: no tracer carries over into the next test.
    assert kernel_span_module.active_tracer is None
    assert kernel_square(5) == 25


def test_traced_runtime_installs_profile_tracer():
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config, observability=True)
    seen = []
    runtime.switchboard.topic("fast_pose").subscribe_callback(
        lambda _event: seen.append(kernel_span_module.active_tracer)
    )
    assert kernel_span_module.active_tracer is None
    runtime.run()
    # Inside the run's invocations, kernels record into the run's tracer;
    # once the run is over the slot is empty again.
    assert seen and all(t is runtime.observability.tracer for t in seen)
    assert kernel_span_module.active_tracer is None


# ---------------------------------------------------------------------------
# Zero overhead when off
# ---------------------------------------------------------------------------


def test_untraced_run_sees_no_trace_state():
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config)
    captured = {name: [] for name in ("imu", "fast_pose", "frame")}
    for name, log in captured.items():
        runtime.switchboard.topic(name).subscribe_callback(log.append)
    result = runtime.run()
    assert result.observability is None
    assert runtime.scheduler.obs is None
    assert all(p.obs is None for p in runtime.plugins)
    for name, log in captured.items():
        assert log, f"expected {name} traffic"
        assert all(e.trace is None for e in log)
    with pytest.raises(RuntimeError, match="observability"):
        result.chrome_trace()
    with pytest.raises(RuntimeError, match="observability"):
        result.critical_paths()
    assert "observability" not in result.summary()


# ---------------------------------------------------------------------------
# Supervisor lifecycle events on the supervision topic (regression)
# ---------------------------------------------------------------------------


def test_supervisor_events_routed_to_supervision_topic():
    # vio crashes on every invocation: each poison frame produces crash ->
    # retry -> crash -> dead_letter, and the sixth consecutive failure
    # quarantines the plugin.  All of it must appear on the supervision
    # topic, once each.
    plan = FaultPlan(seed=0).crash("vio", rate=1.0)
    config = SystemConfig(duration_s=1.5, fidelity="model", seed=0)
    runtime = build_runtime(
        DESKTOP,
        "platformer",
        config,
        fault_plan=plan,
        supervision=SupervisorConfig(),
        observability=True,
    )
    seen = []
    runtime.switchboard.topic("supervision").subscribe_callback(
        lambda e: seen.append(e.data)
    )
    result = runtime.run()

    kinds = {event.kind for event in seen}
    assert {"crash", "retry", "dead_letter", "quarantine"} <= kinds
    # The ledger and the topic agree event-for-event.
    assert [e.kind for e in seen] == [e.kind for e in runtime.supervisor.events]

    obs = result.observability
    counter = obs.metrics.counter("supervisor_events_total")
    assert counter.value(kind="crash", plugin="vio") >= 1
    assert counter.value(kind="quarantine", plugin="vio") == 1
    # Each event also lands as an instant span on the supervisor lane.
    marks = [s for s in obs.tracer.by_track("supervisor/vio") if s.kind == "mark"]
    assert len(marks) == len(seen)
    # And the exported trace stays structurally valid under chaos.
    assert validate_chrome_trace(result.chrome_trace()) == []


def test_standalone_supervisor_works_without_switchboard():
    from repro.resilience import RuntimeSupervisor

    sup = RuntimeSupervisor(SupervisorConfig())
    assert sup.record_failure("vio", 0.1, RuntimeError("boom")) == "retry"
    sup.record_retry("vio", 0.1, delay=0.02)
    assert [e.kind for e in sup.events] == ["crash", "retry"]


def test_determinism_same_seed_same_trace():
    config = SystemConfig(duration_s=1.0, fidelity="model", seed=3)

    def run_once():
        runtime = build_runtime(DESKTOP, "platformer", config, observability=True)
        result = runtime.run()
        return chrome_trace(result.observability.tracer)

    assert run_once() == run_once()
