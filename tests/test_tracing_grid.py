"""Tracing changes nothing simulated, across the paper's platform x app grid.

Observability wraps every plugin invocation in a span and feeds the
scheduler counters from the same outcome the record logger writes.  For
each of the 3 platforms x 4 applications, at model fidelity:

- a traced run gives the same invocation records, drops and MTP samples
  as an untraced one, with and without a fault plan;
- under the fault plan (stalled application frames the watchdog reaps,
  crashing VIO invocations the supervisor retries), the scheduler
  counters agree with the records plugin by plugin;
- under random fault plans, control-plane traffic never crashes a run:
  the ``supervision`` topic carries the supervisor's ledger event for
  event on a monotonic timeline, the summary is strict JSON, and on
  traced runs the supervisor event counter matches the ledger.
"""

import json
from collections import Counter

import pytest

from repro import APPLICATIONS, PLATFORMS, SystemConfig, build_runtime
from repro.resilience import FaultPlan, random_fault_plan

CELLS = [(platform, app) for platform in sorted(PLATFORMS) for app in sorted(APPLICATIONS)]


def _fault_plan() -> FaultPlan:
    return FaultPlan(5).stall("application", 0.1, ticks=6.0).crash("vio", 0.1)


def _run(platform: str, app: str, traced: bool, faulted: bool):
    config = SystemConfig(duration_s=1.0, seed=5, fidelity="model")
    return build_runtime(
        PLATFORMS[platform],
        app,
        config,
        fault_plan=_fault_plan() if faulted else None,
        observability=True if traced else None,
    ).run()


def _simulated(result):
    return result.logger.records, result.logger.drops, result.mtp_samples


def _per_label(counter, label: str = "plugin") -> Counter:
    """A labelled counter summed per value of ``label``."""
    totals = Counter()
    for labels, value in counter.series().items():
        totals[dict(kv.split("=", 1) for kv in labels.split(","))[label]] += value
    return totals


@pytest.mark.parametrize("platform,app", CELLS)
def test_tracing_changes_nothing_simulated(platform, app):
    plain = _run(platform, app, traced=False, faulted=False)
    traced = _run(platform, app, traced=True, faulted=False)
    assert plain.logger.records
    assert _simulated(traced) == _simulated(plain)


@pytest.mark.parametrize("platform,app", CELLS)
def test_scheduler_counters_agree_with_records_under_faults(platform, app):
    plain = _run(platform, app, traced=False, faulted=True)
    traced = _run(platform, app, traced=True, faulted=True)
    assert _simulated(traced) == _simulated(plain)

    records = traced.logger.records
    metrics = traced.observability.metrics
    expected = {
        "scheduler_invocations_total": Counter(r.plugin for r in records if not r.killed),
        "scheduler_kills_total": Counter(r.plugin for r in records if r.killed),
        "scheduler_deadline_misses_total": Counter(
            r.plugin for r in records if r.missed_deadline and not r.killed
        ),
        "scheduler_drops_total": Counter(d.plugin for d in traced.logger.drops),
    }
    for name, counts in expected.items():
        assert _per_label(metrics.counter(name)) == counts, name
    # The plan must actually exercise the kill path.
    assert expected["scheduler_kills_total"]


CONTROL_PLANE_SEEDS = range(8)


@pytest.mark.parametrize("platform,app", CELLS)
def test_control_plane_never_crashes_a_run(platform, app):
    for seed in CONTROL_PLANE_SEEDS:
        traced = seed % 2 == 0
        runtime = build_runtime(
            PLATFORMS[platform],
            app,
            SystemConfig(duration_s=1.5, seed=seed, fidelity="model"),
            fault_plan=random_fault_plan(seed),
            observability=True if traced else None,
        )
        carried = []
        runtime.switchboard.topic("supervision").subscribe_callback(carried.append)
        result = runtime.run()
        json.dumps(result.summary(), allow_nan=False)

        ledger = runtime.supervisor.events
        assert [e.data for e in carried] == ledger, seed
        times = [e.publish_time for e in carried]
        assert times == sorted(times), seed
        if traced:
            counter = result.observability.metrics.counter("supervisor_events_total")
            assert _per_label(counter, "kind") == Counter(e.kind for e in ledger), seed
