"""Tracing changes nothing simulated, across the paper's platform x app grid.

Observability wraps every plugin invocation in a span and feeds the
scheduler counters from the same outcome the record logger writes.  For
each of the 3 platforms x 4 applications, at model fidelity:

- a traced run gives the same invocation records, drops and MTP samples
  as an untraced one, with and without a fault plan;
- under the fault plan (stalled application frames the watchdog reaps,
  crashing VIO invocations the supervisor retries), the scheduler
  counters agree with the records plugin by plugin.
"""

from collections import Counter

import pytest

from repro import APPLICATIONS, PLATFORMS, SystemConfig, build_runtime
from repro.resilience import FaultPlan

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


def _per_plugin(counter) -> Counter:
    """A ``plugin``-labelled counter as plugin -> count."""
    return Counter({label.split("=", 1)[1]: value for label, value in counter.series().items()})


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
        assert _per_plugin(metrics.counter(name)) == counts, name
    # The plan must actually exercise the kill path.
    assert expected["scheduler_kills_total"]
