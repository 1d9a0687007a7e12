"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repository root."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from spans import Instrumented, SpanRecorder, self_times  # noqa: E402
from workloads import mtp_met_counts, run_batch  # noqa: E402


# ----------------------------------------------------------------------
# Self time = duration minus the union of child intervals
# ----------------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    #   0 root       [0, 100]
    #   1   a        [10, 40]
    #   2     a.x    [15, 20]
    #   3   b        [30, 60]   overlaps a: [30, 40] is covered once
    #   4   c        [90, 120]  runs past root: clipped to [90, 100]
    parent = [-1, 0, 1, 0, 0]
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 20, 60, 120]
    assert self_times(parent, start, end) == [100 - 50 - 10, 30 - 5, 5, 30, 30]


def test_self_time_ignores_span_order_and_nested_duplicates():
    # Children listed out of start order, one inside another's interval.
    parent = [-1, 0, 0, 0]
    start = [0, 50, 10, 20]
    end = [100, 70, 40, 30]
    assert self_times(parent, start, end)[0] == 100 - 30 - 20


class _Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


def test_recorder_nests_spans_and_restores_targets():
    targets = [(__name__, "_Toy.outer", "toy.outer"), (__name__, "_Toy.inner", "toy.inner")]
    original = _Toy.__dict__["outer"]
    recorder = SpanRecorder()
    with Instrumented(recorder, targets):
        recorder.run_id = 7
        assert _Toy().outer(3) == 3
    assert _Toy.__dict__["outer"] is original
    assert [recorder.names[i] for i in recorder.layer] == ["toy.outer"] + ["toy.inner"] * 3
    assert list(recorder.parent) == [-1, 0, 0, 0]
    assert set(recorder.run) == {7}
    totals = recorder.totals()
    assert totals["toy.inner"][0] == 3
    outer_ns = recorder.end[0] - recorder.start[0]
    inner_ns = sum(recorder.end[i] - recorder.start[i] for i in (1, 2, 3))
    assert totals["toy.outer"][1] == outer_ns - inner_ns


# ----------------------------------------------------------------------
# mtp_*_met_frac: the base is every scheduled vsync
# ----------------------------------------------------------------------

class _Sample:
    def __init__(self, total_ms):
        self.total_ms = total_ms


def test_missing_vsyncs_count_as_misses():
    # 2 s at 120 Hz schedules 240 vsyncs; only 3 frames were displayed.
    samples = [_Sample(3.0), _Sample(12.0), _Sample(25.0)]
    vsyncs, vr_met, ar_met = mtp_met_counts(samples, 2.0, 120.0)
    assert (vsyncs, vr_met, ar_met) == (240, 2, 1)
    # A run that displayed nothing meets neither target on any vsync.
    assert mtp_met_counts([], 2.0, 120.0) == (240, 0, 0)


# ----------------------------------------------------------------------
# A run that raises is counted as failed, with the time it reached
# ----------------------------------------------------------------------

_TINY = spec.Workload(
    name="tiny", why="test", fidelity="model", platforms=("desktop",),
    apps=("sponza", "ar_demo"), duration_s=0.3,
)


def _raise_in_sponza(message):
    from repro.plugins.visual import ApplicationPlugin

    original = ApplicationPlugin.iteration

    def iteration(self, ctx):
        if self.scene.name == "sponza" and ctx.now >= 0.1:
            raise ValueError(message)
        return original(self, ctx)

    return iteration


def test_run_that_raises_counts_as_failed(monkeypatch):
    from repro.plugins.visual import ApplicationPlugin

    monkeypatch.setattr(ApplicationPlugin, "iteration", _raise_in_sponza("boom"))
    batch = run_batch(_TINY, seed=3)
    assert (batch.runs, batch.failed_runs) == (2, 1)
    [failure] = batch.failures
    assert (failure.cell, failure.check, failure.defect) == ("desktop/sponza", "raised", None)
    assert "boom" in failure.detail
    # The crashed run contributes the simulated time it reached, not 0 or 0.3.
    assert 0.3 + 0.1 <= batch.sim_s < 0.3 + 0.3


def test_known_defect_signature_is_recognised(monkeypatch):
    from repro.plugins.visual import ApplicationPlugin

    monkeypatch.setattr(
        ApplicationPlugin, "iteration",
        _raise_in_sponza("topic 'sys/observability': non-monotonic publish time 0.1 < 0.2"),
    )
    [failure] = run_batch(_TINY, seed=3).failures
    assert failure.defect == "c"


def test_repeated_batch_gives_same_fingerprint():
    assert run_batch(_TINY, seed=5).fingerprint == run_batch(_TINY, seed=5).fingerprint
    assert run_batch(_TINY, seed=5).fingerprint != run_batch(_TINY, seed=6).fingerprint


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with spec.py
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(spec.WORKLOADS)
    for w in benchmark_json["workloads"]:
        assert w["why"] == spec.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in spec.END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
