"""Running one batch of a workload, with output checks and a fingerprint.

A batch is the workload's fixed list of ``build_runtime(...).run()`` calls,
executed back to back in this process.  Every ``repro`` import happens
inside the functions, so ``setup_probe.py`` can time it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from spec import CHAOS_RULES, KNOWN_DEFECTS, Workload

VR_TARGET_MS = 20.0
AR_TARGET_MS = 5.0


def cells(workload: Workload, seed: int) -> List[Tuple[str, str, str, int]]:
    """(label, platform, app, config seed) for each run of the batch."""
    out = []
    for r in range(workload.rounds):
        suffix = f"#{r}" if workload.rounds > 1 else ""
        for platform in workload.platforms:
            for app in workload.apps:
                out.append((f"{platform}/{app}{suffix}", platform, app, seed * 100 + len(out)))
    return out


def fault_plan(rules, seed: int):
    """A FaultPlan holding ``rules`` (see spec.CHAOS_RULES), seeded with ``seed``."""
    from repro.resilience.faults import FaultPlan

    plan = FaultPlan(seed)
    for kind, target, rate, *extra in rules:
        if kind == "delay":
            plan.delay(target, rate, delay=extra[0])
        elif kind == "stall":
            plan.stall(target, rate, ticks=extra[0])
        else:
            getattr(plan, kind)(target, rate)
    return plan


def build(workload: Workload, run: int, platform: str, app: str, config_seed: int,
          duration_s: Optional[float] = None):
    """The ``build_runtime`` call for run number ``run`` of the batch."""
    from repro import PLATFORMS, SystemConfig, build_runtime

    config = SystemConfig(
        duration_s=duration_s or workload.duration_s, seed=config_seed, fidelity=workload.fidelity
    )
    return build_runtime(
        PLATFORMS[platform],
        app,
        config,
        fault_plan=fault_plan(CHAOS_RULES[run % len(CHAOS_RULES)], config_seed)
        if workload.fault_plans else None,
        observability=True if workload.observability else None,
    )


@dataclass
class Failure:
    cell: str
    check: str
    detail: str
    defect: Optional[str] = None   # key of KNOWN_DEFECTS, or None when unexpected


@dataclass
class BatchResult:
    # Host seconds per run of the batch: inside Runtime.run, for the whole
    # run (build + run + checks + replay), and in the Table V replay.
    run_s: List[float] = field(default_factory=list)
    cell_s: List[float] = field(default_factory=list)
    replay_s: List[float] = field(default_factory=list)
    sim_s: float = 0.0            # simulated seconds reached, summed
    replay_frames: int = 0
    vsyncs: int = 0               # scheduled vsyncs (duration x display rate)
    vr_met: int = 0
    ar_met: int = 0
    runs: int = 0
    failed_runs: int = 0
    failures: List[Failure] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    table5: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def mtp_met_counts(samples, duration_s: float, display_rate_hz: float) -> Tuple[int, int, int]:
    """(scheduled vsyncs, frames meeting the VR target, frames meeting the AR target).

    The base is every vsync the run was scheduled to show, so a dropped,
    killed or never-reached vsync counts as a miss.
    """
    vsyncs = round(duration_s * display_rate_hz)
    vr_met = sum(s.total_ms <= VR_TARGET_MS for s in samples)
    ar_met = sum(s.total_ms <= AR_TARGET_MS for s in samples)
    return vsyncs, vr_met, ar_met


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def nominal_rates(config) -> Dict[str, float]:
    """The highest frame rate each integrated plugin may reach."""
    return {
        "camera": config.camera_rate_hz,
        "vio": config.camera_rate_hz,
        "imu": config.imu_rate_hz,
        "integrator": config.imu_rate_hz,
        "application": config.display_rate_hz,
        "timewarp": config.display_rate_hz,
        "audio_encoding": config.audio_rate_hz,
        "audio_playback": config.audio_rate_hz,
    }


def check_summary(result) -> Optional[str]:
    try:
        json.dumps(result.summary(), allow_nan=False)
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_mtp(samples, records, vsync_period: float) -> Optional[str]:
    """Each MTP sample is imu_age + reprojection_time + swap_wait, and those
    parts match the timewarp invocation that produced the frame."""
    completed = [r for r in records if r.plugin == "timewarp" and not r.killed]
    if len(completed) != len(samples):
        return f"{len(samples)} MTP samples for {len(completed)} completed timewarp invocations"
    for i, (sample, record) in enumerate(zip(samples, completed)):
        parts = (sample.imu_age, sample.reprojection_time, sample.swap_wait)
        if not all(math.isfinite(x) and x >= 0 for x in parts):
            return f"frame {i}: non-finite or negative part {parts}"
        if not math.isclose(sample.total, sum(parts), rel_tol=1e-12, abs_tol=1e-12):
            return f"frame {i}: total {sample.total} != sum of parts {sum(parts)}"
        if not math.isclose(sample.reprojection_time, record.end - record.start, abs_tol=1e-9):
            return f"frame {i}: reprojection_time {sample.reprojection_time} != invocation time"
        if not math.isclose(sample.swap_wait, max(sample.frame_time - record.end, 0.0), abs_tol=1e-9):
            return f"frame {i}: swap_wait does not end at the frame's vsync"
        vsyncs = sample.frame_time / vsync_period
        if abs(vsyncs - round(vsyncs)) > 1e-6:
            return f"frame {i}: displayed at {sample.frame_time}, not on a vsync"
    return None


def check_frame_rates(records, config, duration: float) -> Optional[str]:
    counts: Dict[str, int] = {}
    for r in records:
        if not r.killed:
            counts[r.plugin] = counts.get(r.plugin, 0) + 1
    for plugin, rate in nominal_rates(config).items():
        # Ticks land on 0, T, 2T, ...: at most floor(duration * rate) + 1.
        limit = math.floor(duration * rate + 1e-9) + 1
        if counts.get(plugin, 0) > limit:
            return f"{plugin}: {counts[plugin]} frames in {duration} s exceeds {rate} Hz"
    return None


def classify(check: str, detail: str, mtp_count: int) -> Optional[str]:
    """Which known defect explains a failure, if any."""
    if check == "raised" and detail.startswith("ValueError") and "non-monotonic publish time" in detail:
        return "c"
    if check == "summary-json" and mtp_count == 0 and "Out of range float" in detail:
        return "d"
    return None


# ----------------------------------------------------------------------
# One batch
# ----------------------------------------------------------------------

def run_batch(workload: Workload, seed: int, recorder=None) -> BatchResult:
    """Run the batch once; ``recorder`` (a SpanRecorder) tags spans per run."""
    from repro.metrics.qoe import evaluate_image_quality
    from repro.metrics.trajectory import absolute_trajectory_error
    from repro.plugins.visual import TimewarpPlugin

    gc.collect()
    out = BatchResult()
    prints = []
    for k, (label, platform, app, config_seed) in enumerate(cells(workload, seed)):
        if recorder is not None:
            recorder.run_id = k
        cell_start = time.perf_counter()
        runtime = build(workload, k, platform, app, config_seed)
        config = runtime.config
        error: Optional[BaseException] = None
        result = None
        started = time.perf_counter()
        try:
            result = runtime.run()
        except Exception as exc:  # a crashed run is a failed run, not a crashed benchmark
            error = exc
        out.run_s.append(time.perf_counter() - started)
        reached = runtime.engine.now
        out.sim_s += reached
        out.runs += 1

        timewarp = next(p for p in runtime.plugins if isinstance(p, TimewarpPlugin))
        samples = timewarp.mtp_samples
        vsyncs, vr_met, ar_met = mtp_met_counts(samples, config.duration_s, config.display_rate_hz)
        out.vsyncs += vsyncs
        out.vr_met += vr_met
        out.ar_met += ar_met
        _count_layers(out, runtime)

        problems: List[Tuple[str, str]] = []
        entry: Dict[str, object] = {"cell": label, "reached": reached}
        if error is not None:
            problems.append(("raised", f"{type(error).__name__}: {error}"))
            entry["error"] = problems[-1][1]
        else:
            entry["summary"] = result.summary()
            for check, detail in (
                ("summary-json", check_summary(result)),
                ("mtp-decomposition", check_mtp(samples, runtime.logger.records, config.vsync_period)),
                ("frame-rate", check_frame_rates(runtime.logger.records, config, result.duration)),
            ):
                if detail is not None:
                    problems.append((check, detail))
        if workload.replay and error is None:
            if recorder is not None:
                recorder.run_id = workload.runs + k
            replay_start = time.perf_counter()
            quality = evaluate_image_quality(result)
            out.replay_s.append(time.perf_counter() - replay_start)
            out.replay_frames += quality.frames
            ate = absolute_trajectory_error(
                [est.pose for _, est in result.vio_trajectory],
                [result.ground_truth(est.timestamp) for _, est in result.vio_trajectory],
            )
            out.table5 = {
                "ssim_mean": quality.ssim_mean,
                "one_minus_flip_mean": quality.one_minus_flip_mean,
                "pose_ate_cm": ate.rmse_m * 100.0,
            }
            entry["table5"] = out.table5
            if not (math.isfinite(quality.ssim_mean) and math.isfinite(quality.one_minus_flip_mean)):
                problems.append(("replay-finite", f"SSIM {quality.ssim_mean}, 1-FLIP {quality.one_minus_flip_mean}"))
        for check, detail in problems:
            out.failures.append(Failure(label, check, detail, classify(check, detail, len(samples))))
        out.failed_runs += bool(problems)
        prints.append(entry)
        del runtime, result
        out.cell_s.append(time.perf_counter() - cell_start)
    out.fingerprint = fingerprint(prints)
    return out


def _count_layers(out: BatchResult, runtime) -> None:
    """Simulated per-layer statistics, read from the runtime after its run."""
    records = runtime.logger.records
    completed = [r for r in records if not r.killed]
    out.add("invocations", len(records))
    out.add("drops", len(runtime.logger.drops))
    out.add("killed", len(records) - len(completed))
    out.add("deadlined", sum(r.deadline is not None for r in records))
    out.add("missed", sum(r.missed_deadline for r in records if r.deadline is not None))
    out.add("completed", len(completed))
    out.add("wait_s", sum(max(r.wall_time - r.cpu_time - r.gpu_time, 0.0) for r in completed))
    utilization = runtime.scheduler.utilization()
    out.add("cpu_util", utilization["cpu"])
    out.add("gpu_util", utilization["gpu"])
    switchboard = runtime.switchboard
    for topic in ("camera", "fast_pose"):
        out.add(f"{topic}_publishes", switchboard.topic(topic).count if topic in switchboard else 0)
    if runtime.observability is not None:
        out.add("obs_spans", len(runtime.observability.tracer.spans))
    if runtime.fault_plan is not None:
        out.add("faults_injected", len(runtime.fault_plan.log))
    if runtime.supervisor is not None:
        report = runtime.supervisor.report()
        for name in ("retries", "hangs", "dead_letters"):
            out.add(name, sum(h[name] for h in report["plugins"].values()))
        out.add("quarantines", len(report["quarantined"]))


def best_of(batches: List[BatchResult], attr: str) -> float:
    """Sum over the runs of a batch of each run's fastest repetition.

    The host is shared with other tenants, whose load only ever adds time;
    the fastest of several identical repetitions is the steadiest
    estimate of what the simulator itself costs.
    """
    return sum(min(times) for times in zip(*(getattr(b, attr) for b in batches)))


def fingerprint(entries: List[Dict[str, object]]) -> str:
    """A hash over every simulated field of the batch's outputs."""
    text = json.dumps(entries, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def unexpected(failures: List[Failure]) -> List[Failure]:
    return [f for f in failures if f.defect not in KNOWN_DEFECTS]
