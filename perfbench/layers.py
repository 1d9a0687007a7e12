"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each target is a public function or method of ``repro``; the traced batch
records one host-time span per call (see :mod:`spans`).  Several targets
can share a span name when together they make up one layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

PLUGINS = (
    ("repro.plugins.perception", "CameraPlugin", "camera"),
    ("repro.plugins.perception", "ImuPlugin", "imu"),
    ("repro.plugins.perception", "VioPlugin", "vio"),
    ("repro.plugins.perception", "IntegratorPlugin", "integrator"),
    ("repro.plugins.visual", "ApplicationPlugin", "application"),
    ("repro.plugins.visual", "TimewarpPlugin", "timewarp"),
    ("repro.plugins.audio", "AudioEncodingPlugin", "audio_encoding"),
    ("repro.plugins.audio", "AudioPlaybackPlugin", "audio_playback"),
)

_OBS_HOOKS = (
    "publish_context", "on_publish", "on_read", "on_injector_drop", "begin_invocation",
    "note_attempt", "on_attempt_error", "end_invocation", "on_scheduler_drop", "annotate",
    "record_mtp",
)
_FAULT_HOOKS = ("on_publish", "check_crash", "stall_time", "clock_skew")
_SUPERVISOR_HOOKS = (
    "is_quarantined", "on_success", "record_failure", "record_retry", "backoff_delay",
    "watchdog_timeout", "dead_letter",
)

TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Engine.step", "sim.step"),
    ("repro.core.switchboard", "Topic.put", "switchboard.put"),
    ("repro.core.switchboard", "Topic.deliver", "switchboard.deliver"),
    ("repro.core.switchboard", "Topic.get_latest", "switchboard.read"),
    ("repro.core.switchboard", "Topic.get_latest_before", "switchboard.read"),
    ("repro.hardware.timing", "TimingModel.sample", "timing.sample"),
    ("repro.maths.splines", "TrajectorySpline.sample", "spline.sample"),
    ("repro.perception.vio.msckf", "Msckf.process_frame", "vio.frame"),
    ("repro.perception.vio.msckf", "Msckf.process_imu", "vio.imu"),
    ("repro.perception.integrator", "Rk4Integrator.step", "integrator.step"),
    ("repro.sensors.imu", "ImuModel.sample_at", "imu.sample"),
    ("repro.sensors.camera", "StereoCamera.observe", "camera.observe"),
    ("repro.audio.encoding", "AudioEncoder.encode_next_block", "audio.encode"),
    ("repro.audio.playback", "AudioPlayback.render_block", "audio.render"),
    ("repro.visual.renderer", "Renderer.render", "renderer.render"),
    ("repro.visual.reprojection", "rotational_reproject", "reprojection"),
    ("repro.visual.reprojection", "translational_reproject", "reprojection"),
    ("repro.metrics.ssim", "ssim", "ssim"),
    ("repro.metrics.flip", "one_minus_flip", "flip"),
) + tuple(
    (module, f"{cls}.iteration", f"plugin.{name}") for module, cls, name in PLUGINS
) + tuple(
    ("repro.obs.observability", f"Observability.{hook}", "obs.hook") for hook in _OBS_HOOKS
) + tuple(
    ("repro.resilience.faults", f"FaultPlan.{hook}", "resilience.hook") for hook in _FAULT_HOOKS
) + tuple(
    ("repro.resilience.supervisor", f"RuntimeSupervisor.{hook}", "resilience.hook")
    for hook in _SUPERVISOR_HOOKS
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: List[Dict[str, Tuple[int, int]]], batch, untraced_run_s: float) -> Dict[str, float]:
    """Per-layer metrics from span totals of the traced batches.

    ``traced`` holds one ``SpanRecorder.totals()`` per traced batch; host
    times are the fastest of them, counts come from the first (they repeat
    exactly).  ``batch`` is a BatchResult of the same seed, for the
    simulated statistics read off the runtimes.
    """

    def count(layer: str) -> int:
        return traced[0].get(layer, (0, 0))[0]

    def self_s(*layers: str) -> float:
        return min(sum(t.get(layer, (0, 0))[1] for layer in layers) for t in traced) * 1e-9

    c = batch.counts
    events = count("sim.step")
    out: Dict[str, float] = {
        "sim.events": events,
        "sim.dispatch_self_s": self_s("sim.step"),
        "sim.host_us_per_event": _ratio(untraced_run_s * 1e6, events),
        "sim.cpu_util": c["cpu_util"] / batch.runs,
        "sim.gpu_util": c["gpu_util"] / batch.runs,
        "core.switchboard.publishes": count("switchboard.deliver"),
        "core.switchboard.put_s": self_s("switchboard.put", "switchboard.deliver"),
        "core.switchboard.reads": count("switchboard.read"),
        "core.switchboard.read_s": self_s("switchboard.read"),
        "core.scheduler.invocations": c["invocations"],
        "core.scheduler.drops": c["drops"],
        "core.scheduler.killed_frac": _ratio(c["killed"], c["invocations"]),
        "core.scheduler.deadline_miss_frac": _ratio(c["missed"], c["deadlined"]),
        "core.scheduler.sim_wait_ms_mean": _ratio(c["wait_s"] * 1e3, c["completed"]),
        "hardware.timing.samples": count("timing.sample"),
        "hardware.timing.sample_s": self_s("timing.sample"),
    }
    for _module, _cls, name in PLUGINS:
        out[f"plugins.{name}.calls"] = count(f"plugin.{name}")
        out[f"plugins.{name}.host_s"] = self_s(f"plugin.{name}")
    out.update({
        "maths.spline.samples": count("spline.sample"),
        "maths.spline.sample_s": self_s("spline.sample"),
        "perception.vio.frames": count("vio.frame"),
        "perception.vio.frame_s": self_s("vio.frame"),
        "perception.vio.imu_s": self_s("vio.imu"),
        "perception.vio.frame_accept_frac": _ratio(count("vio.frame"), c["camera_publishes"]),
        "perception.integrator.steps": count("integrator.step"),
        "perception.integrator.step_s": self_s("integrator.step"),
        "perception.integrator.steps_per_pose": _ratio(count("integrator.step"), c["fast_pose_publishes"]),
        "sensors.imu.samples": count("imu.sample"),
        "sensors.imu.sample_s": self_s("imu.sample"),
        "sensors.camera.observe_s": self_s("camera.observe"),
        "audio.encode_s": self_s("audio.encode"),
        "audio.render_s": self_s("audio.render"),
        "visual.renderer.render_s": self_s("renderer.render"),
        "visual.reprojection_s": self_s("reprojection"),
        "metrics.ssim_s": self_s("ssim"),
        "metrics.flip_s": self_s("flip"),
        "obs.spans": c.get("obs_spans", 0),
        "obs.hook_s": self_s("obs.hook"),
        "resilience.faults_injected": c.get("faults_injected", 0),
        "resilience.retries": c.get("retries", 0),
        "resilience.hangs": c.get("hangs", 0),
        "resilience.quarantines": c.get("quarantines", 0),
        "resilience.dead_letters": c.get("dead_letters", 0),
        "resilience.host_s": self_s("resilience.hook"),
    })
    return out
