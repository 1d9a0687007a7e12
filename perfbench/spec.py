"""What the benchmark runs and what it reports.

This module is the single description of the benchmark: each workload's
batch shape and reason, every metric with its unit and direction, which
metrics are host time and which are simulated, the end-to-end metric each
per-layer metric should move, and the known program defects that show up
as failed runs.  ``BENCHMARK.json`` at the repository root repeats the
names, units, directions and bounds; ``test_perfbench.py`` checks that the
two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

ALL_PLATFORMS = ("desktop", "jetson-hp", "jetson-lp")
ALL_APPS = ("sponza", "materials", "platformer", "ar_demo")


@dataclass(frozen=True)
class Workload:
    """One batch: a fixed list of ``build_runtime(...).run()`` calls."""

    name: str
    why: str
    fidelity: str
    platforms: Tuple[str, ...]
    apps: Tuple[str, ...]
    duration_s: float           # simulated seconds per run
    observability: bool = False
    fault_plans: bool = False   # CHAOS_RULES[run] seeded per run (implies supervision)
    replay: bool = False        # offline Table V replay + VIO ATE after each run
    rounds: int = 1             # the grid is run this many times, each with its own seeds

    @property
    def runs(self) -> int:
        return len(self.platforms) * len(self.apps) * self.rounds


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="grid-model",
            why=(
                "Fig. 3-7/Table IV path: 3 platforms x 4 apps, model fidelity, 2 sim-s each; "
                "stresses DES engine, scheduler, switchboard, timing and spline sampling"
            ),
            fidelity="model",
            platforms=ALL_PLATFORMS,
            apps=ALL_APPS,
            duration_s=2.0,
        ),
        Workload(
            name="pose-full",
            why=(
                "desktop/sponza at full fidelity for 6 sim-s, then the Table V replay; "
                "stresses VIO, RK4, IMU synthesis, audio DSP, renderer, SSIM and FLIP"
            ),
            fidelity="full",
            platforms=("desktop",),
            apps=("sponza",),
            duration_s=6.0,
            replay=True,
        ),
        Workload(
            name="chaos-traced",
            why=(
                "3x4 grid x 6 seeds, model fidelity, 1.5 sim-s, observability on, seeded fault plans; "
                "known defects c (stale-notice ValueError) and d (NaN summary) count as failed runs"
            ),
            fidelity="model",
            platforms=ALL_PLATFORMS,
            apps=ALL_APPS,
            duration_s=1.5,
            observability=True,
            fault_plans=True,
            # Defect c ends a seed-dependent 0-3 of the grid's runs early,
            # each costing about 0.035 of mtp_vr_met_frac.  Over 60 seeds
            # one grid's fraction spread by 0.09 (p90 0.12-0.14) of its
            # median, six grids' by 0.04 (p90 0.05); at 1.5 sim-s per run
            # defect c is as frequent as at 3 and a grid costs half as much.
            rounds=6,
        ),
    )
}


# Fault rules of the chaos batch, one entry per run in grid order
# (platforms x apps), the same in every round.  Each rule is (kind,
# target, rate) plus the delay in seconds for "delay" or the stall length
# in deadlines for "stall".  The rules are fixed and only the plan seed
# comes from --seed, so a seed changes which events are hit, not how hard
# the batch is hit: with random_fault_plan's per-seed rule draws the
# batch's MTP fractions spread by 25-41% of their median across five
# seeds.  Every fault kind appears; desktop/ar_demo hangs its renderer on
# every frame (ROADMAP defect b) and jetson-lp/materials crash-loops VIO
# into quarantine.
CHAOS_RULES: Tuple[Tuple[tuple, ...], ...] = (
    (("drop", "imu", 0.05), ("crash", "vio", 0.10)),
    (("delay", "camera", 0.10, 0.01), ("stall", "application", 0.05, 2.0)),
    (("duplicate", "fast_pose", 0.10), ("corrupt", "camera", 0.10)),
    (("stall", "application", 1.0, 6.0), ("delay", "frame", 0.10, 0.005)),
    (("stall", "vio", 0.10, 3.0), ("drop", "frame", 0.05)),
    (("crash", "application", 0.05), ("duplicate", "imu", 0.10)),
    (("corrupt", "slow_pose", 0.05), ("stall", "camera", 0.10, 2.0)),
    (("delay", "fast_pose", 0.10, 0.01), ("crash", "camera", 0.05)),
    (("drop", "camera", 0.10), ("stall", "integrator", 0.02, 1.5)),
    (("corrupt", "imu", 0.02), ("crash", "vio", 1.0)),
    (("stall", "application", 0.10, 3.0), ("duplicate", "slow_pose", 0.10)),
    (("delay", "imu", 0.05, 0.005), ("drop", "fast_pose", 0.10), ("crash", "integrator", 0.02)),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str        # "higher" | "lower"
    kind: str          # "host" (host time/memory, noisy) | "sim" (simulated, deterministic per seed)
    moves: str = ""    # per-layer only: the end-to-end metric and workload it should move
    bound: float = 0.0  # end-to-end only: allowed worsening as a share of the parent's median


# The end-to-end metrics are the ones that hold still from run to run on
# the host this benchmark was tuned on, a shared 2-core VM with no PMU: it
# drifts by 20-40% in speed over minutes, so over ten seeds the fastest-of
# host time of a batch spread by up to 0.28 of its median (sim_s_per_wall_s
# on grid-model and chaos-traced), above the largest bound a metric may
# have (0.25).  Throughput is therefore reported with the whole-batch
# figures among the per-layer metrics, unbounded; setup_s must stay here.
# mtp_vr_met_frac is simulated, but on chaos-traced it varies across
# seeds because defect c ends a varying number of runs early; the chaos
# batch runs six rounds of the grid to average that out.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", bound=0.1),
    Metric("mtp_vr_met_frac", "ratio", "higher", "sim", bound=0.2),
    Metric("mtp_ar_met_frac", "ratio", "higher", "sim", bound=0.1),
)

_SIM_RATE = "sim_s_per_wall_s on grid-model and chaos-traced"
_FULL_RATE = "sim_s_per_wall_s on pose-full"
_REPLAY = "host_s_per_sim_s (replay) on pose-full; zero elsewhere"
_CHAOS = "failed_run_frac and mtp_vr_met_frac on chaos-traced"

PER_LAYER: Tuple[Metric, ...] = (
    # Whole-batch throughput, from the untraced batches (fastest repetition
    # of each run, summed): the numbers the layer metrics below explain.
    Metric("sim_s_per_wall_s", "s/s", "higher", "host", "simulated s reached in Runtime.run per host s"),
    Metric("host_s_per_sim_s", "s/s", "lower", "host", "whole batch (build, run, checks, replay) per simulated s"),
    Metric("sim.events", "count", "lower", "sim", _SIM_RATE),
    Metric("sim.dispatch_self_s", "s", "lower", "host", _SIM_RATE),
    Metric("sim.host_us_per_event", "us", "lower", "host", _SIM_RATE),
    Metric("sim.cpu_util", "ratio", "lower", "sim", "mtp_*_met_frac on grid-model"),
    Metric("sim.gpu_util", "ratio", "lower", "sim", "mtp_*_met_frac on grid-model"),
    Metric("core.switchboard.publishes", "count", "lower", "sim", _SIM_RATE),
    Metric("core.switchboard.put_s", "s", "lower", "host", _SIM_RATE),
    Metric("core.switchboard.reads", "count", "lower", "sim", _SIM_RATE),
    Metric("core.switchboard.read_s", "s", "lower", "host", _SIM_RATE),
    Metric("core.scheduler.invocations", "count", "higher", "sim", "mtp_*_met_frac on grid-model"),
    Metric("core.scheduler.drops", "count", "lower", "sim", "mtp_*_met_frac on grid-model"),
    Metric("core.scheduler.killed_frac", "ratio", "lower", "sim", _CHAOS),
    Metric("core.scheduler.deadline_miss_frac", "ratio", "lower", "sim", "mtp_*_met_frac on grid-model"),
    Metric("core.scheduler.sim_wait_ms_mean", "ms", "lower", "sim", "mtp_*_met_frac on grid-model"),
    Metric("hardware.timing.samples", "count", "lower", "sim", "sim_s_per_wall_s on grid-model"),
    Metric("hardware.timing.sample_s", "s", "lower", "host", "sim_s_per_wall_s on grid-model"),
) + tuple(
    m
    for plugin, moves in (
        ("camera", _FULL_RATE),
        ("imu", _FULL_RATE),
        ("vio", _FULL_RATE),
        ("integrator", "sim_s_per_wall_s on pose-full and grid-model"),
        ("application", "sim_s_per_wall_s on grid-model"),
        ("timewarp", "sim_s_per_wall_s on grid-model"),
        ("audio_encoding", _FULL_RATE),
        ("audio_playback", _FULL_RATE),
    )
    for m in (
        Metric(f"plugins.{plugin}.calls", "count", "lower", "sim", moves),
        Metric(f"plugins.{plugin}.host_s", "s", "lower", "host", moves),
    )
) + (
    Metric("maths.spline.samples", "count", "lower", "sim", "sim_s_per_wall_s on grid-model"),
    Metric("maths.spline.sample_s", "s", "lower", "host", "sim_s_per_wall_s on grid-model"),
    Metric("perception.vio.frames", "count", "higher", "sim", _FULL_RATE),
    Metric("perception.vio.frame_s", "s", "lower", "host", _FULL_RATE),
    Metric("perception.vio.imu_s", "s", "lower", "host", _FULL_RATE),
    Metric("perception.vio.frame_accept_frac", "ratio", "higher", "sim", f"{_FULL_RATE} and pose_ate_cm"),
    Metric("perception.integrator.steps", "count", "lower", "sim", _FULL_RATE),
    Metric("perception.integrator.step_s", "s", "lower", "host", _FULL_RATE),
    Metric("perception.integrator.steps_per_pose", "ratio", "lower", "sim", _FULL_RATE),
    Metric("sensors.imu.samples", "count", "lower", "sim", _FULL_RATE),
    Metric("sensors.imu.sample_s", "s", "lower", "host", _FULL_RATE),
    Metric("sensors.camera.observe_s", "s", "lower", "host", _FULL_RATE),
    Metric("audio.encode_s", "s", "lower", "host", _FULL_RATE),
    Metric("audio.render_s", "s", "lower", "host", _FULL_RATE),
    Metric("visual.renderer.render_s", "s", "lower", "host", _REPLAY),
    Metric("visual.reprojection_s", "s", "lower", "host", _REPLAY),
    Metric("metrics.ssim_s", "s", "lower", "host", _REPLAY),
    Metric("metrics.flip_s", "s", "lower", "host", _REPLAY),
    Metric("obs.spans", "count", "lower", "sim", "sim_s_per_wall_s and peak_rss_mb on chaos-traced"),
    Metric("obs.hook_s", "s", "lower", "host", "sim_s_per_wall_s on chaos-traced; no change on grid-model"),
    Metric("resilience.faults_injected", "count", "lower", "sim", _CHAOS),
    Metric("resilience.retries", "count", "lower", "sim", _CHAOS),
    Metric("resilience.hangs", "count", "lower", "sim", _CHAOS),
    Metric("resilience.quarantines", "count", "lower", "sim", _CHAOS),
    Metric("resilience.dead_letters", "count", "lower", "sim", _CHAOS),
    Metric("resilience.host_s", "s", "lower", "host", _CHAOS),
    # Whole-batch figures; the pose-full ones are zero elsewhere, so they
    # cannot be end-to-end metrics, which every workload must report.
    Metric("failed_run_frac", "ratio", "lower", "sim", "runs that raised or failed a check / distinct runs in the batch"),
    Metric("trace_overhead_frac", "ratio", "lower", "host", "traced batch host time / untraced - 1"),
    Metric("replay_frames_per_s", "1/s", "higher", "host", "Table V frames replayed per host second; pose-full"),
    Metric("pose_ate_cm", "cm", "lower", "sim", "VIO absolute trajectory error (RMSE); pose-full"),
    Metric("ssim_mean", "ratio", "higher", "sim", "Table V SSIM; pose-full"),
    Metric("one_minus_flip_mean", "ratio", "higher", "sim", "Table V 1-FLIP; pose-full"),
)

# Program defects (ROADMAP, supervision item) that the chaos workload is
# expected to expose.  A run failing with one of these signatures counts in
# ``failed`` but leaves ``correct`` true; any other failure makes it false.
KNOWN_DEFECTS: Dict[str, str] = {
    "c": "stale supervision notice re-delivered with an older timestamp: "
         "Runtime.run raises ValueError 'non-monotonic publish time'",
    "d": "a run with zero MTP samples reports NaN, so "
         "json.dumps(summary(), allow_nan=False) fails",
}
