"""The runtime scheduler: plugins on a simulated platform (§II-B).

Each plugin becomes a driver process on the DES engine:

- :class:`~repro.core.plugin.Periodic` plugins tick at their period; a tick
  that finds the previous invocation still running is *dropped* (the
  frame-skip behaviour §IV-A1 observes for the application and
  reprojection on the Jetsons).
- :class:`~repro.core.plugin.OnTopic` plugins run when their producer
  publishes (the synchronous dependences of Fig. 2); publishes that arrive
  while busy are dropped (the consumer will pick up the latest data on its
  next run, which is how VIO falls behind the camera).
- :class:`~repro.core.plugin.OnVsync` plugins start ``lead`` seconds before
  each vsync so they read the freshest pose (footnote 5); their outputs are
  released at the vsync at/after completion, and the wait is reported as
  the swap time for MTP.

An invocation occupies one CPU core for its sampled ``cpu_time`` and then
the GPU for ``gpu_time``; contention for those resources -- not added
noise -- produces the execution-time variability of Fig. 4.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Callable, Dict, Optional

from repro.core.plugin import InvocationContext, IterationResult, OnTopic, OnVsync, Periodic, Plugin
from repro.core.records import InvocationRecord, RecordLogger
from repro.core.switchboard import Switchboard
from repro.hardware.platform import Platform
from repro.hardware.timing import CostSample, TimingModel
from repro.sim.engine import Engine, Interrupt
from repro.sim.resources import Resource


class Scheduler:
    """Drives all plugins on the simulated platform."""

    def __init__(
        self,
        engine: Engine,
        platform: Platform,
        timing: TimingModel,
        switchboard: Switchboard,
        logger: RecordLogger,
        app_name: Optional[str] = None,
        dilation: Optional[Dict[str, float]] = None,
        injector=None,
        supervisor=None,
        observability=None,
    ) -> None:
        self.engine = engine
        self.platform = platform
        self.timing = timing
        self.switchboard = switchboard
        self.logger = logger
        self.app_name = app_name
        # Resilience hooks (repro.resilience): both default to None, in
        # which case every hook below is one attribute load and a branch.
        self.injector = injector
        self.supervisor = supervisor
        # Observability (repro.obs): wraps every invocation in a causal
        # span and feeds the scheduler metrics.  None-check discipline.
        self.obs = observability
        self.cpu = Resource(engine, platform.cpu_cores, name="cpu")
        self.gpu = Resource(engine, platform.gpu_concurrency, name="gpu")
        # GPU preemption granularity (draw-call/kernel boundary timeslice).
        self.gpu_quantum = 2.0e-3
        # Per-component clock dilation (§V.G, evaluation-tools idea 3):
        # a component whose detailed model runs in an external simulator
        # can be slowed by a factor so the rest of the system experiences
        # its simulated-speed behaviour (hybrid real+simulated systems).
        self.dilation: Dict[str, float] = dict(dilation or {})
        for component, factor in self.dilation.items():
            if factor <= 0:
                raise ValueError(f"dilation for {component!r} must be positive")
        self._busy: Dict[str, bool] = {}
        self._indices: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def add_plugin(self, plugin: Plugin) -> None:
        """Register a plugin's driver according to its trigger."""
        self._busy[plugin.name] = False
        self._indices[plugin.name] = 0
        trigger = plugin.trigger
        if isinstance(trigger, Periodic):
            self.engine.process(self._periodic_driver(plugin, trigger), name=plugin.name)
        elif isinstance(trigger, OnVsync):
            self.engine.process(self._vsync_driver(plugin, trigger), name=plugin.name)
        elif isinstance(trigger, OnTopic):
            self._install_topic_driver(plugin, trigger)
        else:
            raise TypeError(f"unknown trigger type: {trigger!r}")

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------

    def _periodic_driver(self, plugin: Plugin, trigger: Periodic):
        period = trigger.period
        tick = 0
        while True:
            scheduled = tick * period
            if scheduled > self.engine.now:
                yield self.engine.timeout(scheduled - self.engine.now)
            if not self._fire(plugin, scheduled, period, name=f"{plugin.name}#{tick}"):
                return
            tick += 1

    def _vsync_driver(self, plugin: Plugin, trigger: OnVsync):
        period = trigger.period
        tick = 1
        while True:
            vsync = tick * period
            start_at = vsync - trigger.lead
            if start_at > self.engine.now:
                yield self.engine.timeout(start_at - self.engine.now)
            # Deadline = the lead: finishing after it means the vsync was
            # missed and the frame slips to the next one.
            if not self._fire(
                plugin, start_at, trigger.lead, vsync_period=period, name=f"{plugin.name}#{tick}"
            ):
                return
            tick += 1

    def _install_topic_driver(self, plugin: Plugin, trigger: OnTopic) -> None:
        def on_publish(event) -> None:
            now = self.engine.now
            self._fire(plugin, now, None, trigger_event=event, name=f"{plugin.name}@{now:.4f}")

        self.switchboard.topic(trigger.topic).subscribe_callback(on_publish)

    def _fire(
        self,
        plugin: Plugin,
        scheduled_at: float,
        deadline: Optional[float],
        vsync_period: Optional[float] = None,
        trigger_event=None,
        name: str = "",
    ) -> bool:
        """Launch one invocation, or log a drop if the plugin is still busy.

        Returns False once the plugin is quarantined: quarantine is
        terminal, so drivers stop (and a dead plugin logs no drops).  A
        supervised invocation gets a watchdog armed against hangs.
        """
        supervisor = self.supervisor
        if supervisor is not None and supervisor.is_quarantined(plugin.name):
            return False
        if self._busy[plugin.name]:
            self.logger.log_drop(plugin.name, scheduled_at)
            if self.obs is not None:
                self.obs.on_scheduler_drop(plugin.name, scheduled_at)
            return True
        # Busy from now, before any other same-timestamp trigger fires.
        self._busy[plugin.name] = True
        process = self.engine.process(
            self._invocation(plugin, scheduled_at, deadline, vsync_period, trigger_event),
            name=name,
        )
        if supervisor is None:
            return True
        timeout = supervisor.watchdog_timeout(deadline)

        def watchdog_check() -> None:
            if process.is_alive:
                supervisor.record_failure(
                    plugin.name,
                    self.engine.now,
                    TimeoutError(f"hung > {timeout:.4f}s"),
                    kind="hang",
                )
                process.interrupt("watchdog")

        self.engine.call_later(timeout, watchdog_check)
        return True

    # ------------------------------------------------------------------
    # One invocation
    # ------------------------------------------------------------------

    def _activate(self, span):
        """Make ``span`` (observability only) current around synchronous
        work, so topic reads become lineage links and publishes carry its
        trace context.  Never held across a yield."""
        return self.obs.tracer.activate(span) if span is not None else nullcontext()

    def _run_iteration(self, plugin: Plugin, index: int, trigger_event, span=None):
        """Run ``plugin.iteration`` under supervision (crash/retry/quarantine).

        Returns the :class:`IterationResult`, or None when the invocation
        was abandoned (quarantined, or retries exhausted).  Unsupervised,
        this is exactly one ``iteration`` call and exceptions propagate.
        """
        injector = self.injector
        supervisor = self.supervisor
        skew = injector.clock_skew(plugin.component) if injector is not None else 0.0
        attempt = 0
        while True:
            ctx = InvocationContext(
                now=self.engine.now + skew, index=index, trigger_event=trigger_event
            )
            try:
                if injector is not None:
                    injector.check_crash(plugin.name, index, self.engine.now, attempt)
                if span is not None:
                    self.obs.note_attempt(span, ctx.now, attempt)
                with self._activate(span):
                    result = plugin.iteration(ctx)
            except Interrupt:
                raise
            except Exception as exc:
                if span is not None:
                    self.obs.on_attempt_error(span, self.engine.now, exc)
                if supervisor is None:
                    self._busy[plugin.name] = False
                    raise
                action = supervisor.record_failure(plugin.name, self.engine.now, exc)
                if (
                    action == "quarantine"
                    or attempt >= supervisor.config.max_retries_per_invocation
                ):
                    if trigger_event is not None:
                        # Poison event: route it to the dead-letter topic
                        # instead of killing (or crash-looping) the reader.
                        supervisor.dead_letter(plugin.name, self.engine.now, trigger_event, exc)
                    return None
                delay = supervisor.backoff_delay(plugin.name)
                supervisor.record_retry(plugin.name, self.engine.now, delay)
                if delay > 0:
                    yield self.engine.timeout(delay)
                plugin.reset(exc)
                attempt += 1
                continue
            if supervisor is not None:
                supervisor.on_success(plugin.name)
            return result

    def _invocation(
        self,
        plugin: Plugin,
        scheduled_at: float,
        deadline: Optional[float],
        vsync_period: Optional[float] = None,
        trigger_event=None,
    ):
        index = self._indices[plugin.name]
        self._indices[plugin.name] += 1
        start = self.engine.now
        obs = self.obs
        span = (
            obs.begin_invocation(plugin, start, trigger_event, index)
            if obs is not None
            else None
        )
        # Resource slots currently held, so a watchdog kill can reclaim
        # them (a hung invocation must not leak a CPU core or the GPU).
        held: list = []
        swap_time: Optional[float] = None
        killed = False
        try:
            result: Optional[IterationResult] = yield from self._run_iteration(
                plugin, index, trigger_event, span=span
            )
            if result is None or result.skipped:
                if span is not None:
                    obs.end_invocation(span, self.engine.now)
                self._busy[plugin.name] = False
                return

            cost = self.timing.sample(
                plugin.component,
                app=self.app_name if plugin.component == "application" else None,
                complexity=max(result.complexity, 1e-3),
            )
            dilation = self.dilation.get(plugin.component, 1.0)
            if dilation != 1.0:
                cost = CostSample(cost.cpu_time * dilation, cost.gpu_time * dilation)

            # Injected stall: the plugin wedges for N deadline-ticks while
            # holding no resource (a blocked syscall / driver hiccup).
            # Long stalls trip the watchdog.
            if self.injector is not None:
                stall = self.injector.stall_time(plugin.name, index, self.engine.now, deadline)
                if stall > 0:
                    yield self.engine.timeout(stall)

            # CPU phase: occupy one core.
            request = self.cpu.request()
            held.append((self.cpu, request))
            yield request
            yield self.engine.timeout(cost.cpu_time)
            self.cpu.release(request)
            held.pop()

            # GPU phase (if any): occupy the GPU in timeslice quanta so a
            # high-priority client (the compositor's reprojection context) can
            # jump in at quantum boundaries instead of waiting out a whole
            # application frame.
            if cost.gpu_time > 0:
                if self.platform.gpu_priority_contexts:
                    # Discrete GPU: fine-grained timeslicing + priority contexts.
                    priority = getattr(plugin, "gpu_priority", 0)
                    quantum = self.gpu_quantum
                else:
                    # Integrated GPU: clients yield only at draw-call boundaries,
                    # and draws scale with scene complexity -- so a heavy app
                    # blocks the compositor for longer stretches (the Jetsons'
                    # app-dependent MTP degradation, Table IV).
                    priority = 0
                    quantum = max(0.5e-3, cost.gpu_time / 10.0)
                remaining = cost.gpu_time
                while remaining > 1e-12:
                    slice_time = min(remaining, quantum)
                    gpu_request = self.gpu.request(priority=priority)
                    held.append((self.gpu, gpu_request))
                    yield gpu_request
                    yield self.engine.timeout(slice_time)
                    self.gpu.release(gpu_request)
                    held.pop()
                    remaining -= slice_time

            # Resource-free delay: an offloaded component's remote compute and
            # network round trip (no local CPU/GPU is held).
            if result.extra_delay > 0:
                yield self.engine.timeout(result.extra_delay)

            end = self.engine.now
            # Output release: vsync-aligned plugins hold results to the vsync.
            if vsync_period is not None:
                swap_time = math.ceil(end / vsync_period - 1e-9) * vsync_period
                if swap_time > end:
                    yield self.engine.timeout(swap_time - end)
        except Interrupt:
            # Watchdog kill: reclaim any held slots.  The killed record
            # carries no cost (the slots were reclaimed) and no swap.
            for resource, pending in held:
                resource.cancel(pending)
            killed, end = True, self.engine.now
            cost, swap_time = CostSample(0.0, 0.0), None
        else:
            with self._activate(span):
                for output in result.outputs:
                    self.switchboard.topic(output.topic).put(
                        self.engine.now, output.data, data_time=output.data_time
                    )

        # A killed invocation never met its deadline, whatever the clock says.
        record = InvocationRecord(
            plugin=plugin.name,
            component=plugin.component,
            pipeline=plugin.pipeline,
            index=index,
            scheduled_at=scheduled_at,
            start=start,
            end=end,
            cpu_time=cost.cpu_time,
            gpu_time=cost.gpu_time,
            deadline=deadline,
            missed_deadline=deadline is not None and (killed or end - scheduled_at > deadline),
            killed=killed,
            swap_time=swap_time,
        )
        if span is not None:
            obs.end_invocation(span, end, record)
        self.logger.log(record)
        on_complete: Optional[Callable[[InvocationRecord], None]] = getattr(
            plugin, "on_complete", None
        )
        if on_complete is not None and not killed:
            on_complete(record)
        self._busy[plugin.name] = False

    # ------------------------------------------------------------------

    def utilization(self) -> Dict[str, float]:
        """Mean CPU and GPU utilization so far."""
        return {"cpu": self.cpu.utilization(), "gpu": self.gpu.utilization()}
