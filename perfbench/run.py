"""End-to-end simulator benchmark.

Runs one workload (or ``all``) of :mod:`spec` for a fixed host-time
budget, checks every run's outputs, and prints each metric by name with
its unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation.  With ``--trace 1`` untraced and traced batches
alternate; the traced ones give the per-layer metrics, and the host-time
difference between the two is ``trace_overhead_frac``.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-model --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process: the batch is single-threaded by design, and a
# BLAS pool competing for the host's cores would add noise to host times.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
# Host seconds the calibration import takes on the 2-core VM this benchmark
# was tuned on (median of 74 probes); setup_s is given at that host speed.
CALIBRATION_S = 1.2

import layers  # noqa: E402  (the script's directory is on sys.path)
import spec  # noqa: E402
from spans import Instrumented, SpanRecorder  # noqa: E402
from workloads import best_of, build, cells, run_batch, unexpected  # noqa: E402


def probe(*args: str) -> float:
    """Host seconds printed by one fresh ``setup_probe.py`` interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> dict:
    """Set-up time (imports + every build_runtime) in fresh interpreters.

    The host's speed drifts by up to 1.5x over minutes, and set-up is
    mostly numpy/scipy imports, so each probe is paired with a calibration
    probe importing those modules; ``setup_s`` is the median of the pairs'
    ratios times ``CALIBRATION_S``.  Over 74 pairs this cut the spread of
    medians of ten from 1.39-1.48x to 1.07-1.10x (max/min).
    """
    pairs = [(probe(workload, str(seed)), probe("calibrate")) for _ in range(SETUP_PROBES)]
    return {
        "setup_s": statistics.median(p / c for p, c in pairs) * CALIBRATION_S,
        "setup_raw_s": statistics.median(p for p, _ in pairs),
        "calibration_s": statistics.median(c for _, c in pairs),
    }


def warm_up(workload: spec.Workload, seed: int) -> None:
    """One short untimed run of the first cell, so lazy imports are paid."""
    from repro.metrics.qoe import evaluate_image_quality

    _label, platform, app, config_seed = cells(workload, seed)[0]
    result = build(workload, 0, platform, app, config_seed, duration_s=0.7).run()
    if workload.replay:
        evaluate_image_quality(result, max_frames=2)


def whole_batch(untraced, failed: int, attempted: int) -> dict:
    """Whole-batch figures, reported as per-layer metrics (see spec.PER_LAYER)."""
    first = untraced[0]
    replay_s = best_of(untraced, "replay_s")
    return {
        "sim_s_per_wall_s": first.sim_s / best_of(untraced, "run_s"),
        "host_s_per_sim_s": best_of(untraced, "cell_s") / first.sim_s,
        "failed_run_frac": failed / attempted,
        "replay_frames_per_s": first.replay_frames / replay_s if replay_s else 0.0,
        "pose_ate_cm": first.table5.get("pose_ate_cm", 0.0),
        "ssim_mean": first.table5.get("ssim_mean", 0.0),
        "one_minus_flip_mean": first.table5.get("one_minus_flip_mean", 0.0),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = spec.WORKLOADS[name]
    warm_up(w, seed)
    setup = {} if trace else measure_setup(name, seed)
    untraced, traced, totals = [], [], []
    first_spans = None  # the first traced batch's spans, written out at the end
    start = time.perf_counter()
    # At least two batches, so every run checks that a repeat (untraced, or
    # traced from outside) gives the same fingerprint; after that, no round
    # starts that would end past the time budget.
    while True:
        round_start = time.perf_counter()
        untraced.append(run_batch(w, seed))
        if trace:
            recorder = SpanRecorder()
            with Instrumented(recorder, layers.TARGETS):
                traced.append(run_batch(w, seed, recorder))
            totals.append(recorder.totals())
            first_spans = first_spans or recorder
            del recorder
        now = time.perf_counter()
        if len(untraced) + len(traced) >= 2 and now - start + (now - round_start) > seconds:
            break

    batches = untraced + traced
    first = untraced[0]
    prints = sorted({b.fingerprint for b in batches})
    surprises = [f for b in batches for f in unexpected(b.failures)]
    # The base is the batch's distinct runs.  Every batch repeats the same
    # deterministic runs (the fingerprint proves it), and how many repeats
    # fit in the time budget depends on the host, so counting the repeats
    # would make ``attempted`` and ``failed`` differ between identical runs.
    repeatable = len(prints) == 1 and len({(b.runs, b.failed_runs) for b in batches}) == 1
    attempted = first.runs
    failed = first.failed_runs
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "shape": dataclasses.asdict(w),
        "batches": {"untraced": len(untraced), "traced": len(traced)},
        "fingerprint": prints[0] if len(prints) == 1 else prints,
        "failures": [vars(f) for f in first.failures],
    }
    whole = whole_batch(untraced, failed, attempted)
    if trace:
        metrics = {
            **layers.per_layer(totals, first, untraced_run_s=best_of(untraced, "run_s")),
            **whole,
            "trace_overhead_frac": best_of(traced, "cell_s") / best_of(untraced, "cell_s") - 1.0,
        }
        declared = spec.PER_LAYER
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mtp_vr_met_frac": first.vr_met / first.vsyncs,
            "mtp_ar_met_frac": first.ar_met / first.vsyncs,
        }
        declared = spec.END_TO_END
    if set(metrics) != {m.name for m in declared}:
        raise RuntimeError(f"metrics do not match spec: {sorted(set(metrics) ^ {m.name for m in declared})}")
    report["metrics"] = metrics
    report["whole_batch"] = whole
    report["setup"] = setup

    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"{w.runs} runs x {w.duration_s:g} sim-s, fidelity {w.fidelity}, "
          f"batches untraced {len(untraced)} traced {len(traced)}")
    for m in declared:
        print(f"  {m.name:38s} {metrics[m.name]:14.6g} {m.unit:6s} ({m.better} is better, {m.kind})")
    for key, value in {**whole, **setup}.items():
        if key not in metrics:
            print(f"  {key:38s} {value:14.6g}")
    print(f"  runs: {failed} of the batch's {attempted} raised or failed a check, in each of {len(batches)} batches")
    for f in first.failures:
        tag = f"known defect ({f.defect})" if f.defect else "UNEXPECTED"
        print(f"  failure [{tag}] {f.cell} {f.check}: {f.detail[:160]}")
    repeat = "identical across batches" if len(prints) == 1 else "DIFFERS between batches"
    print(f"  fingerprint {prints[0]} ({repeat})")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1, default=str))
    if first_spans is not None:
        first_spans.dump(str(OUT / f"spans-{name}.npz"))
    declared_units = {m.name: m.unit for m in declared}
    return {
        "correct": repeatable and not surprises,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared_units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    if args.workload == "all":
        # One fresh process per run, as for a single workload, so that
        # peak_rss_mb and the lazy imports belong to that run alone.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT,
            ).returncode
            for name in spec.WORKLOADS
            for trace in (0, 1)
        ]
        return max(codes)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
