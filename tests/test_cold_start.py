"""Cold start: building and running a model-fidelity runtime loads only what it needs.

Every experiment of the paper boots a fresh runtime, so import and build
time is paid once per run.  The runtime path imports numpy and
``scipy.special`` only; the heavier scipy packages belong to the kernels
that use them (SSIM/FLIP, distortion, reconstruction, hologram FFTs), and
the renderer's ray grid and the HRTF table are built on first use.  The
checks run in a fresh interpreter, since this test process has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.audio.playback import AudioPlayback
from repro.maths.se3 import Pose
from repro.visual.renderer import Renderer
from repro.visual.scenes import APPLICATIONS

SRC = Path(__file__).resolve().parent.parent / "src"

OFF_THE_RUNTIME_PATH = (
    "scipy.interpolate", "scipy.stats", "scipy.ndimage", "scipy.optimize", "scipy.fft",
)

_PROBE = """
import json, sys
from repro import PLATFORMS, FaultPlan, SystemConfig, build_runtime
from repro.plugins.audio import AudioPlaybackPlugin
from repro.plugins.visual import ApplicationPlugin

def plan():
    return FaultPlan(5).drop("imu", 0.1).delay("camera", 0.2, delay=0.004)

runtimes = [
    build_runtime(PLATFORMS[key], "sponza", SystemConfig(duration_s=0.3, fidelity="model"),
                  fault_plan=plan(), observability=True)
    for key in sorted(PLATFORMS)
]
loaded_after_build = sorted(m for m in sys.modules if m.startswith("scipy."))
runtime = runtimes[0]
runtime.run()
app = next(p for p in runtime.plugins if isinstance(p, ApplicationPlugin))
audio = next(p for p in runtime.plugins if isinstance(p, AudioPlaybackPlugin))
print(json.dumps({
    "loaded_after_build": loaded_after_build,
    "loaded_after_run": sorted(m for m in sys.modules if m.startswith("scipy.")),
    "blocks_rendered": audio.blocks_rendered,
    "ray_grid_built": "_rays_cam" in vars(app.renderer),
    "hrtf_built": "responses" in vars(audio.playback.hrtf),
    "decoder_built": "_decoder" in vars(audio.playback.hrtf),
}))
"""


def _probe() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _heavy(loaded):
    return sorted({".".join(m.split(".")[:2]) for m in loaded} & set(OFF_THE_RUNTIME_PATH))


def test_model_runtime_cold_start_skips_heavy_scipy_and_render_tables():
    report = _probe()
    assert _heavy(report["loaded_after_build"]) == []
    assert _heavy(report["loaded_after_run"]) == []
    # The run did reach the audio plugin, at model fidelity, without rendering.
    assert report["blocks_rendered"] > 0
    assert not report["ray_grid_built"]
    assert not report["hrtf_built"]
    assert not report["decoder_built"]


def test_render_tables_built_once_on_first_use():
    renderer = Renderer(APPLICATIONS["platformer"])
    assert "_rays_cam" not in vars(renderer)
    pose = Pose(np.array([0.0, 0.0, 1.6]))
    first = renderer.render(pose)
    rays = renderer._rays_cam
    assert rays.shape == (renderer.camera.width * renderer.camera.height, 3)
    second = renderer.render(pose)
    assert renderer._rays_cam is rays
    assert np.array_equal(first.image, second.image)

    playback = AudioPlayback()
    assert "responses" not in vars(playback.hrtf)
    soundfield = np.zeros(((playback.order + 1) ** 2, playback.block_size))
    playback.render_block(soundfield, pose)
    responses = playback.hrtf.responses
    playback.render_block(soundfield, pose)
    assert playback.hrtf.responses is responses
