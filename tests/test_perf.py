"""Parity of the numeric kernels against their oracles, and kernel spans.

- **Parity**: every kernel must reproduce the reference formulation kept
  in ``tests/kernel_oracles.py`` -- bit-exact where the rewrite only
  reorders memory access (TSDF culling, batched FLIP filters), and to
  atol 1e-8 where FFT batching reassociates floating-point sums (WGS).
- **Kernel spans**: a ``@kernel_span`` function records nothing unless a
  tracer has a span active (nesting is covered in ``tests/test_obs.py``).
"""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from repro.kernel_span import kernel_span
from repro.maths.se3 import Pose
from repro.metrics.flip import flip, one_minus_flip
from repro.metrics.ssim import ssim
from repro.obs import Tracer
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.sensors.depth import DepthCamera, DepthScene
from repro.visual.hologram import WeightedGerchbergSaxton, _build_transfer_stack
from tests.kernel_oracles import flip_reference, integrate_reference, solve_reference


# ---------------------------------------------------------------------------
# Hologram: batched WGS vs. reference
# ---------------------------------------------------------------------------


def _focal_targets(n, planes, seed):
    """Focal-stack-style targets: luminance partitioned across planes."""
    rng = np.random.default_rng(seed)
    depthmap = gaussian_filter(rng.random((n, n)), n / 16)
    edges = np.quantile(depthmap, [(k + 1) / planes for k in range(planes - 1)])
    assignment = np.digitize(depthmap, edges)
    luminance = gaussian_filter(rng.random((n, n)), 2)
    return [np.where(assignment == k, luminance, 0.0) for k in range(planes)]


def test_fft_roundtrip_matches_numpy():
    # propagate_all (scipy.fft) agrees with per-plane propagate (numpy.fft),
    # and backward propagation undoes forward propagation.
    solver = WeightedGerchbergSaxton(resolution=16, depths_m=(0.05, 0.12))
    rng = np.random.default_rng(0)
    field = rng.random((16, 16)) + 1j * rng.random((16, 16))
    forward = solver.propagate_all(field)
    for k, z in enumerate(solver.depths_m):
        assert np.allclose(forward[k], solver.propagate(field, z), atol=1e-12)
        back = solver.propagate_all(forward[k], forward=False)[k]
        assert np.allclose(back, field, atol=1e-12)


def test_batched_fft_matches_per_slice():
    # Backward propagation of one field to every plane equals the per-plane
    # conjugate transfer, slice by slice.
    solver = WeightedGerchbergSaxton(resolution=16, depths_m=(0.05, 0.10, 0.20))
    rng = np.random.default_rng(1)
    field = rng.random((16, 16)) + 1j * rng.random((16, 16))
    batched = solver.propagate_all(field, forward=False)
    for k, z in enumerate(solver.depths_m):
        assert np.allclose(batched[k], solver.propagate(field, z, forward=False), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_wgs_accelerated_matches_reference(seed):
    depths = (0.05, 0.12)
    targets = _focal_targets(64, len(depths), seed)
    solver = WeightedGerchbergSaxton(resolution=64, depths_m=depths)
    ref = solve_reference(solver, targets, iterations=5, seed=seed)
    acc = solver.solve(targets, iterations=5, seed=seed)
    assert np.allclose(acc.phase, ref.phase, atol=1e-8)
    for acc_amp, ref_amp in zip(acc.plane_amplitudes, ref.plane_amplitudes):
        assert np.allclose(acc_amp, ref_amp, atol=1e-8)
    assert acc.efficiency == pytest.approx(ref.efficiency, abs=1e-8)
    assert acc.uniformity == pytest.approx(ref.uniformity, abs=1e-8)
    assert set(acc.task_times) == set(ref.task_times)


def test_wgs_accelerated_handles_empty_plane():
    # A plane with no target pixels must not poison the weights.
    depths = (0.05, 0.12)
    targets = _focal_targets(64, 2, seed=5)
    targets[1] = np.zeros_like(targets[1])
    solver = WeightedGerchbergSaxton(resolution=64, depths_m=depths)
    ref = solve_reference(solver, targets, iterations=4, seed=5)
    acc = solver.solve(targets, iterations=4, seed=5)
    assert np.allclose(acc.phase, ref.phase, atol=1e-8)
    assert np.isfinite(acc.efficiency)


def test_wgs_transfer_stack_is_cached():
    a = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.12))
    b = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.12))
    assert a._transfer_stack is b._transfer_stack
    assert not a._transfer_stack.flags.writeable
    c = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.20))
    assert c._transfer_stack is not a._transfer_stack


def test_plan_cache_builds_once():
    depths = (0.05, 0.137)  # optics no other test uses
    before = _build_transfer_stack.cache_info()
    a = WeightedGerchbergSaxton(resolution=32, depths_m=depths)
    b = WeightedGerchbergSaxton(resolution=32, depths_m=depths)
    after = _build_transfer_stack.cache_info()
    assert a._transfer_stack is b._transfer_stack
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 1


# ---------------------------------------------------------------------------
# TSDF: frustum-culled integration vs. reference
# ---------------------------------------------------------------------------


def _tsdf_poses():
    return [
        Pose(
            np.array([0.5 + 0.1 * i, 0.2 - 0.05 * i, 1.6]),
            np.array([np.cos(0.1 * i), 0.0, 0.0, np.sin(0.1 * i)]),
        )
        for i in range(3)
    ]


def test_tsdf_culled_integration_is_bit_exact():
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    poses = _tsdf_poses()
    frames = [camera.render(p, noisy=False) for p in poses]

    ref_volume = TsdfVolume(resolution=48)
    acc_volume = TsdfVolume(resolution=48)
    for depth, pose in zip(frames, poses):
        assert acc_volume.integrate(depth, pose, camera) == integrate_reference(
            ref_volume, depth, pose, camera
        )

    assert np.array_equal(ref_volume.tsdf, acc_volume.tsdf)
    assert np.array_equal(ref_volume.weight, acc_volume.weight)


def test_tsdf_culling_discards_blocks():
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    volume = TsdfVolume(resolution=48)
    pose = _tsdf_poses()[0]
    visible = volume._visible_voxels(pose, camera)
    # The frustum of a 40x30 camera sees a small fraction of the room.
    assert 0 < visible.size < 0.5 * volume.resolution**3


# ---------------------------------------------------------------------------
# Metrics: batched FLIP filtering vs. per-image oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def image_pair():
    rng = np.random.default_rng(11)
    reference = rng.random((48, 64, 3))
    test = np.clip(reference + rng.normal(0.0, 0.05, reference.shape), 0.0, 1.0)
    return reference, test


def test_flip_batched_is_bit_exact(image_pair):
    reference, test = image_pair
    assert flip(reference, test) == flip_reference(reference, test)
    assert np.array_equal(
        flip(reference, test, full=True), flip_reference(reference, test, full=True)
    )
    assert flip(reference, test, pixels_per_degree=30.0) == flip_reference(
        reference, test, pixels_per_degree=30.0
    )


def test_one_minus_flip_rejects_unknown_options(image_pair):
    reference, test = image_pair
    with pytest.raises(TypeError):
        one_minus_flip(reference, test, accelerated=True)


def test_ssim_color_is_mean_of_channel_maps(image_pair):
    reference, test = image_pair
    channels = [ssim(reference[..., c], test[..., c], full=True) for c in range(3)]
    assert np.array_equal(ssim(reference, test, full=True), np.stack(channels, axis=-1))
    assert ssim(reference, test) == float(np.stack(channels, axis=-1).mean())


# ---------------------------------------------------------------------------
# Kernel spans
# ---------------------------------------------------------------------------


def test_kernel_span_outside_activation_emits_no_span():
    @kernel_span("unit.work")
    def work(x):
        return x + 1

    tracer = Tracer()
    root = tracer.start_span("root", track="unit")
    assert work(41) == 42
    assert work.__wrapped__(1) == 2
    with tracer.activate(root):
        pass
    assert work(1) == 2  # the activation has ended: still no span
    assert [s.name for s in tracer.spans] == ["root"]


def test_profiling_records_calls():
    @kernel_span("unit.work")
    def work():
        return 7

    tracer = Tracer()
    root = tracer.start_span("root", track="unit")
    with tracer.activate(root):
        assert work() == 7
        assert work() == 7
    calls = [s for s in tracer.spans if s.name == "unit.work"]
    assert len(calls) == 2
    assert all(s.kind == "kernel" and s.parent_id == root.span_id for s in calls)
    assert all(s.attributes["wall_s"] >= 0.0 for s in calls)
