"""Tests for the hot-path acceleration layer (``repro.perf``).

Two kinds of guarantees:

- **Parity**: every accelerated kernel must reproduce its retained
  reference implementation — bit-exact where the rewrite only reorders
  memory access (TSDF culling, batched Gaussian filters), and to
  atol 1e-8 where FFT batching reassociates floating-point sums (WGS).
- **Utilities**: the plan cache and the profiling hooks behave as
  documented.
"""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from repro.maths.se3 import Pose
from repro.metrics.flip import flip
from repro.metrics.ssim import ssim
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.perf import (
    PlanCache,
    batched_fft2,
    batched_ifft2,
    enable_profiling,
    fft2,
    ifft2,
    profile_summary,
    profiled,
    profiling_enabled,
    reset_profile,
)
from repro.sensors.depth import DepthCamera, DepthScene
from repro.visual.hologram import WeightedGerchbergSaxton


# ---------------------------------------------------------------------------
# FFT helpers
# ---------------------------------------------------------------------------


def test_fft_roundtrip_matches_numpy():
    rng = np.random.default_rng(0)
    field = rng.random((16, 16)) + 1j * rng.random((16, 16))
    assert np.allclose(fft2(field), np.fft.fft2(field), atol=1e-12)
    assert np.allclose(ifft2(fft2(field)), field, atol=1e-12)


def test_batched_fft_matches_per_slice():
    rng = np.random.default_rng(1)
    stack = rng.random((3, 8, 8)) + 1j * rng.random((3, 8, 8))
    batched = batched_fft2(stack)
    for k in range(3):
        assert np.allclose(batched[k], fft2(stack[k]), atol=1e-12)
    assert np.allclose(batched_ifft2(batched), stack, atol=1e-12)


def test_batched_fft_rejects_low_rank():
    with pytest.raises(ValueError):
        batched_fft2(np.zeros(4))
    with pytest.raises(ValueError):
        batched_ifft2(np.zeros(4))


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wgs_accelerated_matches_reference(seed):
    depths = (0.05, 0.12)
    targets = _focal_targets(64, len(depths), seed)
    reference = WeightedGerchbergSaxton(
        resolution=64, depths_m=depths, accelerated=False
    )
    accelerated = WeightedGerchbergSaxton(
        resolution=64, depths_m=depths, accelerated=True
    )
    ref = reference.solve(targets, iterations=5, seed=seed)
    acc = accelerated.solve(targets, iterations=5, seed=seed)
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
    reference = WeightedGerchbergSaxton(
        resolution=64, depths_m=depths, accelerated=False
    )
    accelerated = WeightedGerchbergSaxton(
        resolution=64, depths_m=depths, accelerated=True
    )
    ref = reference.solve(targets, iterations=4, seed=5)
    acc = accelerated.solve(targets, iterations=4, seed=5)
    assert np.allclose(acc.phase, ref.phase, atol=1e-8)
    assert np.isfinite(acc.efficiency)


def test_wgs_transfer_stack_is_cached():
    a = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.12))
    b = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.12))
    assert a._transfer_stack is b._transfer_stack


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

    ref_volume = TsdfVolume(resolution=48, accelerated=False)
    acc_volume = TsdfVolume(resolution=48, accelerated=True)
    for depth, pose in zip(frames, poses):
        ref_volume.integrate(depth, pose, camera)
        acc_volume.integrate(depth, pose, camera)

    assert np.array_equal(ref_volume.tsdf, acc_volume.tsdf)
    assert np.array_equal(ref_volume.weight, acc_volume.weight)


def test_tsdf_culling_discards_blocks():
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    volume = TsdfVolume(resolution=48, accelerated=True)
    pose = _tsdf_poses()[0]
    visible = volume._visible_voxels(pose, camera)
    # The frustum of a 40x30 camera sees a small fraction of the room.
    assert 0 < visible.size < 0.5 * volume.resolution**3


def test_tsdf_block_edge_validation():
    with pytest.raises(ValueError):
        TsdfVolume(resolution=32, block_edge=1)


# ---------------------------------------------------------------------------
# Metrics: batched Gaussian filtering vs. reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def image_pair():
    rng = np.random.default_rng(11)
    reference = rng.random((48, 64, 3))
    test = np.clip(reference + rng.normal(0.0, 0.05, reference.shape), 0.0, 1.0)
    return reference, test


def test_ssim_batched_is_bit_exact_grayscale(image_pair):
    reference, test = (img[..., 0] for img in image_pair)
    assert ssim(reference, test, accelerated=True) == ssim(
        reference, test, accelerated=False
    )
    assert np.array_equal(
        ssim(reference, test, full=True, accelerated=True),
        ssim(reference, test, full=True, accelerated=False),
    )


def test_ssim_batched_is_bit_exact_color(image_pair):
    reference, test = image_pair
    assert ssim(reference, test, accelerated=True) == ssim(
        reference, test, accelerated=False
    )
    assert np.array_equal(
        ssim(reference, test, full=True, accelerated=True),
        ssim(reference, test, full=True, accelerated=False),
    )


def test_flip_batched_is_bit_exact(image_pair):
    reference, test = image_pair
    assert flip(reference, test, accelerated=True) == flip(
        reference, test, accelerated=False
    )
    assert np.array_equal(
        flip(reference, test, full=True, accelerated=True),
        flip(reference, test, full=True, accelerated=False),
    )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_builds_once():
    cache = PlanCache()
    calls = []
    build = lambda: calls.append(1) or np.ones(3)  # noqa: E731
    first = cache.get_or_build("k", build)
    second = cache.get_or_build("k", build)
    assert first is second
    assert len(calls) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert "k" in cache and len(cache) == 1


def test_plan_cache_evicts_oldest():
    cache = PlanCache(max_entries=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    cache.get_or_build("c", lambda: 3)
    assert "a" not in cache
    assert "b" in cache and "c" in cache


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------


def test_profiling_disabled_by_default_and_cheap():
    reset_profile()
    enable_profiling(False)

    @profiled
    def work():
        return 42

    assert work() == 42
    assert profile_summary() == {}


def test_profiling_records_calls():
    reset_profile()
    enable_profiling(True)
    try:

        @profiled("unit.work")
        def work():
            return 7

        work()
        work()
        summary = profile_summary()
        assert summary["unit.work"]["calls"] == 2
        assert summary["unit.work"]["total_s"] >= 0.0
        assert "mean_s" in summary["unit.work"]
    finally:
        enable_profiling(False)
        reset_profile()
    assert not profiling_enabled()
