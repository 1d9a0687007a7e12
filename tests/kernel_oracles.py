"""Reference formulations of the numeric kernels, kept as test oracles.

Each shipped kernel has one implementation; these are the straightforward
formulations it was derived from.  ``tests/test_perf.py`` checks parity
against them and ``benchmarks/perf_harness.py`` times the shipped kernel
against them:

- :func:`solve_reference` -- WGS with one forward and one backward FFT pair
  per depth plane and iteration (the shipped solver batches them; parity
  to atol 1e-8, since batching reassociates floating-point sums);
- :func:`integrate_reference` -- TSDF fusion projecting all ``N^3`` voxel
  centers (the shipped fusion frustum-culls voxel blocks first; bit-exact);
- :func:`flip_reference` -- FLIP filtering each image on its own (the
  shipped metric filters the reference/test pair in one call; bit-exact).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import Pose
from repro.metrics import flip as flip_module
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.sensors.depth import DepthCamera
from repro.visual.hologram import HologramResult, WeightedGerchbergSaxton


def solve_reference(
    solver: WeightedGerchbergSaxton,
    targets: Sequence[np.ndarray],
    iterations: int = 10,
    seed: int = 0,
) -> HologramResult:
    """Per-plane WGS on ``solver``'s optics, built on ``solver.propagate``."""
    targets = solver._validated_targets(targets)
    n = solver.resolution
    task_times: Dict[str, float] = defaultdict(float)
    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi, (n, n))
    weights = [np.ones((n, n)) for _ in targets]
    # Normalize targets to unit energy so weighting is meaningful.
    targets = [t / max(np.sqrt((t**2).sum()), 1e-12) for t in targets]

    plane_amps: List[np.ndarray] = [np.zeros((n, n)) for _ in targets]
    for _iteration in range(iterations):
        hologram_field = np.exp(1j * phase)
        plane_fields = []
        t0 = time.perf_counter()
        for z in solver.depths_m:
            plane_fields.append(solver.propagate(hologram_field, z, forward=True))
        task_times["hologram_to_depth"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        mean_amp = np.mean(
            [float(np.mean(np.abs(f)[t > 0])) if np.any(t > 0) else 0.0
             for f, t in zip(plane_fields, targets)]
        )
        task_times["sum"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        accumulated = np.zeros((n, n), dtype=complex)
        for k, (z, target) in enumerate(zip(solver.depths_m, targets)):
            amp = np.abs(plane_fields[k])
            plane_amps[k] = amp
            # WGS weight update: boost planes that are lagging; skipped when
            # the plane carries no energy in its target region.
            in_target = target > 0
            if np.any(in_target):
                plane_mean = float(np.mean(amp[in_target]))
                if plane_mean > 0:
                    weights[k] = weights[k] * np.where(
                        in_target, (mean_amp + 1e-12) / (amp + 1e-12), 1.0
                    ) ** 0.5
            constrained = weights[k] * target * np.exp(1j * np.angle(plane_fields[k]))
            accumulated += solver.propagate(constrained, z, forward=False)
        phase = np.angle(accumulated)
        task_times["depth_to_hologram"] += time.perf_counter() - t0

    # Final forward pass for metrics.
    hologram_field = np.exp(1j * phase)
    efficiencies = []
    plane_means = []
    for k, (z, target) in enumerate(zip(solver.depths_m, targets)):
        f = solver.propagate(hologram_field, z, forward=True)
        plane_amps[k] = np.abs(f)
        in_target = target > 0
        total = float((np.abs(f) ** 2).sum())
        if np.any(in_target) and total > 0:
            efficiencies.append(float((np.abs(f)[in_target] ** 2).sum()) / total)
            plane_means.append(float(np.mean(np.abs(f)[in_target])))
    return solver._result(phase, plane_amps, efficiencies, plane_means, iterations, task_times)


def integrate_reference(
    volume: TsdfVolume, depth: np.ndarray, pose: Pose, camera: DepthCamera
) -> int:
    """Fuse one depth frame into ``volume`` by projecting every voxel center."""
    r_wb = quat_to_matrix(pose.orientation)
    r_cw = camera._r_cam_body @ r_wb.T
    t = -r_cw @ pose.position
    cam = volume._centers @ r_cw.T + t
    z = cam[:, 2]
    in_front = z > 1e-3
    u = np.full(len(z), -1.0)
    v = np.full(len(z), -1.0)
    zs = np.where(in_front, z, 1.0)
    u[in_front] = (camera.fx * cam[in_front, 0] / zs[in_front]) + camera.cx
    v[in_front] = (camera.fy * cam[in_front, 1] / zs[in_front]) + camera.cy
    ui = np.round(u).astype(int)
    vi = np.round(v).astype(int)
    in_image = (
        in_front
        & (ui >= 0)
        & (ui < camera.width)
        & (vi >= 0)
        & (vi < camera.height)
    )
    measured = np.zeros(len(z))
    measured[in_image] = depth[vi[in_image], ui[in_image]]
    valid = in_image & (measured > 1e-3)
    sdf = measured - z
    # Only fuse voxels in front of or just behind the surface.
    fuse = valid & (sdf > -volume.truncation_m)
    tsdf_new = np.clip(sdf / volume.truncation_m, -1.0, 1.0)

    flat_tsdf = volume.tsdf.reshape(-1)
    flat_weight = volume.weight.reshape(-1)
    w_old = flat_weight[fuse]
    w_new = np.minimum(w_old + 1.0, volume.max_weight)
    flat_tsdf[fuse] = (flat_tsdf[fuse] * w_old + tsdf_new[fuse]) / np.maximum(w_new, 1.0)
    flat_weight[fuse] = w_new
    return int(fuse.sum())


def _csf_filter(opponent: np.ndarray, ppd: float) -> np.ndarray:
    """Approximate CSF band-limiting of one image: chromatic channels blur more."""
    scale = ppd / flip_module.DEFAULT_PIXELS_PER_DEGREE
    out = np.empty_like(opponent)
    for c, sigma in enumerate(flip_module._CSF_SIGMAS):
        out[..., c] = gaussian_filter(opponent[..., c], sigma * max(scale, 0.25))
    return out


def _edges_points(y: np.ndarray, sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Edge and point responses of one achromatic channel."""
    gx = gaussian_filter(y, sigma, order=(0, 1))
    gy = gaussian_filter(y, sigma, order=(1, 0))
    edge = np.hypot(gx, gy)
    gxx = gaussian_filter(y, sigma, order=(0, 2))
    gyy = gaussian_filter(y, sigma, order=(2, 0))
    point = np.abs(gxx + gyy)
    return edge, point


def flip_reference(
    reference: np.ndarray,
    test: np.ndarray,
    pixels_per_degree: float = flip_module.DEFAULT_PIXELS_PER_DEGREE,
    full: bool = False,
):
    """FLIP with every Gaussian filter applied to one image at a time."""
    reference, test = flip_module._validated(reference, test, pixels_per_degree)
    opp_ref = _csf_filter(flip_module._to_opponent(reference), pixels_per_degree)
    opp_test = _csf_filter(flip_module._to_opponent(test), pixels_per_degree)
    sigma = flip_module._feature_sigma(pixels_per_degree)
    edge_ref, point_ref = _edges_points(opp_ref[..., 0], sigma)
    edge_test, point_test = _edges_points(opp_test[..., 0], sigma)
    feature_error = flip_module._feature_difference(edge_ref, point_ref, edge_test, point_test)
    error = flip_module._error_map(opp_ref, opp_test, feature_error)
    return error if full else float(error.mean())
