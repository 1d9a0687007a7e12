"""Computational holography: Weighted Gerchberg-Saxton ([40], [42]).

Computes the phase pattern a spatial light modulator (SLM) would display
to present multiple focal planes to the user (the *adaptive display*
component).  Propagation between the hologram plane and each depth plane
uses the angular-spectrum method (FFT + transfer function); the weighted GS
iteration drives every plane toward its target amplitude while equalizing
energy across planes.

Task accounting mirrors Table VII's hologram rows: ``hologram_to_depth``
(forward propagations, ending in each plane's amplitude), ``sum``
(reducing the plane amplitudes to their means), and ``depth_to_hologram``
(backward propagations).

The solver stacks the per-depth transfer functions into one ``(D, N, N)``
array so a WGS iteration costs a *single* forward FFT of the hologram
(every plane shares it), one batched inverse FFT, one batched forward FFT
of the constrained fields, and one inverse FFT of their frequency-domain
sum.  Per-target masks, flat indices, and norms are cached across
iterations, and the WGS weights live only on the in-target pixels
(weights elsewhere multiply a zero target and cannot affect the result).

The original per-plane formulation (``D`` forward and ``D`` backward FFT
pairs per iteration, built on :meth:`WeightedGerchbergSaxton.propagate`)
is kept as a test oracle in ``tests/kernel_oracles.py``;
``benchmarks/perf_harness.py`` times the two and checks parity.  On the
acceptance configuration (3 planes, 128^2, 10 iterations) the solver is
about 2x faster, with max phase deviation around 1e-10.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.kernel_span import kernel_span

TASK_NAMES = ("hologram_to_depth", "sum", "depth_to_hologram")


@dataclass(frozen=True)
class HologramResult:
    """Output of one WGS solve."""

    phase: np.ndarray                 # (N, N) SLM phase in [-pi, pi]
    plane_amplitudes: List[np.ndarray]
    efficiency: float                 # target-region energy fraction
    uniformity: float                 # 1 - (max-min)/(max+min) across planes
    iterations: int
    task_times: Dict[str, float]


@lru_cache(maxsize=64)
def _build_transfer_stack(
    resolution: int,
    wavelength_m: float,
    pixel_pitch_m: float,
    depths_m: Tuple[float, ...],
) -> np.ndarray:
    """Angular-spectrum transfer functions stacked as one (D, N, N) array.

    Cached, so solvers with equal optics share one read-only stack.
    """
    fx = np.fft.fftfreq(resolution, d=pixel_pitch_m)
    fxx, fyy = np.meshgrid(fx, fx)
    inv_lambda2 = 1.0 / wavelength_m**2
    arg = inv_lambda2 - fxx**2 - fyy**2
    propagating = arg > 0
    kz = 2 * np.pi * np.sqrt(np.where(propagating, arg, 0.0))
    stack = np.empty((len(depths_m), resolution, resolution), dtype=complex)
    for k, z in enumerate(depths_m):
        stack[k] = np.where(propagating, np.exp(1j * kz * z), 0.0)
    stack.flags.writeable = False
    return stack


@dataclass
class WeightedGerchbergSaxton:
    """Multi-plane WGS hologram solver on a square SLM."""

    resolution: int = 128
    wavelength_m: float = 520e-9
    pixel_pitch_m: float = 8e-6
    depths_m: Sequence[float] = (0.05, 0.10, 0.20)
    _transfer: Dict[float, np.ndarray] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.resolution < 16 or self.resolution & (self.resolution - 1):
            raise ValueError("resolution must be a power of two >= 16")
        if not self.depths_m:
            raise ValueError("need at least one depth plane")
        for z in self.depths_m:
            if z <= 0:
                raise ValueError(f"depth must be positive: {z}")
        self._transfer_stack = _build_transfer_stack(
            self.resolution,
            float(self.wavelength_m),
            float(self.pixel_pitch_m),
            tuple(float(z) for z in self.depths_m),
        )
        self._transfer_conj = np.conj(self._transfer_stack)
        for k, z in enumerate(self.depths_m):
            self._transfer[z] = self._transfer_stack[k]

    def propagate(self, field_in: np.ndarray, z: float, forward: bool = True) -> np.ndarray:
        """Angular-spectrum propagation over distance ``z``."""
        h = self._transfer[z]
        if not forward:
            h = np.conj(h)
        return np.fft.ifft2(np.fft.fft2(field_in) * h)

    def propagate_all(self, field_in: np.ndarray, forward: bool = True) -> np.ndarray:
        """Propagate one hologram field to every depth plane in one batch."""
        from scipy.fft import fft2, ifft2

        h = self._transfer_stack if forward else self._transfer_conj
        return ifft2(fft2(field_in)[None, :, :] * h)

    def _validated_targets(self, targets: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(targets) != len(self.depths_m):
            raise ValueError(
                f"{len(targets)} targets for {len(self.depths_m)} depth planes"
            )
        n = self.resolution
        targets = [np.asarray(t, dtype=float) for t in targets]
        for t in targets:
            if t.shape != (n, n):
                raise ValueError(f"target shape {t.shape} != ({n}, {n})")
            if t.min() < 0:
                raise ValueError("target amplitudes must be non-negative")
        return targets

    @kernel_span("hologram.solve")
    def solve(
        self, targets: Sequence[np.ndarray], iterations: int = 10, seed: int = 0
    ) -> HologramResult:
        """Run WGS for the per-plane target amplitude images."""
        from scipy.fft import fft2, ifft2

        targets = self._validated_targets(targets)
        n = self.resolution
        d = len(self.depths_m)
        task_times: Dict[str, float] = defaultdict(float)
        rng = np.random.default_rng(seed)
        phase = rng.uniform(-np.pi, np.pi, (n, n))

        # Normalize targets to unit energy so weighting is meaningful; cache
        # the per-plane masks, flat indices, and in-target values once.
        target_stack = np.stack(
            [t / max(np.sqrt((t**2).sum()), 1e-12) for t in targets]
        )
        flat_targets = target_stack.reshape(-1)
        plane_idx = [
            np.flatnonzero(target_stack[k].reshape(-1) > 0) + k * n * n
            for k in range(d)
        ]
        target_vals = [flat_targets[i] for i in plane_idx]
        has_target = [len(i) > 0 for i in plane_idx]
        masked_weights = [np.ones(len(i)) for i in plane_idx]
        h_conj = self._transfer_conj
        ratio = np.zeros(d * n * n)

        holo = np.exp(1j * phase)
        accumulated = None
        for _iteration in range(iterations):
            t0 = time.perf_counter()
            # Every plane shares the hologram's spectrum: one forward FFT,
            # one batched inverse FFT, instead of D separate FFT pairs.
            plane_fields = ifft2(fft2(holo)[None, :, :] * self._transfer_stack)
            # The propagation yields each plane's amplitude, read only on
            # the in-target pixels; ``sum`` is the reduction over them.
            field_flat = plane_fields.reshape(-1)
            masked_amps = [np.abs(field_flat[i]) for i in plane_idx]
            task_times["hologram_to_depth"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            plane_means = [
                float(a.mean()) if has_target[k] else 0.0
                for k, a in enumerate(masked_amps)
            ]
            mean_amp = sum(plane_means) / d
            task_times["sum"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            for k in range(d):
                # WGS weight update: boost planes that are lagging.  Weights
                # only matter where the target is nonzero, so they are
                # stored on the in-target pixels alone.
                if has_target[k] and plane_means[k] > 0:
                    masked_weights[k] = (
                        masked_weights[k]
                        * ((mean_amp + 1e-12) / (masked_amps[k] + 1e-12)) ** 0.5
                    )
                ratio[plane_idx[k]] = (
                    masked_weights[k]
                    * target_vals[k]
                    / np.maximum(masked_amps[k], 1e-300)
                )
            # constrained_k = w_k * t_k * exp(i*angle(f_k)) == f_k * ratio_k.
            constrained = plane_fields * ratio.reshape(d, n, n)
            # ifft2 is linear: sum the spectra, invert once.
            spectra = fft2(constrained)
            accumulated = ifft2(np.einsum("kij,kij->ij", spectra, h_conj))
            holo = accumulated / np.maximum(np.abs(accumulated), 1e-300)
            task_times["depth_to_hologram"] += time.perf_counter() - t0

        if accumulated is not None:
            phase = np.angle(accumulated)

        # Final forward pass for metrics (exp(i*phase), as the reference).
        final_fields = self.propagate_all(np.exp(1j * phase))
        final_amps = np.abs(final_fields)
        plane_amps = [final_amps[k] for k in range(d)]
        efficiencies = []
        plane_means = []
        for k in range(d):
            if not has_target[k]:
                continue
            local = plane_idx[k] - k * n * n
            amps_in_target = final_amps[k].reshape(-1)[local]
            total = float((final_amps[k] ** 2).sum())
            if total > 0:
                efficiencies.append(float((amps_in_target**2).sum()) / total)
                plane_means.append(float(amps_in_target.mean()))
        return self._result(phase, plane_amps, efficiencies, plane_means, iterations, task_times)

    @staticmethod
    def _result(
        phase: np.ndarray,
        plane_amps: List[np.ndarray],
        efficiencies: List[float],
        plane_means: List[float],
        iterations: int,
        task_times: Dict[str, float],
    ) -> HologramResult:
        efficiency = float(np.mean(efficiencies)) if efficiencies else 0.0
        if len(plane_means) >= 2:
            hi, lo = max(plane_means), min(plane_means)
            uniformity = 1.0 - (hi - lo) / (hi + lo + 1e-12)
        else:
            uniformity = 1.0
        return HologramResult(
            phase=phase,
            plane_amplitudes=plane_amps,
            efficiency=efficiency,
            uniformity=uniformity,
            iterations=iterations,
            task_times=dict(task_times),
        )


def focal_stack_from_frame(
    image: np.ndarray, depth: np.ndarray, depths_m: Sequence[float], resolution: int
) -> List[np.ndarray]:
    """Slice a rendered RGB-D frame into per-plane target amplitudes.

    Pixels are assigned to the nearest focal plane by depth; amplitude is
    the luminance.  This is how the adaptive display consumes the visual
    pipeline's output.
    """
    if image.ndim != 3:
        raise ValueError("expected an (H, W, 3) image")
    luminance = image @ np.array([0.2126, 0.7152, 0.0722])
    # Resize (nearest) to the SLM resolution.
    h, w = luminance.shape
    ys = (np.arange(resolution) * h // resolution).clip(0, h - 1)
    xs = (np.arange(resolution) * w // resolution).clip(0, w - 1)
    lum_r = luminance[np.ix_(ys, xs)]
    depth_r = depth[np.ix_(ys, xs)]
    # Map metric depth to focal planes on a log scale of 1/d.
    plane_edges = np.array(depths_m)
    targets = []
    assignment = np.argmin(
        np.abs(np.log(np.maximum(depth_r, 1e-3))[..., None] - np.log(plane_edges * 30.0)),
        axis=-1,
    )
    for k in range(len(depths_m)):
        target = np.where((assignment == k) & (depth_r > 0), lum_r, 0.0)
        targets.append(target)
    return targets
