"""Quality-of-experience metrics (§II-C of the paper).

- :mod:`repro.metrics.mtp` -- motion-to-photon latency;
- :mod:`repro.metrics.ssim` -- Structural Similarity Index;
- :mod:`repro.metrics.flip` -- the FLIP image-difference metric
  (reported as 1-FLIP for consistency with SSIM);
- :mod:`repro.metrics.trajectory` -- absolute/relative trajectory error;
- :mod:`repro.metrics.qoe` -- offline image-quality evaluation harness
  (the actual-vs-idealized comparison of §III-E).

SSIM and FLIP are not re-exported here: import them from their submodules,
so that loading the MTP metrics does not pull in ``scipy.ndimage``.
"""

from repro.metrics.mtp import MtpSample, MtpSummary, summarize_mtp
from repro.metrics.temporal import TemporalQuality, audio_spatial_similarity, temporal_quality
from repro.metrics.trajectory import absolute_trajectory_error, relative_pose_error

__all__ = [
    "MtpSample",
    "MtpSummary",
    "absolute_trajectory_error",
    "relative_pose_error",
    "summarize_mtp",
    "TemporalQuality",
    "audio_spatial_similarity",
    "temporal_quality",
]
