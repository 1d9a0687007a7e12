"""EKF measurement machinery: Jacobians, nullspace projection, gating,
the Kalman update, and delayed SLAM-landmark initialization.

These are the linear-algebra kernels Table VI of the paper attributes to
the *MSCKF update* and *SLAM update* tasks (SVD/QR, Gauss-Newton residuals,
Jacobians, nullspace projection, chi-squared check, Cholesky solves).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import gammaincinv

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import skew
from repro.perception.vio.state import LANDMARK_DIM, VioState
from repro.perception.vio.tracker import Track
from repro.sensors.camera import CameraIntrinsics


@lru_cache(maxsize=512)
def chi2_threshold(dof: int, confidence: float = 0.95) -> float:
    """Cached inverse chi-squared CDF for gating.

    ``2 * gammaincinv(dof / 2, confidence)`` is how ``scipy.stats.chi2.ppf``
    computes it, so the result is the same to the bit without importing
    ``scipy.stats``.
    """
    if dof < 1:
        raise ValueError(f"dof must be >= 1: {dof}")
    return float(2 * gammaincinv(dof / 2, confidence))


def feature_jacobians(
    state: VioState,
    track: Track,
    feature_position: np.ndarray,
    intrinsics: CameraIntrinsics,
    baseline_m: float,
    r_cam_body: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stack residuals and Jacobians for one feature over its clone window.

    Returns ``(r, H_x, H_f)`` with 4 rows per clone (stereo u, v for both
    eyes), or None if no clone in the current window observed the feature.
    """
    rows_r: List[float] = []
    rows_hx: List[np.ndarray] = []
    rows_hf: List[np.ndarray] = []
    dim = state.dim
    window = {clone.clone_id: clone for clone in state.clones}
    for clone_id, (uv_left, uv_right) in sorted(track.observations.items()):
        clone = window.get(clone_id)
        if clone is None:
            continue
        r_wb = quat_to_matrix(clone.orientation)
        y = r_wb.T @ (feature_position - clone.position)  # body frame
        p_base = r_cam_body @ y
        offset = state.clone_offset(clone_id)
        d_theta = r_cam_body @ skew(y)
        d_pos = -r_cam_body @ r_wb.T
        d_feat = r_cam_body @ r_wb.T
        for eye_offset, uv in ((0.0, uv_left), (baseline_m, uv_right)):
            p_cam = p_base.copy()
            p_cam[0] -= eye_offset
            z = p_cam[2]
            if z < 0.05:
                return None
            u_hat = intrinsics.fx * p_cam[0] / z + intrinsics.cx
            v_hat = intrinsics.fy * p_cam[1] / z + intrinsics.cy
            j_proj = np.array(
                [
                    [intrinsics.fx / z, 0.0, -intrinsics.fx * p_cam[0] / z**2],
                    [0.0, intrinsics.fy / z, -intrinsics.fy * p_cam[1] / z**2],
                ]
            )
            h_row = np.zeros((2, dim))
            h_row[:, offset : offset + 3] = j_proj @ d_theta
            h_row[:, offset + 3 : offset + 6] = j_proj @ d_pos
            rows_hx.append(h_row)
            rows_hf.append(j_proj @ d_feat)
            rows_r.extend([uv[0] - u_hat, uv[1] - v_hat])
    if not rows_r:
        return None
    return (np.asarray(rows_r), np.vstack(rows_hx), np.vstack(rows_hf))


def nullspace_project(
    residual: np.ndarray, h_x: np.ndarray, h_f: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Project the measurement onto the left nullspace of ``h_f``.

    This removes the feature error from the system (the defining MSCKF
    step), leaving constraints purely on the clone poses.
    """
    m = h_f.shape[0]
    if m <= LANDMARK_DIM:
        return None
    q_full, _ = np.linalg.qr(h_f, mode="complete")
    nullspace = q_full[:, LANDMARK_DIM:]
    return nullspace.T @ residual, nullspace.T @ h_x


def chi2_gate(
    residual: np.ndarray, h: np.ndarray, covariance: np.ndarray, pixel_sigma: float
) -> bool:
    """Mahalanobis gating: True if the measurement is statistically sane."""
    s = h @ covariance @ h.T + pixel_sigma**2 * np.eye(len(residual))
    try:
        solved = np.linalg.solve(s, residual)
    except np.linalg.LinAlgError:
        return False
    gamma = float(residual @ solved)
    return gamma < chi2_threshold(len(residual))


def compress_measurements(
    residual: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Thin-QR measurement compression when rows exceed the state dim.

    An orthogonal transform preserves the isotropic measurement noise, so
    the compressed system is statistically equivalent.
    """
    if h.shape[0] <= h.shape[1]:
        return residual, h
    q, r_mat = np.linalg.qr(h, mode="reduced")
    return q.T @ residual, r_mat


def ekf_update(
    state: VioState, residual: np.ndarray, h: np.ndarray, pixel_sigma: float
) -> None:
    """Joseph-form EKF update, applied to the state in place."""
    if h.shape != (len(residual), state.dim):
        raise ValueError(f"H shape {h.shape} inconsistent with r ({len(residual)},) and dim {state.dim}")
    residual, h = compress_measurements(residual, h)
    p = state.covariance
    r_noise = pixel_sigma**2 * np.eye(len(residual))
    s = h @ p @ h.T + r_noise
    try:
        k = np.linalg.solve(s.T, (p @ h.T).T).T  # K = P H^T S^-1
    except np.linalg.LinAlgError:
        return
    delta = k @ residual
    i_kh = np.eye(state.dim) - k @ h
    state.covariance = i_kh @ p @ i_kh.T + k @ r_noise @ k.T
    state.inject(delta)
    state.symmetrize()


def initialize_landmark(
    state: VioState,
    feature_id: int,
    position: np.ndarray,
    residual: np.ndarray,
    h_x: np.ndarray,
    h_f: np.ndarray,
    pixel_sigma: float,
) -> bool:
    """Delayed initialization of an EKF-SLAM landmark.

    QR-split ``h_f = [Q_f Q_n] [R_f; 0]``: the ``Q_f`` rows determine the
    landmark (giving its covariance and cross-covariance consistently);
    the ``Q_n`` rows are a feature-free MSCKF update applied first.
    Returns False (and adds nothing) if the geometry is degenerate.
    """
    m = h_f.shape[0]
    if m < LANDMARK_DIM:
        return False
    q_full, r_full = np.linalg.qr(h_f, mode="complete")
    r_f = r_full[:LANDMARK_DIM, :]
    if np.min(np.abs(np.diag(r_f))) < 1e-6:
        return False
    q_f = q_full[:, :LANDMARK_DIM]
    q_n = q_full[:, LANDMARK_DIM:]

    # MSCKF-style update from the nullspace rows (uses the pre-init state).
    if q_n.shape[1] > 0:
        r_null = q_n.T @ residual
        h_null = q_n.T @ h_x
        if chi2_gate(r_null, h_null, state.covariance, pixel_sigma):
            ekf_update(state, r_null, h_null, pixel_sigma)

    # Landmark block: f_err = R_f^-1 (Q_f^T r - Q_f^T H_x dx - noise).
    p = state.covariance
    old_dim = state.dim
    rf_inv = np.linalg.inv(r_f)
    h_proj = q_f.T @ h_x                       # (3, old_dim)
    p_xf = -p @ h_proj.T @ rf_inv.T            # (old_dim, 3)
    p_ff = rf_inv @ (h_proj @ p @ h_proj.T + pixel_sigma**2 * np.eye(LANDMARK_DIM)) @ rf_inv.T
    mean_correction = rf_inv @ (q_f.T @ residual)

    new_cov = np.zeros((old_dim + LANDMARK_DIM, old_dim + LANDMARK_DIM))
    new_cov[:old_dim, :old_dim] = p
    new_cov[:old_dim, old_dim:] = p_xf
    new_cov[old_dim:, :old_dim] = p_xf.T
    new_cov[old_dim:, old_dim:] = p_ff
    state.covariance = new_cov
    state.landmarks[feature_id] = np.asarray(position, dtype=float) + mean_correction
    state.symmetrize()
    return True


def landmark_jacobians(
    state: VioState,
    feature_id: int,
    clone_id: int,
    uv_left: np.ndarray,
    uv_right: np.ndarray,
    intrinsics: CameraIntrinsics,
    baseline_m: float,
    r_cam_body: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Residual + Jacobian for one SLAM landmark seen from one clone."""
    feature_position = state.landmarks[feature_id]
    window = {clone.clone_id: clone for clone in state.clones}
    clone = window.get(clone_id)
    if clone is None:
        return None
    r_wb = quat_to_matrix(clone.orientation)
    y = r_wb.T @ (feature_position - clone.position)
    p_base = r_cam_body @ y
    clone_offset = state.clone_offset(clone_id)
    feat_offset = state.landmark_offset(feature_id)
    d_theta = r_cam_body @ skew(y)
    d_pos = -r_cam_body @ r_wb.T
    d_feat = r_cam_body @ r_wb.T
    rows_r: List[float] = []
    rows_h: List[np.ndarray] = []
    for eye_offset, uv in ((0.0, uv_left), (baseline_m, uv_right)):
        p_cam = p_base.copy()
        p_cam[0] -= eye_offset
        z = p_cam[2]
        if z < 0.05:
            return None
        u_hat = intrinsics.fx * p_cam[0] / z + intrinsics.cx
        v_hat = intrinsics.fy * p_cam[1] / z + intrinsics.cy
        j_proj = np.array(
            [
                [intrinsics.fx / z, 0.0, -intrinsics.fx * p_cam[0] / z**2],
                [0.0, intrinsics.fy / z, -intrinsics.fy * p_cam[1] / z**2],
            ]
        )
        h_row = np.zeros((2, state.dim))
        h_row[:, clone_offset : clone_offset + 3] = j_proj @ d_theta
        h_row[:, clone_offset + 3 : clone_offset + 6] = j_proj @ d_pos
        h_row[:, feat_offset : feat_offset + 3] = j_proj @ d_feat
        rows_h.append(h_row)
        rows_r.extend([uv[0] - u_hat, uv[1] - v_hat])
    return np.asarray(rows_r), np.vstack(rows_h)
