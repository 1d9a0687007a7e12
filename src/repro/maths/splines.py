"""C2 trajectory interpolation with analytic derivatives.

The sensor substrate needs a ground-truth trajectory that is twice
continuously differentiable (so the synthesized IMU sees no acceleration
jumps) with closed-form linear acceleration and body angular velocity.
Positions use per-axis cubic splines; orientation uses per-angle cubic
splines on ZYX Euler angles (yaw, pitch, roll), whose rates map analytically
to body angular velocity.

The splines are natural cubic splines computed with numpy alone, bit for bit
equal to ``scipy.interpolate.CubicSpline(times, values, bc_type="natural")``:
the coefficients are built in scipy's operation order, the tridiagonal
system is solved by a port of LAPACK ``dgtsv`` (the routine scipy calls),
and evaluation accumulates powers in the order ``PPoly`` does.  Keeping
scipy out of this module keeps ``scipy.interpolate`` off the runtime's
import path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.maths.quaternion import quat_from_axis_angle, quat_multiply


def euler_zyx_to_quat(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """ZYX Euler angles to unit quaternion (body-to-world)."""
    qz = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)
    qy = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), pitch)
    qx = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), roll)
    return quat_multiply(quat_multiply(qz, qy), qx)


def euler_rates_to_body_omega(
    yaw: float, pitch: float, roll: float,
    yaw_rate: float, pitch_rate: float, roll_rate: float,
) -> np.ndarray:
    """ZYX Euler angle rates to body-frame angular velocity.

    Standard kinematic relation for the ZYX (yaw-pitch-roll) convention.
    """
    sin_r, cos_r = np.sin(roll), np.cos(roll)
    sin_p, cos_p = np.sin(pitch), np.cos(pitch)
    return np.array(
        [
            roll_rate - yaw_rate * sin_p,
            pitch_rate * cos_r + yaw_rate * cos_p * sin_r,
            -pitch_rate * sin_r + yaw_rate * cos_p * cos_r,
        ]
    )


@dataclass(frozen=True)
class SplineSample:
    """Ground-truth kinematics at one instant."""

    position: np.ndarray          # world frame (m)
    velocity: np.ndarray          # world frame (m/s)
    acceleration: np.ndarray      # world frame (m/s^2), gravity NOT included
    orientation: np.ndarray       # unit quaternion, body-to-world
    omega_body: np.ndarray        # body frame angular velocity (rad/s)


def _solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a tridiagonal system for every column of ``rhs``.

    A port of LAPACK ``dgtsv`` (Gaussian elimination with partial
    pivoting), with its operations in the same order so the result is bit
    for bit the one ``scipy.linalg.solve_banded((1, 1), ...)`` returns.
    ``lower``/``upper`` are the (n-1) sub-/super-diagonals, ``diag`` the n
    diagonal entries and ``rhs`` is (n, k); a row interchange happens
    wherever a diagonal entry is smaller in magnitude than the one below it.
    """
    dl, d, du = lower.tolist(), diag.tolist(), upper.tolist()
    b = rhs.copy()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def natural_cubic_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval power coefficients of the natural cubic spline through ``y``.

    ``x`` is (n,) strictly increasing, ``y`` is (n, k).  Returns ``c`` of
    shape (4, n-1, k): on ``[x[i], x[i+1]]`` the spline is
    ``c[0, i]*s**3 + c[1, i]*s**2 + c[2, i]*s + c[3, i]`` with
    ``s = t - x[i]``, equal to ``CubicSpline(x, y, bc_type="natural").c``.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # Slopes at the knots: the tridiagonal system CubicSpline builds, with
    # natural (zero second derivative) rows at both ends.
    diag = np.concatenate([[2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]]])
    upper = np.concatenate([[dx[0]], dx[:-1]])
    lower = np.concatenate([dx[1:], [dx[-1]]])
    rhs = np.empty_like(y)
    rhs[0] = 3 * (y[1] - y[0])
    rhs[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    rhs[-1] = 0.0 + 3 * (y[-1] - y[-2])  # + 0.0: scipy's zero end-condition term
    s = _solve_tridiagonal(lower, diag, upper, rhs)
    # Hermite form, as CubicHermiteSpline computes it.
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


class TrajectorySpline:
    """Cubic-spline trajectory through position and Euler-angle waypoints.

    ``times`` must be strictly increasing; positions are (N, 3); eulers are
    (N, 3) as (yaw, pitch, roll) in radians.  Natural boundary conditions
    keep accelerations finite at the ends.
    """

    def __init__(self, times: np.ndarray, positions: np.ndarray, eulers: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        eulers = np.asarray(eulers, dtype=float)
        if times.ndim != 1 or len(times) < 4:
            raise ValueError("need at least 4 waypoints")
        if np.any(np.diff(times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        if positions.shape != (len(times), 3) or eulers.shape != (len(times), 3):
            raise ValueError("positions and eulers must be (N, 3)")
        if np.max(np.abs(eulers[:, 1])) > np.pi / 2 - 0.05:
            raise ValueError("pitch waypoints too close to gimbal lock (+-pi/2)")
        self.t_start = float(times[0])
        self.t_end = float(times[-1])
        self._knots = times.tolist()
        # Columns 0-2 are position, 3-5 Euler angles; the derivatives are
        # PPoly.derivative's coefficient scalings.
        coeffs = natural_cubic_coefficients(times, np.hstack([positions, eulers]))
        rates = coeffs[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]
        accel = coeffs[:-2, :, :3] * np.array([6.0, 2.0])[:, None, None]
        # One tuple of coefficient rows per interval, highest power first.
        self._rows = [
            (tuple(coeffs[:, i]), tuple(rates[:, i]), tuple(accel[:, i]))
            for i in range(len(times) - 1)
        ]

    def sample(self, t: float) -> SplineSample:
        """Ground-truth kinematics at time ``t`` (clamped to the domain)."""
        t = min(max(float(t), self.t_start), self.t_end)
        i = min(bisect_right(self._knots, t) - 1, len(self._rows) - 1)
        s = t - self._knots[i]
        s2 = s * s
        (c0, c1, c2, c3), (r0, r1, r2), (a0, a1) = self._rows[i]
        # PPoly's evaluation order: a running sum from 0.0, lowest power first.
        value = 0.0 + c3 + c2 * s + c1 * s2 + c0 * (s2 * s)
        rate = 0.0 + r2 + r1 * s + r0 * s2
        yaw, pitch, roll = value[3:]
        yaw_rate, pitch_rate, roll_rate = rate[3:]
        return SplineSample(
            position=value[:3],
            velocity=rate[:3],
            acceleration=0.0 + a1 + a0 * s,
            orientation=euler_zyx_to_quat(yaw, pitch, roll),
            omega_body=euler_rates_to_body_omega(
                yaw, pitch, roll, yaw_rate, pitch_rate, roll_rate
            ),
        )

    @property
    def duration(self) -> float:
        """Length of the trajectory's time domain (seconds)."""
        return self.t_end - self.t_start
