"""Frame processing: dim-spot enhancement, reference subtraction, centroids,
beam statistics including the beam-quality proxy, and the emission score
built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import WorkspaceError
from .physics import CameraFrame

DEFAULT_NOISE_FLOOR = 0.02
DETECTION_FACTOR = 50.0
# a pixel at or above this reads as saturated
_SATURATED = 1.0 - 1e-9


@dataclass(frozen=True)
class CentroidResult:
    detected: bool
    x_px: float
    y_px: float
    total_intensity: float


@dataclass(frozen=True)
class BeamStats:
    """Spot statistics from intensity moments.

    ``m_squared`` is the square of the larger-axis second moment over the
    supplied fundamental reference width; an order-n mode rendered along one
    axis measures 2n+1. It is clamped below at 1 and only computed when a
    reference is given.
    """

    detected: bool
    saturated: bool
    centroid_px: tuple | None
    total_intensity: float
    sigma_px: tuple | None
    m_squared: float | None


def _check_gain(gain):
    if gain <= 0:
        raise WorkspaceError("log transform gain must be positive")


def _stretch(pixels, gain):
    # the one copy of the stretch arithmetic
    return np.log1p(gain * pixels) / math.log1p(gain)


def log_transform(frame: CameraFrame, gain: float = 10.0) -> CameraFrame:
    """Compress dynamic range: ``log(1 + gain*I) / log(1 + gain)``.

    Fixes the endpoints (0 -> 0, 1 -> 1) and is strictly monotone, so dim
    secondary spots gain contrast without reordering intensities.
    """
    _check_gain(gain)
    return CameraFrame(_stretch(frame.intensities, gain), frame.pixel_pitch_mm,
                       frame.camera_id)


def subtract_reference(live: CameraFrame, reference: CameraFrame) -> CameraFrame:
    """Pixelwise ``max(live - reference, 0)``: keeps what is new in the live
    frame and discards everything the reference already explains."""
    if live.intensities.shape != reference.intensities.shape:
        raise WorkspaceError("frame shapes differ")
    out = np.maximum(live.intensities - reference.intensities, 0.0)
    return CameraFrame(out, live.pixel_pitch_mm, live.camera_id)


def reflection_centroid(live: CameraFrame, reference_log: CameraFrame, gain: float = 10.0,
                        noise_floor: float = DEFAULT_NOISE_FLOOR) -> CentroidResult:
    """``centroid(subtract_reference(log_transform(live, gain), reference_log),
    noise_floor)``, bit for bit, drawing and stretching only the window of
    ``live`` that can clear the floor."""
    _check_gain(gain)
    reference = reference_log.intensities
    if (live.height, live.width) != reference.shape:
        raise WorkspaceError("frame shapes differ")
    # The window holds every live pixel above floor_i, half the intensity
    # whose stretch reaches the floor. A pixel at or below floor_i stretches
    # to log1p(expm1(a) / 2) / a of the floor, a = floor * log1p(gain): below
    # 1 always and about 0.51 at the default floor and gain, so any log1p
    # accurate to tens of percent keeps it under the floor, without relying
    # on log1p rounding monotonically. The reference is >= 0 and IEEE
    # subtraction rounds monotonically, so its difference is at most its
    # stretch and cannot clear the floor either. Every counted pixel lies in
    # the window, in the same row-major order, and frame_moments takes
    # whole-frame indices.
    floor_i = math.expm1(noise_floor * math.log1p(gain)) / gain / 2.0
    pixels, top, left = live.window(floor_i)
    height, width = pixels.shape
    diff = np.maximum(_stretch(pixels, gain)
                      - reference[top:top + height, left:left + width], 0.0)
    total, cx, cy, _, _, _, count = _kernels.frame_moments(diff, noise_floor, top, left,
                                                          order=1)
    return CentroidResult(_detected(total, count, noise_floor), cx, cy, total)


def _moments(frame: CameraFrame, floor: float, order: int) -> tuple:
    # only the window can hold above-floor pixels, so its moments are the
    # frame's, bit for bit; ``vmax`` is the window's maximum
    pixels, top, left = frame.window(floor)
    return _kernels.frame_moments(pixels, floor, top, left, order=order)


def centroid(frame: CameraFrame, noise_floor: float = DEFAULT_NOISE_FLOOR) -> CentroidResult:
    """Intensity-weighted centroid over above-floor pixels.

    A spot counts as detected only when the integrated above-floor
    intensity clears ``DETECTION_FACTOR * noise_floor``, so a dark frame or
    a faint numerical tail never yields a spurious position.
    """
    total, cx, cy, _, _, _, count = _moments(frame, noise_floor, order=1)
    return CentroidResult(_detected(total, count, noise_floor), cx, cy, total)


def _detected(total, count, noise_floor) -> bool:
    return count > 0 and total >= DETECTION_FACTOR * noise_floor


def beam_stats(frame: CameraFrame, noise_floor: float = DEFAULT_NOISE_FLOOR,
               sigma_ref_px: float | None = None) -> BeamStats:
    """Centroid, size, and beam-quality proxy of the dominant spot."""
    total, cx, cy, var_x, var_y, vmax, count = _moments(frame, noise_floor, order=2)
    if count == 0 and not noise_floor < _SATURATED:
        # a window with nothing above the floor need not hold the maximum
        vmax = float(frame.intensities.max())
    saturated = vmax >= _SATURATED
    if not _detected(total, count, noise_floor):
        return BeamStats(False, saturated, None, total, None, None)
    sigma = (math.sqrt(var_x), math.sqrt(var_y))
    m_squared = None
    if sigma_ref_px is not None:
        if sigma_ref_px <= 0:
            raise WorkspaceError("sigma_ref_px must be positive")
        m_squared = max(1.0, (max(sigma) / sigma_ref_px) ** 2)
    return BeamStats(True, saturated, (cx, cy), total, sigma, m_squared)


def emission_score(frame: CameraFrame, *, root: bool, sigma_ref_px: float | None = None,
                   noise_floor: float = DEFAULT_NOISE_FLOOR) -> float:
    """Emission quality of the spot on ``frame``: its total intensity
    (square-rooted when ``root``) over its beam-quality proxy against the
    fundamental reference width ``sigma_ref_px``. Without a reference the
    proxy counts as 1 and only the total is measured. An undetected spot
    scores zero."""
    if sigma_ref_px is None:
        total, _, _, _, _, _, count = _moments(frame, noise_floor, order=0)
        detected, quality = _detected(total, count, noise_floor), 1.0
    else:
        stats = beam_stats(frame, noise_floor, sigma_ref_px)
        detected, total, quality = stats.detected, stats.total_intensity, stats.m_squared
    if not detected:
        return 0.0
    strength = math.sqrt(total) if root else total
    return strength / quality


def sensor_center_px(frame: CameraFrame) -> tuple:
    return ((frame.width - 1) / 2.0, (frame.height - 1) / 2.0)
