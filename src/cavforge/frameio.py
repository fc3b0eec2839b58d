"""Camera frame export: binary 8-bit PGM and CSV."""

from __future__ import annotations

import numpy as np

from .physics import CameraFrame


def write_pgm(frame: CameraFrame, path):
    """Write a frame as binary PGM, intensity 1.0 mapping to 255."""
    data = np.round(frame.intensities * 255.0).astype(np.uint8)
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def write_csv(frame: CameraFrame, path):
    """Write raw intensities as CSV, one row per sensor row."""
    np.savetxt(path, frame.intensities, fmt="%.6g", delimiter=",")
