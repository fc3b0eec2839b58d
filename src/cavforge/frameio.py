"""Camera frame export (binary 8-bit PGM and CSV) and PGM import."""

from __future__ import annotations

import numpy as np

from .errors import WorkspaceError
from .physics import CameraFrame


def write_pgm(frame: CameraFrame, path):
    """Write a frame as binary PGM, intensity 1.0 mapping to 255."""
    data = np.round(frame.intensities * 255.0).astype(np.uint8)
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_pgm(path, pixel_pitch_mm: float = 0.01, camera_id: str = "") -> CameraFrame:
    """Read a binary PGM written by :func:`write_pgm`."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise WorkspaceError(f"not a binary PGM file: {path}")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        width, height = (int(t) for t in line.split())
        maxval = int(fh.readline())
        if maxval != 255:
            raise WorkspaceError("only 8-bit PGM supported")
        raw = fh.read(width * height)
    data = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    return CameraFrame(data.astype(np.float64) / 255.0, pixel_pitch_mm, camera_id)


def write_csv(frame: CameraFrame, path):
    """Write raw intensities as CSV, one row per sensor row."""
    np.savetxt(path, frame.intensities, fmt="%.6g", delimiter=",")
