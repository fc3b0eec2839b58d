"""Correctness checks on the outputs of each workload's operations.

Each check recomputes what it verifies with plain NumPy or plain arithmetic
instead of trusting the program's own summary, and none compares against a
stored copy of earlier output. A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

NOISE_FLOOR = 0.02        # the floor vision.centroid and beam_stats apply
REL = 1e-9                # agreement asked of recomputed floats


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rel=REL, abs_=0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


def plain_moments(img, floor=NOISE_FLOOR):
    """Total, centroid and variances of the pixels above ``floor``."""
    img = np.asarray(img, dtype=np.float64)
    w = np.where(img > floor, img, 0.0)
    total = float(w.sum())
    if total <= 0.0:
        return 0.0, math.nan, math.nan, math.nan, math.nan
    rows, cols = np.indices(img.shape)
    cx = float((w * cols).sum() / total)
    cy = float((w * rows).sum() / total)
    var_x = float((w * (cols - cx) ** 2).sum() / total)
    var_y = float((w * (rows - cy) ** 2).sum() / total)
    return total, cx, cy, var_x, var_y


def read_pgm(path) -> np.ndarray:
    """Pixels of a binary 8-bit PGM, parsed without the program's reader."""
    data = Path(path).read_bytes()
    fields = data.split(maxsplit=4)
    _require(fields[0] == b"P5", f"{path} is not a binary PGM")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    _require(maxval == 255, f"{path} is not 8-bit")
    pixels = np.frombuffer(data[len(data) - width * height:], dtype=np.uint8)
    return pixels.reshape(height, width)


def artifact_digest(out_dir) -> str:
    """One hash over the names and bytes of every file a build wrote."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_build(out_dir, stdout: str, slope_efficiency: float,
                pump_power: float, cam_main: str, final_frame) -> None:
    """A finished build: step 12, fundamental mode, lasing, and consistent.

    ``final_frame`` is the main camera's image rendered from the saved
    ``state.json``; its plain moments must match ``baseline.json`` and its
    8-bit quantization must match the exported PGM byte for byte.
    """
    out = Path(out_dir)
    printed = json.loads(stdout.strip().splitlines()[-1])
    state = json.loads((out / "state.json").read_text())
    base = json.loads((out / "baseline.json").read_text())
    _require(printed.get("status") == "ok" and printed.get("step") == 12,
             f"build printed {printed}")
    _require(state["current_step"] == 12,
             f"state.json stops at step {state['current_step']}")
    _require(base["mode_order"] == 0, f"mode order {base['mode_order']}, not 0")
    _require(printed["mode_order"] == 0, "printed mode order is not 0")
    _require(0.0 < base["threshold"] < pump_power,
             f"threshold {base['threshold']} not below pump power {pump_power}")
    # The lasing model is linear above threshold, so the output power, the
    # fitted slope and the fitted threshold follow from the layout.
    expected = slope_efficiency * (pump_power - base["threshold"])
    _require(base["output_power"] > 0.0 and _close(base["output_power"], expected),
             f"output power {base['output_power']} != {expected}")
    _require(_close(base["slope_fit"], slope_efficiency),
             f"slope_fit {base['slope_fit']} != {slope_efficiency}")
    _require(_close(base["threshold_fit"], base["threshold"]),
             f"threshold_fit {base['threshold_fit']} != {base['threshold']}")

    img = np.asarray(final_frame, dtype=np.float64)
    total, cx, cy, _, _ = plain_moments(img)
    _require(_close(total, base["total_intensity"]),
             f"frame total {total} != baseline {base['total_intensity']}")
    _require(_close(cx, base["centroid_px"][0], abs_=1e-9)
             and _close(cy, base["centroid_px"][1], abs_=1e-9),
             f"frame centroid ({cx}, {cy}) != baseline {base['centroid_px']}")
    exported = read_pgm(out / f"{cam_main}_step12.pgm")
    quantized = np.round(img * 255.0).astype(np.uint8)
    _require(np.array_equal(exported, quantized),
             f"{cam_main}_step12.pgm does not hold the final frame")


def check_same_artifacts(first: str, again: str, seed) -> None:
    _require(first == again,
             f"seed {seed} built twice gave different artifacts")


def check_drift(tick_before: dict, tick_after: dict, success: bool,
                ratio: float, frame, baseline: dict) -> None:
    """A recovered drift: lost before, ok after, and the ratio from pixels.

    The ratio is the spot's total intensity over its beam-quality proxy,
    relative to the baseline objective, recomputed from ``frame`` (the main
    camera after recovery).
    """
    _require(tick_before.get("status") == "signal_lost",
             f"tick before recovery reads {tick_before}")
    _require(tick_after.get("status") == "ok",
             f"tick after recovery reads {tick_after}")
    _require(success, "recovery reports failure")
    total, _, _, var_x, var_y = plain_moments(frame)
    _require(total > 0.0, "no spot on the main camera after recovery")
    sigma = max(math.sqrt(var_x), math.sqrt(var_y))
    quality = max(1.0, (sigma / baseline["sigma_px"]) ** 2)
    recomputed = total / quality / baseline["objective"]
    _require(_close(recomputed, ratio),
             f"ratio from pixels {recomputed} != reported {ratio}")
    _require(recomputed >= 0.9, f"restored ratio {recomputed} is below 0.9")


def check_placement(reference_frame, final_frame, pixel_pitch_mm: float,
                    tolerance_mm: float, converged: bool) -> None:
    """The placed part puts the spot back within the stage's tolerance.

    The target is the plain centroid of the frame taken before the part went
    down; the error is measured along the sensor x axis, the axis the
    transverse placement moves.
    """
    _require(converged, "placement reports no convergence")
    ref_total, ref_x, _, _, _ = plain_moments(reference_frame)
    total, x, _, _, _ = plain_moments(final_frame)
    _require(ref_total > 0.0 and total > 0.0, "no spot to place against")
    error = abs(x - ref_x) * pixel_pitch_mm
    _require(error <= tolerance_mm,
             f"final spot {error:.4f} mm from target, tolerance {tolerance_mm} mm")
