"""Paraxial 2-D beam propagation, camera frames, and the cavity response.

Geometry: x runs along the table, y is the in-plane transverse axis, z the
out-of-plane axis. Rays carry slopes ``sy = dy/dx`` and ``sz = dz/dx`` plus a
propagation sign, so the same update rules serve forward and retro beams.
Components sit nominally perpendicular to the axis:

* a thin lens of focal length f adds ``-sign * offset / f`` to each slope,
* a mirror with in-plane tilt error d flips the sign and maps the slope to
  ``2 d - s`` (the retro beam of an untilted mirror retraces the incoming
  line mirrored about the mirror normal),
* a beam splitter forwards a pick-off into its side arm, folded onto a
  virtual plane one arm length beyond the splitter.

Gaussian beam size propagates through the complex q parameter. One ray
runner traces both the pump and the crystal's laser emission: each is a
starting ray and its q, and the laser's camera hits carry the cavity's
transverse mode order from the moment they are made. The lasing
behaviour itself is phenomenological: a misalignment metric built from
mirror tilts, lens offset, and crystal angle sets the threshold, the output
power above it, and the transverse mode order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import MissingComponentError, TraceError, WorkspaceError
from .simcore import (ANY, APERTURE_MM, NONNEGATIVE, POSITIVE, REF_SCALE, UNIT,
                      Component, ComponentKind, Workspace)

_EPS_X = 1e-9
# The components that make up the resonator; the lasing model needs all four.
_CAVITY_KINDS = (ComponentKind.MIRROR_IC, ComponentKind.MIRROR_OC,
                ComponentKind.LENS, ComponentKind.CRYSTAL)


def _ranged(default, allowed=ANY):
    """A PhysicsConfig field whose layout overrides must lie in ``allowed``."""
    return field(default=default, metadata={"allowed": allowed})


@dataclass(frozen=True)
class PhysicsConfig:
    """Simulation constants. A layout may override any field with a value of
    its type in its ``allowed`` interval (each of ``mode_band_edges``, rising)."""

    pump_wavelength_mm: float = _ranged(8.08e-4, POSITIVE)
    laser_wavelength_mm: float = _ranged(1.064e-3, POSITIVE)
    pump_waist_mm: float = _ranged(0.3, POSITIVE)
    laser_waist_mm: float = _ranged(0.25, POSITIVE)
    p_threshold: float = _ranged(1.0, POSITIVE)
    slope_efficiency: float = _ranged(0.3, POSITIVE)
    threshold_curvature: float = _ranged(0.05, NONNEGATIVE)
    m_cutoff: float = _ranged(4.0, POSITIVE)
    mode_band_edges: tuple = _ranged((1.3, 2.3, 3.2, 4.0))
    ref_tilt_deg: float = _ranged(0.02, REF_SCALE)
    ref_lens_offset_mm: float = _ranged(0.3, REF_SCALE)
    ref_crystal_deg: float = _ranged(0.2, REF_SCALE)
    fluorescence_scale: float = _ranged(0.08, NONNEGATIVE)
    aperture_mm: float = _ranged(10.0, APERTURE_MM)
    max_bounces: int = _ranged(6, NONNEGATIVE)
    min_power_fraction: float = _ranged(1e-5, UNIT)


@dataclass(frozen=True)
class CameraHit:
    """A beam arriving at a camera sensor plane."""

    camera_id: str
    u_mm: float
    v_mm: float
    w_mm: float
    power: float
    wavelength: str
    n_bounces: int
    mode_order: int = 0


@dataclass
class TraceResult:
    hits: dict = field(default_factory=dict)
    primary_at: dict = field(default_factory=dict)
    # the traced workspace's aperture table, for the next trace through it
    _table: tuple = field(default=None, init=False, repr=False, compare=False)

    def camera_hits(self, camera_id):
        return self.hits.get(camera_id, [])


@dataclass(frozen=True)
class CavityState:
    """Phenomenological lasing state of the assembled resonator."""

    lasing: bool
    output_power: float
    mode_order: int
    misalignment: float
    threshold: float
    pump_power: float

    def __post_init__(self):
        if self.lasing and self.output_power <= 0:
            raise WorkspaceError("lasing requires positive output power")


class CameraFrame:
    """Normalized intensity image; values clipped to [0, 1].

    A frame holds an array, or (from ``render_frame``) the separable spots
    it is the clipped sum of. A spot frame draws its pixels the first time
    ``intensities`` is read; ``window`` draws only the part that can clear
    a floor.
    """

    def __init__(self, intensities, pixel_pitch_mm, camera_id=""):
        arr = np.asarray(intensities, dtype=np.float64)
        if arr.ndim != 2:
            raise WorkspaceError("frame must be 2-D")
        # NaN fails both comparisons and +-inf lies outside [0, 1], so the
        # finiteness pass only runs to choose the message
        if not (arr.min() >= 0.0 and arr.max() <= 1.0 + 1e-12):
            if not np.all(np.isfinite(arr)):
                raise WorkspaceError("frame contains non-finite values")
            raise WorkspaceError("frame intensities must lie in [0, 1]")
        self._pixels = arr
        self._spots = ()
        self._shape = arr.shape
        self.pixel_pitch_mm = float(pixel_pitch_mm)
        self.camera_id = camera_id

    @classmethod
    def from_spots(cls, shape, spots, pixel_pitch_mm, camera_id=""):
        """The frame ``clip(sum of row[:, None] * col, 0, 1)`` over the
        ``(row, col)`` factor pairs in ``spots``, in order, drawn on demand.

        Every factor must be finite and >= 0. Their products and sums are
        then finite or +inf, which the clip maps to 1, so the frame is
        finite and in [0, 1] without a pass over its pixels.
        """
        frame = cls.__new__(cls)
        checked = []
        for row, col in spots:
            row_max, col_max = row.max(), col.max()
            if not (row.min() >= 0.0 and col.min() >= 0.0
                    and row_max < math.inf and col_max < math.inf):
                raise WorkspaceError("frame contains non-finite values")
            checked.append((row, col, row_max, col_max))
        frame._pixels = None
        frame._spots = tuple(checked)
        frame._shape = tuple(shape)
        frame.pixel_pitch_mm = float(pixel_pitch_mm)
        frame.camera_id = camera_id
        return frame

    @property
    def intensities(self):
        if self._pixels is None:
            self._pixels = self._draw(0, self.height, 0, self.width)
        return self._pixels

    @property
    def height(self):
        return self._shape[0]

    @property
    def width(self):
        return self._shape[1]

    def window(self, floor):
        """``(pixels, top, left)``: the smallest rectangle holding every
        pixel above ``floor``, and the frame row and column of its corner.

        The window's pixels are drawn exactly as the whole frame draws them.
        A frame whose pixels exist already returns all of them.
        """
        if self._pixels is not None:
            return self._pixels, 0, 0
        row_bound = np.zeros(self.height)
        col_bound = np.zeros(self.width)
        for row, col, row_max, col_max in self._spots:
            # IEEE rounding is monotone and every factor is finite and >= 0,
            # so no pixel of row y exceeds row_bound[y] and no pixel of
            # column x exceeds col_bound[x], exactly; the clip only lowers
            row_bound += row * col_max
            col_bound += row_max * col
        rows = np.flatnonzero(row_bound > floor)
        cols = np.flatnonzero(col_bound > floor)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((0, 0)), 0, 0
        top, left = int(rows[0]), int(cols[0])
        return self._draw(top, int(rows[-1]) + 1, left, int(cols[-1]) + 1), top, left

    def _draw(self, top, bottom, left, right):
        # spots add in order from 0 over the rows their factor lights, then clip
        img = np.zeros((bottom - top, right - left), dtype=np.float64)
        for row, col, _, _ in self._spots:
            _kernels.render_spot(img, row[top:bottom], col[left:right])
        np.clip(img, 0.0, 1.0, out=img)
        return img

    def scaled(self, factor):
        """Frame with intensities scaled by ``factor`` (clipped to [0,1])."""
        return CameraFrame(np.clip(self.intensities * factor, 0.0, 1.0),
                           self.pixel_pitch_mm, self.camera_id)


# ---------------------------------------------------------------------------
# Gaussian beam bookkeeping


def q_at_waist(waist_mm, wavelength_mm):
    z_r = math.pi * waist_mm * waist_mm / wavelength_mm
    return complex(0.0, z_r)


def beam_radius(q, wavelength_mm):
    inv_q_imag = (1.0 / q).imag if q else 0.0
    if not inv_q_imag < 0.0:
        raise TraceError(f"Rayleigh range out of float range at q={q!r}")
    return math.sqrt(-wavelength_mm / (math.pi * inv_q_imag))


def q_through_lens(q, focal_mm):
    return q / (1.0 - q / focal_mm)


# ---------------------------------------------------------------------------
# Trace machinery


class _Ray:
    """One branch of the beam. ``_trace`` advances a ray in place and copies
    it only where a mirror splits it in two."""

    __slots__ = ("x", "y", "z", "sy", "sz", "sign", "power", "wavelength", "q",
                 "n_bounces")

    def __init__(self, x, y, z, sy, sz, sign, power, wavelength, q, n_bounces):
        self.x = x
        self.y = y
        self.z = z
        self.sy = sy
        self.sz = sz
        self.sign = sign
        self.power = power
        self.wavelength = wavelength
        self.q = q
        self.n_bounces = n_bounces

    def copy(self) -> _Ray:
        return _Ray(self.x, self.y, self.z, self.sy, self.sz, self.sign, self.power,
                    self.wavelength, self.q, self.n_bounces)


def _mirror_tilts_rad(comp: Component):
    if comp.knobs is None:
        h = v = 0.0
    else:
        h = comp.knobs.tilt_h_deg
        v = comp.knobs.tilt_v_deg
    h += comp.pose.yaw
    return math.radians(h), math.radians(v)


def _pump(ws: Workspace) -> Component:
    pumps = ws.find_kind(ComponentKind.PUMP_SOURCE)
    if not pumps:
        raise TraceError("no pump source on the table")
    return pumps[0]


def trace_beam(ws: Workspace) -> TraceResult:
    """Propagate the pump through every on-path component.

    Mirrors split into transmitted and retro branches, the beam splitter
    feeds its side-arm camera, and branches die on blocks, filters, camera
    sensors, bounce limits, or the power floor. Results are deterministic:
    branches are processed in creation order.
    """
    cfg: PhysicsConfig = ws.physics or PhysicsConfig()
    pump = _pump(ws)
    waist = pump.param("waist_mm")
    waist = cfg.pump_waist_mm if waist is None else float(waist)
    return _trace(ws, cfg, _Ray(
        x=pump.pose.x,
        y=pump.pose.y,
        z=pump.pose.z,
        sy=math.tan(math.radians(pump.pose.yaw)),
        sz=0.0,
        sign=1,
        power=float(pump.param("power")),
        wavelength="pump",
        q=q_at_waist(waist, cfg.pump_wavelength_mm),
        n_bounces=0,
    ))


def _trace(ws: Workspace, cfg: PhysicsConfig, ray0: _Ray, mode_order=0,
           table=None) -> TraceResult:
    """Trace ``ray0`` and every branch it splits into; each camera hit
    carries ``mode_order``. Branches below ``ray0.power`` times
    ``cfg.min_power_fraction`` die. ``table`` is ``ws``'s aperture table,
    built here if not given."""
    power_floor = ray0.power * cfg.min_power_fraction
    lam = cfg.pump_wavelength_mm if ray0.wavelength == "pump" else cfg.laser_wavelength_mm
    if table is None:
        table = _aperture_table(ws.components, cfg)
    rows, table_x = table
    result = TraceResult()
    result._table = table
    queue = [ray0]
    while queue:
        ray = queue.pop(0)
        if ray.power < power_floor or ray.n_bounces > cfg.max_bounces:
            continue
        nxt = _next_component(rows, table_x, ray)
        if nxt is None:
            continue
        comp, y_at, z_at = nxt
        dx = comp.pose.x - ray.x
        ray.x = comp.pose.x
        ray.y = y_at
        ray.z = z_at
        ray.q = ray.q + abs(dx)
        if ray.wavelength == "pump" and ray.n_bounces == 0 and ray.sign == 1:
            result.primary_at[comp.id] = (y_at, z_at, ray.sy, ray.sz)

        kind = comp.kind
        if kind == ComponentKind.CAMERA:
            _record_hit(result, comp.id, ray, y_at - comp.pose.y, z_at - comp.pose.z,
                        beam_radius(ray.q, lam), ray.power, mode_order)
            continue
        if kind == ComponentKind.BEAM_BLOCK:
            continue
        if kind == ComponentKind.PUMP_SOURCE:
            continue
        if kind == ComponentKind.NDF:
            ray.power = ray.power * float(comp.param("transmittance"))
            queue.append(ray)
            continue
        if kind == ComponentKind.BPF:
            if ray.wavelength == comp.param("passband"):
                queue.append(ray)
            continue
        if kind == ComponentKind.CRYSTAL:
            queue.append(ray)
            continue
        if kind == ComponentKind.LENS:
            _through_lens(ray, comp, float(comp.param("focal_length_mm")))
            queue.append(ray)
            continue
        if kind == ComponentKind.BEAM_SPLITTER:
            ratio = float(comp.param("split_ratio"))
            cam_id = comp.param("arm_camera")
            if cam_id is not None and ws.has(cam_id):
                cam = ws.component(cam_id)
                arm = abs(cam.pose.y - comp.pose.y)
                u = (y_at - comp.pose.y) + ray.sign * ray.sy * arm - (cam.pose.x - comp.pose.x)
                v = (z_at - comp.pose.z) + ray.sign * ray.sz * arm - cam.pose.z
                _record_hit(result, cam_id, ray, u, v, beam_radius(ray.q + arm, lam),
                            ray.power * ratio, mode_order)
            ray.power = ray.power * (1.0 - ratio)
            queue.append(ray)
            continue
        if kind in (ComponentKind.MIRROR_IC, ComponentKind.MIRROR_OC):
            t = float(comp.param("pump_transmission"))
            r = comp.param("pump_reflectivity")
            r = 1.0 - t if r is None else float(r)
            if ray.wavelength == "laser":
                t, r = 1.0, 0.0
            transmitted = ray.copy()
            transmitted.power = ray.power * t
            f_sub = comp.param("substrate_focal_mm")
            if f_sub:
                _through_lens(transmitted, comp, float(f_sub))
            queue.append(transmitted)
            if r > 0.0:
                th, tv = _mirror_tilts_rad(comp)
                ray.sy = 2.0 * th - ray.sy
                ray.sz = 2.0 * tv - ray.sz
                ray.sign = -ray.sign
                ray.power = ray.power * r
                ray.n_bounces = ray.n_bounces + 1
                queue.append(ray)
            continue
        raise TraceError(f"unhandled component kind {kind}")
    return result


def _aperture_table(comps, cfg: PhysicsConfig):
    """``(x, y, z, half_width, component)`` for each of ``comps``, which a
    workspace keeps in beam order, and the x values.

    ``half_width`` is a camera's body half-width, or any other component's
    aperture. Layouts cannot give the pump an aperture; it takes the default.
    """
    table = []
    for c in comps:
        if c.kind == ComponentKind.CAMERA:
            half = float(c.param("body_halfwidth_mm"))
        elif c.kind == ComponentKind.PUMP_SOURCE or c.param("aperture_mm") is None:
            half = cfg.aperture_mm
        else:
            half = float(c.param("aperture_mm"))
        table.append((c.pose.x, c.pose.y, c.pose.z, half, c))
    return table, [row[0] for row in table]


def _next_component(table, table_x, ray: _Ray):
    """``(component, y, z)`` where the ray next lands, or None: the nearest
    component ahead whose aperture takes it, more than ``_EPS_X`` away, and
    of two at the same distance the earlier in beam order (at one x, the
    lower placement seq)."""
    if ray.sign > 0:
        ahead = range(bisect.bisect_right(table_x, ray.x), len(table))
    else:
        ahead = range(bisect.bisect_left(table_x, ray.x) - 1, -1, -1)
    best = None
    for k in ahead:
        x, y, z, half, comp = table[k]
        offset = x - ray.x
        dx = offset * ray.sign
        if dx <= _EPS_X:
            continue
        # rounding is monotone, so dx never falls along the scan: once a
        # component takes the ray only one at the same dx can still tie
        if best is not None and dx != best[0]:
            break
        y_at = ray.y + ray.sy * offset
        z_at = ray.z + ray.sz * offset
        if abs(y_at - y) > half or abs(z_at - z) > half:
            continue
        if best is None or k < best[1]:
            best = (dx, k, comp, y_at, z_at)
    if best is None:
        return None
    return best[2], best[3], best[4]


def _through_lens(ray: _Ray, comp: Component, focal_mm: float) -> None:
    y_rel = ray.y - comp.pose.y
    z_rel = ray.z - comp.pose.z
    ray.sy = ray.sy - ray.sign * y_rel / focal_mm
    ray.sz = ray.sz - ray.sign * z_rel / focal_mm
    ray.q = q_through_lens(ray.q, focal_mm)


def _record_hit(result: TraceResult, camera_id, ray: _Ray, u, v, w, power, mode_order):
    result.hits.setdefault(camera_id, []).append(CameraHit(
        camera_id=camera_id, u_mm=u, v_mm=v, w_mm=w, power=power,
        wavelength=ray.wavelength, n_bounces=ray.n_bounces, mode_order=mode_order))


# ---------------------------------------------------------------------------
# Derived views


def render_frame(hits, camera: Component) -> CameraFrame:
    """Rasterize camera hits into a normalized frame.

    Spot amplitude is the hit power scaled by the camera's per-wavelength
    gain; the profile is a Hermite-Gaussian of the hit's mode order along
    the sensor x axis. Overlapping spots add, then the frame clips at 1.
    Each spot's factors are computed here; pixels are drawn on demand.
    """
    width = int(camera.param("width_px"))
    height = int(camera.param("height_px"))
    pitch = float(camera.param("pixel_pitch_mm"))
    spots = []
    for hit in hits:
        gain = float(camera.param(f"gain_{hit.wavelength}"))
        amp = gain * hit.power
        if amp <= 0.0:
            continue
        cx = (width - 1) / 2.0 + hit.u_mm / pitch
        cy = (height - 1) / 2.0 + hit.v_mm / pitch
        spots.append(_kernels.spot_factors(height, width, cx, cy, hit.w_mm / pitch,
                                           amp, hit.mode_order))
    return CameraFrame.from_spots((height, width), spots, pitch, camera.id)


def cavity_response(ws: Workspace, pump_power=None, trace=None) -> CavityState:
    """Lasing state from the phenomenological misalignment model.

    The misalignment metric is the root of summed squared normalized errors
    (each mirror's total tilt, transverse lens offset at the lens, crystal
    angle error). Threshold grows quadratically with the metric; output is
    linear above threshold; the transverse mode order is the band the metric
    falls into.
    """
    cfg: PhysicsConfig = ws.physics or PhysicsConfig()
    parts = [ws.find_kind(k) for k in _CAVITY_KINDS]
    missing = [k.value for k, found in zip(_CAVITY_KINDS, parts) if not found]
    if missing:
        raise MissingComponentError(f"cavity incomplete, missing: {', '.join(missing)}")
    ic, oc, lens, crystal = (found[0] for found in parts)

    if pump_power is None:
        pump_power = _pump(ws).param("power")
    pump_power = float(pump_power)

    if trace is None:
        trace = trace_beam(ws)

    th_ic, tv_ic = _mirror_tilts_rad(ic)
    th_oc, tv_oc = _mirror_tilts_rad(oc)
    tilt_ic = math.degrees(math.hypot(th_ic, tv_ic))
    tilt_oc = math.degrees(math.hypot(th_oc, tv_oc))
    arrival = trace.primary_at.get(lens.id)
    if arrival is None:
        lens_off = float("inf")
    else:
        lens_off = math.hypot(arrival[0] - lens.pose.y, arrival[1] - lens.pose.z)
    theta = float(crystal.param("theta_deg"))
    theta_opt = float(crystal.param("theta_opt_deg"))

    pumped = crystal.id in trace.primary_at
    if not pumped or not math.isfinite(lens_off):
        m = float("inf")
    else:
        m = math.sqrt(
            (tilt_ic / cfg.ref_tilt_deg) ** 2
            + (tilt_oc / cfg.ref_tilt_deg) ** 2
            + (lens_off / cfg.ref_lens_offset_mm) ** 2
            + ((theta - theta_opt) / cfg.ref_crystal_deg) ** 2
        )

    if math.isfinite(m):
        threshold = cfg.p_threshold * (1.0 + cfg.threshold_curvature * m * m)
    else:
        threshold = float("inf")
    lasing = bool(pumped and m < cfg.m_cutoff and pump_power > threshold)
    output = cfg.slope_efficiency * (pump_power - threshold) if lasing else 0.0

    return CavityState(
        lasing=lasing,
        output_power=output,
        mode_order=bisect.bisect_right(cfg.mode_band_edges, m),
        misalignment=m,
        threshold=threshold,
        pump_power=pump_power,
    )


def fluorescence_power(cav: CavityState, cfg: PhysicsConfig) -> float:
    """Sub-threshold glow of the pumped crystal at the laser wavelength.

    The excited population grows with pump power but clamps once the cavity
    lases, and emission that actually reaches the output drops as the
    resonator walks away from alignment. This is what a camera behind the
    line filter sees while the cavity is dark, and it grades smoothly in the
    misalignment metric, which is what lets knob-space searches climb back
    toward lasing instead of wandering a flat floor.
    """
    m = cav.misalignment
    if not (math.isfinite(m) and math.isfinite(cav.threshold)):
        return 0.0
    clamped = min(cav.pump_power, cav.threshold)
    return cfg.fluorescence_scale * clamped / (1.0 + cfg.threshold_curvature * m * m)


def _laser_hits(ws: Workspace, cav: CavityState, trace: TraceResult) -> TraceResult:
    """Trace laser-wavelength emission (lasing plus glow) from the crystal,
    through the aperture table of ``trace``, the pump trace of ``ws``."""
    cfg: PhysicsConfig = ws.physics or PhysicsConfig()
    crystal = ws.find_kind(ComponentKind.CRYSTAL)[0]
    arrival = trace.primary_at.get(crystal.id)
    power = cav.output_power + fluorescence_power(cav, cfg)
    if arrival is None or power <= 0.0:
        return TraceResult()
    y, z, sy, sz = arrival
    return _trace(ws, cfg, _Ray(
        x=crystal.pose.x, y=y, z=z, sy=sy, sz=sz, sign=1,
        power=power, wavelength="laser",
        q=q_at_waist(cfg.laser_waist_mm, cfg.laser_wavelength_mm),
        n_bounces=0,
    ), cav.mode_order, trace._table)


def camera_view(ws: Workspace, camera_id: str) -> CameraFrame:
    """Render what a camera currently sees: traced pump beams plus the
    laser-wavelength emission of the assembled cavity."""
    cam = ws.component(camera_id)
    if cam.kind != ComponentKind.CAMERA:
        raise WorkspaceError(f"{camera_id!r} is not a camera")
    tr = trace_beam(ws)
    hits = list(tr.camera_hits(camera_id))
    if all(ws.find_kind(k) for k in _CAVITY_KINDS):
        cav = cavity_response(ws, trace=tr)
        hits.extend(_laser_hits(ws, cav, tr).camera_hits(camera_id))
    return render_frame(hits, cam)
