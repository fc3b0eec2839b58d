"""End-to-end bench assembly and upkeep.

This module strings the workspace operations and alignment stages into the
twelve-step construction sequence, then keeps the finished cavity alive:
power-curve verification, surveillance ticks, and the two recovery routines
(put a displaced component back, re-search crept knobs). It owns no physics;
every decision is made from camera frames and pose readbacks, and every
action group is logged so a failed build can be diagnosed from its log.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Any

import numpy as np

from .align import (
    SpatialOptConfig,
    align_resonator,
    crystal_sweep,
    measure_beam_path,
    optimize_mode,
    spatial_optimize,
)
from .errors import (
    BeamLostError,
    CavforgeError,
    ConstructionError,
    LayoutError,
    MissingComponentError,
    NoLasingError,
    NoSnapshotError,
    SaturationError,
    WorkspaceError,
)
from .layout import (
    SCHEMA_VERSION,
    Layout,
    build_workspace,
    check_knobs,
    check_value,
    validate_component,
    validate_layout,
)
from .physics import CameraFrame, camera_view, cavity_response, trace_beam
from .simcore import (
    NONNEGATIVE,
    POSITIVE,
    ComponentKind,
    Pose,
    Workspace,
    apply_knob_readings,
    detect_displacement,
    knob_readings,
    move_component,
    park_component,
    place_component,
    take_snapshot,
)
from .vision import beam_stats, centroid, emission_score

# Stage tuning. Success radii are chosen so the residual mirror tilts leave
# the misalignment metric comfortably inside the fundamental-mode band; the
# lens tolerance (on the camera, where the lever is about 2.4 mm per mm of
# lens offset) keeps the focus within a small fraction of the pump waist.
_OC_RADIUS_PX = 8.0
_IC_RADIUS_PX = 6.0
LENS_TOLERANCE_MM = 0.12
LENS_MAX_ITERS = 25
_BS_WIDTH_FRACTION = 0.1
_MODE_SPAN_DEG = 12.0
_MODE_MAX_ITERS = 24
_MODE_INIT_SAMPLES = 8
_MODE_LENGTH_SCALE_DEG = 6.0
_DRIFT_SUCCESS_FRACTION = 0.9
# A drift round stops once the camera total reaches this fraction of the
# baseline intensity. The first higher-order mode sits just below it: in
# the lasing model (output proportional to P - p_th (1 + c m^2)) the 1.3
# band edge of the misalignment m gives 0.931 of the seed-42 baseline
# output, and recoveries stuck on the mode-1 shelf read 0.91-0.93 of the
# baseline intensity on the camera, fluorescence and clipping included.
# Stops of 0.94, 0.96 and 0.98 fail the same benchmark drift trials.
_DRIFT_STOP_FRACTION = 0.96
_DRIFT_SPAN_DEG = 65.0
_DRIFT_INIT_SAMPLES = 12
_DRIFT_LENGTH_SCALE_DEG = 20.0
_SIGNAL_FRACTION = 0.25
_DISPLACEMENT_MAX_ATTEMPTS = 10

# Sub-stream tags so the controller's draws never alias the workspace noise.
_CONTROLLER_STREAM = 101
_DRIFT_STREAM = 202


class StepId(enum.IntEnum):
    """The twelve construction steps, in execution order."""

    SCATTER_INIT = 1
    PLACE_CAMS_NDF = 2
    PLACE_OC_SPATIAL_OPT = 3
    PLACE_BB = 4
    PLACE_BS_REFERENCE = 5
    REMOVE_BB_ANGULAR_OPT_OC = 6
    REMOVE_BS_PLACE_LENS_SPATIAL_OPT = 7
    PLACE_IC = 8
    ANGULAR_OPT_IC = 9
    PLACE_BPF = 10
    PLACE_CRYSTAL = 11
    LASING_VERIFIED = 12


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


@dataclasses.dataclass
class PipelineState:
    """Mutable carrier of one build's progress and its paper trail.

    ``current_step`` is the last completed step (0 before any). Reference
    frames are keyed by camera id and live only in memory; the baseline
    record exists exactly when the final step has completed. The last frame
    of each camera is held too (see :meth:`view`); a copy made with
    ``dataclasses.replace`` starts without any.
    """

    ws: Workspace
    layout: Layout
    seed: int
    current_step: int = 0
    reference_frames: dict = dataclasses.field(default_factory=dict)
    baseline: dict | None = None
    log: list = dataclasses.field(default_factory=list)
    # camera id -> (components, physics, frame drawn from them)
    _views: dict = dataclasses.field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def view(self, camera_id: str) -> CameraFrame:
        """What ``camera_id`` sees on the bench now.

        The frame held for the camera is returned while the bench's
        components and physics equal the ones it was drawn from, which are
        all a frame depends on; otherwise a new frame is drawn and held.
        """
        held = self._views.get(camera_id)
        if (held is not None and held[0] == self.ws.components
                and held[1] == self.ws.physics):
            return held[2]
        frame = camera_view(self.ws, camera_id)
        self.hold(self.ws, frame)
        return frame

    def hold(self, ws: Workspace, frame: CameraFrame) -> None:
        """Keep ``frame``, drawn from ``ws``, for :meth:`view` to reuse."""
        self._views[frame.camera_id] = (ws.components, ws.physics, frame)

    def log_event(self, step, action, measurement=None) -> None:
        self.log.append({
            "step": int(step),
            "action": action,
            "measurement": _jsonable(measurement),
            "action_index": self.ws.action_count,
        })

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "current_step": self.current_step,
            "layout": self.layout.raw,
            "baseline": _jsonable(self.baseline),
            "workspace": self.ws.to_dict(),
            "log": self.log,
        }

    @classmethod
    def from_dict(cls, d) -> "PipelineState":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise LayoutError(f"state schema_version must be {SCHEMA_VERSION}, "
                              f"got {d.get('schema_version')!r}")
        layout = validate_layout(d["layout"])
        try:
            saved = d["workspace"]
            for i, comp in enumerate(saved["components"]):
                where = f"workspace.components[{i}]"
                validate_component(comp["kind"], comp.get("params", {}), where)
                check_value(comp["id"], str, None, f"{where}.id")
                check_knobs(comp.get("knobs", {}), where)
            check_value(saved["action_count"], int, NONNEGATIVE,
                        "workspace.action_count")
            if d.get("baseline") is not None:
                # recovery divides by the objective and scores against the width
                for key in ("objective", "sigma_px"):
                    check_value(d["baseline"][key], float, POSITIVE,
                                f"baseline.{key}")
            return cls(
                ws=Workspace.from_dict(saved, physics=layout.physics),
                layout=layout,
                seed=int(d["seed"]),
                current_step=int(d["current_step"]),
                baseline=d.get("baseline"),
                log=list(d.get("log", [])),
            )
        # the bit generator rejects an out-of-range rng_state with OverflowError
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise LayoutError(f"saved workspace does not decode: "
                              f"{type(exc).__name__}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class _Roles:
    """Id of the component in each bench role. Each field's ``name`` is how a
    missing-component error refers to the role."""

    pump: str | None = dataclasses.field(metadata={"name": "pump source"})
    ndf: str | None = dataclasses.field(metadata={"name": "neutral-density filter"})
    bs: str | None = dataclasses.field(metadata={"name": "beam splitter"})
    bb: str | None = dataclasses.field(metadata={"name": "beam block"})
    lens: str | None = dataclasses.field(metadata={"name": "pump lens"})
    ic: str | None = dataclasses.field(metadata={"name": "input mirror"})
    oc: str | None = dataclasses.field(metadata={"name": "output mirror"})
    crystal: str | None = dataclasses.field(metadata={"name": "gain crystal"})
    bpf: str | None = dataclasses.field(metadata={"name": "line filter"})
    cam_main: str | None = dataclasses.field(metadata={"name": "main-axis camera"})
    cam_arm: str | None = dataclasses.field(metadata={"name": "side-arm camera"})


def resolve_roles(layout: Layout) -> _Roles:
    """Id of the component in each bench role.

    Each role takes the first component of its kind; the arm camera is the
    one the splitter declares, else the second camera.
    """

    def first(kind):
        recs = layout.records_of_kind(kind)
        return recs[0].id if recs else None

    cameras = [r.id for r in layout.records_of_kind(ComponentKind.CAMERA)]
    splitters = layout.records_of_kind(ComponentKind.BEAM_SPLITTER)
    arm = None
    if splitters:
        declared = splitters[0].params.get("arm_camera")
        if declared in cameras:
            arm = declared
    if arm is None and len(cameras) > 1:
        arm = cameras[1]
    main = next((c for c in cameras if c != arm), None)
    return _Roles(
        pump=first(ComponentKind.PUMP_SOURCE),
        ndf=first(ComponentKind.NDF),
        bs=splitters[0].id if splitters else None,
        bb=first(ComponentKind.BEAM_BLOCK),
        lens=first(ComponentKind.LENS),
        ic=first(ComponentKind.MIRROR_IC),
        oc=first(ComponentKind.MIRROR_OC),
        crystal=first(ComponentKind.CRYSTAL),
        bpf=first(ComponentKind.BPF),
        cam_main=main,
        cam_arm=arm,
    )


def _need(roles: _Roles, *names: str) -> list[str]:
    """The ids of the named roles, in order; the first one missing raises."""
    what = {f.name: f.metadata["name"] for f in dataclasses.fields(roles)}
    ids = [getattr(roles, name) for name in names]
    for name, component_id in zip(names, ids):
        if component_id is None:
            raise MissingComponentError(f"layout declares no {what[name]}")
    return ids


# ---------------------------------------------------------------------------
# Construction stages


def _place(state: PipelineState, step, component_id: str, fit=None) -> None:
    """Move a part to its layout station; with ``fit``, onto the surveyed
    beam line at the station's x."""
    rec = state.layout.record(component_id)
    y = fit.y_at(rec.x) if fit is not None else rec.y
    state.ws = move_component(state.ws, component_id, Pose(rec.x, y, rec.z, rec.yaw))
    state.log_event(step, f"station {component_id}")


def _center(state: PipelineState, step, part: str, camera_id: str, cfg,
            stalled: str, target_px=None) -> None:
    """Slide ``part`` until its spot on the camera sits on the target; the
    format string ``stalled`` may use ``part``, ``camera`` and ``error_mm``."""
    state.ws, trace = spatial_optimize(state.ws, part, camera_id,
                                       target_px=target_px, cfg=cfg)
    state.hold(*trace.last_view)
    state.log_event(step, f"spatial optimize {part}", trace.summary())
    if not trace.converged:
        raise ConstructionError(step, stalled.format(
            part=part, camera=camera_id, error_mm=trace.meta["final_error_mm"]))


def _capture_reference(state: PipelineState, step, camera_id: str) -> None:
    frame = state.view(camera_id)
    stats = beam_stats(frame)
    if stats.saturated:
        raise SaturationError(f"reference frame on {camera_id} is saturated")
    if not stats.detected:
        raise BeamLostError(f"reference frame on {camera_id} shows no spot")
    state.reference_frames[camera_id] = frame
    state.log_event(step, f"reference {camera_id}", {
        "total_intensity": stats.total_intensity,
        "centroid_px": stats.centroid_px,
    })


def _align_retro(state: PipelineState, step, rng, mirror: str, camera_id: str,
                 radius_px: float, reference_scale=None) -> None:
    """Walk the mirror's reflection onto the camera's stored reference spot."""
    reference = state.reference_frames.get(camera_id)
    if reference is None:
        raise WorkspaceError(f"no reference frame stored for {camera_id}")
    state.ws, trace = align_resonator(
        state.ws, mirror, camera_id, reference, rng,
        success_radius_px=radius_px, reference_scale=reference_scale)
    state.log_event(step, f"angular optimize {mirror}", trace.summary())
    if not trace.converged:
        raise ConstructionError(
            step, f"{mirror} reflection never reached {radius_px:.0f} px "
            "of the reference spot")


def _expect_dark(state: PipelineState, step, camera_id: str, why: str) -> None:
    if centroid(state.view(camera_id)).detected:
        raise ConstructionError(step, why)


# ---------------------------------------------------------------------------
# Construction steps


def _step_scatter(state: PipelineState, step, rng, ctx) -> None:
    layout = state.layout
    (xmin, xmax), (_, ymax) = state.ws.table_bounds
    for rec in layout.records:
        if rec.kind == ComponentKind.PUMP_SOURCE:
            continue
        target = Pose(float(rng.uniform(xmin + 30.0, xmax - 30.0)),
                      float(rng.uniform(ymax - 100.0, ymax - 60.0)))
        state.ws = place_component(state.ws, layout.template(rec.id), target)
        pose = state.ws.component(rec.id).pose
        state.log_event(step, f"scatter {rec.id}", {"x": pose.x, "y": pose.y})


def _step_cams_ndf(state: PipelineState, step, rng, ctx) -> None:
    cam_main, cam_arm, ndf = _need(ctx["roles"], "cam_main", "cam_arm", "ndf")
    _place(state, step, cam_main)
    _place(state, step, ndf)
    stats = beam_stats(state.view(cam_main))
    if stats.saturated:
        raise SaturationError(
            f"{cam_main} saturates even with {ndf} in the beam; "
            "lower the filter transmittance")
    if not stats.detected:
        raise BeamLostError(f"no pump spot on {cam_main} after filtering")
    state.ws, fit = measure_beam_path(state.ws, cam_main)
    ctx["fit"] = fit
    state.log_event(step, "survey beam path", {
        "slope": fit.slope,
        "intercept_mm": fit.intercept,
        "rms_residual_mm": fit.rms_residual,
        "points": fit.points,
    })
    _place(state, step, cam_arm)


def _step_place_oc(state: PipelineState, step, rng, ctx) -> None:
    cam_main, oc = _need(ctx["roles"], "cam_main", "oc")
    spot = centroid(state.view(cam_main))
    if not spot.detected:
        raise BeamLostError(f"no reference spot on {cam_main}")
    _place(state, step, oc, ctx["fit"])
    _center(state, step, oc, cam_main,
            SpatialOptConfig(tolerance_mm=state.layout.physics.pump_waist_mm),
            "{part} spatial stage stalled at {error_mm:.3f} mm from the reference spot",
            target_px=(spot.x_px, spot.y_px))


def _step_place_bb(state: PipelineState, step, rng, ctx) -> None:
    bb, cam_main = _need(ctx["roles"], "bb", "cam_main")
    _place(state, step, bb, ctx["fit"])
    _expect_dark(state, step, cam_main,
                 f"{bb} is in place but {cam_main} still sees the beam")


def _step_bs_reference(state: PipelineState, step, rng, ctx) -> None:
    bs, cam_arm = _need(ctx["roles"], "bs", "cam_arm")
    _place(state, step, bs, ctx["fit"])
    arm = state.ws.component(cam_arm)
    tolerance = (_BS_WIDTH_FRACTION * int(arm.param("width_px"))
                 * float(arm.param("pixel_pitch_mm")))
    _center(state, step, bs, cam_arm, SpatialOptConfig(tolerance_mm=tolerance),
            "{part} could not bring the pick-off near the {camera} center")
    _capture_reference(state, step, cam_arm)


def _step_align_oc(state: PipelineState, step, rng, ctx) -> None:
    bb, oc, cam_arm = _need(ctx["roles"], "bb", "oc", "cam_arm")
    state.ws = park_component(state.ws, bb)
    state.log_event(step, f"park {bb}")
    _align_retro(state, step, rng, oc, cam_arm, _OC_RADIUS_PX)


def _step_place_lens(state: PipelineState, step, rng, ctx) -> None:
    bs, lens, cam_main = _need(ctx["roles"], "bs", "lens", "cam_main")
    state.ws = park_component(state.ws, bs)
    state.log_event(step, f"park {bs}")
    spot = centroid(state.view(cam_main))
    if not spot.detected:
        raise BeamLostError(f"no spot on {cam_main} after removing {bs}")
    _place(state, step, lens, ctx["fit"])
    _center(state, step, lens, cam_main,
            SpatialOptConfig(tolerance_mm=LENS_TOLERANCE_MM, max_iters=LENS_MAX_ITERS),
            "{part} spatial stage stalled at {error_mm:.3f} mm from the pump axis",
            target_px=(spot.x_px, spot.y_px))
    _capture_reference(state, step, cam_main)


def _step_place_ic(state: PipelineState, step, rng, ctx) -> None:
    [ic] = _need(ctx["roles"], "ic")
    _place(state, step, ic, ctx["fit"])


def _step_align_ic(state: PipelineState, step, rng, ctx) -> None:
    ic, cam_main = _need(ctx["roles"], "ic", "cam_main")
    transmission = float(state.ws.component(ic).param("pump_transmission"))
    _align_retro(state, step, rng, ic, cam_main, _IC_RADIUS_PX,
                 reference_scale=transmission)


def _step_place_bpf(state: PipelineState, step, rng, ctx) -> None:
    bpf, cam_main = _need(ctx["roles"], "bpf", "cam_main")
    _place(state, step, bpf, ctx["fit"])
    _expect_dark(state, step, cam_main,
                 f"{bpf} passes pump light; {cam_main} should be dark until "
                 "the crystal emits")


def _step_place_crystal(state: PipelineState, step, rng, ctx) -> None:
    crystal, ic, oc, cam_main = _need(ctx["roles"], "crystal", "ic", "oc", "cam_main")
    _place(state, step, crystal, ctx["fit"])
    state.ws, theta, sweep = crystal_sweep(state.ws, crystal, cam_main)
    state.log_event(step, f"sweep {crystal}", {
        "theta_deg": theta, "evaluations": len(sweep)})
    frame = state.view(cam_main)
    stats = beam_stats(frame)
    sigma_ref = float(max(stats.sigma_px)) if stats.detected else None
    incoming = knob_readings(state.ws, (ic, oc))
    incoming_score = emission_score(frame, root=True, sigma_ref_px=sigma_ref)
    state.ws, trace = optimize_mode(
        state.ws, (ic, oc), cam_main, rng,
        span_deg=_MODE_SPAN_DEG, max_iters=_MODE_MAX_ITERS,
        init_samples=_MODE_INIT_SAMPLES,
        length_scale_deg=_MODE_LENGTH_SCALE_DEG, sigma_ref_px=sigma_ref)
    reverted = False
    if emission_score(state.view(cam_main), root=True,
                      sigma_ref_px=sigma_ref) < incoming_score:
        # The optimizer applies the best point it sampled, which is not
        # guaranteed to beat the pre-search alignment; keep the better one.
        state.ws = apply_knob_readings(state.ws, incoming)
        reverted = True
    state.log_event(step, "optimize mode",
                    {**trace.summary(), "kept_incoming": reverted})


def _step_verify_lasing(state: PipelineState, step, rng, ctx) -> None:
    cam_main, pump_id = _need(ctx["roles"], "cam_main", "pump")
    operating = float(state.ws.component(pump_id).param("power"))
    curve = measure_power_curve(state.ws, np.linspace(0.0, operating, 11))
    cav = cavity_response(state.ws)
    if not cav.lasing:
        raise NoLasingError("cavity does not lase at the operating pump power")
    if cav.mode_order != 0:
        raise ConstructionError(
            step, f"cavity lases in transverse order {cav.mode_order}, "
            "not the fundamental")
    stats = beam_stats(state.view(cam_main))
    if not stats.detected:
        raise BeamLostError(f"lasing but no spot on {cam_main}")
    state.baseline = {
        "objective": float(stats.total_intensity),
        "mode_order": int(cav.mode_order),
        "output_power": float(cav.output_power),
        "misalignment": float(cav.misalignment),
        "threshold": float(cav.threshold),
        "threshold_fit": float(curve.threshold),
        "slope_fit": float(curve.slope),
        "total_intensity": float(stats.total_intensity),
        "sigma_px": float(max(stats.sigma_px)),
        "centroid_px": [float(stats.centroid_px[0]), float(stats.centroid_px[1])],
    }
    state.ws = take_snapshot(state.ws)
    state.log_event(step, "verify lasing", {
        "threshold_fit": curve.threshold,
        "slope_fit": curve.slope,
        "output_power": cav.output_power,
        "mode_order": cav.mode_order,
    })


_STEPS = (
    (StepId.SCATTER_INIT, _step_scatter),
    (StepId.PLACE_CAMS_NDF, _step_cams_ndf),
    (StepId.PLACE_OC_SPATIAL_OPT, _step_place_oc),
    (StepId.PLACE_BB, _step_place_bb),
    (StepId.PLACE_BS_REFERENCE, _step_bs_reference),
    (StepId.REMOVE_BB_ANGULAR_OPT_OC, _step_align_oc),
    (StepId.REMOVE_BS_PLACE_LENS_SPATIAL_OPT, _step_place_lens),
    (StepId.PLACE_IC, _step_place_ic),
    (StepId.ANGULAR_OPT_IC, _step_align_ic),
    (StepId.PLACE_BPF, _step_place_bpf),
    (StepId.PLACE_CRYSTAL, _step_place_crystal),
    (StepId.LASING_VERIFIED, _step_verify_lasing),
)


def run_construction(layout: Layout, seed=None) -> PipelineState:
    """Assemble, align, and verify the cavity described by ``layout``.

    Steps run strictly in order; the first stage that cannot reach its
    criterion aborts the build with a :class:`ConstructionError` tagged with
    the failing step and carrying the event log so far. On success the
    returned state holds the completed workspace, its snapshot, and the
    baseline record that recovery routines compare against.
    """
    seed = layout.seed if seed is None else int(seed)
    state = PipelineState(ws=build_workspace(layout, seed), layout=layout,
                          seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _CONTROLLER_STREAM]))
    ctx: dict[str, Any] = {"roles": resolve_roles(layout)}
    for step, run in _STEPS:
        try:
            run(state, step, rng, ctx)
        except ConstructionError as exc:
            if not exc.log:
                exc.log = state.log
            if exc.state is None:
                exc.state = state
            raise
        except CavforgeError as exc:
            raise ConstructionError(step, str(exc), log=state.log,
                                    state=state) from exc
        state.current_step = int(step)
    return state


# ---------------------------------------------------------------------------
# Verification and upkeep


@dataclasses.dataclass(frozen=True)
class PowerCurveFit:
    """Two-segment fit of output power against pump power."""

    threshold: float
    slope: float
    points: tuple


def measure_power_curve(ws: Workspace, pump_powers) -> PowerCurveFit:
    """Sweep the pump and fit the lasing branch of the output curve.

    The curve is zero below threshold and affine above it, so the lasing
    points determine a line whose x-intercept estimates the threshold.
    Raises :class:`NoLasingError` when fewer than two sweep points lase.
    """
    # The trace does not depend on the pump power.
    trace = trace_beam(ws)
    points = []
    for p in pump_powers:
        cav = cavity_response(ws, pump_power=float(p), trace=trace)
        points.append((float(p), float(cav.output_power)))
    lasing = np.asarray([pt for pt in points if pt[1] > 0.0])
    if len(lasing) < 2:
        raise NoLasingError("pump sweep produced fewer than two lasing points")
    slope, intercept = np.polyfit(lasing[:, 0], lasing[:, 1], 1)
    if slope <= 0.0:
        raise NoLasingError("pump sweep has no rising lasing branch")
    return PowerCurveFit(threshold=float(-intercept / slope),
                         slope=float(slope), points=tuple(points))


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one recovery routine run."""

    scenario: str
    success: bool
    attempts: int
    iterations: int
    actions: int
    ratio: float
    details: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "success": self.success,
            "attempts": self.attempts,
            "iterations": self.iterations,
            "actions": self.actions,
            "ratio": self.ratio,
            "details": _jsonable(self.details),
        }


def _require_complete(state: PipelineState) -> None:
    if state.current_step != int(StepId.LASING_VERIFIED) or state.baseline is None:
        raise WorkspaceError("a completed build is required")


def _objective_ratio(state: PipelineState) -> float:
    [cam_main] = _need(resolve_roles(state.layout), "cam_main")
    score = emission_score(state.view(cam_main), root=False,
                           sigma_ref_px=state.baseline["sigma_px"])
    return float(score / state.baseline["objective"])


def surveillance_tick(state: PipelineState) -> dict:
    """Classify the bench as ok, displaced, or signal-lost.

    Pose deviations beyond a millimetre win over the camera check because
    they point at a specific component; knob creep leaves poses intact and
    shows up as a lost or collapsed signal instead.
    """
    _require_complete(state)
    displaced = detect_displacement(state.ws)
    if displaced:
        return {
            "status": "displacement",
            "displaced": [{"id": cid, "distance_mm": float(d)}
                          for cid, d in displaced],
        }
    # Quality-aware: a drifted cavity can still glow at half the baseline
    # intensity in a high-order mode, which is a lost signal, not a healthy
    # one. The intensity-over-quality ratio catches both dark and degraded.
    if _objective_ratio(state) < _SIGNAL_FRACTION:
        return {"status": "signal_lost"}
    return {"status": "ok"}


def recover_displacement(state: PipelineState) -> RecoveryReport:
    """Move displaced components back to their snapshot poses.

    One restore pass runs unconditionally; while the laser signal stays
    missing, the re-grip loop repeats the same placement (fresh actuation
    noise every grip) up to ``_DISPLACEMENT_MAX_ATTEMPTS`` times.
    ``attempts`` counts only those extra rounds, so a clean first pass
    reports zero attempts and one placement pass. The report carries the
    last ratio measured, on failure too.
    """
    _require_complete(state)
    if state.ws.snapshot is None:
        raise NoSnapshotError("no snapshot to recover toward")
    actions0 = state.ws.action_count
    displaced = [cid for cid, _ in detect_displacement(state.ws)]

    def restore():
        ws = state.ws
        for cid in displaced:
            ws = move_component(ws, cid, ws.snapshot[cid])
        state.ws = ws

    restore()
    attempts = 0
    ratio = _objective_ratio(state)
    while ratio < _SIGNAL_FRACTION and attempts < _DISPLACEMENT_MAX_ATTEMPTS:
        attempts += 1
        restore()
        ratio = _objective_ratio(state)
    success = ratio >= _SIGNAL_FRACTION
    return RecoveryReport(
        scenario="displacement",
        success=success,
        attempts=attempts,
        iterations=0,
        actions=state.ws.action_count - actions0,
        ratio=ratio,
        details={"displaced": displaced, "placements": attempts + 1},
    )


def recover_drift(state: PipelineState, rng=None,
                  max_iters: int = 60) -> RecoveryReport:
    """Re-search the four cavity knobs after the mounts have crept.

    Runs the joint knob optimizer over both knobs of the input and output
    mirrors in a zoom-in schedule: the first round searches
    ``_DRIFT_SPAN_DEG`` either side of the current readings, and each later
    round re-centers a smaller box on the best readings so far. Every round
    climbs on the total camera intensity, which falls smoothly with
    misalignment, and stops once it reaches ``_DRIFT_STOP_FRACTION`` of the
    baseline intensity; intensity over beam quality, the score the bench is
    judged on, drops threefold at each mode boundary, and a search on it
    tends to park on the first higher-order shelf it finds. The total
    intensity is also the score on which :func:`~cavforge.align.optimize_mode`
    takes model steps, to the vertex of a separable quadratic fitted to the
    bright evaluations; each round's summary counts its ``model_steps``
    among its evaluations. A round that ends with less intensity than its
    predecessor is rolled back, to the readings saved after the best
    round. Rounds share the ``max_iters`` evaluation budget. After each
    round the intensity-over-quality ratio to the baseline is read once at
    the best readings; the search stops, and the recovery succeeds, once it
    reaches ``_DRIFT_SUCCESS_FRACTION``. The report carries that last ratio.
    """
    _require_complete(state)
    if max_iters < 1:
        raise WorkspaceError("max_iters must be at least 1")
    ic, oc, cam_main = _need(resolve_roles(state.layout), "ic", "oc", "cam_main")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(
            [state.seed, _DRIFT_STREAM, state.ws.action_count]))
    actions0 = state.ws.action_count
    stop = _DRIFT_STOP_FRACTION * state.baseline["objective"]
    mirrors = (ic, oc)
    rounds = (
        (_DRIFT_SPAN_DEG, max(_DRIFT_INIT_SAMPLES, round(0.30 * max_iters)),
         _DRIFT_INIT_SAMPLES, _DRIFT_LENGTH_SCALE_DEG),
        (0.42 * _DRIFT_SPAN_DEG, max(8, round(0.23 * max_iters)), 8,
         0.45 * _DRIFT_LENGTH_SCALE_DEG),
        (0.18 * _DRIFT_SPAN_DEG, max(6, round(0.20 * max_iters)), 6,
         0.20 * _DRIFT_LENGTH_SCALE_DEG),
        (0.09 * _DRIFT_SPAN_DEG, max_iters, 6, 0.10 * _DRIFT_LENGTH_SCALE_DEG),
    )
    used = 0
    best_cost = math.inf
    best_pairs = knob_readings(state.ws, mirrors)
    summaries = []
    for span, iters, init, scale in rounds:
        budget = min(iters, max_iters - used)
        if budget < 1:
            break
        # No reference width: the score is the total intensity.
        state.ws, trace = optimize_mode(
            state.ws, mirrors, cam_main, rng,
            span_deg=span, max_iters=budget,
            init_samples=min(init, budget), length_scale_deg=scale,
            objective_kind="I_over_M2", success_value=stop)
        state.hold(*trace.last_view)
        used += len(trace)
        summaries.append(trace.summary())
        if trace.best_objective < best_cost:
            best_cost = trace.best_objective
            best_pairs = knob_readings(state.ws, mirrors)
        else:
            state.ws = apply_knob_readings(state.ws, best_pairs)
        ratio = _objective_ratio(state)
        if ratio >= _DRIFT_SUCCESS_FRACTION:
            break
    return RecoveryReport(
        scenario="drift",
        success=ratio >= _DRIFT_SUCCESS_FRACTION,
        attempts=0,
        iterations=used,
        actions=state.ws.action_count - actions0,
        ratio=ratio,
        details={"stop_intensity": stop, "rounds": summaries},
    )
