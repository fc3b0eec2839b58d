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
    AngularOptConfig,
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
    MissingComponentError,
    NoLasingError,
    NoSnapshotError,
    SaturationError,
    WorkspaceError,
)
from .layout import SCHEMA_VERSION, Layout, build_workspace, validate_layout
from .physics import camera_view, cavity_response
from .simcore import (
    ComponentKind,
    Pose,
    Workspace,
    detect_displacement,
    move_component,
    park_component,
    place_component,
    set_knob_readings,
    take_snapshot,
)
from .vision import beam_stats, centroid

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
_DRIFT_INIT_SAMPLES = 12
_DRIFT_LENGTH_SCALE_DEG = 20.0
_SIGNAL_FRACTION = 0.25

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
    record exists exactly when the final step has completed.
    """

    ws: Workspace
    layout: Layout
    seed: int
    current_step: int = 0
    reference_frames: dict = dataclasses.field(default_factory=dict)
    baseline: dict | None = None
    log: list = dataclasses.field(default_factory=list)

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
        layout = validate_layout(d["layout"])
        return cls(
            ws=Workspace.from_dict(d["workspace"], physics=layout.physics),
            layout=layout,
            seed=int(d["seed"]),
            current_step=int(d["current_step"]),
            baseline=d.get("baseline"),
            log=list(d.get("log", [])),
        )


@dataclasses.dataclass(frozen=True)
class _Roles:
    pump: str | None
    ndf: str | None
    bs: str | None
    bb: str | None
    lens: str | None
    ic: str | None
    oc: str | None
    crystal: str | None
    bpf: str | None
    cam_main: str | None
    cam_arm: str | None


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


def _need(component_id, what) -> str:
    if component_id is None:
        raise MissingComponentError(f"layout declares no {what}")
    return component_id


def _station(layout: Layout, component_id: str, fit=None) -> Pose:
    rec = layout.record(component_id)
    y = fit.y_at(rec.x) if fit is not None else rec.y
    return Pose(rec.x, y, rec.z, rec.yaw)


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
    layout, roles = state.layout, ctx["roles"]
    cam_main = _need(roles.cam_main, "main-axis camera")
    cam_arm = _need(roles.cam_arm, "side-arm camera")
    ndf = _need(roles.ndf, "neutral-density filter")
    state.ws = move_component(state.ws, cam_main, _station(layout, cam_main))
    state.log_event(step, f"station {cam_main}")
    state.ws = move_component(state.ws, ndf, _station(layout, ndf))
    state.log_event(step, f"station {ndf}")
    stats = beam_stats(camera_view(state.ws, cam_main))
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
    state.ws = move_component(state.ws, cam_arm, _station(layout, cam_arm))
    state.log_event(step, f"station {cam_arm}")


def _step_place_oc(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    cam_main = _need(roles.cam_main, "main-axis camera")
    oc = _need(roles.oc, "output mirror")
    spot = centroid(camera_view(state.ws, cam_main))
    if not spot.detected:
        raise BeamLostError(f"no reference spot on {cam_main}")
    ctx["cam_main_target"] = (spot.x_px, spot.y_px)
    state.ws = move_component(state.ws, oc, _station(layout, oc, ctx["fit"]))
    state.log_event(step, f"station {oc}")
    state.ws, trace = spatial_optimize(
        state.ws, oc, cam_main, target_px=ctx["cam_main_target"],
        cfg=SpatialOptConfig(tolerance_mm=layout.physics.pump_waist_mm))
    state.log_event(step, f"spatial optimize {oc}", trace.summary())
    if not trace.converged:
        raise ConstructionError(
            step, f"{oc} spatial stage stalled at "
            f"{trace.meta['final_error_mm']:.3f} mm from the reference spot")


def _step_place_bb(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    bb = _need(roles.bb, "beam block")
    cam_main = _need(roles.cam_main, "main-axis camera")
    state.ws = move_component(state.ws, bb, _station(layout, bb, ctx["fit"]))
    state.log_event(step, f"station {bb}")
    if centroid(camera_view(state.ws, cam_main)).detected:
        raise ConstructionError(
            step, f"{bb} is in place but {cam_main} still sees the beam")


def _step_bs_reference(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    bs = _need(roles.bs, "beam splitter")
    cam_arm = _need(roles.cam_arm, "side-arm camera")
    state.ws = move_component(state.ws, bs, _station(layout, bs, ctx["fit"]))
    state.log_event(step, f"station {bs}")
    probe = camera_view(state.ws, cam_arm)
    tolerance = _BS_WIDTH_FRACTION * probe.width * probe.pixel_pitch_mm
    state.ws, trace = spatial_optimize(
        state.ws, bs, cam_arm, cfg=SpatialOptConfig(tolerance_mm=tolerance))
    state.log_event(step, f"spatial optimize {bs}", trace.summary())
    if not trace.converged:
        raise ConstructionError(
            step, f"{bs} could not bring the pick-off near the {cam_arm} center")
    _, stats = _capture_reference(state, cam_arm)
    state.log_event(step, f"reference {cam_arm}", {
        "total_intensity": stats.total_intensity,
        "centroid_px": stats.centroid_px,
    })


def _step_align_oc(state: PipelineState, step, rng, ctx) -> None:
    roles = ctx["roles"]
    bb = _need(roles.bb, "beam block")
    oc = _need(roles.oc, "output mirror")
    cam_arm = _need(roles.cam_arm, "side-arm camera")
    state.ws = park_component(state.ws, bb)
    state.log_event(step, f"park {bb}")
    reference = state.reference_frames.get(cam_arm)
    if reference is None:
        raise WorkspaceError(f"no reference frame stored for {cam_arm}")
    state.ws, trace = align_resonator(
        state.ws, oc, cam_arm, reference, rng,
        cfg=AngularOptConfig(success_radius_px=_OC_RADIUS_PX))
    state.log_event(step, f"angular optimize {oc}", trace.summary())
    if not trace.converged:
        raise ConstructionError(
            step, f"{oc} reflection never reached {_OC_RADIUS_PX:.0f} px "
            "of the reference spot")


def _step_place_lens(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    bs = _need(roles.bs, "beam splitter")
    lens = _need(roles.lens, "pump lens")
    cam_main = _need(roles.cam_main, "main-axis camera")
    state.ws = park_component(state.ws, bs)
    state.log_event(step, f"park {bs}")
    spot = centroid(camera_view(state.ws, cam_main))
    if not spot.detected:
        raise BeamLostError(f"no spot on {cam_main} after removing {bs}")
    state.ws = move_component(state.ws, lens, _station(layout, lens, ctx["fit"]))
    state.log_event(step, f"station {lens}")
    state.ws, trace = spatial_optimize(
        state.ws, lens, cam_main, target_px=(spot.x_px, spot.y_px),
        cfg=SpatialOptConfig(tolerance_mm=LENS_TOLERANCE_MM,
                             max_iters=LENS_MAX_ITERS))
    state.log_event(step, f"spatial optimize {lens}", trace.summary())
    if not trace.converged:
        raise ConstructionError(
            step, f"{lens} spatial stage stalled at "
            f"{trace.meta['final_error_mm']:.3f} mm from the pump axis")
    _, stats = _capture_reference(state, cam_main)
    state.log_event(step, f"reference {cam_main}", {
        "total_intensity": stats.total_intensity,
        "centroid_px": stats.centroid_px,
    })


def _step_place_ic(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    ic = _need(roles.ic, "input mirror")
    state.ws = move_component(state.ws, ic, _station(layout, ic, ctx["fit"]))
    state.log_event(step, f"station {ic}")


def _step_align_ic(state: PipelineState, step, rng, ctx) -> None:
    roles = ctx["roles"]
    ic = _need(roles.ic, "input mirror")
    cam_main = _need(roles.cam_main, "main-axis camera")
    reference = state.reference_frames.get(cam_main)
    if reference is None:
        raise WorkspaceError(f"no reference frame stored for {cam_main}")
    transmission = float(state.ws.component(ic).param("pump_transmission", 1.0))
    state.ws, trace = align_resonator(
        state.ws, ic, cam_main, reference, rng,
        cfg=AngularOptConfig(success_radius_px=_IC_RADIUS_PX),
        reference_scale=transmission)
    state.log_event(step, f"angular optimize {ic}", trace.summary())
    if not trace.converged:
        raise ConstructionError(
            step, f"{ic} reflection never reached {_IC_RADIUS_PX:.0f} px "
            "of the reference spot")


def _step_place_bpf(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    bpf = _need(roles.bpf, "line filter")
    cam_main = _need(roles.cam_main, "main-axis camera")
    state.ws = move_component(state.ws, bpf, _station(layout, bpf, ctx["fit"]))
    state.log_event(step, f"station {bpf}")
    if centroid(camera_view(state.ws, cam_main)).detected:
        raise ConstructionError(
            step, f"{bpf} passes pump light; {cam_main} should be dark until "
            "the crystal emits")


def _step_place_crystal(state: PipelineState, step, rng, ctx) -> None:
    layout, roles = state.layout, ctx["roles"]
    crystal = _need(roles.crystal, "gain crystal")
    ic = _need(roles.ic, "input mirror")
    oc = _need(roles.oc, "output mirror")
    cam_main = _need(roles.cam_main, "main-axis camera")
    state.ws = move_component(state.ws, crystal,
                              _station(layout, crystal, ctx["fit"]))
    state.log_event(step, f"station {crystal}")
    state.ws, theta, sweep = crystal_sweep(state.ws, crystal, cam_main)
    state.log_event(step, f"sweep {crystal}", {
        "theta_deg": theta, "evaluations": len(sweep)})
    stats = beam_stats(camera_view(state.ws, cam_main))
    sigma_ref = float(max(stats.sigma_px)) if stats.detected else None

    def score():
        s = beam_stats(camera_view(state.ws, cam_main), sigma_ref_px=sigma_ref)
        if not s.detected:
            return 0.0
        quality = s.m_squared if s.m_squared is not None else 1.0
        return math.sqrt(s.total_intensity) / quality

    def readings(mirror_id):
        knobs = state.ws.component(mirror_id).knobs
        return knobs.h_deg, knobs.v_deg

    incoming = {cid: readings(cid) for cid in (ic, oc)}
    incoming_score = score()
    state.ws, trace = optimize_mode(
        state.ws, [(ic, "h"), (ic, "v"), (oc, "h"), (oc, "v")], cam_main, rng,
        span_deg=_MODE_SPAN_DEG, max_iters=_MODE_MAX_ITERS,
        init_samples=_MODE_INIT_SAMPLES,
        length_scale_deg=_MODE_LENGTH_SCALE_DEG, sigma_ref_px=sigma_ref)
    reverted = False
    if score() < incoming_score:
        # The optimizer applies the best point it sampled, which is not
        # guaranteed to beat the pre-search alignment; keep the better one.
        for cid, (h, v) in incoming.items():
            state.ws = set_knob_readings(state.ws, cid, h, v)
        reverted = True
    state.log_event(step, "optimize mode",
                    {**trace.summary(), "kept_incoming": reverted})


def _step_verify_lasing(state: PipelineState, step, rng, ctx) -> None:
    roles = ctx["roles"]
    cam_main = _need(roles.cam_main, "main-axis camera")
    pump_id = _need(roles.pump, "pump source")
    operating = float(state.ws.component(pump_id).param("power", 1.0))
    curve = measure_power_curve(state.ws, np.linspace(0.0, operating, 11))
    cav = cavity_response(state.ws)
    if not cav.lasing:
        raise NoLasingError("cavity does not lase at the operating pump power")
    if cav.mode_order != 0:
        raise ConstructionError(
            step, f"cavity lases in transverse order {cav.mode_order}, "
            "not the fundamental")
    stats = beam_stats(camera_view(state.ws, cam_main))
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


def _capture_reference(state: PipelineState, camera_id: str):
    frame = camera_view(state.ws, camera_id)
    stats = beam_stats(frame)
    if stats.saturated:
        raise SaturationError(f"reference frame on {camera_id} is saturated")
    if not stats.detected:
        raise BeamLostError(f"reference frame on {camera_id} shows no spot")
    state.reference_frames[camera_id] = frame
    return frame, stats


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

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "slope": self.slope,
            "points": [list(p) for p in self.points],
        }


def measure_power_curve(ws: Workspace, pump_powers) -> PowerCurveFit:
    """Sweep the pump and fit the lasing branch of the output curve.

    The curve is zero below threshold and affine above it, so the lasing
    points determine a line whose x-intercept estimates the threshold.
    Raises :class:`NoLasingError` when fewer than two sweep points lase.
    """
    points = []
    for p in pump_powers:
        cav = cavity_response(ws, pump_power=float(p))
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


def _signal_ok(state: PipelineState) -> bool:
    # Quality-aware: a drifted cavity can still glow at half the baseline
    # intensity in a high-order mode, which is a lost signal, not a healthy
    # one. The intensity-over-quality ratio catches both dark and degraded.
    return _objective_ratio(state) >= _SIGNAL_FRACTION


def _objective_ratio(state: PipelineState) -> float:
    roles = resolve_roles(state.layout)
    frame = camera_view(state.ws, _need(roles.cam_main, "main-axis camera"))
    stats = beam_stats(frame, sigma_ref_px=state.baseline["sigma_px"])
    if not stats.detected:
        return 0.0
    quality = stats.m_squared if stats.m_squared is not None else 1.0
    return float(stats.total_intensity / quality / state.baseline["objective"])


def surveillance_tick(state: PipelineState) -> dict:
    """Classify the bench as ok, displaced, or signal-lost.

    Pose deviations beyond a millimetre win over the camera check because
    they point at a specific component; knob creep leaves poses intact and
    shows up as a lost or collapsed signal instead.
    """
    _require_complete(state)
    displaced = detect_displacement(state.ws, tolerance_mm=1.0)
    if displaced:
        return {
            "status": "displacement",
            "displaced": [{"id": cid, "distance_mm": float(d)}
                          for cid, d in displaced],
        }
    if not _signal_ok(state):
        return {"status": "signal_lost"}
    return {"status": "ok"}


def recover_displacement(state: PipelineState, max_attempts: int = 10) -> RecoveryReport:
    """Move displaced components back to their snapshot poses.

    One restore pass runs unconditionally; while the laser signal stays
    missing, the re-grip loop repeats the same placement (fresh actuation
    noise every grip) up to ``max_attempts`` times. ``attempts`` counts only
    those extra rounds, so a clean first pass reports zero attempts and one
    placement pass.
    """
    _require_complete(state)
    if state.ws.snapshot is None:
        raise NoSnapshotError("no snapshot to recover toward")
    actions0 = state.ws.action_count
    displaced = [cid for cid, _ in detect_displacement(state.ws, tolerance_mm=1.0)]

    def restore():
        ws = state.ws
        for cid in displaced:
            ws = move_component(ws, cid, ws.snapshot[cid])
        state.ws = ws

    restore()
    attempts = 0
    while not _signal_ok(state) and attempts < max_attempts:
        attempts += 1
        restore()
    success = _signal_ok(state)
    return RecoveryReport(
        scenario="displacement",
        success=success,
        attempts=attempts,
        iterations=0,
        actions=state.ws.action_count - actions0,
        ratio=_objective_ratio(state) if success else 0.0,
        details={"displaced": displaced, "placements": attempts + 1},
    )


def recover_drift(state: PipelineState, rng=None, max_iters: int = 60,
                  span_deg: float = 65.0) -> RecoveryReport:
    """Re-search the four cavity knobs after the mounts have crept.

    Runs the joint knob optimizer on intensity over beam quality in a
    zoom-in schedule: each round re-centers a smaller box on the best
    readings so far, because the quality term jumps at the mode boundaries
    and a single wide-box search tends to park on the first lasing shelf it
    finds. Rounds share one evaluation budget and any round may stop the
    whole search early by clearing 90% of the stored baseline. A round that
    ends worse than its predecessor is rolled back before the next one.
    """
    _require_complete(state)
    roles = resolve_roles(state.layout)
    ic = _need(roles.ic, "input mirror")
    oc = _need(roles.oc, "output mirror")
    cam_main = _need(roles.cam_main, "main-axis camera")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(
            [state.seed, _DRIFT_STREAM, state.ws.action_count]))
    actions0 = state.ws.action_count
    target = _DRIFT_SUCCESS_FRACTION * state.baseline["objective"]
    axes = [(ic, "h"), (ic, "v"), (oc, "h"), (oc, "v")]

    def knob_state():
        pairs = {}
        for cid, _ in axes:
            knobs = state.ws.component(cid).knobs
            pairs[cid] = (knobs.h_deg, knobs.v_deg)
        return pairs

    def restore(pairs):
        for cid, (h, v) in pairs.items():
            state.ws = set_knob_readings(state.ws, cid, h, v)

    rounds = (
        (span_deg, max(_DRIFT_INIT_SAMPLES, round(0.30 * max_iters)),
         _DRIFT_INIT_SAMPLES, _DRIFT_LENGTH_SCALE_DEG),
        (0.42 * span_deg, max(8, round(0.23 * max_iters)), 8,
         0.45 * _DRIFT_LENGTH_SCALE_DEG),
        (0.18 * span_deg, max(6, round(0.20 * max_iters)), 6,
         0.20 * _DRIFT_LENGTH_SCALE_DEG),
        (0.09 * span_deg, max_iters, 6, 0.10 * _DRIFT_LENGTH_SCALE_DEG),
    )
    used = 0
    best_cost = math.inf
    best_pairs = knob_state()
    summaries = []
    for i, (span, iters, init, scale) in enumerate(rounds):
        budget = max_iters - used if i == len(rounds) - 1 else min(iters, max_iters - used)
        if budget < 1:
            break
        state.ws, trace = optimize_mode(
            state.ws, axes, cam_main, rng,
            span_deg=span, max_iters=budget,
            init_samples=min(init, budget), length_scale_deg=scale,
            sigma_ref_px=state.baseline["sigma_px"],
            objective_kind="I_over_M2", success_value=target)
        used += len(trace)
        summaries.append(trace.summary())
        if trace.best_objective < best_cost:
            best_cost = trace.best_objective
            best_pairs = knob_state()
        else:
            restore(best_pairs)
        if -best_cost >= target and _signal_ok(state):
            break
    success = bool(-best_cost >= target and _signal_ok(state))
    return RecoveryReport(
        scenario="drift",
        success=success,
        attempts=0,
        iterations=used,
        actions=state.ws.action_count - actions0,
        ratio=_objective_ratio(state),
        details={"target": target, "rounds": summaries},
    )
