"""Seeded trial batteries behind the trial-batch command.

Each battery reproduces one of the statistics the instrument is judged on:
the two camera-guided placement stages, knob-space mirror alignment from
offsets covering the sensor, whole-bench builds, and the two recovery
scenarios. Every random draw derives from (master seed, battery, trial
index), so a batch is reproducible row for row and batteries never share
streams.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .align import (
    SpatialOptConfig,
    align_resonator,
    latin_hypercube,
    spatial_optimize,
)
from .errors import CavforgeError, ConstructionError, WorkspaceError
from .layout import Layout, build_workspace
from .physics import camera_view
from .pipeline import (
    LENS_MAX_ITERS,
    LENS_TOLERANCE_MM,
    recover_displacement,
    recover_drift,
    resolve_roles,
    run_construction,
    surveillance_tick,
)
from .simcore import (
    Pose,
    inject_displacement,
    place_component,
    randomize_knobs,
    reseed,
    set_knob_bias,
)
from .vision import centroid

FIELDS = ("trial", "seed", "success", "iterations", "attempts", "actions",
          "final_error", "ratio", "step", "note")

# Battery tags keep the seed trees of different experiments disjoint even
# under the same master seed.
_TAG_SPATIAL_OC = 11
_TAG_SPATIAL_LENS = 12
_TAG_ANGULAR = 13
_TAG_DISPLACEMENT = 14
_TAG_DRIFT = 15

# Each placement stage, named for the role of the part it places: its
# battery tag, the range of the part's starting offset in mm, and its search
# settings.
_SPATIAL_STAGES = {
    "oc": (_TAG_SPATIAL_OC, -5.0, 5.0,
           lambda layout: SpatialOptConfig(tolerance_mm=layout.physics.pump_waist_mm)),
    "lens": (_TAG_SPATIAL_LENS, -1.25, 0.75,
             lambda layout: SpatialOptConfig(tolerance_mm=LENS_TOLERANCE_MM,
                                             max_iters=LENS_MAX_ITERS)),
}


def _child_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def _row(**kw) -> dict:
    base = {k: "" for k in FIELDS}
    base.update(kw)
    return base


def _stage_bench(layout: Layout, seed: int, ids):
    """Workspace with just the listed components down at their stations."""
    ws = build_workspace(layout, seed)
    for cid in ids:
        ws = place_component(ws, layout.template(cid),
                             layout.record(cid).nominal_pose())
    return ws


def spatial_trials(layout: Layout, master_seed: int, n_trials: int = 20,
                   stage: str = "oc") -> list:
    """Placement-stage battery: seeded initial offsets, one row per trial.

    The ``oc`` stage starts the output mirror anywhere in +-5 mm and must
    bring the camera spot within the pump waist of the pre-placement
    reference; the ``lens`` stage starts in [-1.25, 0.75] mm against its
    tighter focus tolerance.
    """
    if stage not in _SPATIAL_STAGES:
        raise WorkspaceError(f"unknown spatial stage {stage!r}")
    tag, lo, hi, make_cfg = _SPATIAL_STAGES[stage]
    roles = resolve_roles(layout)
    target_id = getattr(roles, stage)
    cfg = make_cfg(layout)
    rows = []
    for i in range(n_trials):
        seed = _child_seed(master_seed, tag, i, 0)
        offset = float(_rng(master_seed, tag, i, 1).uniform(lo, hi))
        ws = _stage_bench(layout, seed, [roles.cam_main, roles.ndf])
        frame = camera_view(ws, roles.cam_main)
        spot = centroid(frame)
        target = (spot.x_px, spot.y_px)
        rec = layout.record(target_id)
        ws = place_component(ws, layout.template(target_id),
                             Pose(rec.x, rec.y + offset, rec.z, rec.yaw))
        try:
            ws, trace = spatial_optimize(ws, target_id, roles.cam_main,
                                         target_px=target, cfg=cfg)
            final = centroid(trace.last_view[1])
            err = (final.x_px - target[0]) * frame.pixel_pitch_mm
            rows.append(_row(trial=i, seed=seed, success=int(trace.converged),
                             iterations=len(trace), actions=trace.wall_actions,
                             final_error=err,
                             note=f"stage={stage};offset={offset:.4f}"))
        except CavforgeError as exc:
            rows.append(_row(trial=i, seed=seed, success=0,
                             note=f"stage={stage};{exc}"))
    return rows


def angular_trials(layout: Layout, master_seed: int, n_trials: int = 10,
                   max_iters: int = 20) -> list:
    """Mirror-pointing battery from seat errors covering the arm sensor.

    The reference frame is captured before the output mirror goes down, the
    mirror's hidden seat error is then pinned to a stratified grid over the
    range that keeps the retro spot on the sensor, and the knob search must
    reach the default success radius (the spot's own rendered radius) within
    the iteration budget.
    """
    roles = resolve_roles(layout)
    biases = latin_hypercube(_rng(master_seed, _TAG_ANGULAR, 9),
                             [(-155.0, 155.0), (-115.0, 115.0)], n_trials)
    rows = []
    for i in range(n_trials):
        seed = _child_seed(master_seed, _TAG_ANGULAR, i, 0)
        ws = _stage_bench(layout, seed, [roles.ndf, roles.cam_arm, roles.bs])
        reference = camera_view(ws, roles.cam_arm)
        ws = place_component(ws, layout.template(roles.oc),
                             layout.record(roles.oc).nominal_pose())
        bias_h, bias_v = float(biases[i][0]), float(biases[i][1])
        ws = set_knob_bias(ws, roles.oc, bias_h, bias_v)
        try:
            ws, trace = align_resonator(
                ws, roles.oc, roles.cam_arm, reference,
                _rng(master_seed, _TAG_ANGULAR, i, 2),
                span_deg=170.0, max_iters=max_iters, init_samples=6,
                length_scale_deg=45.0, noise_scale=0.02)
            rows.append(_row(trial=i, seed=seed, success=int(trace.converged),
                             iterations=len(trace), actions=trace.wall_actions,
                             final_error=trace.best_objective,
                             note=f"bias=({bias_h:.1f},{bias_v:.1f})"))
        except CavforgeError as exc:
            rows.append(_row(trial=i, seed=seed, success=0,
                             iterations=max_iters, note=str(exc)))
    return rows


def _trial_state(state, child_seed) -> object:
    return dataclasses.replace(state, ws=reseed(state.ws, child_seed),
                               log=list(state.log))


def displacement_trials(layout: Layout, master_seed: int, n_trials: int = 10) -> list:
    """Lens-displacement battery: one build at the layout seed, n independent
    cm-scale shoves."""
    state = run_construction(layout)
    roles = resolve_roles(layout)
    rows = []
    for i in range(n_trials):
        child = _child_seed(master_seed, _TAG_DISPLACEMENT, i, 0)
        rng = _rng(master_seed, _TAG_DISPLACEMENT, i, 1)
        trial = _trial_state(state, child)
        sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
        dy = sign * float(rng.uniform(8.0, 15.0))
        trial.ws = inject_displacement(trial.ws, roles.lens, dy=dy)
        tick = surveillance_tick(trial)
        report = recover_displacement(trial)
        rows.append(_row(trial=i, seed=child, success=int(report.success),
                         attempts=report.attempts, actions=report.actions,
                         ratio=report.ratio,
                         note=f"dy={dy:.2f};tick={tick['status']}"))
    return rows


def drift_trials(layout: Layout, master_seed: int, n_trials: int = 10,
                 max_iters: int = 60) -> list:
    """Knob-creep battery: one build at the layout seed, n independent
    four-knob drifts."""
    state = run_construction(layout)
    roles = resolve_roles(layout)
    rows = []
    for i in range(n_trials):
        child = _child_seed(master_seed, _TAG_DRIFT, i, 0)
        trial = _trial_state(state, child)
        trial.ws = randomize_knobs(trial.ws, [roles.ic, roles.oc], 30.0, 60.0)
        tick = surveillance_tick(trial)
        report = recover_drift(trial, rng=_rng(master_seed, _TAG_DRIFT, i, 2),
                               max_iters=max_iters)
        rows.append(_row(trial=i, seed=child, success=int(report.success),
                         iterations=report.iterations, actions=report.actions,
                         ratio=report.ratio, note=f"tick={tick['status']}"))
    return rows


def build_trials(layout: Layout, seeds) -> list:
    """Full-construction battery, one row per seed."""
    rows = []
    for i, seed in enumerate(seeds):
        try:
            state = run_construction(layout, int(seed))
            rows.append(_row(trial=i, seed=int(seed),
                             success=int(state.baseline["mode_order"] == 0),
                             step=state.current_step,
                             actions=state.ws.action_count, ratio=1.0,
                             note=f"output={state.baseline['output_power']:.4f}"))
        except ConstructionError as exc:
            rows.append(_row(trial=i, seed=int(seed), success=0,
                             step=int(exc.step), note=str(exc)))
    return rows


# Each experiment name and its battery, called as (layout, master seed, n).
_BATTERIES = {
    "spatial": lambda layout, seed, n: [
        row for stage in _SPATIAL_STAGES
        for row in spatial_trials(layout, seed, n, stage=stage)],
    "angular": angular_trials,
    "displacement": displacement_trials,
    "drift": drift_trials,
    "build": lambda layout, seed, n: build_trials(layout, range(seed, seed + n)),
}
EXPERIMENTS = tuple(_BATTERIES)


def run_trials(experiment: str, layout: Layout, master_seed: int,
               n_trials: int) -> list:
    """Dispatch one experiment name to its battery."""
    if n_trials < 1:
        raise WorkspaceError("n_trials must be at least 1")
    if experiment not in _BATTERIES:
        raise WorkspaceError(f"unknown experiment {experiment!r}; "
                             f"choose from {', '.join(EXPERIMENTS)}")
    return _BATTERIES[experiment](layout, master_seed, n_trials)


def aggregate(rows) -> list:
    """Mean and std rows over the numeric columns, success as a rate."""
    mean_row = {k: "" for k in FIELDS}
    std_row = {k: "" for k in FIELDS}
    mean_row["trial"] = "mean"
    std_row["trial"] = "std"
    n = len(rows)
    if n:
        succ = sum(int(r["success"] or 0) for r in rows)
        mean_row["success"] = f"{succ / n:.4f}"
        mean_row["note"] = f"{succ}/{n} succeeded"
    for key in ("iterations", "attempts", "actions", "final_error", "ratio"):
        vals = [float(r[key]) for r in rows if r[key] != ""]
        if vals:
            mean_row[key] = f"{np.mean(vals):.6g}"
            std_row[key] = f"{np.std(vals):.6g}"
    return [mean_row, std_row]
