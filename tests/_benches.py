"""Hand-assembled workspaces with exact poses for oracle tests, the views of
a trace that only tests read, and the benchmark's drift trial."""

import dataclasses

import numpy as np

from cavforge import pipeline
from cavforge.physics import PhysicsConfig
from cavforge.simcore import (Component, ComponentKind, KnobPair, Pose,
                              new_workspace, place_component, randomize_knobs,
                              reseed)


def bench(items, seed=0, sigma=0.0, physics=None):
    """Place ``(component, target_pose)`` pairs on a fresh table."""
    ws = new_workspace(seed, placement_noise_sigma=sigma,
                       physics=physics or PhysicsConfig())
    for comp, target in items:
        ws = place_component(ws, comp, target)
    return ws


def pump(x=0.0, y=0.0, yaw=0.0, power=2.0, waist=0.3):
    comp = Component(id="pump", kind=ComponentKind.PUMP_SOURCE, pose=Pose(0, 0),
                     params={"power": power, "waist_mm": waist})
    return comp, Pose(x, y, 0.0, yaw)


def camera(cid, x, y=0.0, **params):
    comp = Component(id=cid, kind=ComponentKind.CAMERA, pose=Pose(0, 0),
                     params=params)
    return comp, Pose(x, y)


def lens(cid, x, focal_mm, y=0.0):
    comp = Component(id=cid, kind=ComponentKind.LENS, pose=Pose(0, 0),
                     params={"focal_length_mm": focal_mm})
    return comp, Pose(x, y)


def mirror(cid, kind, x, tilt_h_deg=0.0, tilt_v_deg=0.0, **params):
    """Mirror whose physical tilt is dialed in through the seat bias.

    Converts the requested tilt to bias knob-degrees (360 knob-deg per turn,
    tilt_per_turn from the knob pair), so the dial readings stay at zero.
    """
    knobs = KnobPair(0.0, 0.0, 0.5,
                     bias_h_deg=tilt_h_deg / 0.5 * 360.0,
                     bias_v_deg=tilt_v_deg / 0.5 * 360.0)
    comp = Component(id=cid, kind=kind, pose=Pose(0, 0), knobs=knobs,
                     params=params)
    return comp, Pose(x, 0.0)


def make_cavity(tilt_ic_deg=0.0, tilt_oc_deg=0.0, lens_dy=0.0,
                theta_err_deg=0.0, pump_power=2.0):
    """A complete cavity at exact nominal poses with chosen error terms.

    With all errors zero the misalignment metric is exactly zero: the pump
    runs along y = 0, the lens sits on that line, both mirror seats are
    square, and the crystal is at its optimum angle.
    """
    crystal = Component(id="crystal", kind=ComponentKind.CRYSTAL, pose=Pose(0, 0),
                        params={"theta_deg": 1.3 + theta_err_deg,
                                "theta_opt_deg": 1.3})
    bpf = Component(id="bpf", kind=ComponentKind.BPF, pose=Pose(0, 0),
                    params={"passband": "laser"})
    return bench([
        pump(power=pump_power),
        lens("lens", 200.0, 100.0, y=lens_dy),
        mirror("ic", ComponentKind.MIRROR_IC, 260.0, tilt_h_deg=tilt_ic_deg,
               pump_transmission=0.7, pump_reflectivity=0.3),
        (crystal, Pose(300.0, 0.0)),
        mirror("oc", ComponentKind.MIRROR_OC, 360.0, tilt_h_deg=tilt_oc_deg,
               pump_transmission=0.5, pump_reflectivity=0.5),
        (bpf, Pose(400.0, 0.0)),
        camera("cam1", 440.0, gain_pump=35.0, gain_laser=2.0),
    ])


def primary_hit(trace, camera_id):
    """The direct pump hit (no reflections) at a camera, if any."""
    for h in trace.camera_hits(camera_id):
        if h.wavelength == "pump" and h.n_bounces == 0:
            return h
    return None


def drift_trial(built, tag, trial_index, stream=()):
    """One drift trial as ``perfbench/workloads.py`` runs it, on a copy of
    the completed build ``built``.

    The copy is reseeded from ``SeedSequence([tag, trial_index])``, both
    cavity mirrors creep by ``randomize_knobs(30, 60)``, and a tick, the
    drift recovery on ``SeedSequence([tag, trial_index, 2, *stream])`` and a
    second tick follow. Returns the trial's state, both ticks and the report.
    """
    roles = pipeline.resolve_roles(built.layout)
    seed = int(np.random.SeedSequence([tag, trial_index]).generate_state(1)[0])
    trial = dataclasses.replace(built, ws=reseed(built.ws, seed),
                                log=list(built.log))
    trial.ws = randomize_knobs(trial.ws, [roles.ic, roles.oc], 30.0, 60.0)
    before = pipeline.surveillance_tick(trial)
    report = pipeline.recover_drift(trial, rng=np.random.default_rng(
        np.random.SeedSequence([tag, trial_index, 2, *stream])))
    after = pipeline.surveillance_tick(trial)
    return trial, before, after, report
