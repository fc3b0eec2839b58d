"""The three workloads: their inputs, one operation each, and its checks.

Every call into the program goes through a module attribute (``pipeline.
recover_drift``, not a name imported at load time), so the wrappers that
``tracer.Tracer`` installs see the benchmark's own calls too.

A workload's inputs form a round: a fixed list, which ``--seed`` rotates to
pick where a run starts. Every run therefore covers the same inputs, and
the counts per operation repeat exactly from run to run. With inputs drawn
from ``--seed`` instead, the variation between inputs alone moved the median
drift recovery time by about 10% and placement's evaluations per operation
by about 10% from one seed to the next, more than any bound worth having.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
from pathlib import Path

import numpy as np

from cavforge import align, cli, layout as layout_mod, physics, pipeline, simcore, vision
from cavforge.errors import CavforgeError
from cavforge.simcore import ComponentKind, Pose

import checks


class OperationFailed(Exception):
    """The program reported a domain failure for one operation."""


def _seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _rotation(pool, seed: int) -> list:
    start = _seed(seed) % len(pool)
    return list(pool[start:]) + list(pool[:start])


@dataclasses.dataclass(frozen=True)
class Roles:
    cam_main: str
    ndf: str
    ic: str
    oc: str
    lens: str
    pump: str


def roles(layout) -> Roles:
    def first(kind):
        return layout.records_of_kind(kind)[0].id

    cameras = [r.id for r in layout.records_of_kind(ComponentKind.CAMERA)]
    splitter = layout.records_of_kind(ComponentKind.BEAM_SPLITTER)[0]
    arm = splitter.params.get("arm_camera")
    return Roles(cam_main=next(c for c in cameras if c != arm),
                 ndf=first(ComponentKind.NDF), ic=first(ComponentKind.MIRROR_IC),
                 oc=first(ComponentKind.MIRROR_OC), lens=first(ComponentKind.LENS),
                 pump=first(ComponentKind.PUMP_SOURCE))


@dataclasses.dataclass
class Account:
    """What one operation cost and produced, read from the program's returns."""

    evals: int
    actions: int
    quality: float | None      # the value named by the workload's ``quality``
    fingerprint: str


class Build:
    """``cavforge build --seed S --out DIR`` through ``cli.main``."""

    name = "build"
    quality = "output_power"
    POOL = tuple(range(1, 29))
    WARMUP_SEED = 42

    def __init__(self, work: Path):
        self.work = work
        self.builds = 0

    def setup(self) -> None:
        self.layout = layout_mod.validate_layout(layout_mod.default_layout())
        self.roles = roles(self.layout)
        raw = self.operate(self.WARMUP_SEED)
        self.discard(raw)

    def inputs(self, seed: int) -> list:
        return _rotation(self.POOL, seed)

    def operate(self, seed: int) -> dict:
        self.builds += 1
        out = self.work / f"build-{self.builds}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["build", "--seed", str(seed), "--out", str(out)])
        if code != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise OperationFailed(f"build --seed {seed} exited {code}")
        return {"seed": seed, "out": out, "stdout": stdout.getvalue()}

    def account(self, raw) -> Account:
        out = raw["out"]
        evals = 0
        with open(out / "trace.jsonl", encoding="utf-8") as fh:
            for line in fh:
                measurement = json.loads(line)["measurement"]
                if isinstance(measurement, dict):
                    evals += int(measurement.get("evaluations", 0))
        state = json.loads((out / "state.json").read_text())
        return Account(evals=evals, actions=state["workspace"]["action_count"],
                       quality=state["baseline"]["output_power"],
                       fingerprint=checks.artifact_digest(out))

    def check(self, raw) -> None:
        saved = json.loads((raw["out"] / "state.json").read_text())
        state = pipeline.PipelineState.from_dict(saved)
        frame = physics.camera_view(state.ws, self.roles.cam_main)
        pump = self.layout.record(self.roles.pump)
        checks.check_build(raw["out"], raw["stdout"],
                           slope_efficiency=self.layout.physics.slope_efficiency,
                           pump_power=float(pump.params.get("power", 1.0)),
                           cam_main=self.roles.cam_main,
                           final_frame=frame.intensities)

    def discard(self, raw) -> None:
        shutil.rmtree(raw["out"], ignore_errors=True)


class Drift:
    """Knob creep on a built cavity, then tick, recover, tick."""

    name = "drift"
    quality = "restored_ratio"
    POOL = tuple(range(72))
    TAG = 303

    def __init__(self, work: Path):
        self.work = work

    def setup(self) -> None:
        self.layout = layout_mod.validate_layout(layout_mod.default_layout())
        self.roles = roles(self.layout)
        # The build runs the 4-D knob search the recoveries use, so it is
        # the warm-up too.
        self.state = pipeline.run_construction(self.layout)

    def inputs(self, seed: int) -> list:
        return _rotation(self.POOL, seed)

    def operate(self, trial_index: int) -> dict:
        trial = dataclasses.replace(
            self.state, ws=simcore.reseed(self.state.ws, _seed(self.TAG, trial_index)),
            log=list(self.state.log))
        trial.ws = simcore.randomize_knobs(trial.ws, [self.roles.ic, self.roles.oc],
                                           30.0, 60.0)
        actions0 = trial.ws.action_count
        before = pipeline.surveillance_tick(trial)
        report = pipeline.recover_drift(trial, rng=np.random.default_rng(
            np.random.SeedSequence([self.TAG, trial_index, 2])))
        after = pipeline.surveillance_tick(trial)
        if not report.success:
            raise OperationFailed(
                f"recover_drift reached ratio {report.ratio:.6f} after "
                f"{report.iterations} evaluations; tick reads {after['status']}")
        return {"trial": trial, "before": before, "after": after,
                "report": report, "actions0": actions0}

    def account(self, raw) -> Account:
        trial, report = raw["trial"], raw["report"]
        knobs = [(c.id, c.knobs.h_deg, c.knobs.v_deg)
                 for c in trial.ws.components if c.knobs is not None]
        fingerprint = repr((raw["before"], raw["after"], report.to_dict(), knobs,
                            trial.ws.action_count))
        return Account(evals=report.iterations,
                       actions=trial.ws.action_count - raw["actions0"],
                       quality=report.ratio, fingerprint=fingerprint)

    def check(self, raw) -> None:
        trial, report = raw["trial"], raw["report"]
        frame = physics.camera_view(trial.ws, self.roles.cam_main)
        checks.check_drift(raw["before"], raw["after"], report.success,
                           report.ratio, frame.intensities, trial.baseline)

    def discard(self, raw) -> None:
        pass


class Placement:
    """One camera-guided placement trial, as ``trials.spatial_trials`` runs it.

    Trials alternate between the output mirror (offsets in +-5 mm, tolerance
    the pump waist) and the lens (offsets in -1.25..0.75 mm, the lens stage's
    0.12 mm tolerance and 25-iteration budget).
    """

    name = "placement"
    quality = None
    PER_STAGE = 64
    TAG = 404
    LENS_TOLERANCE_MM = 0.12
    LENS_MAX_ITERS = 25

    def __init__(self, work: Path):
        self.work = work

    def setup(self) -> None:
        self.layout = layout_mod.validate_layout(layout_mod.default_layout())
        self.roles = roles(self.layout)
        self.stages = {
            "oc": (self.roles.oc, -5.0, 5.0, align.SpatialOptConfig(
                tolerance_mm=self.layout.physics.pump_waist_mm)),
            "lens": (self.roles.lens, -1.25, 0.75, align.SpatialOptConfig(
                tolerance_mm=self.LENS_TOLERANCE_MM, max_iters=self.LENS_MAX_ITERS)),
        }
        for stage in ("oc", "lens"):
            self.operate((stage, 0.5, _seed(self.TAG, stage == "oc")))

    def inputs(self, seed: int) -> list:
        """Offsets on a jittered grid over each stage's range, stages alternating."""
        rng = np.random.default_rng(self.TAG)
        n = self.PER_STAGE
        per_stage = []
        for k, stage in enumerate(("oc", "lens")):
            _, lo, hi, _ = self.stages[stage]
            u = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
            per_stage.append([(stage, float(lo + (hi - lo) * u[j]), _seed(self.TAG, k, j))
                              for j in range(n)])
        pool = [item for pair in zip(*per_stage) for item in pair]
        return _rotation(pool, seed)

    def _staged(self, bench_seed: int):
        """The pump, main camera and filter down, and the reference frame."""
        ws = layout_mod.build_workspace(self.layout, bench_seed)
        for cid in (self.roles.cam_main, self.roles.ndf):
            rec = self.layout.record(cid)
            ws = simcore.place_component(ws, self.layout.template(cid),
                                         Pose(rec.x, rec.y, rec.z, rec.yaw))
        return ws, physics.camera_view(ws, self.roles.cam_main)

    def operate(self, item) -> dict:
        stage, offset, bench_seed = item
        part, _, _, cfg = self.stages[stage]
        ws, reference = self._staged(bench_seed)
        spot = vision.centroid(reference)
        rec = self.layout.record(part)
        ws = simcore.place_component(ws, self.layout.template(part),
                                     Pose(rec.x, rec.y + offset, rec.z, rec.yaw))
        ws, trace = align.spatial_optimize(ws, part, self.roles.cam_main,
                                           target_px=(spot.x_px, spot.y_px), cfg=cfg)
        return {"item": item, "ws": ws, "trace": trace}

    def account(self, raw) -> Account:
        ws, trace = raw["ws"], raw["trace"]
        part = self.stages[raw["item"][0]][0]
        fingerprint = repr((raw["item"], ws.component(part).pose,
                            [it.objective for it in trace.iterations],
                            trace.converged, ws.action_count))
        return Account(evals=len(trace), actions=ws.action_count, quality=None,
                       fingerprint=fingerprint)

    def check(self, raw) -> None:
        stage, _, bench_seed = raw["item"]
        _, reference = self._staged(bench_seed)
        final = physics.camera_view(raw["ws"], self.roles.cam_main)
        cfg = self.stages[stage][3]
        checks.check_placement(reference.intensities, final.intensities,
                               final.pixel_pitch_mm, cfg.tolerance_mm,
                               raw["trace"].converged)

    def discard(self, raw) -> None:
        pass


WORKLOADS = {w.name: w for w in (Build, Drift, Placement)}
DOMAIN_ERRORS = (CavforgeError, OperationFailed)
