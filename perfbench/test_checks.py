"""Each correctness check and cross-check rejects a corrupted output.

    python3 -m pytest perfbench/test_checks.py

Every test first shows that the check passes a real output of the program,
then corrupts one thing the check is meant to catch.
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402

from cavforge import align, simcore  # noqa: E402


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    wl = workloads.Build(tmp_path_factory.mktemp("build"))
    wl.setup()
    return wl, wl.operate(1)


@pytest.fixture(scope="module")
def drift(tmp_path_factory):
    wl = workloads.Drift(tmp_path_factory.mktemp("drift"))
    wl.setup()
    return wl, wl.operate(0)


@pytest.fixture(scope="module")
def placement(tmp_path_factory):
    wl = workloads.Placement(tmp_path_factory.mktemp("placement"))
    wl.setup()
    return wl, wl.operate(wl.inputs(7)[0])


def _edit_json(name, edit):
    def corrupt(out):
        data = json.loads((out / name).read_text())
        edit(data)
        (out / name).write_text(json.dumps(data))
    return corrupt


def _flip_pixel(out):
    path = out / "cam1_step12.pgm"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x10
    path.write_bytes(bytes(data))


BUILD_CORRUPTIONS = {
    "mode order": _edit_json("baseline.json", lambda b: b.update(mode_order=1)),
    "step": _edit_json("state.json", lambda s: s.update(current_step=11)),
    "output power": _edit_json(
        "baseline.json", lambda b: b.update(output_power=b["output_power"] * 1.001)),
    "slope fit": _edit_json(
        "baseline.json", lambda b: b.update(slope_fit=b["slope_fit"] * (1 + 1e-6))),
    "threshold fit": _edit_json(
        "baseline.json", lambda b: b.update(threshold_fit=b["threshold_fit"] * (1 + 1e-6))),
    "total intensity": _edit_json(
        "baseline.json", lambda b: b.update(total_intensity=b["total_intensity"] * 1.001)),
    "centroid": _edit_json(
        "baseline.json", lambda b: b["centroid_px"].__setitem__(0, b["centroid_px"][0] + 0.01)),
    "exported frame": _flip_pixel,
}


def test_build_check_passes_a_real_build(build):
    wl, raw = build
    wl.check(raw)


@pytest.mark.parametrize("what", sorted(BUILD_CORRUPTIONS))
def test_build_check_rejects_corruption(build, tmp_path, what):
    wl, raw = build
    out = tmp_path / "out"
    shutil.copytree(raw["out"], out)
    BUILD_CORRUPTIONS[what](out)
    with pytest.raises(CheckFailed):
        wl.check({**raw, "out": out})


def test_build_check_rejects_a_failed_status(build):
    wl, raw = build
    printed = json.loads(raw["stdout"])
    printed["status"] = "failed"
    with pytest.raises(CheckFailed):
        wl.check({**raw, "stdout": json.dumps(printed)})


def test_rebuild_must_match_byte_for_byte(build, tmp_path):
    wl, raw = build
    again = tmp_path / "again"
    shutil.copytree(raw["out"], again)
    first = checks.artifact_digest(raw["out"])
    checks.check_same_artifacts(first, checks.artifact_digest(again), 1)
    (again / "trace.jsonl").write_text((again / "trace.jsonl").read_text() + "\n")
    with pytest.raises(CheckFailed):
        checks.check_same_artifacts(first, checks.artifact_digest(again), 1)


def test_drift_check_passes_a_real_recovery(drift):
    wl, raw = drift
    wl.check(raw)


@pytest.mark.parametrize("field, value", [("before", {"status": "ok"}),
                                          ("after", {"status": "signal_lost"})])
def test_drift_check_rejects_wrong_ticks(drift, field, value):
    wl, raw = drift
    with pytest.raises(CheckFailed):
        wl.check({**raw, field: value})


def test_drift_check_rejects_a_reported_ratio_the_pixels_do_not_give(drift):
    wl, raw = drift
    report = dataclasses.replace(raw["report"], ratio=raw["report"].ratio * 1.0001)
    with pytest.raises(CheckFailed):
        wl.check({**raw, "report": report})


def test_drift_check_rejects_a_ratio_below_the_recovery_target(drift):
    wl, raw = drift
    trial = dataclasses.replace(raw["trial"])
    trial.ws = simcore.turn_knob(trial.ws, wl.roles.oc, "h", 6.0)
    frame = workloads.physics.camera_view(trial.ws, wl.roles.cam_main).intensities
    total, _, _, var_x, var_y = checks.plain_moments(frame)
    quality = max(1.0, max(var_x, var_y) / trial.baseline["sigma_px"] ** 2)
    ratio = total / quality / trial.baseline["objective"]
    assert 0.0 < ratio < 0.9
    report = dataclasses.replace(raw["report"], ratio=ratio)
    with pytest.raises(CheckFailed, match="below 0.9"):
        wl.check({**raw, "trial": trial, "report": report})


def test_placement_check_passes_a_real_trial(placement):
    wl, raw = placement
    wl.check(raw)


def test_placement_check_rejects_a_spot_off_target(placement):
    wl, raw = placement
    part = wl.stages[raw["item"][0]][0]
    moved = simcore.inject_displacement(raw["ws"], part, dy=4.0)
    with pytest.raises(CheckFailed, match="from target"):
        wl.check({**raw, "ws": moved})


def test_tracer_counts_match_the_optimizer_trace():
    def bowl(x):
        return float((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2)

    tracer = Tracer(spans=True)
    tracer.install()
    try:
        _, _, trace = align.bayesian_optimize(
            bowl, [(-1, 1), (-1, 1)], np.random.default_rng(0), max_iters=8,
            init_samples=4)
    finally:
        tracer.uninstall()
    assert tracer.evals == len(trace) == 8
    assert tracer.mismatches == []
    assert align.bayesian_optimize.__name__ == "bayesian_optimize"


def test_tracer_flags_an_optimizer_trace_that_drops_an_evaluation(monkeypatch):
    record = align.OptTrace.record

    def lossy(self, params, objective):
        if len(self.iterations) != 2 or getattr(self, "_dropped", False):
            return record(self, params, objective)
        self._dropped = True

    monkeypatch.setattr(align.OptTrace, "record", lossy)
    tracer = Tracer(spans=True)
    tracer.install()
    try:
        align.bayesian_optimize(lambda x: float(x[0] ** 2), [(-1, 1)],
                                np.random.default_rng(0), max_iters=5, init_samples=3)
    finally:
        tracer.uninstall()
    assert tracer.mismatches


def test_action_cross_check_flags_a_wrong_count():
    account = workloads.Account(evals=1, actions=5, quality=None, fingerprint="f")
    good = run.Op(item=1, seconds=0.1, frames=2, traced_actions=5, account=account)
    bad = dataclasses.replace(good, traced_actions=4)
    assert run.action_mismatches([good]) == []
    assert len(run.action_mismatches([good, bad])) == 1


def test_a_repeated_input_must_reproduce_its_output():
    account = workloads.Account(evals=1, actions=5, quality=None, fingerprint="f")
    op = run.Op(item=1, seconds=0.1, frames=2, account=account)
    assert run.consistency([op, op]) == []
    changed = dataclasses.replace(
        op, account=dataclasses.replace(account, fingerprint="g"))
    assert len(run.consistency([op, changed])) == 1
    assert len(run.consistency([op, dataclasses.replace(op, frames=3)])) == 1
