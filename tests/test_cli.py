import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cavforge import cli
from cavforge.layout import default_layout
from cavforge.physics import PhysicsConfig
from cavforge.pipeline import PipelineState
from cavforge.simcore import COMPONENT_PARAMS


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def built_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code, _ = _run(["build", "--out", str(out)])
    assert code == 0
    return out


def test_build_writes_the_full_artifact_set(built_dir):
    names = sorted(p.name for p in built_dir.iterdir())
    assert names == ["baseline.json", "cam1_step12.pgm", "cam2_step12.pgm",
                     "state.json", "trace.jsonl"]
    baseline = json.loads((built_dir / "baseline.json").read_text())
    assert baseline["mode_order"] == 0
    state = json.loads((built_dir / "state.json").read_text())
    assert state["current_step"] == 12
    trace_lines = (built_dir / "trace.jsonl").read_text().splitlines()
    assert all(json.loads(line) for line in trace_lines)


def test_build_twice_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # catch any stray writes outside --out
    outputs = []
    for name in ("a", "b"):
        code, out = _run(["build", "--out", name])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    status = json.loads(outputs[0])
    assert status["status"] == "ok" and status["step"] == 12
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


def test_malformed_layout_exits_2(tmp_path, capsys):
    bad = tmp_path / "layout.json"
    bad.write_text("{nope")
    code, _ = _run(["build", "--layout", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out" / "state.json").exists()


def test_invalid_layout_value_exits_2(tmp_path, capsys):
    code, _ = _run(["build", "--out", str(tmp_path),
                    "--set", "components.lens.params.focal_length_mm=0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code, _ = _run(["build", "--out", str(tmp_path),
                    "--set", 'physics.p_threshold="x"'])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_zero_widths_and_wavelengths_exit_2(tmp_path, capsys):
    # Each of these divides the beam or lasing model by zero if it gets past
    # validation.
    for override in ("components.pump.params.waist_mm=0",
                     "physics.pump_wavelength_mm=0", "physics.laser_wavelength_mm=0",
                     "physics.laser_waist_mm=0", "physics.ref_tilt_deg=0",
                     "physics.ref_lens_offset_mm=0", "physics.ref_crystal_deg=0"):
        code, _ = _run(["build", "--out", str(tmp_path), "--set", override])
        err = capsys.readouterr().err
        assert code == 2, override
        assert "error:" in err and "Traceback" not in err, override


@pytest.mark.parametrize("override", [
    "table_bounds_mm=[[-50,1e999],[-250,250]]", "table_bounds_mm=[[-50,NaN],[-250,250]]",
    "components.pump.params.power=0", "components.pump.params.power=-1",
    "physics.p_threshold=0", "physics.slope_efficiency=0", "physics.m_cutoff=0",
    "physics.threshold_curvature=-1", "physics.fluorescence_scale=-1",
    "physics.aperture_mm=-1", "physics.min_power_fraction=-1", "physics.max_bounces=-1",
    "components.cam1.params.gain_pump=-1", "components.cam1.params.gain_laser=-1",
    "components.cam1.params.body_halfwidth_mm=0", "components.lens.params.aperture_mm=0",
    "components.ic.params.knob_jitter_deg=-1", "components.bpf.params.passband=lazer",
    # a sensor this wide would be drawn for minutes
    "components.cam1.params.width_px=100000000",
    # finite, but the misalignment terms they give overflow when squared
    "physics.ref_tilt_deg=1e-300", "components.crystal.params.theta_opt_deg=1e307",
    "components.lens.params.aperture_mm=1e300",
])
def test_out_of_range_overrides_exit_2(tmp_path, capsys, override):
    code, _ = _run(["build", "--out", str(tmp_path), "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "state.json").exists()


_JUNK = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -1e300,
                     1e-300, 0, -1, True, "x", "", None, [], {}, [1.0, 2.0]]),
    st.floats(-1e3, 1e3),
    st.integers(-10**20, 10**20),
)
_PHYSICS_KEYS = sorted(f.name for f in dataclasses.fields(PhysicsConfig))
_PARAM_KEYS = sorted({key for params in COMPONENT_PARAMS.values() for key in params})
_RECORD_KEYS = ["id", "kind", "nominal_x_mm", "nominal_y_mm", "nominal_z_mm",
                "yaw_deg", "housing_offset_mm", "params"]
_TOP_KEYS = ["seed", "placement_noise_sigma_mm", "tilt_per_turn_deg",
             "table_bounds_mm", "components"]


@st.composite
def _junk_layouts(draw):
    """The stock layout after one to three random edits: a junk value in a
    physics field, a component parameter, a component field or a top-level
    field, or a component duplicated or removed."""
    data = default_layout()
    comps = data["components"]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["physics", "param", "record", "top",
                                     "duplicate", "remove"]))
        if edit == "physics":
            data["physics"][draw(st.sampled_from(_PHYSICS_KEYS))] = draw(_JUNK)
        elif edit == "top":
            data[draw(st.sampled_from(_TOP_KEYS))] = draw(_JUNK)
        elif not isinstance(comps, list) or not comps:
            continue
        elif edit == "duplicate":
            comps.append(copy.deepcopy(draw(st.sampled_from(comps))))
        elif edit == "remove":
            comps.pop(draw(st.integers(0, len(comps) - 1)))
        else:
            rec = draw(st.sampled_from(comps))
            if edit == "record":
                rec[draw(st.sampled_from(_RECORD_KEYS))] = draw(_JUNK)
            elif isinstance(rec.get("params"), dict):
                rec["params"][draw(st.sampled_from(_PARAM_KEYS))] = draw(_JUNK)
    return data


@settings(max_examples=20, deadline=None)
@given(_junk_layouts())
def test_a_random_whole_layout_never_gives_a_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["build", "--layout", str(path),
                             "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)


def test_rayleigh_range_out_of_float_range_fails_its_step(tmp_path, capsys):
    for override in ("components.pump.params.waist_mm=1e-200",
                     "components.pump.params.waist_mm=1e200",
                     "physics.laser_waist_mm=1e-200"):
        code, _ = _run(["build", "--out", str(tmp_path), "--set", override])
        err = capsys.readouterr().err
        assert code == 1, override
        assert "build failed at step" in err and "Rayleigh range" in err, override
        assert "Traceback" not in err, override


def test_failed_build_exits_1_and_keeps_diagnostics(tmp_path, capsys):
    # without its attenuator the pump saturates the reference camera
    code, _ = _run(["build", "--out", str(tmp_path),
                    "--set", "components.ndf.params.transmittance=1.0"])
    assert code == 1
    assert "build failed at step" in capsys.readouterr().err
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "state.json").exists()  # partial state for inspection
    assert not (tmp_path / "baseline.json").exists()


def test_a_failed_build_names_its_step_once(tmp_path, capsys):
    code, _ = _run(["build", "--out", str(tmp_path),
                    "--set", "components.ndf.params.transmittance=1.0"])
    assert code == 1
    assert capsys.readouterr().err.count("step 2:") == 1


@pytest.mark.parametrize("command", [["build"], ["recover"], ["trial-batch", "spatial", "-n", "1"]])
def test_a_negative_seed_exits_2(built_dir, tmp_path, capsys, command):
    # recover reads the seed only for a drift recovery, so it gets one to do
    shutil.copytree(built_dir, tmp_path, dirs_exist_ok=True)
    assert _run(["perturb", "knobs", "--out", str(tmp_path)])[0] == 0
    capsys.readouterr()
    code, _ = _run(command + ["--seed", "-1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: seed must be >= 0" in err and "Traceback" not in err


def test_perturb_displace_then_recover(tmp_path):
    out = str(tmp_path)
    assert _run(["build", "--out", out])[0] == 0
    code, tick = _run(["perturb", "displace", "--id", "lens", "--dy", "10",
                       "--out", out])
    assert code == 0
    assert json.loads(tick)["status"] == "displacement"
    code, _ = _run(["recover", "--out", out])
    assert code == 0
    report = json.loads((tmp_path / "recovery.json").read_text())
    assert report["scenario"] == "displacement"
    assert report["success"] is True
    assert report["ratio"] >= 0.9


def test_perturb_knobs_then_recover(tmp_path):
    out = str(tmp_path)
    assert _run(["build", "--out", out])[0] == 0
    code, tick = _run(["perturb", "knobs", "--out", out])
    assert code == 0
    assert json.loads(tick)["status"] == "signal_lost"
    code, _ = _run(["recover", "--out", out, "--seed", "5"])
    assert code == 0
    report = json.loads((tmp_path / "recovery.json").read_text())
    assert report["scenario"] == "drift"
    assert report["success"] is True
    assert report["iterations"] <= 60
    assert report["ratio"] >= 0.9


def test_perturb_displace_requires_a_component(built_dir, capsys):
    code, _ = _run(["perturb", "displace", "--out", str(built_dir)])
    assert code == 2
    assert "requires --id" in capsys.readouterr().err


def test_recover_without_a_build_exits_1(tmp_path, capsys):
    code, _ = _run(["recover", "--out", str(tmp_path)])
    assert code == 1
    assert "run build first" in capsys.readouterr().err


def test_trial_batch_writes_rows_and_aggregates(tmp_path):
    code, out = _run(["trial-batch", "spatial", "-n", "2", "--seed", "1",
                      "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("trial,seed,success")
    # header, one row per trial and stage (oc, lens), mean and std rows
    assert len(lines) == 7
    assert sum(";offset=" in line for line in lines) == 4
    assert [json.loads(line)["trial"] for line in out.splitlines()] \
        == ["mean", "std"]


def test_power_curve_exports_fit_and_samples(built_dir):
    code, out = _run(["power-curve", "--out", str(built_dir)])
    assert code == 0
    fit = json.loads((built_dir / "power_curve.json").read_text())
    assert fit == json.loads(out)
    baseline = json.loads((built_dir / "baseline.json").read_text())
    assert fit["threshold"] == pytest.approx(baseline["threshold_fit"])
    rows = (built_dir / "power_curve.csv").read_text().splitlines()
    assert rows[0] == "pump_power,output_power"
    assert len(rows) == 12


def test_render_exports_frames_and_raw_csv(built_dir):
    code, out = _run(["render", "--csv", "--out", str(built_dir)])
    assert code == 0
    written = json.loads(out)["written"]
    assert "cam1_step12.pgm" in written and "cam1_step12.csv" in written
    for name in written:
        assert (built_dir / name).exists()


def _trace_copy(built_dir, path, edit=None):
    events = [json.loads(line) for line in
              (built_dir / "trace.jsonl").read_text().splitlines()]
    if edit is not None:
        edit(events)
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
    return str(path)


def test_diff_trace_of_an_identical_pair_exits_0(built_dir, tmp_path):
    trace = str(built_dir / "trace.jsonl")
    copy = _trace_copy(built_dir, tmp_path / "copy.jsonl")
    code, out = _run(["diff-trace", trace, copy])
    assert code == 0
    n = len((built_dir / "trace.jsonl").read_text().splitlines())
    assert out == f"identical: {n} events\n"


def test_diff_trace_names_the_first_event_and_key_that_differ(built_dir, tmp_path):
    trace = str(built_dir / "trace.jsonl")
    events = [json.loads(line) for line in
              (built_dir / "trace.jsonl").read_text().splitlines()]
    i = next(k for k, e in enumerate(events) if e["action"] == "angular optimize oc")

    def edit(events):
        events[i]["measurement"]["best_params"][1] += 1.0
        events[i + 1]["action_index"] += 1  # a later difference goes unreported

    other = _trace_copy(built_dir, tmp_path / "other.jsonl", edit)
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out = _run(["diff-trace", trace, other])
    assert code == 1
    a = events[i]["measurement"]["best_params"][1]
    assert out.splitlines() == [
        f'event {i} differs: step {events[i]["step"]}, action "angular optimize oc"',
        "key: measurement.best_params[1]",
        f"A: {json.dumps(a)}",
        f"B: {json.dumps(a + 1.0)}"]
    # one trace ending early: the first event the other has alone
    short = _trace_copy(built_dir, tmp_path / "short.jsonl", lambda e: e.pop())
    code, out = _run(["diff-trace", short, trace])
    assert code == 1
    assert out.splitlines()[1:3] == ["key: (whole event)", "A: (absent)"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before + ["short.jsonl"]


@pytest.mark.parametrize("content", [None, "{nope\n", "[1, 2]\n", b"\xff\n"])
def test_diff_trace_of_a_missing_or_unreadable_file_exits_2(built_dir, tmp_path,
                                                            capsys, content):
    bad = tmp_path / "bad.jsonl"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    code, out = _run(["diff-trace", str(built_dir / "trace.jsonl"), str(bad)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_state_with_a_wrong_schema_version_exits_2(built_dir, tmp_path, capsys):
    state = json.loads((built_dir / "state.json").read_text())
    state["schema_version"] = 99
    (tmp_path / "state.json").write_text(json.dumps(state))
    code, _ = _run(["render", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "schema_version" in err
    assert not (tmp_path / "cam1_step12.pgm").exists()


def _saved_component(state, kind):
    return next(c for c in state["workspace"]["components"] if c["kind"] == kind)


def _edit_state(built_dir, tmp_path, edit):
    state = json.loads((built_dir / "state.json").read_text())
    edit(state)
    (tmp_path / "state.json").write_text(json.dumps(state))


def _assert_exit_2(argv, capsys, words):
    code, _ = _run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err
    assert "Traceback" not in err


def test_saved_pump_power_that_is_not_a_number_exits_2(built_dir, tmp_path, capsys):
    _edit_state(built_dir, tmp_path, lambda s: _saved_component(
        s, "PumpSource")["params"].update(power="x"))
    _assert_exit_2(["power-curve", "--out", str(tmp_path)], capsys,
                   "power must be a finite number")
    assert not (tmp_path / "power_curve.csv").exists()


def test_saved_component_of_an_unknown_kind_exits_2(built_dir, tmp_path, capsys):
    _edit_state(built_dir, tmp_path, lambda s: _saved_component(
        s, "Lens").update(kind="Prism"))
    _assert_exit_2(["render", "--out", str(tmp_path)], capsys, "unknown kind 'Prism'")
    assert not (tmp_path / "cam1_step12.pgm").exists()


def test_saved_workspace_without_an_rng_state_exits_2(built_dir, tmp_path, capsys):
    _edit_state(built_dir, tmp_path, lambda s: s["workspace"].pop("rng_state"))
    _assert_exit_2(["render", "--out", str(tmp_path)], capsys, "rng_state")
    assert not (tmp_path / "cam1_step12.pgm").exists()


@pytest.mark.parametrize("argv", [["render"],
                                  ["perturb", "displace", "--id", "lens", "--dy", "3"]],
                         ids=["render", "perturb"])
def test_saved_rng_state_that_does_not_decode_exits_2(built_dir, tmp_path, capsys,
                                                      argv):
    _edit_state(built_dir, tmp_path,
                lambda s: s["workspace"].update(rng_state={"bogus": 1}))
    saved = (tmp_path / "state.json").read_text()
    _assert_exit_2(argv + ["--out", str(tmp_path)], capsys, "PCG64")
    assert (tmp_path / "state.json").read_text() == saved
    assert not (tmp_path / "cam1_step12.pgm").exists()


def test_saved_state_round_trips_byte_for_byte(built_dir, tmp_path):
    saved = (built_dir / "state.json").read_bytes()
    state = PipelineState.from_dict(json.loads(saved))
    cli._write_json(tmp_path / "state.json", state.to_dict())
    assert (tmp_path / "state.json").read_bytes() == saved


def _set_field(path, value):
    """An edit that sets the saved field at a dotted path ("a.0.b") to value."""
    def edit(state):
        *parents, leaf = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = state
        for key in parents:
            node = node[key]
        node[leaf] = value
    return edit


@pytest.mark.parametrize("path, value, words", [
    ("baseline.objective", "x", "baseline.objective must be a finite number"),
    ("baseline.objective", None, "baseline.objective must be a finite number"),
    ("baseline.objective", 0.0, "baseline.objective must be > 0.0"),
    ("baseline.sigma_px", "x", "baseline.sigma_px must be a finite number"),
    ("baseline.sigma_px", None, "baseline.sigma_px must be a finite number"),
    ("workspace.action_count", "x", "workspace.action_count must be an integer"),
    ("workspace.action_count", None, "workspace.action_count must be an integer"),
    ("workspace.action_count", -1, "workspace.action_count must be >= 0.0"),
    ("workspace.rng_state.has_uint32", -1e308, "OverflowError"),
    ("workspace.rng_state.uinteger", -1e308, "OverflowError"),
    ("workspace.rng_state.state.state", -1e308, "OverflowError"),
    ("workspace.rng_state.state.inc", -1e308, "OverflowError"),
    ("workspace.rng_state.state.inc", -1, "OverflowError"),
    ("workspace.components.0.id", [], "workspace.components[0].id must be a string"),
    ("workspace.components.K.knobs.h_deg", "x", ".knobs.h_deg must be a finite number"),
    ("workspace.components.K.knobs.bias_v_deg", None,
     ".knobs.bias_v_deg must be a finite number"),
    ("workspace.components.K.knobs.tilt_per_turn_deg", 0.0,
     ".knobs.tilt_per_turn_deg must be > 0.0"),
    # finite, but the tilt such a knob gives overflows when squared
    *[(f"workspace.components.K.knobs.{f}", v,
       f".knobs.{f} must be {'<= 360000000.0' if v > 0 else '>= -360000000.0'}")
      for f in ("h_deg", "v_deg", "bias_h_deg", "bias_v_deg") for v in (1e308, -1e308)],
    ("workspace.components.K.knobs.tilt_per_turn_deg", 1e308,
     ".knobs.tilt_per_turn_deg must be <= 360.0"),
    ("workspace.components.K.knobs.tilt_per_turn_deg", -1e308,
     ".knobs.tilt_per_turn_deg must be > 0.0"),
])
def test_a_corrupt_saved_field_exits_2(built_dir, tmp_path, capsys, path, value,
                                       words):
    state = json.loads((built_dir / "state.json").read_text())
    knobbed = next(i for i, c in enumerate(state["workspace"]["components"])
                   if "knobs" in c)
    path = path.replace(".K.", f".{knobbed}.")  # K: the first mirror with knobs
    _edit_state(built_dir, tmp_path, _set_field(path, value))
    _assert_exit_2(["recover", "--out", str(tmp_path)], capsys, words)
    assert not (tmp_path / "recovery.json").exists()


@pytest.mark.parametrize("flags, words", [
    (["--min", "1e300", "--max", "1e308"], "--min must be <= 360000000.0"),
    (["--max", "1e308"], "--max must be <= 360000000.0"),
    (["--min=-1e308"], "--min must be >= 0.0"),
    (["--min", "10", "--max", "5"], "--max must be >= 10.0"),
    # in range, but the bias it adds to goes past the bound a load checks
    (["--min", "3.6e8", "--max", "3.6e8"], ".knobs.bias_v_deg must be <= 360000000.0"),
])
def test_a_knob_disturbance_out_of_range_exits_2(built_dir, tmp_path, capsys,
                                                 flags, words):
    saved = (built_dir / "state.json").read_bytes()
    (tmp_path / "state.json").write_bytes(saved)
    _assert_exit_2(["perturb", "knobs", "--out", str(tmp_path), *flags], capsys, words)
    assert (tmp_path / "state.json").read_bytes() == saved


@pytest.mark.parametrize("argv, words", [
    (["power-curve", "--points", "-1"], "--points must be >= 2"),
    (["power-curve", "--points", "0"], "--points must be >= 2"),
    (["power-curve", "--points", "1"], "--points must be >= 2"),
    (["trial-batch", "spatial", "-n", "0"], "-n must be >= 1"),
    (["perturb", "displace", "--id", "lens", "--dx", "inf"], "--dx must be a finite number"),
    (["perturb", "displace", "--id", "lens", "--dy", "nan"], "--dy must be a finite number"),
])
def test_a_flag_value_that_can_never_work_exits_2(built_dir, tmp_path, capsys, argv, words):
    saved = (built_dir / "state.json").read_bytes()
    (tmp_path / "state.json").write_bytes(saved)
    _assert_exit_2([*argv, "--out", str(tmp_path)], capsys, words)
    assert (tmp_path / "state.json").read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def _checkout_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


_NEVER_SEARCHES = """
import contextlib, io, json, sys
import numpy as np
import cavforge, cavforge.cli, cavforge.trials
out = sys.argv[1]
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["render"], ["power-curve"],
                 ["perturb", "displace", "--id", "lens", "--dy", "10"], ["recover"],
                 ["trial-batch", "spatial", "-n", "1"],
                 ["build", "--set", "components.lens.params.focal_length_mm=0"]):
        codes.append(cavforge.cli.main([*argv, "--out", out]))
gp_modules = ("scipy.linalg", "scipy.spatial", "scipy.special")
before = [m for m in gp_modules if m in sys.modules]
cavforge.align.GaussianProcess(1.0).fit(np.eye(2), np.arange(2.0))
print(json.dumps({"codes": codes, "before": before,
                  "after": [m for m in gp_modules if m in sys.modules]}))
"""


def test_commands_that_never_search_do_not_load_scipy(built_dir, tmp_path):
    # SciPy loads on the GP's first fit; a command without a knob search
    # never pays for its import.
    shutil.copy(built_dir / "state.json", tmp_path / "state.json")
    proc = subprocess.run([sys.executable, "-c", _NEVER_SEARCHES, str(tmp_path)],
                          capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0, 0, 0, 2]
    assert json.loads((tmp_path / "recovery.json").read_text())["scenario"] == "displacement"
    assert got["before"] == []
    assert got["after"] == ["scipy.linalg", "scipy.spatial", "scipy.special"]


def test_build_does_not_depend_on_the_blas_thread_count(tmp_path):
    # The determinism contract holds whether OpenBLAS runs one thread or
    # its default pool: for a build, and for a drift recovery on it whose
    # rounds take model steps (least-squares fits) as well as GP proposals.
    single = {**_checkout_env(), "OPENBLAS_NUM_THREADS": "1"}
    pooled = {k: v for k, v in _checkout_env().items()
              if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    for name, env in (("single", single), ("pooled", pooled)):
        build, drift = str(tmp_path / name), str(tmp_path / f"{name}-drift")
        for argv in (["build", "--seed", "42", "--out", build],
                     ["perturb", "knobs", "--out", drift],
                     ["recover", "--out", drift, "--seed", "5"]):
            if argv[0] == "perturb":
                shutil.copytree(build, drift)
            proc = subprocess.run([sys.executable, "-m", "cavforge", *argv],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "single").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
    for name in names:
        assert (tmp_path / "single" / name).read_bytes() \
            == (tmp_path / "pooled" / name).read_bytes(), name
    recovery = json.loads((tmp_path / "single-drift" / "recovery.json").read_text())
    assert recovery["success"]
    assert sum(r["model_steps"] for r in recovery["details"]["rounds"]) == 3
    for name in ("state.json", "recovery.json"):
        assert (tmp_path / "single-drift" / name).read_bytes() \
            == (tmp_path / "pooled-drift" / name).read_bytes(), name


def test_module_entry_point_runs_from_a_checkout():
    proc = subprocess.run([sys.executable, "-m", "cavforge", "--help"],
                          capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: cavforge")


def _distribution_installed(name):
    try:
        metadata.distribution(name)
    except metadata.PackageNotFoundError:
        return False
    return True


# The console script is made by installing the package; a source checkout
# run from src/ has no package metadata and so no script to check.
@pytest.mark.skipif(not _distribution_installed("cavforge"),
                    reason="cavforge distribution not installed "
                           "(no package metadata, so no console script)")
def test_console_entry_point_is_installed():
    exe = shutil.which("cavforge")
    assert exe, "console script missing from PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: cavforge")
