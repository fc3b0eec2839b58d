import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

from cavforge import cli


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


def test_failed_build_exits_1_and_keeps_diagnostics(tmp_path, capsys):
    # without its attenuator the pump saturates the reference camera
    code, _ = _run(["build", "--out", str(tmp_path),
                    "--set", "components.ndf.params.transmittance=1.0"])
    assert code == 1
    assert "build failed at step" in capsys.readouterr().err
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "state.json").exists()  # partial state for inspection
    assert not (tmp_path / "baseline.json").exists()


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


def _checkout_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_build_does_not_depend_on_the_blas_thread_count(tmp_path):
    # The determinism contract holds whether OpenBLAS runs one thread or
    # its default pool.
    single = {**_checkout_env(), "OPENBLAS_NUM_THREADS": "1"}
    pooled = {k: v for k, v in _checkout_env().items()
              if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    for name, env in (("single", single), ("pooled", pooled)):
        proc = subprocess.run(
            [sys.executable, "-m", "cavforge", "build", "--seed", "42",
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "single").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
    for name in names:
        assert (tmp_path / "single" / name).read_bytes() \
            == (tmp_path / "pooled" / name).read_bytes(), name


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
