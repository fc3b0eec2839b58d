"""The frozen artifact manifest: build outputs and drift recoveries, by hash.

``tests/golden/manifest.json`` holds the SHA-256 of every file ``cavforge
build --out`` writes, and of what it prints, for seeds 42, 7 and 43, and
the fingerprint of the benchmark's drift trials 0-11 on its own recovery
stream (the reports, both surveillance ticks, the knobs and the action
count). A change that moves one bit of any of them fails here, naming the
first entry that differs. The values hold for one NumPy build, libm and
LAPACK (README, "Determinism"), so the manifest records the versions it was
frozen with, and a run under other versions fails with both printed.

After a deliberate change to the arithmetic, re-freeze with

    PYTHONPATH=src python tests/test_manifest.py

and record the old and new values in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from _benches import drift_trial
from cavforge import cli, pipeline
from cavforge.layout import default_layout, validate_layout

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
BUILD_SEEDS = (42, 7, 43)
DRIFT_TRIALS = range(12)
# perfbench/workloads.py's drift workload stream tag
_DRIFT_TAG = 303


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def build_entries(seed: int, out: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["build", "--seed", str(seed), "--out", str(out)])
    entries = {"exit_code": code, "stdout": _sha256(stdout.getvalue().encode())}
    for path in sorted(out.iterdir()):
        entries[path.name] = _sha256(path.read_bytes())
    return entries


def drift_entry(built, trial_index: int) -> dict:
    """One benchmark drift trial, run as ``perfbench/workloads.py`` runs it."""
    trial, before, after, report = drift_trial(built, _DRIFT_TAG, trial_index)
    knobs = [(c.id, c.knobs.h_deg, c.knobs.v_deg)
             for c in trial.ws.components if c.knobs is not None]
    fingerprint = repr((before, after, report.to_dict(), knobs,
                        trial.ws.action_count))
    return {"trial": trial_index, "success": report.success,
            "ratio": report.ratio, "iterations": report.iterations,
            "actions": report.actions, "after": after["status"],
            "sha256": _sha256(fingerprint.encode())}


def current_manifest(built) -> dict:
    """The manifest as this checkout computes it; ``built`` is the seed-42
    build of the default layout, the drift trials' starting bench."""
    builds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in BUILD_SEEDS:
            builds[str(seed)] = build_entries(seed, Path(tmp) / f"build-{seed}")
    return {"versions": versions(), "build": builds,
            "drift": [drift_entry(built, i) for i in DRIFT_TRIALS]}


def _entries(manifest: dict):
    """Every frozen value with the name a failure reports, in order."""
    for seed, files in manifest["build"].items():
        for name, digest in files.items():
            yield f"build --seed {seed}: {name}", digest
    for entry in manifest["drift"]:
        yield f"drift trial {entry['trial']}", entry


def test_artifacts_match_the_frozen_manifest(built):
    frozen = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert versions() == frozen["versions"], (
        f"the manifest was frozen under {frozen['versions']}, this run has "
        f"{versions()}: artifacts are byte-identical only under one NumPy "
        "build, libm and LAPACK; re-freeze on this machine to compare here")
    fresh = dict(_entries(current_manifest(built)))
    expected = dict(_entries(frozen))
    assert list(fresh) == list(expected), "the set of artifacts changed"
    for name, value in expected.items():
        assert fresh[name] == value, (
            f"first entry that differs: {name}\n"
            f"frozen:  {value}\nthis run: {fresh[name]}")


if __name__ == "__main__":
    built = pipeline.run_construction(validate_layout(default_layout()))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(current_manifest(built), indent=1) + "\n",
                        encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
