"""End-to-end acceptance battery.

Every test prints one verdict line (criterion number, label, PASS or FAIL,
wall time) so a full run reads as a checklist. Each criterion carries its
own runtime ceiling; a pass must beat both the quality bar and the clock.
"""

import math
import sys
import time

import numpy as np

from _benches import bench, camera, lens, make_cavity, primary_hit, pump
from cavforge import cli, trials
from cavforge.align import bayesian_optimize, newton_solve
from cavforge.physics import trace_beam
from cavforge.pipeline import measure_power_curve
from cavforge.simcore import inject_displacement
from cavforge.vision import beam_stats, log_transform
from test_vision import _frame, _rendered


class _Clock:
    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def done(self, ok, detail=""):
        elapsed = time.perf_counter() - self.t0
        in_time = elapsed <= self.limit_s
        verdict = "PASS" if (ok and in_time) else "FAIL"
        print(f"criterion {self.number:02d} {self.label}: {verdict} "
              f"({elapsed:.2f}s / limit {self.limit_s:.0f}s)",
              file=sys.__stdout__)
        assert ok, f"criterion {self.number:02d} {self.label}: {detail}"
        assert in_time, (f"criterion {self.number:02d} overran its budget: "
                         f"{elapsed:.2f}s > {self.limit_s}s")

    def __exit__(self, *exc):
        return False


def test_criterion_01_newton_corrects_affine_maps_in_one_step():
    with _Clock(1, "single-correction placement law", 1.0) as clock:
        rng = np.random.default_rng(3)
        worst = 0.0
        extra_iters = 0
        for _ in range(100):
            gain = float(rng.uniform(0.1, 10.0)) * (1 if rng.integers(2) else -1)
            root = float(rng.uniform(-5.0, 5.0))
            start = root
            while abs(start - root) < 1e-3:
                start = float(rng.uniform(-5.0, 5.0))
            pos = {"x": start}

            def measure():
                return gain * (pos["x"] - root)

            def move(delta):
                pos["x"] += delta
                return delta

            result = newton_solve(measure, move, probe=0.5, tolerance=1e-9)
            worst = max(worst, abs(result.final_error))
            extra_iters += result.iterations != 1
        clock.done(worst < 1e-9 and extra_iters == 0,
                   f"worst error {worst:.2e}, {extra_iters} maps off schedule")


def test_criterion_02_camera_guided_placement_battery(layout):
    with _Clock(2, "spatial placement batteries", 10.0) as clock:
        oc_rows = trials.spatial_trials(layout, 42, 20, stage="oc")
        lens_rows = trials.spatial_trials(layout, 42, 20, stage="lens")
        oc_ok = all(r["success"] == 1 for r in oc_rows)
        lens_ok = all(r["success"] == 1 for r in lens_rows)
        spread = float(np.std([r["final_error"] for r in oc_rows]))
        clock.done(oc_ok and lens_ok and spread <= 0.3,
                   f"oc {sum(r['success'] for r in oc_rows)}/20, "
                   f"lens {sum(r['success'] for r in lens_rows)}/20, "
                   f"error spread {spread:.3f} mm")


def test_criterion_03_knob_space_alignment_battery(layout):
    with _Clock(3, "mirror alignment battery", 30.0) as clock:
        rows = trials.angular_trials(layout, 42, 10, max_iters=20)
        wins = sum(r["success"] for r in rows)
        budget_ok = all(r["iterations"] <= 20 for r in rows)
        clock.done(wins == 10 and budget_ok,
                   f"{wins}/10 aligned, iterations "
                   f"{[r['iterations'] for r in rows]}")


def test_criterion_04_surrogate_search_beats_dense_grids():
    with _Clock(4, "black-box search vs grid", 30.0) as clock:
        gaps = []
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            amps = rng.uniform(-1.0, 1.0, 6)
            centers = rng.uniform(-3.0, 3.0, (6, 2))
            widths = rng.uniform(0.9, 2.4, 6)

            def fn(params):
                p = np.asarray(params, dtype=float)
                d2 = ((centers - p) ** 2).sum(axis=1)
                return float((amps * np.exp(-0.5 * d2 / widths ** 2)).sum())

            axes = np.linspace(-3.0, 3.0, 101)
            grid = np.array([[fn((x, y)) for y in axes] for x in axes])
            _, value, _ = bayesian_optimize(
                fn, [(-3.0, 3.0), (-3.0, 3.0)], np.random.default_rng(seed),
                max_iters=30, init_samples=8, length_scale=1.2,
                exploit_every=2)
            gaps.append((value - grid.min()) / (grid.max() - grid.min()))
        clock.done(max(gaps) <= 0.05,
                   f"gap fractions {[round(g, 4) for g in gaps]}")


def test_criterion_05_beam_quality_reads_the_mode_order():
    with _Clock(5, "beam-quality proxy", 1.0) as clock:
        sigma_ref = min(beam_stats(_rendered(0), noise_floor=1e-6).sigma_px)
        values = [beam_stats(_rendered(n), noise_floor=1e-6,
                             sigma_ref_px=sigma_ref).m_squared
                  for n in range(4)]
        ok = all(abs(v - (2 * n + 1)) <= 0.10 * (2 * n + 1)
                 for n, v in enumerate(values))
        clock.done(ok, f"m-squared readings {[round(v, 3) for v in values]}")


def test_criterion_06_contrast_stretch_is_anchored_and_monotone():
    with _Clock(6, "dim-spot contrast stretch", 1.0) as clock:
        levels = np.linspace(0.0, 1.0, 1000)
        out = log_transform(_frame([levels])).intensities[0]
        mid = log_transform(_frame([[0.1]])).intensities[0, 0]
        ok = (out[0] == 0.0 and out[-1] == 1.0
              and bool(np.all(np.diff(out) > 0))
              and abs(mid - math.log(2.0) / math.log(11.0)) < 1e-12)
        clock.done(ok, f"endpoints ({out[0]}, {out[-1]}), f(0.1)={mid!r}")


def test_criterion_07_power_curve_recovers_the_lasing_constants():
    with _Clock(7, "threshold and efficiency fit", 1.0) as clock:
        fit = measure_power_curve(make_cavity(), np.linspace(0.0, 2.0, 11))
        misaligned = measure_power_curve(make_cavity(tilt_oc_deg=0.03),
                                         np.linspace(0.0, 2.0, 11))
        ok = (abs(fit.threshold - 1.0) <= 0.02
              and abs(fit.slope - 0.3) <= 0.02 * 0.3
              and misaligned.threshold > fit.threshold)
        clock.done(ok, f"threshold {fit.threshold:.4f}, slope {fit.slope:.4f}, "
                       f"misaligned threshold {misaligned.threshold:.4f}")


def test_criterion_08_whole_bench_builds_across_seeds(layout):
    with _Clock(8, "full construction battery", 120.0) as clock:
        rows = trials.build_trials(layout, range(1, 21))
        wins = sum(r["success"] for r in rows)
        notes = [f"seed {r['seed']}: {r['note']}" for r in rows if not r["success"]]
        clock.done(wins >= 18, f"{wins}/20 built; failures: {notes}")


def test_criterion_09_displacement_recovery_battery(layout):
    with _Clock(9, "bump-and-restore battery", 30.0) as clock:
        rows = trials.displacement_trials(layout, 42, 10)
        wins = sum(r["success"] for r in rows)
        attempts = [r["attempts"] for r in rows]
        ok = (wins == 10 and min(attempts) == 0
              and float(np.mean(attempts)) <= 4.0)
        clock.done(ok, f"{wins}/10 recovered, attempts {attempts}")


def test_criterion_10_drift_recovery_battery(layout):
    with _Clock(10, "knob-creep recovery battery", 120.0) as clock:
        rows = trials.drift_trials(layout, 42, 10, max_iters=60)
        wins = sum(1 for r in rows
                   if r["success"] and r["ratio"] >= 0.9 and r["iterations"] <= 60)
        clock.done(wins >= 9,
                   f"{wins}/10 back above 90%, ratios "
                   f"{[round(r['ratio'], 3) for r in rows]}")


def test_criterion_11_artifacts_are_reproducible(tmp_path):
    with _Clock(11, "byte-identical reruns", 60.0) as clock:
        pairs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["build", "--out", str(out)]) == 0
            pairs.append(out)
        same_build = all(
            (pairs[0] / p.name).read_bytes() == (pairs[1] / p.name).read_bytes()
            for p in pairs[0].iterdir())
        batches = []
        for name in ("c", "d"):
            out = tmp_path / name
            assert cli.main(["trial-batch", "spatial", "-n", "2",
                             "--seed", "7", "--out", str(out)]) == 0
            batches.append((out / "summary.csv").read_bytes())
        clock.done(same_build and batches[0] == batches[1],
                   "reruns diverged")


def test_criterion_12_ray_trace_matches_transfer_matrices():
    with _Clock(12, "trace vs matrix oracle", 1.0) as clock:
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(50):
            n_lens = int(rng.integers(1, 5))
            xs = np.sort(rng.uniform(80.0, 620.0, n_lens))
            focals = rng.uniform(100.0, 500.0, n_lens)
            y0, z0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
            yaw = float(rng.uniform(-0.2, 0.2))
            items = [pump(y=y0, yaw=yaw),
                     camera("cam", 700.0, body_halfwidth_mm=40.0)]
            items += [lens(f"l{i}", float(xs[i]), float(focals[i]))
                      for i in range(n_lens)]
            ws = inject_displacement(bench(items), "pump", dz=z0)

            def propagate(r0, s0):
                vec = np.array([r0, s0])
                x = 0.0
                for xe, f in zip(xs, focals):
                    vec = np.array([[1.0, xe - x], [0.0, 1.0]]) @ vec
                    assert abs(vec[0]) < 8.0  # in-aperture stacks only
                    vec = np.array([[1.0, 0.0], [-1.0 / f, 1.0]]) @ vec
                    x = xe
                return (np.array([[1.0, 700.0 - x], [0.0, 1.0]]) @ vec)[0]

            hit = primary_hit(trace_beam(ws), "cam")
            slope = math.tan(math.radians(ws.component("pump").pose.yaw))
            worst = max(worst, abs(hit.u_mm - propagate(y0, slope)),
                        abs(hit.v_mm - propagate(z0, 0.0)))
        clock.done(worst < 1e-9, f"worst trace-vs-matrix gap {worst:.2e} mm")
