"""Closed-loop alignment routines.

Two regimes, two tools. Transverse placement errors act through affine beam
geometry, so a probe move plus one corrected move cancels them exactly; the
loop repeats only because every grip lands with fresh actuation noise. Mirror
pointing is different: the mount bias is invisible to the controller and the
only signal is a camera spot, so those stages run a small Gaussian-process
optimizer over knob readings with expected improvement as the acquisition
rule. Both report their history through :class:`OptTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs
from scipy.spatial.distance import cdist
from scipy.special import ndtr

from .errors import BeamLostError, DegenerateResponseError, NoLasingError, WorkspaceError
from .physics import camera_view
from .simcore import (
    Workspace,
    apply_knob_readings,
    knob_readings,
    move_component,
    rotate_crystal,
    set_knob_readings,
)
from .vision import (
    beam_stats,
    centroid,
    emission_score,
    log_transform,
    sensor_center_px,
    subtract_reference,
)

_MIN_RESPONSE = 1e-6


# ---------------------------------------------------------------------------
# Trace bookkeeping


@dataclass(frozen=True)
class OptIteration:
    index: int
    params: tuple
    objective: float
    best_objective: float


@dataclass
class OptTrace:
    """Evaluation history of one optimization run.

    ``objective`` follows the minimization convention everywhere; routines
    that maximize record the negated value and say so in ``meta``.
    """

    method: str
    iterations: list = field(default_factory=list)
    converged: bool = False
    best_params: tuple = ()
    best_objective: float = math.inf
    wall_actions: int = 0
    meta: dict = field(default_factory=dict)

    def record(self, params, objective) -> None:
        objective = float(objective)
        if objective < self.best_objective:
            self.best_objective = objective
            self.best_params = tuple(params)
        self.iterations.append(OptIteration(
            index=len(self.iterations),
            params=tuple(params),
            objective=objective,
            best_objective=self.best_objective,
        ))

    def __len__(self):
        return len(self.iterations)

    def summary(self) -> dict:
        return {
            "method": self.method,
            "evaluations": len(self.iterations),
            "converged": self.converged,
            "best_params": list(self.best_params),
            "best_objective": self.best_objective,
            "wall_actions": self.wall_actions,
            **self.meta,
        }


# ---------------------------------------------------------------------------
# Newton placement correction


def newton_correction(reading, probe, response, response_min=_MIN_RESPONSE):
    """Move that zeroes an affine signal after a probe of size ``probe``.

    ``reading`` is the signal before the probe, ``response`` the change the
    probe caused. The returned move applies from the probed position, so for
    a truly affine signal one probe plus this correction lands on zero.
    """
    if abs(response) < response_min:
        raise DegenerateResponseError(
            f"probe of {probe} changed the signal by only {response}")
    return -probe * (reading + response) / response


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    iterations: int
    final_error: float


def newton_solve(measure, move, probe, tolerance, max_iters=10) -> NewtonResult:
    """Drive ``measure()`` to zero with probe-and-correct cycles.

    ``move(delta)`` must return the displacement actually achieved (actuators
    land with noise; the readback keeps the slope estimate honest). Raises
    :class:`DegenerateResponseError` when a probe produces no response.
    """
    err = float(measure())
    if abs(err) <= tolerance:
        return NewtonResult(True, 0, err)
    for i in range(1, max_iters + 1):
        achieved = float(move(probe))
        probed = float(measure())
        move(newton_correction(err, achieved, probed - err))
        err = float(measure())
        if abs(err) <= tolerance:
            return NewtonResult(True, i, err)
    return NewtonResult(False, max_iters, err)


# Size of the probe move that measures the placement response; it must stand
# clear of the grip noise.
_PROBE_MM = 0.3


@dataclass(frozen=True)
class SpatialOptConfig:
    """Settings for camera-guided transverse placement."""

    tolerance_mm: float | None = None
    max_iters: int = 10


def spatial_optimize(ws: Workspace, component_id: str, camera_id: str,
                     target_px=None, cfg: SpatialOptConfig | None = None):
    """Shift a component along table y until the camera spot sits on
    ``target_px``.

    Table y maps to the sensor x axis; one Newton loop walks the spot's
    sensor-x offset to zero. The default tolerance is the spot's 1/e^2
    radius as first measured. Returns the adjusted workspace and a trace of
    every measurement; each trace entry is one rendered frame.
    """
    cfg = cfg or SpatialOptConfig()
    if _PROBE_MM <= ws.placement_noise_sigma:
        raise WorkspaceError(
            f"probe of {_PROBE_MM} mm would drown in placement noise "
            f"(sigma {ws.placement_noise_sigma} mm)")
    actions0 = ws.action_count
    state = {"ws": ws}
    trace = OptTrace(method="newton")

    def snap():
        frame = camera_view(state["ws"], camera_id)
        stats = beam_stats(frame)
        if not stats.detected:
            raise BeamLostError(
                f"no spot on {camera_id} while adjusting {component_id}")
        return frame, stats

    frame, stats = snap()
    target = tuple(target_px) if target_px is not None else sensor_center_px(frame)
    pitch = frame.pixel_pitch_mm
    tolerance = cfg.tolerance_mm
    if tolerance is None:
        tolerance = 2.0 * max(stats.sigma_px) * pitch

    # The frame that set the target is also the loop's first measurement.
    pending = [stats]

    def measure():
        stats = pending.pop() if pending else snap()[1]
        err = (stats.centroid_px[0] - target[0]) * pitch
        trace.record((state["ws"].component(component_id).pose.y,), abs(err))
        return err

    def move(delta):
        pose = state["ws"].component(component_id).pose
        state["ws"] = move_component(state["ws"], component_id,
                                     pose.shifted(dy=float(delta)))
        return state["ws"].component(component_id).pose.y - pose.y

    result = newton_solve(measure, move, _PROBE_MM, tolerance, cfg.max_iters)
    trace.converged = result.converged
    trace.wall_actions = state["ws"].action_count - actions0
    trace.meta.update(component=component_id, camera=camera_id,
                      tolerance_mm=tolerance,
                      final_error_mm=abs(result.final_error),
                      objective_units="mm")
    return state["ws"], trace


# ---------------------------------------------------------------------------
# Beam-path survey


@dataclass(frozen=True)
class BeamPathFit:
    """Least-squares line through surveyed beam positions, y(x) = a + b x."""

    slope: float
    intercept: float
    rms_residual: float
    points: tuple

    def y_at(self, x) -> float:
        return self.intercept + self.slope * float(x)


def fit_beam_path(xs, ys) -> BeamPathFit:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).size < 2:
        raise WorkspaceError("beam-path fit needs at least two distinct stations")
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (intercept + slope * xs)
    return BeamPathFit(
        slope=float(slope),
        intercept=float(intercept),
        rms_residual=float(np.sqrt(np.mean(residuals ** 2))),
        points=tuple(zip(xs.tolist(), ys.tolist())),
    )


# Beam-path survey stations, in mm before the camera's home station.
_SURVEY_OFFSETS_MM = (240.0, 160.0, 80.0, 0.0)


def measure_beam_path(ws: Workspace, camera_id: str):
    """Survey the beam line by rolling a camera along the table.

    The camera visits the stations ``_SURVEY_OFFSETS_MM`` before its home
    station. At every station it is first recentered on the beam (its own
    spatial loop, which is a no-op when the spot is already near center),
    then the beam's absolute transverse position is read as the camera pose
    plus the residual centroid offset; pose readback is exact, so grip noise
    on the camera drops out of the fit. The camera returns to its home
    station afterwards. Returns the (moved) workspace and the fitted line.
    """
    cam = ws.component(camera_id)
    home = cam.pose
    xs, ys = [], []
    for x in (home.x - d for d in _SURVEY_OFFSETS_MM):
        ws = move_component(ws, camera_id, home.shifted(dx=x - home.x))
        ws, _ = spatial_optimize(ws, camera_id, camera_id)
        frame = camera_view(ws, camera_id)
        spot = centroid(frame)
        if not spot.detected:
            raise BeamLostError(f"no spot on {camera_id} at x={x:.1f}")
        pose = ws.component(camera_id).pose
        center_x, _ = sensor_center_px(frame)
        xs.append(pose.x)
        ys.append(pose.y + (spot.x_px - center_x) * frame.pixel_pitch_mm)
    ws = move_component(ws, camera_id, home)
    return ws, fit_beam_path(xs, ys)


# ---------------------------------------------------------------------------
# Gaussian-process optimizer

# Expected-improvement candidates: a dense mesh of this many points per axis
# up to two dimensions, this many Latin-hypercube samples above.
_MESH_PER_AXIS = 64
_LHS_CANDIDATES = 4096
# A space-filling probe is the one of this many Latin-hypercube samples that
# lies farthest from every observed point.
_SPACE_FILLING_CANDIDATES = 1024


def latin_hypercube(rng: np.random.Generator, bounds, n: int) -> np.ndarray:
    """n stratified samples inside ``bounds``, one stratum per row per dim."""
    b = np.asarray(bounds, dtype=float)
    d = b.shape[0]
    strata = np.column_stack([rng.permutation(n) for _ in range(d)])
    u = (strata + rng.uniform(0.0, 1.0, size=(n, d))) / n
    return b[:, 0] + u * (b[:, 1] - b[:, 0])


class GaussianProcess:
    """Squared-exponential GP regression with a fixed length scale.

    The signal variance tracks the observed values and the noise floor is a
    small fraction of their range, so the interpolant stays numerically tame
    whatever the objective's units are.
    """

    def __init__(self, length_scale: float, noise_scale: float = 1e-4):
        if length_scale <= 0:
            raise WorkspaceError("length_scale must be positive")
        self.length_scale = float(length_scale)
        self.noise_scale = float(noise_scale)
        self._X = None

    def _kernel(self, a, b):
        d2 = cdist(a, b, metric="sqeuclidean")
        return np.exp(-0.5 * d2 / (self.length_scale ** 2))

    def fit(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        self._X = X
        self._mean = float(y.mean())
        centered = y - self._mean
        self._sf2 = float(centered.var())
        if self._sf2 <= 0.0:
            self._sf2 = 1.0
        noise = (self.noise_scale * float(np.ptp(y))) ** 2 + 1e-10 * self._sf2
        K = self._sf2 * self._kernel(X, X) + noise * np.eye(len(X))
        self._factor, _ = cho_factor(K, lower=True)
        # The LAPACK routine cho_solve calls, without its per-call wrappers.
        self._potrs, = get_lapack_funcs(("potrs",), (self._factor,))
        self._alpha = self._solve(np.asarray_chkfinite(centered))
        return self

    def _solve(self, b):
        """K^-1 b from the stored factor. ``b`` is not checked: a non-finite
        ``b`` gives a non-finite result."""
        x, info = self._potrs(self._factor, b, lower=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    def predict(self, Xs):
        if self._X is None:
            raise WorkspaceError("predict before fit")
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = self._sf2 * self._kernel(Xs, self._X)
        mu = self._mean + Ks @ self._alpha
        v = self._solve(np.asarray_chkfinite(Ks.T))
        var = self._sf2 - np.einsum("ij,ji->i", Ks, v)
        return mu, np.sqrt(np.clip(var, 1e-18, None))

    def predict_one(self, x):
        """``predict`` of the single point ``x`` (shape ``(d,)``) as floats.

        The same operations on the same shapes, so the same bits, without
        the per-call cost of ``cdist`` and ``cho_solve``. ``cdist`` sums the
        squared differences coordinate by coordinate, and so does the loop
        below. A NaN point or a non-finite result raises ``ValueError``,
        as a NaN point does in ``predict``.
        """
        if self._X is None:
            raise WorkspaceError("predict before fit")
        sq = (self._X - x) ** 2
        d2 = sq[:, 0]
        for k in range(1, sq.shape[1]):
            d2 = d2 + sq[:, k]
        Ks = self._sf2 * np.exp(-0.5 * d2[None, :] / (self.length_scale ** 2))
        mu = self._mean + float((Ks @ self._alpha)[0])
        v = self._solve(Ks.T)
        var = self._sf2 - float(np.einsum("ij,ji->i", Ks, v)[0])
        if not (math.isfinite(mu) and math.isfinite(var)):
            raise ValueError("array must not contain infs or NaNs")
        return mu, math.sqrt(max(var, 1e-18))


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def expected_improvement(mu, sigma, best):
    """EI of sampling a point under a minimization objective."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    improve = best - mu
    z = np.divide(improve, sigma, out=np.zeros_like(mu), where=sigma > 0)
    pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    ei = improve * ndtr(z) + sigma * pdf
    return np.where(sigma > 0, ei, np.maximum(improve, 0.0))


def _expected_improvement_one(mu, sigma, best):
    """``expected_improvement`` of one point with ``sigma > 0``, as a float.

    The same operations in the same order; ``np.exp`` rather than
    ``math.exp``, which rounds differently from NumPy's vector exp.
    """
    improve = best - mu
    z = improve / sigma
    pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    return float(improve * ndtr(z) + sigma * pdf)


def _space_filling(rng, bounds, observed):
    candidates = latin_hypercube(rng, bounds, _SPACE_FILLING_CANDIDATES)
    gaps = cdist(candidates, observed).min(axis=1)
    return candidates[int(np.argmax(gaps))]


class _BudgetSpent(Exception):
    """The evaluation limit of :func:`_nelder_mead` was reached."""


def _nelder_mead(f, x0, xatol, fatol, maxfev):
    """Minimize ``f`` from ``x0`` with the Nelder-Mead simplex method.

    A transcription of SciPy 1.17.1's ``_minimize_neldermead`` for the one
    configuration ``_propose`` uses: no bounds, the standard (not adaptive)
    coefficients, the default initial simplex and a limit on evaluations
    only. The arithmetic is the same, ``np.argsort`` breaks ties the same
    way, and the run stops in the middle of an iteration once ``maxfev``
    evaluations are spent, so it returns the same bits as
    ``scipy.optimize.minimize(method="Nelder-Mead")``. SciPy's per-call copy
    and scalar check and its per-iteration result object are left out, so
    ``f`` must not modify its argument and must return a float.
    Returns ``(x, fun)``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x)

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    # Sorted twice, as SciPy does.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                doshrink = False
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = call(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = True
                else:
                    # inside contraction
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = call(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = True
                if doshrink:
                    # A vertex moves before it is scored; a spent budget
                    # leaves it moved with its old value, as in SciPy.
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def _propose(rng, bounds, X, y, length_scale, noise_scale, exploit=False):
    b = np.asarray(bounds, dtype=float)
    d = b.shape[0]
    observed = np.vstack(X)
    values = np.asarray(y, dtype=float)
    if np.ptp(values) <= 0.0:
        # No gradient information at all yet: keep covering the box.
        return _space_filling(rng, b, observed)
    gp = GaussianProcess(length_scale, noise_scale).fit(observed, values)
    if d <= 2:
        axes = [np.linspace(lo, hi, _MESH_PER_AXIS) for lo, hi in b]
        cands = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    else:
        cands = latin_hypercube(rng, b, _LHS_CANDIDATES)
    best = float(values.min())

    lo, hi = b[:, 0], b[:, 1]
    if exploit:
        scored = gp.predict(cands)[0]

        def refine(x):
            return gp.predict_one(np.clip(x, lo, hi))[0]
    else:
        scored = -expected_improvement(*gp.predict(cands), best)

        def refine(x):
            # predict_one floors sigma at 1e-9, so the sigma > 0 branch holds
            mu, sigma = gp.predict_one(np.clip(x, lo, hi))
            return -_expected_improvement_one(mu, sigma, best)

    pick = cands[int(np.argmin(scored))]
    x, fun = _nelder_mead(refine, pick, xatol=1e-3, fatol=1e-12, maxfev=80 * d)
    if np.all(np.isfinite(x)) and fun <= float(np.min(scored)):
        pick = np.clip(x, lo, hi)
    span = float(np.mean(b[:, 1] - b[:, 0]))
    if cdist(pick[None, :], observed).min() < 1e-8 * span:
        pick = _space_filling(rng, b, observed)
    return pick


def bayesian_optimize(objective, bounds, rng: np.random.Generator, *,
                      max_iters: int = 30, init_samples: int = 5,
                      length_scale: float = 15.0, noise_scale: float = 1e-4,
                      success_cost=None, no_signal_cost=None,
                      exploit_every: int = 0):
    """Minimize a black-box objective inside a box with a GP surrogate.

    Starts from a Latin-hypercube batch (always evaluated in full), then
    repeatedly samples the expected-improvement maximizer (dense mesh up to
    two dims, seeded candidates plus simplex refinement above). While the
    observations are all identical there is nothing to model, so it falls
    back to filling the largest gap. Stops once ``success_cost`` is reached.

    ``exploit_every=k`` makes every k-th proposal minimize the posterior
    mean instead of maximizing expected improvement. Funnel-shaped costs
    need this hedge: their far field stays high, so the surrogate's
    reversion to the prior mean keeps unexplored corners looking better
    than the true basin.

    ``no_signal_cost`` marks the sentinel the objective returns when it sees
    nothing at all. If the whole initial batch comes back at or above it,
    the box is doubled about its center and re-sampled once, with no more
    points than ``max_iters`` has left; a second blank batch, or no budget
    left for one, raises :class:`BeamLostError` carrying the trace. All draws
    come from ``rng``; equal seeds give equal runs.
    """
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] >= b[:, 1]):
        raise WorkspaceError("bounds must be a list of increasing (lo, hi) pairs")
    if max_iters < 1:
        raise WorkspaceError("max_iters must be at least 1")
    trace = OptTrace(method="bayes")
    X, y = [], []

    def evaluate(x):
        x = np.clip(np.asarray(x, dtype=float), b[:, 0], b[:, 1])
        value = float(objective(tuple(x)))
        X.append(x)
        y.append(value)
        trace.record(tuple(x), value)
        return value

    def succeeded():
        return success_cost is not None and trace.best_objective <= success_cost

    def blank():
        return no_signal_cost is not None and all(v >= no_signal_cost for v in y)

    for x0 in latin_hypercube(rng, b, min(init_samples, max_iters)):
        evaluate(x0)
    if blank():
        budget = max_iters - len(y)
        if budget > 0:
            center = b.mean(axis=1)
            half = b[:, 1] - b[:, 0]
            b = np.column_stack([center - half, center + half])
            for x0 in latin_hypercube(rng, b, min(init_samples, budget)):
                evaluate(x0)
        if blank():
            trace.meta["success_cost"] = success_cost
            raise BeamLostError(
                "no signal in the initial batch even after widening the "
                "search box", trace=trace)
    proposals = 0
    while len(y) < max_iters and not succeeded():
        proposals += 1
        exploit = exploit_every > 0 and proposals % exploit_every == 0
        evaluate(_propose(rng, b, X, y, length_scale, noise_scale,
                          exploit=exploit))
    trace.converged = succeeded() if success_cost is not None else True
    trace.meta["success_cost"] = success_cost
    return trace.best_params, trace.best_objective, trace


# ---------------------------------------------------------------------------
# Instrument-level search stages

# Every second mirror-alignment proposal exploits the posterior mean (see
# ``bayesian_optimize``): the retro-spot distance is funnel-shaped.
_ALIGN_EXPLOIT_EVERY = 2
# The crystal sweep scans 0 degrees up to this angle in steps of this size.
_SWEEP_MAX_DEG = 3.0
_SWEEP_STEP_DEG = 0.2


@dataclass(frozen=True)
class AngularOptConfig:
    """Settings for knob-space mirror alignment."""

    span_deg: float = 90.0
    max_iters: int = 30
    init_samples: int = 5
    length_scale_deg: float = 30.0
    noise_scale: float = 1e-4
    success_radius_px: float | None = None


def align_resonator(ws: Workspace, mirror_id: str, camera_id: str, reference,
                    rng: np.random.Generator, cfg: AngularOptConfig | None = None,
                    reference_scale=None):
    """Point a cavity mirror so its reflection lands back on the main spot.

    ``reference`` is a frame captured with the reflection absent; the live
    frame minus that reference (both contrast-stretched, the reference
    optionally rescaled when the new mirror also attenuates the main beam)
    isolates the reflected spot. The cost is the spot's pixel distance from
    the reference centroid, with an off-sensor penalty of two sensor
    diagonals, minimized over the two knob readings. The default success
    radius is the reference spot's rendered 1/e^2 radius in pixels.
    """
    cfg = cfg or AngularOptConfig()
    knobs = ws.component(mirror_id).knobs
    if knobs is None:
        raise WorkspaceError(f"component {mirror_id!r} has no knobs to align")
    anchor = centroid(reference)
    if not anchor.detected:
        raise BeamLostError(f"reference frame for {mirror_id} shows no spot")
    scaled = reference.scaled(reference_scale) if reference_scale is not None else reference
    reference_log = log_transform(scaled)
    penalty = 2.0 * math.hypot(reference.width, reference.height)
    radius = cfg.success_radius_px
    if radius is None:
        stats = beam_stats(reference)
        radius = 2.0 * max(stats.sigma_px)

    actions0 = ws.action_count
    state = {"ws": ws}

    def objective(readings):
        h, v = readings
        state["ws"] = set_knob_readings(state["ws"], mirror_id, h, v)
        frame = camera_view(state["ws"], camera_id)
        diff = subtract_reference(log_transform(frame), reference_log)
        spot = centroid(diff)
        if not spot.detected:
            return penalty
        return math.hypot(spot.x_px - anchor.x_px, spot.y_px - anchor.y_px)

    bounds = [(knobs.h_deg - cfg.span_deg, knobs.h_deg + cfg.span_deg),
              (knobs.v_deg - cfg.span_deg, knobs.v_deg + cfg.span_deg)]
    best, _, trace = bayesian_optimize(
        objective, bounds, rng,
        max_iters=cfg.max_iters, init_samples=cfg.init_samples,
        length_scale=cfg.length_scale_deg, noise_scale=cfg.noise_scale,
        success_cost=radius, no_signal_cost=penalty,
        exploit_every=_ALIGN_EXPLOIT_EVERY)
    state["ws"] = set_knob_readings(state["ws"], mirror_id, *best)
    trace.wall_actions = state["ws"].action_count - actions0
    trace.meta.update(mirror=mirror_id, camera=camera_id,
                      success_radius_px=radius, objective_units="px")
    return state["ws"], trace


def crystal_sweep(ws: Workspace, crystal_id: str, camera_id: str):
    """Grid-scan the crystal angle and park it where emission peaks.

    The scan runs from 0 to ``_SWEEP_MAX_DEG`` in ``_SWEEP_STEP_DEG`` steps.
    Raises :class:`NoLasingError` when the whole range stays dark. The trace
    records the negated camera total per angle.
    """
    actions0 = ws.action_count
    trace = OptTrace(method="sweep")
    best_theta = None
    best_total = 0.0
    steps = int(round(_SWEEP_MAX_DEG / _SWEEP_STEP_DEG))
    for i in range(steps + 1):
        theta = i * _SWEEP_STEP_DEG
        ws = rotate_crystal(ws, crystal_id, theta)
        frame = camera_view(ws, camera_id)
        spot = centroid(frame)
        total = spot.total_intensity if spot.detected else 0.0
        trace.record((theta,), -total)
        if spot.detected and total > best_total:
            best_theta, best_total = theta, total
    if best_theta is None:
        raise NoLasingError(
            f"no emission on {camera_id} for crystal angles 0.0 to {_SWEEP_MAX_DEG}")
    ws = rotate_crystal(ws, crystal_id, best_theta)
    trace.converged = True
    trace.wall_actions = ws.action_count - actions0
    trace.meta.update(crystal=crystal_id, camera=camera_id,
                      theta_deg=best_theta, objective="neg_total_intensity")
    return ws, best_theta, trace


def optimize_mode(ws: Workspace, mirror_ids, camera_id: str,
                  rng: np.random.Generator, *, span_deg: float = 15.0,
                  max_iters: int = 30, init_samples: int = 5,
                  length_scale_deg: float = 15.0, sigma_ref_px=None,
                  objective_kind: str = "sqrtI_over_M2", success_value=None):
    """Joint search over both knobs of each mirror in ``mirror_ids`` that
    maximizes emission quality on a camera.

    The score is :func:`~cavforge.vision.emission_score`: total spot
    intensity (square-rooted under ``sqrtI_over_M2`` to soften the peak,
    linear under ``I_over_M2``) over the beam-quality proxy, which counts
    only when a fundamental-mode reference width is supplied; a dark frame
    scores zero. The box spans ``span_deg`` either side of each starting
    reading. Stops early once the score reaches ``success_value``.
    """
    if objective_kind not in ("sqrtI_over_M2", "I_over_M2"):
        raise WorkspaceError(f"unknown objective kind {objective_kind!r}")
    root = objective_kind == "sqrtI_over_M2"
    mirror_ids = tuple(mirror_ids)
    start = knob_readings(ws, mirror_ids)
    actions0 = ws.action_count
    state = {"ws": ws}

    def apply(readings):
        values = [float(v) for v in readings]
        state["ws"] = apply_knob_readings(
            state["ws"], dict(zip(mirror_ids, zip(values[0::2], values[1::2]))))

    def objective(readings):
        apply(readings)
        frame = camera_view(state["ws"], camera_id)
        stats = beam_stats(frame, sigma_ref_px=sigma_ref_px)
        # 0.0 - score negates exactly, and keeps a dark frame at +0.0
        return 0.0 - emission_score(stats, root=root)

    bounds = [(r - span_deg, r + span_deg)
              for cid in mirror_ids for r in start[cid]]
    success_cost = -float(success_value) if success_value is not None else None
    best, _, trace = bayesian_optimize(
        objective, bounds, rng,
        max_iters=max_iters, init_samples=init_samples,
        length_scale=length_scale_deg, success_cost=success_cost)
    apply(best)
    trace.wall_actions = state["ws"].action_count - actions0
    trace.meta.update(camera=camera_id,
                      knob_axes=[[cid, axis] for cid in mirror_ids for axis in ("h", "v")],
                      objective=f"neg_{objective_kind}")
    return state["ws"], trace
