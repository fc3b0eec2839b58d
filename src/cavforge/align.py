"""Closed-loop alignment routines.

Transverse placement errors act through affine beam geometry, so a probe
move plus one corrected move cancels them exactly; the loop repeats only
because every grip lands with fresh actuation noise. Pointing a cavity mirror
back onto its reference spot is affine too while the reflection is on the
sensor: a mirror's tilt is linear in its knob readings, and so is the retro
spot's place, so a secant step (one probe per knob, then Broyden updates)
walks it onto the anchor. The mount bias is invisible to the controller, so
when the reflection starts off the sensor, the secant's Jacobian degenerates,
a step leaves the knob range or the secant's budget runs out, a small
Gaussian-process optimizer over the knob readings, with expected improvement
as the acquisition rule, finishes the job. The emission searches use that
optimizer from the start. All of them report their history through
:class:`OptTrace`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BeamLostError, DegenerateResponseError, NoLasingError, WorkspaceError
from .physics import camera_view
from .simcore import (
    KNOB_DEG,
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
    reflection_centroid,
    sensor_center_px,
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
    # (workspace, camera frame) of the last measurement, so a caller need
    # not draw that bench state again; not part of ``summary()``
    last_view: tuple | None = field(default=None, repr=False, compare=False)

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
# Newton corrections


def newton_correction(reading, probe, response):
    """Move that zeroes an affine signal after a probe of size ``probe``.

    ``reading`` is the signal before the probe, ``response`` the change the
    probe caused. The returned move applies from the probed position, so for
    a truly affine signal one probe plus this correction lands on zero.
    """
    if abs(response) < _MIN_RESPONSE:
        raise DegenerateResponseError(
            f"probe of {probe} changed the signal by only {response}")
    return -probe * (reading + response) / response


def newton_step(residual, jacobian):
    """Move that zeroes an affine vector signal: the solution ``d`` of
    ``jacobian @ d == -residual``.

    The vector form of :func:`newton_correction`, with the Jacobian estimated
    by the caller. Raises :class:`DegenerateResponseError` when the Jacobian
    is not finite or its determinant is below the same response floor.
    """
    jacobian = np.asarray(jacobian, dtype=float)
    if not np.isfinite(jacobian).all() or abs(np.linalg.det(jacobian)) < _MIN_RESPONSE:
        raise DegenerateResponseError(f"response matrix {jacobian.tolist()} is singular")
    return np.linalg.solve(jacobian, -np.asarray(residual, dtype=float))


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
    every measurement; each trace entry is one rendered frame, and the
    trace's ``last_view`` holds the last, which shows the returned workspace.
    """
    cfg = cfg or SpatialOptConfig()
    if _PROBE_MM <= ws.placement_noise_sigma:
        raise WorkspaceError(
            f"probe of {_PROBE_MM} mm would drown in placement noise "
            f"(sigma {ws.placement_noise_sigma} mm)")
    actions0 = ws.action_count
    state = {"ws": ws}
    trace = OptTrace(method="newton")

    def snap(read=centroid):
        frame = camera_view(state["ws"], camera_id)
        spot = read(frame)
        if not spot.detected:
            raise BeamLostError(
                f"no spot on {camera_id} while adjusting {component_id}")
        trace.last_view = (state["ws"], frame)
        return frame, spot

    # Only the default tolerance needs the spot's width.
    tolerance = cfg.tolerance_mm
    if tolerance is None:
        frame, stats = snap(beam_stats)
        x_px = stats.centroid_px[0]
        tolerance = 2.0 * max(stats.sigma_px) * frame.pixel_pitch_mm
    else:
        frame, spot = snap()
        x_px = spot.x_px
    target = tuple(target_px) if target_px is not None else sensor_center_px(frame)
    pitch = frame.pixel_pitch_mm

    # The frame that set the target is also the loop's first measurement.
    pending = [x_px]

    def measure():
        x_px = pending.pop() if pending else snap()[1].x_px
        err = (x_px - target[0]) * pitch
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
    then the beam's absolute transverse position is read, from that loop's
    last frame, as the camera pose plus the residual centroid offset; pose
    readback is exact, so grip noise on the camera drops out of the fit. The
    camera returns to its home station afterwards. Returns the (moved)
    workspace and the fitted line.
    """
    cam = ws.component(camera_id)
    home = cam.pose
    xs, ys = [], []
    for x in (home.x - d for d in _SURVEY_OFFSETS_MM):
        ws = move_component(ws, camera_id, home.shifted(dx=x - home.x))
        ws, trace = spatial_optimize(ws, camera_id, camera_id)
        # the loop ends on a measurement of ``ws``, whose spot it detected
        _, frame = trace.last_view
        spot = centroid(frame)
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
# The best candidate is refined by this many rounds of a pattern search over
# a grid stencil of at most this many points: as many points per axis as the
# budget allows, 9 x 9 in two dimensions and 3^4 in four. A pattern search
# needs a stencil that spans the coordinate directions, not a dense one
# (Torczon, SIAM J. Optim. 1997).
_STENCIL_ROUNDS = 8
_STENCIL_ROWS = 81
# The model step fits the evaluations whose cost is at most this fraction of
# the best (at least 2d + 2 of them, for 2d + 1 coefficients): on a negated
# score, the ones within a tenth of the best score.
_MODEL_BRIGHT_FRACTION = 0.1

# SciPy takes about 0.4 s to import and only the GP search uses it, so these
# stay unbound until the search first needs them; _load_scipy binds them once.
cho_factor = get_lapack_funcs = cdist = ndtr = None


def _load_scipy():
    global cho_factor, get_lapack_funcs, cdist, ndtr
    if ndtr is None:
        from scipy.linalg import cho_factor, get_lapack_funcs
        from scipy.spatial.distance import cdist
        from scipy.special import ndtr


def latin_hypercube(rng: np.random.Generator, bounds, n: int) -> np.ndarray:
    """n stratified samples inside ``bounds``, one stratum per row per dim."""
    b = np.asarray(bounds, dtype=float)
    d = b.shape[0]
    # (strata + jitter) / n * width + lo, in one array: a stratum index is
    # exact as a float, so each step rounds as the expression does
    out = np.empty((n, d))
    for j in range(d):
        out[:, j] = rng.permutation(n)
    out += rng.random((n, d))
    out /= n
    out *= b[:, 1] - b[:, 0]
    out += b[:, 0]
    return out


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

    def _kernel(self, a, b, out=None):
        # exp(-0.5 * d2 / l^2) in place, its operations in that order so
        # the bits match the expression
        k = cdist(a, b, metric="sqeuclidean", out=out)
        k *= -0.5
        k /= self.length_scale ** 2
        return np.exp(k, out=k)

    def fit(self, X, y):
        _load_scipy()
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
        factor, _ = cho_factor(K, lower=True)
        # The LAPACK routines cho_solve and solve_triangular call, without
        # their per-call wrappers.
        potrs, trtrs = get_lapack_funcs(("potrs", "trtrs"), (factor,))
        self._alpha = _lapack(potrs, factor, np.asarray_chkfinite(centered),
                              lower=True)
        # K = L L^T, so Ks K^-1 Ks^T = W W^T with W = Ks L^-T: predict gets
        # every row's variance from one matrix product with this factor.
        self._inv_factor_t = _lapack(trtrs, factor, np.eye(len(X)),
                                     lower=True, trans=1)
        # predict's kernel and variance rows; a batch of m rows uses the
        # first m, and a larger batch replaces them
        self._work = np.empty((2, 0, len(X)))
        return self

    def predict(self, Xs, mean_only=False):
        """Posterior mean and standard deviation at each row of ``Xs``, or
        the mean alone when ``mean_only`` is set."""
        if self._X is None:
            raise WorkspaceError("predict before fit")
        # an infinite row would score as the prior, a NaN one as NaN
        Xs = np.asarray_chkfinite(np.atleast_2d(np.asarray(Xs, dtype=float)))
        m = len(Xs)
        if m > self._work.shape[1]:
            self._work = np.empty((2, m, len(self._X)))
        Ks = self._kernel(Xs, self._X, out=self._work[0, :m])
        Ks *= self._sf2
        mu = self._mean + Ks @ self._alpha
        if mean_only:
            return mu
        W = np.matmul(Ks, self._inv_factor_t, out=self._work[1, :m])
        var = np.einsum("ij,ij->i", W, W)
        np.subtract(self._sf2, var, out=var)
        np.clip(var, 1e-18, None, out=var)
        return mu, np.sqrt(var, out=var)


def _lapack(routine, *args, **kwargs):
    x, info = routine(*args, **kwargs)
    if info != 0:
        raise ValueError(f"internal {routine.__name__} failed with info {info}")
    return x


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def expected_improvement(mu, sigma, best):
    """EI of sampling a point under a minimization objective."""
    _load_scipy()
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    improve = best - mu
    positive = sigma > 0
    z = np.divide(improve, sigma, out=np.zeros_like(mu), where=positive)
    # improve * ndtr(z) + sigma * exp(-0.5 * z * z) / sqrt(2 pi), each
    # product and sum rounded as written, in the two temporaries
    pdf = np.multiply(z, -0.5)
    pdf *= z
    np.exp(pdf, out=pdf)
    pdf /= _SQRT_2PI
    pdf *= sigma
    ei = ndtr(z, out=z)
    ei *= improve
    ei += pdf
    # no uncertainty left: the improvement itself, if any
    np.maximum(improve, 0.0, out=improve)
    np.copyto(ei, improve, where=~positive)
    return ei


def _space_filling(rng, bounds, observed):
    _load_scipy()
    candidates = latin_hypercube(rng, bounds, _SPACE_FILLING_CANDIDATES)
    gaps = cdist(candidates, observed).min(axis=1)
    return candidates[int(np.argmax(gaps))]


@functools.cache
def _stencil(d: int) -> np.ndarray:
    """The pattern search's k^d offsets on [-1, 1]^d, shared read-only: the
    largest k with k^d <= ``_STENCIL_ROWS``."""
    k = 1
    while (k + 1) ** d <= _STENCIL_ROWS:
        k += 1
    unit = np.stack(np.meshgrid(*[np.linspace(-1.0, 1.0, k)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)
    unit.setflags(write=False)
    return unit


def _propose(rng, bounds, X, y, length_scale, noise_scale, exploit=False):
    b = np.asarray(bounds, dtype=float)
    d = b.shape[0]
    lo, hi = b[:, 0], b[:, 1]
    observed = np.vstack(X)
    values = np.asarray(y, dtype=float)
    if np.ptp(values) <= 0.0:
        # No gradient information at all yet: keep covering the box.
        return _space_filling(rng, b, observed)
    gp = GaussianProcess(length_scale, noise_scale).fit(observed, values)
    best = float(values.min())

    def score(points):
        if exploit:
            return gp.predict(points, mean_only=True)
        return -expected_improvement(*gp.predict(points), best)

    if d <= 2:
        axes = [np.linspace(lo, hi, _MESH_PER_AXIS) for lo, hi in b]
        cands = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        cells = _MESH_PER_AXIS - 1
    else:
        cands = latin_hypercube(rng, b, _LHS_CANDIDATES)
        cells = _LHS_CANDIDATES ** (1.0 / d)
    scored = score(cands)
    i = int(np.argmin(scored))
    pick, value = cands[i], scored[i]

    # Pattern search on a k^d stencil that starts one candidate cell wide:
    # move to the stencil's best point while it beats the incumbent, halve
    # the stencil when it does not.
    unit = _stencil(d)
    half = (hi - lo) / cells
    points = np.empty_like(unit)
    for _ in range(_STENCIL_ROUNDS):
        # np.clip(pick + half * unit, lo, hi), formed in one reused buffer
        np.multiply(half, unit, out=points)
        np.add(pick, points, out=points)
        np.maximum(points, lo, out=points)
        np.minimum(points, hi, out=points)
        scored = score(points)
        i = int(np.argmin(scored))
        if scored[i] < value:
            pick, value = points[i].copy(), scored[i]
        else:
            half = half / 2.0
    if _is_observed(pick, observed, b):
        pick = _space_filling(rng, b, observed)
    return pick


def _is_observed(point, observed, bounds) -> bool:
    """Whether ``point`` repeats an observation, to within 1e-8 of the box's
    mean width."""
    _load_scipy()
    span = float(np.mean(bounds[:, 1] - bounds[:, 0]))
    return bool(cdist(point[None, :], observed).min() < 1e-8 * span)


def _model_vertex(bounds, X, y, tried: int):
    """The vertex of a separable quadratic fitted to the bright evaluations.

    Bright evaluations cost at most ``_MODEL_BRIGHT_FRACTION`` of the best.
    Once there are 2d + 2 of them, and more than the ``tried`` of the last
    attempt, ``cost = c + g.z + q.z^2`` is fitted to them by least squares,
    with ``z = (x - mid) / half_width`` the box-normalized probe (the
    diagonal model of Powell's NEWUOA, 2006). Returns the vertex ``z* = -g /
    (2q)``, clipped to the box, if every ``q`` is positive and the vertex is
    no observed point, else ``None``; and the bright count to pass as
    ``tried`` next time.
    """
    values = np.asarray(y, dtype=float)
    bright = values <= _MODEL_BRIGHT_FRACTION * values.min()
    n = int(np.count_nonzero(bright))
    d = bounds.shape[0]
    if n < 2 * d + 2 or n <= tried:
        return None, tried
    mid = bounds.mean(axis=1)
    half = (bounds[:, 1] - bounds[:, 0]) / 2.0
    observed = np.vstack(X)
    z = (observed[bright] - mid) / half
    design = np.hstack([np.ones((n, 1)), z, z * z])
    coef = np.linalg.lstsq(design, values[bright], rcond=None)[0]
    g, q = coef[1:d + 1], coef[d + 1:]
    if not (np.isfinite(coef).all() and np.all(q > 0.0)):
        return None, n
    vertex = mid + half * np.clip(-g / (2.0 * q), -1.0, 1.0)
    if _is_observed(vertex, observed, bounds):
        return None, n
    return vertex, n


def bayesian_optimize(objective, bounds, rng: np.random.Generator, *,
                      max_iters: int = 30, init_samples: int = 5,
                      length_scale: float = 15.0, noise_scale: float = 1e-4,
                      success_cost=None, no_signal_cost=None,
                      exploit_every: int = 0, model_step: bool = False):
    """Minimize a black-box objective inside a box with a GP surrogate.

    Starts from a Latin-hypercube batch (always evaluated in full), then
    repeatedly samples the expected-improvement maximizer: the best of a
    dense mesh up to two dims, or of seeded Latin-hypercube candidates
    above, refined by a pattern search on a shrinking stencil, each stencil
    scored in one batch. While the observations are all identical there is
    nothing to model, so it falls back to filling the largest gap. Stops
    once ``success_cost`` is reached.

    ``exploit_every=k`` makes every k-th proposal minimize the posterior
    mean instead of maximizing expected improvement. Funnel-shaped costs
    need this hedge: their far field stays high, so the surrogate's
    reversion to the prior mean keeps unexplored corners looking better
    than the true basin.

    ``model_step=True`` suits a cost that is a separable quadratic in the
    parameters near its minimum, such as a negated intensity that falls
    with a sum of squared tilts. Before each proposal, once the evaluations
    within a tenth of the best have grown in number since the last try, it
    fits that model to them and evaluates its vertex instead
    (:func:`_model_vertex`); a fit with a non-positive curvature, or a
    vertex already observed, leaves the proposal to the GP. Vertices count
    against ``max_iters`` like any evaluation, the best point is returned
    whether or not one was, and ``meta["model_steps"]`` counts them.

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
    proposals = steps = tried = 0
    while len(y) < max_iters and not succeeded():
        if model_step:
            vertex, tried = _model_vertex(b, X, y, tried)
            if vertex is not None:
                steps += 1
                evaluate(vertex)
                continue
        proposals += 1
        exploit = exploit_every > 0 and proposals % exploit_every == 0
        evaluate(_propose(rng, b, X, y, length_scale, noise_scale,
                          exploit=exploit))
    trace.converged = succeeded() if success_cost is not None else True
    trace.meta["success_cost"] = success_cost
    if model_step:
        trace.meta["model_steps"] = steps
    return trace.best_params, trace.best_objective, trace


# ---------------------------------------------------------------------------
# Instrument-level search stages

# Every second mirror-alignment proposal exploits the posterior mean (see
# ``bayesian_optimize``): the retro-spot distance is funnel-shaped.
_ALIGN_EXPLOIT_EVERY = 2
# The retro-spot secant probes each knob by this many degrees, well clear of
# the centroid's pixel noise, and spends at most this many evaluations.
_SECANT_PROBE_DEG = 8.0
_SECANT_MAX_EVALS = 12
# The crystal sweep scans 0 degrees up to this angle in steps of this size.
_SWEEP_MAX_DEG = 3.0
_SWEEP_STEP_DEG = 0.2


def _knob_search(ws: Workspace, mirror_ids: tuple, camera_id: str,
                 rng: np.random.Generator, span_deg: float, cost, center=None,
                 **options):
    """Minimize ``cost(frame)`` over both knobs of each mirror in
    ``mirror_ids`` with :func:`bayesian_optimize`, which takes ``options``.

    The box spans ``span_deg`` either side of each reading in ``center``
    (``{id: (h_deg, v_deg)}``, by default the current readings), clipped to
    ``KNOB_DEG``; each probe turns the knobs to its readings and scores the
    frame ``camera_id`` then shows. The best readings are applied to the
    returned workspace. The trace's ``last_view`` holds the last
    evaluation's workspace and frame.
    """
    start = center or knob_readings(ws, mirror_ids)
    bounds = [(max(r - span_deg, KNOB_DEG.lo), min(r + span_deg, KNOB_DEG.hi))
              for cid in mirror_ids for r in start[cid]]
    actions0 = ws.action_count
    state = {"ws": ws}

    def apply(readings):
        # not coerced: the knobs keep the readings' np.float64 type and repr
        state["ws"] = apply_knob_readings(
            state["ws"], dict(zip(mirror_ids, zip(readings[0::2], readings[1::2]))))

    def objective(readings):
        apply(readings)
        frame = camera_view(state["ws"], camera_id)
        state["view"] = (state["ws"], frame)
        return cost(frame)

    best, _, trace = bayesian_optimize(objective, bounds, rng, **options)
    apply(best)
    trace.last_view = state["view"]
    trace.wall_actions = state["ws"].action_count - actions0
    return state["ws"], trace


def align_resonator(ws: Workspace, mirror_id: str, camera_id: str, reference,
                    rng: np.random.Generator, *, span_deg: float = 90.0,
                    max_iters: int = 30, init_samples: int = 5,
                    length_scale_deg: float = 30.0, noise_scale: float = 1e-4,
                    success_radius_px: float | None = None, reference_scale=None):
    """Point a cavity mirror so its reflection lands back on the main spot.

    ``reference`` is a frame captured with the reflection absent; the live
    frame minus that reference (both contrast-stretched, the reference
    optionally rescaled when the new mirror also attenuates the main beam)
    isolates the reflected spot. The cost is the spot's pixel distance from
    the reference centroid, with an off-sensor penalty of two sensor
    diagonals, minimized over the two knob readings. The default success
    radius is the reference spot's rendered 1/e^2 radius in pixels.

    A secant solve runs first (:func:`_retro_secant`). If it falls back, the
    Gaussian-process search spends what is left of ``max_iters`` in a box
    ``span_deg`` either side of the starting readings, and the rest of the
    options are its own; ``meta["fallback"]`` names the reason, ``None``
    when the secant did the job. One trace records every evaluation, and the
    best readings are on the returned workspace's dials.
    """
    if ws.component(mirror_id).knobs is None:
        raise WorkspaceError(f"component {mirror_id!r} has no knobs to align")
    if max_iters < 1:
        raise WorkspaceError("max_iters must be at least 1")
    anchor = centroid(reference)
    if not anchor.detected:
        raise BeamLostError(f"reference frame for {mirror_id} shows no spot")
    scaled = reference.scaled(reference_scale) if reference_scale is not None else reference
    reference_log = log_transform(scaled)
    penalty = 2.0 * math.hypot(reference.width, reference.height)
    radius = success_radius_px
    if radius is None:
        stats = beam_stats(reference)
        radius = 2.0 * max(stats.sigma_px)

    def measure(frame):
        spot = reflection_centroid(frame, reference_log)
        if not spot.detected:
            return None, penalty
        away = np.array([spot.x_px - anchor.x_px, spot.y_px - anchor.y_px])
        return away, math.hypot(*away)

    def cost(frame):
        return measure(frame)[1]

    actions0 = ws.action_count
    start = knob_readings(ws, (mirror_id,))
    trace = OptTrace(method="secant")
    ws, fallback = _retro_secant(ws, mirror_id, camera_id, measure, radius, trace,
                                 min(_SECANT_MAX_EVALS, max_iters))
    trace.meta.update(mirror=mirror_id, camera=camera_id, fallback=fallback,
                      success_radius_px=radius, objective_units="px")
    if fallback is not None:
        if len(trace) < max_iters:
            try:
                ws, search = _knob_search(
                    ws, (mirror_id,), camera_id, rng, span_deg, cost, center=start,
                    max_iters=max_iters - len(trace), init_samples=init_samples,
                    length_scale=length_scale_deg, noise_scale=noise_scale,
                    success_cost=radius, no_signal_cost=penalty,
                    exploit_every=_ALIGN_EXPLOIT_EVERY)
            except BeamLostError as exc:
                _extend(trace, exc.trace)
                exc.trace = trace
                raise
            _extend(trace, search)
            trace.last_view = search.last_view
            trace.converged = search.converged
        ws = _turn_to(ws, mirror_id, trace.best_params)
    trace.wall_actions = ws.action_count - actions0
    return ws, trace


def _retro_secant(ws: Workspace, mirror_id: str, camera_id: str, measure,
                  radius: float, trace: OptTrace, budget: int):
    """Walk the retro spot onto the anchor by secant steps.

    ``measure(frame)`` gives the reflected spot's pixel offset from the
    anchor, ``None`` when the reflection is not detected, and the cost. While
    the spot is detected its offset is affine in the two knob readings, so
    the Jacobian starts as the forward difference of one probe of each knob
    from the first reading and then follows Broyden's rank-one update
    (Broyden 1965) along each step :func:`newton_step` takes; from a zero
    matrix, that update along a probe writes the probe's column. Each
    evaluation is recorded in ``trace`` at the readings the dials show after
    the turn, and sets its ``last_view``. Returns the workspace and ``None``
    once the spot is within ``radius`` (the last evaluation then being the
    best), or else the reason to fall back, after at most ``budget``
    evaluations.
    """
    jacobian = np.zeros((2, 2))
    probes = _SECANT_PROBE_DEG * np.eye(2)
    readings = np.array(knob_readings(ws, (mirror_id,))[mirror_id])
    away = None
    for n in range(budget):
        if n > 0:
            try:
                step = probes[n - 1] if n <= 2 else newton_step(away, jacobian)
            except DegenerateResponseError:
                return ws, "singular Jacobian"
            target = readings + step
            if any(KNOB_DEG.violation(r) is not None for r in target):
                return ws, "step leaves the knob range"
            ws = set_knob_readings(ws, mirror_id, *target)
        # the dials read what the turn landed on, which can round
        landed = np.array(knob_readings(ws, (mirror_id,))[mirror_id])
        frame = camera_view(ws, camera_id)
        trace.last_view = (ws, frame)
        seen, cost = measure(frame)
        trace.record(landed, cost)
        if seen is None:
            return ws, "reflection not detected"
        if cost <= radius:
            trace.converged = True
            return ws, None
        if n > 0:
            moved = landed - readings
            jacobian += np.outer(seen - away - jacobian @ moved, moved) / (moved @ moved)
        if n != 1:
            # both probes start from the first reading
            readings, away = landed, seen
    return ws, "secant budget spent"


def _extend(trace: OptTrace, more: OptTrace) -> None:
    for it in more.iterations:
        trace.record(it.params, it.objective)
    trace.meta.update(more.meta)


def _turn_to(ws: Workspace, mirror_id: str, readings) -> Workspace:
    """Turn a mirror's dials to read exactly ``readings``. A turn from far
    away can round; the difference left is then exact, so a second turn lands."""
    for _ in range(2):
        if knob_readings(ws, (mirror_id,))[mirror_id] != tuple(readings):
            ws = set_knob_readings(ws, mirror_id, *readings)
    return ws


def crystal_sweep(ws: Workspace, crystal_id: str, camera_id: str):
    """Grid-scan the crystal angle and park it where emission peaks.

    The scan runs from 0 to ``_SWEEP_MAX_DEG`` in ``_SWEEP_STEP_DEG`` steps.
    Raises :class:`NoLasingError` when the whole range stays dark. The trace
    records the negated camera total per angle.
    """
    actions0 = ws.action_count
    trace = OptTrace(method="sweep")
    steps = int(round(_SWEEP_MAX_DEG / _SWEEP_STEP_DEG))
    for i in range(steps + 1):
        theta = i * _SWEEP_STEP_DEG
        ws = rotate_crystal(ws, crystal_id, theta)
        frame = camera_view(ws, camera_id)
        spot = centroid(frame)
        total = spot.total_intensity if spot.detected else 0.0
        trace.record((theta,), -total)
    # a detected spot's total is positive, so -0.0 means no angle lit the camera
    if not trace.best_objective < 0.0:
        raise NoLasingError(
            f"no emission on {camera_id} for crystal angles 0.0 to {_SWEEP_MAX_DEG}")
    best_theta = trace.best_params[0]
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
    reading, within ``KNOB_DEG``. Stops early once the score reaches
    ``success_value``. The plain total intensity (``I_over_M2`` with no
    reference width) is a separable quadratic in the readings while the
    cavity lases, so that score turns on the search's model step
    (:func:`bayesian_optimize`); every other score searches with the GP
    alone. The trace's ``meta`` names the objective and the reference width,
    ``None`` when the score is the intensity alone, and then counts the
    ``model_steps``. Its ``last_view`` holds the last evaluation's workspace
    and frame.
    """
    if objective_kind not in ("sqrtI_over_M2", "I_over_M2"):
        raise WorkspaceError(f"unknown objective kind {objective_kind!r}")
    root = objective_kind == "sqrtI_over_M2"
    mirror_ids = tuple(mirror_ids)

    def cost(frame):
        # 0.0 - score negates exactly, and keeps a dark frame at +0.0
        return 0.0 - emission_score(frame, root=root, sigma_ref_px=sigma_ref_px)

    success_cost = -float(success_value) if success_value is not None else None
    ws, trace = _knob_search(
        ws, mirror_ids, camera_id, rng, span_deg, cost,
        max_iters=max_iters, init_samples=init_samples,
        length_scale=length_scale_deg, success_cost=success_cost,
        model_step=not root and sigma_ref_px is None)
    trace.meta.update(camera=camera_id,
                      knob_axes=[[cid, axis] for cid in mirror_ids for axis in ("h", "v")],
                      objective=f"neg_{objective_kind}", sigma_ref_px=sigma_ref_px)
    return ws, trace
