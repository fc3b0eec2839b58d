import math

import numpy as np
import pytest

from cavforge.align import (GaussianProcess, bayesian_optimize,
                            expected_improvement, latin_hypercube)
from cavforge.errors import BeamLostError, WorkspaceError

BOWL_ARGS = dict(max_iters=25, init_samples=6, length_scale=1.2,
                 exploit_every=2)


def _bowl(params):
    x, y = params
    return (x - 1.0) ** 2 + (y + 2.0) ** 2


def test_latin_hypercube_stratifies_every_dimension():
    bounds = [(0.0, 10.0), (-5.0, 5.0)]
    for seed in range(5):
        pts = latin_hypercube(np.random.default_rng(seed), bounds, 16)
        assert pts.shape == (16, 2)
        for dim, (lo, hi) in enumerate(bounds):
            strata = np.floor((pts[:, dim] - lo) / (hi - lo) * 16).astype(int)
            assert sorted(strata) == list(range(16))  # one sample per stratum


def test_gp_interpolates_and_is_repeatable():
    X = np.linspace(0.0, 6.0, 7)[:, None]
    y = np.sin(X[:, 0])
    gp = GaussianProcess(length_scale=1.0).fit(X, y)
    mu, sigma = gp.predict(X)
    assert np.allclose(mu, y, atol=1e-3)
    mu_mid, sigma_mid = gp.predict([[0.5]])
    assert sigma_mid[0] > sigma.max()  # less certain between samples
    assert mu_mid[0] == pytest.approx(math.sin(0.5), abs=0.08)
    again = GaussianProcess(length_scale=1.0).fit(X, y).predict(X)
    assert np.array_equal(again[0], mu) and np.array_equal(again[1], sigma)


def test_gp_validation():
    with pytest.raises(WorkspaceError):
        GaussianProcess(length_scale=0.0)
    with pytest.raises(WorkspaceError):
        GaussianProcess(length_scale=1.0).predict([[0.0]])


def test_expected_improvement_collapses_without_uncertainty():
    mu = np.array([0.2, 1.0, 3.0])
    sigma = np.zeros(3)
    ei = expected_improvement(mu, sigma, best=1.0)
    assert ei.tolist() == [pytest.approx(0.8), 0.0, 0.0]
    # any uncertainty keeps a point alive even above the incumbent
    assert expected_improvement(np.array([2.0]), np.array([0.5]), best=1.0)[0] > 0


def test_bayesian_optimize_finds_a_quadratic_bowl():
    best, value, trace = bayesian_optimize(
        _bowl, [(-3.0, 3.0), (-3.0, 3.0)], np.random.default_rng(5), **BOWL_ARGS)
    assert value < 1e-2
    assert best[0] == pytest.approx(1.0, abs=0.1)
    assert best[1] == pytest.approx(-2.0, abs=0.1)
    assert trace.converged  # no success_cost given: finishing counts
    assert trace.best_objective == value and trace.best_params == best


def test_bayesian_optimize_is_deterministic():
    runs = [bayesian_optimize(_bowl, [(-3.0, 3.0), (-3.0, 3.0)],
                              np.random.default_rng(9), **BOWL_ARGS)[2]
            for _ in range(2)]
    assert runs[0].best_params == runs[1].best_params
    assert [i.params for i in runs[0].iterations] \
        == [i.params for i in runs[1].iterations]


def test_success_cost_stops_early():
    _, value, trace = bayesian_optimize(
        _bowl, [(-3.0, 3.0), (-3.0, 3.0)], np.random.default_rng(5),
        success_cost=0.5, **BOWL_ARGS)
    assert value <= 0.5
    assert trace.converged
    assert len(trace.iterations) < BOWL_ARGS["max_iters"]


def test_blank_batch_widens_the_box_once():
    # signal lives only outside the original box; the retry box reaches it
    def edge_objective(params):
        return 0.0 if abs(params[0]) > 1.5 else 100.0

    best, value, trace = bayesian_optimize(
        edge_objective, [(-1.0, 1.0)], np.random.default_rng(2),
        max_iters=20, init_samples=4, length_scale=0.5,
        no_signal_cost=100.0, success_cost=0.5)
    assert value == 0.0
    assert abs(best[0]) > 1.5


def test_two_blank_batches_raise_with_the_trace_attached():
    def dark(_params):
        return 100.0

    with pytest.raises(BeamLostError) as err:
        bayesian_optimize(dark, [(-1.0, 1.0)], np.random.default_rng(2),
                          max_iters=20, init_samples=4, length_scale=0.5,
                          no_signal_cost=100.0)
    assert len(err.value.trace.iterations) == 8  # both batches recorded


def test_widened_batch_stays_within_max_iters():
    calls = []

    def blank_then_lit(_params):
        calls.append(None)
        return 100.0 if len(calls) <= 3 else 1.0

    _, _, trace = bayesian_optimize(
        blank_then_lit, [(-1.0, 1.0), (-1.0, 1.0)], np.random.default_rng(0),
        max_iters=4, init_samples=3, no_signal_cost=100.0)
    assert len(trace.iterations) == 4  # one widened point, not three
    # no budget left to widen: a blank first batch raises at once
    with pytest.raises(BeamLostError) as err:
        bayesian_optimize(lambda _p: 100.0, [(-1.0, 1.0)],
                          np.random.default_rng(0), max_iters=3,
                          init_samples=3, no_signal_cost=100.0)
    assert len(err.value.trace.iterations) == 3


@pytest.mark.parametrize("kwargs", [
    dict(bounds=[(1.0, 1.0)]),
    dict(bounds=[(0.0, 1.0)], max_iters=0),
])
def test_bayesian_optimize_validates_inputs(kwargs):
    bounds = kwargs.pop("bounds")
    with pytest.raises(WorkspaceError):
        bayesian_optimize(_bowl, bounds, np.random.default_rng(0), **kwargs)


def test_pure_improvement_schedule_converges_with_more_budget():
    # without the posterior-mean hedge the EI schedule keeps probing the
    # box edges, so it needs a longer leash to polish the basin
    best, value, _ = bayesian_optimize(
        _bowl, [(-3.0, 3.0), (-3.0, 3.0)], np.random.default_rng(7),
        max_iters=35, init_samples=6, length_scale=1.2)
    assert value < 1e-2


def _gaussian_mixture(rng):
    amps = rng.uniform(-1.0, 1.0, 6)
    centers = rng.uniform(-3.0, 3.0, (6, 2))
    widths = rng.uniform(0.9, 2.4, 6)

    def fn(params):
        p = np.asarray(params, dtype=float)
        d2 = ((centers - p) ** 2).sum(axis=1)
        return float((amps * np.exp(-0.5 * d2 / widths ** 2)).sum())

    return fn


@pytest.mark.parametrize("seed", [0, 1])
def test_multimodal_objectives_land_near_the_grid_optimum(seed):
    fn = _gaussian_mixture(np.random.default_rng(100 + seed))
    axes = np.linspace(-3.0, 3.0, 81)
    grid = np.array([[fn((x, y)) for y in axes] for x in axes])
    _, value, _ = bayesian_optimize(
        fn, [(-3.0, 3.0), (-3.0, 3.0)], np.random.default_rng(seed),
        max_iters=30, init_samples=8, length_scale=1.2)
    assert value <= grid.min() + 0.10 * (grid.max() - grid.min())
