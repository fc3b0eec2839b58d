import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from cavforge.align import (GaussianProcess, _expected_improvement_one,
                            _nelder_mead, bayesian_optimize,
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
    with pytest.raises(WorkspaceError):
        GaussianProcess(length_scale=1.0).predict_one(np.zeros(1))


def _bits(value):
    return float(value).hex()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), d=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       repeats=st.integers(0, 10), flat=st.booleans(),
       length_scale=st.floats(0.05, 20.0), reach=st.sampled_from([0.5, 1.0, 3.0, 1e3]))
def test_one_point_posterior_and_ei_match_the_vector_path_bit_for_bit(
        n, d, seed, repeats, flat, length_scale, reach):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (n, d))
    X[rng.integers(0, n, repeats)] = X[0]  # repeated rows
    y = np.full(n, 0.5) if flat else rng.normal(0.0, 2.0, n)
    gp = GaussianProcess(length_scale).fit(X, y)
    # points inside the box and, for reach > 1, outside it
    for x in rng.uniform(-3.0 * reach, 3.0 * reach, (8, d)):
        mu_v, sigma_v = gp.predict(x[None, :])
        mu, sigma = gp.predict_one(x)
        assert (_bits(mu), _bits(sigma)) == (_bits(mu_v[0]), _bits(sigma_v[0]))
        # incumbents from 4 sigma below the mean to 4 sigma above it
        for best in mu + sigma * rng.uniform(-4.0, 4.0, 32):
            assert _bits(_expected_improvement_one(mu, sigma, best)) \
                == _bits(expected_improvement(mu_v, sigma_v, best)[0])
    x[0] = math.nan
    with pytest.raises(ValueError):
        gp.predict_one(x)
    with pytest.raises(ValueError):
        gp.predict(x[None, :])


def _quadratic(rng, d):
    center = rng.uniform(-2.0, 2.0, d)
    A = rng.normal(0.0, 1.0, (d, d))
    H = A @ A.T + 0.1 * np.eye(d)

    def fn(x):
        r = x - center
        return float(r @ H @ r)

    return fn


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       rounded=st.booleans(), zeros=st.lists(st.booleans(), min_size=4, max_size=4),
       budget=st.sampled_from(["5", "40d", "80d"]))
def test_nelder_mead_matches_scipy_bit_for_bit(d, seed, rounded, zeros, budget):
    rng = np.random.default_rng(seed)
    quadratic = _quadratic(rng, d)
    # rounding gives plateaus, so ties in the simplex ordering
    fn = (lambda x: round(quadratic(x), 1)) if rounded else quadratic
    x0 = rng.uniform(-3.0, 3.0, d)
    x0[np.array(zeros[:d])] = 0.0  # zero coordinates take the 0.00025 step
    maxfev = {"5": 5, "40d": 40 * d, "80d": 80 * d}[budget]
    ref = minimize(fn, x0, method="Nelder-Mead",
                   options={"xatol": 1e-3, "fatol": 1e-12, "maxfev": maxfev})
    x, fun = _nelder_mead(fn, x0, xatol=1e-3, fatol=1e-12, maxfev=maxfev)
    assert x.tobytes() == ref.x.tobytes()
    assert _bits(fun) == _bits(ref.fun)


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


# Every evaluation of two runs, as exact floats: the 2-D bowl with the
# posterior-mean hedge (mesh candidates, both proposal kinds) and a 4-D
# Gaussian well (Latin-hypercube candidates). A last-bit change anywhere on
# the proposal path changes these.
_BOWL_HISTORY = (
    ((-1.9547248060975548, 1.048757710727168), 18.025322258486593),
    ((1.9991761150650715, -2.347630888412012), 1.119200143494654),
    ((-0.7654897983301758, -1.565052447774858), 3.3061336011945675),
    ((0.9741861932592553, 0.8976776081085487), 8.39720187315213),
    ((2.8442310376087407, -0.6075953356652217), 5.339978869340659),
    ((-2.5069769812682576, 2.676689351831066), 34.1703108406755),
    ((1.003540547562065, -1.5333827667291482), 0.2177441778623838),
    ((1.3649740907437005, -1.8235187569370859), 0.16435171606722226),
    ((0.48857030912804167, -2.7622447075852925), 0.8425773229471749),
    ((0.8350282989223816, -2.045521010702881), 0.029287824571854897),
    ((-2.172568278281622, -3.0), 11.065189480358814),
    ((0.9852894222581113, -1.9539402838251714), 0.0023378985516059195),
    ((3.0, 3.0), 29.0),
    ((0.9913535404019251, -1.979732628066188), 0.00048552762868461156),
    ((-3.0, -0.920001937011046), 17.166395816059893),
    ((1.011178013534484, -2.0039426439773096), 0.00014049242810892552),
    ((-0.2632864531551274, -0.29805972964717264), 4.492493346573917),
    ((1.0078161269199746, -1.999285763990207), 6.160197310683615e-05),
    ((3.0, -3.0), 5.0),
    ((1.010349693395448, -2.0004289870373415), 0.00010730018325798471),
    ((0.26124596521629523, 3.0), 25.545757523909202),
    ((1.0108029804633454, -1.9976055803725195), 0.00012243763224388602),
    ((3.0, -1.79287492589288), 4.04290079632388),
    ((1.01044607964054, -1.99781525494732), 0.00011389369080171168),
    ((1.3812647621908183, -3.0), 1.1453628188884213),
)
_BUMP_HISTORY = (
    ((-0.014314770527021015, -1.3466179040024662,
      2.6652977721489206, -0.3872814773074591),
     -0.08805059606677197),
    ((-1.985043858704664, 1.1936964779617831,
      -1.3235240762493148, -2.3983479871661375),
     -0.0005329545649569321),
    ((2.9005001638818113, -2.9034302465791115,
      1.8503049050537035, 0.2078586694002782),
     -0.054885367577369476),
    ((0.8123377483014318, -1.5780417688122244,
      -1.9275384809641234, 2.3607684749715707),
     -0.27126977263069446),
    ((0.5050217679569333, 1.6516620208410284,
      1.4260733090161324, 0.9128611930638959),
     -0.11747379798695287),
    ((-1.4751939844669284, -0.5994232843790854,
      -0.49068909468327027, -1.1483188774331365),
     -0.03514193215041517),
    ((-2.3203992458283293, 0.523020816552223,
      -2.745509504443166, -2.2373420886768765),
     -0.00018131090671052617),
    ((1.619867770578736, 2.997326906654753,
      0.34478698491988835, 2.01827993723907),
     -0.019791408311874634),
    ((0.7139084433436895, -1.292897137517078,
      -1.2830500218898728, 2.4743347969870015),
     -0.49110689629769905),
    ((0.6006956323399093, -0.9838308346165252,
      -0.5678352445191757, 2.6150734547470353),
     -0.7211010911257251),
    ((0.5001870863485725, -0.7898502632148735,
      -0.03063305329945342, 2.78374958138632),
     -0.7826912830119834),
    ((1.2786850844459408, -0.8637872789838983,
      0.06339034117518355, 3.0),
     -0.6832570002871916),
    ((0.18437049051433055, -1.5822077345289967,
      0.18793965735351043, 2.8557686841997096),
     -0.723433254767299),
    ((0.48232354394948157, -0.9691766418766414,
      0.22694897383016255, 2.0425034161795654),
     -0.9748220168018201),
    ((0.8662096851452661, -1.0176330221521726,
      0.2182149782418209, 1.4471922403638704),
     -0.9412434341992333),
    ((-0.0641813085343703, -0.9926408772557624,
      0.1816452649947931, 1.5218002622074858),
     -0.8396971611753185),
    ((0.7783246977130818, -1.1817312645905387,
      0.7818591940611197, 1.9141946163175345),
     -0.9653194915277853),
    ((-3.0, 3.0, -3.0, 3.0), -6.668333038416855e-05),
    ((0.8410510121564457, -0.6819648058407848,
      0.4891810747448592, 1.8706454376049086),
     -0.9557927575610957),
    ((3.0, -3.0, -3.0, -3.0), -5.1074652437767155e-05),
)

_BUMP_CENTER = (0.7, -1.1, 0.4, 1.9)


def _bump(params):
    d2 = sum((p - c) ** 2 for p, c in zip(params, _BUMP_CENTER))
    return -math.exp(-0.5 * d2 / 1.5 ** 2)


@pytest.mark.parametrize("objective, bounds, seed, kwargs, history", [
    (_bowl, [(-3.0, 3.0)] * 2, 5, BOWL_ARGS, _BOWL_HISTORY),
    (_bump, [(-3.0, 3.0)] * 4, 11,
     dict(max_iters=20, init_samples=8, length_scale=1.5), _BUMP_HISTORY),
], ids=["bowl-2d", "bump-4d"])
def test_bayesian_optimize_replays_its_frozen_history(objective, bounds, seed,
                                                      kwargs, history):
    _, _, trace = bayesian_optimize(objective, bounds,
                                    np.random.default_rng(seed), **kwargs)
    assert [(it.params, it.objective) for it in trace.iterations] \
        == list(history)
