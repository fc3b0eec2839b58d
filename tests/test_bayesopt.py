import copy
import math

import numpy as np
import pytest
import scipy.special
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from hypothesis import given, settings, strategies as st

from cavforge import align
from cavforge.align import (_LHS_CANDIDATES, _MESH_PER_AXIS, GaussianProcess,
                            _model_vertex, _propose, _stencil,
                            bayesian_optimize, expected_improvement,
                            latin_hypercube)
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
        GaussianProcess(length_scale=1.0).predict([[0.0]], mean_only=True)
    gp = GaussianProcess(length_scale=1.0).fit([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ValueError):
        gp.predict([[math.nan]])
    with pytest.raises(ValueError):
        gp.predict([[0.5], [math.nan]], mean_only=True)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_gp_predict_rejects_an_infinite_row(bad):
    # an infinite row is as far from every point as a point can be, and
    # would otherwise read the prior mean and variance
    gp = GaussianProcess(length_scale=1.0).fit([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(ValueError):
        gp.predict([[0.5], [bad]])
    with pytest.raises(ValueError):
        gp.predict([[bad]], mean_only=True)


def _potrs_variance(X, y, Xs, length_scale, noise_scale=1e-4):
    """Reference posterior variance: the GP's covariance written out, and
    diag(Ks K^-1 Ks^T) from two triangular solves (LAPACK potrs)."""
    centered = y - y.mean()
    sf2 = float(centered.var()) or 1.0
    noise = (noise_scale * float(np.ptp(y))) ** 2 + 1e-10 * sf2
    K = sf2 * np.exp(-0.5 * cdist(X, X, "sqeuclidean") / length_scale ** 2) \
        + noise * np.eye(len(X))
    Ks = sf2 * np.exp(-0.5 * cdist(Xs, X, "sqeuclidean") / length_scale ** 2)
    solved = cho_solve(cho_factor(K, lower=True), Ks.T)
    return sf2 - np.einsum("ij,ji->i", Ks, solved), sf2


@pytest.mark.parametrize("seed", range(60))
def test_gp_variance_matches_two_triangular_solves(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(1, 5))
    n = int(rng.integers(2, 61))
    X = rng.uniform(-3.0, 3.0, (n, d))
    if seed % 3 == 0:  # near-duplicate observations: K is nearly singular
        k = int(rng.integers(1, n + 1))
        X[rng.integers(0, n, k)] = X[rng.integers(0, n, k)] \
            + rng.normal(0.0, 1e-9, (k, d))
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    length_scale = float(10.0 ** rng.uniform(-0.5, 0.7))
    Xs = np.vstack([rng.uniform(-3.5, 3.5, (200, d)),
                    X + rng.normal(0.0, 1e-7, X.shape)])
    gp = GaussianProcess(length_scale).fit(X, y)
    mu, sigma = gp.predict(Xs)
    reference, sf2 = _potrs_variance(X, y, Xs, length_scale)
    np.testing.assert_allclose(sigma ** 2, np.clip(reference, 1e-18, None),
                               rtol=0.0, atol=1e-10 * sf2)
    np.testing.assert_array_equal(gp.predict(Xs, mean_only=True), mu)


def _observations(seed, d, slope=False):
    """Random probes of a bowl, a bump or a sine, or of a slope whose
    minimum lies on a corner of the box."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, (6 + 3 * d, d))
    if slope:
        y = X.sum(axis=1)
    else:
        y = np.array([_bump(x) if d == 4 else _bowl(x[:2]) if d == 2 else
                      math.sin(2.0 * x[0]) for x in X])
    return [x for x in X], list(y)


def _acquisition(gp, points, best, exploit):
    mu, sigma = gp.predict(points)
    return mu if exploit else -expected_improvement(mu, sigma, best)


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("exploit", [False, True], ids=["ei", "mean"])
@pytest.mark.parametrize("slope", [False, True], ids=["inner", "corner"])
@pytest.mark.parametrize("seed", range(3))
def test_stencil_step_improves_on_the_candidate_pick(d, exploit, slope, seed):
    bounds = np.array([(-3.0, 3.0)] * d)
    X, y = _observations(seed, d, slope)
    rng = np.random.default_rng(seed)
    twin = copy.deepcopy(rng)  # replays the Latin-hypercube candidates
    pick = _propose(rng, bounds, X, y, 1.2, 1e-4, exploit=exploit)
    assert np.all(pick >= bounds[:, 0]) and np.all(pick <= bounds[:, 1])
    assert cdist(pick[None, :], np.vstack(X)).min() > 1e-6  # no fallback here
    if d <= 2:
        axes = [np.linspace(-3.0, 3.0, _MESH_PER_AXIS)] * d
        cands = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    else:
        cands = latin_hypercube(twin, bounds, _LHS_CANDIDATES)
    gp = GaussianProcess(1.2, 1e-4).fit(np.vstack(X), np.asarray(y))
    best = min(y)
    picked = _acquisition(gp, pick[None, :], best, exploit)[0]
    assert picked <= _acquisition(gp, cands, best, exploit).min()


@pytest.mark.parametrize("d", [1, 2])
def test_proposals_draw_nothing_up_to_two_dimensions(d):
    bounds = [(-3.0, 3.0)] * d
    for seed in range(4):
        X, y = _observations(seed, d)
        for exploit in (False, True):
            rng = np.random.default_rng(seed)
            state = copy.deepcopy(rng.bit_generator.state)
            _propose(rng, bounds, X, y, 1.2, 1e-4, exploit=exploit)
            assert rng.bit_generator.state == state
    # only the space-filling fallback draws: nothing to model yet
    rng = np.random.default_rng(0)
    state = copy.deepcopy(rng.bit_generator.state)
    _propose(rng, bounds, X, [1.0] * len(X), 1.2, 1e-4)
    assert rng.bit_generator.state != state


# (2, 9) pins the 9 x 9 grid that steps 6 and 9, and the retro secant's GP
# fallback, search on
@pytest.mark.parametrize("d, k", [(1, 81), (2, 9), (3, 4), (4, 3)])
def test_stencil_is_the_largest_grid_within_81_rows(d, k):
    assert k ** d <= 81 < (k + 1) ** d
    unit = _stencil(d)
    axis = np.linspace(-1.0, 1.0, k)
    grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1)
    assert np.array_equal(unit, grid.reshape(-1, d))
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0, 0] = 0.5
    assert _stencil(d) is unit


@pytest.mark.parametrize("d, candidates, stencil", [
    (2, 64 ** 2, 9 ** 2),   # the mesh, then 9 x 9 stencils
    (4, 4096, 3 ** 4),      # Latin-hypercube candidates, then 3^4 stencils
], ids=["2d", "4d"])
def test_every_proposal_scores_its_full_candidate_and_stencil_rows(
        monkeypatch, d, candidates, stencil):
    calls = []
    predict = GaussianProcess.predict

    def counted(self, Xs, *args, **kwargs):
        calls.append(len(Xs))
        return predict(self, Xs, *args, **kwargs)

    monkeypatch.setattr(GaussianProcess, "predict", counted)
    objective = _bowl if d == 2 else _bump
    _, _, trace = bayesian_optimize(
        objective, [(-3.0, 3.0)] * d, np.random.default_rng(4),
        max_iters=14, init_samples=6, length_scale=1.2, exploit_every=2)
    proposals = len(trace.iterations) - 6
    assert proposals == 8  # four expected-improvement, four posterior-mean
    # the candidates, then eight stencil rounds
    assert calls == ([candidates] + [stencil] * 8) * proposals


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
    ((1.0029761904761905, -1.5342261904761907), 0.21695409934807236),
    ((1.3660714285714282, -1.824404761904762), 0.16484197845804952),
    ((0.4895833333333332, -2.761904761904762), 0.841024039824263),
    ((0.8348214285714284, -2.046130952380952), 0.029412025226757406),
    ((-2.171875, -3.0), 11.060791015625),
    ((0.9851190476190476, -1.9538690476190477), 0.002349507511337865),
    ((3.0, 3.0), 29.0),
    ((0.9910714285714286, -1.9791666666666667), 0.0005137471655328762),
    ((-3.0, -0.9196428571428575), 17.167171556122447),
    ((1.0119047619047619, -2.0029761904761902), 0.0001505810657596348),
    ((-0.2633928571428572, -0.2976190476190477), 4.49426241850907),
    ((1.0089285714285714, -2.0), 7.971938775510148e-05),
    ((3.0, -3.0), 5.0),
    ((1.0104166666666667, -2.0), 0.00010850694444444598),
    ((0.26116071428571436, 3.0), 25.545883490114797),
    ((1.0104166666666665, -1.9970238095238095), 0.00011736465419500819),
    ((3.0, -1.7931547619047619), 4.042784952522676),
    ((2.807286948335138, 1.174870966314244), 13.346091766367678),
    ((1.3749999999999996, -3.0), 1.1406249999999996),
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
    ((0.6780280473088762, -1.2899953251975929,
      -1.287947725739516, 2.4375),
     -0.4938720335757655),
    ((0.5444237407820891, -0.9931884080496474,
      -0.5508148434511799, 2.5245110940006894),
     -0.7441717080629745),
    ((0.44636773738413016, -0.7697329121800633,
      0.045039223322585364, 2.625),
     -0.8324854647060826),
    ((-0.20093220512530685, -0.9719362262781424,
      0.07094980144594887, 3.0),
     -0.6206627761497541),
    ((1.2096317676655968, -0.684695090162383,
      0.23942598646831348, 2.6259804212152638),
     -0.8034048586560925),
    ((0.6009317168370445, -0.5205497935926777,
      0.0999146253582297, 1.9715407908784908),
     -0.9067000032677094),
    ((0.5798760165860553, 0.09255344615663352,
      -0.3059041057091325, 2.3509598648528236),
     -0.6217774244563932),
    ((0.6212193954479881, -1.1683374254105179,
      0.39748775568119044, 1.8899869711576232),
     -0.9975623183203174),
    ((0.13022461586538991, -1.2992271319646247,
      0.1280677700786459, 1.4124269040115767),
     -0.8605147978415236),
    ((0.8286762180291483, -1.7140642049726291,
      1.9684447457932155, 2.7787182509215844),
     -0.4467604699787432),
    ((1.0744026536013616, -1.3384332101045822,
      0.0894043451749944, 1.5610638130867214),
     -0.9132459649823038),
    ((3.0, -3.0,
      -3.0, -3.0),
     -5.1074652437767155e-05),
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


def _predict_as_expressions(gp, Xs):
    # the posterior as formed before predict reused its work arrays
    Ks = cdist(Xs, gp._X, metric="sqeuclidean")
    Ks *= -0.5
    Ks /= gp.length_scale ** 2
    np.exp(Ks, out=Ks)
    Ks *= gp._sf2
    mu = gp._mean + Ks @ gp._alpha
    W = Ks @ gp._inv_factor_t
    var = gp._sf2 - np.einsum("ij,ij->i", W, W)
    return mu, np.sqrt(np.clip(var, 1e-18, None))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_predict_reuses_its_work_arrays_but_never_its_results(d):
    X, y = _observations(d, d)
    gp = GaussianProcess(1.2, 1e-4).fit(np.vstack(X), np.asarray(y))
    rng = np.random.default_rng(d)
    # a large batch, two of equal size that reuse its rows, a larger one
    batches = [rng.uniform(-4.0, 4.0, (m, d)) for m in (300, 40, 40, 500)]
    results = []
    for Xs in batches:
        mu, sigma = gp.predict(Xs)
        want = _predict_as_expressions(gp, Xs)
        assert repr(mu.tolist()) == repr(want[0].tolist())
        assert repr(sigma.tolist()) == repr(want[1].tolist())
        assert repr(gp.predict(Xs, mean_only=True).tolist()) == repr(mu.tolist())
        results.append((mu, sigma, mu.copy(), sigma.copy()))
    arrays = [a for mu, sigma, _, _ in results for a in (mu, sigma)]
    for i, a in enumerate(arrays):
        assert all(not np.shares_memory(a, b) for b in arrays[i + 1:])
    for mu, sigma, mu_then, sigma_then in results:
        np.testing.assert_array_equal(mu, mu_then)
        np.testing.assert_array_equal(sigma, sigma_then)


def _ei_as_expressions(mu, sigma, best):
    # expected improvement as one masked expression, before it worked in place
    improve = best - mu
    z = np.divide(improve, sigma, out=np.zeros_like(mu), where=sigma > 0)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    ei = improve * scipy.special.ndtr(z) + sigma * pdf
    return np.where(sigma > 0, ei, np.maximum(improve, 0.0))


@pytest.mark.parametrize("zeros", [False, True], ids=["uncertain", "zero-sigma"])
def test_expected_improvement_is_the_masked_expression(zeros):
    rng = np.random.default_rng(3)
    mu = rng.normal(0.0, 2.0, 500)
    sigma = rng.uniform(0.0, 1.5, 500) ** 3
    if zeros:
        sigma[::3] = 0.0
    for best in (-1.0, 0.0, 0.7):
        mu_in, sigma_in = mu.copy(), sigma.copy()
        got = expected_improvement(mu_in, sigma_in, best)
        assert repr(got.tolist()) == repr(_ei_as_expressions(mu, sigma, best).tolist())
        # the inputs are read, never written
        np.testing.assert_array_equal(mu_in, mu)
        np.testing.assert_array_equal(sigma_in, sigma)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_latin_hypercube_is_the_column_stack_form(d):
    rng = np.random.default_rng(10 + d)
    bounds = np.array([(-3.0 - k, 2.0 + 0.5 * k) for k in range(d)])
    for n in (1, 7, 1024):
        twin = copy.deepcopy(rng)
        strata = np.column_stack([twin.permutation(n) for _ in range(d)])
        u = (strata + twin.uniform(0.0, 1.0, size=(n, d))) / n
        want = bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])
        got = latin_hypercube(rng, bounds, n)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert rng.bit_generator.state == twin.bit_generator.state


# A negated intensity that falls with a weighted sum of squared offsets, the
# shape the model step assumes: -200 at the centre and within a tenth of that
# everywhere in the [-3, 3]^4 box, so every evaluation is bright. It is
# centred where the 4-D bump is.
_WELL_BOX = [(-3.0, 3.0)] * 4


def _well(curvature, center=_BUMP_CENTER):
    def cost(params):
        return -200.0 + sum(a * (p - c) ** 2
                            for a, p, c in zip(curvature, params, center))
    return cost


def _histories(objective, seed, **kwargs):
    """The evaluations of runs with the model step on and off."""
    runs = [bayesian_optimize(objective, _WELL_BOX, np.random.default_rng(seed),
                              length_scale=1.5, model_step=on, **kwargs)[2]
            for on in (True, False)]
    return runs, [[(it.params, it.objective) for it in run.iterations]
                  for run in runs]


def test_the_first_model_step_lands_on_a_separable_minimum():
    (on, off), _ = _histories(_well((1.0, 2.0, 0.5, 3.0)), 3,
                              max_iters=11, init_samples=10)
    # ten bright points fit the nine coefficients, so the eleventh
    # evaluation is the vertex
    assert on.meta["model_steps"] == 1
    np.testing.assert_allclose(on.iterations[10].params, _BUMP_CENTER, rtol=0.0,
                               atol=1e-6)
    assert on.best_objective == pytest.approx(-200.0, abs=1e-9)
    assert off.best_objective > -199.0
    assert "model_steps" not in off.meta


def test_a_model_step_before_any_gp_fit_loads_scipy_itself(monkeypatch):
    # as in a fresh process: the first step's duplicate check needs cdist
    for name in ("cho_factor", "get_lapack_funcs", "cdist", "ndtr"):
        monkeypatch.setattr(align, name, None)
    _, _, trace = bayesian_optimize(
        _well((1.0, 2.0, 0.5, 3.0)), _WELL_BOX, np.random.default_rng(3),
        max_iters=11, init_samples=10, length_scale=1.5, model_step=True)
    assert trace.meta["model_steps"] == 1


def test_a_non_positive_curvature_leaves_every_proposal_to_the_gp():
    (on, _), (with_step, without) = _histories(
        _well((1.0, 2.0, -0.5, 3.0)), 3, max_iters=16, init_samples=10)
    assert on.meta["model_steps"] == 0
    assert with_step == without


def test_fewer_than_ten_bright_points_take_no_step():
    (on, _), (with_step, without) = _histories(
        _well((1.0, 2.0, 0.5, 3.0)), 3, max_iters=10, init_samples=9)
    assert on.meta["model_steps"] == 0
    assert with_step == without
    # the helper itself: nine bright points and a dim tenth, then ten
    b = np.array(_WELL_BOX)
    X = list(latin_hypercube(np.random.default_rng(0), b, 10))
    y = [_well((1.0, 2.0, 0.5, 3.0))(x) for x in X]
    assert _model_vertex(b, X, y[:9] + [-1.0], 0) == (None, 0)
    vertex, tried = _model_vertex(b, X, y, 0)
    assert tried == 10
    np.testing.assert_allclose(vertex, _BUMP_CENTER, rtol=0.0, atol=1e-6)
    # the same ten bright points again: the count has not grown
    assert _model_vertex(b, X, y, 10) == (None, 10)


def test_a_vertex_on_an_observed_point_falls_back_to_the_gp(monkeypatch):
    # the minimum lies outside the box, so every fit's clipped vertex is the
    # same corner: the first step probes it, the later fits find it observed
    proposed = []
    propose = align._propose

    def spy(*args, **kwargs):
        proposed.append(propose(*args, **kwargs))
        return proposed[-1]

    monkeypatch.setattr(align, "_propose", spy)
    _, _, trace = bayesian_optimize(
        _well((0.1, 0.1, 0.1, 0.1), center=(5.0, -5.0, 5.0, -5.0)), _WELL_BOX,
        np.random.default_rng(3), max_iters=13, init_samples=10,
        length_scale=1.5, model_step=True)
    assert trace.meta["model_steps"] == 1
    assert trace.iterations[10].params == (3.0, -3.0, 3.0, -3.0)
    assert len(proposed) == 2
    assert [it.params for it in trace.iterations[11:]] \
        == [tuple(p) for p in proposed]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       center=st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4),
       curvature=st.lists(st.floats(-1.0, 3.0), min_size=4, max_size=4),
       shift=st.floats(-2.0, 2.0), max_iters=st.integers(1, 16))
def test_model_steps_stay_inside_the_box_and_the_budget(seed, center, curvature,
                                                        shift, max_iters):
    bounds = [(-3.0 + shift, 1.0 + shift), (-1.0, 3.0), (0.0, 0.5), (-4.0, 4.0)]
    _, _, trace = bayesian_optimize(
        _well(curvature, center), bounds, np.random.default_rng(seed),
        max_iters=max_iters, init_samples=10, length_scale=1.5, model_step=True)
    assert len(trace) <= max_iters
    assert trace.meta["model_steps"] <= max(0, len(trace) - 10)
    lo, hi = np.array(bounds).T
    for it in trace.iterations:
        assert np.all(np.asarray(it.params) >= lo) and np.all(np.asarray(it.params) <= hi)
