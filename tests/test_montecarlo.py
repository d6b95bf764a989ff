import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import binom, gaussian_kde, norm

from dibkit import streams
from dibkit.estimators import (
    AdaptiveMmse,
    Mle,
    Pooled,
    StudentTPriorBayes,
    TestThenPool as TtPool,
    config_from_id,
)
from dibkit.estimators import SensitivityMmse
from dibkit.montecarlo import (
    _EXACT_FLOOR,
    EmpiricalDist,
    SimPlan,
    _exact_bootstrap_ci,
    _kept_counts,
    _log_pmf_ratio,
    _resampled_estimate,
    bootstrap_ci,
    ks_distance,
    simulate,
)
from dibkit.risk import mse_numeric
from dibkit.streams import addressed_normals, addressed_uniforms
from dibkit.summaries import BinomialRaw, TwoSampleSummary


def test_addressed_draws_are_offset_consistent():
    # pieces of 3000 start on whole counter steps; the odd-sized pieces after
    # them start at every remainder mod 4, inside a counter step
    full = addressed_uniforms(99, 0, 0, 20_000)
    part = np.concatenate(
        [addressed_uniforms(99, 0, s, min(3000, 20_000 - s)) for s in range(0, 20_000, 3000)]
    )
    np.testing.assert_array_equal(full, part)
    edges = np.cumsum([0, 1, 2, 3, 5, 4093, 4095, 1, 1, 7])
    odd = np.concatenate([addressed_uniforms(99, 0, a, b - a) for a, b in zip(edges[:-1], edges[1:])])
    np.testing.assert_array_equal(full[: edges[-1]], odd)
    assert {int(a) % 4 for a in edges[:-1]} == {0, 1, 2, 3}
    assert np.all((full > 0) & (full < 1))
    normals = addressed_normals(99, 0, 0, 100_000)
    assert abs(normals.mean()) < 0.02 and abs(normals.std() - 1) < 0.01


@pytest.mark.parametrize("seed, stream", [(99, 0), (20240, 3), (2**70, 1)])
@pytest.mark.parametrize("start, count", [(0, 9), (1, 6), (2, 1), (3, 12), (8189, 7), (8190, 5), (12_345, 3)])
def test_addressed_uniforms_match_a_direct_philox_draw(seed, stream, start, count):
    # position i of stream k is draw i of one Philox generator keyed (seed, (k, 0)),
    # across position 8192 too
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream, 0))))
    expected = gen.random(start + count)[start:]
    np.testing.assert_array_equal(addressed_uniforms(seed, stream, start, count), expected)


@pytest.mark.parametrize("start, count", [(-1, 4), (0, -1)])
def test_addressed_uniforms_reject_a_negative_position(start, count):
    with pytest.raises(ValueError, match="start and count must be non-negative"):
        addressed_uniforms(99, 0, start, count)


def make_plan(**kw):
    base = dict(
        n=1000,
        m=100_000,
        theta=0.0,
        delta=0.05,
        replicates=20_000,
        seed=314,
        estimators=(Mle(), Pooled(), TtPool(), AdaptiveMmse(), StudentTPriorBayes()),
    )
    base.update(kw)
    return SimPlan(**base)


@pytest.mark.parametrize(
    "kw, message",
    [({"replicates": 0}, "replicates"), ({"n": 0}, "sample sizes"), ({"m": 0}, "sample sizes")],
    ids=["replicates", "n", "m"],
)
def test_sim_plan_rejects_an_empty_run(kw, message):
    with pytest.raises(ValueError, match=message):
        make_plan(**kw)


def test_simulate_deterministic_across_workers():
    # 150,000 replicates span three fixed blocks of 65,536
    base = simulate(make_plan(replicates=150_000))
    for workers in (1, 3, 8):
        other = simulate(make_plan(replicates=150_000), workers=workers)
        for key in base:
            np.testing.assert_array_equal(base[key].draws, other[key].draws)


def test_mle_draws_standard_normal_scale():
    dists = simulate(make_plan(delta=0.0, replicates=50_000))
    var = dists["mle"].variance
    se = math.sqrt(2.0 / (50_000 - 1))
    assert abs(var - 1.0) < 3 * se
    assert dists["mle"].n_failed == 0


def test_ttpool_pooling_fraction_at_zero_conflict():
    dists = simulate(make_plan(delta=0.0, replicates=50_000))
    frac_reject = float(np.mean(np.isin(dists["ttpool"].draws, dists["mle"].draws)))
    # chi^2_1 mass above 3.84 is 5%; match within 3 binomial SEs
    se = math.sqrt(0.05 * 0.95 / 50_000)
    assert frac_reject == pytest.approx(0.05, abs=3 * se)


def test_coupled_draws_share_mean_pairs():
    dists = simulate(make_plan(replicates=5000))
    # pooled = p * mle-draw + const(delta_hat): exact linear identity per replicate
    # holds only with shared pairs; check via the test-then-pool branch match
    shared = np.isin(dists["ttpool"].draws, dists["pooled"].draws) | np.isin(
        dists["ttpool"].draws, dists["mle"].draws
    )
    assert np.all(shared)


def test_mc_mse_matches_quadrature():
    from dibkit.risk import mse_numeric

    plan = make_plan(delta=0.05, replicates=40_000,
                     estimators=(Mle(), Pooled(), AdaptiveMmse()))
    dists = simulate(plan)
    for cfg in plan.estimators:
        from dibkit.estimators import estimator_id

        draws_sq = dists[estimator_id(cfg)].draws ** 2
        mc_mse = float(np.mean(draws_sq)) / plan.n
        se = float(np.std(draws_sq, ddof=1)) / math.sqrt(draws_sq.size) / plan.n
        quad = mse_numeric(cfg, plan.theta, plan.delta, plan.n, plan.m)
        assert abs(mc_mse - quad) <= 3 * se


def _scaled_error_moments(q, delta, n, m):
    """Mean and n * MSE of sqrt(n) * (theta_hat + q(delta_hat) - theta) by 1-D quadrature.

    delta_hat ~ N(delta, 1/n + 1/m), and given delta_hat the error
    theta_hat - theta is normal with mean -(1/n)/(1/n + 1/m) * (delta_hat - delta)
    and variance 1/(n + m).  Integrates over the standardized delta_hat.
    """
    sd_t = math.sqrt(1.0 / n + 1.0 / m)
    cond_var = n / (n + m)

    def cond_mean(z):
        return math.sqrt(n) * (-z / (n * sd_t) + q(delta + sd_t * z))

    def expect(f):
        return integrate.quad(lambda z: f(z) * norm.pdf(z), -np.inf, np.inf,
                              epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    return expect(cond_mean), expect(lambda z: cond_mean(z) ** 2 + cond_var)


def test_ammse_heavy_shape_at_moderate_conflict():
    # At sqrt(n)*delta = 5.06 the adaptive weight fires on only part of the
    # draws, so the ammse error law is shifted by about 0.20 and 7.75% wider
    # than the MLE's standard normal, yet nearly normal in shape (skewness
    # 0.04, excess kurtosis 0.03).  The strongly non-normal laws sit closer to
    # no conflict: excess kurtosis 2.67 at 0, skewness -0.51 at 1.58.
    snd = 5.06
    plan = make_plan(delta=snd / math.sqrt(1000), replicates=50_000,
                     estimators=(Mle(), AdaptiveMmse()))
    n, m, delta = plan.n, plan.m, plan.delta

    mle_mean, mle_msq = _scaled_error_moments(lambda t: 0.0, delta, n, m)
    assert mle_mean == pytest.approx(0.0, abs=1e-12)
    assert mle_msq == pytest.approx(1.0, abs=1e-12)
    bias, msq = _scaled_error_moments(lambda t: m * t / (n + m + n * m * t * t), delta, n, m)
    assert msq == pytest.approx(n * mse_numeric(AdaptiveMmse(), 0.0, delta, n, m), rel=1e-6)
    exact_ratio = msq - bias**2  # the MLE's variance is exactly 1
    assert exact_ratio == pytest.approx(1.0775, abs=1e-4)

    dists = simulate(plan)
    ammse = dists["ammse"]
    # the coupled ratio's seed-to-seed sd is about 0.00028 at this plan
    ratio_tol = 0.003
    ratio = ammse.variance / dists["mle"].variance
    assert ratio == pytest.approx(exact_ratio, abs=ratio_tol)
    assert ratio - 1.0 > 10 * ratio_tol
    assert ammse.mean == pytest.approx(bias, abs=4 * math.sqrt(ammse.variance / plan.replicates))


def test_empirical_dist_summaries():
    dist = EmpiricalDist.from_draws(np.array([3.0, 1.0, 2.0]))
    assert list(dist.draws) == [1.0, 2.0, 3.0]
    assert dist.mean == pytest.approx(2.0)
    assert dist.quantiles[0.5] == pytest.approx(2.0)
    grid, logd = dist.log_density(points=64)
    assert grid.shape == logd.shape == (64,)
    assert np.all(np.isfinite(logd[np.isfinite(logd)]))


@pytest.fixture(scope="module")
def kde_samples():
    """Heavy-tailed alasso and hdpp errors at no conflict, and a Gaussian sample."""
    plan = make_plan(delta=0.0, replicates=50_000, seed=2718,
                     estimators=(config_from_id("alasso"), config_from_id("hdpp")))
    dists = simulate(plan)
    dists["gaussian"] = EmpiricalDist.from_draws(addressed_normals(2718, 3, 0, 50_000))
    return dists


@pytest.mark.parametrize("name", ["alasso", "hdpp", "gaussian"])
def test_log_density_matches_gaussian_kde(kde_samples, name):
    # Binning moves each draw by at most 1/32 of an output interval, about
    # h/16 for the heaviest-tailed curves here.  The largest error seen over
    # the 160 default `densities` curves of four seeds is 1.9e-4, so 1e-3
    # leaves a fivefold margin.
    dist = kde_samples[name]
    oracle = gaussian_kde(dist.draws, bw_method="silverman")
    default_grid, default_logd = dist.log_density()
    lo, med, hi = default_grid[0], dist.quantiles[0.5], default_grid[-1]
    u = np.sinh(np.linspace(-4.0, 4.0, 97)) / math.sinh(4.0)
    uneven = med + np.where(u < 0, med - lo, hi - med) * u  # dense at the median
    for grid, logd in ((default_grid, default_logd), dist.log_density(uneven)):
        with np.errstate(divide="ignore"):
            ref = np.log(oracle(grid))
        assert not np.any(np.isnan(logd))
        assert not np.any(np.isfinite(ref) & ~np.isfinite(logd))
        body = ref >= ref.max() + math.log(1e-3)
        assert np.max(np.abs(logd[body] - ref[body])) <= 1e-3
    pad = 0.05 * (dist.draws[-1] - dist.draws[0] + 1e-12)
    expected_grid = np.linspace(dist.draws[0] - pad, dist.draws[-1] + pad, 256)
    np.testing.assert_array_equal(default_grid, expected_grid)
    dens = np.exp(default_logd)  # trapezoid rule by hand: np.trapezoid needs numpy >= 2.0
    mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(default_grid)))
    assert mass == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("draws", [[2.5] * 10, [1.0]])
def test_log_density_rejects_zero_spread(draws):
    with pytest.raises(ValueError, match="nonzero spread"):
        EmpiricalDist.from_draws(np.array(draws)).log_density()


def test_ks_distance_examples():
    x = addressed_normals(1, 0, 0, 1_000_000)
    y = addressed_normals(2, 0, 0, 1_000_000)
    assert ks_distance(x, x.copy()) == 0.0
    assert ks_distance(x, y) < 0.005
    assert ks_distance(x, y + 5.0) > 0.9
    with pytest.raises(ValueError):
        ks_distance(x, np.array([]))


PRAMS_CUR = BinomialRaw(37, 94)
PRAMS_EXT = BinomialRaw(7680, 20_000)


def test_bootstrap_prams_interval():
    ci = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 40_000, 0.95, seed=3)
    lo, hi = ci
    assert lo == pytest.approx(0.334, abs=0.012)
    assert hi == pytest.approx(0.45, abs=0.015)
    assert ci.redraws == 0


def test_bootstrap_deterministic_across_workers():
    a = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 100_000, 0.95, seed=3)
    b = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 100_000, 0.95, seed=3, workers=8)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_bootstrap_level_monotone():
    widths = []
    for level in (0.5, 0.9, 0.99):
        ci = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 30_000, level, seed=6)
        widths.append(ci.hi - ci.lo)
    assert widths[0] < widths[1] < widths[2]


def test_bootstrap_huge_sensitivity_matches_binomial_ci():
    # sens -> infinity switches borrowing off; the estimate is the resampled rate
    ci = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 1e12, 60_000, 0.95, seed=4)
    lo_star = binom.ppf(0.025, 94, 37 / 94) / 94
    hi_star = binom.ppf(0.975, 94, 37 / 94) / 94
    assert ci.lo == pytest.approx(lo_star, abs=0.012)
    assert ci.hi == pytest.approx(hi_star, abs=0.012)


def test_bootstrap_degenerate_redraws_counted():
    ci = bootstrap_ci(BinomialRaw(1, 2), BinomialRaw(500, 1000), 1.0, 4000, 0.9, seed=8)
    assert ci.redraws > 0
    assert math.isfinite(ci.lo) and math.isfinite(ci.hi)


def test_bootstrap_gaussian_scheme_close_to_binomial():
    a = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 40_000, 0.95, seed=5)
    b = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 40_000, 0.95, seed=5, scheme="gaussian")
    assert a.lo == pytest.approx(b.lo, abs=0.02)
    assert a.hi == pytest.approx(b.hi, abs=0.02)


class _NoBinomial:
    """A stream whose binomial sampler raises, to show that a scheme never calls it."""

    def __init__(self, gen):
        self.normal = gen.normal

    def binomial(self, *args, **kwargs):
        raise AssertionError("drew from the binomial")


def test_bootstrap_gaussian_scheme_redraws_from_the_normal_approximation(monkeypatch):
    real = streams.stream_generator
    monkeypatch.setattr(streams, "stream_generator", lambda *args, **kwargs: _NoBinomial(real(*args, **kwargs)))
    # n = 5 at rate 0.2: about 29% of the rounded normal counts are 0 and get redrawn
    ci = bootstrap_ci(BinomialRaw(1, 5), BinomialRaw(500, 1000), 1.0, 4000, 0.9, seed=8, scheme="gaussian")
    assert ci.redraws > 1000
    assert math.isfinite(ci.lo) and math.isfinite(ci.hi)


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 100, 1.5, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 0, 0.95, seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 100, 0.95, seed=0, scheme="jackknife")


# -- the exact bootstrap interval ---------------------------------------------


def _brute_force_interval(current, external, sens, level):
    """Every (k, j) of the conditioned law, its exact binomial weight and its estimate, then the percentiles."""
    n, m = current.trials, external.trials
    config = SensitivityMmse(sens)
    points = []
    for k in range(1, n):
        r_cur = k / n
        sd_cur = math.sqrt(r_cur * (1.0 - r_cur))
        for j in range(1, m):
            r_ext = j / m
            s = TwoSampleSummary(r_cur / sd_cur, n, r_ext / math.sqrt(r_ext * (1.0 - r_ext)), m)
            weight = (
                math.comb(n, k) * current.rate**k * (1 - current.rate) ** (n - k)
                * math.comb(m, j) * external.rate**j * (1 - external.rate) ** (m - j)
            )
            points.append((config.result(s).theta_est * sd_cur, weight))
    points.sort()
    total = sum(w for _, w in points)
    ends = []
    for p in ((1 - level) / 2, 1 - (1 - level) / 2):
        cumulative = 0.0
        for value, weight in points:  # min{x : F(x) >= p}
            cumulative += weight
            if cumulative >= p * total:
                ends.append(value)
                break
    return tuple(ends)


@pytest.mark.parametrize(
    "current, external, sens, level",
    [
        (BinomialRaw(3, 7), BinomialRaw(4, 9), 0.4, 0.95),
        (BinomialRaw(2, 5), BinomialRaw(9, 12), 1.0, 0.8),
        (BinomialRaw(5, 8), BinomialRaw(2, 11), 0.0, 0.5),
    ],
)
def test_exact_bootstrap_ci_is_the_brute_force_enumeration(current, external, sens, level):
    for raw in (current, external):  # nothing is truncated at these sizes
        assert _kept_counts(raw.trials, raw.rate, _EXACT_FLOOR)[:2] == (1, raw.trials - 1)
    assert _exact_bootstrap_ci(current, external, sens, level) == _brute_force_interval(current, external, sens, level)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bootstrap_ci_converges_to_the_exact_interval(seed):
    # the worst distance over seeds 1-6 at 10**6 resamples is 2.1e-5
    exact = _exact_bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 0.95)
    ci = bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 1_000_000, 0.95, seed=seed)
    assert abs(ci.lo - exact[0]) <= 3e-5 and abs(ci.hi - exact[1]) <= 3e-5


def test_exact_bootstrap_ci_ignores_a_tighter_truncation():
    exact = _exact_bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 0.95)
    assert exact == (0.33441099335291585, 0.4493651823742797)
    assert _exact_bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 0.95, floor=_EXACT_FLOOR / 1000) == exact


def test_exact_bootstrap_margins_and_their_dropped_mass():
    # the worked example's margins: 79 * 1,252 = 98,908 grid points
    assert _kept_counts(94, 37 / 94, _EXACT_FLOOR) == (1, 79, 37)
    assert _kept_counts(20_000, 0.384, _EXACT_FLOOR) == (7058, 8309, 7680)
    # the dropped mass of a margin stays within the docstring's bound
    counts = np.arange(1.0, 20_000)
    pmf = np.exp(_log_pmf_ratio(counts, 7680, 20_000, 0.384))
    kept = (counts >= 7058) & (counts <= 8309)
    dropped = pmf[~kept].sum() / pmf[kept].sum()
    assert 0 < dropped <= _EXACT_FLOOR * (2 + (kept.sum() + 1) / math.log(1 / _EXACT_FLOOR))


def test_exact_bootstrap_grid_values_are_distinct_so_the_sort_kind_cannot_move_the_interval():
    # the worked example's 79 x 1,252 grid; with no ties every sort gives the one ascending permutation
    k = np.arange(1.0, 80.0)
    j = np.arange(7058.0, 8310.0)
    values = _resampled_estimate(SensitivityMmse(0.4), k[:, None], j, 94, 20_000).ravel()
    assert values.size == np.unique(values).size == 98_908
    assert np.array_equal(np.argsort(values, kind="stable"), np.argsort(values, kind="quicksort"))


def test_log_pmf_ratio_keeps_its_digits_at_large_trials():
    # a difference of gammaln values is off by up to 3e-3 at 10**12 trials
    mpmath = pytest.importorskip("mpmath")
    for trials, successes in ((94, 37), (20_000, 7680), (10**12, 3)):
        rate = successes / trials
        lo, hi, mode = _kept_counts(trials, rate, _EXACT_FLOOR)

        def log_pmf(k):
            return mpmath.log(mpmath.binomial(trials, k)) + k * mpmath.log(rate) + (trials - k) * mpmath.log1p(-rate)

        with mpmath.workdps(40):
            for k in (lo, mode + 1, hi):
                want = float(log_pmf(k) - log_pmf(mode))
                assert _log_pmf_ratio(k, mode, trials, rate) == pytest.approx(want, abs=1e-10)


def test_exact_bootstrap_validation():
    with pytest.raises(ValueError, match="level"):
        _exact_bootstrap_ci(PRAMS_CUR, PRAMS_EXT, 0.4, 1.0)
    with pytest.raises(ValueError, match="strictly inside"):
        _exact_bootstrap_ci(BinomialRaw(0, 94), PRAMS_EXT, 0.4, 0.95)
    with pytest.raises(ValueError, match="above the cap of 1048576"):
        _exact_bootstrap_ci(BinomialRaw(400_000, 1_000_000), PRAMS_EXT, 0.4, 0.95)
