import math
from typing import get_args

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from dibkit import _law, streams, testing
from dibkit.cli import DENSITY_ESTIMATORS
from dibkit.estimators import (
    AdaptiveLasso,
    AdaptiveMmse,
    EstimatorConfig,
    GeneralizedBorrow,
    LimitedTranslation,
    Mle,
    NormalPriorBayes,
    Pooled,
    SensitivityMmse,
    StudentTPriorBayes,
    TestThenPool as TtPool,
    config_from_id,
    conflict_correction,
)
from dibkit.montecarlo import SimPlan, _QUANTILE_PROBS, simulate
from dibkit.risk import (
    LaplacePrior,
    NormalPrior,
    PointMassPrior,
    StudentTPrior,
    UniformPrior,
    integrated_srmse,
    srmse,
    srmse_curve,
)
from dibkit.summaries import TwoSampleSummary
from dibkit.testing import (
    AllDelta,
    DeltaBounded,
    DeltaZero,
    NoCrossingError,
    TestSpec as Spec,
    alasso_local_power_decay,
    critical_value,
    null_quantile,
    p2_p3,
    power,
    power_curve,
    pvalue,
    sampling_cdf,
    sweet_spot,
    tipping_point,
)

N, M = 1000, 100_000
Z975 = norm.ppf(0.975)
_S = TwoSampleSummary(0.1, 100, 0.13, 400)


def spec_for(estimator, convention, alpha=0.025, theta0=0.0, n=N, m=M):
    return Spec(theta0=theta0, alpha=alpha, convention=convention, estimator=estimator, n=n, m=m)


def _mc_statistic_draws(
    config, n: int, m: int, theta0: float, theta: float, delta: float,
    draws: int, seed: int, stream: int,
) -> np.ndarray:
    """Seeded draws of ``sqrt(n) * (estimate - theta0)`` at the given truth."""
    z1 = streams.addressed_normals(seed, stream, 0, draws)
    z2 = streams.addressed_normals(seed, stream, draws, draws)
    theta_hat = theta + z1 / math.sqrt(n)
    beta_hat = theta + delta + z2 / math.sqrt(m)
    q = conflict_correction(config, beta_hat - theta_hat, n, m, delta_true=delta)
    return math.sqrt(n) * (theta_hat + q - theta0)


def test_mle_critical_matches_normal_quantile():
    for conv in (AllDelta(), DeltaZero(), DeltaBounded(0.05)):
        crit = critical_value(spec_for(Mle(), conv))
        assert crit.value == pytest.approx(Z975, abs=1e-6)


def test_pooled_delta_zero_critical():
    crit = critical_value(spec_for(Pooled(), DeltaZero()))
    assert crit.value == pytest.approx(Z975 * math.sqrt(N / (N + M)), abs=1e-6)


def test_pooled_and_np_unbounded_under_all_delta():
    assert math.isinf(critical_value(spec_for(Pooled(), AllDelta())).value)
    assert math.isinf(critical_value(spec_for(NormalPriorBayes(), AllDelta())).value)


def test_sampling_cdf_matches_normal_for_mle():
    spec = spec_for(Mle(), DeltaZero())
    for z in (-1.0, 0.0, 1.64, 2.5):
        assert sampling_cdf(spec, z, 0.0, 0.03) == pytest.approx(norm.cdf(z), abs=1e-9)


def test_sampling_cdf_matches_normal_for_pooled():
    spec = spec_for(Pooled(), DeltaZero())
    delta = 0.04
    mean = math.sqrt(N) * M * delta / (N + M)
    sd = math.sqrt(N / (N + M))
    for z in (mean - sd, mean, mean + 2 * sd):
        assert sampling_cdf(spec, z, 0.0, delta) == pytest.approx(
            norm.cdf((z - mean) / sd), abs=1e-9
        )


def one_law(config, n, m, shift, delta):
    """The law of Z at one conflict: a one-conflict batch."""
    return _law.conditional_laws(config, n, m, shift, [delta])[0]


def test_law_density_quantiles_and_second_moment_for_mle_and_pooled():
    mle = one_law(Mle(), N, M, 0.0, 0.03)
    zs = np.linspace(-5.0, 5.0, 41)
    np.testing.assert_allclose(mle.pdf(zs), norm.pdf(zs), rtol=1e-9)
    for prob in _QUANTILE_PROBS:
        assert _law.quantiles([mle], [prob])[0] == pytest.approx(norm.ppf(prob), abs=1e-9)
    assert mle.second_moment() == pytest.approx(1.0, abs=1e-12)
    delta, sd = 0.04, math.sqrt(N / (N + M))
    mean = math.sqrt(N) * M * delta / (N + M)
    pooled = one_law(Pooled(), N, M, 0.0, delta)
    np.testing.assert_allclose(pooled.pdf(mean + sd * zs), norm.pdf(zs) / sd, rtol=1e-9)
    assert pooled.second_moment() == pytest.approx(mean * mean + sd * sd, rel=1e-12)


@pytest.mark.parametrize("name", DENSITY_ESTIMATORS)
def test_law_cdf_matches_seeded_simulation(name):
    config, draws = config_from_id(name), 400_000
    for i, snd in enumerate((0.0, 0.32, 1.58, 5.06)):  # the densities defaults
        delta = snd / math.sqrt(N)
        law = one_law(config, N, M, 0.0, delta)
        plan = SimPlan(n=N, m=M, theta=0.0, delta=delta, replicates=draws, seed=71 + i,
                       estimators=(config,))
        sample = simulate(plan)[name].draws
        for prob in _QUANTILE_PROBS:
            below = np.searchsorted(sample, _law.quantiles([law], [prob])[0], side="right") / draws
            assert abs(below - prob) <= 4.0 * math.sqrt(prob * (1.0 - prob) / draws), (snd, prob)


ORACLE_PROBS = (1e-7, 0.01, 0.5, 0.975, 1.0 - 1e-7)


# Sizes where the panels integrate mle's mixture to rounding; at m/n = 100 the
# law itself is off N(0, 1) by up to 7.7e-13 in z (2.7e-9 at n = 94, m = 20000),
# which the brentq oracles below share.
@pytest.mark.parametrize("n, m", [(300, 3000), (1000, 10000)])
@pytest.mark.parametrize("shift", [0.0, 0.5, -0.5])
def test_quantiles_of_the_normal_laws_match_ndtri(n, m, shift):
    # mle's law is N(sqrt(n) shift, 1) at any conflict, pooled's is normal with a conflict-driven mean
    sd = math.sqrt(n / (n + m))
    for config, delta, mean, scale in (
        (Mle(), 0.0, 0.0, 1.0),
        (Mle(), 0.05, 0.0, 1.0),
        (Pooled(), 0.0, 0.0, sd),
        (Pooled(), 0.04, math.sqrt(n) * m * 0.04 / (n + m), sd),
    ):
        law = one_law(config, n, m, shift, delta)
        want = math.sqrt(n) * shift + mean + scale * ndtri(np.array(ORACLE_PROBS))
        got = _law.quantiles([law] * len(ORACLE_PROBS), ORACLE_PROBS)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        assert _law.quantiles([law], [0.5])[0] == pytest.approx(want[2], abs=1e-13)


@pytest.mark.parametrize("name", ["ammse", "ttpool", "alasso", "ebpp", "hdpp", "ltr", "lstp"])
def test_quantiles_of_mixture_laws_match_brentq_on_the_matching_tail(name):
    config = config_from_id(name)
    for shift, delta in ((0.0, 0.0), (0.0, 0.05), (0.5, 0.02), (-0.5, 0.02)):
        law = one_law(config, N, M, shift, delta)
        got = _law.quantiles([law] * len(ORACLE_PROBS), ORACLE_PROBS)
        for prob, z in zip(ORACLE_PROBS, got):
            if prob > 0.5:  # the upper tail keeps the digits of 1 - prob
                want = brentq(lambda x: _law.upper_tails([law], x)[0] - (1.0 - prob), -60.0, 60.0, xtol=1e-15)
            else:
                want = brentq(lambda x: law.cdf(x) - prob, -60.0, 60.0, xtol=1e-15)
            assert abs(z - want) <= 1e-12, (shift, delta, prob, z, want)


@pytest.mark.parametrize("convention", [AllDelta(), DeltaBounded(0.0636)], ids=lambda c: c.id)
@pytest.mark.parametrize("estimator", [AdaptiveMmse(), TtPool(c=3.84), AdaptiveLasso(tau=0.25), Mle()],
                         ids=repr)
def test_lockstep_critical_value_equals_per_conflict_quantiles(convention, estimator):
    spec = spec_for(estimator, convention)
    grid = np.linspace(0.0, convention.delta0, 9) if isinstance(convention, DeltaBounded) else None
    crit = critical_value(spec, grid)
    grid = testing._default_grid(spec, 41) if grid is None else grid
    quants = [null_quantile(spec, d) for d in grid]
    want = max(quants)
    if isinstance(convention, AllDelta):
        top = grid[-1]
        want = max(want, null_quantile(spec, 2.0 * top), null_quantile(spec, 4.0 * top))
    assert crit.value == pytest.approx(want, abs=1e-13)
    # the reported conflict carries the reported value, a probe's included (the batch's
    # zero padding can move a quantile's last bit: alasso's moves by one ulp)
    assert null_quantile(spec, crit.sup_at) == pytest.approx(crit.value, abs=1e-13)


CLI_IDS = [kind.id for kind in get_args(EstimatorConfig) if kind is not GeneralizedBorrow]


def _one_law_reference(config, n, m, shift, delta):
    """Weights and node means of one conflict's law, built with a scalar conflict throughout."""
    sd = math.sqrt(1.0 / n + 1.0 / m)
    lo, hi = delta - _law._SPAN * sd, delta + _law._SPAN * sd
    edges = sorted({lo, hi, *(b for b in config.breakpoints(n, m) if lo < b < hi)})
    t, w, _ = _law._panels(np.array(edges[:-1]), np.array(edges[1:]), _law._PANEL_RULE, _law._PANEL_WIDTH * sd)
    w = w * (np.exp(-((t - delta) ** 2) / (2.0 * sd * sd)) / (sd * math.sqrt(2.0 * math.pi)))
    return w, math.sqrt(n) * (shift + conflict_correction(config, t, n, m, delta_true=delta) - (m / (n + m)) * (t - delta))


def _kink_conflicts(n: int, m: int) -> list[float]:
    """Conflicts whose span just takes in or just leaves ttpool's kinks, the kinks themselves and a spread."""
    kink = TtPool().breakpoints(n, m)[1]
    edge = _law._SPAN * math.sqrt(1.0 / n + 1.0 / m)
    return [kink - edge - 1e-12, kink - edge + 1e-12, kink + edge - 1e-12, kink + edge + 1e-12,
            -kink, kink, 0.0, *np.linspace(-3.0 * kink, 3.0 * kink, 7)]


def assert_window_sums_match_the_dense_sums(law, grid, label) -> None:
    """The windowed CDF within 2e-15 and density within 1e-13 relative of the sums over every node.

    The CDF is checked on the law's plotting ``grid`` and on as many points
    from 20 sd below its lowest node mean to 20 sd above its highest, the
    density on the grid.  Where the density is itself no larger than what
    the nodes left out of the window can add, ``phi(_BAND) / sd`` times the
    law's mass (in the gap a jump of ttpool's correction leaves, 6.2e-35 at
    n = 1000), that bound stands in for the relative one.
    """
    outer = np.linspace(law.mean.min() - 20.0 * law.sd, law.mean.max() + 20.0 * law.sd, grid.size)
    zs = np.concatenate([grid, outer])
    u = (zs[:, None] - law.mean) / law.sd
    cdf = np.sum(law.weights * ndtr(u), axis=1)
    np.testing.assert_allclose(law.cdf(zs), cdf, rtol=0.0, atol=2e-15, err_msg=label)
    u = u[: grid.size]
    pdf = np.sum(law.weights * np.exp(-0.5 * u * u), axis=1) / (law.sd * math.sqrt(2.0 * math.pi))
    left_out = np.sum(law.weights) * math.exp(-0.5 * _law._BAND**2) / (law.sd * math.sqrt(2.0 * math.pi))
    np.testing.assert_allclose(law.pdf(grid), pdf, rtol=1e-13, atol=left_out, err_msg=label)


@pytest.mark.parametrize("name", CLI_IDS)
@pytest.mark.parametrize("n, m", [(1000, 100_000), (94, 20_000), (300, 3000), (50, 50)])
def test_window_sums_match_the_dense_sums_over_every_node(name, n, m):
    deltas = _kink_conflicts(n, m)
    laws = _law.conditional_laws(config_from_id(name), n, m, 0.01, deltas)
    for delta, law, grid in zip(deltas, laws, _law.grids(laws, 101)[0]):
        assert_window_sums_match_the_dense_sums(law, grid, f"delta={delta!r}")


LIMIT_KINDS = ["mle", "pooled", "ttpool", "ommse", "ammse", "ammse-s", "gdib", "hdpp", "ebpp"]


@pytest.mark.parametrize("name", LIMIT_KINDS)
def test_limit_law_window_sums_match_the_dense_sums_over_every_node(name):
    kind = GeneralizedBorrow(g=lambda x: 1.0 / (1.0 + x), sens=0.5) if name == "gdib" else config_from_id(name)
    for p in (N / (N + M), 0.4):
        hs = (0.0, 1.58, 5.06, -2.0)
        laws = _law.limit_laws(kind, p, hs)
        for h, law, grid in zip(hs, laws, _law.grids(laws, 101)[0]):
            assert_window_sums_match_the_dense_sums(law, grid, f"p={p} h={h}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["mle", "pooled", "ttpool", "hdpp"])
def test_window_sums_at_infinite_points(name):
    law = one_law(config_from_id(name), N, M, 0.0, 0.05)
    assert law.cdf(-math.inf) == 0.0
    assert law.cdf(math.inf) == pytest.approx(np.sum(law.weights), rel=0.0, abs=2e-15)
    both = law.cdf(np.array([-math.inf, 0.0, math.inf]))
    assert both[0] == 0.0 and both[2] == law.cdf(math.inf) and 0.0 < both[1] < 1.0
    assert law.pdf(np.array([-math.inf, math.inf])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("name", CLI_IDS)
@pytest.mark.parametrize("n, m", [(50, 50), (300, 3000), (94, 20_022), (1000, 100_000)])
def test_conditional_laws_equal_the_per_conflict_laws_bit_for_bit(name, n, m):
    config = config_from_id(name)  # ommse tracks each law's own conflict as delta_true
    deltas = _kink_conflicts(n, m)
    laws = _law.conditional_laws(config, n, m, 0.01, deltas)
    assert len(laws) == len(deltas)
    for delta, law in zip(deltas, laws):
        one = one_law(config, n, m, 0.01, delta)
        weights, mean = _one_law_reference(config, n, m, 0.01, delta)
        for built in (law, one):
            assert np.array_equal(built.weights, weights) and np.array_equal(built.mean, mean), delta
            assert np.array_equal(built.sd, math.sqrt(n / (n + m)))


_BATCH_TAIL_CASES = [("ttpool", N, M), ("hdpp", N, M), ("ebpp", N, M), ("alasso", N, M), ("ammse", N, M),
                     ("lstp", 1000, 100)]  # lstp at (1000, 100): its conflicts span the cubic's root switch


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, n, m", _BATCH_TAIL_CASES)
def test_upper_tails_of_a_batch_equal_each_law_sf_bit_for_bit(name, n, m):
    config = config_from_id(name)
    laws = _law.conditional_laws(config, n, m, 0.01, [*_kink_conflicts(n, m), *config.breakpoints(n, m)])
    for z in (-math.inf, -40.0, -3.0, 0.0, 2.5, 40.0, math.inf):
        got = _law.upper_tails(laws, z).tolist()
        assert got == [_law.upper_tails([law], z)[0] for law in laws], z
        # the sum of every node's upper tail over the law's nodes alone, the one-law expression
        assert got == [float(np.sum(law.weights * ndtr(-((np.array([[z]]) - law.mean) / law.sd)))) for law in laws]
    assert _law.upper_tails([], 0.0).size == 0


@pytest.mark.parametrize("name, n, m", _BATCH_TAIL_CASES)
def test_power_curve_equals_the_per_law_tails_bit_for_bit(name, n, m):
    spec = spec_for(config_from_id(name), DeltaBounded(0.0636), n=n, m=m)
    grid = np.linspace(0.0, 0.0636, 33)
    curve = power_curve(spec, 0.03, grid)
    laws = _law.conditional_laws(spec.estimator, n, m, 0.03, grid)
    assert curve.rejection_prob.tolist() == [_law.upper_tails([law], curve.critical)[0] for law in laws]
    assert power_curve(spec, 0.03, np.zeros(0)).rejection_prob.size == 0


def test_conditional_laws_reject_a_span_that_rounds_to_a_point_like_one_law():
    with pytest.raises(ValueError, match="rounds to a single point") as one:
        one_law(Mle(), N, M, 0.0, 1e300)
    with pytest.raises(ValueError, match="rounds to a single point") as batch:
        _law.conditional_laws(Mle(), N, M, 0.0, [0.0, 1e300, 0.1])
    assert str(batch.value) == str(one.value)


@pytest.mark.parametrize(
    "estimator, convention",
    [(AdaptiveMmse(), DeltaZero()), (TtPool(), DeltaBounded(0.0636)), (AdaptiveLasso(), AllDelta()),
     (Pooled(), AllDelta())],
    ids=lambda v: getattr(v, "id", None),
)
def test_power_curve_equals_power_at_each_conflict(estimator, convention):
    spec = spec_for(estimator, convention, n=300, m=3000)
    crit = critical_value(spec)
    curve = power_curve(spec, 0.05)
    assert curve.critical == crit.value
    want = [power(spec, crit, 0.05, d) for d in curve.delta]
    assert np.array_equal(curve.rejection_prob, want)
    if isinstance(estimator, Pooled):  # no finite critical value, so no power
        assert math.isinf(crit.value) and not np.any(curve.rejection_prob)
        # and no law is built: a nan conflict would be rejected where its panels are laid
        assert power(spec, crit, 0.05, math.nan) == 0.0
        assert power_curve(spec, 0.05, np.array([math.nan])).rejection_prob.tolist() == [0.0]


@pytest.mark.parametrize("convention", [AllDelta(), DeltaBounded(0.05)], ids=lambda c: c.id)
def test_critical_value_rejects_an_empty_conflict_grid(convention):
    with pytest.raises(ValueError, match="at least one null conflict"):
        critical_value(spec_for(AdaptiveMmse(), convention), np.array([]))


def test_a_quantile_solve_that_does_not_converge_raises(monkeypatch):
    law = one_law(AdaptiveMmse(), N, M, 0.0, 0.05)
    monkeypatch.setattr(_law, "_MAX_PASSES", 2)
    with pytest.raises(FloatingPointError, match="not within tolerance after 2 passes"):
        _law.quantiles([law], [0.975])


def test_a_root_solve_that_meets_a_nan_raises():
    with pytest.raises(FloatingPointError, match=r"root solve met a nan value at \[0.5\]"):
        _law.bracketed_roots(lambda z, rows: (np.full(z.size, math.nan), None), [0.0], [1.0], [0.5],
                             abs_tol=1e-12, rel_tol=0.0)


@pytest.mark.parametrize("prob", [0.0, 1.0, -0.1, math.nan])
def test_quantile_probability_outside_the_open_unit_interval_is_rejected(prob):
    with pytest.raises(ValueError, match="must lie in"):
        _law.quantiles([one_law(Mle(), N, M, 0.0, 0.0)], [prob])


# Measured log-density changes where the density is at least 1e-3 of its peak,
# largest over the four default scenarios: 8.6e-11 mle, 1.2e-9 ammse, 4.4e-9
# lstp, 8.7e-6 alasso and 1.1e-3 hdpp (a resolution error: 8.3e-4 with a split
# at 0).  ebpp (4.2e-3) is left out: its kink at |delta_hat| = sd is undeclared,
# see test_every_kink_of_the_weight_is_a_declared_breakpoint.
HALVING_TOLERANCE = {"alasso": 2e-5, "hdpp": 2e-3}


@pytest.mark.parametrize("name", [e for e in DENSITY_ESTIMATORS if e != "ebpp"])
def test_log_density_panel_halving(name, monkeypatch):
    config = config_from_id(name)
    for snd in (0.0, 0.32, 1.58, 5.06):
        coarse = one_law(config, N, M, 0.0, snd / math.sqrt(N))
        zs = _law.grids([coarse], 256)[0][0]
        dens = coarse.pdf(zs)
        keep = dens >= 1e-3 * dens.max()
        with monkeypatch.context() as patch:
            patch.setattr(_law, "_PANEL_WIDTH", 0.5 * _law._PANEL_WIDTH)
            finer = one_law(config, N, M, 0.0, snd / math.sqrt(N)).pdf(zs)
        change = np.max(np.abs(np.log(finer[keep]) - np.log(dens[keep])))
        assert change <= HALVING_TOLERANCE.get(name, 1e-8), snd


def test_type1_error_controlled_under_bounded_convention():
    delta0 = 0.0636
    for estimator in (AdaptiveMmse(), Pooled()):
        spec = spec_for(estimator, DeltaBounded(delta0))
        crit = critical_value(spec)
        t1er = [power(spec, crit, 0.0, d) for d in np.linspace(0, delta0, 9)]
        assert max(t1er) <= 0.025 + 1e-4
        assert max(t1er) == pytest.approx(0.025, abs=1e-3)


def test_mle_power_independent_of_conflict():
    spec = spec_for(Mle(), AllDelta())
    crit = critical_value(spec)
    powers = [power(spec, crit, 0.05, d) for d in (0.0, 0.02, 0.3)]
    assert max(powers) - min(powers) < 1e-9
    # closed form: 1 - Phi(z - sqrt(n) * theta)
    assert powers[0] == pytest.approx(1 - norm.cdf(Z975 - math.sqrt(N) * 0.05), abs=1e-6)


def test_pooled_t1er_explodes_with_conflict_under_delta_zero_critical():
    spec = spec_for(Pooled(), DeltaZero())
    crit = critical_value(spec)
    assert power(spec, crit, 0.0, 0.2) > 0.999


def test_lstp_quantile_close_to_smooth_neighbors():
    # sane value between the MLE and pooled extremes
    spec = spec_for(StudentTPriorBayes(), DeltaZero())
    q = null_quantile(spec, 0.0)
    assert math.sqrt(N / (N + M)) * Z975 - 0.2 < q < Z975 + 0.2


def test_lstp_sampling_cdf_matches_seeded_draws(monkeypatch):
    spec = spec_for(StudentTPriorBayes(), DeltaZero())
    zs, deltas, draws = (-1.0, 0.5, 2.0), (0.0, 0.03, 0.1), 400_000
    exact = np.array([sampling_cdf(spec, np.array(zs), 0.0, d) for d in deltas])
    for i, delta in enumerate(deltas):
        stats = _mc_statistic_draws(spec.estimator, N, M, 0.0, 0.0, delta, draws, 13, i)
        for z, p in zip(zs, exact[i]):
            assert abs(np.mean(stats <= z) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / draws)
    monkeypatch.setattr(_law, "_PANEL_WIDTH", 0.5 * _law._PANEL_WIDTH)
    finer = np.array([sampling_cdf(spec, np.array(zs), 0.0, d) for d in deltas])
    assert np.any(finer != exact)  # other nodes, so the width took effect
    assert np.max(np.abs(finer - exact)) <= 1e-10


@pytest.mark.parametrize("estimator", [TtPool(), AdaptiveLasso(), LimitedTranslation()])
def test_sampling_cdf_vector_equals_scalar_calls(estimator):
    spec = spec_for(estimator, DeltaZero())
    zs = np.linspace(-3.0, 5.0, 41)
    # the density too, on more points than one block of node windows
    dense = np.linspace(-3.0, 5.0, 2 * _law._BLOCK + 1)
    for delta in (0.0, 0.04, 0.2):
        vector = sampling_cdf(spec, zs, 0.01, delta)
        scalar = [sampling_cdf(spec, float(z), 0.01, delta) for z in zs]
        assert vector.tolist() == scalar
        law = one_law(estimator, N, M, 0.01, delta)
        assert law.pdf(dense).tolist() == [float(law.pdf(np.array([z]))[0]) for z in dense]
        assert law.cdf(dense).tolist() == [law.cdf(float(z)) for z in dense]


def test_sweet_spot_exists_at_moderate_theta():
    spec = spec_for(AdaptiveMmse(), DeltaBounded(0.0636))
    result = sweet_spot(spec, theta=0.03, points=25)
    assert result.interval is not None
    lo, hi = result.interval
    assert 0.0 <= lo < hi <= 0.0636
    assert max(result.gain) > 0.01
    assert result.candidate == pytest.approx((0.0636 - 0.03, 0.0636))


def test_sweet_spot_empty_for_self_comparison():
    spec = spec_for(Mle(), DeltaBounded(0.05))
    result = sweet_spot(spec, theta=0.03, points=15)
    assert result.interval is None
    assert np.all(result.gain == 0.0)


def test_sweet_spot_no_gain_at_null():
    spec = spec_for(AdaptiveMmse(), DeltaBounded(0.0636))
    result = sweet_spot(spec, theta=0.0, points=15)
    assert max(result.gain) <= 1e-3


def test_p2_p3_prams_values(prams):
    s = prams["st"]
    theta0_st = prams["theta0_st"]
    p3s = [p2_p3(s, d0, theta0_st)[1] for d0 in (0.01, 0.05, 0.087)]
    # 0.60 and 0.74 match the published report; the third published value
    # (0.14) is inconsistent with any monotone CDF through the first two
    assert p3s[0] == pytest.approx(0.60, abs=0.005)
    assert p3s[1] == pytest.approx(0.74, abs=0.005)
    assert p3s[2] == pytest.approx(0.8408, abs=0.005)
    assert p3s[0] < p3s[1] < p3s[2]


def test_p2_p3_builds_its_rule_once_and_keeps_its_bits(monkeypatch, prams):
    s, theta0_st = prams["st"], prams["theta0_st"]
    builds = []

    def counted(points):
        builds.append(points)
        return leggauss(points)

    monkeypatch.setattr(testing, "leggauss", counted)
    testing._p2_p3_rule.cache_clear()
    got = [p2_p3(s, d0, theta0_st) for d0 in (0.01, 0.05, 0.087)]
    assert builds == [96]
    # an uncached rule, built and weighted the same way
    xg, wg = leggauss(96)
    wts = wg * np.exp(-8.0 * xg * xg) * (4.0 / math.sqrt(2.0 * math.pi))
    for d0, (p2, p3) in zip((0.01, 0.05, 0.087), got):
        th_star = s.theta_hat + 4.0 / math.sqrt(s.n) * xg
        mu_cond = s.delta_hat - (th_star - s.theta_hat)
        upper = ndtr((d0 - mu_cond) * math.sqrt(s.m))
        lower = ndtr((d0 - (th_star - theta0_st) - mu_cond) * math.sqrt(s.m))
        assert p2 == min(float(np.sum(wts * np.maximum(0.0, upper - lower))), p3)
    testing._p2_p3_rule.cache_clear()


def test_p3_limit_and_bound():
    s = TwoSampleSummary(0.0, N, 0.0, M)
    assert p2_p3(s, 100.0, 0.0)[1] == pytest.approx(1.0)
    # with sqrt(n) * delta0 = 1.96 the no-conflict plausibility cannot exceed
    # the location statistic's 0.975 because the conflict is noisier
    p3 = p2_p3(s, Z975 / math.sqrt(N), 0.0)[1]
    assert p3 <= norm.cdf(Z975) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(-1, 1),
    beta=st.floats(-1, 1),
    delta0=st.floats(0.01, 2.0),
    theta_assumed=st.floats(-1, 1),
)
def test_p2_never_exceeds_p3(theta, beta, delta0, theta_assumed):
    s = TwoSampleSummary(theta, 250, beta, 4000)
    p2, p3 = p2_p3(s, delta0, theta_assumed)
    assert 0.0 <= p2 <= p3 <= 1.0


def test_pvalue_option1_prams(prams):
    s, theta0 = prams["st"], prams["theta0_st"]
    p1 = pvalue("mle-alldelta", s, theta0)
    assert p1 == pytest.approx(0.1157, abs=5e-4)
    assert p1 == pytest.approx(norm.sf(math.sqrt(s.n) * (s.theta_hat - theta0)), rel=1e-12, abs=0.0)


def test_pvalue_option2_prams(prams):
    # the pooled statistic sits ~15 sd above the null, where 1 - Phi(z) rounds to 0
    s, theta0 = prams["st"], prams["theta0_st"]
    pooled = (s.n * s.theta_hat + s.m * s.beta_hat) / (s.n + s.m)
    p2 = pvalue("pooled-deltazero", s, theta0)
    assert 0.0 < p2 < 1e-4
    assert p2 == pytest.approx(norm.sf(math.sqrt(s.n + s.m) * (pooled - theta0)), rel=1e-12, abs=0.0)


def test_power_keeps_relative_precision_in_the_tail():
    # 6.7 sd below the critical value the rejection probability is 1.0e-11;
    # 1 - P(Z <= crit) would keep only about 5 of its digits
    spec = spec_for(Mle(), DeltaZero())
    crit = critical_value(spec)
    got = power(spec, crit, -0.15, 0.0)
    want = norm.sf(float(crit) + math.sqrt(N) * 0.15)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_pvalue_option3_prams(prams):
    p3 = pvalue("dib-deltabounded", prams["st"], prams["theta0_st"], 0.05, 0.4)
    # published as 0.0423; the exact law of the statistic under
    # (theta0, delta0) puts it at 0.0346
    assert p3 == pytest.approx(0.0345, abs=0.004)


@pytest.mark.parametrize("delta0", [0.01, 0.05, 0.087, 0.12, 0.3])
def test_pvalue_option3_matches_seeded_draws(prams, delta0):
    s, theta0, draws = prams["st"], prams["theta0_st"], 400_000
    exact = pvalue("dib-deltabounded", s, theta0, delta0, 0.4)
    config = SensitivityMmse(0.4)
    z_obs = math.sqrt(s.n) * (config.result(s).theta_est - theta0)
    z_null = _mc_statistic_draws(config, s.n, s.m, theta0, theta0, delta0, draws, 29, 0)
    assert abs(np.mean(z_null > z_obs) - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / draws)


def test_pvalue_option3_panel_halving(prams, monkeypatch):
    # measured changes: <= 3.5e-10 up to delta0 = 0.12 and 3.1e-9 at 0.3, where
    # the statistic's conditional law (sd 1/sqrt(n+m) in the conflict) is
    # steepest against the 12-node panels; halving again changes none of them further
    s, theta0 = prams["st"], prams["theta0_st"]
    tolerance = {0.01: 1e-9, 0.05: 1e-9, 0.087: 1e-9, 0.12: 1e-9, 0.3: 5e-9}
    coarse = np.array([pvalue("dib-deltabounded", s, theta0, d, 0.4) for d in tolerance])
    coarse_tip = tipping_point(s, theta0, 0.4, 0.05)
    monkeypatch.setattr(_law, "_PANEL_WIDTH", 0.5 * _law._PANEL_WIDTH)
    finer = np.array([pvalue("dib-deltabounded", s, theta0, d, 0.4) for d in tolerance])
    assert np.any(finer != coarse)  # other nodes, so the width took effect
    assert np.all(np.abs(finer - coarse) <= list(tolerance.values()))
    assert abs(tipping_point(s, theta0, 0.4, 0.05) - coarse_tip) <= 1e-9


def test_pvalue_option2_dominates_option1_under_agreement():
    rng = np.random.default_rng(21)
    for _ in range(25):
        theta0 = rng.normal()
        theta_hat = theta0 + abs(rng.normal(0, 0.05))
        beta_hat = theta_hat + abs(rng.normal(0, 0.05))
        s = TwoSampleSummary(theta_hat, 500, beta_hat, 20_000)
        assert pvalue("pooled-deltazero", s, theta0) <= pvalue("mle-alldelta", s, theta0) + 1e-12


def test_pvalue_option3_requires_arguments(prams):
    with pytest.raises(ValueError):
        pvalue("dib-deltabounded", prams["st"], prams["theta0_st"])
    with pytest.raises(ValueError):
        pvalue("anything-else", prams["st"], prams["theta0_st"])


def test_tipping_point_inverse_consistency(prams):
    s, theta0_st = prams["st"], prams["theta0_st"]
    tip = tipping_point(s, theta0_st, 0.4, 0.05)
    p_at_tip = pvalue("dib-deltabounded", s, theta0_st, tip, 0.4)
    assert p_at_tip == pytest.approx(0.05, abs=0.006)


def test_tipping_point_is_the_first_exact_crossing(prams):
    s, theta0_st = prams["st"], prams["theta0_st"]
    tip = tipping_point(s, theta0_st, 0.4, 0.05)
    assert tip == pytest.approx(0.0902580796, abs=1e-9)
    assert abs(pvalue("dib-deltabounded", s, theta0_st, tip, 0.4) - 0.05) <= 1e-9
    # the default grid of 33 points on (1e-3, 0.5): every point left of the crossing is below
    grid = np.linspace(1e-3, 0.5, 33)
    before = [pvalue("dib-deltabounded", s, theta0_st, d, 0.4) for d in grid[grid < tip]]
    assert before and max(before) < 0.05


def test_tipping_point_matches_brentq_on_its_grid_interval(prams):
    s, theta0_st = prams["st"], prams["theta0_st"]
    grid = np.linspace(1e-3, 0.5, 33)
    for target in (0.05, 0.1, 0.2):
        tip = tipping_point(s, theta0_st, 0.4, target)
        k = int(np.searchsorted(grid, tip))
        want = brentq(lambda d0: pvalue("dib-deltabounded", s, theta0_st, d0, 0.4) - target,
                      grid[k - 1], grid[k], xtol=1e-14)
        assert abs(tip - want) <= 3e-14, (target, tip, want)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda p: Spec(0.0, 0.025, DeltaBounded(0.05), Mle(), 0, 100), "sample sizes", id="spec-n"),
        pytest.param(lambda p: sweet_spot(spec_for(Mle(), AllDelta()), 0.03), "bounded-conflict", id="sweet-spot"),
        pytest.param(lambda p: p2_p3(p["st"], 0.0, p["theta0_st"]), "delta0 must be positive", id="p2-p3-zero"),
        pytest.param(lambda p: p2_p3(p["st"], -0.05, p["theta0_st"]), "delta0 must be positive", id="p2-p3-neg"),
        pytest.param(lambda p: pvalue("dib-deltabounded", p["st"], p["theta0_st"], 0.0, 0.4), "delta0 must be positive",
                     id="pvalue-zero"),
        pytest.param(lambda p: pvalue("dib-deltabounded", p["st"], p["theta0_st"], -0.05, 0.4), "delta0 must be positive",
                     id="pvalue-neg"),
        pytest.param(lambda p: tipping_point(p["st"], p["theta0_st"], 0.4, 0.05, bracket=(1e-3, 0.0)),
                     "delta0 must be positive", id="tipping-bracket-zero"),
        pytest.param(lambda p: tipping_point(p["st"], p["theta0_st"], 0.4, 0.05, bracket=(-0.05, 0.5)),
                     "delta0 must be positive", id="tipping-bracket-neg"),
        pytest.param(lambda p: tipping_point(p["st"], p["theta0_st"], 0.4, 0.05, bracket=(0.5, 1e-3)),
                     r"bracket must be increasing, got \(0.5, 0.001\)", id="tipping-bracket-reversed"),
        pytest.param(lambda p: tipping_point(p["st"], p["theta0_st"], 0.4, 0.05, bracket=(0.2, 0.2)),
                     r"bracket must be increasing, got \(0.2, 0.2\)", id="tipping-bracket-empty"),
        pytest.param(lambda p: integrated_srmse(Mle(), NormalPrior(0.0, 1e-3), N, M, rel_tol=-1.0),
                     "rel_tol must be non-negative, got -1", id="integrated-srmse-rel-tol"),
        pytest.param(lambda p: tipping_point(p["st"], p["theta0_st"], 0.4, 0.0), "target_p", id="tipping-0"),
        pytest.param(lambda p: tipping_point(p["st"], p["theta0_st"], 0.4, 1.0), "target_p", id="tipping-1"),
    ],
)
def test_testing_entry_points_reject_out_of_range_arguments(prams, call, message):
    with pytest.raises(ValueError, match=message):
        call(prams)


def test_tipping_point_requires_bracketing(prams):
    with pytest.raises(ValueError, match="no sign change"):
        tipping_point(prams["st"], prams["theta0_st"], 0.4, 0.9)


def test_tipping_point_rejects_a_curve_that_starts_above_the_target(prams):
    # p is 0.0341 at the bracket's left end, above a target of 0.034; the
    # curve dips to 0.0337 and rises through 0.034 later, but that is no tipping point
    with pytest.raises(NoCrossingError, match="starts at 0.03413"):
        tipping_point(prams["st"], prams["theta0_st"], 0.4, 0.034)


def test_alasso_power_decay_short_ladder():
    rows = alasso_local_power_decay(0.25, h_theta=2.0, h=2.0, n_ladder=(100, 1000))
    assert rows[0]["power"] >= rows[1]["power"] - 0.01
    null_rows = alasso_local_power_decay(0.25, h_theta=0.0, h=2.0, n_ladder=(100,))
    assert null_rows[0]["power"] <= 0.025 + 0.005


def test_critical_value_flag_is_reported():
    # the default power run's sups of ammse, ebpp and ttpool sit at the bound 0.0636, the true sup
    for name in ("mle", "pooled", "ammse", "ebpp", "hdpp", "ttpool", "alasso", "np", "ltr"):
        for convention in (DeltaBounded(0.0636), DeltaZero()):
            crit = critical_value(spec_for(config_from_id(name), convention))
            assert crit.flagged is False and crit.sup_at is not None, (name, convention)
        assert critical_value(spec_for(config_from_id(name), AllDelta())).flagged is False, name
    # a grid that stops short of AllDelta's sup still flags a maximum at its end
    grid = np.linspace(0.0, 0.0636, 33)
    for name, flagged in (("ammse", True), ("ebpp", True), ("ttpool", True), ("mle", False)):
        spec = spec_for(config_from_id(name), AllDelta())
        crit = critical_value(spec, grid)
        assert crit.flagged is flagged, name
        assert null_quantile(spec, crit.sup_at) == pytest.approx(crit.value, abs=1e-13), name


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: spec_for(Mle(), DeltaZero(), theta0=math.nan), "theta0"),
        (lambda: power(spec_for(Mle(), DeltaZero()), 1.96, math.nan, 0.0), "theta"),
        (lambda: power_curve(spec_for(Mle(), DeltaZero()), math.nan), "theta"),
        (lambda: sampling_cdf(spec_for(Mle(), DeltaZero()), 0.0, math.inf, 0.0), "theta"),
        (lambda: DeltaBounded(math.inf), "delta0"),
        (lambda: NormalPrior(0.0, math.inf), "var"),
        (lambda: UniformPrior(0.0, math.inf), "b"),
        (lambda: LaplacePrior(math.nan, 1.0), "loc"),
        (lambda: StudentTPrior(3, math.nan, 1.0), "loc"),
        (lambda: StudentTPrior(math.inf, 0.0, 1.0), "v"),
        (lambda: PointMassPrior(math.nan), "delta"),
        (lambda: pvalue("mle-alldelta", _S, math.nan), "theta0"),
        (lambda: pvalue("pooled-deltazero", _S, math.nan), "theta0"),
        (lambda: pvalue("dib-deltabounded", _S, math.nan, 0.05, 0.4), "theta0"),
        (lambda: p2_p3(_S, 0.05, math.nan), "theta_assumed"),
        (lambda: p2_p3(_S, math.inf, 0.7), "delta0"),
        (lambda: tipping_point(_S, math.nan, 0.4, 0.5), "theta0"),
        # every conflict bound is a DeltaBounded
        (lambda: DeltaBounded(math.nan), "delta0"),
        (lambda: p2_p3(_S, math.nan, 0.7), "delta0"),
        (lambda: pvalue("dib-deltabounded", _S, 0.0, math.nan, 0.4), "delta0"),
        (lambda: pvalue("dib-deltabounded", _S, 0.0, math.inf, 0.4), "delta0"),
        (lambda: tipping_point(_S, 0.0, 0.4, 0.5, bracket=(math.nan, 0.5)), "delta0"),
        (lambda: tipping_point(_S, 0.0, 0.4, 0.5, bracket=(1e-3, math.inf)), "delta0"),
        (lambda: SimPlan(100, 400, math.nan, 0.0, 10, 1, (AdaptiveMmse(),)), "theta"),
        (lambda: SimPlan(100, 400, 0.0, math.inf, 10, 1, (AdaptiveMmse(),)), "delta"),
        (lambda: integrated_srmse(Mle(), NormalPrior(0.0, 1e-3), N, M, rel_tol=math.nan), "rel_tol"),
        # a conflict is named where the law's panels are laid, or where risk's tensor fails, with no check per call
        (lambda: power(spec_for(Mle(), DeltaZero()), 1.96, 0.0, math.nan), "conflict"),
        (lambda: sampling_cdf(spec_for(Mle(), DeltaZero()), 0.0, 0.0, math.inf), "conflict"),
        (lambda: null_quantile(spec_for(Mle(), DeltaZero()), math.inf), "conflict"),
        (lambda: alasso_local_power_decay(0.25, h_theta=2.0, h=math.nan, n_ladder=(100,)), "conflict"),
        (lambda: srmse(AdaptiveMmse(), 0.0, math.nan, N, M), "conflict"),
        (lambda: srmse_curve(AdaptiveMmse(), N, M, [0.0, math.inf]), "conflict"),
    ],
    ids=["spec-theta0", "power-theta", "power-curve-theta", "sampling-cdf-theta", "delta-bounded", "normal", "uniform", "laplace",
         "student-t-loc", "student-t-v", "point-mass", "pvalue-mle-theta0", "pvalue-pooled-theta0", "pvalue-dib-theta0",
         "p2-p3-theta-assumed", "p2-p3-delta0", "tipping-point-theta0", "delta-bounded-nan", "p2-p3-delta0-nan",
         "pvalue-conflict", "pvalue-delta0-inf", "tipping-point-bracket-nan", "tipping-point-bracket-inf",
         "sim-plan-theta", "sim-plan-delta", "integrated-srmse-rel-tol", "power-conflict", "sampling-cdf-conflict",
         "null-quantile-conflict", "alasso-power-decay-conflict", "srmse-conflict", "srmse-curve-conflict"],
)
def test_non_finite_parameters_are_rejected_naming_the_field(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got (nan|inf)$"):
        build()
