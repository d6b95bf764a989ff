import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_hermite

from dibkit import risk
from dibkit.cli import TABLE_ESTIMATORS
from dibkit.estimators import (
    AdaptiveMmse,
    EmpiricalBayesPowerPrior,
    HellingerPowerPrior,
    Mle,
    NormalPriorBayes,
    OracleMmse,
    Pooled,
    StudentTPriorBayes,
    TestThenPool as TtPool,
    config_from_id,
    conflict_correction,
)
from dibkit.risk import (
    LaplacePrior,
    NodeEvaluationError,
    NormalPrior,
    PointMassPrior,
    QuadratureError,
    StudentTPrior,
    UniformPrior,
    imse,
    integrated_srmse,
    integrated_srmse_batch,
    mse_numeric,
    srmse,
    srmse_batch,
    srmse_curve,
    table_priors,
)

N, M = 1000, 100_000


def pooled_mse(delta, n=N, m=M):
    return 1.0 / (n + m) + (m * delta / (n + m)) ** 2


def ommse_mse(delta, n=N, m=M):
    return (1.0 - m / (n + m + n * m * delta * delta)) / n


def test_mle_mse_exact():
    assert mse_numeric(Mle(), 0.0, 0.3, N, M) == pytest.approx(1.0 / N, abs=1e-13)
    assert srmse(Mle(), 2.0, 1.7, N, M) == pytest.approx(1.0, abs=1e-10)


def test_ommse_matches_closed_form():
    for delta in (0.0, 0.02, 0.1, 0.5):
        got = mse_numeric(OracleMmse(delta), 0.0, delta, N, M)
        assert got == pytest.approx(ommse_mse(delta), abs=1e-10)


def test_pooled_matches_bias_variance_decomposition():
    for delta in (0.0, 0.05, 0.3):
        got = mse_numeric(Pooled(), 0.0, delta, N, M)
        assert got == pytest.approx(pooled_mse(delta), abs=1e-10)


def test_node_doubling_stability():
    # smooth corrections: doubling is a no-op at quadrature accuracy
    for config in (Mle(), Pooled(), OracleMmse(0.05), AdaptiveMmse(), NormalPriorBayes()):
        a = mse_numeric(config, 0.0, 0.05, N, M, nodes=128)
        b = mse_numeric(config, 0.0, 0.05, N, M, nodes=256)
        assert abs(a - b) < 1e-8
    # kinked or discontinuous corrections converge slower under tensor
    # Gauss-Hermite; the indicator jump dominates the error
    for config, tol in ((TtPool(), 2e-5), (EmpiricalBayesPowerPrior(), 2e-6), (HellingerPowerPrior(), 2e-6)):
        a = mse_numeric(config, 0.0, 0.05, N, M, nodes=128)
        b = mse_numeric(config, 0.0, 0.05, N, M, nodes=256)
        assert abs(a - b) < tol
    a = mse_numeric(StudentTPriorBayes(), 0.0, 0.05, N, M, nodes=96)
    b = mse_numeric(StudentTPriorBayes(), 0.0, 0.05, N, M, nodes=192)
    assert abs(a - b) < 1e-4


def full_tensor_mse(config, delta, n, m, nodes):
    """MSE summed over every Gauss-Hermite node pair (the oracle of the pruned sum)."""
    x, w = roots_hermite(nodes)
    w = w / math.sqrt(math.pi)
    u = math.sqrt(2.0 / n) * x
    v = math.sqrt(2.0 / m) * x
    err = u[:, None] + conflict_correction(config, delta + v[None, :] - u[:, None], n, m, delta_true=delta)
    return float(np.sum(np.outer(w, w) * err * err))


# Measured relative error of the Gauss-Hermite tensor in n * MSE, the largest over
# sqrt(n) delta in {0, 1.58, 5.06} at n = 1000, m = 100000 (that of srmse is half).
TENSOR_ERROR = {
    "mle": 1e-15, "pooled": 1e-15, "np": 1e-15, "ommse": 1e-15, "lstp": 3e-13, "ammse": 8.5e-10,
    "hdpp": 3.9e-6, "ltr": 8.4e-5, "alasso": 2.5e-4, "ebpp": 4.6e-4, "ttpool": 3.4e-3,
}


def _second_moment_by_quad(config, delta, n, m):
    """n * MSE as the 1-D integral E_t[mean(t)^2 + sd^2], split at every kink and jump of q."""
    s = math.sqrt(1.0 / n + 1.0 / m)

    def integrand(t):
        q = float(conflict_correction(config, np.array([t]), n, m, delta_true=delta)[0])
        mean = math.sqrt(n) * (q - m / (n + m) * (t - delta))
        return math.exp(-0.5 * ((t - delta) / s) ** 2) / (s * math.sqrt(2.0 * math.pi)) * (mean * mean + n / (n + m))

    lo, hi = delta - 14.0 * s, delta + 14.0 * s
    # the declared breakpoints, then ebpp's kinks at +/- s and hdpp's at 0, which are not declared
    kinks = (*config.breakpoints(n, m), -s, 0.0, s)
    edges = sorted({lo, hi, *(k for k in kinks if lo < k < hi)})
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("name", TABLE_ESTIMATORS)
def test_tensor_error_against_a_quad_oracle(name):
    config = config_from_id(name)
    deltas = np.array([0.0, 1.58, 5.06]) / math.sqrt(N)
    worst = max(abs(N * mse_numeric(config, 0.0, d, N, M) / _second_moment_by_quad(config, d, N, M) - 1.0)
                for d in deltas)
    assert worst <= TENSOR_ERROR[name]
    if TENSOR_ERROR[name] > 1e-12:  # the stated bound is the measured error, not a loose cap
        assert worst >= 0.5 * TENSOR_ERROR[name]


@pytest.mark.parametrize("nodes", [64, 128, 256])
def test_skipped_pairs_leave_the_mse_unchanged(nodes):
    # 1.0 is the edge of pi3's support, the largest conflict the table integrates
    deltas = np.array([0.0, 1.58, 5.06, 8.0, 0.5 * math.sqrt(N), math.sqrt(N)]) / math.sqrt(N)
    for name in TABLE_ESTIMATORS:
        config = config_from_id(name)
        for delta in deltas:
            got = mse_numeric(config, 0.0, delta, N, M, nodes=nodes)
            want = full_tensor_mse(config, delta, N, M, nodes)
            assert abs(got - want) <= 1e-13 * want, (name, delta, got, want)


def test_mse_is_folded_onto_the_conflict_magnitude():
    # one value per |delta|, equal to the unfolded full tensor at the negative conflict
    for name in TABLE_ESTIMATORS:
        config = config_from_id(name)
        for delta in np.array([0.3, 1.58, 5.06]) / math.sqrt(N):
            values = srmse_batch(config, 0.0, [delta, -delta, delta], N, M, nodes=128)
            assert values[0] == values[1] == values[2], (name, delta, values)
            want = full_tensor_mse(config, -delta, N, M, 128)
            assert abs(values[1] ** 2 / N - want) <= 1e-13 * want, (name, delta)


def test_node_error_names_a_node_of_the_signed_conflict():
    for delta, sign in ((-1e300, -1.0), (1e300, 1.0)):
        with pytest.raises(NodeEvaluationError) as info, np.errstate(all="ignore"):
            srmse_batch(StudentTPriorBayes(), 0.0, [delta], 1, 1)
        beta_hat = float(re.search(r"beta_hat=([^)]+)\)", str(info.value)).group(1))
        assert math.copysign(1.0, beta_hat) == sign and abs(beta_hat) > 1e299


@pytest.mark.filterwarnings("error")  # the overflow is reported once, as the error, not also as a warning
def test_an_overflowing_mse_names_the_estimator_and_the_signed_conflict():
    # the pooled error is finite, about m/(n+m) * delta, but its square overflows
    with pytest.raises(FloatingPointError, match=r"MSE of pooled at conflict -5e\+299"):
        srmse_batch(Pooled(), 0.0, [0.0, -5e299, 1e300], 1, 1)
    with pytest.raises(FloatingPointError, match="MSE of pooled"):
        mse_numeric(Pooled(), 0.0, 5e299, 1, 1)


@pytest.mark.parametrize("nodes", [63, 4097, 10**6])
def test_node_count_outside_the_bounds_is_rejected_before_any_nodes_are_built(monkeypatch, nodes):
    def no_nodes(count):
        raise AssertionError(f"roots_hermite({count}) ran")

    monkeypatch.setattr(risk, "roots_hermite", no_nodes)
    with pytest.raises(ValueError, match=r"nodes must lie in \[64, 4096\]"):
        srmse_batch(Pooled(), 0.0, [0.1], N, M, nodes=nodes)


@pytest.mark.parametrize("name", TABLE_ESTIMATORS)
def test_integrated_srmse_batch_equals_one_call_per_prior(name):
    n, m = 300, 3000
    config = config_from_id(name)
    priors = list(table_priors(n, m).values())
    assert integrated_srmse_batch(config, priors, n, m) == [integrated_srmse(config, p, n, m) for p in priors]


def test_integrated_srmse_batch_with_point_masses():
    config = AdaptiveMmse()
    priors = [PointMassPrior(0.03), *table_priors(N, M).values(), PointMassPrior(-0.03)]
    got = integrated_srmse_batch(config, priors, N, M)
    assert got == [integrated_srmse(config, p, N, M) for p in priors]
    assert got[0] == got[-1] == srmse(config, 0.0, 0.03, N, M)
    assert integrated_srmse_batch(config, [], N, M) == []


def test_lockstep_quadrature_error_names_the_priors_that_did_not_converge():
    priors = table_priors(N, M)
    achieved = {}
    for key in ("pi1", "pi4"):  # each alone, made to fail: its last refinement change
        with pytest.raises(QuadratureError) as info:
            integrated_srmse(TtPool(), priors[key], N, M, rel_tol=0.0)
        achieved[key] = info.value.achieved
    # at this tolerance pi2 and pi3 converge and pi1 and pi4 do not
    assert min(achieved.values()) > 5e-5
    batch = [priors[key] for key in ("pi3", "pi4", "pi2", "pi1")]
    with pytest.raises(QuadratureError) as info:
        integrated_srmse_batch(TtPool(), batch, N, M, rel_tol=5e-5)
    message = str(info.value)
    assert repr(priors["pi1"]) in message and repr(priors["pi4"]) in message
    assert repr(priors["pi2"]) not in message and repr(priors["pi3"]) not in message
    assert info.value.achieved == max(achieved.values())


def test_minimum_nodes_enforced():
    with pytest.raises(ValueError):
        mse_numeric(Mle(), 0.0, 0.0, N, M, nodes=32)


def test_srmse_examples():
    assert srmse(Pooled(), 0.0, 0.0, N, M) == pytest.approx(math.sqrt(N / (N + M)), abs=1e-10)
    np_vals = [srmse(NormalPriorBayes(), 0.0, d, N, M) for d in (0.5, 1.0, 2.0)]
    assert np_vals[0] < np_vals[1] < np_vals[2]


def test_curve_dominance_and_tails():
    grid = np.array([0.0, 1.0, 2.5, 5.0, 20.0]) / math.sqrt(N)
    oracle = srmse_batch(OracleMmse(), 0.0, grid, N, M)
    for config in (AdaptiveMmse(), EmpiricalBayesPowerPrior(), HellingerPowerPrior(), TtPool()):
        curve = srmse_curve(config, N, M, grid)
        assert np.all(curve.srmse >= oracle - 1e-6)
        assert curve.srmse[-1] == pytest.approx(1.0, abs=0.05)
        assert curve.sqrt_n_delta[-1] == pytest.approx(20.0)


def test_pooled_curve_closed_form():
    grid = np.linspace(0.0, 0.2, 9)
    curve = srmse_curve(Pooled(), N, M, grid)
    p = N / (N + M)
    expected = np.sqrt(p + N * (1 - p) ** 2 * grid**2)
    np.testing.assert_allclose(curve.srmse, expected, atol=1e-8)


def test_student_t_prior_matches_scipy():
    from scipy.stats import t as student_t

    x = np.linspace(-20.0, 20.0, 4001)
    for v, loc, scale in ((3, 0.0, 1.0 / math.sqrt(N)), (5, 0.2, 2.0), (30, -1.0, 0.5)):
        prior = StudentTPrior(v, loc, scale)
        want = student_t.pdf(x, v, loc=loc, scale=scale)
        np.testing.assert_allclose(prior.pdf(x), want, rtol=1e-14, atol=0.0)
        assert prior.truncation_mass() == pytest.approx(2.0 * student_t.sf(8.0, v), rel=1e-14)


def test_prior_densities_normalized():
    for prior in table_priors(N, M).values():
        total = quad(lambda x: float(prior.pdf(np.asarray(x))), *prior.support(), limit=200)[0]
        assert total >= 1.0 - prior.truncation_mass() - 1e-6


def test_integrated_srmse_pooled_against_adaptive_quad():
    prior = NormalPrior(0.0, 1.0 / N)
    p = N / (N + M)

    def integrand(d):
        return math.sqrt(p + N * (1 - p) ** 2 * d * d) * float(prior.pdf(np.asarray(d)))

    oracle = quad(integrand, *prior.support(), limit=400)[0]
    got = integrated_srmse(Pooled(), prior, N, M)
    assert got == pytest.approx(oracle, abs=1e-3)


def test_integrated_srmse_point_mass_reduces_to_srmse():
    value = integrated_srmse(AdaptiveMmse(), PointMassPrior(0.07), N, M)
    assert value == pytest.approx(srmse(AdaptiveMmse(), 0.0, 0.07, N, M), abs=1e-12)


def test_imse_examples():
    prior = NormalPrior(0.0, 1.0 / N)
    assert imse(Mle(), 0.0, prior, N, M) == pytest.approx(1.0 / N, abs=1e-9)
    # location invariance: the integrand never sees theta
    a = imse(NormalPriorBayes(), 0.0, prior, N, M)
    b = imse(NormalPriorBayes(), 5.0, prior, N, M)
    assert a == b
    pm = imse(Pooled(), 0.0, PointMassPrior(0.04), N, M)
    assert pm == pytest.approx(pooled_mse(0.04), abs=1e-12)


def test_np_is_bayes_optimal_under_matching_prior():
    prior = NormalPrior(0.0, 1.0 / N)
    best = imse(NormalPriorBayes(), 0.0, prior, N, M)
    for config in (Mle(), Pooled(), AdaptiveMmse(), EmpiricalBayesPowerPrior(), TtPool()):
        assert best <= imse(config, 0.0, prior, N, M) + 1e-12


def test_ommse_lower_bound_on_integrated_risk():
    priors = table_priors(N, M)
    for name in ("pi1", "pi3"):
        bound = integrated_srmse(OracleMmse(), priors[name], N, M)
        for config in (Mle(), Pooled(), AdaptiveMmse(), NormalPriorBayes()):
            assert bound <= integrated_srmse(config, priors[name], N, M) + 1e-9


def test_prior_validation():
    with pytest.raises(ValueError):
        NormalPrior(0.0, 0.0)
    with pytest.raises(ValueError):
        UniformPrior(1.0, 1.0)
    with pytest.raises(ValueError):
        LaplacePrior(0.0, -1.0)
    with pytest.raises(ValueError):
        StudentTPrior(2, 0.0, 1.0)
