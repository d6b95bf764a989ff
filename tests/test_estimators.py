import math
import sys
from fractions import Fraction
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import dibkit as dk
from dibkit import TwoSampleSummary, _law, estimators
from dibkit.estimators import (
    AdaptiveLasso,
    AdaptiveMmse,
    EmpiricalBayesPowerPrior,
    FixedPowerPrior,
    GeneralizedBorrow,
    HellingerPowerPrior,
    LimitedTranslation,
    Mle,
    NormalPriorBayes,
    OracleMmse,
    Pooled,
    SensitivityMmse,
    StudentTPriorBayes,
    TestThenPool as TtPool,
    conflict_correction,
    estimate,
    estimator_id,
    lstp_delta_mode,
    lstp_profile_objective,
)

S_WIDE = TwoSampleSummary(0.0, 100, 1.0, 400)

WEIGHT_FORM = [
    Pooled(),
    TtPool(),
    OracleMmse(0.3),
    AdaptiveMmse(),
    SensitivityMmse(0.7),
    HellingerPowerPrior(),
    EmpiricalBayesPowerPrior(),
    NormalPriorBayes(),
]

LOCATION_INVARIANT = WEIGHT_FORM + [
    Mle(),
    AdaptiveLasso(),
    StudentTPriorBayes(),
    LimitedTranslation(),
]


def summaries():
    return st.builds(
        TwoSampleSummary,
        st.floats(-3, 3),
        st.integers(2, 5000),
        st.floats(-3, 3),
        st.integers(2, 5000),
    )


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------


def test_mle():
    assert dk.est_mle(TwoSampleSummary(0.5, 10, 2.0, 10)).theta_est == 0.5
    a = dk.est_mle(TwoSampleSummary(0.5, 10, -7.0, 10))
    b = dk.est_mle(TwoSampleSummary(0.5, 10, 12.0, 10))
    assert a.theta_est == b.theta_est
    assert a.weight == 0.0


def test_mle_prams(prams):
    assert dk.est_mle(prams["raw"]).theta_est == pytest.approx(0.3936, abs=5e-5)


def test_pooled():
    assert dk.est_pooled(TwoSampleSummary(1.0, 5, 1.0, 7)).theta_est == pytest.approx(1.0)
    assert dk.est_pooled(S_WIDE).theta_est == pytest.approx(0.8)
    tiny_external = dk.est_pooled(TwoSampleSummary(0.3, 10**6, 9.0, 1))
    assert tiny_external.theta_est == pytest.approx(0.3, abs=1e-4)


def test_ttpool():
    no_conflict = TwoSampleSummary(0.4, 100, 0.4, 400)
    assert dk.est_ttpool(no_conflict).theta_est == pytest.approx(0.4)
    # xi^2 ~ 80 >= 3.84 -> keep the current mean only
    assert dk.est_ttpool(S_WIDE).theta_est == 0.0
    # exact tie resolves to rejection
    xi2 = S_WIDE.delta_hat**2 / (1 / 100 + 1 / 400)
    assert dk.est_ttpool(S_WIDE, c=xi2).theta_est == 0.0
    assert dk.est_ttpool(S_WIDE, c=xi2 + 1e-9).theta_est == pytest.approx(0.8)


def test_ommse():
    assert dk.est_ommse(S_WIDE, 0.0).weight == pytest.approx(400 / 500)
    assert dk.est_ommse(S_WIDE, 1e9).weight == pytest.approx(0.0, abs=1e-12)
    assert dk.est_ommse(S_WIDE, 0.1).theta_est == pytest.approx(400 / 900)


def test_ammse():
    no_conflict = TwoSampleSummary(0.4, 100, 0.4, 400)
    assert dk.est_ammse(no_conflict).weight == pytest.approx(0.8)
    assert dk.est_ammse(S_WIDE).weight == pytest.approx(400 / 40500)
    assert dk.est_ammse(S_WIDE).theta_est == pytest.approx(
        dk.est_ommse(S_WIDE, S_WIDE.delta_hat).theta_est
    )


def test_ammse_s():
    assert dk.est_ammse_s(S_WIDE, 1.0).theta_est == pytest.approx(dk.est_ammse(S_WIDE).theta_est)
    assert dk.est_ammse_s(S_WIDE, 0.0).theta_est == pytest.approx(dk.est_pooled(S_WIDE).theta_est)


def test_ammse_s_prams(prams):
    # the published value 0.396 is outside [beta_hat, theta_hat] and therefore
    # not attainable by any borrowing weight in [0, 1]; the formula evaluates
    # to 0.3858 on the rate scale (see the acceptance suite)
    est = dk.est_ammse_s(prams["st"], 0.4)
    assert est.theta_est == pytest.approx(0.789773, abs=1e-6)
    assert est.theta_est * prams["cur"].sd == pytest.approx(0.385845, abs=1e-6)
    assert est.weight == pytest.approx(0.985713, abs=1e-6)


def test_gdib():
    flat = dk.est_gdib(S_WIDE, lambda t: np.full_like(np.asarray(t, float), 0.25), sens=0.0)
    assert flat.weight == pytest.approx(0.25)
    zero = dk.est_gdib(S_WIDE, lambda t: np.zeros_like(np.asarray(t, float)), sens=3.0)
    assert zero.theta_est == dk.est_mle(S_WIDE).theta_est

    def g_ammse(t):
        return 400.0 / (500.0 + 400.0 * np.asarray(t, float))

    spec = dk.est_gdib(S_WIDE, g_ammse, sens=1.0)
    assert spec.theta_est == pytest.approx(dk.est_ammse(S_WIDE).theta_est)

    with pytest.raises(ValueError, match="invalid mixing function"):
        dk.est_gdib(S_WIDE, lambda t: np.asarray(t, float) + 2.0, sens=1.0)


def test_gdib_g_gets_one_float64_from_a_scalar_estimate_and_an_array_from_the_vector_path():
    seen = []

    def g(t):
        seen.append(type(t))
        return 1.0 / (1.0 + t)

    config = GeneralizedBorrow(g=g, sens=0.5)
    scalar = dk.est_gdib(S_WIDE, g, 0.5)
    vector = config.weight(np.array([S_WIDE.delta_hat]), S_WIDE.n, S_WIDE.m)
    assert seen == [np.float64, np.ndarray]
    assert scalar.weight == vector[0] and dk.estimate(config, S_WIDE) == scalar
    # a g written for one number serves a scalar estimate
    assert dk.est_gdib(S_WIDE, lambda t: 0.25 if t < 1e3 else 0.0, 0.5).weight == 0.25
    # a float64 has no buffer, so a g that writes into its input cannot serve one
    with pytest.raises(TypeError):
        dk.est_gdib(S_WIDE, lambda t: np.exp(-t, out=t), 0.5)


def test_gdib_rejects_a_nan_weight():
    with pytest.raises(ValueError, match="invalid mixing function"):
        dk.est_gdib(S_WIDE, lambda t: np.nan * np.asarray(t, float), 1.0)


def test_alasso_zero_conflict_pools():
    s = TwoSampleSummary(0.4, 100, 0.4, 400)
    res = dk.est_alasso(s)
    assert res.delta_est == 0.0
    assert res.theta_est == pytest.approx(dk.est_pooled(s).theta_est)


def test_alasso_sign_symmetry():
    s_plus = TwoSampleSummary(0.0, 120, 0.8, 300)
    s_minus = TwoSampleSummary(0.0, 120, -0.8, 300)
    r_plus = dk.est_alasso(s_plus, 0.3)
    r_minus = dk.est_alasso(s_minus, 0.3)
    assert r_plus.delta_est == pytest.approx(-r_minus.delta_est)
    pooled = dk.est_pooled(s_plus).theta_est
    pooled_m = dk.est_pooled(s_minus).theta_est
    assert r_plus.theta_est - pooled == pytest.approx(-(r_minus.theta_est - pooled_m))


def _alasso_grid_oracle(s: TwoSampleSummary, tau: float, points: int = 200_001) -> float:
    dh = s.delta_hat
    grid = np.linspace(-2.0 * abs(dh), 2.0 * abs(dh), points)
    a = s.n * s.m / (s.n + s.m)
    objective = a * (dh - grid) ** 2 + (s.n + s.m) ** tau * np.abs(grid) / abs(dh)
    return float(grid[np.argmin(objective)])


def test_alasso_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(5, 2000))
        m = int(rng.integers(5, 2000))
        theta = float(rng.normal(0, 1))
        beta = theta + float(rng.normal(0, 0.5)) + 1e-6
        tau = float(rng.uniform(0.05, 0.45))
        s = TwoSampleSummary(theta, n, beta, m)
        closed = dk.est_alasso(s, tau).delta_est
        grid = _alasso_grid_oracle(s, tau)
        assert abs(closed - grid) < max(1e-6, 4.0 * abs(s.delta_hat) / 200_000)


def test_power_prior():
    assert dk.power_prior_mean(S_WIDE, 1.0).theta_est == pytest.approx(0.8)
    assert dk.power_prior_mean(S_WIDE, 1e-9).theta_est == pytest.approx(0.0, abs=1e-6)
    gamma = 0.3
    delta = math.sqrt((1 - gamma) / (400 * gamma))
    assert dk.power_prior_mean(S_WIDE, gamma).weight == pytest.approx(
        dk.est_ommse(S_WIDE, delta).weight
    )
    with pytest.raises(ValueError):
        dk.power_prior_mean(S_WIDE, 0.0)
    with pytest.raises(ValueError):
        dk.power_prior_mean(S_WIDE, 1.2)


def test_gamma_hd():
    s0 = TwoSampleSummary(0.4, 100, 0.4, 400)
    assert dk.gamma_hd(s0) == 1.0
    s8 = TwoSampleSummary(0.0, 8, 1.0, 8)  # n * delta^2 = 8
    assert dk.gamma_hd(s8) == pytest.approx((1 - math.sqrt(1 - math.e**-1)) ** 2)
    gammas = [
        dk.gamma_hd(TwoSampleSummary(0.0, 100, d, 400)) for d in (0.0, 0.05, 0.1, 0.3, 1.0)
    ]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_gamma_eb():
    inside = TwoSampleSummary(0.0, 100, 0.05, 400)  # delta^2 <= 1/n + 1/m
    assert dk.gamma_eb(inside) == pytest.approx(1.0)
    assert dk.gamma_eb(S_WIDE) == pytest.approx((1 / 400) / (1 - 0.01))
    far = TwoSampleSummary(0.0, 100, 1e6, 400)
    assert 0.0 < dk.gamma_eb(far) < 1e-10


def test_hdpp_ebpp():
    s0 = TwoSampleSummary(0.4, 100, 0.4, 400)
    assert dk.est_hdpp(s0).theta_est == pytest.approx(dk.est_pooled(s0).theta_est)
    assert dk.est_ebpp(s0).theta_est == pytest.approx(dk.est_pooled(s0).theta_est)

    boundary = TwoSampleSummary(0.0, 100, math.sqrt(0.0125), 400)
    assert dk.est_ebpp(boundary).theta_est == pytest.approx(dk.est_pooled(boundary).theta_est)

    rng = np.random.default_rng(3)
    for _ in range(50):
        s = TwoSampleSummary(rng.normal(), int(rng.integers(2, 900)), rng.normal(), int(rng.integers(2, 900)))
        assert dk.est_hdpp(s).theta_est == pytest.approx(
            dk.power_prior_mean(s, max(dk.gamma_hd(s), 1e-300)).theta_est, abs=1e-12
        )
        assert dk.est_ebpp(s).theta_est == pytest.approx(
            dk.power_prior_mean(s, dk.gamma_eb(s)).theta_est, abs=1e-12
        )


@pytest.mark.parametrize("delta_hat", [1e-3, 0.1, 1.0, 1.5, 2.0])
def test_hdpp_gamma_matches_mpmath(delta_hat):
    # (1 - sqrt(1 - e))^2 with e = exp(-n delta_hat^2 / 8) cancels: it read 0 at delta_hat = 2
    # (exact 9.3e-45) and was 6.9e-11 off at 1; the limit gamma is the same function of xi^2 / (8 - 8p),
    # and the limit weight is the borrowing term over xi / sqrt(1 - p)
    mpmath = pytest.importorskip("mpmath")
    n, m = 100, 400
    p = n / (n + m)
    xi = delta_hat * math.sqrt(n * (1.0 - p))
    with mpmath.workdps(50):
        def gamma(x):
            return (1 - mpmath.sqrt(1 - mpmath.exp(-x))) ** 2

        want = gamma(mpmath.mpf(n) * mpmath.mpf(delta_hat) ** 2 / 8)
        limit_gamma = gamma(mpmath.mpf(xi) ** 2 / (8 - 8 * mpmath.mpf(p)))
        want_limit = float((1 - p) * limit_gamma / ((1 - p) * limit_gamma + p))
    got = HellingerPowerPrior().gamma_est(np.array([delta_hat]), n, m)[0]
    assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)
    limit = _law.limit_borrowing(HellingerPowerPrior(), np.array([xi]), p, 0.0)[0] * math.sqrt(1.0 - p) / xi
    assert limit == pytest.approx(want_limit, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n, m", [(1, 10**9), (1000, 10**5), (3, 7)])
def test_ebpp_gamma_matches_mpmath(n, m):
    # (1/m) / (max(d^2, 1/n + 1/m) - 1/n) cancels in (1/n + 1/m) - 1/n when m >> n: inside the
    # clamp it read 0.99999991726 at n = 1, m = 1e9, where gamma is exactly 1
    mpmath = pytest.importorskip("mpmath")
    s = math.sqrt(1.0 / n + 1.0 / m)
    inside, outside = np.array([0.0, 1e-5 * s, 0.5 * s, -0.99 * s]), np.array([1.5 * s, -2.0 * s, 10.0 * s])
    np.testing.assert_array_equal(EmpiricalBayesPowerPrior().gamma_est(inside, n, m), 1.0)
    with mpmath.workdps(50):
        want = [float((1 / mpmath.mpf(m)) / (mpmath.mpf(d) ** 2 - 1 / mpmath.mpf(n))) for d in outside]
    np.testing.assert_allclose(EmpiricalBayesPowerPrior().gamma_est(outside, n, m), want, rtol=1e-14, atol=0.0)


def test_np():
    s0 = TwoSampleSummary(0.4, 100, 0.4, 400)
    r0 = dk.est_np(s0)
    assert (r0.delta_est, r0.theta_est) == (0.0, pytest.approx(0.4))
    equal = TwoSampleSummary(0.0, 300, 0.9, 300)
    assert dk.est_np(equal).theta_est == pytest.approx(0.3)
    # the weight never vanishes, whatever the conflict
    far = TwoSampleSummary(0.0, 100, 1e6, 400)
    assert dk.est_np(far).weight == pytest.approx(400 / 900)


def test_lstp_zero_conflict():
    s = TwoSampleSummary(0.4, 100, 0.4, 400)
    res = dk.est_lstp(s)
    assert res.delta_est == pytest.approx(0.0, abs=1e-12)
    assert res.theta_est == pytest.approx(0.4)


def lstp_delta_mode_scan(
    delta_hat: np.ndarray,
    n: int,
    m: int,
    v: int = 3,
    *,
    coarse: int = 1000,
    chunk: int = 262_144,
) -> np.ndarray:
    """Conflict value at the joint posterior mode, by bracketed global search.

    The oracle for the exact cubic solver :func:`lstp_delta_mode`.  Minimizes
    :func:`lstp_profile_objective` over the bracket
    ``[min(0, delta_hat), max(0, delta_hat)]`` padded by five conflict SDs.
    The objective can be bimodal at moderate conflict, so a coarse global
    scan precedes bisection of f' on the winning cell; the refinement drives
    the bracket below 1e-10.
    """
    d = np.asarray(delta_hat, dtype=float)
    flat = d.ravel()
    out = np.empty_like(flat)
    pad = 5.0 * math.sqrt(1.0 / n + 1.0 / m)
    a = n * m / (2.0 * (n + m))

    def fprime(x: np.ndarray, dh: np.ndarray) -> np.ndarray:
        return (v + 1.0) * n * x / (v + n * x * x) - 2.0 * a * (dh - x)

    t = np.linspace(0.0, 1.0, coarse)
    for start in range(0, flat.size, chunk):
        dh = flat[start : start + chunk]
        lo = np.minimum(0.0, dh) - pad
        hi = np.maximum(0.0, dh) + pad
        grid = lo[:, None] + (hi - lo)[:, None] * t[None, :]
        f = lstp_profile_objective(grid, dh[:, None], n, m, v)
        k = np.clip(np.argmin(f, axis=1), 1, coarse - 2)
        left = np.take_along_axis(grid, (k - 1)[:, None], axis=1).ravel()
        right = np.take_along_axis(grid, (k + 1)[:, None], axis=1).ravel()
        # 64 bisection steps shrink the cell by 2^-64, far below 1e-10
        for _ in range(64):
            mid = 0.5 * (left + right)
            neg = fprime(mid, dh) < 0.0
            left = np.where(neg, mid, left)
            right = np.where(neg, right, mid)
        out[start : start + chunk] = 0.5 * (left + right)
    return out.reshape(d.shape)


def test_lstp_solvers_agree():
    rng = np.random.default_rng(11)
    for n, m in ((1000, 100_000), (50, 200), (94, 20_000)):
        dh = np.concatenate(
            [rng.normal(0.0, 0.3, 3000), np.linspace(-0.6, 0.6, 1000)]
        )
        fast = lstp_delta_mode(dh, n, m)
        slow = lstp_delta_mode_scan(dh, n, m)
        assert np.max(np.abs(fast - slow)) < 1e-8


def lstp_delta_mode_mpmath(delta_hat: float, n: int, m: int, v: int = 3):
    """Global mode by 60-digit roots of the stationary cubic (the oracle of the cubic solver)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        dh, n, m = mpmath.mpf(delta_hat), mpmath.mpf(n), mpmath.mpf(m)
        a = n * m / (2 * (n + m))
        roots = mpmath.polyroots(
            [2 * a * n, -2 * a * n * dh, 2 * a * v + (v + 1) * n, -2 * a * v * dh],
            maxsteps=200, extraprec=200,
        )
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40]
        return min(real, key=lambda d: (v + 1) * mpmath.log(v + n * d * d) / 2 + a * (dh - d) ** 2)


def test_lstp_delta_mode_matches_mpmath_roots():
    # (1539, 70794) is where the summed Cardano cube roots lost 1.5e-10
    rng = np.random.default_rng(23)
    cases = [(1539, 70_794, np.concatenate([[0.11753], rng.uniform(0.05, 0.3, 300)]))]
    for n, m in ((1000, 100_000), (50, 200), (94, 20_000), (300, 3000), (1, 1), (5, 10**6)):
        s = math.sqrt(1.0 / n + 1.0 / m)
        cases.append((n, m, np.concatenate([rng.normal(0.0, 3.0 * s, 20), np.linspace(-12 * s, 12 * s, 25)])))
    for n, m, dh in cases:
        got = lstp_delta_mode(dh, n, m)
        for d, g in zip(dh, got):
            want = float(lstp_delta_mode_mpmath(d, n, m))
            assert abs(g - want) <= 1e-14 * max(1.0, abs(want)), (n, m, d, g, want)


def test_lstp_delta_mode_matches_mpmath_for_huge_degrees_of_freedom():
    # at n = 100, m = 400 the mode tends to the normal-prior value 4/9 delta_hat;
    # it read 0.4271 at v = 1e30 and delta_hat = 1, -1.34e8 at 1e50 and inf from
    # about 1e110, where the discriminant overflowed
    dh = np.array([1.0, -0.3, 1e-3, 25.0])
    for v in (1e8, 1e16, 1e30, 1e50, 1e100, 1e200, 1e300):
        for d, got in zip(dh, lstp_delta_mode(dh, 100, 400, v)):
            want = float(lstp_delta_mode_mpmath(d, 100, 400, v))
            assert abs(got - want) <= 1e-12 * abs(want), (v, d, got, want)



def test_lstp_delta_mode_at_the_largest_degrees_of_freedom():
    # from about v = 2.2e306 (n = 100, m = 400) the cubic's coefficients overflowed
    # and the mode read nan; the rescaling that keeps them finite must not flush a
    # tiny conflict to zero.  The cubic has one real root here, polished by
    # 50-digit Newton steps from the normal-prior value m / (n + 2m) delta_hat.
    mpmath = pytest.importorskip("mpmath")
    dh = np.array([1e-300, 1e-200, 1e-6, 1.0, -3.0, 1e10, 1e60])
    for n, m in ((1, 1), (100, 400)):
        for v in (1e250, 1e300, 1.7e308, sys.float_info.max):
            for d, got in zip(dh, lstp_delta_mode(dh, n, m, v)):
                with mpmath.workdps(50):
                    a, vv, t = mpmath.mpf(n * m) / (2 * (n + m)), mpmath.mpf(v), mpmath.mpf(d)
                    c = [2 * a * n, -2 * a * n * t, 2 * a * vv + (vv + 1) * n, -2 * a * vv * t]
                    x = mpmath.mpf(m) / (n + 2 * m) * t
                    for _ in range(50):
                        x -= mpmath.polyval(c, x) / mpmath.polyval([3 * c[0], 2 * c[1], c[2]], x)
                    want = float(x)
                assert abs(got - want) <= 1e-12 * abs(want), (n, m, v, d, got, want)

def _lstp_cubic_discriminant(delta_hat, n, m, v=3):
    """Discriminant of the depressed stationary cubic; negative where it has three real roots."""
    a = n * m / (2.0 * (n + m))
    B, C, D = -delta_hat, (2.0 * a * v + (v + 1.0) * n) / (2.0 * a * n), -v * delta_hat / n
    p = C - B * B / 3.0
    q = 2.0 * B**3 / 27.0 - B * C / 3.0 + D
    return (q / 2.0) ** 2 + (p / 3.0) ** 3


def test_lstp_delta_mode_relative_accuracy_across_root_branches():
    # an external sample under a fifth of the current one makes the profile
    # bimodal over a conflict band (three real roots); the band's edges are
    # where the discriminant crosses 0 and two roots merge.  Below 0.05 sd,
    # Cardano's u - p/(3u) used to cancel (2.9e-9 relative at 1e-6 sd).
    for n, m in ((1000, 100), (500, 20), (50, 1), (1000, 100_000), (1, 1)):
        s = math.sqrt(1.0 / n + 1.0 / m)
        grid = np.concatenate([np.geomspace(1e-6 * s, 0.05 * s, 10, endpoint=False), np.linspace(0.05 * s, 12.0 * s, 40)])
        dh = [*grid, *-grid]
        xs = np.linspace(0.05 * s, 12.0 * s, 2001)
        disc = _lstp_cubic_discriminant(xs, n, m)
        edges = [
            brentq(lambda x: _lstp_cubic_discriminant(x, n, m), xs[k], xs[k + 1], xtol=1e-300, rtol=1e-15)
            for k in np.flatnonzero(np.diff(np.sign(disc)) != 0)
        ]
        assert len(edges) == (2 if m < n / 5 else 0)
        for edge in edges:
            for eps in (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
                dh += [edge * (1.0 + eps), edge * (1.0 - eps)]
        dh = np.array(dh)
        if edges:
            assert np.any(_lstp_cubic_discriminant(dh, n, m) < 0.0)
            # the one-root conflicts alone take the branch without gathers; among three-root ones they
            # are gathered, and must come out the same bit for bit
            both = np.concatenate([grid, -grid])
            one = _lstp_cubic_discriminant(both, n, m) > 0.0
            assert np.array_equal(lstp_delta_mode(both[one], n, m), lstp_delta_mode(dh, n, m)[: both.size][one])
        for d, got in zip(dh, lstp_delta_mode(dh, n, m)):
            want = float(lstp_delta_mode_mpmath(d, n, m))
            assert abs(got - want) <= 1e-12 * abs(want), (n, m, d, got, want)


def _joint_log_posterior(tg, dgrid, s: TwoSampleSummary, v: int):
    # broadcast, not meshgrid: the log runs once per conflict node, the values are the same
    TT, DD = tg[:, None], dgrid[None, :]
    return (
        -0.5 * (v + 1) * np.log(v + s.n * DD**2)
        - 0.5 * s.m * (s.beta_hat - TT - DD) ** 2
        - 0.5 * s.n * (s.theta_hat - TT) ** 2
    )


def lstp_grid_oracle(s: TwoSampleSummary, res, v: int = 3, points: int = 2000):
    """Dense 2-D argmax of the joint log posterior, no profiling involved.

    Coarse pass: 2000 x 2000 nodes over +/- 6 posterior SDs around the
    candidate mode (conditional SD for the location, mode curvature for the
    conflict).  A zoom pass of the same size inside the winning cells brings
    the grid resolution well below the comparison tolerance.
    """
    n, m = s.n, s.m
    a2 = n * m / (n + m)
    prior_curv = (v + 1) * n * (v - n * res.delta_est**2) / (v + n * res.delta_est**2) ** 2
    sd_delta = 1.0 / math.sqrt(a2 + max(prior_curv, 0.0))
    sd_theta = 1.0 / math.sqrt(n + m)
    tg = np.linspace(res.theta_est - 6 * sd_theta, res.theta_est + 6 * sd_theta, points)
    dgrid = np.linspace(res.delta_est - 6 * sd_delta, res.delta_est + 6 * sd_delta, points)
    i, j = np.unravel_index(np.argmax(_joint_log_posterior(tg, dgrid, s, v)), (points, points))
    assert 0 < i < points - 1 and 0 < j < points - 1, "mode hit the oracle window edge"
    tg2 = np.linspace(tg[i - 1], tg[i + 1], points)
    dg2 = np.linspace(dgrid[j - 1], dgrid[j + 1], points)
    i2, j2 = np.unravel_index(np.argmax(_joint_log_posterior(tg2, dg2, s, v)), (points, points))
    return float(tg2[i2]), float(dg2[j2])


def test_lstp_matches_2d_grid():
    rng = np.random.default_rng(42)
    n, m = 1000, 100_000
    for _ in range(10):
        theta_hat = float(rng.normal(0, 0.3))
        dh = float(rng.normal(0, 3 * math.sqrt(1 / n + 1 / m)))
        s = TwoSampleSummary(theta_hat, n, beta_hat=theta_hat + dh, m=m)
        res = dk.est_lstp(s)
        t_grid, d_grid = lstp_grid_oracle(s, res)
        assert abs(t_grid - res.theta_est) < 1e-4
        assert abs(d_grid - res.delta_est) < 2e-4


def test_lstp_heavy_tail_suppression():
    n, m = 400, 4000
    dh = math.sqrt(120.0 / n)  # n * delta^2 = 120 >= 100
    s = TwoSampleSummary(0.0, n, dh, m)
    res = dk.est_lstp(s)
    assert abs(res.delta_est - dh) / dh < 0.05


def test_ltr():
    s0 = TwoSampleSummary(0.4, 100, 0.4, 400)
    assert dk.est_ltr(s0).theta_est == pytest.approx(0.4)

    # delta_hat = 1 > C ~ 0.2012: translation capped at M * m/(m+n);
    # the cap continues the middle branch, so it enters with a plus sign here
    # (the source display's outer-branch signs are swapped relative to its
    # own middle branch and its tabulated risks)
    res = dk.est_ltr(S_WIDE)
    cap = math.sqrt(0.0125) * 0.8
    assert res.theta_est == pytest.approx(0.0 + cap)
    assert res.delta_est == pytest.approx(1.0 - math.sqrt(0.0125))

    rng = np.random.default_rng(5)
    for _ in range(100):
        s = TwoSampleSummary(rng.normal(), int(rng.integers(2, 500)), rng.normal(), int(rng.integers(2, 500)))
        cap = math.sqrt(1 / s.n + 1 / s.m) * s.m / (s.m + s.n)
        assert abs(dk.est_ltr(s).theta_est - s.theta_hat) <= cap + 1e-12


def test_ltr_continuous_at_boundary():
    n, m = 100, 400
    big_m = math.sqrt(1 / n + 1 / m)
    big_c = big_m * (2 * m + n) / (m + n)
    eps = 1e-9
    below = dk.est_ltr(TwoSampleSummary(0.0, n, big_c - eps, m)).theta_est
    above = dk.est_ltr(TwoSampleSummary(0.0, n, big_c + eps, m)).theta_est
    assert above == pytest.approx(below, abs=1e-6)


def ltr_correction_branches(d: np.ndarray, n: int, m: int) -> np.ndarray:
    """Limited translation's correction written by cases on delta_hat against +/-C (the oracle of the clip)."""
    big_m = math.sqrt(1.0 / n + 1.0 / m)
    big_c = big_m * (2.0 * m + n) / (m + n)
    cap = big_m * m / (m + n)
    inner = m / (2.0 * m + n) * d
    return np.where(d > big_c, cap, np.where(d < -big_c, -cap, inner))


def alasso_delta_branches(d: np.ndarray, n: int, m: int, tau: float) -> np.ndarray:
    """The adaptive lasso's soft threshold by sign, maximum and a zero guard (the oracle of the clip)."""
    ad = np.abs(d)
    with np.errstate(divide="ignore", over="ignore"):
        shrink = (n + m) ** (1.0 + tau) / (2.0 * n * m * ad)
    return np.where(ad == 0.0, 0.0, np.sign(d) * np.maximum(0.0, ad - shrink))


def _bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _floats_around(points, k: int = 7) -> np.ndarray:
    """Each point with the ``k`` floats on either side of it."""
    out = []
    for p in points:
        up, down = [p], [p]
        for _ in range(k):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], -np.inf))
        out += up + down[1:]
    return np.array(out)


@pytest.mark.parametrize("n, m", [(1000, 100_000), (100, 400), (1_000_000, 10), (1000, 100), (94, 20_000)])
def test_capping_kernels_match_their_branch_oracles_bit_for_bit(n, m):
    _, big_c = estimators._ltr_constants(n, m)
    extremes = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]
    d = np.concatenate([np.linspace(-3.0 * big_c, 3.0 * big_c, 4001), extremes, _floats_around([big_c, -big_c])])
    got, want = conflict_correction(LimitedTranslation(), d, n, m), ltr_correction_branches(d, n, m)
    differs = _bits(got) != _bits(want)
    # the one exception: at delta_hat = +/-C exactly, m/(2m+n) C may round one ulp above the cap
    assert set(np.abs(d[differs])) <= {big_c}
    assert np.all(np.abs(_bits(got[differs]) - _bits(want[differs])) == 1)
    assert np.all(np.abs(got[differs]) < np.abs(want[differs]))
    if (n, m) == (94, 20_000):
        assert differs.sum() == 2
        assert (got[d == big_c][0], want[d == big_c][0]) == (0.10290059170387354, 0.10290059170387356)
    for tau in (AdaptiveLasso.tau, 0.4):
        b = AdaptiveLasso(tau).breakpoints(n, m)[1]
        dd = np.concatenate([d, np.linspace(-3.0 * b, 3.0 * b, 4001), _floats_around([b, -b])])
        est, oracle = estimators.alasso_delta(dd, n, m, tau), alasso_delta_branches(dd, n, m, tau)
        assert np.array_equal(est, oracle)
        nonzero = oracle != 0.0
        assert np.array_equal(_bits(est[nonzero]), _bits(oracle[nonzero]))
        assert not np.any(np.signbit(est[~nonzero]))  # +0.0 inside the threshold, for either sign
        w = m / (n + m)
        assert np.array_equal(_bits(conflict_correction(AdaptiveLasso(tau), dd, n, m)), _bits(w * (dd - oracle)))


def test_ltr_clip_differs_from_the_branches_only_next_to_the_breakpoints():
    # over every n, m < 40 the clip and the branches agree except within two floats of +/-C,
    # where the rounded m/(2m+n) delta_hat and the rounded cap may sit a few ulps apart
    for n in range(1, 40):
        for m in range(1, 40):
            big_m, big_c = estimators._ltr_constants(n, m)
            d = np.concatenate([np.linspace(-2.0 * big_c, 2.0 * big_c, 101), _floats_around([big_c, -big_c], 4)])
            got, want = conflict_correction(LimitedTranslation(), d, n, m), ltr_correction_branches(d, n, m)
            differs = _bits(got) != _bits(want)
            assert np.all(np.abs(_bits(np.abs(d[differs])) - _bits(big_c)) <= 2), (n, m)
            assert np.all(np.abs(_bits(got[differs]) - _bits(want[differs])) <= 3), (n, m)
            assert np.all(np.abs(got) <= big_m * m / (m + n)), (n, m)


def test_estimate_dispatch():
    assert estimate(Mle(), S_WIDE).theta_est == dk.est_mle(S_WIDE).theta_est
    assert estimate(SensitivityMmse(1.0), S_WIDE).theta_est == pytest.approx(
        estimate(AdaptiveMmse(), S_WIDE).theta_est
    )
    assert estimate(OracleMmse(S_WIDE.delta_hat), S_WIDE).theta_est == pytest.approx(
        estimate(AdaptiveMmse(), S_WIDE).theta_est
    )
    with pytest.raises(ValueError):
        estimate(OracleMmse(), S_WIDE)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveLasso(tau=0.5)
    with pytest.raises(ValueError):
        TtPool(c=0.0)
    with pytest.raises(ValueError):
        StudentTPriorBayes(v=2)
    with pytest.raises(ValueError):
        SensitivityMmse(sens=-1.0)
    with pytest.raises(ValueError, match="sensitivity must be non-negative"):
        GeneralizedBorrow(g=_g_half_reciprocal, sens=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta_true must be finite"):
            OracleMmse(bad)


def test_lstp_rejects_v_past_the_float_range():
    with pytest.raises(ValueError, match="between 3 and the largest float"):
        StudentTPriorBayes(v=10**400)


@pytest.mark.parametrize(
    "kind", [k for k in get_args(dk.EstimatorConfig) if k is not GeneralizedBorrow], ids=lambda k: k.id
)
def test_config_from_id_gives_the_class_defaults(kind):
    assert dk.config_from_id(kind.id) == kind()


def test_config_from_id_names_a_field_without_a_value_and_rejects_an_unknown_flag():
    with pytest.raises(ValueError, match=r"no flag or default for \['g'\]"):
        dk.config_from_id("gdib", sens=1.0)
    with pytest.raises(TypeError, match="cc"):
        dk.config_from_id("mle", cc=1.0)


def test_estimate_rejects_an_object_that_is_not_a_configuration():
    with pytest.raises(TypeError, match="unknown estimator configuration: 'mle'"):
        dk.estimate("mle", S_WIDE)


def test_lstp_root_switch_matches_mpmath():
    # the conflict where the objective ties at the cubic's two outer roots, from mpmath at 40 digits
    b = StudentTPriorBayes(3).breakpoints(1000, 100)
    np.testing.assert_allclose(b, [-0.42309170798679465, 0.42309170798679465], rtol=1e-12, atol=0.0)
    # k = (1 - p) v/(v+1) reaches 1/8 at p = 5/6: from there down the mode never switches
    assert StudentTPriorBayes(3).breakpoints(1000, 200) == ()
    assert StudentTPriorBayes().breakpoints(1000, 100_000) == ()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(s=summaries())
def test_weight_form_invariant(s):
    lo, hi = min(s.theta_hat, s.beta_hat), max(s.theta_hat, s.beta_hat)
    for config in WEIGHT_FORM:
        res = estimate(config, s)
        assert res.weight is not None and 0.0 <= res.weight <= 1.0
        assert res.theta_est == pytest.approx(s.theta_hat + res.weight * s.delta_hat, abs=1e-10)
        assert lo - 1e-10 <= res.theta_est <= hi + 1e-10


@settings(max_examples=40, deadline=None)
@given(s=summaries(), shift=st.floats(-10, 10))
def test_location_invariance(s, shift):
    for config in LOCATION_INVARIANT:
        base = estimate(config, s).theta_est
        moved = estimate(config, s.shifted(shift)).theta_est
        assert moved == pytest.approx(base + shift, abs=1e-7 * (1 + abs(shift)))


@settings(max_examples=40, deadline=None)
@given(s=summaries())
def test_ammse_s_monotone_toward_mle(s):
    dists = [
        abs(estimate(SensitivityMmse(sens), s).theta_est - s.theta_hat)
        for sens in (0.0, 0.5, 1.0, 4.0, 32.0)
    ]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-12


def _g_half_reciprocal(x):
    return 0.5 / (1.0 + np.asarray(x, dtype=float))


ALL_KINDS = [
    Mle(),
    Pooled(),
    TtPool(2.5),
    OracleMmse(0.3),
    AdaptiveMmse(),
    SensitivityMmse(0.7),
    GeneralizedBorrow(g=_g_half_reciprocal, sens=1.5),
    AdaptiveLasso(0.3),
    FixedPowerPrior(0.4),
    HellingerPowerPrior(),
    EmpiricalBayesPowerPrior(),
    NormalPriorBayes(),
    StudentTPriorBayes(4),
    LimitedTranslation(),
]

# which optional EstimateResult fields each estimator reports
REPORTED_FIELDS = {
    "mle": {"weight"},
    "pooled": {"weight"},
    "ttpool": {"weight"},
    "ommse": {"weight"},
    "ammse": {"weight"},
    "ammse-s": {"weight"},
    "gdib": {"weight"},
    "alasso": {"delta_est"},
    "power-prior": {"gamma_est", "weight"},
    "hdpp": {"gamma_est", "weight"},
    "ebpp": {"gamma_est", "weight"},
    "np": {"delta_est", "weight"},
    "lstp": {"delta_est"},
    "ltr": {"delta_est"},
}


def test_every_kind_is_covered():
    ids = sorted(k.id for k in get_args(dk.EstimatorConfig))
    assert sorted(estimator_id(c) for c in ALL_KINDS) == ids == sorted(REPORTED_FIELDS)


@settings(max_examples=60, deadline=None)
@given(s=summaries())
def test_scalar_estimate_equals_vector_kernel(s):
    for config in ALL_KINDS:
        res = estimate(config, s)
        q = conflict_correction(config, np.array([s.delta_hat]), s.n, s.m)[0]
        assert res.theta_est == s.theta_hat + q
        reported = {f for f in ("delta_est", "gamma_est", "weight") if getattr(res, f) is not None}
        assert reported == REPORTED_FIELDS[estimator_id(config)]


@pytest.mark.parametrize("s", [S_WIDE, TwoSampleSummary(0.1, 94, 0.13, 20_000), TwoSampleSummary(0.0, 50, -3e-3, 60)])
def test_result_evaluates_each_shared_piece_once(monkeypatch, s):
    # each result equals its own methods bit for bit, but calls the shared kernels once
    d = np.asarray(s.delta_hat)
    want = {}
    for config in ALL_KINDS:
        fields = {f: float(getattr(config, f)(d, s.n, s.m)) for f in REPORTED_FIELDS[estimator_id(config)]}
        want[estimator_id(config)] = (s.theta_hat + float(config.correction(d, s.n, s.m)), fields)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("lstp_delta_mode", "alasso_delta"):
        monkeypatch.setattr(estimators, name, counted(name, getattr(estimators, name)))
    for kind in (FixedPowerPrior, HellingerPowerPrior, EmpiricalBayesPowerPrior):
        monkeypatch.setattr(kind, "gamma_est", counted("gamma_est", kind.gamma_est))
    for config in ALL_KINDS:
        calls.clear()
        res = config.result(s)
        theta_est, fields = want[estimator_id(config)]
        assert res.theta_est == theta_est
        assert {f: getattr(res, f) for f in fields} == fields
        assert len(calls) == len(set(calls)) <= 1, (estimator_id(config), calls)


def _cubic_discriminant(delta_hat: float, n: int, m: int, v: int) -> Fraction:
    """The exact discriminant of lstp's stationary-point cubic (see lstp_delta_mode); > 0 means three real roots."""
    a, d = Fraction(n * m, 2 * (n + m)), Fraction(delta_hat)
    c3, c2, c1, c0 = 2 * a * n, -2 * a * n * d, 2 * a * v + (v + 1) * n, -2 * a * v * d
    return 18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2 - 4 * c3 * c1**3 - 27 * c3**2 * c0**2


# at n = 1000, m = 100 (m < n/5) the default lstp's cubic has three real roots on both sides of its root switch
THREE_ROOT_CONFLICTS = (0.41, 0.43, -0.45)


def test_the_three_root_conflicts_have_three_real_roots():
    for d in THREE_ROOT_CONFLICTS:
        assert _cubic_discriminant(d, 1000, 100, StudentTPriorBayes.v) > 0, d
    assert _cubic_discriminant(0.47, 1000, 100, StudentTPriorBayes.v) < 0  # past the interval: one root


def _hex(x) -> str:
    return float(x).hex()  # tells -0.0 from 0.0


@pytest.mark.parametrize("n, m", [(1000, 100), (1000, 100_000), (94, 20_000), (7, 7)])
def test_scalar_and_vector_kernels_agree_bit_for_bit(n, m):
    tie = 0.0123
    configs = ALL_KINDS + [StudentTPriorBayes(), TtPool(tie * tie / (1.0 / n + 1.0 / m))]  # tie's statistic is c
    kinks = [b for config in configs for b in config.breakpoints(n, m)]  # jumps, thresholds, +/-C, root switches
    # at n = 1000 and 0.129 an np.float64's ** 2 (pow) of hdpp's root is one ulp off the product
    special = [0.0, -0.0, tie, -tie, 1e-3, 0.129, *THREE_ROOT_CONFLICTS, 1e150, -1e150, 1e300, -1e300, 5e-324]
    for d in np.concatenate([special, _floats_around(kinks, 2)]):
        s = TwoSampleSummary(0.0, n, d, m)
        assert _hex(s.delta_hat) == _hex(d)
        one = np.array([d])
        with np.errstate(all="ignore"):  # huge conflicts overflow some kernels' intermediates
            for config in configs:
                res, vector = config.result(s), conflict_correction(config, one, n, m)[0]
                assert _hex(res.theta_est) == _hex(s.theta_hat + vector), (config, d)
                for f in REPORTED_FIELDS[estimator_id(config)]:
                    want = np.broadcast_to(getattr(config, f)(one, n, m), (1,))[0]
                    assert _hex(getattr(res, f)) == _hex(want), (config, f, d)
                for scalar in (np.float64(d), np.asarray(d)):
                    assert type(lstp_delta_mode(scalar, n, m)) is np.float64, d  # its three-root branch too
                    q, reported = config._evaluate(scalar, n, m)
                    # the correction stays an np.float64 (lstp's three-root branch included); a
                    # reported field may be np.where's 0-d array or a constant weight's float
                    assert type(q) is type(config.correction(scalar, n, m)) is np.float64, (config, d)
                    assert all(np.ndim(v) == 0 for v in reported.values()), (config, d)
                    assert _hex(q) == _hex(vector), (config, d)
            assert _hex(dk.gamma_hd(s)) == _hex(HellingerPowerPrior().gamma_est(one, n, m)[0])
            assert _hex(dk.gamma_eb(s)) == _hex(EmpiricalBayesPowerPrior().gamma_est(one, n, m)[0])


def test_lstp_profile_objective_stationary_at_mode():
    n, m, v = 300, 3000, 3
    dh = np.array([0.02, 0.08, -0.15, 0.4])
    mode = lstp_delta_mode(dh, n, m, v)
    eps = 1e-6
    up = lstp_profile_objective(mode + eps, dh, n, m, v)
    down = lstp_profile_objective(mode - eps, dh, n, m, v)
    center = lstp_profile_objective(mode, dh, n, m, v)
    assert np.all(center <= up + 1e-12) and np.all(center <= down + 1e-12)


def _nonsmooth_cells(f, span=12.0, cells=240_000):
    """Cells of a fine grid on [-span, span] where ``f`` has a kink or a jump.

    A cell is flagged when the one-sided slopes at its two ends disagree, or its
    chord slope leaves their mean, by more than 1e-3.  On the smooth stretches
    of every weight here the disagreement stays below 2e-4 (ammse at 0); the
    smallest kink found is hdpp's 0.014.  Returns the cells' ends and sizes.
    """
    x = np.linspace(-span, span, cells + 1) + 0.5 * span / cells  # 0 falls inside a cell
    eps = 1e-2 * (x[1] - x[0])
    fx = f(x)
    right = (f(x[:-1] + eps) - fx[:-1]) / eps
    left = (fx[1:] - f(x[1:] - eps)) / eps
    chord = np.diff(fx) / np.diff(x)
    size = np.maximum(np.abs(left - right), np.abs(chord - 0.5 * (left + right)))
    k = np.flatnonzero(size > 1e-3)
    return x[k], x[k + 1], size[k]


def _assert_kinks_declared(f, declared):
    lo, hi, size = _nonsmooth_cells(f)
    for a, b, jump in zip(lo, hi, size):
        assert np.any((a <= declared) & (declared <= b)), f"undeclared kink {jump:.3g} in [{a:.5f}, {b:.5f}]"
    for d in declared[np.abs(declared) < 12.0]:
        assert np.any((lo <= d) & (d <= hi)), f"declared breakpoint {d:.5f} is smooth"


_UNDECLARED_KINKS = {
    "ebpp": "weight slope drops by 1.98 per sd of delta_hat at |delta_hat| = sd (gamma leaves its "
            "clamp at 1); declaring it moves power.csv's ebpp rows by 1.8e-3 relative",
    "hdpp": "weight slope jumps by 0.0139 per sd of delta_hat at 0 (gamma falls like 1 - 2 "
            "sqrt(n/8)|delta_hat|); declaring it moves power.csv's hdpp rows by 1.6e-7",
}


@pytest.mark.parametrize(
    "config, n, m",
    [
        pytest.param(c, 1000, 100_000, id=c.id, marks=[
            pytest.mark.xfail(strict=True, reason=_UNDECLARED_KINKS[c.id])
        ] if c.id in _UNDECLARED_KINKS else [])
        for c in ALL_KINDS
    ] + [
        pytest.param(StudentTPriorBayes(), 1000, 100, id="lstp-1000-100"),  # the mode's root switch
    ],
)
def test_every_kink_of_the_weight_is_a_declared_breakpoint(config, n, m):
    # in sd units of delta_hat, on the weight q(d)/d: q = w d is kinked where w
    # is, except at 0, where a kink of w leaves q with a jump in curvature
    s = math.sqrt(1.0 / n + 1.0 / m)
    _assert_kinks_declared(
        lambda u: conflict_correction(config, u * s, n, m) / (u * s),
        np.array(config.breakpoints(n, m)) / s,
    )


@pytest.mark.parametrize("config", [*ALL_KINDS, OracleMmse()], ids=estimator_id)
@pytest.mark.parametrize("n, m", [(1000, 100_000), (1000, 100)])
def test_every_correction_is_odd(config, n, m):
    # q(-t; -delta) = -q(t; delta): the risk module folds the MSE onto |delta| on this
    s = math.sqrt(1.0 / n + 1.0 / m)
    kinks = np.abs(np.array([*config.breakpoints(n, m), s]))  # s: ebpp's undeclared kink
    t = np.concatenate([
        np.linspace(0.0, 12.0 * s, 481),
        np.geomspace(1e-9 * s, s, 19),
        kinks, np.nextafter(kinks, 0.0), np.nextafter(kinks, np.inf),
    ])
    t = np.concatenate([t, -t])
    if isinstance(config, StudentTPriorBayes):
        # at m < n / 5 the arccos branch of the cubic solve is in play, its root switch among the kinks
        assert np.any(_lstp_cubic_discriminant(t, n, m, config.v) < 0.0) == (m < n / 5)
    for delta in np.array([0.0, 0.3, 1.58, 5.06]) / math.sqrt(n):
        plus = conflict_correction(config, t, n, m, delta_true=delta)
        minus = conflict_correction(config, -t, n, m, delta_true=-delta)
        assert np.array_equal(minus, -plus), (n, m, delta)


@pytest.mark.parametrize(
    "config", [c for c in [*ALL_KINDS, OracleMmse()] if c.limit_breakpoints is not None], ids=estimator_id
)
@pytest.mark.parametrize("h", [0.0, 1.58])
def test_every_kink_of_the_limit_weight_is_declared(config, h):
    # the limit weight is the borrowing term over xi / sqrt(1 - p); the limit law splits its panels
    # at the finite breakpoints at n = p, m = 1 - p, in sd units of the conflict, and at limit_breakpoints
    p = 1000 / 101_000
    scaled = np.array(config.breakpoints(p, 1.0 - p)) * math.sqrt(p * (1.0 - p))
    if isinstance(config, TtPool):
        np.testing.assert_allclose(scaled, [-math.sqrt(config.c), math.sqrt(config.c)], rtol=1e-15)
    _assert_kinks_declared(
        lambda xi: _law.limit_borrowing(config, xi, p, h) * math.sqrt(1.0 - p) / xi,
        np.concatenate([scaled, config.limit_breakpoints]),
    )
