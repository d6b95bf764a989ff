import math
from dataclasses import dataclass
from typing import get_args

import numpy as np
import pytest
from scipy.special import ndtr

from dibkit import _law
from dibkit._law import ConditionalLaw, conditional_laws, distances, grids, limit_borrowing, limit_laws, quantiles
from dibkit.asymptotics import (
    EXTERNAL_MLE,
    LocalScenario,
    limit_draw,
    limit_law_theorem4,
    limit_sample,
    limit_srmse,
    limit_value,
)
from dibkit.cli import KS_ESTIMATORS
from dibkit.estimators import (
    AdaptiveLasso,
    AdaptiveMmse,
    EmpiricalBayesPowerPrior,
    EstimatorConfig,
    FixedPowerPrior,
    GeneralizedBorrow,
    HellingerPowerPrior,
    Mle,
    NormalPriorBayes,
    OracleMmse,
    Pooled,
    SensitivityMmse,
    TestThenPool as TtPool,
    config_from_id,
    conflict_correction,
    estimator_id,
)
from dibkit.montecarlo import ks_distance
from dibkit.streams import addressed_normals

P_PAPER = 1000 / 101_000
H_DEFAULT = (0.0, 1.58, 5.06)  # the asymptotics-check defaults
# the default check's kinds and the other kinds with a limit law, power-prior at a gamma that borrows less than pooled
LIMIT_KINDS = (*KS_ESTIMATORS, "np", "lstp", "ltr", "power-prior")


def _limit_kind(name):
    return config_from_id(name, gamma=0.4)


def test_scenario_validation():
    with pytest.raises(ValueError):
        LocalScenario(h=1.0, p=0.0)
    with pytest.raises(ValueError):
        LocalScenario(h=math.inf, p=0.5)


def test_pooled_law_moments():
    sc = LocalScenario(h=0.0, p=0.3)
    vals = limit_sample(Pooled(), sc, 200_000, seed=1)
    se_mean = math.sqrt(0.3 / vals.size)
    assert abs(vals.mean()) < 4 * se_mean
    assert vals.var() == pytest.approx(0.3, rel=0.02)

    sc_h = LocalScenario(h=2.0, p=0.3)
    vals_h = limit_sample(Pooled(), sc_h, 200_000, seed=1)
    assert vals_h.mean() == pytest.approx(0.7 * 2.0, abs=4 * se_mean)


def test_external_mle_law():
    sc = LocalScenario(h=1.5, p=0.2)
    vals = limit_sample(EXTERNAL_MLE, sc, 200_000, seed=2)
    assert vals.mean() == pytest.approx(1.5, abs=0.01)
    assert vals.var() == pytest.approx(0.25, rel=0.03)


def test_ttpool_mixture_weight_at_zero_conflict():
    sc = LocalScenario(h=0.0, p=P_PAPER)
    z1 = addressed_normals(3, 0, 0, 400_000)
    z2 = addressed_normals(3, 0, 400_000, 400_000)
    ttp = limit_value(TtPool(c=3.84), sc, z1, z2)
    pooled = limit_value(Pooled(), sc, z1, z2)
    frac_pooled = np.mean(ttp == pooled)
    # xi ~ N(0,1) at h=0, so the pooling branch fires with chi^2_1 mass at 3.84
    assert frac_pooled == pytest.approx(0.95, abs=0.002)


def test_gdib_matches_adaptive_mmse_per_draw():
    p = 0.25
    sc = LocalScenario(h=1.2, p=p)
    z1 = addressed_normals(5, 0, 0, 10_000)
    z2 = addressed_normals(5, 0, 10_000, 10_000)

    def g_limit(t):
        return (1.0 - p) / (1.0 + (1.0 - p) * np.asarray(t, float))

    via_g = limit_value(GeneralizedBorrow(g=g_limit, sens=1.0), sc, z1, z2)
    direct = limit_value(AdaptiveMmse(), sc, z1, z2)
    np.testing.assert_allclose(via_g, direct, rtol=0, atol=1e-13)


def test_corollary2_display_form_per_draw():
    # zeta1 + sqrt(1-p) * xi / (1 + xi^2) is the same map written explicitly
    sc = LocalScenario(h=0.7, p=0.1)
    z1 = addressed_normals(6, 0, 0, 5000)
    z2 = addressed_normals(6, 0, 5000, 5000)
    xi = math.sqrt(0.9) * (0.7 - z1) + math.sqrt(0.1) * z2
    display = z1 + math.sqrt(0.9) * xi / (1.0 + xi * xi)
    np.testing.assert_allclose(limit_value(AdaptiveMmse(), sc, z1, z2), display, atol=1e-13)


def test_ammse_far_conflict_recovers_standard_normal():
    sc = LocalScenario(h=50.0, p=P_PAPER)
    vals = limit_sample(AdaptiveMmse(), sc, 1_000_000, seed=9)
    z = addressed_normals(10, 0, 0, 1_000_000)
    assert ks_distance(vals, z) < 0.01


@pytest.mark.parametrize("size", [1, 4097, 10_000])
def test_limit_sample_maps_the_two_halves_of_one_addressed_call(size):
    sc = LocalScenario(h=1.58, p=P_PAPER)
    z = addressed_normals(4, 2, 0, 2 * size)
    expected = limit_value(AdaptiveMmse(), sc, z[:size], z[size:])
    np.testing.assert_array_equal(limit_sample(AdaptiveMmse(), sc, size, seed=4, stream=2), expected)


def test_theorem4_law():
    sc = LocalScenario(h=0.0, p=0.37)
    law = limit_law_theorem4(sc)
    assert (law.mean, law.variance) == (0.0, 0.37)
    nearly_all_current = limit_law_theorem4(LocalScenario(h=3.0, p=0.9999))
    assert nearly_all_current.variance == pytest.approx(1.0, abs=1e-3)
    assert nearly_all_current.mean == pytest.approx(0.0, abs=1e-3)
    paper_point = limit_law_theorem4(LocalScenario(h=5.0, p=0.0099))
    assert paper_point.mean == pytest.approx(4.9505)
    assert paper_point.variance == pytest.approx(0.0099)


def test_limit_srmse():
    sc = LocalScenario(h=1.3, p=0.4)
    assert limit_srmse(Mle(), sc, 10) == 1.0
    sc0 = LocalScenario(h=0.0, p=P_PAPER)
    assert limit_srmse(Pooled(), sc0, 10) == pytest.approx(math.sqrt(P_PAPER))
    val, se = limit_srmse(OracleMmse(), sc0, 400_000, seed=4, return_stderr=True)
    assert val == pytest.approx(math.sqrt(P_PAPER), abs=5 * se + 5e-4)


@pytest.mark.parametrize("h", H_DEFAULT + (-2.0,))
@pytest.mark.parametrize("p", (P_PAPER, 0.4))
def test_pooled_limit_srmse_is_the_closed_form(h, p):
    sc = LocalScenario(h=h, p=p)
    exact = math.sqrt(p + (1.0 - p) ** 2 * h * h)
    assert limit_srmse(Pooled(), sc, 1) == pytest.approx(exact, rel=0, abs=1e-12)
    assert limit_srmse(EXTERNAL_MLE, sc, 1) == math.sqrt(p / (1.0 - p) + h * h)
    assert limit_srmse(Pooled(), sc, 1, seed=5, return_stderr=True)[1] == 0.0


# Largest measured |sample share below a law quantile - prob| over the default h, in binomial sds:
# 2.5 mle, 3.0 pooled, 2.5 ttpool, 2.6 ammse, 2.7 ebpp, 1.7 hdpp, 2.1 np, 2.4 lstp, 2.5 ltr,
# 2.7 power-prior; of the root mean square, in its standard errors, at most 2.6 (power-prior)
@pytest.mark.parametrize("name", LIMIT_KINDS)
def test_limit_law_matches_limit_sample(name):
    kind, draws = _limit_kind(name), 400_000
    for i, h in enumerate(H_DEFAULT):
        sc = LocalScenario(h=h, p=P_PAPER)
        (law,) = limit_laws(kind, sc.p, [sc.h])
        sample = np.sort(limit_sample(kind, sc, draws, seed=41 + i))
        for prob in (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
            below = np.searchsorted(sample, quantiles([law], [prob])[0], side="right") / draws
            assert abs(below - prob) <= 4.0 * math.sqrt(prob * (1.0 - prob) / draws), (h, prob)
        squares = sample * sample
        root = limit_srmse(kind, sc, draws)
        se_root = np.std(squares, ddof=1) / math.sqrt(draws) / (2.0 * root)
        assert abs(math.sqrt(np.mean(squares)) - root) <= 4.0 * se_root, h


# Measured CDF changes on the 401-point grid between the 1e-7 quantiles,
# largest over the default h: 7.0e-13 mle, 3.3e-16 pooled, 3.3e-13 ttpool,
# 8.2e-12 ammse, 6.8e-9 ebpp, 2.5e-6 hdpp, 6.7e-16 np, 2.3e-11 lstp,
# 3.3e-13 ltr and 4.4e-16 power-prior.
LIMIT_HALVING_TOLERANCE = {"ebpp": 1e-8, "hdpp": 5e-6}


@pytest.mark.parametrize("name", LIMIT_KINDS)
def test_limit_law_panel_halving(name, monkeypatch):
    kind = _limit_kind(name)
    for h in H_DEFAULT:
        (coarse,) = limit_laws(kind, P_PAPER, [h])
        zs = grids([coarse], 401)[0][0]
        with monkeypatch.context() as patch:
            patch.setattr(_law, "_PANEL_WIDTH", 0.5 * _law._PANEL_WIDTH)
            (finer,) = limit_laws(kind, P_PAPER, [h])
        assert finer.weights.size > coarse.weights.size  # the width took effect
        change = np.max(np.abs(finer.cdf(zs) - coarse.cdf(zs)))
        assert change <= LIMIT_HALVING_TOLERANCE.get(name, 1e-10), h


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_prior_limit_weight_stays_finite_far_out():
    # xi = 13.5: the Hellinger gamma underflows to 0, and the weight must not divide by it
    sc = LocalScenario(h=5.06, p=0.5)
    assert limit_value(HellingerPowerPrior(), sc, [-7.0], [7.0]) == pytest.approx([-7.0])
    for kind in (HellingerPowerPrior(), EmpiricalBayesPowerPrior()):
        assert math.isfinite(limit_srmse(kind, sc, 1))


@pytest.mark.parametrize("n, m", [(1000, 100_000), (94, 20_000), (50, 50), (3, 7), (1, 10**9)])
def test_limit_weight_is_the_finite_weight_at_the_scaled_conflict(n, m):
    # the limit law is the finite law at n = p, m = 1 - p: a limit kind's correction, in sd units of
    # the conflict statistic, depends on n and m only through p.  So with p = n/(n+m), delta_hat =
    # xi sqrt(1/n + 1/m) and delta = h/sqrt(n), sqrt(n) times the finite correction at (n, m) is the
    # limit's borrowing term; hdpp's exp(-x) of the two roundings of the same x leaves the largest gap
    kinds = [config_from_id(k.id, gamma=0.4) for k in get_args(EstimatorConfig) if k is not GeneralizedBorrow]
    kinds.append(GeneralizedBorrow(g=lambda x: 1.0 / (1.0 + x), sens=0.5))
    p, r, s_del = n / (n + m), math.sqrt(m / (n + m)), math.sqrt(1.0 / n + 1.0 / m)
    xi = np.linspace(-12.0, 12.0, 2401)
    # the closed forms from the proofs, as independent oracles, for the kinds no other test writes out
    ebpp_gamma = p / (np.maximum(xi * xi, 1.0) - 1.0 + p)
    closed = {
        "ttpool": lambda h: np.where(xi * xi >= 3.84, 0.0, 1.0 - p),
        "ommse": lambda h: (1.0 - p) / (1.0 + (1.0 - p) * h * h),
        "ebpp": lambda h: (1.0 - p) * ebpp_gamma / ((1.0 - p) * ebpp_gamma + p),
    }
    checked = set()
    for kind in kinds:
        try:
            limit_borrowing(kind, xi, p, 0.0)
        except ValueError:
            continue
        checked.add(kind.id)
        for h in H_DEFAULT:
            limit = limit_borrowing(kind, xi, p, h)
            finite = math.sqrt(n) * conflict_correction(kind, xi * s_del, n, m, delta_true=h / math.sqrt(n))
            np.testing.assert_allclose(finite, limit, rtol=1e-13, atol=0.0, err_msg=f"{kind.id} h={h}")
            if kind.id in closed:
                oracle = closed[kind.id](h) * (xi / r)
                np.testing.assert_allclose(limit, oracle, rtol=1e-15, atol=0.0, err_msg=f"{kind.id} h={h}")
    assert checked == {k.id for k in get_args(EstimatorConfig)} - {"alasso"}
    # the limit law splits its panels at the finite breakpoints at n = p, m = 1 - p, in sd units
    ttpool_kinks = np.array(TtPool().breakpoints(p, 1.0 - p)) * math.sqrt(p * (1.0 - p))
    np.testing.assert_allclose(ttpool_kinks, [-math.sqrt(3.84), math.sqrt(3.84)], rtol=1e-15)


@pytest.mark.parametrize("p", (P_PAPER, 0.4))
@pytest.mark.parametrize("kind", [NormalPriorBayes(), FixedPowerPrior(0.4)], ids=estimator_id)
def test_normal_limit_laws_are_the_closed_forms(kind, p):
    # a constant weight w makes the limit zeta1 + w (h - zeta1) + w sqrt(p/(1-p)) zeta2, which is normal
    # with mean w h and variance (1 - w)^2 + w^2 p/(1-p)
    w = {"np": (1.0 - p) / (2.0 - p), "power-prior": (1.0 - p) * 0.4 / ((1.0 - p) * 0.4 + p)}[kind.id]
    hs = H_DEFAULT + (-2.0,)
    for h, law in zip(hs, limit_laws(kind, p, hs)):
        mean, sd = w * h, math.sqrt((1.0 - w) ** 2 + w * w * p / (1.0 - p))
        z = mean + sd * np.linspace(-10.0, 10.0, 2001)
        np.testing.assert_allclose(law.cdf(z), ndtr((z - mean) / sd), rtol=0.0, atol=1e-14)
        root = limit_srmse(kind, LocalScenario(h=h, p=p), 1)
        assert root == pytest.approx(math.sqrt(mean * mean + sd * sd), rel=0.0, abs=1e-15), h


@dataclass(frozen=True)
class _BareForm:
    """The displayed form ``zeta1 + w(xi) xi``, without the ``1/sqrt(1-p)``."""

    kind: object

    def correction(self, d, n, m, delta_true=None):
        return self.kind.correction(d, n, m, delta_true) * math.sqrt(m / (n + m))

    def breakpoints(self, n, m):
        return self.kind.breakpoints(n, m)

    @property
    def limit_breakpoints(self):
        return self.kind.limit_breakpoints


@pytest.mark.parametrize("name", KS_ESTIMATORS)
def test_exact_check_fails_the_bare_displayed_form(name):
    # measured sup distances of the bare form, largest over the default h:
    # pooled 0.39, ttpool 0.072, ebpp 0.044, ammse 0.031, hdpp 0.022 at n = m = 1000;
    # pooled 0.099 at the defaults, h = 5.06.  For mle, w = 0 and the forms agree.
    kind = config_from_id(name)
    cases = [(1000, 1000, h) for h in H_DEFAULT] + [(1000, 100_000, 5.06)] * (name == "pooled")
    bare = []
    for n, m, h in cases:
        finite = conditional_laws(kind, n, m, 0.0, [h / math.sqrt(n)])
        p = n / (n + m)
        assert distances(finite, limit_laws(kind, p, [h]))[0] <= 2e-4
        bare.append(distances(finite, limit_laws(_BareForm(kind), p, [h]))[0])
    if name == "mle":
        assert max(bare) <= 1e-12
    else:
        assert max(bare[:3]) > 0.02 and min(bare[3:], default=1.0) > 0.02


@pytest.mark.parametrize("h", H_DEFAULT)
@pytest.mark.parametrize("name", ["ebpp", "hdpp"])
def test_distance_matches_a_dense_scan_of_the_cells_beside_the_grid_argmax(name, h):
    # the finite and limit laws differ only here, at the asymptotics-check defaults
    n, m = 1000, 100_000
    kind = config_from_id(name)
    (finite,), (limit,) = conditional_laws(kind, n, m, 0.0, [h / math.sqrt(n)]), limit_laws(kind, n / (n + m), [h])
    z = grids([finite], 401)[0][0]
    k = int(np.argmax(np.abs(finite.cdf(z) - limit.cdf(z))))
    # 20,001 points 2.5e-6 apart: the gap is smooth, so the scan falls short of its peak by at
    # most |f' - g'| (1.25e-6)^2 / 2, below 1e-16 here; 200,001 points agree and cost 5 s a case
    dense = np.linspace(z[max(k - 1, 0)], z[min(k + 1, z.size - 1)], 20_001)
    scan = max(np.max(np.abs(finite.cdf(c) - limit.cdf(c))) for c in np.array_split(dense, 20))
    # 1e-15: the rounding of a difference of two CDFs, all there is at h = 0
    assert distances([finite], [limit])[0] == pytest.approx(scan, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("name", KS_ESTIMATORS)
def test_distance_of_a_law_from_itself_is_zero(name):
    law = conditional_laws(config_from_id(name), 1000, 100_000, 0.0, [0.05])
    assert distances(law, law)[0] <= 1e-14


def test_xi_uncorrelated_with_pooled_limit():
    sc = LocalScenario(h=2.5, p=0.35)
    z1 = addressed_normals(8, 0, 0, 1_000_000)
    z2 = addressed_normals(8, 0, 1_000_000, 1_000_000)
    xi = math.sqrt(0.65) * (2.5 - z1) + math.sqrt(0.35) * z2
    pooled = limit_value(Pooled(), sc, z1, z2)
    r = np.corrcoef(xi, pooled)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(z1.size)


def _one_limit_law_reference(kind, p, h):
    """Weights and node means of one ``h``'s limit law laid out over ``xi``, the limit of the conflict z-statistic.

    The mixture runs over ``xi ~ N(sqrt(1-p) h, 1)``, its panels split at the
    scaled ``breakpoints(p, 1-p)`` and at ``limit_breakpoints``, with node
    mean ``w(xi) xi / sqrt(1-p) - sqrt(1-p) (xi - sqrt(1-p) h)`` and sd
    ``sqrt(p)``: a layout apart from ``conditional_laws``, kept as an oracle.
    """
    r, scale = math.sqrt(1.0 - p), math.sqrt(p * (1.0 - p))
    kinks = [b * scale for b in kind.breakpoints(p, 1.0 - p)] + list(kind.limit_breakpoints)
    center = r * h
    lo, hi = center - _law._SPAN, center + _law._SPAN
    edges = sorted({lo, hi, *(k for k in kinks if lo < k < hi)})
    xi, w, _ = _law._panels(np.array(edges[:-1]), np.array(edges[1:]), _law._PANEL_RULE, _law._PANEL_WIDTH)
    w = w * (np.exp(-((xi - center) ** 2) / 2.0) / math.sqrt(2.0 * math.pi))
    return w, limit_borrowing(kind, xi, p, h) - r * (xi - r * h)


@pytest.mark.parametrize("p", [1000 / 101_000, 94 / 20_094, 300 / 3300, 1000 / 1100, 0.5])
def test_limit_laws_equal_one_h_builds_bit_for_bit(p, monkeypatch):
    # every kind with a limit law: each id (power-prior at gamma = 0.4), gdib, and ommse at delta_true None and 0;
    # p = 1000/1100 is above lstp's root switch at 5/6
    kinds = [config_from_id(k.id, gamma=0.4) for k in get_args(EstimatorConfig) if k is not GeneralizedBorrow]
    kinds += [GeneralizedBorrow(g=lambda x: 1.0 / (1.0 + x), sens=0.5), OracleMmse(delta_true=0.0)]
    hs = (0.0, 0.32, 1.58, 5.06, -2.0)
    checked = []
    for kind in kinds:
        if kind.limit_breakpoints is None:
            continue
        checked.append(estimator_id(kind))
        laws = limit_laws(kind, p, hs)
        assert len(laws) == len(hs)
        for h, law in zip(hs, laws):
            (one,) = limit_laws(kind, p, [h])
            assert np.array_equal(law.weights, one.weights) and np.array_equal(law.mean, one.mean), (kind, h)
            assert law.sd == one.sd == pytest.approx(math.sqrt(p), rel=1e-15)
        # the same law as the xi layout, to rounding
        oracle = [ConditionalLaw(*_one_limit_law_reference(kind, p, h), math.sqrt(p)) for h in hs]
        gaps = distances(laws, oracle)
        assert np.all(gaps <= 1e-14), (estimator_id(kind), gaps)
    assert len(checked) == len(kinds) - 1 and checked.count("ommse") == 2
    # alasso has none, and is rejected before its correction is evaluated
    monkeypatch.setattr(_law, "conflict_correction", None)
    with pytest.raises(ValueError, match="no closed limit law implemented for 'alasso'"):
        limit_laws(AdaptiveLasso(), p, hs)


def test_unsupported_kinds_raise():
    # their corrections in sd units of the conflict grow with n at a fixed p: alasso's threshold as
    # (n+m)^tau, and a set oracle conflict through n m delta_true^2
    sc = LocalScenario(h=0.0, p=0.2)
    rng = np.random.default_rng(0)
    for kind in (AdaptiveLasso(), OracleMmse(delta_true=0.3)):
        with pytest.raises(ValueError, match=f"no closed limit law implemented for '{kind.id}'"):
            limit_draw(kind, sc, rng)
    # at a set conflict of 0 the oracle weight is pooled's at every n
    for h, zero, pooled in zip(H_DEFAULT, limit_laws(OracleMmse(delta_true=0.0), 0.2, H_DEFAULT),
                               limit_laws(Pooled(), 0.2, H_DEFAULT)):
        assert np.array_equal(zero.weights, pooled.weights) and np.array_equal(zero.mean, pooled.mean), h


def test_limit_draw_fields():
    sc = LocalScenario(h=1.0, p=0.3)
    draw = limit_draw(SensitivityMmse(0.5), sc, np.random.default_rng(12))
    xi = math.sqrt(0.7) * (1.0 - draw.zeta1) + math.sqrt(0.3) * draw.zeta2
    assert draw.xi == pytest.approx(xi, abs=1e-14)
    w = 0.7 / (1.0 + 0.5 * xi * xi)
    assert draw.value == pytest.approx(draw.zeta1 + w * xi / math.sqrt(0.7), abs=1e-14)
