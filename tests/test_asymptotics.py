import math
from dataclasses import dataclass
from typing import get_args

import numpy as np
import pytest

from dibkit import _law
from dibkit._law import ConditionalLaw, LimitLaw, limit_borrowing
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
    config_from_id,
)
from dibkit.montecarlo import ks_distance
from dibkit.streams import addressed_normals

P_PAPER = 1000 / 101_000
H_DEFAULT = (0.0, 1.58, 5.06)  # the asymptotics-check defaults


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


@pytest.mark.parametrize("name", KS_ESTIMATORS)
def test_limit_law_matches_limit_sample(name):
    kind, draws = config_from_id(name), 400_000
    for i, h in enumerate(H_DEFAULT):
        sc = LocalScenario(h=h, p=P_PAPER)
        law = LimitLaw(kind, sc.p, sc.h)
        sample = np.sort(limit_sample(kind, sc, draws, seed=41 + i))
        for prob in (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
            below = np.searchsorted(sample, law.quantiles([prob])[0], side="right") / draws
            assert abs(below - prob) <= 4.0 * math.sqrt(prob * (1.0 - prob) / draws), (h, prob)
        squares = sample * sample
        root = limit_srmse(kind, sc, draws)
        se_root = np.std(squares, ddof=1) / math.sqrt(draws) / (2.0 * root)
        assert abs(math.sqrt(np.mean(squares)) - root) <= 4.0 * se_root, h


# Measured CDF changes on the 401-point grid between the 1e-7 quantiles,
# largest over the default h: 7.0e-13 mle, 4.4e-16 pooled, 3.3e-13 ttpool,
# 8.2e-12 ammse, 6.8e-9 ebpp and 2.5e-6 hdpp.
LIMIT_HALVING_TOLERANCE = {"ebpp": 1e-8, "hdpp": 5e-6}


@pytest.mark.parametrize("name", KS_ESTIMATORS)
def test_limit_law_panel_halving(name, monkeypatch):
    kind = config_from_id(name)
    for h in H_DEFAULT:
        coarse = LimitLaw(kind, P_PAPER, h)
        zs = coarse.grid(401)
        with monkeypatch.context() as patch:
            patch.setattr(_law, "_PANEL_WIDTH", 0.5 * _law._PANEL_WIDTH)
            finer = LimitLaw(kind, P_PAPER, h)
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


@pytest.mark.parametrize("n, m", [(1000, 100_000), (94, 20_000), (50, 50), (3, 7)])
def test_limit_weight_is_the_finite_weight_at_the_scaled_conflict(n, m):
    # the limit law is the finite law at n = p, m = 1 - p: a limit kind's correction, in sd units of
    # the conflict statistic, depends on n and m only through p.  So with p = n/(n+m), delta_hat =
    # xi sqrt(1/n + 1/m) and delta = h/sqrt(n) the finite weight at (n, m) is the limit weight, the
    # borrowing term over xi / sqrt(1 - p); hdpp's exp(-x) of the two roundings of the same x leaves
    # the largest gap
    kinds = [config_from_id(k.id) for k in get_args(EstimatorConfig) if k is not GeneralizedBorrow]
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
            finite = kind.weight(xi * s_del, n, m, delta_true=h / math.sqrt(n)) * (xi / r)
            np.testing.assert_allclose(finite, limit, rtol=1e-13, atol=0.0, err_msg=f"{kind.id} h={h}")
            if kind.id in closed:
                oracle = closed[kind.id](h) * (xi / r)
                np.testing.assert_allclose(limit, oracle, rtol=1e-15, atol=0.0, err_msg=f"{kind.id} h={h}")
    assert checked == {"mle", "pooled", "ttpool", "ommse", "ammse", "ammse-s", "gdib", "ebpp", "hdpp"}
    # the limit law splits its panels at the finite breakpoints at n = p, m = 1 - p, in sd units
    ttpool_kinks = np.array(TtPool().breakpoints(p, 1.0 - p)) * math.sqrt(p * (1.0 - p))
    np.testing.assert_allclose(ttpool_kinks, [-math.sqrt(3.84), math.sqrt(3.84)], rtol=1e-15)


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
        finite = ConditionalLaw(kind, n, m, 0.0, h / math.sqrt(n))
        sc = LocalScenario(h=h, p=n / (n + m))
        assert finite.distance(LimitLaw(kind, sc.p, sc.h)) <= 2e-4
        bare.append(finite.distance(LimitLaw(_BareForm(kind), sc.p, sc.h)))
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
    finite, limit = ConditionalLaw(kind, n, m, 0.0, h / math.sqrt(n)), LimitLaw(kind, n / (n + m), h)
    z = finite.grid(401)
    k = int(np.argmax(np.abs(finite.cdf(z) - limit.cdf(z))))
    # 20,001 points 2.5e-6 apart: the gap is smooth, so the scan falls short of its peak by at
    # most |f' - g'| (1.25e-6)^2 / 2, below 1e-16 here; 200,001 points agree and cost 5 s a case
    dense = np.linspace(z[max(k - 1, 0)], z[min(k + 1, z.size - 1)], 20_001)
    scan = max(np.max(np.abs(finite.cdf(c) - limit.cdf(c))) for c in np.array_split(dense, 20))
    # 1e-15: the rounding of a difference of two CDFs, all there is at h = 0
    assert finite.distance(limit) == pytest.approx(scan, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("name", KS_ESTIMATORS)
def test_distance_of_a_law_from_itself_is_zero(name):
    law = ConditionalLaw(config_from_id(name), 1000, 100_000, 0.0, 0.05)
    assert law.distance(law) <= 1e-14


def test_xi_uncorrelated_with_pooled_limit():
    sc = LocalScenario(h=2.5, p=0.35)
    z1 = addressed_normals(8, 0, 0, 1_000_000)
    z2 = addressed_normals(8, 0, 1_000_000, 1_000_000)
    xi = math.sqrt(0.65) * (2.5 - z1) + math.sqrt(0.35) * z2
    pooled = limit_value(Pooled(), sc, z1, z2)
    r = np.corrcoef(xi, pooled)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(z1.size)


def test_unsupported_kinds_raise():
    sc = LocalScenario(h=0.0, p=0.2)
    rng = np.random.default_rng(0)
    for kind in (AdaptiveLasso(), NormalPriorBayes(), StudentTPriorBayes(), LimitedTranslation()):
        with pytest.raises(ValueError, match="no closed limit law"):
            limit_draw(kind, sc, rng)


def test_limit_draw_fields():
    sc = LocalScenario(h=1.0, p=0.3)
    draw = limit_draw(SensitivityMmse(0.5), sc, np.random.default_rng(12))
    xi = math.sqrt(0.7) * (1.0 - draw.zeta1) + math.sqrt(0.3) * draw.zeta2
    assert draw.xi == pytest.approx(xi, abs=1e-14)
    w = 0.7 / (1.0 + 0.5 * xi * xi)
    assert draw.value == pytest.approx(draw.zeta1 + w * xi / math.sqrt(0.7), abs=1e-14)
