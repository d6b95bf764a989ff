import math

import pytest
from hypothesis import given, strategies as st

from dibkit import (
    BinomialRaw,
    StandardizedSummary,
    TwoSampleSummary,
    conflict_stats,
    from_raw_binomial,
    standardized_two_sample,
)


def test_prams_ingestion(prams):
    raw, cur, ext = prams["raw"], prams["cur"], prams["ext"]
    assert raw.theta_hat == pytest.approx(0.393617, abs=5e-7)
    assert cur.sd == pytest.approx(0.4886, abs=5e-5)
    assert ext.sd == pytest.approx(0.4864, abs=5e-5)
    # the published display swaps the two standardized values; the arithmetic
    # 0.3936/0.4886 gives 0.8057 for the current sample and 0.7895 for the
    # external one, consistent with the published z statistic 1.1963
    assert cur.value_st == pytest.approx(0.805682, abs=5e-7)
    assert ext.value_st == pytest.approx(0.789542, abs=5e-7)
    z1 = math.sqrt(94) * (cur.value_st - (1.0 / 3.0) / cur.sd)
    assert z1 == pytest.approx(1.1963, abs=5e-5)


def test_half_rate_standardizes_to_one():
    _, (cur, _) = from_raw_binomial(BinomialRaw(5, 10), BinomialRaw(7, 14))
    assert cur.value_st == pytest.approx(1.0)
    assert cur.sd == pytest.approx(0.5)


def test_degenerate_rate_rejected():
    with pytest.raises(ValueError, match="zero sample SD"):
        from_raw_binomial(BinomialRaw(0, 10), BinomialRaw(1, 10))
    with pytest.raises(ValueError, match="zero sample SD"):
        from_raw_binomial(BinomialRaw(3, 10), BinomialRaw(10, 10))


def test_conflict_stats_examples():
    s = TwoSampleSummary(0.5, 50, 0.5, 70)
    assert conflict_stats(s)[:2] == (0.0, 0.0)

    s = TwoSampleSummary(0.0, 100, 1.0, 400)
    d, xi, p = conflict_stats(s)
    assert d == 1.0
    assert xi == pytest.approx(1.0 / math.sqrt(0.0125))
    assert p == pytest.approx(0.2)

    s = TwoSampleSummary(0.1, 64, 0.7, 64)
    _, xi, _ = conflict_stats(s)
    assert xi == pytest.approx(0.6 * math.sqrt(32.0))


def test_summary_validation():
    with pytest.raises(ValueError):
        TwoSampleSummary(0.0, 0, 1.0, 10)
    with pytest.raises(ValueError):
        TwoSampleSummary(math.nan, 10, 1.0, 10)
    with pytest.raises(ValueError):
        BinomialRaw(5, 0)
    with pytest.raises(ValueError):
        BinomialRaw(11, 10)
    with pytest.raises(ValueError, match="sd must be positive"):
        StandardizedSummary(0.5, 0.0, 10)
    with pytest.raises(ValueError, match="size must be positive"):
        StandardizedSummary(0.5, 0.4, 0)


def test_summary_rejects_an_overflowing_conflict():
    # both means are finite, but beta_hat - theta_hat is -inf
    with pytest.raises(ValueError, match="conflict"):
        TwoSampleSummary(1e308, 1, -1e308, 1)


@given(
    theta=st.floats(-5, 5),
    beta=st.floats(-5, 5),
    n=st.integers(1, 10_000),
)
def test_xi_antisymmetric_when_sizes_match(theta, beta, n):
    a = conflict_stats(TwoSampleSummary(theta, n, beta, n))[1]
    b = conflict_stats(TwoSampleSummary(beta, n, theta, n))[1]
    assert a == pytest.approx(-b, abs=1e-12)


@given(
    k1=st.integers(1, 93),
    k2=st.integers(1, 19_999),
)
def test_standardization_round_trip(k1, k2):
    raw, (cur, ext) = from_raw_binomial(BinomialRaw(k1, 94), BinomialRaw(k2, 20_000))
    assert cur.raw == pytest.approx(raw.theta_hat, abs=1e-12)
    assert ext.raw == pytest.approx(raw.beta_hat, abs=1e-12)
    st_summary = standardized_two_sample(cur, ext)
    assert st_summary.n == 94 and st_summary.m == 20_000
