"""Acceptance suite: one test per criterion, one printed line per sub-check.

Entries that faithful formula evaluation cannot reproduce are split into
strict xfail tests so the red stays visible without masking the rest; each
carries the measured value and the reason in its marker.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

import dibkit as dk
from dibkit.cli import run as cli_run
from dibkit.estimators import (
    AdaptiveLasso,
    AdaptiveMmse,
    EmpiricalBayesPowerPrior,
    HellingerPowerPrior,
    LimitedTranslation,
    Mle,
    NormalPriorBayes,
    OracleMmse,
    Pooled,
    StudentTPriorBayes,
    TestThenPool as TtPool,
    alasso_delta,
    estimator_id,
)
from dibkit.asymptotics import LocalScenario, limit_sample, limit_value
from dibkit.montecarlo import SimPlan, bootstrap_ci, ks_distance, simulate
from dibkit.risk import integrated_srmse, mse_numeric, table_priors
from dibkit.streams import addressed_normals
from dibkit.summaries import TwoSampleSummary
from dibkit.testing import (
    AllDelta,
    DeltaBounded,
    DeltaZero,
    TestSpec as Spec,
    critical_value,
    p2_p3,
    power,
    pvalue,
    tipping_point,
)

N, M = 1000, 100_000


def report(criterion: str, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} {name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: Bayes-risk table
# ---------------------------------------------------------------------------

TABLE_CONFIGS = {
    "mle": Mle(),
    "pooled": Pooled(),
    "np": NormalPriorBayes(),
    "ammse": AdaptiveMmse(),
    "ttpool": TtPool(),
    "alasso": AdaptiveLasso(),
    "ebpp": EmpiricalBayesPowerPrior(),
    "hdpp": HellingerPowerPrior(),
    "ltr": LimitedTranslation(),
    "lstp": StudentTPriorBayes(),
    "ommse": OracleMmse(),
}


@pytest.fixture(scope="module")
def risk_table():
    priors = table_priors(N, M)
    start = time.time()
    table = {
        (est, pname): integrated_srmse(cfg, prior, N, M)
        for est, cfg in TABLE_CONFIGS.items()
        for pname, prior in priors.items()
    }
    table["elapsed"] = time.time() - start
    return table


def test_criterion_1_bayes_risk_table(risk_table):
    t = risk_table
    for pname in ("pi1", "pi2", "pi3", "pi4", "pi5"):
        report("1", f"mle/{pname}", abs(t[("mle", pname)] - 1.00) <= 0.01,
               f"{t[('mle', pname)]:.4f} vs 1.00 +/- 0.01")
    checks = [
        ("pooled", "pi1", 0.80, 0.03),
        ("pooled", "pi2", 1.38, 0.04),
        ("pooled", "pi3", 15.66, 0.30),
        ("np", "pi1", 0.68, 0.03),
        ("ammse", "pi3", 1.01, 0.03),
        ("ebpp", "pi1", 0.82, 0.03),
        ("hdpp", "pi4", 0.55, 0.03),
        ("ltr", "pi2", 0.87, 0.04),
        ("ommse", "pi1", 0.53, 0.03),
        ("lstp", "pi2", 0.89, 0.05),
    ]
    for est, pname, target, tol in checks:
        got = t[(est, pname)]
        report("1", f"{est}/{pname}", abs(got - target) <= tol,
               f"{got:.4f} vs {target} +/- {tol}")
    report("1", "runtime", t["elapsed"] <= 600.0, f"{t['elapsed']:.0f}s <= 600s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published heavy-tailed-prior rows match a prior scale sqrt(3)/sqrt(n), not the "
        "displayed 1/sqrt(n); the pinned objective gives 0.69/1.09/0.62/0.76 for "
        "pi1/pi3/pi4/pi5 vs published 0.80/1.02/0.76/0.83 +/- 0.05"
    ),
)
def test_criterion_1_lstp_remaining_entries(risk_table):
    t = risk_table
    for pname, target in (("pi1", 0.80), ("pi3", 1.02), ("pi4", 0.76), ("pi5", 0.83)):
        got = t[("lstp", pname)]
        report("1", f"lstp/{pname}", abs(got - target) <= 0.05, f"{got:.4f} vs {target} +/- 0.05")


# ---------------------------------------------------------------------------
# Criterion 2: closed-form identity suite
# ---------------------------------------------------------------------------


def test_criterion_2_identities():
    tol = 1e-10
    s = TwoSampleSummary(0.21, 137, 0.52, 911)
    a = dk.est_ammse(s).theta_est
    b = dk.est_ommse(s, s.delta_hat).theta_est
    report("2", "ammse=ommse@delta_hat", abs(a - b) <= tol, f"|{a:.12f}-{b:.12f}|")

    inside = TwoSampleSummary(0.1, 200, 0.1 + 0.5 * math.sqrt(1 / 200 + 1 / 800), 800)
    report("2", "ebpp=pooled@clamp", abs(dk.est_ebpp(inside).theta_est - dk.est_pooled(inside).theta_est) <= tol, "clamped region")

    flat = TwoSampleSummary(0.3, 50, 0.3, 60)
    report("2", "hdpp gamma=1@0", abs(dk.gamma_hd(flat) - 1.0) <= tol, f"{dk.gamma_hd(flat)}")

    small = TwoSampleSummary(0.0, 400, 0.01, 900)
    xi2 = small.delta_hat**2 / (1 / 400 + 1 / 900)
    assert xi2 < 3.84
    report("2", "ttpool=pooled@no-reject", abs(dk.est_ttpool(small).theta_est - dk.est_pooled(small).theta_est) <= tol, f"xi^2={xi2:.3f}")

    report("2", "ammse_s(0)=pooled", abs(dk.est_ammse_s(s, 0.0).theta_est - dk.est_pooled(s).theta_est) <= tol, "sens=0")
    report("2", "ammse_s(1)=ammse", abs(dk.est_ammse_s(s, 1.0).theta_est - dk.est_ammse(s).theta_est) <= tol, "sens=1")

    w_np = dk.est_np(s).weight
    report("2", "np weight", abs(w_np - s.m / (2 * s.m + s.n)) <= tol, f"{w_np:.12f}")

    mse_mle = mse_numeric(Mle(), 0.0, 0.07, N, M)
    report("2", "quadrature mle mse", abs(mse_mle - 1.0 / N) <= tol, f"{mse_mle:.3e} vs {1 / N:.3e}")
    delta = 0.07
    closed = (1.0 - M / (N + M + N * M * delta * delta)) / N
    mse_om = mse_numeric(OracleMmse(delta), 0.0, delta, N, M)
    report("2", "quadrature ommse mse", abs(mse_om - closed) <= tol, f"{mse_om:.6e} vs {closed:.6e}")


# ---------------------------------------------------------------------------
# Criterion 3: oracle equivalence
# ---------------------------------------------------------------------------


def _linspace_argmin(objective, start, stop, points, coarse=1000):
    """Argmin of a convex objective over ``np.linspace(start, stop, points)``.

    A pass over every ``coarse``-th node, then every node of the two coarse
    cells around its minimum; the nodes are the ones ``np.linspace`` gives.
    """
    step = (stop - start) / (points - 1)

    def nodes(idx):
        return np.where(idx == points - 1, stop, idx * step + start)

    k = int(np.argmin(objective(nodes(np.arange(0, points, coarse)))))
    fine = nodes(np.arange(max(k - 1, 0) * coarse, min((k + 1) * coarse, points - 1) + 1))
    return float(fine[np.argmin(objective(fine))])


def test_criterion_3_oracles():
    start = time.time()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 3000))
        m = int(rng.integers(5, 3000))
        dh = float(rng.uniform(0.01, 0.4)) * (1 if rng.random() < 0.5 else -1)
        tau = float(rng.uniform(0.05, 0.45))
        closed = float(alasso_delta(np.asarray(dh), n, m, tau))
        a = n * m / (n + m)

        def objective(grid):
            return a * (dh - grid) ** 2 + (n + m) ** tau * np.abs(grid) / abs(dh)

        brute = _linspace_argmin(objective, -2 * abs(dh), 2 * abs(dh), 1_000_001)
        worst = max(worst, abs(closed - brute))
    report("3", "alasso grid oracle", worst <= 1e-6, f"worst |closed-grid| = {worst:.2e} over 1000")

    from test_estimators import lstp_grid_oracle

    rng = np.random.default_rng(77)
    worst_t = 0.0
    for _ in range(100):
        theta_hat = float(rng.normal(0, 0.3))
        dh = float(rng.normal(0, 3 * math.sqrt(1 / N + 1 / M)))
        s = TwoSampleSummary(theta_hat, N, theta_hat + dh, M)
        res = dk.est_lstp(s)
        t_grid, _ = lstp_grid_oracle(s, res)
        worst_t = max(worst_t, abs(t_grid - res.theta_est))
    report("3", "lstp 2d-grid oracle", worst_t <= 1e-4, f"worst |grid-profiled| = {worst_t:.2e} over 100")
    elapsed = time.time() - start
    report("3", "runtime", elapsed <= 300.0, f"{elapsed:.0f}s <= 300s")


# ---------------------------------------------------------------------------
# Criterion 4: limit-law agreement
# ---------------------------------------------------------------------------


def test_criterion_4_limit_laws():
    draws = 100_000
    p = N / (N + M)
    configs = (Mle(), Pooled(), TtPool(), AdaptiveMmse(), EmpiricalBayesPowerPrior(), HellingerPowerPrior())
    for hi, h in enumerate((0.0, 1.58, 5.06)):
        sc = LocalScenario(h=h, p=p)
        plan = SimPlan(n=N, m=M, theta=0.0, delta=h / math.sqrt(N), replicates=draws,
                       seed=2024 + hi, estimators=configs)
        finite = simulate(plan)
        for cfg in configs:
            name = estimator_id(cfg)
            lim = limit_sample(cfg, sc, draws, seed=9000 + hi)
            ks = ks_distance(finite[name].draws, lim)
            report("4", f"ks {name}@h={h:g}", ks <= 0.02, f"KS = {ks:.4f} <= 0.02")

    z1 = addressed_normals(31, 0, 0, draws)
    z2 = addressed_normals(31, 0, draws, draws)
    sc0 = LocalScenario(h=0.0, p=p)
    ttp = limit_value(TtPool(c=3.84), sc0, z1, z2)
    pooled = limit_value(Pooled(), sc0, z1, z2)
    frac = float(np.mean(ttp == pooled))
    report("4", "ttpool mixture weight", abs(frac - 0.95) <= 0.005, f"{frac:.4f} vs 0.95 +/- 0.005")


# ---------------------------------------------------------------------------
# Criterion 5: oracle-property decay suite
# ---------------------------------------------------------------------------


def _folded_normal_median(mu: float, sd: float) -> float:
    """The median x of |Y|, Y ~ N(mu, sd^2): Phi((x - mu)/sd) - Phi((-x - mu)/sd) = 1/2."""
    return brentq(lambda x: ndtr((x - mu) / sd) - ndtr((-x - mu) / sd) - 0.5, 0.0, abs(mu) + 10.0 * sd, xtol=1e-15 * sd)


def test_criterion_5_theorem_4_6_properties():
    tau, h = 0.25, 2.0
    ratios = []
    for n in (100, 1000, 10_000, 100_000):
        m = 100 * n
        # |alasso_delta| is non-decreasing in |delta_hat|, a folded normal, so the
        # median of |delta*| is its value at the median of |delta_hat|
        med_dh = _folded_normal_median(h / math.sqrt(n), math.sqrt(1 / n + 1 / m))
        ratios.append(abs(float(alasso_delta(med_dh, n, m, tau))) / med_dh)
    non_increasing = all(b <= a + 0.02 for a, b in zip(ratios, ratios[1:]))
    report("5", "alasso shrink ratio path", non_increasing,
           " -> ".join(f"{r:.3f}" for r in ratios))
    report("5", "alasso shrink final", ratios[-1] < 0.10, f"{ratios[-1]:.4f} < 0.10")

    from dibkit.testing import alasso_local_power_decay

    rows = alasso_local_power_decay(tau, h_theta=h, h=h, n_ladder=(100, 1000, 10_000, 100_000))
    powers = [r["power"] for r in rows]
    mono = all(b <= a + 0.01 for a, b in zip(powers, powers[1:]))
    report("5", "alasso power non-increasing", mono, " -> ".join(f"{p:.3f}" for p in powers))
    report("5", "alasso power < 2 alpha @1e5", powers[-1] < 0.05, f"{powers[-1]:.4f} < 0.05")

    pooled_rows = alasso_local_power_decay(tau, h_theta=h, h=h, n_ladder=(100, 100_000),
                                           estimator=Pooled())
    pooled_powers = [r["power"] for r in pooled_rows]
    ok = pooled_powers[-1] <= pooled_powers[0] + 0.01 and pooled_powers[-1] < 0.05
    report("5", "pooled ladder decay", ok, " -> ".join(f"{p:.3f}" for p in pooled_powers))


# ---------------------------------------------------------------------------
# Criterion 6: testing-convention properties
# ---------------------------------------------------------------------------

DIB_SET = (
    Pooled(), NormalPriorBayes(), AdaptiveMmse(), TtPool(), AdaptiveLasso(),
    EmpiricalBayesPowerPrior(), HellingerPowerPrior(), LimitedTranslation(),
    StudentTPriorBayes(),
)


def test_criterion_6_testing_properties():
    alpha, theta = 0.025, 0.03
    grid = np.linspace(0.0, 4.0 / math.sqrt(N), 9)
    mle_spec = Spec(0.0, alpha, AllDelta(), Mle(), N, M)
    mle_crit = critical_value(mle_spec)
    mle_power = power(mle_spec, mle_crit, theta, 0.0)

    for cfg in DIB_SET:
        spec = Spec(0.0, alpha, AllDelta(), cfg, N, M)
        crit = critical_value(spec)
        worst = max(
            power(spec, crit, theta, d)
            for d in grid
        )
        report("6", f"all-delta mle dominates {estimator_id(cfg)}",
               worst <= mle_power + 0.01, f"max {worst:.4f} <= {mle_power:.4f} + 0.01")

    pooled_spec = Spec(0.0, alpha, DeltaZero(), Pooled(), N, M)
    pooled_power0 = power(pooled_spec, critical_value(pooled_spec), theta, 0.0)
    for cfg in DIB_SET + (Mle(),):
        if isinstance(cfg, Pooled):
            continue
        spec = Spec(0.0, alpha, DeltaZero(), cfg, N, M)
        crit = critical_value(spec)
        pw = power(spec, crit, theta, 0.0)
        report("6", f"delta-zero pooled dominates {estimator_id(cfg)}",
               pw <= pooled_power0 + 0.01, f"{pw:.4f} <= {pooled_power0:.4f} + 0.01")

    delta0 = 0.0636
    for cfg in (AdaptiveMmse(), EmpiricalBayesPowerPrior(), StudentTPriorBayes()):
        spec = Spec(0.0, alpha, DeltaBounded(delta0), cfg, N, M)
        crit = critical_value(spec)
        t1er = [
            power(spec, crit, 0.0, d)
            for d in np.linspace(0.0, delta0, 9)
        ]
        name = estimator_id(cfg)
        report("6", f"bounded t1er ceiling {name}", max(t1er) <= alpha + 0.005,
               f"max T1ER {max(t1er):.4f} <= {alpha + 0.005}")
        report("6", f"bounded t1er equality {name}", abs(max(t1er) - alpha) <= 0.005,
               f"sup T1ER {max(t1er):.4f} vs {alpha} +/- 0.005")

    spec = Spec(0.0, alpha, DeltaBounded(delta0), AdaptiveMmse(), N, M)
    crit = critical_value(spec)
    gain = max(
        power(spec, crit, theta, d) - power(mle_spec, mle_crit, theta, d)
        for d in np.linspace(0.0, delta0, 13)
    )
    report("6", "ammse sweet spot exists", gain > 0.01, f"max power gain {gain:.4f} > 0.01")


# ---------------------------------------------------------------------------
# Criterion 7: worked example end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def prams_pipeline(prams):
    start = time.time()
    s, theta0_st, sd = prams["st"], prams["theta0_st"], prams["cur"].sd
    est = dk.est_ammse_s(s, 0.4)
    ci = bootstrap_ci(
        dk.BinomialRaw(37, 94), dk.BinomialRaw(7680, 20_000), 0.4, 100_000, 0.95, seed=3
    )
    out = {
        "estimate_rate": est.theta_est * sd,
        "z1": math.sqrt(94) * (s.theta_hat - theta0_st),
        "p1": pvalue("mle-alldelta", s, theta0_st),
        "p2": pvalue("pooled-deltazero", s, theta0_st),
        "p3_opt": pvalue("dib-deltabounded", s, theta0_st, 0.05, 0.4),
        "ci": ci,
        "tipping": tipping_point(s, theta0_st, 0.4, 0.05),
        "p3_hat": {d0: p2_p3(s, d0, theta0_st)[1] for d0 in (0.01, 0.05, 0.087)},
    }
    out["elapsed"] = time.time() - start
    return out


def test_criterion_7_prams(prams_pipeline):
    r = prams_pipeline
    report("7", "z1 reconstruction", abs(r["z1"] - 1.1963) <= 5e-4, f"{r['z1']:.4f} vs 1.1963")
    report("7", "option-1 p", abs(r["p1"] - 0.1157) <= 5e-4, f"{r['p1']:.5f} vs 0.1157 +/- 0.0005")
    report("7", "option-2 p", r["p2"] < 1e-4, f"{r['p2']:.2e} < 1e-4")
    lo, hi = r["ci"]
    report("7", "bootstrap ci lo", abs(lo - 0.334) <= 0.01, f"{lo:.4f} vs 0.334 +/- 0.01")
    report("7", "bootstrap ci hi", abs(hi - 0.454) <= 0.01, f"{hi:.4f} vs 0.454 +/- 0.01")
    report("7", "tipping point", abs(r["tipping"] - 0.087) <= 0.005,
           f"{r['tipping']:.4f} vs 0.087 +/- 0.005")
    report("7", "p3@0.01", abs(r["p3_hat"][0.01] - 0.60) <= 0.03, f"{r['p3_hat'][0.01]:.4f} vs 0.60")
    report("7", "p3@0.05", abs(r["p3_hat"][0.05] - 0.74) <= 0.03, f"{r['p3_hat'][0.05]:.4f} vs 0.74")
    report("7", "runtime", r["elapsed"] <= 600.0, f"{r['elapsed']:.0f}s <= 600s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published point estimate 0.396 exceeds both sample means (0.3936 current, 0.384 "
        "external); every borrowing weight in [0,1] lands inside their hull, and the "
        "published z3 = 1.0421 itself back-solves to 0.3858"
    ),
)
def test_criterion_7_point_estimate_published_value(prams_pipeline):
    got = prams_pipeline["estimate_rate"]
    report("7", "ammse(0.4) estimate", abs(got - 0.396) <= 1e-3, f"{got:.4f} vs 0.396 +/- 0.001")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the exact law of the statistic under (theta0, delta0=0.05) gives p = 0.0346; "
        "the published 0.0423 is not reproduced by any coupled simulation consistent with "
        "the published z3 (the neighbouring published values 0.60/0.74/at-tipping all are)"
    ),
)
def test_criterion_7_option3_published_value(prams_pipeline):
    got = prams_pipeline["p3_opt"]
    report("7", "option-3 p", abs(got - 0.0423) <= 0.005, f"{got:.4f} vs 0.0423 +/- 0.005")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published p3 triple {0.60, 0.74, 0.14} is not monotone in delta0, so no CDF-based "
        "p3 can reproduce it; the formula gives 0.84 at delta0=0.087 (1 - 0.84 = 0.16 "
        "suggests a complement slip in the source)"
    ),
)
def test_criterion_7_p3_at_tipping_published_value(prams_pipeline):
    got = prams_pipeline["p3_hat"][0.087]
    report("7", "p3@0.087", abs(got - 0.14) <= 0.03, f"{got:.4f} vs 0.14 +/- 0.03")


# ---------------------------------------------------------------------------
# Criterion 8: CLI determinism
# ---------------------------------------------------------------------------


GOLDEN = Path(__file__).parent / "golden"
_ESTIMATE_ALL = "mle,pooled,ttpool,ommse,ammse,ammse-s,alasso,power-prior,hdpp,ebpp,np,lstp,ltr"
# lstp's posterior mode is a root of a cubic; its estimate columns may move in
# the last digits when the root finder's float order changes
_LSTP_REL_TOL = 1e-10


def _matches_golden(produced: str, got: bytes, want: bytes) -> bool:
    """Byte equality, except lstp's theta_est/delta_est in estimates.csv (relative 1e-10)."""
    if produced != "estimates.csv" or got == want:
        return got == want
    got_rows = got.decode().splitlines()
    want_rows = want.decode().splitlines()
    if len(got_rows) != len(want_rows):
        return False
    for g, w in zip(got_rows, want_rows):
        if g == w:
            continue
        gf, wf = g.split(","), w.split(",")
        if gf[0] != "lstp" or wf[0] != "lstp" or gf[3:] != wf[3:]:
            return False
        for a, b in zip(gf[1:3], wf[1:3]):
            if abs(float(a) - float(b)) > _LSTP_REL_TOL * abs(float(b)):
                return False
    return True


def test_criterion_8_cli_determinism(tmp_path):
    """Reruns and worker counts give the same bytes, and the first run the golden bytes.

    ``tests/golden/<case>/`` holds the first-run directory of each case below
    (seed 9, one worker), so a numerics drift fails here even when it is
    deterministic.
    """
    cases = {
        "srmse-curve": [
            "srmse-curve", "--n", "300", "--m", "3000", "--estimators", "mle,pooled,ammse,lstp",
            "--grid-points", "5", "--svg",
        ],
        "bayes-risk-table": [
            "bayes-risk-table", "--n", "300", "--m", "3000", "--estimators", "mle,ammse",
            "--priors", "pi1,pi4",
        ],
        "power": [
            "power", "--n", "300", "--m", "3000", "--estimators", "mle,ammse",
            "--convention", "delta-bounded", "--delta0", "0.1", "--grid-points", "5", "--svg",
        ],
        "densities": [
            "densities", "--n", "300", "--m", "3000", "--estimators", "mle,pooled,ammse",
            "--sqrt-n-delta", "0,1.58", "--replicates", "6000", "--svg",
        ],
        "example-prams": [
            "example-prams", "--resamples", "20000", "--mc-draws", "30000",
            "--delta0-list", "0.05",
        ],
        "asymptotics-check": [
            "asymptotics-check", "--n", "300", "--m", "3000", "--estimators", "mle,pooled,ammse",
            "--h", "0,1.58", "--draws", "20000",
        ],
        "estimate-small-conflict": [
            "estimate", "--theta-hat", "0.1", "--n", "100", "--beta-hat", "0.13", "--m", "400",
            "--estimators", _ESTIMATE_ALL, "--delta-true", "0.05", "--sens", "0.4",
            "--gamma", "0.5",
        ],
        "estimate-large-conflict": [
            "estimate", "--theta-hat", "0.1", "--n", "100", "--beta-hat", "1.1", "--m", "400",
            "--estimators", _ESTIMATE_ALL, "--delta-true", "0.05", "--sens", "0.4",
            "--gamma", "0.5",
        ],
    }
    for name, args in cases.items():
        dirs = [tmp_path / f"{name}-{tag}" for tag in ("a", "b", "w8")]
        assert cli_run(args + ["--seed", "9", "--out-dir", str(dirs[0]), "--workers", "1"]) == 0
        assert cli_run(args + ["--seed", "9", "--out-dir", str(dirs[1]), "--workers", "1"]) == 0
        assert cli_run(args + ["--seed", "9", "--out-dir", str(dirs[2]), "--workers", "8"]) == 0
        produced_names = sorted(p.name for p in dirs[0].iterdir())
        golden_names = sorted(p.name for p in (GOLDEN / name).iterdir())
        report("8", f"{name} golden files", produced_names == golden_names, f"{produced_names}")
        for produced in produced_names:
            a = (dirs[0] / produced).read_bytes()
            report(
                "8", f"{name}/{produced} golden",
                _matches_golden(produced, a, (GOLDEN / name / produced).read_bytes()),
                f"{len(a)} bytes",
            )
            b = (dirs[1] / produced).read_bytes()
            w = (dirs[2] / produced).read_bytes()
            report("8", f"{name}/{produced} repeat", a == b, f"{len(a)} bytes")
            report("8", f"{name}/{produced} workers 1 vs 8", a == w, f"{len(a)} bytes")
