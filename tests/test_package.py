import re
from pathlib import Path

import dibkit

README = Path(__file__).resolve().parents[1] / "README.md"

# the public contract: every name `import dibkit` exports
PUBLIC_NAMES = [
    "AdaptiveLasso", "AdaptiveMmse", "AllDelta", "BinomialRaw", "BootstrapInterval", "ConflictPrior",
    "Convention", "CriticalValue", "DeltaBounded", "DeltaZero", "EXTERNAL_MLE", "EmpiricalBayesPowerPrior",
    "EmpiricalDist", "EstimateResult", "EstimatorConfig", "FixedPowerPrior", "GeneralizedBorrow",
    "HellingerPowerPrior", "LaplacePrior", "LimitDraw", "LimitedTranslation", "LocalScenario", "Mle",
    "NormalLaw", "NormalPrior", "NormalPriorBayes", "OracleMmse", "PointMassPrior", "Pooled", "PowerCurve",
    "RiskCurve", "SensitivityMmse", "SimPlan", "StandardizedSummary", "StudentTPrior", "StudentTPriorBayes",
    "SweetSpot", "TestSpec", "TestThenPool", "TwoSampleSummary", "UniformPrior", "alasso_local_power_decay",
    "bootstrap_ci", "config_from_id", "conflict_stats", "critical_value", "est_alasso", "est_ammse",
    "est_ammse_s", "est_ebpp", "est_gdib", "est_hdpp", "est_lstp", "est_ltr", "est_mle", "est_np",
    "est_ommse", "est_pooled", "est_ttpool", "estimate", "estimator_id", "from_raw_binomial", "gamma_eb",
    "gamma_hd", "imse", "integrated_srmse", "integrated_srmse_batch", "ks_distance", "limit_draw",
    "limit_law_theorem4", "limit_sample", "limit_srmse", "limit_value", "mse_numeric", "p2_p3", "power",
    "power_curve", "power_prior_mean", "pvalue", "simulate", "srmse", "srmse_curve",
    "standardized_two_sample", "sweet_spot", "table_priors", "tipping_point",
]


def test_public_names_are_pinned():
    assert dibkit.__all__ == PUBLIC_NAMES
    assert all(hasattr(dibkit, name) for name in dibkit.__all__)


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
