"""Dynamic information borrowing: estimators, limit laws, risk and testing tools.

The public names are imported from their submodules on first use (PEP 562),
so ``import dibkit`` loads neither numpy nor scipy.  A name is looked up in
its submodule on every access and never cached here, so a patched module
attribute is seen through the package and is gone once it is restored.
"""

import importlib as _importlib

# the layers that load scipy; a name from any of them imports all of them, as the CLI's one
# import site does, so that a tracer reading every layer from sys.modules finds each one
_NUMERIC = ("_law", "asymptotics", "montecarlo", "risk", "streams", "testing")

_NAMES = {
    "asymptotics": (
        "EXTERNAL_MLE", "LimitDraw", "LocalScenario", "NormalLaw", "limit_draw", "limit_law_theorem4",
        "limit_sample", "limit_srmse", "limit_value",
    ),
    "estimators": (
        "AdaptiveLasso", "AdaptiveMmse", "EmpiricalBayesPowerPrior", "EstimateResult", "EstimatorConfig",
        "FixedPowerPrior", "GeneralizedBorrow", "HellingerPowerPrior", "LimitedTranslation", "Mle",
        "NormalPriorBayes", "OracleMmse", "Pooled", "SensitivityMmse", "StudentTPriorBayes", "TestThenPool",
        "config_from_id", "est_alasso", "est_ammse", "est_ammse_s", "est_ebpp", "est_gdib", "est_hdpp", "est_lstp",
        "est_ltr", "est_mle", "est_np", "est_ommse", "est_pooled", "est_ttpool", "estimate", "estimator_id",
        "gamma_eb", "gamma_hd", "power_prior_mean",
    ),
    "montecarlo": ("BootstrapInterval", "EmpiricalDist", "SimPlan", "bootstrap_ci", "ks_distance", "simulate"),
    "risk": (
        "ConflictPrior", "LaplacePrior", "NormalPrior", "PointMassPrior", "RiskCurve", "StudentTPrior",
        "UniformPrior", "imse", "integrated_srmse", "integrated_srmse_batch", "mse_numeric", "srmse",
        "srmse_curve", "table_priors",
    ),
    "summaries": (
        "BinomialRaw", "StandardizedSummary", "TwoSampleSummary", "conflict_stats", "from_raw_binomial",
        "standardized_two_sample",
    ),
    "testing": (
        "AllDelta", "Convention", "CriticalValue", "DeltaBounded", "DeltaZero", "PowerCurve", "SweetSpot",
        "TestSpec", "alasso_local_power_decay", "critical_value", "p2_p3", "power", "power_curve", "pvalue",
        "sweet_spot", "tipping_point",
    ),
}
_SUBMODULE = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = {*_NAMES, *_NUMERIC, "cli", "svg"}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if module in _NUMERIC:
        for layer in _NUMERIC:
            _importlib.import_module(f"{__name__}.{layer}")
    found = _importlib.import_module(f"{__name__}.{module}")
    return found if module == name else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
