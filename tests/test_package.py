import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dibkit
from dibkit import estimators

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


def test_every_public_name_is_the_object_its_submodule_defines():
    submodules = [importlib.import_module(f"dibkit.{name}") for name in dibkit._NAMES]
    for name in dibkit.__all__:
        owners = [mod for mod in submodules if name in mod.__all__]
        assert len(owners) == 1 and getattr(dibkit, name) is getattr(owners[0], name), name


def test_dir_and_star_import_cover_every_public_name():
    assert set(dibkit.__all__) <= set(dir(dibkit))
    namespace = {}
    exec("from dibkit import *", namespace)
    assert all(namespace[name] is getattr(dibkit, name) for name in dibkit.__all__)


def test_submodules_are_attributes_after_a_bare_import():
    # in a fresh process, where no submodule has been imported yet
    code = "import dibkit; print(dibkit.risk.__name__, dibkit.cli.__name__, dibkit.summaries.__name__)"
    src = str(Path(dibkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["dibkit.risk", "dibkit.cli", "dibkit.summaries"]


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        dibkit.no_such_name


def test_a_patched_submodule_function_is_seen_through_the_package_until_restored(monkeypatch):
    # nothing is cached in the package, so a tracer's patch and restore of a submodule attribute stay exact
    original = estimators.estimate

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "estimate", patched)
    assert dibkit.estimate is patched
    monkeypatch.undo()
    assert dibkit.estimate is original
