import ast
import inspect
import types

import rttsync
from rttsync import montecarlo

# the public API: a name added here must have a caller outside the tests
PUBLIC_NAMES = {
    "SPEED_OF_LIGHT", "ClockTruth", "LinkTruth", "NoiseSpec", "RttSeries", "SampleSchedule",
    "generate_series", "sawtooth_template", "snr_to_sigma",
    "ExchangeConfig", "Oscillator", "equivalent_clock_truth", "simulate_campaign",
    "Estimate", "SearchGrids", "WeightVector", "pcp_estimate", "phase_error",
    "phase_error_seconds", "preprocess_outliers", "residuals", "robust_weights", "uls_estimate",
    "unwrap", "wls_cost", "wls_estimate",
    "ExperimentConfig", "OutlierSpec", "SweepReport", "run_sweep",
    "AcfReport", "CalibrationCurve", "apply_calibration", "calibrate_range", "residual_acf",
}


def test_package_exports_exactly_the_public_api():
    exported = {
        name for name, value in vars(rttsync).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_montecarlo_reaches_estimators_only_through_estimate_stack():
    # the outlier screen and the estimator dispatch of a sweep live in estimators
    tree = ast.parse(inspect.getsource(montecarlo))
    private = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "estimators" and node.attr.startswith("_")
    }
    private |= {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "estimators"
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == {"_estimate_stack"}
